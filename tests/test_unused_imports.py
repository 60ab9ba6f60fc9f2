"""Every name imported in ``src/nmfib/*.py`` and ``tests/*.py`` is read.

A name counts as read when the module loads it as a plain name anywhere,
in any scope, annotations included.  Names listed in the module's
``__all__`` are exempt, as is every ``from __future__`` import.  The
repository has no linter; this test stands in for its unused-import rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """The names the module imports and never reads, in sorted order."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_every_import_is_read():
    paths = sorted([*(ROOT / "src" / "nmfib").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert paths
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {path: names for path, names in found.items() if names} == {}


def test_the_scan_sees_each_import_form():
    source = """
from __future__ import annotations
import os.path
import re as regex
from typing import Optional, Union
from json import dumps as to_text, loads

__all__ = ["loads"]


def f(x: Optional[int]) -> None:
    return regex.compile(x)
"""
    assert unused_imports(source) == ["Union", "os", "to_text"]
