"""No module of ``src/nmfib`` imports ``dataclasses``.

Every CLI call imports the whole package first, so what the import costs,
every subcommand pays.  Decorating a class with ``@dataclass`` generates and
compiles its methods at import time, and ``dataclasses`` itself pulls in
``inspect``.  The package's records are ``NamedTuple`` classes, or slotted
classes where they need more (formulas and signatures).
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules the source imports, in any scope."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    paths = sorted((SRC / "nmfib").glob("*.py"))
    assert paths
    found = {path.name for path in paths if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))}
    assert found == set()


def test_the_scan_sees_each_import_form():
    source = """
import dataclasses as dc
from dataclasses import field
from .syntax import Var


def f():
    import importlib.resources
"""
    assert imported_modules(source) == {"dataclasses", "importlib"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # in a fresh process; what the interpreter loads before the import does not count
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules); import nmfib.cli; "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    added = set(ast.literal_eval(out))
    assert "nmfib.cli" in added
    assert added & {"dataclasses", "inspect"} == set()
