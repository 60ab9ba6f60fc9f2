"""Every top-level function and class of the library, and every method of
a top-level class, has a non-test caller.

A definition counts as called when its name is read (as a name or as an
attribute) outside its own body: elsewhere in ``src/nmfib``, or in
``perfbench/*.py``.  Imports and ``__all__`` entries do not count.  Dunder
names such as ``__getattr__`` or ``__bool__`` are called by the interpreter
and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# definitions kept without a library caller, each with its reason
ALLOWED = {
    "matrices_equal": "checks the bundled golden matrix files against their constructors",
    "standard_fragment": "the documented library entry point for the classical fragments",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def uncalled_definitions() -> list[str]:
    modules = sorted((ROOT / "src" / "nmfib").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    trees |= {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))}
    # every name read anywhere, with the nodes that read it
    readers: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                readers.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, []).append(node)
    out = []
    for path in modules:
        # top-level definitions, then the methods of top-level classes
        definitions = [(d.name, d) for d in trees[path].body if isinstance(d, _DEFINITIONS)]
        definitions += [
            (f"{c.name}.{d.name}", d)
            for c in trees[path].body
            if isinstance(c, ast.ClassDef)
            for d in c.body
            if isinstance(d, _DEFINITIONS)
        ]
        for qualname, definition in definitions:
            name = definition.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in own for node in readers.get(name, ())):
                out.append(f"{path.stem}.{qualname}")
    return out


def test_every_library_definition_has_a_non_test_caller():
    uncalled = uncalled_definitions()
    # entries are module.name or module.Class.method; ALLOWED holds what follows the module
    assert [entry for entry in uncalled if entry.split(".", 1)[1] not in ALLOWED] == []
    stale = set(ALLOWED) - {entry.split(".", 1)[1] for entry in uncalled}
    assert not stale, f"allowlisted names that now have a caller: {sorted(stale)}"
