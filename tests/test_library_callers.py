"""Every top-level function and class of the library, and every method of
a top-level class, has a non-test caller.

A definition counts as called when its name is read (as a name or as an
attribute) outside its own body: elsewhere in ``src/nmfib``, or in
``perfbench/*.py``.  Imports and ``__all__`` entries do not count.  Nor does
a name read inside a function (or a function nested in it) that binds the
name itself, as a parameter or as an assignment, loop or comprehension
target: that read is of the local.  Dunder names such as ``__getattr__`` or
``__bool__`` are called by the interpreter and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# definitions kept without a library caller, each with its reason
ALLOWED = {
    "standard_fragment": "the documented library entry point for the classical fragments",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bindings(function: ast.AST) -> set[str]:
    """The names a function binds in its own scope: its parameters and the
    names it stores to, outside the functions nested in it."""
    args = function.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _reads(tree: ast.AST) -> dict[str, list[ast.AST]]:
    """Every name read in the tree that no enclosing function binds, and every
    attribute read, with the nodes that read it."""
    readers: dict[str, list[ast.AST]] = {}
    stack: list[tuple[ast.AST, frozenset[str]]] = [(tree, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, _FUNCTIONS):
            local = local | _bindings(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            readers.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            readers.setdefault(node.attr, []).append(node)
        stack.extend((child, local) for child in ast.iter_child_nodes(node))
    return readers


def uncalled_definitions(modules: dict[str, str], callers: dict[str, str]) -> list[str]:
    """The definitions of ``modules`` (module name -> source) that nothing in
    ``modules`` or ``callers`` reads, as module.name or module.Class.method."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    readers: dict[str, list[ast.AST]] = {}
    for tree in [*trees.values(), *(ast.parse(source) for source in callers.values())]:
        for name, nodes in _reads(tree).items():
            readers.setdefault(name, []).extend(nodes)
    out = []
    for module, tree in trees.items():
        # top-level definitions, then the methods of top-level classes
        definitions = [(d.name, d) for d in tree.body if isinstance(d, _DEFINITIONS)]
        definitions += [
            (f"{c.name}.{d.name}", d)
            for c in tree.body
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
                out.append(f"{module}.{qualname}")
    return out


def _sources(paths) -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(paths)}


def test_every_library_definition_has_a_non_test_caller():
    uncalled = uncalled_definitions(
        _sources((ROOT / "src" / "nmfib").glob("*.py")), _sources((ROOT / "perfbench").glob("*.py"))
    )
    # entries are module.name or module.Class.method; ALLOWED holds what follows the module
    assert [entry for entry in uncalled if entry.split(".", 1)[1] not in ALLOWED] == []
    stale = set(ALLOWED) - {entry.split(".", 1)[1] for entry in uncalled}
    assert not stale, f"allowlisted names that now have a caller: {sorted(stale)}"


def test_a_local_of_the_same_name_is_not_a_caller():
    # each of size, depth and width is read only as a local of a function
    # that binds it: a loop target, a parameter, a comprehension target
    lib = """
def size(phi):
    return 1

def depth(phi):
    return 0

def width(phi):
    return 2

def check(items, depth):
    for size in items:
        print(size, depth)
    return [width for width in items]
"""
    assert uncalled_definitions({"lib": lib}, {"bench": "check([], 0)"}) == ["lib.size", "lib.depth", "lib.width"]


def test_a_closure_or_an_outside_read_is_a_caller():
    lib = """
def size(phi):
    return 1

def depth(phi):
    return 0

def outer(items):
    def inner():
        return size(items)
    return inner()

def other(depth):
    return depth + outer([])
"""
    # size is read in a nested function that binds no size; depth is read by
    # the caller module, outside every function that binds it
    assert uncalled_definitions({"lib": lib}, {"bench": "print(depth(0), other(1))"}) == []
