"""Every top-level function and class of the library, and every method of
a top-level class, has a non-test caller; and each of their parameters with
a default is passed by one.

A definition counts as called when its name is read (as a name or as an
attribute) outside its own body: elsewhere in ``src/nmfib``, or in
``perfbench/*.py``.  Imports and ``__all__`` entries do not count.  Nor does
a name read inside a function (or a function nested in it) that binds the
name itself, as a parameter or as an assignment, loop or comprehension
target: that read is of the local.  Dunder names such as ``__getattr__`` or
``__bool__`` are called by the interpreter and are exempt.

A parameter with a default counts as passed when a call of a function of
its name (as a name or as an attribute), outside the function's own body,
gives it by keyword, or gives enough positional arguments to reach it; a
call with ``*args`` or ``**kwargs`` passes every parameter it could reach.
An ``__init__`` is called by its class's name.  A parameter no caller
passes is an option no caller sets.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# definitions kept without a library caller, and parameters, written
# name(parameter), kept without one that passes them, each with its reason
ALLOWED = {
    "standard_fragment": "the documented library entry point for the classical fragments",
    "standard_fragment(rename)": "documented in the README: a second copy of a connective under another name",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_DEFS, ast.ClassDef)
_FUNCTIONS = (*_DEFS, ast.Lambda)


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


def _calls(tree: ast.AST) -> dict[str, list[ast.Call]]:
    """Every call in the tree, by the name (or attribute) it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is not None:
                calls.setdefault(name, []).append(node)
    return calls


def _defaulted(function: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """The parameters of a function that have defaults, each with its index
    among the positional arguments of a call (None for keyword-only)."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list)
    # a call of a method or a class method does not pass its first argument
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    out: list[tuple[str, int | None]] = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, parameter: str, index: int | None) -> bool:
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > index


def unpassed_parameters(modules: dict[str, str], callers: dict[str, str]) -> list[str]:
    """The parameters with defaults of the definitions of ``modules`` that no
    call in ``modules`` or ``callers`` passes, as module.name(parameter) or
    module.Class.method(parameter)."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *(ast.parse(source) for source in callers.values())]:
        for name, nodes in _calls(tree).items():
            calls.setdefault(name, []).extend(nodes)
    out = []
    for module, tree in trees.items():
        functions = [(d.name, d.name, d, False) for d in tree.body if isinstance(d, _DEFS)]
        functions += [
            (f"{c.name}.{d.name}", c.name if d.name == "__init__" else d.name, d, True)
            for c in tree.body
            if isinstance(c, ast.ClassDef)
            for d in c.body
            if isinstance(d, _DEFS)
        ]
        for qualname, called_as, function, method in functions:
            own = {id(node) for node in ast.walk(function)}
            outside = [call for call in calls.get(called_as, ()) if id(call) not in own]
            for parameter, index in _defaulted(function, method):
                if not any(_passes(call, parameter, index) for call in outside):
                    out.append(f"{module}.{qualname}({parameter})")
    return out


def _sources(paths) -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(paths)}


def _library() -> tuple[dict[str, str], dict[str, str]]:
    return _sources((ROOT / "src" / "nmfib").glob("*.py")), _sources((ROOT / "perfbench").glob("*.py"))


def _check_allowed(found: list[str], parameters: bool) -> None:
    # entries start with the module; ALLOWED holds what follows it
    assert [entry for entry in found if entry.split(".", 1)[1] not in ALLOWED] == []
    allowed = {name for name in ALLOWED if ("(" in name) == parameters}
    stale = allowed - {entry.split(".", 1)[1] for entry in found}
    assert not stale, f"allowlisted names that now have a caller: {sorted(stale)}"


def test_every_library_definition_has_a_non_test_caller():
    _check_allowed(uncalled_definitions(*_library()), parameters=False)


def test_every_defaulted_parameter_is_passed_by_a_non_test_caller():
    _check_allowed(unpassed_parameters(*_library()), parameters=True)


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


def test_a_parameter_is_passed_by_position_keyword_or_unpacking():
    lib = """
def f(a, b=1, c=2, *, d=3):
    return f(a, b, c, d=d)

class Box:
    def __init__(self, size=0):
        self.size = size

    def grow(self, by=1, twice=False):
        return by

    @staticmethod
    def make(size=0):
        return Box()
"""
    # b is reached by position, grow's parameters by unpacking and make's
    # by keyword unpacking; c and d are passed only by f's own call
    bench = "f(0, 1)\nBox().grow(*xs)\nBox.make(**kw)"
    assert unpassed_parameters({"lib": lib}, {"bench": bench}) == ["lib.f(c)", "lib.f(d)", "lib.Box.__init__(size)"]
