"""No function in ``src/nmfib/*.py`` calls itself, directly or through a
cycle of calls among the package's functions, apart from an allowlist.

A function calls another when its body, the functions nested in it not
counted, calls it by a bare name, or, in a method or a function nested in
one, as ``self.<name>``.  A bare name is looked up as Python looks it up:
in the function's own scope, then in the enclosing functions', then at the
top of its module, where it may be a function defined there or one
imported from another module of the package (``from .syntax import app``).
A name a scope binds otherwise, as a parameter or a variable, is not a
function.  Calls through other attributes, and functions passed as values,
are not followed.

Neither a formula walk nor any other walk over input may recurse: the
interpreter stack would bound the nesting a formula, a rule or a file may
have, and the recursion limit would reach the user as a traceback.  Each
recursion kept is listed with what bounds its depth.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module:qualified name -> what bounds the recursion
ALLOWED: dict[str, str] = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_DEFS, ast.ClassDef)


def _own_nodes(function: ast.AST):
    """The nodes of a function's body and signature, the functions and
    classes nested in it not entered."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def call_graph(modules: dict[str, str]) -> dict[str, set[str]]:
    """Each function of the modules (file name -> source), as
    file:qualified name, with the functions it calls."""
    graph: dict[str, set[str]] = {}
    # (function node, its qualified name, its class for self calls, the
    # scopes it sees, innermost first: name -> function, or None for a name
    # bound otherwise)
    todo: list[tuple[ast.AST, str, str, list[dict[str, str | None]]]] = []
    for module, source in modules.items():
        tree = ast.parse(source)
        top: dict[str, str | None] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                top.update({a.asname or a.name: f"{node.module}.py:{a.name}" for a in node.names})
            elif isinstance(node, _DEFS):
                top[node.name] = f"{module}:{node.name}"
        for node in tree.body:
            if isinstance(node, _DEFS):
                todo.append((node, f"{module}:{node.name}", "", [top]))
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _DEFS):
                        todo.append((method, f"{module}:{node.name}.{method.name}", f"{module}:{node.name}", [top]))
    while todo:
        function, name, cls, scopes = todo.pop()
        args = function.args
        scope: dict[str, str | None] = {
            a.arg: None for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a
        }
        calls = []
        for node in _own_nodes(function):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                scope.setdefault(node.id, None)
            elif isinstance(node, _DEFS):
                scope[node.name] = f"{name}.{node.name}"
                todo.append((node, f"{name}.{node.name}", cls, [scope, *scopes]))
            elif isinstance(node, ast.Call):
                calls.append(node.func)
        callees = graph.setdefault(name, set())
        for f in calls:
            if isinstance(f, ast.Name):
                callees.add(next((s[f.id] for s in (scope, *scopes) if f.id in s), None))
            elif cls and isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "self":
                callees.add(f"{cls}.{f.attr}")
    return {name: callees & graph.keys() for name, callees in graph.items()}


def on_cycles(modules: dict[str, str]) -> list[str]:
    """The functions of the modules that are on a cycle of calls, sorted."""
    graph = call_graph(modules)
    found = []
    for start, callees in graph.items():
        seen, stack = set(callees), list(callees)
        while stack and start not in seen:
            for callee in graph[stack.pop()] - seen:
                seen.add(callee)
                stack.append(callee)
        if start in seen:
            found.append(start)
    return sorted(found)


def test_no_function_calls_itself_unless_allowed():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "nmfib").glob("*.py"))}
    found = on_cycles(modules)
    assert sorted(set(found) - set(ALLOWED)) == []
    # an entry whose recursion is gone is dropped from the list
    assert sorted(set(ALLOWED) - set(found)) == []


def test_the_scan_sees_each_form_of_self_call():
    source = """
def walk(phi):
    return [walk(a) for a in phi.args]


def outer(x):
    def inner(y):
        return inner(y - 1) if y else outer
    return inner(x)


class Tree:
    def size(self, node):
        return 1 + sum(self.size(c) for c in node.children)

    def other(self, node):
        return size(node)


def flat(phi):
    stack = [phi]
    while stack:
        stack.extend(stack.pop().args)


def ping(n):
    return pong(n - 1) if n else 0


def pong(n):
    return ping(n)


def shadowed(walk, ping):
    return walk(ping)
"""
    assert on_cycles({"m.py": source}) == ["m.py:Tree.size", "m.py:outer.inner", "m.py:ping", "m.py:pong", "m.py:walk"]
    # a cycle through an import of another module of the package
    here = "from .b import there as elsewhere\n\n\ndef here():\n    return elsewhere()\n"
    there = "from .a import here\n\n\ndef there():\n    return here()\n"
    assert on_cycles({"a.py": here, "b.py": there}) == ["a.py:here", "b.py:there"]
    assert on_cycles({"a.py": here, "b.py": there.replace("return here()", "return 0")}) == []
