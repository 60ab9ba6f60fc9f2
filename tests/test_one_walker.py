"""No function in ``src/nmfib/*.py`` walks formulas on a stack of its own,
apart from an allowlist: a post-order walk follows ``syntax.postorder``.

A function counts as walking on its own stack when its body, the functions
nested in it not counted, pops a list (``.pop()`` without an argument)
inside a ``while`` loop, and its body, nested functions included, reads an
``.args`` attribute.  Each walk kept is listed with why it is no post-order
walk, or why it keeps its own stack.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module:qualified name -> why the function keeps its own stack
ALLOWED: dict[str, str] = {
    "calculus.py:_matcher": "pre-order: the generated code tests a node's class and head before it reads the "
    "node's arguments",
    "calculus.py:_Universe.extensions": "schema first: each node narrows the substitutions found so far before "
    "its arguments are visited",
    "syntax.py:apply_substitution": "fills a leaf argument in without a frame; on formulas of 3 and 9 nodes, "
    "postorder and a dict of instances took 2.4 and 1.7 times as long",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_DEFS, ast.ClassDef)


def _own_nodes(node: ast.AST):
    """The nodes below node, the functions and classes nested in it not
    entered."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _SCOPES):
            stack.extend(ast.iter_child_nodes(child))


def _pops_in_a_loop(function: ast.AST) -> bool:
    return any(
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "pop"
        and not call.args
        for loop in _own_nodes(function)
        if isinstance(loop, ast.While)
        for call in _own_nodes(loop)
    )


def _reads_args(function: ast.AST) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "args" for node in ast.walk(function))


def own_stack_walks(modules: dict[str, str]) -> list[str]:
    """The functions of the modules (file name -> source), as file:qualified
    name, that walk formulas on a stack of their own, sorted."""
    found = []
    todo = [(node, module, "") for module, source in modules.items() for node in ast.parse(source).body]
    while todo:
        node, module, prefix = todo.pop()
        if not isinstance(node, _SCOPES):
            continue
        name = f"{prefix}{node.name}"
        if isinstance(node, _DEFS) and _pops_in_a_loop(node) and _reads_args(node):
            found.append(f"{module}:{name}")
        todo.extend((child, module, f"{name}.") for child in _own_nodes(node) if isinstance(child, _SCOPES))
    return sorted(found)


def test_no_function_walks_formulas_on_its_own_stack_unless_allowed():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "nmfib").glob("*.py"))}
    found = own_stack_walks(modules)
    assert sorted(set(found) - set(ALLOWED)) == []
    # an entry whose walk is gone is dropped from the list
    assert sorted(set(ALLOWED) - set(found)) == []


def test_the_scan_sees_each_form_of_stack_walk():
    source = """
def closure(phis):
    out, stack = set(), list(phis)
    while stack:
        psi = stack.pop()
        out.add(psi)
        stack.extend(psi.args)
    return out


def order(phi):
    def below(psi):
        return psi.args

    stack = [phi]
    while stack:
        stack.extend(below(stack.pop()))


class Walker:
    def walk(self, phi):
        todo = [phi]
        while todo:
            if todo.pop().args:
                pass


def outer(phi):
    def inner(stack):
        while stack:
            stack.pop()
    return inner(list(phi.args))


def not_a_stack(phi, sigma):
    while sigma:
        sigma.pop("p")
    return phi.args


def no_loop(phi):
    return [phi.args].pop()


def no_args(steps):
    todo = [0]
    while todo:
        todo.extend(steps[todo.pop()])
"""
    assert own_stack_walks({"m.py": source}) == ["m.py:Walker.walk", "m.py:closure", "m.py:order"]
