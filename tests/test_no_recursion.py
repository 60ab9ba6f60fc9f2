"""No function in ``src/nmfib/*.py`` calls itself, apart from an allowlist.

A function counts as calling itself when its body, nested functions
included, calls its own name as a bare name, or, for a method, as
``self.<name>``.  Formula walks must not recurse: the interpreter stack
would bound the nesting a formula may have.  Each recursion kept is listed
with what bounds its depth.  Mutual recursion is not looked for.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module:qualified name -> what bounds the recursion
ALLOWED = {
    "calculus.py:derive.fire.match_from": "one frame per premise of a rule; cli.main reports a rule past the limit",
    "calculus.py:_Universe.extensions": "one frame per schema level, at most the universe depth",
    "boolfun.py:threshold_formula.build": "one frame per argument of thr_k_n; its 2^k-row table bounds k first",
    "fibring.py:_random_sequent.gen": "one frame per level of a seeded formula, at most its small depth argument",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_calls(source: str) -> list[str]:
    """The qualified names of the functions that call themselves, sorted."""
    found: set[str] = set()
    stack: list[tuple[ast.AST, str, bool]] = [(ast.parse(source), "", False)]
    while stack:
        node, prefix, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}.", True))
            elif isinstance(child, _DEFS):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    by_name = isinstance(f, ast.Name) and f.id == child.name
                    by_self = (
                        in_class
                        and isinstance(f, ast.Attribute)
                        and f.attr == child.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self"
                    )
                    if by_name or by_self:
                        found.add(prefix + child.name)
                stack.append((child, f"{prefix}{child.name}.", False))
            else:
                stack.append((child, prefix, in_class))
    return sorted(found)


def test_no_function_calls_itself_unless_allowed():
    found = []
    for path in sorted((ROOT / "src" / "nmfib").glob("*.py")):
        found += [f"{path.name}:{name}" for name in self_calls(path.read_text(encoding="utf-8"))]
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
"""
    assert self_calls(source) == ["Tree.size", "outer.inner", "walk"]
