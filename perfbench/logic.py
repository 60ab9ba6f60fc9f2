"""The benchmark's own formula handling and verdict checkers.

Nothing here imports nmfib: every verdict the program returns is checked
against code written independently of it.  Formulas are plain data: a
variable is a ``str`` and a compound is a ``(head, args)`` pair with
``args`` a tuple.  Parsing, printing and evaluation are iterative, so
formulas far deeper than Python's recursion limit are handled.

Truth tables follow the program's file format: a k-place table is a string
of 2^k bits, row i being the big-endian argument vector of i, so the
classical 'or' is "0111".
"""

from __future__ import annotations

import hashlib
import itertools
import re
from typing import Iterable, Mapping, Optional, Sequence

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(.))")


class CheckFailed(Exception):
    """A verdict, certificate or output did not pass an independent check."""


def parse(src: str, nullary: Iterable[str] = ()) -> object:
    """Parse ``ident`` / ``ident(f, ..., f)``; bare identifiers named in
    ``nullary`` are 0-place connectives, all others are variables."""
    nullary = frozenset(nullary)
    # each frame: [head, args]; the bottom frame collects the single result
    stack: list[list] = [[None, []]]
    pending: Optional[str] = None
    for m in _TOKEN.finditer(src):
        ident, sym = m.group(1), m.group(2)
        if ident is not None:
            if pending is not None:
                raise ValueError(f"unexpected identifier in {src!r}")
            pending = ident
        elif sym == "(":
            if pending is None:
                raise ValueError(f"unexpected '(' in {src!r}")
            stack.append([pending, []])
            pending = None
        elif sym in (",", ")"):
            if pending is not None:
                stack[-1][1].append((pending, ()) if pending in nullary else pending)
                pending = None
            if sym == ")":
                if len(stack) < 2 or not stack[-1][1]:
                    raise ValueError(f"unbalanced ')' in {src!r}")
                head, args = stack.pop()
                stack[-1][1].append((head, tuple(args)))
        elif sym is not None and not sym.isspace():
            raise ValueError(f"unexpected {sym!r} in {src!r}")
    if pending is not None:
        stack[-1][1].append((pending, ()) if pending in nullary else pending)
    if len(stack) != 1 or len(stack[0][1]) != 1:
        raise ValueError(f"malformed formula {src!r}")
    return stack[0][1][0]


def _postorder(phi: object):
    """Yield every node once per occurrence, children before parents."""
    stack = [(phi, False)]
    while stack:
        node, done = stack.pop()
        if done or isinstance(node, str):
            yield node
            continue
        stack.append((node, True))
        for a in reversed(node[1]):
            stack.append((a, False))


def text(phi: object) -> str:
    """Print in the program's syntax: ``head(a,b)``, bare 0-place heads."""
    out: dict[int, str] = {}
    last = ""
    for node in _postorder(phi):
        if isinstance(node, str):
            last = node
        elif not node[1]:
            last = node[0]
        else:
            last = f"{node[0]}({','.join(out[id(a)] for a in node[1])})"
        out[id(node)] = last
    return last


def size(phi: object) -> int:
    return sum(1 for _ in _postorder(phi))


def variables(phi: object) -> set[str]:
    return {node for node in _postorder(phi) if isinstance(node, str)}


def substitute(sigma: Mapping[str, object], phi: object) -> object:
    out: dict[int, object] = {}
    last: object = phi
    for node in _postorder(phi):
        if isinstance(node, str):
            last = sigma.get(node, node)
        else:
            last = (node[0], tuple(out[id(a)] for a in node[1]))
        out[id(node)] = last
    return last


def split_sequent(src: str) -> tuple[list[str], str]:
    """``"a, b |- c"`` into premise texts and conclusion text."""
    left, sep, right = src.partition("|-")
    if not sep:
        raise ValueError(f"not a sequent: {src!r}")
    premises, depth, start = [], 0, 0
    for i, ch in enumerate(left):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            premises.append(left[start:i].strip())
            start = i + 1
    if left.strip():
        premises.append(left[start:].strip())
    return premises, right.strip()


# ---------------------------------------------------------------------------
# Classical truth tables
# ---------------------------------------------------------------------------

def table_value(table: str, args: Sequence[int]) -> int:
    row = 0
    for a in args:
        row = row << 1 | a
    return int(table[row])


def evaluate(phi: object, env: Mapping[str, int], tables: Mapping[str, str]) -> int:
    out: dict[int, int] = {}
    last = 0
    for node in _postorder(phi):
        if isinstance(node, str):
            last = env[node]
        else:
            last = table_value(tables[node[0]], [out[id(a)] for a in node[1]])
        out[id(node)] = last
    return last


def classically_valid(premises: Sequence[object], conclusion: object, tables: Mapping[str, str]) -> bool:
    names = sorted(set().union(*(variables(f) for f in (*premises, conclusion))))
    for bits in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        if all(evaluate(p, env, tables) for p in premises) and not evaluate(conclusion, env, tables):
            return False
    return True


def arity_of(table: str) -> int:
    return len(table).bit_length() - 1


def _rows(table: str):
    k = arity_of(table)
    for row in range(1 << k):
        yield tuple(row >> (k - 1 - i) & 1 for i in range(k)), int(table[row])


def top_like(table: str) -> bool:
    return set(table) == {"1"}


def projection_or_top(table: str) -> bool:
    k = arity_of(table)
    return top_like(table) or any(all(v == a[j] for a, v in _rows(table)) for j in range(k))


def conjunction_or_bottom(table: str) -> bool:
    """Constant 0, or the conjunction of the arguments in some set J."""
    ones = [a for a, v in _rows(table) if v]
    if not ones:
        return True
    meet = [all(a[j] for a in ones) for j in range(arity_of(table))]
    return all(v == all(a[j] for j in range(len(a)) if meet[j]) for a, v in _rows(table))


def affine(table: str) -> bool:
    """f(a xor b xor c) = f(a) xor f(b) xor f(c) on all rows."""
    rows = range(len(table))
    return all(
        int(table[a ^ b ^ c]) == int(table[a]) ^ int(table[b]) ^ int(table[c])
        for a in rows for b in rows for c in rows
    )


def affine_one_preserving(table: str) -> bool:
    return table[-1] == "1" and affine(table)


def very_significant(table: str) -> bool:
    """Neither bottom-like nor a conjunction of projections (top included)."""
    return "1" in table and not conjunction_or_bottom(table)


def projective_side(side: Mapping[str, str]) -> bool:
    """Every connective is constant 1 or a projection."""
    return all(projection_or_top(t) for t in side.values())


def recovery_condition(f1: Mapping[str, str], f2: Mapping[str, str]) -> Optional[str]:
    """The first of the recovery conditions a, b, c that holds, or None.

    (a) a side has only constant-1 functions and projections; (b) both
    sides are inside the conjunction-with-constants clone; (c) one side is
    affine and 1-preserving (0-place members must be 1) and the other is a
    single 0-place falsum plus top-likes.
    """
    def cond_c(aff, bot):
        if not all(affine_one_preserving(t) if arity_of(t) else t == "1" for t in aff.values()):
            return False
        falsums = [n for n, t in bot.items() if t == "0"]
        return len(falsums) == 1 and all(top_like(t) for n, t in bot.items() if n != falsums[0])

    if projective_side(f1) or projective_side(f2):
        return "a"
    if all(conjunction_or_bottom(t) for t in (*f1.values(), *f2.values())):
        return "b"
    if cond_c(f1, f2) or cond_c(f2, f1):
        return "c"
    return None


def post_classes(table: str) -> set[str]:
    """Which of Post's five maximal clones (P0, P1, A, M, D) contain it."""
    k = arity_of(table)
    if k == 0:
        table = table * 2  # a 0-place constant acts as a unary constant
        k = 1
    value = dict(_rows(table))
    out = set()
    if not value[(0,) * k]:
        out.add("P0")
    if value[(1,) * k]:
        out.add("P1")
    if affine(table):
        out.add("A")
    if all(value[a] <= value[b] for a in value for b in value if all(x <= y for x, y in zip(a, b))):
        out.add("M")
    if all(value[a] != value[tuple(1 - x for x in a)] for a in value):
        out.add("D")
    return out


def functionally_complete(tables: Iterable[str]) -> bool:
    common = {"P0", "P1", "A", "M", "D"}
    for t in tables:
        common &= post_classes(t)
    return not common


# ---------------------------------------------------------------------------
# Countermodels
# ---------------------------------------------------------------------------

def _check_domain(assignment: Mapping[str, str], premises: Sequence[str], conclusion: str, nullary) -> dict:
    """Parse the domain and check it is subformula-closed and holds the sequent."""
    parsed = {}
    for key in assignment:
        phi = parse(key, nullary)
        if text(phi) != key:
            raise CheckFailed(f"countermodel key {key!r} is not in canonical print form")
        parsed[key] = phi
    for key, phi in parsed.items():
        if not isinstance(phi, str):
            for a in phi[1]:
                if text(a) not in assignment:
                    raise CheckFailed(f"domain not subformula-closed: {text(a)} missing under {key}")
    for f in (*premises, conclusion):
        if f not in assignment:
            raise CheckFailed(f"sequent formula {f} outside the countermodel domain")
    return parsed


def check_countermodel(
    matrix,
    assignment: Mapping[str, str],
    premises: Sequence[str],
    conclusion: str,
    rules: Sequence[tuple[Sequence[str], str]] = (),
) -> None:
    """Re-check a countermodel against the matrix's cells and designation.

    ``matrix`` needs ``values``, ``designated``, ``signature`` and
    ``cell(conn, args)``.  With ``rules`` (premise texts, conclusion text,
    over the rule's own variables) every instance inside the domain must be
    respected as well.
    """
    nullary = [n for n, k in matrix.signature.connectives if k == 0]
    parsed = _check_domain(assignment, premises, conclusion, nullary)
    values = set(matrix.values)
    for key, phi in parsed.items():
        v = assignment[key]
        if v not in values:
            raise CheckFailed(f"{key} |-> {v} is not a value of the matrix")
        if not isinstance(phi, str):
            args = tuple(assignment[text(a)] for a in phi[1])
            if v not in matrix.cell(phi[0], args):
                raise CheckFailed(f"{key} |-> {v} lies outside the cell {phi[0]}{args}")
    des = matrix.designated
    for p in premises:
        if assignment[p] not in des:
            raise CheckFailed(f"premise {p} is not designated")
    if assignment[conclusion] in des:
        raise CheckFailed(f"conclusion {conclusion} is designated")
    for prem_texts, concl_text in rules:
        pats = [parse(t, nullary) for t in (*prem_texts, concl_text)]
        names = sorted(set().union(*(variables(p) for p in pats)))
        for combo in itertools.product(list(parsed.values()), repeat=len(names)):
            inst = [text(substitute(dict(zip(names, combo)), p)) for p in pats]
            if all(i in assignment for i in inst):
                if all(assignment[i] in des for i in inst[:-1]) and assignment[inst[-1]] not in des:
                    raise CheckFailed(f"countermodel breaks the rule instance {inst}")


def parse_value(name: str) -> object:
    """A product value name such as ``((0,1),(1,1))`` as nested int tuples."""
    stack: list[list] = [[]]
    for ch in name:
        if ch == "(":
            stack.append([])
        elif ch == ")":
            inner = stack.pop()
            stack[-1].append(tuple(inner))
        elif ch in "01":
            stack[-1].append(int(ch))
        elif ch != ",":
            raise CheckFailed(f"unexpected character in value {name!r}")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise CheckFailed(f"malformed value {name!r}")
    return stack[0][0]


def check_product_countermodel(
    sides: Sequence[Mapping[str, str]],
    power: int,
    assignment: Mapping[str, str],
    premises: Sequence[str],
    conclusion: str,
) -> None:
    """Re-check a countermodel in the strict product of powers of two
    classical fragments, from the value names alone.

    Each value is a pair; coordinate s holds side s's component value, a bit
    at power 1 (allowed only for a saturated side, one with no very
    significant connective) or a tuple of bits at the given power.  A
    connective of side s fixes coordinate s, bitwise, and leaves the other
    coordinate free; a value is designated when its first coordinate is all
    ones, and a value exists only when both coordinates agree on that.
    """
    nullary = [n for side in sides for n, t in side.items() if arity_of(t) == 0]
    parsed = _check_domain(assignment, premises, conclusion, nullary)
    owner = {n: s for s, side in enumerate(sides) for n in side}
    tables = {n: t for side in sides for n, t in side.items()}
    widths = [1 if not any(very_significant(t) for t in side.values()) else power for side in sides]

    def coords(v: object, s: int) -> tuple:
        if not (isinstance(v, tuple) and len(v) == 2):
            raise CheckFailed(f"value {v!r} is not a pair")
        c = v[s]
        bits = (c,) if isinstance(c, int) else c
        if len(bits) != widths[s] or any(not isinstance(b, int) for b in bits):
            raise CheckFailed(f"value {v!r} does not fit side {s + 1} at width {widths[s]}")
        if isinstance(c, int) != (widths[s] == 1):
            raise CheckFailed(f"value {v!r} has the wrong shape on side {s + 1}")
        return bits

    vals = {key: parse_value(v) for key, v in assignment.items()}
    designated = {}
    for key, v in vals.items():
        d0, d1 = (all(coords(v, s)) for s in (0, 1))
        if d0 != d1:
            raise CheckFailed(f"value {assignment[key]} disagrees on designation")
        designated[key] = d0
    for key, phi in parsed.items():
        if isinstance(phi, str):
            continue
        s = owner.get(phi[0])
        if s is None:
            raise CheckFailed(f"unknown connective {phi[0]}")
        args = [coords(vals[text(a)], s) for a in phi[1]]
        want = tuple(table_value(tables[phi[0]], [a[i] for a in args]) for i in range(widths[s]))
        if coords(vals[key], s) != want:
            raise CheckFailed(f"{key} |-> {assignment[key]} breaks the table of {phi[0]}")
    for p in premises:
        if not designated[p]:
            raise CheckFailed(f"premise {p} is not designated")
    if designated[conclusion]:
        raise CheckFailed(f"conclusion {conclusion} is designated")


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

def check_derivation(
    steps: Sequence[tuple[str, Optional[tuple[str, Mapping[str, str], Sequence[int]]]]],
    rules: Mapping[str, tuple[Sequence[str], str]],
    premises: Sequence[str],
    goal: str,
    nullary: Iterable[str] = (),
) -> None:
    """Re-check a derivation step by step with this module's substitution.

    A step is ``(formula text, None)`` for a premise or ``(formula text,
    (rule name, substitution of texts, premise step indices))``.
    """
    nullary = list(nullary)
    if not steps or steps[-1][0] != goal:
        raise CheckFailed("derivation does not end in the goal")
    for i, (formula, just) in enumerate(steps):
        if just is None:
            if formula not in premises:
                raise CheckFailed(f"step {i}: {formula} is not a premise")
            continue
        name, sigma_text, used = just
        if name not in rules:
            raise CheckFailed(f"step {i}: unknown rule {name}")
        prem_pats, concl_pat = rules[name]
        if len(used) != len(prem_pats) or any(not 0 <= k < i for k in used):
            raise CheckFailed(f"step {i}: bad premise references {used}")
        sigma = {v: parse(t, nullary) for v, t in sigma_text.items()}
        for pat, k in zip(prem_pats, used):
            if text(substitute(sigma, parse(pat, nullary))) != steps[k][0]:
                raise CheckFailed(f"step {i}: premise {pat} does not match step {k}")
        if text(substitute(sigma, parse(concl_pat, nullary))) != formula:
            raise CheckFailed(f"step {i}: {formula} is not the instance of {name}")


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
