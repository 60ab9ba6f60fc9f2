"""Boolean functions as truth-table bitmasks, connective taxonomy, Post's lattice.

A k-place function is a 2^k-bit table.  Row i is the argument vector given by
the k-bit big-endian encoding of i (first argument = most significant bit),
and bit i of the mask holds the value on row i.  The string form writes row 0
first, so the classical 'or' is "0111".

Post's lattice is written down once, as the member tests of its
meet-irreducible clones (P0, P1, M, D, L, E, V, N) together with the
separation degree of a function and of its dual.  Each question names the
irreducibles it needs (inside), and membership in the clone of a set of
functions is one predicate built from the same tests (_clone_test): the
k-ary slice of the clone (clone_closure_at_arity) is read off it with no
search, and it decides whether a table is expressible (find_expression).  A
0-place function counts as its unary constant throughout.  Derived
connectives come from one search, _closure, which yields each new table of a
clone once, with a recipe for it; clone_expressions turns the recipes into
formulas, building one formula per table it keeps.  The search only builds
the formula of a table the lattice has already placed in the clone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from . import bundled
from .syntax import (
    Formula,
    Signature,
    SignatureError,
    Var,
    app,
    apply_substitution,
    parse,
    subformulas,
    var,
)

__all__ = [
    "BooleanFunction",
    "Classification",
    "classify",
    "PostPredicates",
    "post_predicates",
    "inside",
    "separation_degree",
    "FragmentSpec",
    "functionally_complete",
    "clone_closure_at_arity",
    "clone_expressions",
    "find_expression",
    "function_of_formula",
    "nontop_unary_witness",
    "threshold_function",
    "standard_function",
    "standard_fragment",
    "PRIMITIVE_TABLES",
    "DERIVED_TRANSLATIONS",
    "load_fragment",
]


def _rows(arity: int) -> int:
    """The number of rows of a table of this arity; a ValueError if the arity is negative."""
    if arity < 0:
        raise ValueError(f"arity {arity} is negative")
    return 1 << arity


@dataclass(frozen=True)
class BooleanFunction:
    arity: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << _rows(self.arity)):
            raise ValueError(f"table out of range for arity {self.arity}")

    @staticmethod
    def from_string(s: str, arity: int) -> "BooleanFunction":
        # 2^arity is computed only up to the bit length of len(s): past it,
        # the rows outnumber the string whatever the arity
        if _rows(min(arity, len(s).bit_length())) != len(s) or set(s) - {"0", "1"}:
            raise ValueError(f"table string {s!r} is not 2^{arity} bits")
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
        return BooleanFunction(arity, bits)

    @staticmethod
    def from_callable(arity: int, fn: Callable[..., int]) -> "BooleanFunction":
        bits = 0
        for row in range(_rows(arity)):
            if fn(*_row_args(row, arity)):
                bits |= 1 << row
        return BooleanFunction(arity, bits)

    def to_string(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(1 << self.arity))

    def on_row(self, row: int) -> int:
        return self.bits >> row & 1

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"arity {self.arity} function got {len(args)} arguments")
        return self.on_row(_row_index(args))

    def __str__(self) -> str:
        return self.to_string()


def _row_index(args: Sequence[int]) -> int:
    row = 0
    for a in args:
        row = row << 1 | (1 if a else 0)
    return row


def _row_args(row: int, arity: int) -> tuple[int, ...]:
    return tuple(row >> (arity - 1 - i) & 1 for i in range(arity))


def _projection(arity: int, j: int) -> int:
    """Table of the j-th projection (1-based) at the given arity."""
    return sum(1 << row for row in range(1 << arity) if row >> (arity - j) & 1)


def _constant(arity: int, value: int) -> BooleanFunction:
    rows = 1 << arity
    return BooleanFunction(arity, (1 << rows) - 1 if value else 0)


# ---------------------------------------------------------------------------
# Taxonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    top_like: bool
    bottom_like: bool
    projective_indices: tuple[int, ...]
    projection_conjunction: Optional[tuple[int, ...]]
    significant: bool
    very_significant: bool
    truth_preserving: bool


def classify(f: BooleanFunction) -> Classification:
    rows = 1 << f.arity
    ones = [r for r in range(rows) if f.on_row(r)]
    top = len(ones) == rows
    bottom = not ones
    # j is projective iff f(a)=1 forces a_j=1
    projective = tuple(
        j for j in range(1, f.arity + 1)
        if all(r >> (f.arity - j) & 1 for r in ones)
    )
    # the only candidate J is the projective set itself
    mask = 0
    for j in projective:
        mask |= 1 << (f.arity - j)
    is_pc = all(f.on_row(r) == (1 if r & mask == mask else 0) for r in range(rows))
    pc = projective if is_pc and not bottom else None
    return Classification(
        top_like=top,
        bottom_like=bottom,
        projective_indices=projective,
        projection_conjunction=pc,
        significant=not top and not bottom,
        very_significant=not bottom and pc is None,
        truth_preserving=bool(f.on_row(rows - 1)),
    )


# ---------------------------------------------------------------------------
# Post's lattice (Post 1941; bases in Boehler, Creignou, Reith & Vollmer 2003)
# ---------------------------------------------------------------------------

def _lift(f: BooleanFunction) -> BooleanFunction:
    """f, or its unary constant when f is 0-place."""
    return _constant(1, f.bits) if f.arity == 0 else f


@functools.cache
def _columns(k: int) -> tuple[tuple[int, int], ...]:
    """For each argument of a k-place table: the row offset that flips it,
    and the mask of the rows on which it is 1."""
    return tuple((1 << (k - j), _projection(k, j)) for j in range(1, k + 1))


def _dual(k: int, bits: int) -> int:
    """The table of the dual not f(not x): each row takes the negated value
    of its complement row."""
    rows = 1 << k
    return (1 << rows) - 1 ^ int(format(bits, f"0{rows}b")[::-1], 2)


def _affine(k: int, bits: int) -> bool:
    # the value at row 0, xor each argument that flips it from there
    table = bits & 1 and (1 << (1 << k)) - 1
    for shift, column in _columns(k):
        if (bits >> shift ^ bits) & 1:
            table ^= column
    return table == bits


def _conjunctive(k: int, bits: int) -> bool:
    # constant 0, or the conjunction of the arguments true on every true row
    table = (1 << (1 << k)) - 1
    for _, column in _columns(k):
        if not bits & ~column:
            table &= column
    return bits in (0, table)


def _disjunctive(k: int, bits: int) -> bool:
    # constant 1, or the disjunction of the arguments whose true rows it covers
    table = 0
    for _, column in _columns(k):
        if not column & ~bits:
            table |= column
    return bits in ((1 << (1 << k)) - 1, table)


# The meet-irreducible clones of Post's lattice, each with the test of its
# members of arity >= 1.  Every clone is the intersection of those of them
# that contain it, with T0_d and its dual T1_d, which separation_degree reads.
_IRREDUCIBLE: dict[str, Callable[[int, int], bool]] = {
    "P0": lambda k, bits: not bits & 1,
    "P1": lambda k, bits: bool(bits >> (1 << k) - 1 & 1),
    "M": lambda k, bits: all(not (bits & ~column) << shift & ~bits for shift, column in _columns(k)),
    "D": lambda k, bits: _dual(k, bits) == bits,
    "L": _affine,
    "E": _conjunctive,
    "V": _disjunctive,
    # at most one argument changes the value
    "N": lambda k, bits: sum(bool((bits >> shift ^ bits) & ~column) for shift, column in _columns(k)) <= 1,
}


def inside(functions: Iterable[BooleanFunction], *clones: str) -> bool:
    """Whether every function lies in each of the named irreducible clones
    (P0, P1, M, D, L, E, V, N); only the named ones are tested."""
    lifted = [_lift(f) for f in functions]
    return all(_IRREDUCIBLE[c](f.arity, f.bits) for c in clones for f in lifted)


def _degree(k: int, bits: int) -> float:
    ones = [r for r in range(1 << k) if bits >> r & 1]
    # the meets of d true rows, as masks of the coordinates they share
    meets, d = {(1 << k) - 1}, -1
    while 0 not in meets:
        grown = {m & r for m in meets for r in ones}
        if grown == meets:
            return math.inf
        meets, d = grown, d + 1
    return d


def separation_degree(f: BooleanFunction) -> float:
    """The largest d such that every d true rows of f share a coordinate
    equal to 1; infinity when all its true rows share one.  T0_d, the clone
    of coimp and thr_{d+1}_d, holds the functions of degree at least d, and
    T0_inf, the clone of coimp, those of infinite degree; degree 1 is P0."""
    f = _lift(f)
    return _degree(f.arity, f.bits)


@dataclass(frozen=True)
class PostPredicates:
    preserves0: bool
    preserves1: bool
    monotone: bool
    affine: bool
    self_dual: bool


def post_predicates(f: BooleanFunction) -> PostPredicates:
    """Membership in Post's five maximal clones."""
    return PostPredicates(*(inside([f], c) for c in ("P0", "P1", "M", "L", "D")))


# ---------------------------------------------------------------------------
# Fragments of classical logic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FragmentSpec:
    """A signature together with a Boolean function for each connective."""

    functions: tuple[tuple[str, BooleanFunction], ...]

    @staticmethod
    def of(items: Mapping[str, BooleanFunction] | Iterable[tuple[str, BooleanFunction]]) -> "FragmentSpec":
        pairs = sorted(items.items()) if isinstance(items, Mapping) else sorted(items)
        return FragmentSpec(tuple(pairs))

    @property
    def signature(self) -> Signature:
        return Signature.of([(name, f.arity) for name, f in self.functions])

    def function(self, name: str) -> BooleanFunction:
        for n, f in self.functions:
            if n == name:
                return f
        raise SignatureError(f"connective {name!r} not in fragment")

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.functions)

    def tables(self) -> tuple[BooleanFunction, ...]:
        return tuple(f for _, f in self.functions)

    def union(self, other: "FragmentSpec") -> "FragmentSpec":
        mine = dict(self.functions)
        for n, f in other.functions:
            if n in mine and mine[n] != f:
                raise SignatureError(f"connective {n!r} declared with two different tables")
            mine[n] = f
        return FragmentSpec.of(mine)


def functionally_complete(frag: FragmentSpec) -> bool:
    """Post's criterion: complete iff no maximal clone holds the fragment."""
    return not any(inside(frag.tables(), c) for c in ("P0", "P1", "M", "D", "L"))


# ---------------------------------------------------------------------------
# Clone closure at a fixed arity
# ---------------------------------------------------------------------------

def _minterms(g: BooleanFunction) -> list[tuple[int, ...]]:
    """The argument vectors on which g is 1."""
    return [_row_args(row, g.arity) for row in range(1 << g.arity) if g.on_row(row)]


def _compose_bits(minterms: Sequence[tuple[int, ...]], hs: Sequence[int], full: int) -> int:
    """Table of g(h1..hm) as a mask over the rows of full, given the
    argument vectors on which g is 1: each contributes the rows where every
    argument mask agrees with it."""
    out = 0
    for args in minterms:
        acc = full
        for bit, h in zip(args, hs):
            acc &= h if bit else full ^ h
            if not acc:
                break
        out |= acc
    return out


def _frontier_tuples(new_item, older: Sequence, m: int):
    """All m-tuples over older+[new_item] containing new_item, each once."""
    for mask in range(1, 1 << m):
        free = [i for i in range(m) if not mask >> i & 1]
        for choice in itertools.product(older, repeat=len(free)):
            tup = [new_item] * m
            for i, val in zip(free, choice):
                tup[i] = val
            yield tup


def _check_closure_arity(k: int) -> None:
    if not 1 <= k <= 4:
        raise ValueError(f"closure arity (--arity) must be between 1 and 4 (got {k})")


def _closure(named_gens: Sequence[tuple[str, BooleanFunction]], k: int) -> Iterator[tuple[int, object]]:
    """Each table of the k-ary slice of the clone of the named generators,
    once, in discovery order, with a recipe for it: the index j of the
    projection p_j, or (name, argument tables) for a generator applied to
    tables yielded before it (no arguments for a 0-place generator).

    After the projections and the 0-place constants, each table in turn is
    the frontier: every generator, in the given order, is applied to each
    tuple of known tables that holds the frontier.
    """
    _check_closure_arity(k)
    full = (1 << (1 << k)) - 1
    start: list[tuple[int, object]] = [(_projection(k, j), j) for j in range(1, k + 1)]
    start += [(full if g.bits & 1 else 0, (name, ())) for name, g in named_gens if g.arity == 0]
    ops = [(name, g.arity, _minterms(g)) for name, g in named_gens if g.arity > 0]
    order: list[int] = []
    for bits, recipe in start:
        if bits not in order:
            order.append(bits)
            yield bits, recipe
    have = set(order)
    # order grows while it is walked: every table found becomes a frontier
    for frontier, f_new in enumerate(order):
        older = order[:frontier]
        for name, m, minterms in ops:
            for hs in _frontier_tuples(f_new, older, m):
                bits = _compose_bits(minterms, hs, full)
                if bits not in have:
                    have.add(bits)
                    order.append(bits)
                    yield bits, (name, tuple(hs))


def _clone_test(generators: Iterable[BooleanFunction]) -> Callable[[int, int], bool]:
    """The member test of the clone generated by the given functions, on a
    table given as (arity, bits): it lies in every irreducible clone holding
    the generators, and its separation degree, and that of its dual, is no
    less than the generators' least one.  A generator's degree of at most 1
    is already read as P0 (P1 for the dual), so only a larger one is tested.
    """
    gens = [_lift(f) for f in generators]
    tests = [test for c, test in _IRREDUCIBLE.items() if inside(gens, c)]
    degree = min(map(separation_degree, gens), default=math.inf)
    dual = min((_degree(f.arity, _dual(f.arity, f.bits)) for f in gens), default=math.inf)
    if degree > 1:
        tests.append(lambda k, bits: _degree(k, bits) >= degree)
    if dual > 1:
        tests.append(lambda k, bits: _degree(k, _dual(k, bits)) >= dual)
    return lambda k, bits: all(test(k, bits) for test in tests)


def clone_closure_at_arity(generators: Iterable[BooleanFunction], k: int) -> frozenset[BooleanFunction]:
    """The k-ary slice of the clone generated by the given functions: the
    tables that pass its member test."""
    _check_closure_arity(k)
    member = _clone_test(generators)
    return frozenset(BooleanFunction(k, bits) for bits in range(1 << (1 << k)) if member(k, bits))


def clone_expressions(generators: Mapping[str, BooleanFunction], k: int, targets: Iterable[int]) -> dict[int, Formula]:
    """Derived connectives over the generator names, written in p1..pk: one
    for each table of the k-ary slice of the generators' clone found up to
    the last of the target tables, keyed by the table's bits.

    Discovery order, so returned expressions stay small.  Stops once all
    target tables are found; a target outside the clone makes the search
    run through the whole slice.
    """
    want = set(targets)
    found: dict[int, Formula] = {}
    for bits, recipe in _closure(sorted(generators.items()), k):
        if isinstance(recipe, int):
            found[bits] = var(f"p{recipe}")
        else:
            name, hs = recipe
            found[bits] = app(name, tuple(found[h] for h in hs))
        want.discard(bits)
        if not want:
            break
    return found


def find_expression(frag: FragmentSpec, target: BooleanFunction) -> Optional[Formula]:
    """A derived connective of the fragment computing the target table, or
    None when the target lies outside the fragment's clone; the search
    runs only for a member, which it always reaches."""
    _check_closure_arity(target.arity)
    if not _clone_test(frag.tables())(target.arity, target.bits):
        return None
    return clone_expressions(dict(frag.functions), target.arity, targets=[target.bits])[target.bits]


def function_of_formula(phi: Formula, frag: FragmentSpec, k: int) -> BooleanFunction:
    """The Boolean function of a derived connective phi(p1..pk) over a
    fragment: each subformula's table is composed from its arguments'
    tables, arguments first."""
    full = (1 << (1 << k)) - 1
    tables = {var(f"p{j}"): _projection(k, j) for j in range(1, k + 1)}
    for psi in subformulas(phi):
        if isinstance(psi, Var):
            if psi not in tables:
                raise SignatureError(f"variable {psi.name} outside p1..p{k}")
            continue
        f = frag.function(psi.head)
        if len(psi.args) != f.arity:
            raise ValueError(f"arity {f.arity} function got {len(psi.args)} arguments")
        tables[psi] = _compose_bits(_minterms(f), [tables[a] for a in psi.args], full)
    return BooleanFunction(k, tables[phi])


def nontop_unary_witness(name: str, f: BooleanFunction) -> Formula:
    """A 1-place non-top-like compound theta over a non-top-like connective.

    Take alpha = c(p,...,p); if that is already non-top-like it is theta.
    Otherwise substitute alpha at the argument positions that are true on a
    falsifying row of f, and p elsewhere.
    """
    cls = classify(f)
    if cls.top_like:
        raise ValueError(f"connective {name!r} is top-like")
    if f.arity < 1:
        raise ValueError("witness needs a connective of arity >= 1")
    p = var("p")
    alpha = app(name, (p,) * f.arity)
    diag = BooleanFunction.from_callable(1, lambda a: f(*(a,) * f.arity))
    if not classify(diag).top_like:
        theta = alpha
    else:
        row = min(r for r in range(1 << f.arity) if not f.on_row(r))
        args = tuple(alpha if bit else p for bit in _row_args(row, f.arity))
        theta = app(name, args)
    # the table of theta must be falsifiable, by construction
    renamed = apply_substitution({"p": var("p1")}, theta)
    table = function_of_formula(renamed, FragmentSpec.of({name: f}), 1)
    if classify(table).top_like:
        raise AssertionError("constructed witness is top-like")
    return theta


# ---------------------------------------------------------------------------
# The standard connectives
# ---------------------------------------------------------------------------

PRIMITIVE_TABLES: dict[str, tuple[int, str]] = {
    "top": (0, "1"),
    "bot": (0, "0"),
    "neg": (1, "10"),
    "and": (2, "0001"),
    "or": (2, "0111"),
    "imp": (2, "1101"),
}

# derived connectives; each body may use the primitives and earlier entries
DERIVED_TRANSLATIONS: dict[str, tuple[int, str]] = {
    "coimp": (2, "neg(imp(p2,p1))"),
    "iff": (2, "and(imp(p1,p2),imp(p2,p1))"),
    "xor": (2, "neg(iff(p1,p2))"),
    "xor3": (3, "xor(p1,xor(p2,p3))"),
    "if3": (3, "and(imp(p1,p2),imp(neg(p1),p3))"),
}


@functools.cache
def _derivation_fragment() -> FragmentSpec:
    """Primitives plus every derived connective defined before this point."""
    out = {name: BooleanFunction.from_string(s, k) for name, (k, s) in PRIMITIVE_TABLES.items()}
    for name, (k, src) in DERIVED_TRANSLATIONS.items():
        frag = FragmentSpec.of(out)
        out[name] = function_of_formula(parse(src, frag.signature), frag, k)
    return FragmentSpec.of(out)


# the standard tables are computed once; a BooleanFunction is frozen, so
# callers may share them
@functools.cache
def threshold_function(k: int, n: int) -> BooleanFunction:
    """thr_k_n: true on a row when at least n of its k arguments are."""
    if not 0 <= n <= k:
        raise ValueError(f"threshold needs 0 <= n <= k, got n={n}, k={k}")
    return BooleanFunction.from_callable(k, lambda *args: sum(args) >= n)


@functools.cache
def standard_function(name: str) -> BooleanFunction:
    """Table of any standard connective name, including thr_k_n."""
    if name in PRIMITIVE_TABLES or name in DERIVED_TRANSLATIONS:
        return _derivation_fragment().function(name)
    if name.startswith("thr_"):
        try:
            _, ks, ns = name.split("_")
            return threshold_function(int(ks), int(ns))
        except ValueError as exc:
            raise SignatureError(f"bad threshold name {name!r}") from exc
    raise SignatureError(f"unknown standard connective {name!r}")


def standard_fragment(*names: str, rename: Optional[Mapping[str, str]] = None) -> FragmentSpec:
    """Fragment built from standard tables, optionally under different names.

    standard_fragment("or2", rename={"or2": "or"}) gives a second copy of
    classical disjunction called or2.
    """
    rename = dict(rename or {})
    out = {}
    for name in names:
        out[name] = standard_function(rename.get(name, name))
    return FragmentSpec.of(out)


# ---------------------------------------------------------------------------
# Fragment files
# ---------------------------------------------------------------------------

def load_fragment(data: Mapping) -> FragmentSpec:
    try:
        conns = data["connectives"]
    except KeyError as exc:
        raise ValueError("fragment file needs a 'connectives' list") from exc
    out = {}
    for c in conns:
        name, arity, table = bundled.fields(c, "connective", "name", "arity", "table")
        out[name] = BooleanFunction.from_string(table, int(arity))
    if not out:
        raise ValueError("fragment file declares no connectives")
    return FragmentSpec.of(out)

