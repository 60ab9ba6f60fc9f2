"""Finite Nmatrices, partial valuations, and decidable consequence.

An Nmatrix interprets each k-place connective by a total map from k-tuples
of truth values to non-empty sets of values; a logical matrix is the
deterministic special case.  Entailment from a finite premise set is decided
on the subformula closure of the sequent: a partial valuation on a
subformula-closed set always extends to the whole language, so a
countermodel found there is a genuine countermodel.

Value ids are opaque strings.  Products and powers (see matrixops) name
their values by the printed tuples, so countermodels round-trip through
report files unchanged.

On a strict product L x R built by matrixops, entails first asks a split
Holds certificate (Marcelino & Caleiro's disjoint fibring of Nmatrices).  A
product valuation is a pair of side valuations agreeing on designation, and
side s reads only its own connectives' cells.  Write the side as B_s^k (k = 1
for an unpowered side) and let R_s be the domain's sigma_s-headed formulas
plus their arguments.  Every B_s valuation of R_s (sigma_s heads inside
B_s's cells, other members free) gives the set of R_s formulas it
designates.  A side-s valuation designates the intersection of the sets of
its k coordinates, so side s can realize exactly the intersections of up to
k sets, and those that hold the premises come from sets that each hold
them.  Formulas outside R_s are free for side s.  So the sequent fails iff
some such left set and right set, both without the conclusion, agree on
R_left & R_right.  This is exact for any finite Nmatrix base, so entails
asks it first and searches only a sequent it refutes: the search then ends
in its first countermodel, the one it prints.

A node of the search lists its candidates already filtered: in the cell,
the designation pool and past the rule cuts.  Looking for that first
countermodel on a product, it lists one per key: the designation and, per
side whose cells read the formula, the coordinate tuple up to a
permutation of the side's power coordinates that fixes every value
assigned so far.  Such permutations, one per side, form an automorphism of
the product that fixes the prefix and keeps designation, all a cut reads;
a side whose cells do not read the formula sees only the designation.  So
a candidate left out has a countermodel below it iff the one listed with
its key has.  Enumeration lists every candidate.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import bundled
from .boolfun import classify
from .syntax import (
    App,
    Formula,
    Signature,
    SignatureError,
    apply_substitution,
    canon_key,
    canon_sort,
    check_well_formed,
    depth_first,
    is_subformula_closed,
    postorder,
    subformula_closure,
    text,
    variables,
)

__all__ = [
    "MatrixError",
    "SizeCapExceeded",
    "Nmatrix",
    "PartialValuation",
    "enumerate_partial_valuations",
    "Holds",
    "Fails",
    "Verdict",
    "entails",
    "logically_equivalent",
    "respects_rule",
    "FilteredVerdict",
    "filter_valuations_by_rules",
    "NoCounterexampleFound",
    "SaturationCounterexample",
    "bounded_saturation_check",
    "load_system",
    "dump_system",
    "two_valued_matrix",
]


class MatrixError(ValueError):
    """Ill-formed Nmatrix, or a formula outside the matrix signature."""


class SizeCapExceeded(MatrixError):
    """A construction, or a whole-table read of its result, would exceed
    the configured size cap."""


Cell = tuple[str, ...]


class _Cells(dict):
    """Entries computed on first read, then kept: one connective's cells in a computed matrix, or a search's keys."""

    def __init__(self, compute: Callable[[Cell], Cell]):
        self.compute = compute

    def __missing__(self, args: Cell) -> Cell:
        out = self[args] = self.compute(args)
        return out


class Nmatrix:
    """Finite Nmatrix: ordered values, designated subset, cell-complete interp.

    interp[name] maps every tuple of values (of the connective's arity) to a
    non-empty tuple of output values, kept in value order.  `saturated` is a
    knowledge flag used when assembling combined semantics: matrices known
    saturated may be used at power 1.

    `factors` and `power_of` are set by matrixops on the matrices it builds:
    a strict product records (left, right, decode), decode taking each value
    name to its (left, right) pair, and a power records (base, n), with
    `coords` taking each value name to its n-tuple of base values.  Any other
    matrix, including one derived from a product or power, has none.

    The constructor checks a whole table given from outside.  Matrixops'
    powers and products are `computed`: interp holds the cells read so far,
    and a cell is computed on its first read.  Readers of the whole table
    (`deterministic`, `dump_system`, `matrixops.matrices_equal`,
    `fibring.truth_preserving_bot_matrix`) take `full_interp()`, which
    refuses a computed matrix with more cells than the cap on its values.
    """

    def __init__(
        self,
        signature: Signature,
        values: Sequence[str],
        designated: Iterable[str],
        interp: Mapping[str, Mapping[tuple[str, ...], Iterable[str]]],
        name: str = "",
        saturated: bool = False,
        allow_degenerate: bool = False,
    ):
        self.signature = signature
        self.values = tuple(values)
        if len(set(self.values)) != len(self.values):
            raise MatrixError("duplicate value ids")
        self.designated = frozenset(designated)
        if not self.designated <= set(self.values):
            raise MatrixError("designated values not among values")
        self.name = name
        self.saturated = saturated
        if not allow_degenerate:
            if not self.designated:
                raise MatrixError("degenerate matrix: no designated value")
            if self.designated == set(self.values):
                raise MatrixError("degenerate matrix: no undesignated value")
        for conn in interp:
            if conn not in signature:
                raise MatrixError(f"interpretation for {conn!r}, a connective the signature does not declare")
        rank = {v: i for i, v in enumerate(self.values)}
        table: dict[str, dict[Cell, Cell]] = {}
        for conn, arity in signature.connectives:
            if conn not in interp:
                raise MatrixError(f"missing interpretation for {conn!r}")
            cells = {tuple(args): tuple(out) for args, out in interp[conn].items()}
            fixed: dict[Cell, Cell] = {}
            for args in itertools.product(self.values, repeat=arity):
                out = cells.get(args)
                if out is None:
                    raise MatrixError(f"missing cell {conn}{args}")
                if not out:
                    raise MatrixError(f"empty cell {conn}{args}")
                if set(out) - set(self.values):
                    raise MatrixError(f"cell {conn}{args} mentions unknown values")
                fixed[args] = tuple(sorted(set(out), key=rank.get))
            if len(cells) != len(fixed):
                raise MatrixError(f"interpretation of {conn!r} lists cells outside the value set")
            table[conn] = fixed
        self.interp = table
        self.factors: Optional[tuple[Nmatrix, Nmatrix, dict[str, tuple[str, str]]]] = None
        self.power_of: Optional[tuple[Nmatrix, int]] = None
        self.coords: Optional[dict[str, Cell]] = None
        self.cap: Optional[int] = None  # a computed matrix's size cap

    @classmethod
    def computed(
        cls, signature: Signature, values: Sequence[str], designated: Iterable[str],
        compute: Mapping[str, Callable[[Cell], Cell]], cap: int, name: str = "", saturated: bool = False,
    ) -> "Nmatrix":
        """The matrix whose cell (conn, args) compute[conn](args) gives on first read; cap is the size cap
        of its construction, which full_interp applies to its cells.
        Only the values are checked: compute gives cells non-empty and in value order, and KeyError outside the table."""
        matrix = cls(Signature(()), values, designated, {}, name, saturated)  # checks the values only
        matrix.signature = signature
        matrix.cap = cap
        matrix.interp = {conn: _Cells(compute[conn]) for conn in signature.names()}
        return matrix

    def full_interp(self) -> dict[str, dict[Cell, Cell]]:
        """interp with every cell present, computing those not read yet; refused past the size cap."""
        count = sum(len(self.values) ** arity for _, arity in self.signature.connectives)
        if self.cap is not None and count > self.cap:
            raise SizeCapExceeded(f"{count} cells exceeds cap {self.cap}")
        for conn, arity in self.signature.connectives:
            if len(cells := self.interp[conn]) < len(self.values) ** arity:
                for args in itertools.product(self.values, repeat=arity):
                    cells[args]  # computed on first read
        return self.interp

    @property
    def undesignated(self) -> frozenset[str]:
        return frozenset(self.values) - self.designated

    def cell(self, conn: str, args: Sequence[str]) -> Cell:
        return self.interp[conn][tuple(args)]

    def deterministic(self) -> bool:
        return all(len(out) == 1 for cells in self.full_interp().values() for out in cells.values())

    def check_formulas(self, phis: Iterable[Formula]) -> None:
        for phi in phis:
            try:
                check_well_formed(phi, self.signature)
            except SignatureError as exc:
                raise MatrixError(str(exc)) from exc

    def __repr__(self) -> str:
        label = self.name or "Nmatrix"
        return f"<{label}: {len(self.values)} values, {len(self.signature.connectives)} connectives>"


@dataclass(frozen=True)
class PartialValuation:
    """An assignment on a subformula-closed domain respecting every cell."""

    matrix: Nmatrix
    assignment: tuple[tuple[Formula, str], ...]

    @staticmethod
    def of(matrix: Nmatrix, mapping: Mapping[Formula, str]) -> "PartialValuation":
        items = tuple(sorted(mapping.items(), key=lambda kv: canon_key(kv[0])))
        return PartialValuation(matrix, items)

    def as_dict(self) -> dict[Formula, str]:
        return dict(self.assignment)

    def value(self, phi: Formula) -> str:
        for psi, v in self.assignment:
            if psi == phi:
                return v
        raise KeyError(f"{text(phi)} not in valuation domain")

    def designates(self, phi: Formula) -> bool:
        return self.value(phi) in self.matrix.designated

    def check(self) -> bool:
        """Re-verify: domain subformula-closed, every compound inside its cell."""
        mapping = self.as_dict()
        if not is_subformula_closed(mapping):
            return False
        for phi, v in mapping.items():
            if v not in self.matrix.values:
                return False
            if isinstance(phi, App):
                args = tuple(mapping[a] for a in phi.args)
                if v not in self.matrix.cell(phi.head, args):
                    return False
        return True

    def lines(self) -> list[str]:
        return [f"{text(phi)} |-> {v}" for phi, v in self.assignment]


def _assignment_order(domain: Sequence[Formula], favored: Sequence[Formula]) -> list[Formula]:
    """Topological order on the domain (subformulas first), scheduling each
    favored formula as early as its subformulas allow.  Constraint-carrying
    formulas placed early let the search prune whole branches at once.
    """
    domain_set = set(domain)

    def below(phi: Formula) -> Sequence[Formula]:
        return [a for a in sorted(phi.args, key=canon_key) if a in domain_set] if type(phi) is App else ()

    return list(postorder(itertools.chain((phi for phi in favored if phi in domain_set), canon_sort(domain)), below))


def _search(
    matrix: Nmatrix,
    domain: Sequence[Formula],
    must_designate: Iterable[Formula],
    must_undesignate: Iterable[Formula],
    instances: Sequence[tuple[Sequence[Formula], Formula]] = (),
    first: bool = False,
) -> Iterator[dict[Formula, str]]:
    """All assignments on the domain respecting cells, the designation
    constraints and the rule instances, in canonical DFS order.  An instance
    (premises, conclusion) of domain formulas cuts a branch once the last of
    them is assigned, if every premise is designated and the conclusion not.

    ``first`` is for callers that want only existence or the first
    solution.  On a strict product a node then lists one candidate per key
    (see _orbit), which the module docstring shows exact: the first
    solution is kept, later ones dropped.
    """
    des = set(must_designate)
    undes = set(must_undesignate)
    order = _assignment_order(domain, favored=canon_sort(des | undes))
    level = {phi: i for i, phi in enumerate(order)}
    if any(phi in level for phi in des & undes):
        return
    interp, values, designated = matrix.interp, matrix.values, matrix.designated
    undesignated = matrix.undesignated
    pools = [designated if phi in des else undesignated if phi in undes else None for phi in order]
    # per level: the connective's cells and the levels of its arguments, or None for a variable
    cells = [(interp[phi.head], [level[a] for a in phi.args]) if isinstance(phi, App) else None for phi in order]
    cuts: dict[int, list] = {}  # level -> the instances, by levels, whose last formula it assigns
    for prem, concl in instances:
        ps, c = [level[p] for p in prem], level[concl]
        cuts.setdefault(max([*ps, c]), []).append((ps, c))

    keyed = first and matrix.factors is not None
    if keyed:
        factors, left_names = matrix.factors, set(matrix.factors[0].signature.names())
        readers: dict[Formula, int] = {}  # formula -> the sides whose cells read it, bit 0 left and bit 1 right
        for psi in domain:
            for a in psi.args if isinstance(psi, App) else ():
                readers[a] = readers.get(a, 0) | (1 if psi.head in left_names else 2)

        def orbit(key: tuple) -> tuple:  # _orbit on the coordinate tuples of the value v in key (sides, parts, v)
            sides, parts, v = key
            ts = tuple(f.coords[s] if f.coords else (s,) for f, s in zip(factors, factors[2][v]))
            return _orbit(sides, parts, ts, v in designated)

        orbits = _ORBITS.setdefault(matrix, _Cells(orbit))  # orbit reads only the matrix's factors and designation
        # per level, both sides' coordinates partitioned by the prefix before it; parts[:fresh + 1] are current
        parts = [tuple((tuple(range(f.power_of[1] if f.power_of else 1)),) for f in factors[:2])] * len(order)
        fresh = 0

    def one_per_key(i: int, path: list, cell: Sequence[str]) -> Iterator[str]:
        """The candidates of cell whose key no candidate before them has, keyed from the second one on."""
        nonlocal fresh
        yield cell[0]
        taken = set()
        for v in cell:
            for j in range(fresh, i):
                parts[j + 1] = orbits[None, parts[j], path[j]]
            fresh = i  # the levels below i take new values next
            if (k := orbits[readers.get(order[i], 0), parts[i], v]) not in taken:
                taken.add(k)
                if v != cell[0]:
                    yield v

    def children(i: int, path: list) -> Sequence[str]:
        if (table := cells[i]) is not None:
            cell = table[0][tuple([path[j] for j in table[1]])]
        else:
            cell = values
        if (pool := pools[i]) is not None:
            cell = [v for v in cell if v in pool]
        if i in cuts:
            kept = []
            for v in cell:
                path[i] = v  # stale until the walk takes a candidate here
                if not any(path[c] not in designated and all(path[p] in designated for p in ps) for ps, c in cuts[i]):
                    kept.append(v)
            cell = kept
        return one_per_key(i, path, cell) if keyed and len(cell) > 1 else cell

    for path in depth_first(len(order), children):
        yield dict(zip(order, path))


@functools.lru_cache(maxsize=1 << 14)
def _orbit(sides: Optional[int], parts: tuple, ts: tuple, designated: bool) -> tuple:
    """For sides None: parts, a partition of each side's power coordinates, split by a value's coordinate tuples ts.
    Else _search's key of the value: its designation and, per side in the bit set sides, the multiset of its
    tuple's entries on each class of parts."""
    if sides is None:  # split each class k by the entries of t on it
        return tuple(
            tuple(sorted({tuple(c for c in k if t[c] == t[d]) for k in p for d in k})) for p, t in zip(parts, ts)
        )
    orbits = (tuple(tuple(sorted(ts[i][c] for c in k)) for k in parts[i]) for i in (0, 1) if sides >> i & 1)
    return (designated, *orbits)


_ORBITS: "weakref.WeakKeyDictionary[Nmatrix, _Cells]" = weakref.WeakKeyDictionary()  # per product: _search's keys


def enumerate_partial_valuations(matrix: Nmatrix, gamma: Iterable[Formula]) -> Iterator[PartialValuation]:
    """All Gamma-partial valuations, in canonical DFS order."""
    domain = canon_sort(gamma)
    if not is_subformula_closed(domain):
        raise MatrixError("domain is not closed under subformulas")
    matrix.check_formulas(domain)
    for assignment in _search(matrix, domain, (), ()):
        yield PartialValuation.of(matrix, assignment)


@dataclass(frozen=True)
class Holds:
    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Fails:
    countermodel: PartialValuation

    def __bool__(self) -> bool:
        return False


Verdict = Union[Holds, Fails]


def entails(matrix: Nmatrix, premises: Iterable[Formula], conclusion: Formula) -> Verdict:
    """Decide premises |- conclusion over the matrix.

    On a recorded strict product the split certificate decides Holds; the
    search runs only where it does not, and its first solution is the
    countermodel.  Fails carries a partial valuation on the subformula
    closure of the sequent that designates every premise and undesignates
    the conclusion.
    """
    premises = canon_sort(premises)
    matrix.check_formulas(premises + [conclusion])
    domain = subformula_closure(premises + [conclusion])
    if _split_holds(matrix, domain, premises, conclusion):
        return Holds()
    for assignment in _search(matrix, domain, premises, [conclusion], first=True):
        return Fails(PartialValuation.of(matrix, assignment))
    return Holds()


def _split_holds(matrix: Nmatrix, domain: Sequence[Formula], premises: Sequence[Formula], conclusion: Formula) -> bool:
    """The split Holds certificate (see the module docstring): True iff the
    matrix is a recorded strict product and no valuation of the domain
    designates every premise and undesignates the conclusion."""
    if matrix.factors is None:
        return False
    if conclusion in premises:
        return True
    left, right, _ = matrix.factors
    regions = []
    for factor in (left, right):
        names = set(factor.signature.names())
        heads = [phi for phi in domain if isinstance(phi, App) and phi.head in names]
        regions.append((factor, names, canon_sort(heads + [a for phi in heads for a in phi.args])))
    shared = canon_sort(set(regions[0][2]) & set(regions[1][2]))
    patterns = []
    for factor, names, region in regions:
        base, k = factor.power_of or (factor, 1)
        bit = {phi: 1 << i for i, phi in enumerate(region)}
        sets = _designation_sets(base, names, region, premises)
        banned = bit.get(conclusion, 0)
        if all(s & banned for s in sets):  # so does every intersection of them
            return True
        single, frontier = set(sets), set(sets)
        for _ in range(k - 1):
            frontier = {a & b for a in frontier for b in single} - sets
            sets |= frontier
        on_shared = [(bit[phi], 1 << j) for j, phi in enumerate(shared)]
        patterns.append({sum(out for b, out in on_shared if s & b) for s in sets if not s & banned})
    return not patterns[0] & patterns[1]


def _designation_sets(base: Nmatrix, names: set, region: Sequence[Formula], premises: Sequence[Formula]) -> set[int]:
    """The sets of region formulas (bit i for region[i]) designated by the
    base valuations of the region that designate the premises in it:
    formulas headed by a connective in names stay inside the base's cells,
    every other member is free.  The region lists each such formula's
    arguments before it."""
    level = {phi: i for i, phi in enumerate(region)}
    read = {a for phi in region if isinstance(phi, App) and phi.head in names for a in phi.args}
    premises = set(premises)
    by_designation = {v: v in base.designated for v in base.values}

    def children(i: int, path: list) -> Sequence[str]:
        phi = region[i]
        if isinstance(phi, App) and phi.head in names:
            cell = base.interp[phi.head][tuple([path[level[a]] for a in phi.args])]
        else:
            cell = base.values
        if phi not in read and len(cell) > 1:  # read by no cell of the region, only its designation matters
            cell = list({by_designation[v]: v for v in cell}.values())
        return [v for v in cell if by_designation[v]] if phi in premises else cell

    return {sum(1 << i for i, v in enumerate(path) if by_designation[v]) for path in depth_first(len(region), children)}


def logically_equivalent(matrix: Nmatrix, gamma: Iterable[Formula], delta: Iterable[Formula]) -> bool:
    gamma = canon_sort(gamma)
    delta = canon_sort(delta)
    return all(bool(entails(matrix, gamma, d)) for d in delta) and all(
        bool(entails(matrix, delta, g)) for g in gamma
    )


def _rule_instances(rule, universe: Sequence[Formula]):
    """All substitutions of the rule's schematic variables into the universe,
    in canonical order; yields (premise instances, conclusion instance)."""
    names = sorted({v.name for phi in (*rule.premises, rule.conclusion) for v in variables(phi)})
    pool = canon_sort(universe)
    for values in itertools.product(pool, repeat=len(names)):
        sigma = dict(zip(names, values))
        yield (
            tuple(apply_substitution(sigma, p) for p in rule.premises),
            apply_substitution(sigma, rule.conclusion),
        )


def respects_rule(valuation: PartialValuation, rule, universe: Iterable[Formula]) -> bool:
    """Bounded check: does the valuation respect the rule for every
    substitution into the universe whose instance lies in its domain?

    True only certifies respect *within the universe*.
    """
    mapping = valuation.as_dict()
    des = valuation.matrix.designated
    for prem, concl in _rule_instances(rule, canon_sort(universe)):
        inside = all(p in mapping for p in prem) and concl in mapping
        if not inside:
            continue
        if all(mapping[p] in des for p in prem) and mapping[concl] not in des:
            return False
    return True


@dataclass(frozen=True)
class FilteredVerdict:
    verdict: Verdict
    exactness: str  # "exact" or "heuristic"

    def __bool__(self) -> bool:
        return bool(self.verdict)


def filter_valuations_by_rules(
    matrix: Nmatrix,
    rules: Sequence,
    premises: Iterable[Formula],
    conclusion: Formula,
) -> FilteredVerdict:
    """Entailment over the partial valuations respecting every rule within
    the universe, the subformulas of the sequent.

    The result is semantically exact when the matrix is marked saturated or
    when the rules are all axioms; otherwise it is tagged as a heuristic
    (rule-respect is only checked within the universe).
    """
    premises = canon_sort(premises)
    matrix.check_formulas(premises + [conclusion])
    exact = matrix.saturated or all(not r.premises for r in rules)
    universe = subformula_closure(premises + [conclusion])

    instances = [inst for rule in rules for inst in _rule_instances(rule, universe)]
    domain = subformula_closure(
        premises + [conclusion] + [f for prem, concl in instances for f in (*prem, concl)]
    )
    for assignment in _search(matrix, domain, premises, [conclusion], instances, first=True):
        v = PartialValuation.of(matrix, assignment)
        return FilteredVerdict(Fails(v), "exact" if exact else "heuristic")
    return FilteredVerdict(Holds(), "exact" if exact else "heuristic")


@dataclass(frozen=True)
class NoCounterexampleFound:
    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class SaturationCounterexample:
    gamma: tuple[Formula, ...]
    delta: tuple[Formula, ...]

    def __bool__(self) -> bool:
        return True


def bounded_saturation_check(
    matrix: Nmatrix,
    k: int,
    gamma_pool: Iterable[Formula],
    delta_pool: Iterable[Formula],
):
    """Search the pools for a refutation of k-saturation.

    A counterexample is a pair (Gamma, Delta) with |Delta| <= k such that
    Gamma fails to entail each member of Delta separately, yet no single
    valuation designates Gamma while undesignating all of Delta.  Finding
    none proves nothing (the check is bounded).
    """
    gpool = canon_sort(gamma_pool)
    dpool = canon_sort(delta_pool)
    matrix.check_formulas(gpool + dpool)
    gamma_subsets = [
        list(c) for size in range(len(gpool) + 1) for c in itertools.combinations(gpool, size)
    ]
    for size in range(2, min(k, len(dpool)) + 1):
        for delta in itertools.combinations(dpool, size):
            for gamma in gamma_subsets:
                if any(f in gamma for f in delta):
                    continue
                if any(bool(entails(matrix, gamma, f)) for f in delta):
                    continue
                domain = subformula_closure(gamma + list(delta))
                joint = next(iter(_search(matrix, domain, gamma, delta, first=True)), None)
                if joint is None:
                    return SaturationCounterexample(tuple(gamma), tuple(delta))
    return NoCounterexampleFound()


# ---------------------------------------------------------------------------
# System files
# ---------------------------------------------------------------------------

def load_system(data: Mapping, allow_degenerate: bool = False) -> Nmatrix:
    sig = Signature.of(bundled.signature_pairs(data["signature"]))
    interp: dict[str, dict[tuple[str, ...], tuple[str, ...]]] = {}
    for conn, rows in data["interpretation"].items():
        cells = {}
        for row in bundled.expect(rows, list, f"the interpretation of {conn!r}"):
            args, out = bundled.fields(row, f"an interpretation row of {conn!r}", "args", "out")
            cells[tuple(args)] = tuple(out)
        interp[conn] = cells
    return Nmatrix(
        sig,
        data["values"],
        data["designated"],
        interp,
        name=data.get("name", ""),
        saturated=data.get("saturated", False),
        allow_degenerate=allow_degenerate,
    )


def dump_system(matrix: Nmatrix) -> dict:
    out = {
        "signature": [{"name": n, "arity": k} for n, k in matrix.signature.connectives],
        "values": list(matrix.values),
        "designated": sorted(matrix.designated, key=matrix.values.index),
        "interpretation": {
            conn: [
                {"args": list(args), "out": list(outs)}
                for args, outs in sorted(cells.items())
            ]
            for conn, cells in sorted(matrix.full_interp().items())
        },
    }
    if matrix.name:
        out["name"] = matrix.name
    if matrix.saturated:
        out["saturated"] = True
    return out


def two_valued_matrix(fragment) -> Nmatrix:
    """The classical two-valued matrix of a fragment of Boolean connectives."""
    interp = {}
    for conn, f in fragment.functions:
        cells = {}
        for row in range(1 << f.arity):
            args = tuple("1" if row >> (f.arity - 1 - i) & 1 else "0" for i in range(f.arity))
            cells[args] = ("1",) if f.on_row(row) else ("0",)
        interp[conn] = cells
    # exact criterion: saturated iff no connective is very significant
    saturated = all(not classify(f).very_significant for _, f in fragment.functions)
    return Nmatrix(fragment.signature, ("0", "1"), ("1",), interp, saturated=saturated)
