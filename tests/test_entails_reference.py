"""Differential tests: semantics.entails against the plain recursive search.

reference_entails below is the entailment check as it stood before the
search learned about strict products: a recursive generator walk over every
candidate value of every formula, with no pruning and no split Holds
certificate.  Looking for a first solution on a product, the search skips a
candidate equal, up to a permutation of a side's power coordinates fixing
the values assigned so far, to one tried before it at the same node, which
is exact only if that earlier candidate led to no solution; and it stops
when the certificate proves that no countermodel exists.  So the two must
return the same verdict and, for Fails, the same countermodel: the first
solution of the same DFS order.  The reference only adds a node budget, so
that a test can leave out a case it does not finish quickly.

The product cases cover powers on both sides: mixed powers, a power of a
3-valued matrix, a power of a strict product (its coordinates are product
values, with commas in their names) and a power of a non-deterministic
2-valued Nmatrix, whose cells mix designated and undesignated values, as
only then does the designation part of the skip's key decide anything.
They run through entails, rule filtering and the bounded saturation check.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator, Optional

import pytest

from nmfib import syntax
from nmfib.calculus import builtin_calculus
from nmfib.fibring import (
    _CATALOG,
    catalog_fragments,
    fibred_semantics,
    three_valued_negation_matrix,
    truth_preserving_bot_matrix,
)
from nmfib.matrixops import power, strict_product
from nmfib.semantics import (
    Fails,
    Holds,
    Nmatrix,
    NoCounterexampleFound,
    PartialValuation,
    SaturationCounterexample,
    _assignment_order,
    _rule_instances,
    _split_holds,
    bounded_saturation_check,
    entails,
    filter_valuations_by_rules,
    two_valued_matrix,
)
from nmfib.syntax import Formula, app, canon_sort, parse, subformula_closure, var


class TooSlow(Exception):
    """The reference search ran past its node budget."""


def _reference_search(
    matrix: Nmatrix, domain, must_designate, must_undesignate, extra_check=None, budget: Optional[int] = None
) -> Iterator[dict[Formula, str]]:
    des = set(must_designate)
    undes = set(must_undesignate)
    order = _assignment_order(domain, favored=canon_sort(des | undes))
    allowed_base = {}
    for phi in order:
        pool = None
        if phi in des and phi in undes:
            return
        if phi in des:
            pool = tuple(v for v in matrix.values if v in matrix.designated)
        elif phi in undes:
            pool = tuple(v for v in matrix.values if v not in matrix.designated)
        allowed_base[phi] = pool

    assignment: dict[Formula, str] = {}
    nodes = [0]

    def choices(phi):
        if isinstance(phi, syntax.App):
            cell = matrix.cell(phi.head, tuple(assignment[a] for a in phi.args))
        else:
            cell = matrix.values
        pool = allowed_base[phi]
        if pool is None:
            return cell
        return tuple(v for v in cell if v in pool)

    def walk(i):
        if i == len(order):
            yield dict(assignment)
            return
        phi = order[i]
        for v in choices(phi):
            nodes[0] += 1
            if budget is not None and nodes[0] > budget:
                raise TooSlow
            assignment[phi] = v
            if extra_check is None or extra_check(phi, assignment):
                yield from walk(i + 1)
            del assignment[phi]

    yield from walk(0)


def reference_entails(matrix, premises, conclusion, budget=None):
    premises = canon_sort(premises)
    domain = subformula_closure(premises + [conclusion])
    for assignment in _reference_search(matrix, domain, premises, [conclusion], budget=budget):
        return Fails(PartialValuation.of(matrix, assignment))
    return Holds()


def reference_filter(matrix, rules, premises, conclusion):
    premises = canon_sort(premises)
    universe = subformula_closure(premises + [conclusion])
    instances = [inst for rule in rules for inst in _rule_instances(rule, universe)]
    domain = subformula_closure(premises + [conclusion] + [f for prem, concl in instances for f in (*prem, concl)])
    order = _assignment_order(domain, favored=canon_sort(set(premises) | {conclusion}))
    position = {phi: i for i, phi in enumerate(order)}
    by_last: dict = {}
    for prem, concl in instances:
        by_last.setdefault(max((*prem, concl), key=lambda f: position[f]), []).append((prem, concl))
    des = matrix.designated

    def check(phi, assignment):
        for prem, concl in by_last.get(phi, ()):
            if all(assignment[p] in des for p in prem) and assignment[concl] not in des:
                return False
        return True

    for assignment in _reference_search(matrix, domain, premises, [conclusion], extra_check=check):
        return Fails(PartialValuation.of(matrix, assignment))
    return Holds()


def reference_saturation_check(matrix, k, gamma_pool, delta_pool):
    """bounded_saturation_check on the reference search."""
    gpool, dpool = canon_sort(gamma_pool), canon_sort(delta_pool)
    gamma_subsets = [list(c) for size in range(len(gpool) + 1) for c in itertools.combinations(gpool, size)]
    for size in range(2, min(k, len(dpool)) + 1):
        for delta in itertools.combinations(dpool, size):
            for gamma in gamma_subsets:
                if any(f in gamma for f in delta):
                    continue
                if any(isinstance(reference_entails(matrix, gamma, f), Holds) for f in delta):
                    continue
                domain = subformula_closure(gamma + list(delta))
                if next(_reference_search(matrix, domain, gamma, delta), None) is None:
                    return SaturationCounterexample(tuple(gamma), tuple(delta))
    return NoCounterexampleFound()


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

SUBCLASSICAL = sorted(cid for cid, (_, expected, _) in _CATALOG.items() if expected == "sub")

# node budget of the reference search: far past what any Fails case needs,
# small enough that the whole module runs in seconds
REFERENCE_BUDGET = 200_000


def _random_formula(rng: random.Random, conns, depth: int) -> Formula:
    nullary = [c for c, k in conns if k == 0]
    if depth == 0 or rng.random() < 0.25:
        if nullary and rng.random() < 0.25:
            return app(rng.choice(nullary), ())
        return var(rng.choice("pqr"))
    c, k = rng.choice([(c, k) for c, k in conns if k > 0] or conns)
    return app(c, tuple(_random_formula(rng, conns, depth - 1) for _ in range(k)))


def seeded_sequents(matrix: Nmatrix, seed: str, count: int, max_depth: int = 3):
    rng = random.Random(seed)
    conns = list(matrix.signature.connectives)
    out = []
    for _ in range(count):
        premises = [_random_formula(rng, conns, rng.randint(0, max_depth)) for _ in range(rng.randint(0, 2))]
        out.append((premises, _random_formula(rng, conns, rng.randint(1, max_depth))))
    return out


def _label(key, premises, conclusion):
    return (key, tuple(syntax.text(p) for p in premises), syntax.text(conclusion))


def _assert_same(got, want, label):
    assert type(got) is type(want), label
    if isinstance(want, Fails):
        assert got.countermodel.matrix is want.countermodel.matrix, label
        assert got.countermodel.assignment == want.countermodel.assignment, label


def _compare(key, matrix, cases, budget=REFERENCE_BUDGET):
    """Check every case the reference finishes within its budget; return
    the labels of the others.  The split certificate alone must be exact
    too: entails returns its Holds without searching."""
    skipped = []
    for premises, conclusion in cases:
        label = _label(key, premises, conclusion)
        got = entails(matrix, premises, conclusion)
        try:
            want = reference_entails(matrix, premises, conclusion, budget=budget)
        except TooSlow:
            skipped.append(label)
            continue
        _assert_same(got, want, label)
        domain = subformula_closure(premises + [conclusion])
        assert _split_holds(matrix, domain, canon_sort(premises), conclusion) == isinstance(want, Holds), label
    return skipped


# The reference runs past its budget on these seeded cases, all at power 3
# and all holding: to prove a sequent holds it walks every candidate of
# every formula, which on the 50-value or/or2 and or/neg products and the
# xor3 product (the same kind of search as W3) takes millions of nodes and
# seconds per case.  They are left out of the comparison only; the list
# must match exactly, so any change in what is skipped shows.
SKIPPED_AT_POWER_3 = {
    ("disj_neg^3", ("neg(or(neg(q),p))", "p"), "neg(neg(r))"),
    ("two_disj^3", ("p",), "or(or2(r,or2(r,r)),or(or(q,q),or2(p,p)))"),
    (
        "xor3_two_bots^3",
        (
            "xor3(xor3(xor3(q,bota,p),xor3(botb,r,r),p),xor3(xor3(p,r,botb),xor3(q,p,bota),xor3(q,p,p)),"
            "xor3(xor3(q,botb,q),xor3(p,r,p),xor3(botb,q,bota)))",
        ),
        "xor3(r,q,p)",
    ),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cid", SUBCLASSICAL)
def test_entails_agrees_with_reference_on_catalog_products(cid, n):
    m = fibred_semantics(*catalog_fragments(cid), n)
    skipped = _compare(f"{cid}^{n}", m, seeded_sequents(m, f"{cid}/{n}", 16))
    assert set(skipped) == {s for s in SKIPPED_AT_POWER_3 if s[0] == f"{cid}^{n}"}


@pytest.mark.parametrize("partner", ["m3_sim", "bot"])
def test_entails_agrees_with_reference_on_three_valued_negation_products(partner):
    right = {
        "m3_sim": lambda: three_valued_negation_matrix("sim"),
        "bot": lambda: two_valued_matrix(catalog_fragments("neg_bot")[1]),
    }[partner]()
    m = strict_product(three_valued_negation_matrix("neg"), right)
    cases = seeded_sequents(m, f"m3_neg*{partner}", 40, max_depth=4)
    assert not _compare(f"m3_neg*{partner}", m, cases)
    assert {type(entails(m, premises, conclusion)) for premises, conclusion in cases} == {Holds, Fails}


def _neg_bot_product():
    neg, bot = catalog_fragments("neg_bot")
    return strict_product(power(two_valued_matrix(neg), 2), two_valued_matrix(bot))


# rule set -> the matrix it filters; neg_pair's rules have premises, the others are axioms
FILTERED = {
    "neg_bot": _neg_bot_product,
    "imp_bot": lambda: truth_preserving_bot_matrix(catalog_fragments("imp_bot")[0]),
    "neg_pair": lambda: strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim")),
    "biimp_bot1": lambda: fibred_semantics(*catalog_fragments("biimp_bot1"), 2),
}


def _compare_filter(key: str, m: Nmatrix, rule_set: str) -> None:
    rules = builtin_calculus(rule_set).rules
    verdicts = set()
    for premises, conclusion in seeded_sequents(m, f"filter/{key}", 30):
        label = _label(f"filter:{key}", premises, conclusion)
        got = filter_valuations_by_rules(m, rules, premises, conclusion).verdict
        want = reference_filter(m, rules, premises, conclusion)
        _assert_same(got, want, label)
        verdicts.add(type(got))
    assert verdicts == {Holds, Fails}


@pytest.mark.parametrize("rule_set", list(FILTERED))
def test_rule_filter_agrees_with_reference(rule_set):
    _compare_filter(rule_set, FILTERED[rule_set](), rule_set)


@pytest.mark.parametrize("n", [3, 4])
def test_w3_holds(n):
    m = fibred_semantics(*catalog_fragments("two_disj"), n)
    premise = parse("or(p,or(q,r))", m.signature)
    assert isinstance(entails(m, [premise], parse("or(or(r,q),p)", m.signature)), Holds)


def _powered(cid: str, left: int, right: int) -> Nmatrix:
    f1, f2 = catalog_fragments(cid)
    return strict_product(power(two_valued_matrix(f1), left), power(two_valued_matrix(f2), right))


def power_of_product_side() -> Nmatrix:
    """(m3_neg * bot)^2 * m3_sim: the left side's coordinates are values of a strict product."""
    inner = strict_product(three_valued_negation_matrix("neg"), two_valued_matrix(catalog_fragments("neg_bot")[1]))
    return strict_product(power(inner, 2), three_valued_negation_matrix("sim"))


def _nd_neg_product() -> Nmatrix:
    """nd^2 * bot^2, nd a 2-valued Nmatrix for neg whose cell at 0 holds both
    values: a cell of the product then mixes designated and undesignated values."""
    neg, bot = catalog_fragments("neg_bot")
    nd = Nmatrix(neg.signature, ("0", "1"), ("1",), {"neg": {("0",): ("0", "1"), ("1",): ("0",)}})
    return strict_product(power(nd, 2), power(two_valued_matrix(bot), 2))


POWERED = {
    f"{cid}_{a}x{b}": functools.partial(_powered, cid, a, b)
    for cid in ("two_disj", "disj_neg", "imp_bot")
    for a, b in ((3, 2), (2, 3), (4, 1))
}
POWERED["m3_neg^2*m3_sim"] = lambda: strict_product(
    power(three_valued_negation_matrix("neg"), 2), three_valued_negation_matrix("sim")
)
POWERED["(m3_neg*bot)^2*m3_sim"] = power_of_product_side
POWERED["nd^2*bot^2"] = _nd_neg_product


# cases of the powered sides that the reference does not finish within
# POWERED_BUDGET nodes, all holding; pinned, so any change in them shows
POWERED_BUDGET = 50_000
POWERED_SKIPS = {"two_disj_3x2": 1, "imp_bot_3x2": 3, "imp_bot_2x3": 3, "imp_bot_4x1": 1}


@pytest.mark.parametrize("key", list(POWERED))
def test_entails_agrees_with_reference_on_powered_sides(key):
    m = POWERED[key]()
    cases = seeded_sequents(m, f"powered/{key}", 24)
    skipped = _compare(key, m, cases, POWERED_BUDGET)
    assert len(skipped) == POWERED_SKIPS.get(key, 0), skipped
    assert {type(entails(m, premises, conclusion)) for premises, conclusion in cases} == {Holds, Fails}


# key -> the rule set and the matrix it filters
FILTERED_POWERED = {
    "neg_bot_3x2": ("neg_bot", lambda: _powered("neg_bot", 3, 2)),
    "nd^2*bot^2": ("neg_bot", _nd_neg_product),
    "biimp_bot1_3x2": ("biimp_bot1", lambda: _powered("biimp_bot1", 3, 2)),
    "imp_bot_4x1": ("imp_bot", lambda: _powered("imp_bot", 4, 1)),
}


@pytest.mark.parametrize("key", list(FILTERED_POWERED))
def test_rule_filter_agrees_with_reference_on_powered_sides(key):
    rule_set, build = FILTERED_POWERED[key]
    _compare_filter(key, build(), rule_set)


@pytest.mark.parametrize("left, right", [(1, 1), (2, 1), (3, 2)])
def test_saturation_check_agrees_with_reference_on_powered_sides(left, right):
    m = _powered("two_disj", left, right)
    gamma_pool = [parse(t, m.signature) for t in ("or(p,q)", "or2(q,r)")]
    delta_pool = [parse(t, m.signature) for t in ("p", "q", "r", "or2(p,q)")]
    got = bounded_saturation_check(m, 3, gamma_pool, delta_pool)
    assert got == reference_saturation_check(m, 3, gamma_pool, delta_pool)
