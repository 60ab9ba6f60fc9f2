"""Differential tests: the clone engines against the loops they replaced.

reference_closure and reference_expressions below are clone_closure_at_arity
and clone_expressions as they stood when each ran its own copy of the
frontier loop, and clone_expressions built a formula for every composition
it tried.  clone_closure_at_arity now reads the clone off Post's lattice, so
it must find the same tables as the brute-force reference_closure wherever
the reference finishes within its work cap.  clone_expressions still
searches, and must find the same tables in the same order.  find_expression
answers None from the lattice before any search, and must return the same
text (or None) as the reference's search.  reference_in_clone is
the closed-form membership in the clones of top, of conjunction with
constants and of bi-implication as it stood before the tests read the
taxonomy and took 0-place functions; the irreducible clones that each
question names must agree with it.  reference_post_predicates is
post_predicates as it stood before it read the irreducible clones.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping, Optional, Sequence

import pytest

from nmfib import bundled, syntax
from nmfib.boolfun import (
    BooleanFunction,
    FragmentSpec,
    clone_closure_at_arity,
    clone_expressions,
    find_expression,
    functionally_complete,
    PostPredicates,
    inside,
    load_fragment,
    post_predicates,
    standard_function,
)
from nmfib.syntax import Formula, app, text, var


def _projection(arity: int, j: int) -> int:
    return sum(1 << row for row in range(1 << arity) if row >> (arity - j) & 1)


def _constant(arity: int, value: int) -> int:
    return (1 << (1 << arity)) - 1 if value else 0


def _compose_bits(g: BooleanFunction, hs: Sequence[int], k: int) -> int:
    full = (1 << (1 << k)) - 1
    out = 0
    m = g.arity
    for row_g in range(1 << m):
        if not g.on_row(row_g):
            continue
        acc = full
        for i, h in enumerate(hs):
            acc &= h if row_g >> (m - 1 - i) & 1 else full ^ h
            if not acc:
                break
        out |= acc
    return out


class ClosureBudgetExceeded(ValueError):
    """reference_closure hit its size or work cap before completing."""


def _frontier_tuples(new_item, older: Sequence, m: int):
    for mask in range(1, 1 << m):
        free = [i for i in range(m) if not mask >> i & 1]
        for choice in itertools.product(older, repeat=len(free)):
            tup = [new_item] * m
            for i, val in zip(free, choice):
                tup[i] = val
            yield tup


def reference_closure(
    generators: Iterable[BooleanFunction], k: int, cap: int = 70000, work_cap: int = 2_000_000
) -> frozenset[BooleanFunction]:
    if not 1 <= k <= 4:
        raise ValueError("closure arity must be between 1 and 4")
    gens = sorted(set(generators), key=lambda f: (f.arity, f.bits))
    have: set[int] = set()
    order: list[BooleanFunction] = []
    work = 0

    def add(bits: int) -> None:
        if bits not in have:
            have.add(bits)
            order.append(BooleanFunction(k, bits))

    for j in range(1, k + 1):
        add(_projection(k, j))
    for g in gens:
        if g.arity == 0:
            add(_constant(k, g.bits & 1))
    frontier = 0
    while frontier < len(order):
        if len(order) > cap:
            raise ClosureBudgetExceeded(f"clone closure exceeded cap of {cap} functions")
        f_new = order[frontier]
        older = order[:frontier]
        frontier += 1
        for g in gens:
            if g.arity == 0:
                continue
            m = g.arity
            work += (len(older) + 1) ** m - len(older) ** m
            if work > work_cap:
                raise ClosureBudgetExceeded(f"clone closure exceeded work cap of {work_cap}")
            for hs in _frontier_tuples(f_new, older, m):
                add(_compose_bits(g, [h.bits for h in hs], k))
    return frozenset(order)


def reference_expressions(
    generators: Mapping[str, BooleanFunction],
    k: int,
    targets: Optional[Iterable[int]] = None,
    cap: int = 4096,
) -> dict[int, Formula]:
    if not 1 <= k <= 4:
        raise ValueError("closure arity must be between 1 and 4")
    want = set(targets) if targets is not None else None
    found: dict[int, Formula] = {}
    order: list[int] = []

    def add(bits: int, expr: Formula) -> bool:
        if bits not in found:
            found[bits] = expr
            order.append(bits)
        return want is not None and want <= set(found)

    for j in range(1, k + 1):
        if add(_projection(k, j), var(f"p{j}")):
            return found
    for name, g in sorted(generators.items()):
        if g.arity == 0:
            if add(_constant(k, g.bits & 1), app(name, ())):
                return found
    frontier = 0
    while frontier < len(order):
        if len(order) > cap:
            break
        bits_new = order[frontier]
        older = order[:frontier]
        frontier += 1
        for name, g in sorted(generators.items()):
            if g.arity == 0:
                continue
            for hs in _frontier_tuples(bits_new, older, g.arity):
                if add(_compose_bits(g, hs, k), app(name, tuple(found[b] for b in hs))):
                    return found
    return found


def reference_find(frag: FragmentSpec, target: BooleanFunction, cap: int = 4096) -> Optional[Formula]:
    return reference_expressions(dict(frag.functions), target.arity, targets=[target.bits], cap=cap).get(target.bits)


def reference_post_predicates(f: BooleanFunction) -> PostPredicates:
    """Post's five predicates as post_predicates computed them before it read
    the table of irreducible clones: affinity from the algebraic normal form."""
    rows = 1 << f.arity
    mono = all(
        f.on_row(r) <= f.on_row(r | 1 << j) for r in range(rows) for j in range(f.arity) if not r >> j & 1
    )
    # Moebius transform over GF(2): coeffs[m] is the coefficient of monomial m
    coeffs = [f.on_row(r) for r in range(rows)]
    step = 1
    while step < rows:
        for base in range(0, rows, step * 2):
            for i in range(base, base + step):
                coeffs[i + step] ^= coeffs[i]
        step *= 2
    affine = all(not c for m, c in enumerate(coeffs) if bin(m).count("1") >= 2)
    dual = all(f.on_row(rows - 1 - r) != f.on_row(r) for r in range(rows))
    return PostPredicates(not f.on_row(0), bool(f.on_row(rows - 1)), mono, affine, dual)


def reference_in_clone(f: BooleanFunction, clone: str) -> bool:
    if f.arity == 0:
        # value 1 lies in every one of the three clones, value 0 only in one
        return f.bits == 1 or clone == "and_top_bot"
    rows = 1 << f.arity
    if clone == "top":
        return f.bits == (1 << rows) - 1 or any(f.bits == _projection(f.arity, j) for j in range(1, f.arity + 1))
    if clone == "and_top_bot":
        ones = [r for r in range(rows) if f.on_row(r)]
        if not ones:
            return True
        meet = rows - 1
        for r in ones:
            meet &= r
        return all(f.on_row(r) == (1 if r & meet == meet else 0) for r in range(rows))
    p = reference_post_predicates(f)
    return p.affine and p.preserves1


# the irreducible clones whose intersection is each closed-form clone
CLOSED_FORMS = {"top": ("P1", "N", "M"), "and_top_bot": ("E",), "biimp": ("P1", "L")}


# every function of arity at most 2, named by arity and table
FUNCTIONS = [BooleanFunction(k, bits) for k in (0, 1, 2) for bits in range(1 << (1 << k))]
FRAGMENTS = [
    FragmentSpec.of({f"c{f.arity}_{f}": f for f in fs})
    for fs in itertools.chain(itertools.combinations(FUNCTIONS, 1), itertools.combinations(FUNCTIONS, 2))
]
# At arity 3 a functionally complete fragment makes each engine find all
# 256 tables, about 0.2 s apiece, and 81 of the fragments are complete; so
# at arity 3 the tests take every fragment that is not complete and these
# complete ones: nand, nor, {or, neg} and {imp, bot}.
COMPLETE_AT_3 = {("c2_1110",), ("c2_1000",), ("c1_10", "c2_0111"), ("c0_0", "c2_1101")}
FRAGMENTS_AT_3 = [f for f in FRAGMENTS if not functionally_complete(f) or f.names() in COMPLETE_AT_3]
BUNDLED_FRAGMENTS = [load_fragment(bundled.read(f"{stem}.json", "fragment", builtin=True)) for stem in bundled.stems("fragment")]
TARGETS = [
    *(standard_function(n) for n in ("or", "and", "imp", "iff", "neg", "xor", "xor3", "thr_3_2")),
    BooleanFunction.from_string("00000111", 3),
]


def _text(phi: Optional[Formula]) -> Optional[str]:
    return None if phi is None else text(phi)


def test_fragments_cover_one_and_two_connectives():
    assert len(FUNCTIONS) == 22
    assert len(FRAGMENTS) == 22 + 231
    assert len(FRAGMENTS_AT_3) == 172 + len(COMPLETE_AT_3)
    assert len(BUNDLED_FRAGMENTS) == 21


@pytest.mark.parametrize("target", TARGETS, ids=str)
def test_find_expression_agrees_with_reference(target):
    # the bundled fragments bring ternary generators (if3, maj_neg, bowtie,
    # xor3, thr_3_2), whose separation degrees the membership test reads
    for frag in [*(FRAGMENTS if target.arity < 3 else FRAGMENTS_AT_3), *BUNDLED_FRAGMENTS]:
        assert _text(find_expression(frag, target)) == _text(reference_find(frag, target)), (frag.names(), target)


def test_closure_agrees_with_reference():
    for frag in FRAGMENTS:
        gens = [f for _, f in frag.functions]
        for k in (1, 2, 3) if frag in FRAGMENTS_AT_3 else (1, 2):
            assert clone_closure_at_arity(gens, k) == reference_closure(gens, k), (frag.names(), k)


# The reference tries n^m tuples for each m-place generator of a clone with
# n tables at the arity, so this work cap stops it on the large arity-3
# slices of ternary generators (over 12 tables for one ternary generator);
# only those cases are skipped.
SWEEP_WORK_CAP = 2000


def test_closure_of_ternary_generators_agrees_with_reference():
    # every single arity-3 function and seeded (arity-3, arity <= 2) pairs,
    # at arities 1 to 3
    rng = random.Random(16)
    ternary = [BooleanFunction(3, bits) for bits in range(256)]
    gen_sets = [[f] for f in ternary]
    gen_sets += [[rng.choice(ternary), rng.choice(FUNCTIONS)] for _ in range(20)]
    checked = skipped = 0
    for gens in gen_sets:
        for k in (1, 2, 3):
            try:
                want = reference_closure(gens, k, work_cap=SWEEP_WORK_CAP)
            except ClosureBudgetExceeded:
                skipped += 1
                continue
            assert clone_closure_at_arity(gens, k) == want, ([str(f) for f in gens], k)
            checked += 1
    assert (checked, skipped) == (517, 311)


def test_closed_forms_agree_with_reference():
    # every function of arity 0 to 3, and a sample of arity 4
    rng = random.Random(10)
    funcs = [BooleanFunction(k, bits) for k in range(4) for bits in range(1 << (1 << k))]
    funcs += [BooleanFunction(4, rng.randrange(1 << 16)) for _ in range(3000)]
    for f in funcs:
        for clone, irreducibles in CLOSED_FORMS.items():
            assert inside([f], *irreducibles) == reference_in_clone(f, clone), (clone, f.arity, str(f))
        if f.arity:
            assert post_predicates(f) == reference_post_predicates(f), (f.arity, str(f))
    for frag in FRAGMENTS:
        for clone, irreducibles in CLOSED_FORMS.items():
            want = all(reference_in_clone(f, clone) for _, f in frag.functions)
            assert inside(frag.tables(), *irreducibles) == want, (frag.names(), clone)


def test_whole_slice_expressions_agree_with_reference():
    for names in (("imp",), ("or", "neg"), ("coimp",), ("thr_3_2", "neg")):
        gens = {n: standard_function(n) for n in names}
        for k in (2, 3):
            got = clone_expressions(gens, k, targets=range(1 << (1 << k)))
            want = reference_expressions(gens, k, cap=1 << (1 << k))
            assert list(got) == list(want), (names, k)
            assert [text(e) for e in got.values()] == [text(e) for e in want.values()]
            assert set(got) == {f.bits for f in clone_closure_at_arity(gens.values(), k)}, (names, k)


def test_find_expression_interns_only_what_it_keeps():
    # fresh connective names, so none of the candidate formulas exist yet
    gens = {"pool_coimp": standard_function("coimp")}
    frag = FragmentSpec.of(gens)
    # a target outside the clone is answered before any formula is built
    outside = standard_function("thr_3_2")
    before = set(syntax._pool)
    assert find_expression(frag, outside) is None
    assert set(syntax._pool) == before
    # every formula a search for a member builds is one of the expressions it keeps
    member = BooleanFunction.from_string("00000111", 3)
    assert find_expression(frag, member) is not None
    added = [syntax._pool[key] for key in syntax._pool if key not in before]
    kept = set(clone_expressions(gens, member.arity, targets=[member.bits]).values())
    assert added and all(phi in kept for phi in added)
