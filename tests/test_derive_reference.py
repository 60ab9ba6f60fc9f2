"""Differential tests: calculus.derive against the naive forward chainer.

reference_derive below is the derivation search as it stood before derive
became semi-naive and indexed: every round re-matches every rule against
every derived formula and scans the whole universe for leftover schematic
variables.  The indexed engine must record the same steps in the same
order, so the two must return equal derivations (step for step, with the
same substitutions) or equal NotFoundAtBound verdicts.

The reference builds its own instantiation universe, sorted whole in
(depth, text) order as derive's universe once was, so a change to the order
in which derive's universe lists its members cannot pass through both
engines unseen.

The compiled kernels derive runs on, calculus._matcher and
syntax.instance_lookup, are checked here too: against _reference_match and
_reference_instance, the recursive functions they replaced.  The universe
derive serves by level (calculus._Universe and its compiled level test
calculus._member) is checked against _reference_universe, which builds
it whole.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator, Optional, Union

import pytest
from hypothesis import given, seed, settings, strategies as st

from nmfib import syntax
from nmfib.boolfun import BooleanFunction, FragmentSpec, standard_function
from nmfib.calculus import (
    BUILTIN_IDS,
    Derived,
    HilbertCalculus,
    NotFoundAtBound,
    Premise,
    Rule,
    RuleApp,
    Step,
    _matcher,
    _member,
    _trim,
    _Universe,
    builtin_calculus,
    derive,
    load_calculus,
    merge,
    renamed,
    verify,
)
from nmfib.semantics import entails, two_valued_matrix
from nmfib.syntax import (
    Formula,
    Var,
    app,
    apply_substitution,
    canon_sort,
    depth,
    fresh_var,
    instance_lookup,
    parse,
    subformula_closure,
    text,
    var,
    variables,
)


def _reference_match(pattern: Formula, target: Formula, sigma: dict[str, Formula]) -> Optional[dict[str, Formula]]:
    if isinstance(pattern, Var):
        bound = sigma.get(pattern.name)
        if bound is None:
            out = dict(sigma)
            out[pattern.name] = target
            return out
        return sigma if bound == target else None
    if isinstance(target, Var) or pattern.head != target.head or len(pattern.args) != len(target.args):
        return None
    for pa, ta in zip(pattern.args, target.args):
        nxt = _reference_match(pa, ta, sigma)
        if nxt is None:
            return None
        sigma = nxt
    return sigma


def _reference_instance(sigma: dict[str, Formula], phi: Formula) -> Optional[Formula]:
    """apply_substitution(sigma, phi) if that formula already exists, else None."""
    if isinstance(phi, Var):
        return sigma.get(phi.name, phi)
    args = []
    for a in phi.args:
        b = _reference_instance(sigma, a)
        if b is None:
            return None
        args.append(b)
    return syntax._pool.get((phi.head, tuple(args)))  # type: ignore[return-value]


def _reference_universe(calc: HilbertCalculus, base: list[Formula], depth_bound: int, cap: int) -> list[Formula]:
    """Subformulas of the sequent plus a fresh variable, closed up to the
    depth bound under the calculus connectives, in (depth, text) order; each
    round combines the pool so far, and the cap truncates breadth-first."""
    pool = list(subformula_closure(base))
    pool.append(fresh_var(base))
    keys = {f: (depth(f), text(f)) for f in pool}
    for _ in range(depth_bound):
        if len(keys) > cap:
            break
        grown = sorted(keys, key=keys.__getitem__)
        for conn, arity in calc.signature.connectives:
            for args in itertools.product(grown, repeat=arity):
                candidate = app(conn, args)
                if candidate not in keys:
                    keys[candidate] = (
                        (1 + max(keys[a][0] for a in args), f"{conn}({','.join(keys[a][1] for a in args)})")
                        if args
                        else (0, conn)
                    )
                if len(keys) > cap:
                    break
            if len(keys) > cap:
                break
    return sorted(keys, key=keys.__getitem__)


def _schematic_variables(rule: Rule) -> set[str]:
    return {v.name for phi in (*rule.premises, rule.conclusion) for v in variables(phi)}


def reference_derive(
    calc: HilbertCalculus,
    premises: Iterable[Formula],
    goal: Formula,
    universe_depth: int = 2,
    step_cap: int = 10000,
) -> Union[Derived, NotFoundAtBound]:
    """Naive bounded forward chaining (the engine derive replaced)."""
    premises = canon_sort(premises)
    universe = _reference_universe(calc, premises + [goal], universe_depth, cap=max(step_cap, 2000))
    in_universe = set(universe)

    steps: list[Step] = []
    index: dict[Formula, int] = {}

    def record(phi: Formula, just) -> bool:
        if phi in index:
            return False
        index[phi] = len(steps)
        steps.append(Step(phi, just))
        return True

    for phi in premises:
        record(phi, Premise())
    if goal in index:
        return Derived(_trim(steps, index, goal))

    def fire(rule: Rule) -> Iterator[tuple[dict[str, Formula], tuple[int, ...]]]:
        def match_from(i: int, sigma: dict[str, Formula], used: tuple[int, ...]) -> Iterator:
            if i == len(rule.premises):
                if _schematic_variables(rule) <= set(sigma):
                    if apply_substitution(sigma, rule.conclusion) in in_universe:
                        yield sigma, used
                    return
                for u in universe:
                    filled = _reference_match(rule.conclusion, u, dict(sigma))
                    if filled is not None:
                        yield filled, used
                return
            pattern = rule.premises[i]
            for phi, k in list(index.items()):
                nxt = _reference_match(pattern, phi, sigma)
                if nxt is not None:
                    yield from match_from(i + 1, nxt, used + (k,))

        yield from match_from(0, {}, ())

    while True:
        grew = False
        for rule in calc.rules:
            for sigma, used in fire(rule):
                concl = apply_substitution(sigma, rule.conclusion)
                if concl not in in_universe:
                    continue
                if record(concl, RuleApp(rule.name, tuple(sorted(sigma.items())), used)):
                    grew = True
                    if concl == goal:
                        return Derived(_trim(steps, index, goal))
                    if len(steps) >= step_cap:
                        return NotFoundAtBound("step cap exhausted", universe_depth, step_cap)
        if not grew:
            return NotFoundAtBound("universe saturated", universe_depth, step_cap)


# ---------------------------------------------------------------------------
# Calculi and seeded sequents
# ---------------------------------------------------------------------------

def _merged(*parts: HilbertCalculus) -> HilbertCalculus:
    out = parts[0]
    for c in parts[1:]:
        out = merge(out, c)
    return out


def _calculi() -> dict[str, HilbertCalculus]:
    b = builtin_calculus
    table = {cid: b(cid) for cid in BUILTIN_IDS}
    table["or+and+and_or"] = _merged(b("B_or"), b("B_and"), b("and_or"))
    table["or+neg+or_neg"] = _merged(b("B_or"), b("B_neg"), b("or_neg"))
    table["neg+sim+neg_pair"] = _merged(b("B_neg"), renamed(b("B_neg"), {"neg": "sim"}), b("neg_pair"))
    return table


CALCULI = _calculi()

# classical reading of the connectives that have no standard table of their own
_CLASSICAL_ALIAS = {"sim": "neg", "or2": "or", "and2": "and", "bota": "bot", "botb": "bot"}


def _classical_fragment(calc: HilbertCalculus) -> FragmentSpec:
    tables = {}
    for name, arity in calc.signature.connectives:
        if name == "bot1":
            tables[name] = BooleanFunction.from_string("00", 1)
        else:
            tables[name] = standard_function(_CLASSICAL_ALIAS.get(name, name))
        assert tables[name].arity == arity
    return FragmentSpec.of(tables)


def _random_formula(rng: random.Random, conns, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        nullary = [c for c, k in conns if k == 0]
        if nullary and rng.random() < 0.3:
            return app(rng.choice(nullary), ())
        return var(rng.choice("pqr"))
    compound = [(c, k) for c, k in conns if k > 0] or conns
    c, k = rng.choice(compound)
    return app(c, tuple(_random_formula(rng, conns, depth - 1) for _ in range(k)))


def seeded_sequents(cid: str, seed: int, per_kind: int, max_depth: int = 2):
    """Up to per_kind classically valid and per_kind invalid sequents,
    as (premises, goal), none with the goal among the premises."""
    calc = CALCULI[cid]
    conns = list(calc.signature.connectives)
    matrix = two_valued_matrix(_classical_fragment(calc))
    rng = random.Random(f"{cid}/{seed}")
    want = {True: per_kind, False: per_kind}
    out, seen = [], set()
    for _ in range(400):
        if not any(want.values()):
            break
        prems = [_random_formula(rng, conns, rng.randint(0, max_depth)) for _ in range(rng.randint(0, 2))]
        goal = _random_formula(rng, conns, rng.randint(0, max_depth))
        key = (frozenset(prems), goal)
        if goal in prems or key in seen:
            continue
        seen.add(key)
        valid = bool(entails(matrix, prems, goal))
        if want[valid]:
            want[valid] -= 1
            out.append((prems, goal))
    return out


def _assert_same(calc, prems, goal, depth, step_cap=10000):
    got = derive(calc, prems, goal, universe_depth=depth, step_cap=step_cap)
    want = reference_derive(calc, prems, goal, universe_depth=depth, step_cap=step_cap)
    label = ([syntax.text(p) for p in prems], syntax.text(goal), depth, step_cap)
    assert type(got) is type(want), label
    if isinstance(want, Derived):
        assert got.derivation.lines() == want.derivation.lines(), label
        assert got.derivation == want.derivation, label
        assert verify(got.derivation, calc, prems, goal), label
    else:
        assert got == want, label
    return got


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

# calculi with the B_or rules: at universe depth 2 the reference spends tens
# of seconds per sequent scanning the universe, so they get the fixed
# depth-2 cases below only
SLOW_AT_DEPTH_2 = {"B_or", "or+and+and_or", "or+neg+or_neg"}


@pytest.mark.parametrize("cid", sorted(CALCULI))
def test_derive_agrees_with_reference_at_depth_1(cid):
    cases = seeded_sequents(cid, seed=1, per_kind=8)
    assert cases
    for prems, goal in cases:
        _assert_same(CALCULI[cid], prems, goal, depth=1)


@pytest.mark.parametrize("cid", sorted(set(CALCULI) - SLOW_AT_DEPTH_2))
def test_derive_agrees_with_reference_seeded_at_depth_2(cid):
    cases = seeded_sequents(cid, seed=2, per_kind=3)
    assert cases
    for prems, goal in cases:
        _assert_same(CALCULI[cid], prems, goal, depth=2)


@pytest.mark.parametrize(
    "cid, premises, goal",
    [("B_imp", [], "imp(a,imp(b,a))"), ("B_or", ["a"], "or(a,b)"), ("B_neg", ["a", "neg(a)"], "b")],
)
def test_derive_agrees_with_reference_at_a_negative_depth(cid, premises, goal):
    # a negative depth bound leaves the base alone, as depth 0 does; each
    # goal is a base member that a free conclusion variable must reach
    calc = CALCULI[cid]
    sig = calc.signature
    assert isinstance(_assert_same(calc, [parse(t, sig) for t in premises], parse(goal, sig), depth=-1), Derived)


def test_derive_agrees_with_reference_outcomes_cover_both_verdicts():
    found = {Derived: 0, NotFoundAtBound: 0}
    for cid in ("B_and", "B_neg", "or+neg+or_neg"):
        for prems, goal in seeded_sequents(cid, seed=2, per_kind=4):
            found[type(_assert_same(CALCULI[cid], prems, goal, depth=1))] += 1
    assert found[Derived] and found[NotFoundAtBound]


def test_derive_agrees_with_reference_under_step_caps():
    # c3 (p, q / and(p,q)) and ao1 (or(p,q), or(p,r) / or(p,and(q,r))) take
    # their first premise from the steps that new second premises name
    # through the conclusion when fewer second-premise steps are new than
    # first-premise steps are old, and scan it otherwise.  Under caps 1-15,
    # c3 leads in some firings of the first B_and case and declines in
    # others, and ao1 leads in the or(r,p) case; in the last two cases
    # the old steps a lead names make new conclusions, c3's from cap 29 and
    # ao1's from cap 39
    for cid, premises, goal, caps in [
        ("or+and+and_or", ["or(p,and(q,r))"], "and(or(p,q),or(p,r))", (1, 3, 10, 40, 200)),
        ("B_and", ["q", "p"], "and(and(p,q),r)", range(1, 16)),
        ("or+and+and_or", ["or(r,p)"], "r", range(1, 16)),
        ("B_and", ["and(and(p,p),and(p,r))"], "and(and(p,p),and(r,r))", range(1, 41)),
        ("or+and+and_or", ["or(and(p,and(p,p)),p)"], "or(and(q,p),p)", range(1, 41)),
    ]:
        calc = CALCULI[cid]
        sig = calc.signature
        for cap in caps:
            _assert_same(calc, [parse(t, sig) for t in premises], parse(goal, sig), depth=1, step_cap=cap)


def test_derive_takes_the_last_premise_in_step_order():
    # c3 finds its last premise through the universe, where and(b,a) comes
    # before and(b,b); the scan it replaces reaches b (step 0) before a
    # (step 2), and the step cap shows which conclusion is recorded first
    calc = CALCULI["B_and"]
    sig = calc.signature
    prems = [parse("b", sig), parse("and(a,a)", sig)]
    goal = parse("and(b,b)", sig)
    for cap in range(3, 12):
        _assert_same(calc, prems, goal, depth=1, step_cap=cap)


def test_derive_takes_second_premises_recorded_during_a_firing():
    # i4 (p, imp(p,q) / q) visits, below its mark, only the steps a new
    # imp(p,q) step binds p to; imp(a2,z), recorded by i4 from a1 in the
    # same firing, points at a2, which the scan over every step reaches
    # after a1, so z is recorded before g and the step cap lets it in.
    # c3 (p, q / and(p,q)) leads its second firing through the conclusion
    # (b and w are new, five steps old): b names a, a records and(a,b),
    # and that new second premise names x, which the scan reaches after a,
    # so and(x,and(a,b)) is recorded before and(b,a)
    for cid, premises, goal, caps in [
        ("B_imp", ("u", "a1", "a2", "a3", "imp(u,v)", "imp(v,imp(a1,imp(a2,z)))", "imp(v,imp(a3,g))"), "z", range(8, 14)),
        ("B_and", ("a", "x", "and(z,and(b,w))"), "and(and(x,and(a,b)),and(b,a))", range(1, 16)),
    ]:
        calc = CALCULI[cid]
        sig = calc.signature
        for cap in caps:
            _assert_same(calc, [parse(t, sig) for t in premises], parse(goal, sig), depth=0, step_cap=cap)


@pytest.mark.parametrize(
    "cid, premises, goal",
    [
        ("B_and", ["and(p,and(q,r))"], "and(and(p,q),r)"),
        ("B_neg", ["neg(neg(p))"], "neg(neg(neg(neg(p))))"),
        ("B_or", ["or(p,q)"], "or(q,or(p,p))"),
        ("B_imp", ["imp(p,q)", "imp(q,r)", "p"], "r"),
        ("neg+sim+neg_pair", ["neg(neg(p))"], "sim(sim(p))"),
        ("B_iff", ["iff(p,q)"], "iff(q,p)"),
        ("or+and+and_or", ["and(and(p,p),and(p,p))", "p"], "and(and(p,p),p)"),
        ("or+and+and_or", ["or(p,q)", "or(p,r)"], "or(p,and(q,r))"),
    ],
)
def test_derive_agrees_with_reference_at_depth_2(cid, premises, goal):
    calc = CALCULI[cid]
    sig = calc.signature
    _assert_same(calc, [parse(t, sig) for t in premises], parse(goal, sig), depth=2)


def test_w4_reassociation_in_b_or_at_depth_2():
    calc = builtin_calculus("B_or")
    sig = calc.signature
    prems = [parse("or(or(p,q),r)", sig)]
    goal = parse("or(p,or(q,r))", sig)
    res = derive(calc, prems, goal, universe_depth=2)
    assert isinstance(res, Derived)
    assert len(res.derivation.steps) == 6
    assert verify(res.derivation, calc, prems, goal)


def test_derive_interns_no_rejected_conclusions():
    # fresh variable names, so none of the candidate conclusions exist yet;
    # every recorded step is a universe member, so the universe bounds the
    # formulas a derive call may add to the intern pool
    calc = builtin_calculus("B_and")
    sig = calc.signature
    prems = [parse("and(pool_p,pool_q)", sig)]
    goal = parse("and(pool_q,pool_r)", sig)
    before = len(syntax._pool)
    res = derive(calc, prems, goal, universe_depth=1)
    grown = len(syntax._pool) - before
    assert isinstance(res, NotFoundAtBound)
    universe = _Universe(calc, canon_sort(prems) + [goal], 1, cap=10000)
    assert grown <= len(universe.members(1))


def test_derive_builds_no_last_round_it_does_not_read():
    # fresh variable names with B_imp at depth 2: building the universe
    # whole would add its last round (1,564 formulas) to the intern pool;
    # served by level, derive builds only the members its rules accept
    calc = builtin_calculus("B_imp")
    sig = calc.signature
    prems = [parse("imp(lvl_a,lvl_b)", sig)]
    goal = parse("imp(lvl_b,lvl_c)", sig)
    before = len(syntax._pool)
    res = derive(calc, prems, goal, universe_depth=2)
    grown = len(syntax._pool) - before
    assert isinstance(res, NotFoundAtBound)
    # the universe is sized after the search, so its last round is not in
    # the pool while derive runs
    universe = _Universe(calc, canon_sort(prems) + [goal], 2, cap=10000)
    last_round = len(universe.members(2)) - len(universe.levels)
    assert universe.top == 2 and last_round == 1564 and grown < last_round / 2


def test_universe_builds_no_text_for_its_last_round():
    # a round below the bound is built unsorted, so its formulas get no
    # text; a round the cap cuts combines the members so far in (depth,
    # text) order, so only those are given text, not the formulas it
    # builds; fresh variable names, so each round builds most of its members
    calc = builtin_calculus("B_iff")
    sig = calc.signature
    base = canon_sort([parse(t, sig) for t in ("iff(iff(uk_a,uk_a),iff(uk_b,uk_c))", "iff(uk_c,uk_b)")])
    base.append(parse("iff(iff(uk_a,uk_c),iff(uk_a,uk_b))", sig))
    existing = set(syntax._pool.values())
    below = _Universe(calc, base, 2, cap=10**6)  # builds round 1 and counts round 2
    combined = [u for u in below.levels if u not in existing]
    assert below.top == 2 and len(combined) > 100 and all(u._key is None for u in combined)
    existing = set(syntax._pool.values())
    universe = _Universe(calc, base, 2, cap=10000)
    built = [u for u in universe.levels if u not in existing]
    assert universe.top < 0 and len(universe.levels) == 10001
    assert not set(combined) & set(built) and len(built) > 9000
    assert all(u._key is None for u in built)


# ---------------------------------------------------------------------------
# The compiled kernels against the recursive functions they replaced
# ---------------------------------------------------------------------------

@functools.cache
def _kernel_inputs() -> tuple[list[Formula], list[Formula]]:
    """Every premise and conclusion schema of the bundled calculi, and as
    targets the members of each one's depth-2 universe over p, q and a
    formula that uses one of its heads at another arity (such as neg(p,p)
    or or(p,p,p)); the universes of calculi with 0-place connectives hold
    those constants."""
    schemas = set()
    targets = set()
    for cid in BUILTIN_IDS:
        calc = builtin_calculus(cid)
        schemas.update(phi for rule in calc.rules for phi in (*rule.premises, rule.conclusion))
        name, arity = max(calc.signature.connectives, key=lambda c: c[1])
        odd = app(name, (var("p"),) * (arity + 1))
        targets.update(_reference_universe(calc, [var("p"), var("q"), odd], 2, cap=400))
    return canon_sort(schemas), canon_sort(targets)


def _assert_kernels_agree(schema: Formula, target: Formula, sigma: dict[str, Formula]) -> None:
    label = (text(schema), text(target), {n: text(f) for n, f in sigma.items()})
    got = _matcher(schema)(target, sigma)
    want = _reference_match(schema, target, sigma)
    # the same bindings in the same order, and sigma itself when nothing is new
    assert (got is None, got is sigma) == (want is None, want is sigma), label
    assert (got and list(got.items())) == (want and list(want.items())), label
    pool = len(syntax._pool)
    assert instance_lookup(schema)(sigma) is _reference_instance(sigma, schema), label
    assert len(syntax._pool) == pool, label


def test_compiled_kernels_agree_with_reference_on_every_bundled_schema():
    schemas, targets = _kernel_inputs()
    hits = 0
    for schema in schemas:
        names = [v.name for v in variables(schema)]
        # the instance that binds every variable to the same target, then
        # every target, with no binding, the first variable bound and all bound
        instance = apply_substitution(dict.fromkeys(names, targets[-1]), schema)
        for target in [instance, *targets]:
            for sigma in ({}, dict.fromkeys(names[:1], targets[-1]), dict.fromkeys(names, targets[-1])):
                _assert_kernels_agree(schema, target, sigma)
            hits += _matcher(schema)(target, {}) is not None
    # the building kernel conclude uses, once no more lookups can miss:
    # every variable, some or none bound, to formulas that may not exist yet
    for schema in schemas:
        names = [v.name for v in variables(schema)]
        for sigma in ({}, dict.fromkeys(names[:1], targets[-1]), dict(zip(names, targets[::-7]))):
            assert instance_lookup(schema, True)(sigma) is apply_substitution(sigma, schema), text(schema)
    assert len(schemas) > 40 and hits > len(schemas)


@st.composite
def _kernel_cases(draw):
    schemas, targets = _kernel_inputs()
    schema = draw(st.sampled_from(schemas))
    names = [v.name for v in variables(schema)]
    pick = st.sampled_from(targets)
    fill = {name: draw(pick) for name in names}
    target = apply_substitution(fill, schema) if draw(st.booleans()) else draw(pick)
    # partly pre-bound: each bound name takes the instance's binding or any
    # target, and w is a name no schema uses
    bound = draw(st.lists(st.sampled_from([*names, "w"]), unique=True))
    sigma = {name: fill[name] if name in fill and draw(st.booleans()) else draw(pick) for name in bound}
    return schema, target, sigma


@seed(20)
@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(_kernel_cases())
def test_compiled_kernels_agree_with_reference_on_pre_bound_substitutions(case):
    _assert_kernels_agree(*case)


def test_generated_code_keeps_formula_names_out_of_its_identifiers():
    # _IDENT accepts each of these schematic variable names; code that used
    # them as Python identifiers would clash with its own locals and
    # parameters or fail to compile; x'y is a variable only the library API
    # builds
    data = {
        "signature": [{"name": "and", "arity": 2}, {"name": "imp", "arity": 2}],
        "rules": [
            {"name": "c1", "premises": ["and(sigma,t0)"], "conclusion": "sigma"},
            {"name": "c2", "premises": ["and(sigma,t0)"], "conclusion": "t0"},
            {"name": "c3", "premises": ["return", "None"], "conclusion": "and(return,None)"},
            {"name": "mp", "premises": ["get", "imp(get,b0)"], "conclusion": "b0"},
            {"name": "k", "conclusion": "imp(get,imp(None,get))"},
        ],
    }
    loaded = load_calculus(data)
    quoted = {"sigma": var("x'y"), "t0": var("t0")}
    calc = HilbertCalculus.of(
        loaded.signature,
        [*loaded.rules, Rule.of("c1q", [apply_substitution(quoted, loaded.rules[0].premises[0])], var("x'y"))],
    )
    sig = calc.signature
    for prems, goal, depth in [
        (["and(a,b)", "imp(b,c)"], "and(c,a)", 2),
        (["and(a,imp(a,b))"], "and(b,b)", 2),
        (["a"], "imp(b,a)", 2),
        (["imp(a,b)", "imp(b,c)", "a"], "and(c,b)", 1),
        (["and(a,b)"], "imp(c,c)", 1),
    ]:
        _assert_same(calc, [parse(t, sig) for t in prems], parse(goal, sig), depth=depth)
    a, b = var("a"), var("b")
    for schema in (app("and", (var("x'y"), var("x'y"))), app("imp", (var("return"), var("sigma")))):
        for target in (app("and", (a, a)), app("and", (a, b)), app("imp", (a, b)), a):
            for sigma in ({}, {"x'y": a, "sigma": b}, {"return": b}):
                _assert_kernels_agree(schema, target, sigma)


# ---------------------------------------------------------------------------
# The universe served by level against the universe built whole
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cid", BUILTIN_IDS)
def test_universe_by_level_agrees_with_the_built_universe(cid):
    # for seeded sequents at depths 0-2, with caps that bind and caps that
    # do not: the members up to each level, the level test, the keyed
    # lookups (a connective with one argument given) and the schema-first
    # enumeration of every rule schema must give exactly the members
    # _reference_universe builds
    calc = builtin_calculus(cid)
    schemas = canon_sort(phi for rule in calc.rules for phi in (*rule.premises, rule.conclusion))
    shapes = [app(c, tuple(var(f"x{i}") for i in range(k))) for c, k in calc.signature.connectives]
    rng = random.Random(cid)
    paths = set()
    for prems, goal in seeded_sequents(cid, seed=3, per_kind=1, max_depth=1):
        base = canon_sort(prems) + [goal]
        for depth in (0, 1, 2):
            # 5000 binds at depth 2 for the ternary xor3
            size = len(_reference_universe(calc, base, depth, cap=5000))
            for cap in sorted({min(size, 5000), size - 1, 30, 5}):
                members = _reference_universe(calc, base, depth, cap)
                built = set(members)
                universe = _Universe(calc, base, depth, cap)
                # the universe is built whole exactly when there is no
                # unbuilt round, or the cap binds
                assert (universe.top < 0) == (depth == 0 or size > cap)
                paths.add(universe.top < 0)
                for bound in range(depth):
                    assert set(universe.members(bound)) == set(_reference_universe(calc, base, bound, cap))
                assert set(universe.members(depth)) == built
                for phi in [*schemas, *shapes]:
                    names = [v.name for v in variables(phi)]
                    for _ in range(20):
                        sigma = {name: rng.choice(members) for name in names}
                        instance = apply_substitution(sigma, phi)
                        got = _member(phi)(sigma, universe.levels, universe.top)
                        assert got is (instance if instance in built else None), (text(phi), text(instance))
                for shape in shapes:
                    for pos, a in itertools.product(range(len(shape.args)), rng.sample(members, min(8, len(members)))):
                        _assert_enumerates(universe, built, shape, {f"x{pos}": a}, depth)
                for phi in schemas:
                    names = [v.name for v in variables(phi)]
                    _assert_enumerates(universe, built, phi, {}, depth)
                    if names:
                        _assert_enumerates(universe, built, phi, {names[0]: rng.choice(members)}, depth)
    assert paths == {False, True}


def _assert_enumerates(universe, built, phi: Formula, sigma: dict, depth: int) -> None:
    got = {}
    for filled in universe.extensions(phi, sigma, depth):
        instance = apply_substitution(filled, phi)
        assert instance not in got and filled == _reference_match(phi, instance, sigma), text(instance)
        got[instance] = filled
    want = {u for u in built if _matcher(phi)(u, sigma) is not None}
    assert set(got) == want, (text(phi), {n: text(f) for n, f in sigma.items()})
