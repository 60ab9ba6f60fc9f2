import time

import pytest

from nmfib.boolfun import standard_fragment
from nmfib.calculus import (
    BUILTIN_IDS,
    Derivation,
    Derived,
    NotFoundAtBound,
    Premise,
    RuleApp,
    Step,
    _join_plan,
    audit,
    builtin_calculus,
    derive,
    load_calculus,
    merge,
    renamed,
    verify,
)
from nmfib.semantics import entails, two_valued_matrix
from nmfib.syntax import SignatureError, app, parse, text, var


def rule_bodies(calc):
    return {(frozenset(text(p) for p in r.premises), text(r.conclusion)) for r in calc.rules}


def body(premises, conclusion):
    return (frozenset(premises), conclusion)


def test_builtin_rule_sets_exactly():
    assert rule_bodies(builtin_calculus("B_top")) == {body([], "top")}
    assert rule_bodies(builtin_calculus("B_bot")) == {body(["bot"], "p")}
    assert rule_bodies(builtin_calculus("B_neg")) == {
        body(["p"], "neg(neg(p))"),
        body(["neg(neg(p))"], "p"),
        body(["p", "neg(p)"], "q"),
    }
    assert rule_bodies(builtin_calculus("B_and")) == {
        body(["and(p,q)"], "p"),
        body(["and(p,q)"], "q"),
        body(["p", "q"], "and(p,q)"),
    }
    assert rule_bodies(builtin_calculus("B_or")) == {
        body(["p"], "or(p,q)"),
        body(["or(p,p)"], "p"),
        body(["or(p,q)"], "or(q,p)"),
        body(["or(p,or(q,r))"], "or(or(p,q),r)"),
    }
    assert rule_bodies(builtin_calculus("neg_pair")) == {
        body(["neg(p)"], "sim(p)"),
        body(["sim(p)"], "neg(p)"),
    }
    assert rule_bodies(builtin_calculus("or_neg")) == {
        body([], "or(p,neg(p))"),
        body(["or(p,q)"], "or(p,neg(neg(q)))"),
        body(["or(p,neg(neg(q)))"], "or(p,q)"),
        body(["or(p,q)", "or(p,neg(q))"], "p"),
    }
    with pytest.raises(SignatureError):
        builtin_calculus("B_nope")


def test_merge_examples():
    both = merge(builtin_calculus("B_and"), renamed(builtin_calculus("B_and"), {"and": "and2"}))
    assert len(both.rules) == 6
    assert set(both.signature.names()) == {"and", "and2"}
    # arity clash rejected
    weird = load_calculus(
        {"signature": [{"name": "and", "arity": 3}], "rules": []}
    )
    with pytest.raises(SignatureError):
        merge(builtin_calculus("B_and"), weird)
    # merging the empty calculus changes nothing
    empty = load_calculus({"signature": [], "rules": []})
    again = merge(builtin_calculus("B_or"), empty)
    assert rule_bodies(again) == rule_bodies(builtin_calculus("B_or"))
    # negation-and-falsum with the interaction axiom
    nb = merge(merge(builtin_calculus("B_neg"), builtin_calculus("B_bot")), builtin_calculus("neg_bot"))
    assert body([], "neg(bot)") in rule_bodies(nb)


def test_derive_examples():
    c = builtin_calculus("B_and")
    sig = c.signature
    prems = [parse("p", sig), parse("q", sig)]
    goal = parse("and(p,q)", sig)
    res = derive(c, prems, goal, universe_depth=1, step_cap=200)
    assert res and len(res.derivation.steps) == 3
    assert verify(res.derivation, c, prems, goal)

    pair = merge(
        merge(builtin_calculus("B_neg"), renamed(builtin_calculus("B_neg"), {"neg": "sim"})),
        builtin_calculus("neg_pair"),
    )
    s2 = pair.signature
    res = derive(pair, [parse("neg(p)", s2)], parse("sim(p)", s2), universe_depth=1, step_cap=200)
    assert res and verify(res.derivation, pair, [parse("neg(p)", s2)], parse("sim(p)", s2))

    # the symbol is simply absent: honest bounded failure
    c_or = builtin_calculus("B_or")
    res = derive(c_or, [], parse("or(p,q)", c_or.signature), universe_depth=2, step_cap=200)
    assert isinstance(res, NotFoundAtBound)
    assert res.reason == "universe saturated"

    # a tiny step cap is reported distinctly from genuine saturation
    res = derive(c_or, [parse("p", c_or.signature)], parse("or(q,q)", c_or.signature),
                 universe_depth=1, step_cap=2)
    assert isinstance(res, NotFoundAtBound)
    assert res.reason == "step cap exhausted"

    # the goal mentions a connective the calculus does not govern: the
    # search runs with it as an opaque monolith and reports the bound
    from nmfib.syntax import Signature

    wide = Signature.of({"or": 2, "neg": 1})
    res = derive(c_or, [], parse("or(p,neg(p))", wide), universe_depth=1, step_cap=200)
    assert isinstance(res, NotFoundAtBound)


def test_derive_soundness_against_matrices():
    # every derivation in a classical-fragment calculus is matrix-valid
    cases = [
        ("B_and", standard_fragment("and"), ["p", "q"], "and(p,q)"),
        ("B_or", standard_fragment("or"), ["or(p,p)"], "p"),
        ("B_or", standard_fragment("or"), ["or(p,q)"], "or(q,p)"),
        ("B_neg", standard_fragment("neg"), ["neg(neg(p))"], "p"),
        ("B_imp", standard_fragment("imp"), ["p", "imp(p,q)"], "q"),
    ]
    for cid, frag, prems_t, goal_t in cases:
        calc = builtin_calculus(cid)
        sig = calc.signature
        prems = [parse(t, sig) for t in prems_t]
        goal = parse(goal_t, sig)
        res = derive(calc, prems, goal, universe_depth=1, step_cap=2000)
        assert res, (cid, goal_t)
        assert verify(res.derivation, calc, prems, goal)
        assert bool(entails(two_valued_matrix(frag), prems, goal))


def test_derive_monotone_in_premises_and_bounds():
    c = builtin_calculus("B_or")
    sig = c.signature
    prems = [parse("or(p,p)", sig)]
    goal = parse("p", sig)
    assert derive(c, prems, goal, 1, 100)
    assert derive(c, prems + [parse("q", sig)], goal, 1, 100)
    assert derive(c, prems, goal, 2, 4000)
    assert derive(c, prems, goal, 1, 4000)


def test_derive_renaming_invariance():
    c = builtin_calculus("B_or")
    sig = c.signature
    prems = [parse("or(a,a)", sig)]
    goal = parse("a", sig)
    assert derive(c, prems, goal, 1, 100)


def test_verify_rejects_tampering():
    c = builtin_calculus("B_and")
    sig = c.signature
    prems = [parse("p", sig), parse("q", sig)]
    goal = parse("and(p,q)", sig)
    d = derive(c, prems, goal, 1, 100).derivation
    assert audit(d, c, prems, goal) is None

    # tampered substitution
    last = d.steps[-1]
    bad_sub = Step(last.formula, RuleApp("c3", (("p", parse("q", sig)), ("q", parse("q", sig))), (0, 1)))
    assert audit(Derivation(d.steps[:-1] + (bad_sub,)), c, prems, goal) == 2

    # premise referencing a later step
    bad_ref = Step(last.formula, RuleApp("c3", last.justification.substitution, (0, 2)))
    assert audit(Derivation(d.steps[:-1] + (bad_ref,)), c, prems, goal) == 2

    # fake premise
    fake = Derivation((Step(parse("r", sig), Premise()), *d.steps[1:]))
    assert audit(fake, c, prems, goal) is not None

    assert not verify(Derivation(d.steps[:-1] + (bad_sub,)), c, prems, goal)


def test_verify_rejects_a_circular_derivation():
    # step 0 takes its premise from step -1, which Python reads as the last
    # step: q by d2 from or(q,q), and or(q,q) by d1 from q
    c = builtin_calculus("B_or")
    sig = c.signature
    q, goal = parse("q", sig), parse("or(q,q)", sig)
    d = Derivation((
        Step(q, RuleApp("d2", (("p", q),), (-1,))),
        Step(goal, RuleApp("d1", (("p", q), ("q", q)), (0,))),
    ))
    assert audit(d, c, [], goal) == 0
    assert not verify(d, c, [], goal)
    assert isinstance(derive(c, [], goal, 1, 100), NotFoundAtBound)


def test_fresh_variable_conclusion():
    # explosion instantiates its fresh conclusion variable from the universe
    c = merge(builtin_calculus("B_bot"), builtin_calculus("B_or"))
    sig = c.signature
    res = derive(c, [parse("bot", sig)], parse("or(x,y)", sig), universe_depth=1, step_cap=500)
    assert res and verify(res.derivation, c, [parse("bot", sig)], parse("or(x,y)", sig))


# (leftover, premise scans, conclusion argument, led) of every bundled rule
# with two premises, from calculus._join_plan: leftover says the conclusion
# has a variable no premise binds, a premise scan names the argument the
# premise's steps are read by, the conclusion argument says that the last
# premise is found through the universe, and led that the first premise's
# steps are led by the second's; (None, None), None, False would mean a scan
# of every step with the premise's head against every earlier match
TWO_PREMISE_PLANS = {
    ("B_and", "c3"): (False, (None, None), 0, False),
    ("B_and2", "c3"): (False, (None, None), 0, False),
    ("and_or", "ao1"): (False, (None, None), 0, False),
    ("B_imp", "i4"): (False, (None, 0), None, True),
    ("B_iff", "e2"): (False, (None, 0), None, True),
    ("B_neg", "n3"): (True, (None, 0), None, True),
    ("B_sim", "n3"): (True, (None, 0), None, True),
    ("or_neg", "on4"): (False, (None, 0), None, False),
}


def test_two_premise_rules_join_through_an_index():
    plans = {
        (cid, r.name): _join_plan(r)
        for cid in BUILTIN_IDS
        for r in builtin_calculus(cid).rules
        if len(r.premises) >= 2
    }
    assert plans == TWO_PREMISE_PLANS


def test_c3_join_is_driven_by_the_universe():
    # the slowest op of the derive benchmark (derive.d2#150): 0.3 s when c3
    # matched every pair of steps
    c = merge(merge(builtin_calculus("B_or"), builtin_calculus("B_and")), builtin_calculus("and_or"))
    sig = c.signature
    prems = [parse("and(and(p,p),and(p,p))", sig), parse("p", sig)]
    goal = parse("and(and(p,p),p)", sig)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        res = derive(c, prems, goal, universe_depth=2)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1
    assert res and verify(res.derivation, c, prems, goal)


def test_derive_from_a_deep_premise():
    # neg^2400(p) |- p by 1200 double-negation eliminations: the universe's
    # depths and the trimming of the derivation walk without recursion, and
    # n3 (p, neg(p) / q) must visit only the steps new second premises point
    # at: a scan of every step in each of the 1200 rounds is quadratic
    c = builtin_calculus("B_neg")
    p = var("p")
    phi = p
    for _ in range(2400):
        phi = app("neg", (phi,))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        res = derive(c, [phi], p, universe_depth=0)
        best = min(best, time.perf_counter() - start)
    assert best < 0.2
    assert isinstance(res, Derived)
    assert len(res.derivation.steps) == 1201
    assert verify(res.derivation, c, [phi], p)


def test_derive_along_a_modus_ponens_chain():
    # p0, imp(p0,p1), ..., imp(p999,p1000) |- p1000 under B_imp at universe
    # depth 0.  i4 (p, imp(p,q) / q) reads its second premise from the steps
    # indexed by their first argument; a scan of every imp step per first
    # premise is quadratic (0.38 s against 0.04 s)
    c = builtin_calculus("B_imp")
    ps = [var(f"p{i}") for i in range(1001)]
    prems = [ps[0]] + [app("imp", (a, b)) for a, b in zip(ps, ps[1:])]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        res = derive(c, prems, ps[-1], universe_depth=0)
        best = min(best, time.perf_counter() - start)
    assert best < 0.15
    assert isinstance(res, Derived) and len(res.derivation.steps) == 2001
    assert verify(res.derivation, c, prems, ps[-1])


def test_derive_from_a_deep_conjunction_at_depth_0():
    # W11: and(...and(and(p,q),q)...,q) |- p under B_and at universe depth
    # 0.  c3 (p, q / and(p,q)) finds its last premise through the
    # conclusion; the base members with the bound first argument are read
    # from an index, not found by matching every base member per match
    c = builtin_calculus("B_and")
    p, q = var("p"), var("q")
    phi = app("and", (p, q))
    for _ in range(299):
        phi = app("and", (phi, q))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        res = derive(c, [phi], p, universe_depth=0)
        best = min(best, time.perf_counter() - start)
    assert best < 0.5
    assert isinstance(res, Derived) and len(res.derivation.steps) == 301
    assert verify(res.derivation, c, [phi], p)


# d1 (p / or(p,q)) and n3 (p, neg(p) / q) take their free conclusion
# variable from the universe members in (depth, text) order, so that order
# decides which conclusions the step cap lets in, and which derivation
# comes out
@pytest.mark.parametrize(
    "cid, premises, goal, cap, lines",
    [
        ("B_or", ["q"], "or(q,r)", 2, None),
        ("B_neg", ["neg(p)", "p"], "neg(q)", 5, None),
        (
            "B_or",
            ["r"],
            "or(or(q,p),or(r,p))",
            21,
            ["0. r  [premise]", "1. or(r,p)  [d1 0]", "2. or(or(r,p),or(q,p))  [d1 1]", "3. or(or(q,p),or(r,p))  [d3 2]"],
        ),
    ],
)
def test_leftover_candidates_come_in_depth_text_order(cid, premises, goal, cap, lines):
    c = builtin_calculus(cid)
    sig = c.signature
    res = derive(c, [parse(t, sig) for t in premises], parse(goal, sig), universe_depth=1, step_cap=cap)
    if lines is None:
        assert res == NotFoundAtBound("step cap exhausted", 1, cap)
    else:
        assert res.derivation.lines() == lines
