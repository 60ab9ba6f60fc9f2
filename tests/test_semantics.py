import itertools
import random
import time

import pytest

from nmfib.boolfun import BooleanFunction, FragmentSpec, standard_fragment
from nmfib.calculus import Rule, builtin_calculus
from nmfib import semantics
from nmfib.matrixops import power, strict_product
from nmfib.semantics import (
    Fails,
    Holds,
    MatrixError,
    Nmatrix,
    PartialValuation,
    bounded_saturation_check,
    dump_system,
    entails,
    enumerate_partial_valuations,
    filter_valuations_by_rules,
    load_system,
    logically_equivalent,
    respects_rule,
    two_valued_matrix,
)
from nmfib.syntax import App, Formula, Signature, app, canon_key, canon_sort, parse, subformula_closure, var
from nmfib.fibring import catalog_fragments, fibred_semantics, three_valued_negation_matrix
from test_syntax import bundled_formulas, random_dag

OR = standard_fragment("or")
NEG = standard_fragment("neg")
M_OR = two_valued_matrix(OR)
M_NEG = two_valued_matrix(NEG)


def fsig(*names, **kw):
    return Signature.of(dict(kw))


def test_matrix_validation():
    sig = Signature.of({"neg": 1})
    with pytest.raises(MatrixError):
        Nmatrix(sig, ("0", "1"), ("1",), {"neg": {("0",): ("1",)}})  # missing cell
    with pytest.raises(MatrixError):
        Nmatrix(sig, ("0", "1"), ("1",), {"neg": {("0",): (), ("1",): ("0",)}})  # empty cell
    with pytest.raises(MatrixError):
        Nmatrix(sig, ("0", "1"), ("0", "1"), {"neg": {("0",): ("1",), ("1",): ("0",)}})
    m = Nmatrix(
        sig, ("0", "1"), ("0", "1"), {"neg": {("0",): ("1",), ("1",): ("0",)}},
        allow_degenerate=True,
    )
    assert m.deterministic() and m.designated == {"0", "1"}


def test_enumeration_counts():
    p, np_ = parse("p", NEG.signature), parse("neg(p)", NEG.signature)
    vals = list(enumerate_partial_valuations(M_NEG, [p, np_]))
    assert len(vals) == 2
    assert [(v.value(p), v.value(np_)) for v in vals] == [("0", "1"), ("1", "0")]

    unrest = Nmatrix(Signature.of({"c": 1}), ("0", "1"), ("1",), {"c": {("0",): ("0", "1"), ("1",): ("0", "1")}})
    q = parse("p", unrest.signature)
    cq = parse("c(p)", unrest.signature)
    assert len(list(enumerate_partial_valuations(unrest, [q, cq]))) == 4

    m3bot = strict_product(three_valued_negation_matrix("neg"), two_valued_matrix(standard_fragment("bot")))
    sig = m3bot.signature
    bot, nbot = parse("bot", sig), parse("neg(bot)", sig)
    vals = list(enumerate_partial_valuations(m3bot, [bot, nbot]))
    # two choices for the falsum, each forcing its negation
    assert [(v.value(bot), v.value(nbot)) for v in vals] == [
        ("(0,0)", "(1,1)"),
        ("(1/2,0)", "(1/2,0)"),
    ]


def test_enumeration_requires_closed_domain():
    with pytest.raises(MatrixError):
        list(enumerate_partial_valuations(M_NEG, [parse("neg(p)", NEG.signature)]))


def test_deterministic_enumeration_size_is_power():
    sig = OR.signature
    gamma = subformula_closure([parse("or(p,or(q,r))", sig)])
    n_vars = 3
    assert len(list(enumerate_partial_valuations(M_OR, gamma))) == 2 ** n_vars


def test_entails_examples():
    sig = OR.signature
    verdict = entails(M_OR, [parse("or(p,q)", sig)], parse("p", sig))
    assert isinstance(verdict, Fails)
    cm = verdict.countermodel
    assert cm.value(parse("p", sig)) == "0" and cm.value(parse("q", sig)) == "1"
    assert cm.check()

    phi = parse("or(p,q)", sig)
    assert isinstance(entails(M_OR, [phi], phi), Holds)

    m5 = strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))
    s5 = m5.signature
    v5 = entails(m5, [parse("neg(p)", s5)], parse("sim(p)", s5))
    assert isinstance(v5, Fails) and v5.countermodel.check()


def test_entails_rejects_foreign_formulas():
    with pytest.raises(MatrixError):
        entails(M_OR, [], parse("neg(p)", NEG.signature))


def test_entails_on_deep_formulas():
    # the well-formedness check, subformula walk and assignment order use
    # explicit stacks, so nesting far past the interpreter's recursion limit
    # is decided; neg is an involution, so even depth holds and odd fails
    p = var("p")
    chain = p
    for _ in range(2000):
        chain = app("neg", [chain])
    assert isinstance(entails(M_NEG, [p], chain), Holds)
    verdict = entails(M_NEG, [p], app("neg", [chain]))
    assert isinstance(verdict, Fails)
    assert verdict.countermodel.check()
    assert len(verdict.countermodel.assignment) == 2002



class Searched(Exception):
    """Raised by a stand-in for the valuation search."""


def test_entails_asks_the_split_certificate_before_searching(monkeypatch):
    searches = []

    def search(*args, **kwargs):
        searches.append(args)
        raise Searched

    monkeypatch.setattr(semantics, "_search", search)
    # W3 at n = 3: the certificate proves it, so nothing is searched
    m = fibred_semantics(*catalog_fragments("two_disj"), 3)
    premise = parse("or(p,or(q,r))", m.signature)
    assert isinstance(entails(m, [premise], parse("or(or(r,q),p)", m.signature)), Holds)
    assert searches == []
    # a failing sequent is searched once, for its first countermodel
    with pytest.raises(Searched):
        entails(m, [parse("or(p,q)", m.signature)], parse("or2(p,q)", m.signature))
    assert len(searches) == 1
    # a matrix that is no recorded product has no certificate
    p, q = var("p"), var("q")
    assert not semantics._split_holds(M_OR, [p], [p], p)
    assert not semantics._split_holds(M_OR, [p, q, app("or", (p, q))], [p], app("or", (p, q)))


def _or_chain(formulas):
    chain = formulas[-1]
    for phi in reversed(formulas[:-1]):
        chain = app("or", (phi, chain))
    return chain


def test_w9_holds_quickly():
    # or(or2(p1,p1),or(...,or2(p9,p9))) |- the same chain reversed, in the
    # or/or2 product at power 3: the certificate's intersection closure is
    # quadratic in an exponential number of designation sets
    m = fibred_semantics(*catalog_fragments("two_disj"), 3)
    atoms = [app("or2", (var(f"p{i}"), var(f"p{i}"))) for i in range(1, 10)]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        verdict = entails(m, [_or_chain(atoms)], _or_chain(atoms[::-1]))
        best = min(best, time.perf_counter() - start)
    assert isinstance(verdict, Holds)
    assert best < 0.5

def test_logical_equivalence():
    AND = standard_fragment("and", "and2", rename={"and2": "and"})
    m = two_valued_matrix(AND)
    sig = AND.signature
    assert logically_equivalent(m, [parse("and(p,q)", sig)], [parse("and(q,p)", sig)])
    phi = parse("and(p,q)", sig)
    assert logically_equivalent(m, [phi], [phi])
    # distinct disjunction copies do not collapse in the power-2 product
    m2 = strict_product(
        power(two_valued_matrix(standard_fragment("or")), 2),
        power(two_valued_matrix(standard_fragment("or2", rename={"or2": "or"})), 2),
    )
    s2 = m2.signature
    assert not logically_equivalent(m2, [parse("or(p,q)", s2)], [parse("or2(p,q)", s2)])


def test_entails_monotone_and_renaming_invariant():
    rng = random.Random(3)
    sig = OR.signature
    pool = [parse(t, sig) for t in ("p", "q", "or(p,q)", "or(q,p)", "or(p,p)", "or(or(p,q),q)")]
    for _ in range(40):
        gamma = rng.sample(pool, rng.randrange(0, 3))
        extra = rng.sample(pool, rng.randrange(0, 2))
        phi = rng.choice(pool)
        if bool(entails(M_OR, gamma, phi)):
            assert bool(entails(M_OR, gamma + extra, phi))
        # bijective renaming
        ren = {"p": var("q"), "q": var("p")}
        from nmfib.syntax import apply_substitution

        gamma_r = [apply_substitution(ren, g) for g in gamma]
        phi_r = apply_substitution(ren, phi)
        assert bool(entails(M_OR, gamma, phi)) == bool(entails(M_OR, gamma_r, phi_r))


def _or_formulas():
    from hypothesis import strategies as st

    leaves = st.sampled_from([var("p"), var("q"), var("r")])
    return st.recursive(
        leaves, lambda kids: st.tuples(kids, kids).map(lambda ab: app("or", ab)), max_leaves=8
    )


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.lists(_or_formulas(), max_size=2), _or_formulas())
def test_countermodels_reverify(gamma, phi):
    verdict = entails(M_OR, gamma, phi)
    if isinstance(verdict, Fails):
        cm = verdict.countermodel
        assert cm.check()
        assert all(cm.designates(g) for g in gamma)
        assert not cm.designates(phi)


def test_extension_property_by_reenumeration():
    # every partial valuation on a closed set extends to any closed superset
    m5 = strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))
    sig = m5.signature
    small = subformula_closure([parse("neg(p)", sig)])
    big = subformula_closure([parse("sim(neg(p))", sig), parse("neg(neg(p))", sig)])
    small_vals = list(enumerate_partial_valuations(m5, small))
    big_vals = list(enumerate_partial_valuations(m5, big))
    for v in small_vals:
        restriction_hits = [
            w for w in big_vals if all(w.value(phi) == v.value(phi) for phi in small)
        ]
        assert restriction_hits, f"no extension for {v.assignment}"


def test_respects_rule_examples():
    # squared negation against a free falsum; v(bot)=(0,0) respects |- neg bot
    squared = strict_product(
        power(two_valued_matrix(standard_fragment("neg")), 2),
        two_valued_matrix(standard_fragment("bot")),
    )
    sig = squared.signature
    bot, nbot = parse("bot", sig), parse("neg(bot)", sig)
    universe = [bot, nbot]
    axiom = builtin_calculus("neg_bot").rules[0]
    good = PartialValuation.of(squared, {bot: "((0,0),0)", nbot: "((1,1),1)"})
    assert good.check()
    assert respects_rule(good, axiom, universe)
    bad = PartialValuation.of(squared, {bot: "((0,1),0)", nbot: "((1,0),0)"})
    assert bad.check()
    assert not respects_rule(bad, axiom, universe)

    # premise designated, conclusion not: explosion rule violated
    mbot = two_valued_matrix(FragmentSpec.of({"bt": BooleanFunction.from_string("1", 0)}))
    sigb = mbot.signature
    btf = parse("bt", sigb)
    q = parse("q", sigb)
    expl = Rule.of("x", [parse("bt", sigb)], parse("p", sigb))
    v = PartialValuation.of(mbot, {btf: "1", q: "0"})
    assert not respects_rule(v, expl, [btf, q])
    # no rules at all: trivially respected
    assert respects_rule(v, Rule.of("t", [parse("p", sigb)], parse("p", sigb)), [])


def test_filter_valuations_by_rules():
    m5 = strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))
    sig = m5.signature
    np_, sp = parse("neg(p)", sig), parse("sim(p)", sig)
    pair = builtin_calculus("neg_pair")
    unfiltered = entails(m5, [np_], sp)
    assert isinstance(unfiltered, Fails)
    filtered = filter_valuations_by_rules(m5, pair.rules, [np_], sp)
    assert bool(filtered) and filtered.exactness == "exact"
    # no rules: same verdict as plain entailment
    same = filter_valuations_by_rules(m5, [], [np_], sp)
    assert bool(same) == bool(unfiltered)
    # non-axiom rules on a matrix not marked saturated are tagged heuristic
    unmarked = Nmatrix(sig, m5.values, m5.designated, m5.full_interp())
    tagged = filter_valuations_by_rules(unmarked, pair.rules, [np_], sp)
    assert bool(tagged) and tagged.exactness == "heuristic"


def test_bounded_saturation_examples():
    sig = OR.signature
    found = bounded_saturation_check(
        M_OR, 2, [parse("or(p,q)", sig)], [parse("p", sig), parse("q", sig)]
    )
    assert found
    assert set(found.delta) == {parse("p", sig), parse("q", sig)}

    COIMP = standard_fragment("coimp")
    mc = two_valued_matrix(COIMP)
    sc = COIMP.signature
    # premise p, pool {p-but-not-q, q}; written with the converse-reading table
    found = bounded_saturation_check(
        mc, 2, [parse("p", sc)], [parse("coimp(q,p)", sc), parse("q", sc)]
    )
    assert found

    AND = standard_fragment("and")
    ma = two_valued_matrix(AND)
    sa = AND.signature
    pool = [parse(t, sa) for t in ("p", "q", "and(p,q)", "and(q,p)", "and(p,and(p,q))")]
    assert not bounded_saturation_check(ma, 3, pool[2:3], pool[:2] + pool[3:])

    # no theory refutes both p and neg(p): the empty premise set suffices
    sn = NEG.signature
    found = bounded_saturation_check(M_NEG, 2, [], [parse("p", sn), parse("neg(p)", sn)])
    assert found and found.gamma == ()


def test_system_file_round_trip():
    m5 = strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))
    blob = dump_system(m5)
    back = load_system(blob)
    assert back.values == m5.values
    assert back.designated == m5.designated
    assert back.interp == m5.interp
    bad = dict(blob)
    bad["designated"] = []
    with pytest.raises(MatrixError):
        load_system(bad)
    load_system(bad, allow_degenerate=True)


def _brute_force_count(matrix, domain):
    """Assignments of matrix values to the domain that respect every cell."""
    count = 0
    for values in itertools.product(matrix.values, repeat=len(domain)):
        v = dict(zip(domain, values))
        if all(v[phi] in matrix.cell(phi.head, tuple(v[a] for a in phi.args)) for phi in domain if isinstance(phi, App)):
            count += 1
    return count


@pytest.mark.parametrize(
    "build, formulas",
    [
        (
            lambda: strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim")),
            ["neg(sim(p))", "sim(p)", "neg(q)"],
        ),
        (lambda: fibred_semantics(*catalog_fragments("disj_neg"), 2), ["or(p,neg(p))", "neg(q)"]),
        (lambda: fibred_semantics(*catalog_fragments("two_disj"), 4), ["or2(p,p)"]),
    ],
    ids=["m3_neg*m3_sim", "disj_neg^2", "two_disj^4"],
)
def test_enumeration_on_products_lists_every_valuation(build, formulas):
    # the first-solution pruning of the search must never reach the
    # enumeration: on a product it would merge valuations that differ only
    # in an unread coordinate
    m = build()
    assert m.factors is not None
    domain = subformula_closure([parse(t, m.signature) for t in formulas])
    listed = [v.assignment for v in enumerate_partial_valuations(m, domain)]
    assert len(set(listed)) == len(listed) == _brute_force_count(m, domain)


def reference_assignment_order(domain, favored):
    """_assignment_order's explicit-stack loop as it stood before postorder."""
    domain_set = set(domain)
    emitted: list[Formula] = []
    seen: set[Formula] = set()

    def below(phi):
        if isinstance(phi, App):
            return (a for a in sorted(phi.args, key=canon_key) if a in domain_set)
        return iter(())

    for root in itertools.chain((phi for phi in favored if phi in domain_set), canon_sort(domain)):
        if root in seen:
            continue
        stack = [(root, below(root))]
        while stack:
            phi, pending = stack[-1]
            for a in pending:
                if a not in seen:
                    stack.append((a, below(a)))
                    break
            else:
                stack.pop()
                seen.add(phi)
                emitted.append(phi)
    return emitted


def test_assignment_order_agrees_with_reference_loop():
    rng = random.Random(30)
    bundled = bundled_formulas()
    sets = [bundled[i : i + 3] for i in range(0, len(bundled), 3)]
    sets += [random_dag(rng, f"a{trial}_", max_depth=60) for trial in range(60)]
    for phis in sets:
        domain = subformula_closure(phis)
        for favored in ([], canon_sort(phis), canon_sort(rng.sample(domain, min(len(domain), 4)) + [var("outside")])):
            # a domain missing some arguments: they are not walked
            for part in (domain, [phi for phi in domain if rng.random() < 0.7]):
                assert semantics._assignment_order(part, favored) == reference_assignment_order(part, favored)
