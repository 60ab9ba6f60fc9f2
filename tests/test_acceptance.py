"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance here is exact (these are discrete certificates): tables must
match bit for bit, verdicts must match the expected catalog outcome, and
every countermodel or derivation must re-verify independently.
"""

import random

from nmfib.boolfun import (
    BooleanFunction,
    FragmentSpec,
    classify,
    functionally_complete,
    inside,
    standard_fragment,
    standard_function,
    threshold_function,
)
from nmfib.calculus import builtin_calculus, derive, merge, renamed, verify
from nmfib.fibring import (
    CATALOG_IDS,
    Classical,
    Subclassical,
    _random_sequent,
    catalog_fragments,
    decide_recovery,
    fibred_semantics,
    k_determinedness_probe,
    phi_t_family,
    reproduce,
    standard_saturation_pools,
    three_valued_negation_matrix,
    truth_preserving_bot_matrix,
)
from nmfib.matrixops import restrict_values, strict_product
from nmfib.semantics import (
    Fails,
    Holds,
    PartialValuation,
    bounded_saturation_check,
    entails,
    enumerate_partial_valuations,
    filter_valuations_by_rules,
    respects_rule,
    two_valued_matrix,
)
from nmfib.syntax import parse, subformula_closure, text
from test_clone_reference import reference_closure


def report(n, message):
    print(f"[acceptance] criterion {n:2d}: PASS - {message}")


def test_criterion_01_truth_tables():
    transcribed = {
        "top": "1",
        "bot": "0",
        "neg": "10",
        "and": "0001",
        "or": "0111",
        "imp": "1101",
        "coimp": "0100",
        "iff": "1001",
        "xor": "0110",
        "xor3": "01101001",
        "if3": "01010011",
    }
    for name, bits in transcribed.items():
        assert standard_function(name).to_string() == bits, name
    for k in range(0, 5):
        for n in range(0, k + 1):
            f = threshold_function(k, n)
            for row in range(1 << k):
                want = 1 if bin(row).count("1") >= n else 0
                assert f.on_row(row) == want, (k, n, row)
    report(1, "all primitive, derived, and threshold tables match the transcribed bits")


def test_criterion_02_two_conjunctions_collapse():
    f1, f2 = catalog_fragments("two_conj")
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    a, b = parse("and(p,q)", sig), parse("and2(p,q)", sig)
    assert bool(entails(product, [a], b)) and bool(entails(product, [b], a))
    verdict = decide_recovery(f1, f2)
    assert isinstance(verdict, Classical) and verdict.condition == "b"
    report(2, "p and q =||= p and2 q in the product; decide_recovery = Classical(b)")


def test_criterion_03_two_negations():
    product = strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))
    sig = product.signature
    h = "1/2"
    expected = {
        ("neg", "(0,0)"): {"(1,1)"},
        ("neg", f"(0,{h})"): {"(1,1)"},
        ("neg", f"({h},0)"): {f"({h},0)", f"({h},{h})"},
        ("neg", f"({h},{h})"): {f"({h},0)", f"({h},{h})"},
        ("neg", "(1,1)"): {"(0,0)", f"(0,{h})"},
        ("sim", "(0,0)"): {"(1,1)"},
        ("sim", f"(0,{h})"): {f"(0,{h})", f"({h},{h})"},
        ("sim", f"({h},0)"): {"(1,1)"},
        ("sim", f"({h},{h})"): {f"(0,{h})", f"({h},{h})"},
        ("sim", "(1,1)"): {"(0,0)", f"({h},0)"},
    }
    assert len(product.values) == 5
    for (conn, val), want in expected.items():
        assert set(product.cell(conn, (val,))) == want, (conn, val)

    np_, sp = parse("neg(p)", sig), parse("sim(p)", sig)
    verdict = entails(product, [np_], sp)
    assert isinstance(verdict, Fails) and verdict.countermodel.check()

    pair = builtin_calculus("neg_pair")
    domain = subformula_closure(
        [parse(t, sig) for t in ("neg(neg(p))", "neg(sim(p))", "sim(neg(p))", "sim(sim(p))")]
    )
    inner = [parse(t, sig) for t in ("p", "neg(p)", "sim(p)")]
    survivors = [
        v
        for v in enumerate_partial_valuations(product, domain)
        if all(respects_rule(v, r, domain) for r in pair.rules)
    ]
    bad = {f"(0,{h})", f"({h},0)"}
    assert survivors
    assert all(v.value(phi) not in bad for v in survivors for phi in inner)
    used = {v.value(phi) for v in survivors for phi in inner}
    assert used == {"(0,0)", f"({h},{h})", "(1,1)"}
    purged = restrict_values(product, {"(0,0)", f"({h},{h})", "(1,1)"})
    assert purged.deterministic()

    filtered = filter_valuations_by_rules(product, pair.rules, [np_], sp)
    assert bool(filtered)
    report(3, "5-valued tables match; neg p fails to give sim p; the rules purge exactly the two mixed values and validate it")


def test_criterion_04_negation_and_bottom():
    f_neg, f_bot = catalog_fragments("neg_bot")
    product = strict_product(three_valued_negation_matrix("neg"), two_valued_matrix(f_bot))
    sig = product.signature
    h = "1/2"
    assert len(product.values) == 3
    assert set(product.cell("bot", ())) == {"(0,0)", f"({h},0)"}
    goal = parse("neg(bot)", sig)
    verdict = entails(product, [], goal)
    assert isinstance(verdict, Fails)
    assert verdict.countermodel.value(parse("bot", sig)) == f"({h},0)"
    assert verdict.countermodel.check()
    assert isinstance(entails(product, [goal], goal), Holds)
    report(4, "3-valued matrix with the free falsum; neg bot underivable yet self-entailing")


def test_criterion_05_implication_and_bottom():
    f_imp, f_bot = catalog_fragments("imp_bot")
    m4 = truth_preserving_bot_matrix(f_imp, "bot")
    printed = {
        "(0,0)": ["(1,1)", "(1,1)", "(1,1)", "(1,1)"],
        "(0,1)": ["(1,0)", "(1,1)", "(1,0)", "(1,1)"],
        "(1,0)": ["(0,1)", "(0,1)", "(1,1)", "(1,1)"],
        "(1,1)": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
    }
    cols = ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    for row, outs in printed.items():
        for col, want in zip(cols, outs):
            assert m4.cell("imp", (row, col)) == (want,), (row, col)
    assert m4.cell("bot", ()) == ("(1,0)",)

    sig = m4.signature
    goal = parse("imp(bot,p)", sig)
    assert isinstance(entails(m4, [], goal), Fails)

    axiom = builtin_calculus("imp_bot")
    classical = two_valued_matrix(f_imp.union(f_bot))
    rng = random.Random(17)
    for _ in range(100):
        gamma, phi = _random_sequent(rng, sig, depth=3, n_vars=3)
        lhs = bool(filter_valuations_by_rules(m4, axiom.rules, gamma, phi))
        rhs = bool(entails(classical, gamma, phi))
        assert lhs == rhs, ([text(g) for g in gamma], text(phi))
    report(5, "the 4-valued matrix matches the printed table; bot->p fails; axiom filtering matches classical on 100 sequents")


def test_criterion_06_recovery_catalog():
    expected = [
        ("coimp_top", "a"),
        ("two_conj", "b"),
        ("and_top2bot2", "b"),
        ("biimp_bot", "c"),
        ("xor3_bot", "c"),
        ("two_disj", "sub"),
        ("two_neg", "sub"),
        ("conj_disj", "sub"),
        ("disj_neg", "sub"),
        ("neg_bot", "sub"),
        ("coimp_bot", "sub"),
        ("biimp_bot1", "sub"),
        ("xor3_two_bots", "sub"),
    ]
    extra = {
        "and_top2bot2": (
            standard_fragment("and"),
            FragmentSpec.of(
                {"top2": standard_function("top"), "bot2": standard_function("bot")}
            ),
        ),
        "xor3_bot": (standard_fragment("xor3"), standard_fragment("bot")),
    }
    agreed = 0
    for cid, want in expected:
        f1, f2 = extra[cid] if cid in extra else catalog_fragments(cid)
        verdict = decide_recovery(f1, f2)
        if want == "sub":
            assert isinstance(verdict, Subclassical), cid
            assert verdict.countermodel.check(), cid
            union = f1.union(f2)
            assert bool(
                entails(two_valued_matrix(union), list(verdict.witness.premises), verdict.witness.conclusion)
            ), cid
            refuted = entails(
                fibred_semantics(f1, f2, verdict.power_used),
                list(verdict.witness.premises),
                verdict.witness.conclusion,
            )
            assert isinstance(refuted, Fails), cid
        else:
            assert isinstance(verdict, Classical) and verdict.condition == want, (cid, verdict)
        agreed += 1
    assert agreed == 13
    report(6, "13/13 recovery verdicts agree, every subclassical one with a re-verified countermodel")


def test_criterion_07_bottom_witness_valuations():
    bow = BooleanFunction.from_string("00000111", 3)
    cases = [
        ("or", standard_function("or"), "or(bot,p)", "p",
         {"bot": "((0,1),0)", "p": "((1,0),0)", "or(bot,p)": "((1,1),1)"}),
        ("thr_3_2", standard_function("thr_3_2"), "thr_3_2(bot,p,q)", "p",
         {"bot": "((0,1),0)", "p": "((1,0),0)", "q": "((1,1),1)", "thr_3_2(bot,p,q)": "((1,1),1)"}),
        ("neg", standard_function("neg"), None, "neg(bot)",
         {"bot": "((0,1),0)", "neg(bot)": "((1,0),0)"}),
        ("xor", standard_function("xor"), "xor(bot,p)", "p",
         {"bot": "((0,1),0)", "p": "((1,0),0)", "xor(bot,p)": "((1,1),1)"}),
        ("bowtie", bow, "bowtie(p,bot,q)", "q",
         {"bot": "((0,1),0)", "p": "((1,1),1)", "q": "((1,0),0)", "bowtie(p,bot,q)": "((1,1),1)"}),
    ]
    f_bot = standard_fragment("bot")
    for name, fn, prem_t, concl_t, valuation in cases:
        frag = FragmentSpec.of({name: fn})
        product = fibred_semantics(frag, f_bot, 2)
        sig = product.signature
        prems = [parse(prem_t, sig)] if prem_t else []
        concl = parse(concl_t, sig)
        # classically valid
        assert bool(entails(two_valued_matrix(frag.union(f_bot)), prems, concl)), name
        # the worked valuation is a genuine refuting partial valuation
        assignment = {parse(k, sig): v for k, v in valuation.items()}
        cm = PartialValuation.of(product, assignment)
        assert cm.check(), name
        assert all(cm.designates(g) for g in prems), name
        assert not cm.designates(concl), name
        assert isinstance(entails(product, prems, concl), Fails), name
    report(7, "all five bottom-interaction sequents classically valid and refuted with the worked valuations")


def test_criterion_08_functional_completeness():
    assert functionally_complete(standard_fragment("or", "neg"))
    assert functionally_complete(standard_fragment("coimp", "top"))
    frag = standard_fragment("and", "or", "top", "bot")
    assert not functionally_complete(frag) and inside(frag.tables(), "M")
    frag = standard_fragment("iff", "bot")
    assert not functionally_complete(frag) and inside(frag.tables(), "L")
    report(8, "or+neg and coimp+top complete; and/or/top/bot stuck in M; iff+bot stuck in L")


def test_criterion_09_clone_criteria_vs_closure():
    # each recovery condition names irreducible clones; the brute-force
    # closure of the clone's generators is the oracle
    gens = {
        ("P1", "N", "M"): [standard_function("top")],
        ("E",): [standard_function("and"), standard_function("top"), standard_function("bot")],
        ("P1", "L"): [standard_function("iff")],
    }
    mismatches = 0
    for k in (1, 2):
        for clones, g in gens.items():
            closure = reference_closure(g, k)
            for bits in range(1 << (1 << k)):
                f = BooleanFunction(k, bits)
                if inside([f], *clones) != (f in closure):
                    mismatches += 1
    rng = random.Random(23)
    closures3 = {clones: reference_closure(g, 3) for clones, g in gens.items()}
    for _ in range(500):
        f = BooleanFunction(3, rng.randrange(1 << 8))
        for clones, closure in closures3.items():
            if inside([f], *clones) != (f in closure):
                mismatches += 1
    assert mismatches == 0
    report(9, "irreducible-clone membership agrees with brute-force closure (exhaustive <=2, 500 random ternary)")


def test_criterion_10_saturation_iff_very_significant():
    for k in (1, 2):
        for bits in range(1 << (1 << k)):
            f = BooleanFunction(k, bits)
            matrix = two_valued_matrix(FragmentSpec.of({"c": f}))
            gamma_pool, delta_pool = standard_saturation_pools("c", f)
            found = bool(bounded_saturation_check(matrix, 5, gamma_pool, delta_pool))
            assert found == classify(f).very_significant, (k, f.to_string())
    report(10, "bounded saturation search refutes exactly the very significant 1- and 2-place connectives")


def test_criterion_11_hilbert_engine():
    cases = [
        (
            builtin_calculus("B_and"),
            standard_fragment("and"),
            ["p", "q"],
            "and(p,q)",
        ),
        (
            merge(
                merge(builtin_calculus("B_neg"), renamed(builtin_calculus("B_neg"), {"neg": "sim"})),
                builtin_calculus("neg_pair"),
            ),
            standard_fragment("neg", "sim", rename={"sim": "neg"}),
            ["neg(p)"],
            "sim(p)",
        ),
        (
            merge(
                merge(builtin_calculus("B_or"), builtin_calculus("B_and")),
                builtin_calculus("and_or"),
            ),
            standard_fragment("or", "and"),
            ["or(p,and(q,r))"],
            "and(or(p,q),or(p,r))",
        ),
    ]
    for calc, frag, prems_t, goal_t in cases:
        sig = calc.signature
        prems = [parse(t, sig) for t in prems_t]
        goal = parse(goal_t, sig)
        found = derive(calc, prems, goal, universe_depth=1, step_cap=2000)
        assert found, goal_t
        assert verify(found.derivation, calc, prems, goal), goal_t
        assert bool(entails(two_valued_matrix(frag), prems, goal)), goal_t
    report(11, "all three derivations found, re-verified, and confirmed by the matching two-valued matrix")


def test_criterion_12_k_determinedness():
    from nmfib.fibring import auto_calculus
    from nmfib.syntax import apply_substitution, var, variables

    f_or, f_or2 = catalog_fragments("two_disj")
    probe = k_determinedness_probe(f_or, f_or2, 1, n=3)
    assert probe and probe.power_used == 3
    assert probe.countermodel.check()

    # the unique substitution into {p1} really is Hilbert-derivable
    names = sorted({v.name for g in (*probe.gamma, probe.phi) for v in variables(g)})
    sigma = {name: var("p1") for name in names}
    gamma_s = [apply_substitution(sigma, g) for g in probe.gamma]
    phi_s = apply_substitution(sigma, probe.phi)
    calc = merge(auto_calculus(f_or), auto_calculus(f_or2))
    found = derive(calc, gamma_s, phi_s, universe_depth=1, step_cap=2000)
    assert found and verify(found.derivation, calc, gamma_s, phi_s)

    f_iff, f_bot1 = catalog_fragments("biimp_bot1")
    probe2 = k_determinedness_probe(f_iff, f_bot1, 1, n=2)
    assert probe2 and probe2.countermodel.check()
    report(12, "both generator families certify non-1-determinedness (disjunction pair at power 3, iff with unary falsum)")


def test_criterion_13_phi_t_family():
    phis = phi_t_family(("or", standard_function("or")), ("or2", standard_function("or")), 2, n=3)
    assert len(phis) == 3
    report(13, "phi_0, phi_1, phi_2 pairwise non-equivalent at power 3")


def test_catalog_reproductions_pass():
    for cid in CATALOG_IDS:
        rep = reproduce(cid)
        assert rep.passed, "\n".join(rep.lines())
    print(f"[acceptance] catalog: PASS - all {len(CATALOG_IDS)} worked examples reproduce")
