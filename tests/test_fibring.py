import hashlib
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from nmfib.boolfun import (
    BooleanFunction,
    FragmentSpec,
    clone_closure_at_arity,
    functionally_complete,
    standard_fragment,
    standard_function,
)
from nmfib import bundled
from nmfib.calculus import BUILTIN_IDS, builtin_calculus, load_calculus
from nmfib.fibring import (
    CATALOG_IDS,
    Classical,
    FcOutcome,
    No,
    Subclassical,
    Unknown,
    WitnessNotFound,
    Yes,
    auto_calculus,
    catalog_fragments,
    certify_entailment,
    decide_fc_recovery,
    decide_recovery,
    fibred_semantics,
    k_determinedness_probe,
    phi_t_family,
    reproduce,
    subclassical_witness,
    three_valued_negation_matrix,
    truth_preserving_bot_matrix,
    _random_sequent,
)
from nmfib.matrixops import matrices_equal, strict_product
from nmfib.semantics import Fails, MatrixError, entails, load_system, two_valued_matrix
from nmfib.boolfun import load_fragment
from nmfib.syntax import app, parse, text, var
from test_clone_reference import reference_closure

SYSTEMS = Path(__file__).resolve().parents[1] / "src" / "nmfib" / "systems"


def test_fibred_semantics_examples():
    f_and, f_and2 = catalog_fragments("two_conj")
    assert len(fibred_semantics(f_and, f_and2, 3).values) == 2  # both saturated

    f_imp, f_bot = catalog_fragments("imp_bot")
    m4 = fibred_semantics(f_imp, f_bot, 2)
    assert len(m4.values) == 4  # implication squared, falsum at power 1

    with pytest.raises(MatrixError):
        fibred_semantics(f_imp, f_imp, 2)


def test_truth_preserving_bot_matrix():
    m4 = truth_preserving_bot_matrix(standard_fragment("imp"))
    assert m4.deterministic()
    assert m4.cell("bot", ()) == ("(1,0)",)
    assert m4.cell("imp", ("(1,0)", "(0,0)")) == ("(0,1)",)
    m4a = truth_preserving_bot_matrix(standard_fragment("and"))
    assert m4a.cell("and", ("(1,0)", "(0,1)")) == ("(0,0)",)
    with pytest.raises(MatrixError):
        truth_preserving_bot_matrix(standard_fragment("coimp"))


def test_decide_recovery_conditions_in_order():
    # when both (a) and (b) would hold, (a) is named first
    f_top = standard_fragment("top")
    f_top2 = FragmentSpec.of({"top2": standard_function("top")})
    v = decide_recovery(f_top, f_top2)
    assert isinstance(v, Classical) and v.condition == "a"


def test_decide_recovery_rejects_overlap():
    with pytest.raises(MatrixError):
        decide_recovery(standard_fragment("or"), standard_fragment("or", "neg"))


def test_projection_connective_disqualifies_condition_c():
    # a falsum plus an affirmation connective is not "a lone falsum plus top-likes"
    f_iff = standard_fragment("iff")
    f_mixed = FragmentSpec.of(
        {"bot": standard_function("bot"), "aff": BooleanFunction.from_string("01", 1)}
    )
    v = decide_recovery(f_iff, f_mixed)
    assert isinstance(v, Subclassical)
    assert v.countermodel.check()


def test_subclassical_witnesses_verify():
    for cid in CATALOG_IDS:
        f1, f2 = catalog_fragments(cid)
        v = decide_recovery(f1, f2)
        if isinstance(v, Subclassical):
            assert v.countermodel.check(), cid
            union = f1.union(f2)
            assert bool(
                entails(two_valued_matrix(union), list(v.witness.premises), v.witness.conclusion)
            ), cid
            refuted = entails(
                fibred_semantics(f1, f2, v.power_used), list(v.witness.premises), v.witness.conclusion
            )
            assert isinstance(refuted, Fails), cid


def test_classical_verdicts_sound_on_random_sequents():
    rng = random.Random(42)
    cases = [
        catalog_fragments("two_conj"),
        catalog_fragments("coimp_top"),
        catalog_fragments("biimp_bot"),
        (
            standard_fragment("and"),
            FragmentSpec.of({"top2": standard_function("top"), "bot2": standard_function("bot")}),
        ),
        (standard_fragment("xor3"), standard_fragment("bot")),
    ]
    for f1, f2 in cases:
        assert isinstance(decide_recovery(f1, f2), Classical)
        sig = f1.signature.union(f2.signature)
        product = fibred_semantics(f1, f2, 2)
        classical = two_valued_matrix(f1.union(f2))
        for _ in range(200):
            gamma, phi = _random_sequent(rng, sig, depth=3, n_vars=3)
            assert bool(entails(product, gamma, phi)) == bool(entails(classical, gamma, phi)), (
                [text(g) for g in gamma],
                text(phi),
            )



def _reference_random_sequent(rng: random.Random, sig, depth: int, n_vars: int):
    """fibring._random_sequent as it stood when it recursed on each argument."""
    names = [f"p{i}" for i in range(1, n_vars + 1)]

    def gen(d):
        conns = [c for c in sig.connectives]
        if d == 0 or (rng.random() < 0.3 and names):
            choice = rng.choice(names + [c[0] for c in conns if c[1] == 0])
            k = sig.arity(choice)
            return app(choice, ()) if k == 0 else var(choice)
        conn, k = rng.choice(conns)
        if k == 0:
            return app(conn, ())
        return app(conn, tuple(gen(d - 1) for _ in range(k)))

    n_prem = rng.randrange(0, 3)
    return [gen(depth) for _ in range(n_prem)], gen(depth)


@pytest.mark.parametrize("cid", ["two_conj", "biimp_bot", "xor3_two_bots", "two_neg", "coimp_top"])
def test_random_sequent_draws_as_the_recursive_reference(cid):
    # the same formulas from the same draws, in the same order: the RNG
    # state after each sequent matches too
    f1, f2 = catalog_fragments(cid)
    sig = f1.signature.union(f2.signature)
    for seed in range(40):
        for depth, n_vars in ((0, 1), (1, 3), (3, 3), (6, 2)):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got = _random_sequent(got_rng, sig, depth=depth, n_vars=n_vars)
                assert got == _reference_random_sequent(want_rng, sig, depth=depth, n_vars=n_vars)
                assert got_rng.getstate() == want_rng.getstate()

def test_countermodels_persist_at_higher_power():
    # a refutation at power n stays a refutation at power n+1
    samples = [
        ("two_disj", ["or(p,q)"], "or2(p,q)"),
        ("two_neg", ["neg(p)"], "sim(p)"),
        ("conj_disj", ["or(p,and(q,r))"], "and(or(p,q),or(p,r))"),
    ]
    for cid, prems_t, goal_t in samples:
        f1, f2 = catalog_fragments(cid)
        sig = f1.signature.union(f2.signature)
        prems = [parse(t, sig) for t in prems_t]
        goal = parse(goal_t, sig)
        for n in (2, 3):
            assert isinstance(entails(fibred_semantics(f1, f2, n), prems, goal), Fails), (cid, n)


def test_certify_entailment_examples():
    f_and, f_and2 = catalog_fragments("two_conj")
    sig = f_and.signature.union(f_and2.signature)
    v = certify_entailment(f_and, f_and2, None, [parse("and(p,q)", sig)], parse("and2(p,q)", sig))
    assert isinstance(v, Yes)

    f_neg, f_sim = catalog_fragments("two_neg")
    s2 = f_neg.signature.union(f_sim.signature)
    v = certify_entailment(f_neg, f_sim, None, [parse("neg(p)", s2)], parse("sim(p)", s2))
    assert isinstance(v, No)
    assert v.countermodel.check()

    f_or, f_or2 = catalog_fragments("two_disj")
    s3 = f_or.signature.union(f_or2.signature)
    v = certify_entailment(
        f_or,
        f_or2,
        builtin_calculus("or_pair"),
        [parse("or(p,or(q,r))", s3)],
        parse("or(p,or2(q,r))", s3),
        universe_depth=1,
    )
    assert isinstance(v, Yes)


def test_decide_recovery_beyond_the_catalog():
    # the witness machinery succeeds on combinations the catalog never names
    aff = BooleanFunction.from_string("01", 1)
    pairs = [
        (standard_fragment("iff"), standard_fragment("sim", rename={"sim": "neg"})),
        (standard_fragment("xor"), standard_fragment("sim", rename={"sim": "neg"})),
        (standard_fragment("imp"), standard_fragment("iff")),
        (standard_fragment("coimp"), standard_fragment("and")),
        (standard_fragment("thr_3_2"), standard_fragment("bot")),
        (standard_fragment("if3"), standard_fragment("bot")),
        (standard_fragment("xor"), standard_fragment("and")),
        (standard_fragment("xor3"), FragmentSpec.of({"bot1": BooleanFunction.from_string("00", 1)})),
        (standard_fragment("imp"), standard_fragment("and2", rename={"and2": "and"})),
        (FragmentSpec.of({"aff": aff}), standard_fragment("bot")),
    ]
    for f1, f2 in pairs:
        verdict = decide_recovery(f1, f2)
        names = (f1.names(), f2.names())
        if isinstance(verdict, Subclassical):
            assert verdict.countermodel.check(), names
            union = f1.union(f2)
            assert bool(
                entails(
                    two_valued_matrix(union), list(verdict.witness.premises), verdict.witness.conclusion
                )
            ), names
        else:
            assert isinstance(verdict, Classical), names
    # a pure-projection side meets condition (a), which is named first
    v = decide_recovery(FragmentSpec.of({"aff": aff}), standard_fragment("bot"))
    assert isinstance(v, Classical) and v.condition == "a"


def test_certify_consistency():
    # the same query never comes back both Yes and No
    f_or, f_or2 = catalog_fragments("two_disj")
    sig = f_or.signature.union(f_or2.signature)
    queries = [
        ([], "or(p,p)"),
        (["or(p,p)"], "p"),
        (["p"], "or2(p,q)"),
        (["or(p,q)"], "or2(p,q)"),
    ]
    for prems_t, goal_t in queries:
        prems = [parse(t, sig) for t in prems_t]
        goal = parse(goal_t, sig)
        first = certify_entailment(f_or, f_or2, None, prems, goal)
        second = certify_entailment(f_or, f_or2, None, prems, goal)
        assert type(first) is type(second)


def test_certify_unknown_reports_bounds():
    # no calculus knows the coimplication fragment, and the sequent is
    # product-valid, so neither side can decide it
    f_co, f_top = catalog_fragments("coimp_top")
    sig = f_co.signature.union(f_top.signature)
    v = certify_entailment(
        f_co, f_top, None, [parse("coimp(p,q)", sig)], parse("q", sig), step_cap=300
    )
    assert isinstance(v, Unknown)
    assert v.step_cap == 300


def test_fc_recovery():
    top = standard_fragment("top")
    assert decide_fc_recovery(standard_fragment("coimp"), top) == FcOutcome("Recovered", "T0_inf", 2)
    maj_neg = FragmentSpec.of(
        {"thr_3_2": standard_function("thr_3_2"), "neg": standard_function("neg")}
    )
    assert decide_fc_recovery(maj_neg, top) == FcOutcome("Recovered", "D", 2)
    with pytest.raises(MatrixError):
        decide_fc_recovery(standard_fragment("or", "neg"), top)
    with pytest.raises(MatrixError):
        decide_fc_recovery(standard_fragment("and"), top)
    # or and coimp generate every 0-preserving function
    assert decide_fc_recovery(standard_fragment("or", "coimp"), top) == FcOutcome("Recovered", "T0_1", 2)
    # complete together, but neither side is made of top-likes and projections
    assert decide_fc_recovery(standard_fragment("coimp"), standard_fragment("imp")) == FcOutcome("NotRecovered")


def test_fc_recovery_names_clones_past_the_closure_arity():
    top = standard_fragment("top")
    # W6: majority with a dummy 4th argument, plus neg, generates D
    maj4 = BooleanFunction.from_callable(4, lambda a, b, c, d: a + b + c >= 2)
    start = time.perf_counter()
    out = decide_fc_recovery(FragmentSpec.of({"maj4": maj4, "neg": standard_function("neg")}), top)
    assert out == FcOutcome("Recovered", "D", 2)
    assert time.perf_counter() - start < 0.5
    assert decide_fc_recovery(standard_fragment("thr_4_3", "coimp"), top) == FcOutcome("Recovered", "T0_3", 2)
    assert decide_fc_recovery(top, standard_fragment("thr_3_2", "coimp")) == FcOutcome("Recovered", "T0_2", 1)


def _lifted(frag: FragmentSpec) -> FragmentSpec:
    """frag with each 0-place connective replaced by its unary constant."""
    return FragmentSpec.of({n: BooleanFunction(1, 0b11 * f.bits) if f.arity == 0 else f for n, f in frag.functions})


def _fc_clone_by_closure(frag: FragmentSpec):
    """The clone of frag among D, T0_inf and T0_1..T0_3 by mutual generator
    membership under the brute-force reference_closure: the frag's members
    lie in the closure of the clone's generators and the generators in the
    frag's."""
    # closures run at arity >= 1, so 0-place members enter as unary constants
    funcs = [f for _, f in _lifted(frag).functions]
    targets = [("D", ("thr_3_2", "neg")), ("T0_inf", ("coimp",))]
    targets += [(f"T0_{k}", (f"thr_{k + 1}_{k}", "coimp")) for k in (1, 2, 3)]
    for clone, names in targets:
        gens = [standard_function(name) for name in names]
        if all(g in reference_closure(funcs, g.arity) for g in gens) and all(
            f in reference_closure(gens, f.arity) for f in funcs
        ):
            return clone
    return None


def _fc_recovery_or_error(f1: FragmentSpec, f2: FragmentSpec):
    try:
        return decide_fc_recovery(f1, f2)
    except MatrixError as exc:
        return str(exc)


def test_0_place_connectives_read_as_their_constants():
    # the unary-constant lift is the oracle: closures, Post's criterion and
    # fc-recovery see a 0-place connective exactly as its unary constant
    for stem in bundled.stems("fragment"):
        frag = load_fragment(bundled.read(f"{stem}.json", "fragment"))
        funcs, lifted = [f for _, f in frag.functions], [f for _, f in _lifted(frag).functions]
        for k in (1, 2, 3):
            assert clone_closure_at_arity(funcs, k) == clone_closure_at_arity(lifted, k), (stem, k)
    pool = [BooleanFunction(k, bits) for k in (0, 1, 2) for bits in range(1 << (1 << k))]
    assert len(pool) == 22
    decided_with_constant = 0
    for f, g in itertools.product(pool, repeat=2):
        f1, f2 = FragmentSpec.of({"a": f}), FragmentSpec.of({"b": g})
        union = f1.union(f2)
        assert functionally_complete(union) == functionally_complete(_lifted(union)), (f, g)
        outcome = _fc_recovery_or_error(f1, f2)
        assert outcome == _fc_recovery_or_error(_lifted(f1), _lifted(f2)), (f, g)
        decided_with_constant += isinstance(outcome, FcOutcome) and 0 in (f.arity, g.arity)
    assert decided_with_constant == 8
    # the falsum keeps this self-dual member's clone out of D (arity 2 has no such member)
    mixed = FragmentSpec.of({"bot": BooleanFunction(0, 0), "m": BooleanFunction.from_string("01001101", 3)})
    assert decide_fc_recovery(mixed, standard_fragment("top")) == FcOutcome("Recovered", "T0_1", 2)


def test_fc_recovery_agrees_with_closure():
    top = standard_fragment("top")
    pool = [BooleanFunction(k, bits) for k in (0, 1, 2) for bits in range(1 << (1 << k))]
    cases = 0
    for size in (1, 2):
        for funcs in itertools.combinations(pool, size):
            frag = FragmentSpec.of({f"c{i}": f for i, f in enumerate(funcs)})
            if functionally_complete(frag) or not functionally_complete(frag.union(top)):
                continue
            clone = _fc_clone_by_closure(frag)
            assert clone is not None, frag
            assert decide_fc_recovery(frag, top) == FcOutcome("Recovered", clone, 2), frag
            assert decide_fc_recovery(top, frag) == FcOutcome("Recovered", clone, 1), frag
            cases += 1
    assert cases == 23


def test_kdet_probe():
    f_or, f_or2 = catalog_fragments("two_disj")
    hit = k_determinedness_probe(f_or, f_or2, 1, n=3)
    assert hit and hit.countermodel.check()
    f_iff, f_bot1 = catalog_fragments("biimp_bot1")
    assert k_determinedness_probe(f_iff, f_bot1, 1, n=2)
    f_and, f_and2 = catalog_fragments("two_conj")
    assert not k_determinedness_probe(f_and, f_and2, 1, n=2)
    assert not k_determinedness_probe(f_and, f_and2, 2, n=2)


def test_phi_t_family():
    phis = phi_t_family(("or", standard_function("or")), ("or2", standard_function("or")), 2, n=3)
    assert len(phis) == 3
    assert text(phis[0]) == "or(or2(p,p),or2(or2(p,p),or2(p,p)))"
    single = phi_t_family(("or", standard_function("or")), ("or2", standard_function("or")), 0, n=2)
    assert len(single) == 1
    # implication has no projective slots, so both arguments carry nestings
    phis2 = phi_t_family(("imp", standard_function("imp")), ("neg", standard_function("neg")), 1, n=3)
    assert len(phis2) == 2
    assert text(phis2[0]) == "imp(neg(p),neg(neg(p)))"
    with pytest.raises(ValueError):
        phi_t_family(("and", standard_function("and")), ("neg", standard_function("neg")), 1, n=3)
    with pytest.raises(ValueError):
        phi_t_family(("or", standard_function("or")), ("top", standard_function("top")), 1, n=3)


def test_witness_machinery_directly():
    f_or, f_bot = standard_fragment("or"), standard_fragment("bot")
    sub = subclassical_witness(f_or, f_bot)
    assert str(sub.witness) in ("or(bot,p) |- p", "or(p,bot) |- p")
    cm = sub.countermodel
    assert cm.check()

    # implication expresses disjunction, so the same failure lifts through it
    f_imp = standard_fragment("imp")
    sub2 = subclassical_witness(f_imp, f_bot)
    assert "imp" in str(sub2.witness)


def test_recovery_sweep_over_single_connective_pairs():
    # every ordered pair drawn from seven standard connectives: classical
    # verdicts agree with the two-valued matrix on sampled sequents, and
    # every subclassical verdict already carries its disagreement proof
    import itertools

    names = ["top", "bot", "neg", "and", "or", "iff", "xor"]
    rng = random.Random(99)
    expected_classical = {
        ("bot", "bot"): "b", ("bot", "and"): "b", ("and", "bot"): "b",
        ("and", "and"): "b", ("bot", "iff"): "c", ("iff", "bot"): "c",
    }
    for n1, n2 in itertools.product(names, repeat=2):
        f1 = FragmentSpec.of({n1: standard_function(n1)})
        f2 = FragmentSpec.of({n2 + "2": standard_function(n2)})
        verdict = decide_recovery(f1, f2)
        if "top" in (n1, n2):
            assert isinstance(verdict, Classical) and verdict.condition == "a", (n1, n2)
        elif (n1, n2) in expected_classical:
            assert isinstance(verdict, Classical), (n1, n2)
            assert verdict.condition == expected_classical[n1, n2], (n1, n2)
        else:
            assert isinstance(verdict, Subclassical), (n1, n2)
        if isinstance(verdict, Classical):
            sig = f1.signature.union(f2.signature)
            product = fibred_semantics(f1, f2, 2)
            classical = two_valued_matrix(f1.union(f2))
            for _ in range(40):
                gamma, phi = _random_sequent(rng, sig, depth=3, n_vars=3)
                assert bool(entails(product, gamma, phi)) == bool(
                    entails(classical, gamma, phi)
                ), (n1, n2)


def _truth_rows(arity):
    return list(itertools.product((0, 1), repeat=arity))


def _in_top(f):
    # constant 1 or a projection
    rows = _truth_rows(f.arity)
    return all(f(*x) for x in rows) or any(all(f(*x) == x[i] for x in rows) for i in range(f.arity))


def _in_and_top_bot(f):
    # a constant or the conjunction of a nonempty set of arguments
    rows = _truth_rows(f.arity)
    if len({f(*x) for x in rows}) == 1:
        return True
    return any(
        all(f(*x) == min(x[i] for i in js) for x in rows)
        for k in range(1, f.arity + 1)
        for js in itertools.combinations(range(f.arity), k)
    )


def _in_biimp(f):
    # affine and 1-preserving: c xor the parity of some arguments, f(1..1) = 1
    rows = _truth_rows(f.arity)
    if not f(*(1,) * f.arity):
        return False
    return any(
        all(f(*x) == (c + sum(x[i] for i in js)) % 2 for x in rows)
        for c in (0, 1)
        for k in range(f.arity + 1)
        for js in itertools.combinations(range(f.arity), k)
    )


def _expected_condition(f1, f2):
    """Conditions a-c read straight off the truth tables, first match wins."""
    def inside(frag, test):
        return all(test(f) for _, f in frag.functions)

    def lone_bot_plus_top_likes(frag):
        bots = [n for n, f in frag.functions if f.arity == 0 and f.bits == 0]
        others = [f for n, f in frag.functions if n not in bots]
        return len(bots) == 1 and all(all(f(*x) for x in _truth_rows(f.arity)) for f in others)

    if inside(f1, _in_top) or inside(f2, _in_top):
        return "a"
    if inside(f1, _in_and_top_bot) and inside(f2, _in_and_top_bot):
        return "b"
    if any(inside(s, _in_biimp) and lone_bot_plus_top_likes(t) for s, t in ((f1, f2), (f2, f1))):
        return "c"
    return None


def _recovery_coverage_pairs():
    small = [BooleanFunction(k, b) for k in range(3) for b in range(1 << (1 << k))]
    ternary = [BooleanFunction(3, b) for b in range(256)]
    upto3 = small + ternary
    rng = random.Random(2024)

    def frag(stem, funcs):
        return FragmentSpec.of({f"{stem}{i}": f for i, f in enumerate(funcs)})

    pairs = [(frag("a", [f]), frag("b", [g])) for f, g in itertools.combinations_with_replacement(small, 2)]
    pairs += [(frag("a", [rng.choice(ternary)]), frag("b", [rng.choice(upto3)])) for _ in range(60)]
    pairs += [
        (frag("a", rng.sample(small, rng.randint(2, 3))), frag("b", rng.sample(small, rng.randint(2, 3))))
        for _ in range(40)
    ]
    # a pair whose witness is refuted only at power 3
    pairs.append((frag("a", [BooleanFunction.from_string("00010110", 3)]), frag("b", [standard_function("or")])))
    return pairs


def test_curated_witness_families_cover_every_subclassical_pair():
    # witnesses come only from the curated families at power 2 or 3, so a
    # pair the theorem calls subclassical must never run out of candidates
    pairs = _recovery_coverage_pairs()
    assert len(pairs) == 253 + 60 + 40 + 1
    powers = []
    for f1, f2 in pairs:
        names = (f1.functions, f2.functions)
        verdict = decide_recovery(f1, f2)  # WitnessNotFound fails the test
        want = _expected_condition(f1, f2)
        if want is not None:
            assert isinstance(verdict, Classical) and verdict.condition == want, names
            continue
        assert isinstance(verdict, Subclassical), names
        seq = verdict.witness
        premises = list(seq.premises)
        assert bool(entails(two_valued_matrix(f1.union(f2)), premises, seq.conclusion)), names
        assert isinstance(entails(fibred_semantics(f1, f2, verdict.power_used), premises, seq.conclusion), Fails), names
        assert verdict.countermodel.check(), names
        powers.append(verdict.power_used)
    assert len(powers) > 200 and set(powers) == {2, 3}


def test_classical_pairs_have_no_witness():
    f_and, f_and2 = standard_fragment("and"), standard_fragment("and2", rename={"and2": "and"})
    start = time.perf_counter()
    with pytest.raises(WitnessNotFound, match="no curated witness candidate is refuted at power 2 or 3"):
        subclassical_witness(f_and, f_and2)
    assert time.perf_counter() - start < 1.0


def test_reproduce_all_catalog_entries():
    for cid in CATALOG_IDS:
        report = reproduce(cid)
        assert report.passed, "\n".join(report.lines())
    with pytest.raises(KeyError):
        reproduce("nope")


# the classical table each bundled connective name stands for, where the
# name is not itself a standard connective
_CLASSICAL_ALIAS = {"sim": "neg", "or2": "or", "and2": "and", "bota": "bot", "botb": "bot", "bot2": "bot", "top2": "top"}
_OWN_TABLES = {"bot1": BooleanFunction.from_string("00", 1), "bowtie": BooleanFunction.from_string("00000111", 3)}


def _classical_function(name: str) -> BooleanFunction:
    if name in _OWN_TABLES:
        return _OWN_TABLES[name]
    return standard_function(_CLASSICAL_ALIAS.get(name, name))


def test_bundled_system_files_load():
    names = sorted(p.name for p in SYSTEMS.glob("*.json"))
    assert names, "bundled systems directory is empty"
    calculus_stems = []
    for name in names:
        data = json.loads((SYSTEMS / name).read_text())
        if "connectives" in data:
            # each fragment file holds the classical tables of its names
            frag = load_fragment(data)
            assert frag == FragmentSpec.of({n: _classical_function(n) for n in frag.names()}), name
        elif "values" in data:
            load_system(data)
        elif "rules" in data:
            calc = load_calculus(data)
            calculus_stems.append(name[: -len(".json")])
            # each rule is sound on the two-valued matrix of the signature
            classical = two_valued_matrix(
                FragmentSpec.of({n: _classical_function(n) for n in calc.signature.names()})
            )
            for rule in calc.rules:
                assert entails(classical, list(rule.premises), rule.conclusion), (name, str(rule))
            assert builtin_calculus(name[: -len(".json")]) == calc, name
        elif "mapping" in data:
            pass  # translation file: checked via the CLI tests
        else:
            raise AssertionError(f"unrecognized bundled file {name}")
    assert BUILTIN_IDS == tuple(calculus_stems)

    # each golden matrix equals the constructor that claims to produce it
    f_coimp, f_bot = catalog_fragments("coimp_bot")
    golden = {
        "two_neg_product.json": strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim")),
        "neg_bot_product.json": strict_product(three_valued_negation_matrix("neg"), two_valued_matrix(f_bot)),
        "imp_bot_m4.json": truth_preserving_bot_matrix(standard_fragment("imp"), "bot"),
        "coimp_bot_product.json": fibred_semantics(f_coimp, f_bot, 2),
    }
    for name, matrix in golden.items():
        assert matrices_equal(load_system(json.loads((SYSTEMS / name).read_text())), matrix), name

    # the catalog's fragments hold the classical tables of their names
    for cid in CATALOG_IDS:
        for frag in catalog_fragments(cid):
            assert frag == FragmentSpec.of({n: _classical_function(n) for n in frag.names()}), cid


def test_auto_calculus_rules_are_pinned():
    # signature, rule names (primes on clashes), premises, conclusions and
    # rule order for every bundled fragment and every catalog pair's union
    frags = [(stem, load_fragment(bundled.read(f"{stem}.json", "fragment"))) for stem in bundled.stems("fragment")]
    frags += [(cid, catalog_fragments(cid)[0].union(catalog_fragments(cid)[1])) for cid in CATALOG_IDS]
    rendered = []
    for label, frag in frags:
        calc = auto_calculus(frag)
        rules = [[r.name, [text(p) for p in r.premises], text(r.conclusion)] for r in calc.rules]
        rendered.append([label, list(calc.signature.connectives), rules])
    assert len(rendered) == 33 and sum(len(rules) for *_, rules in rendered) == 103
    by_label = {label: rules for label, _, rules in rendered}
    assert [name for name, *_ in by_label["two_neg"]] == ["n1", "n2", "n3", "n1'", "n2'", "n3'"]
    digest = hashlib.sha256(json.dumps(rendered).encode("utf-8")).hexdigest()
    assert digest == "67484fc6bd5b4c26c459abf8851a979a566591b8357b495be440664308ac26af"
