import itertools
import random

import pytest

from nmfib.boolfun import BooleanFunction, FragmentSpec, standard_fragment, standard_function
from nmfib.fibring import three_valued_negation_matrix, truth_preserving_bot_matrix
from nmfib.matrixops import (
    CompatibilityError,
    SizeCapExceeded,
    canonical_matrix,
    matrices_equal,
    merge_valuations,
    power,
    restrict_values,
    strict_product,
    translate_matrix,
)
from nmfib.semantics import (
    Fails,
    MatrixError,
    PartialValuation,
    entails,
    enumerate_partial_valuations,
    two_valued_matrix,
)
from nmfib.syntax import (
    Signature,
    Translation,
    app,
    parse,
    skeleton,
    subformula_closure,
    var,
)


def test_power_examples():
    m = two_valued_matrix(standard_fragment("neg"))
    m2 = power(m, 2)
    assert m2.cell("neg", ("(0,1)",)) == ("(1,0)",)
    ma2 = power(two_valued_matrix(standard_fragment("and")), 2)
    assert len(ma2.values) == 4 and ma2.designated == {"(1,1)"}
    assert power(m, 1) is m
    with pytest.raises(SizeCapExceeded):
        power(m, 3, cap=4)


def test_power_cap_env_override(monkeypatch):
    m = two_valued_matrix(standard_fragment("neg"))
    monkeypatch.setenv("NMFIB_SIZE_CAP", "4")
    with pytest.raises(SizeCapExceeded):
        power(m, 3)
    monkeypatch.setenv("NMFIB_SIZE_CAP", "1000")
    assert len(power(m, 3).values) == 8


def test_power_preserves_consequence_on_samples():
    rng = random.Random(2)
    frag = standard_fragment("or")
    m = two_valued_matrix(frag)
    m2 = power(m, 2)
    sig = frag.signature
    pool = [parse(t, sig) for t in ("p", "q", "r", "or(p,q)", "or(q,r)", "or(p,or(q,r))", "or(p,p)")]
    for _ in range(20):
        gamma = rng.sample(pool, rng.randrange(0, 3))
        phi = rng.choice(pool)
        assert bool(entails(m, gamma, phi)) == bool(entails(m2, gamma, phi))


def test_strict_product_examples():
    # two copies of conjunction collapse onto the diagonal
    m1 = two_valued_matrix(standard_fragment("and"))
    m2 = two_valued_matrix(standard_fragment("and2", rename={"and2": "and"}))
    prod = strict_product(m1, m2)
    assert set(prod.values) == {"(0,0)", "(1,1)"}
    assert prod.cell("and", ("(1,1)", "(0,0)")) == ("(0,0)",)
    assert prod.cell("and2", ("(1,1)", "(1,1)")) == ("(1,1)",)

    m5 = strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))
    assert set(m5.cell("neg", ("(1,1)",))) == {"(0,0)", "(0,1/2)"}

    m3 = strict_product(three_valued_negation_matrix("neg"), two_valued_matrix(standard_fragment("bot")))
    assert set(m3.values) == {"(0,0)", "(1/2,0)", "(1,1)"}
    assert set(m3.cell("bot", ())) == {"(0,0)", "(1/2,0)"}


def test_products_and_powers_record_their_factors():
    neg, sim = three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim")
    m5 = strict_product(neg, sim)
    left, right, decode = m5.factors
    assert (left, right, m5.power_of) == (neg, sim, None)
    assert sorted(decode) == sorted(m5.values)
    assert all(name == f"({a},{b})" for name, (a, b) in decode.items())
    m2 = two_valued_matrix(standard_fragment("or"))
    assert power(m2, 3).power_of == (m2, 3) and power(m2, 3).factors is None
    assert power(m2, 1) is m2 and m2.power_of is None
    # matrices derived from a product or a power record nothing
    assert restrict_values(m5, {"(0,0)", "(1/2,1/2)", "(1,1)"}).factors is None
    m4 = truth_preserving_bot_matrix(standard_fragment("imp"))
    assert (m4.power_of, m4.factors) == (None, None)


def test_strict_product_validation():
    m = two_valued_matrix(standard_fragment("or"))
    with pytest.raises(MatrixError):
        strict_product(m, m)


def test_product_designation_law():
    m1 = power(two_valued_matrix(standard_fragment("or")), 2)
    m2 = two_valued_matrix(standard_fragment("bot"))
    prod = strict_product(m1, m2)
    for v in prod.values:
        left, right = v[1:-1].rsplit(",", 1)
        assert (v in prod.designated) == (left in m1.designated and right in m2.designated)


def test_product_commutative_up_to_swap():
    m1 = two_valued_matrix(standard_fragment("neg"))
    m2 = two_valued_matrix(standard_fragment("bot"))
    ab = strict_product(m1, m2)
    ba = strict_product(m2, m1)

    def swap(name):
        left, right = name[1:-1].split(",")
        return f"({right},{left})"

    assert sorted(swap(v) for v in ba.values) == sorted(ab.values)
    for conn, arity in ab.signature.connectives:
        for args in itertools.product(ab.values, repeat=arity):
            ba_args = tuple(swap(a) for a in args)
            assert sorted(swap(v) for v in ba.cell(conn, ba_args)) == sorted(ab.cell(conn, args))


def test_component_conservativity_sampled():
    rng = random.Random(4)
    frag1 = standard_fragment("or")
    frag2 = standard_fragment("neg")
    m1 = two_valued_matrix(frag1)
    prod = strict_product(power(m1, 2), power(two_valued_matrix(frag2), 2))
    sig = frag1.signature
    pool = [parse(t, sig) for t in ("p", "q", "or(p,q)", "or(q,p)", "or(p,or(p,q))")]
    for _ in range(20):
        gamma = rng.sample(pool, rng.randrange(0, 3))
        phi = rng.choice(pool)
        if bool(entails(m1, gamma, phi)):
            assert bool(entails(prod, gamma, phi))


def test_translate_matrix_examples():
    frag = standard_fragment("neg", "imp", "and")
    m = two_valued_matrix(frag)
    tgt = frag.signature
    t = Translation.of(Signature.of({"coimp": 2}), tgt, {"coimp": parse("neg(imp(p2,p1))", tgt)})
    mc = translate_matrix(m, t)
    assert mc.cell("coimp", ("0", "0")) == ("0",)
    assert mc.cell("coimp", ("0", "1")) == ("1",)
    assert mc.cell("coimp", ("1", "0")) == ("0",)
    assert mc.cell("coimp", ("1", "1")) == ("0",)

    # identity translation returns an identical matrix
    ident = translate_matrix(m, __import__("nmfib.syntax", fromlist=["identity_translation"]).identity_translation(tgt))
    assert matrices_equal(ident, m)

    # majority through the threshold scheme over and/or
    frag2 = standard_fragment("and", "or", "top")
    m2 = two_valued_matrix(frag2)
    from nmfib.boolfun import threshold_formula

    t2 = Translation.of(Signature.of({"maj": 3}), frag2.signature, {"maj": threshold_formula(3, 2)})
    mm = translate_matrix(m2, t2)
    want = standard_function("thr_3_2")
    for row in range(8):
        args = tuple("1" if row >> (2 - i) & 1 else "0" for i in range(3))
        assert mm.cell("maj", args) == (("1",) if want.on_row(row) else ("0",))


def test_translate_matrix_refuses_nondeterministic():
    unrest = canonical_matrix("unrestrained", "c", 1)
    t = Translation.of(
        Signature.of({"d": 1}), unrest.signature, {"d": parse("c(p1)", unrest.signature)}
    )
    with pytest.raises(MatrixError):
        translate_matrix(unrest, t)


def test_translation_image_commutes_with_powers():
    frag = standard_fragment("neg", "imp")
    m = two_valued_matrix(frag)
    tgt = frag.signature
    t = Translation.of(Signature.of({"coimp": 2}), tgt, {"coimp": parse("neg(imp(p2,p1))", tgt)})
    lhs = power(translate_matrix(m, t), 2)
    rhs = translate_matrix(power(m, 2), t)
    assert matrices_equal(lhs, rhs)


def test_translation_transfer_on_samples():
    # entailment between translated fragments transfers to translated sequents
    rng = random.Random(9)
    src1, src2 = Signature.of({"coimp": 2}), Signature.of({"vel": 2})
    frag1 = standard_fragment("neg", "imp")
    frag2 = standard_fragment("or")
    m1, m2 = two_valued_matrix(frag1), two_valued_matrix(frag2)
    t1 = Translation.of(src1, frag1.signature, {"coimp": parse("neg(imp(p2,p1))", frag1.signature)})
    t2 = Translation.of(src2, frag2.signature, {"vel": parse("or(p1,p2)", frag2.signature)})
    from nmfib.syntax import apply_translation, union_translations

    t = union_translations(t1, t2)
    translated = strict_product(power(translate_matrix(m1, t1), 2), power(translate_matrix(m2, t2), 2))
    base = strict_product(power(m1, 2), power(m2, 2))
    sig12 = src1.union(src2)
    pool = [
        parse(s, sig12)
        for s in ("p", "q", "coimp(p,q)", "vel(p,q)", "vel(coimp(p,q),q)", "coimp(vel(p,q),p)")
    ]
    for _ in range(15):
        gamma = rng.sample(pool, rng.randrange(0, 3))
        phi = rng.choice(pool)
        if bool(entails(translated, gamma, phi)):
            assert bool(
                entails(base, [apply_translation(t, g) for g in gamma], apply_translation(t, phi))
            )


def test_canonical_matrices():
    top = canonical_matrix("top", "c", 2)
    assert all(top.cell("c", args) == ("1",) for args in itertools.product(("0", "1"), repeat=2))
    bot = canonical_matrix("bottom", "bt", 0)
    assert bot.cell("bt", ()) == ("0",)
    unrest = canonical_matrix("unrestrained", "c", 1)
    assert set(unrest.cell("c", ("0",))) == {"0", "1"}
    with pytest.raises(MatrixError):
        canonical_matrix("weird", "c", 1)


def test_merge_valuations_worked_example():
    # the ternary-parity with two falsums countermodel, built componentwise
    frag1 = standard_fragment("xor3")
    frag2 = FragmentSpec.of(
        {"bota": standard_function("bot"), "botb": standard_function("bot")}
    )
    m1 = power(two_valued_matrix(frag1), 3)
    m2 = two_valued_matrix(frag2)
    sig = frag1.signature.union(frag2.signature)
    gamma = subformula_closure([parse("xor3(p,bota,botb)", sig)])
    s1 = frag1.signature
    s2 = frag2.signature
    v1 = PartialValuation.of(
        m1,
        {
            skeleton(parse("p", sig), s1): "(0,1,1)",
            skeleton(parse("bota", sig), s1): "(1,0,0)",
            skeleton(parse("botb", sig), s1): "(0,0,0)",
            skeleton(parse("xor3(p,bota,botb)", sig), s1): "(1,1,1)",
        },
    )
    v2 = PartialValuation.of(
        m2,
        {
            skeleton(parse("p", sig), s2): "0",
            skeleton(parse("bota", sig), s2): "0",
            skeleton(parse("botb", sig), s2): "0",
            skeleton(parse("xor3(p,bota,botb)", sig), s2): "1",
        },
    )
    merged = merge_valuations(v1, v2, gamma)
    assert merged.check()
    assert merged.designates(parse("xor3(p,bota,botb)", sig))
    assert not merged.designates(parse("p", sig))

    # incompatible designation is reported at the offending formula
    v2bad = PartialValuation.of(
        m2,
        {
            skeleton(parse("p", sig), s2): "1",
            skeleton(parse("bota", sig), s2): "0",
            skeleton(parse("botb", sig), s2): "0",
            skeleton(parse("xor3(p,bota,botb)", sig), s2): "1",
        },
    )
    with pytest.raises(CompatibilityError):
        merge_valuations(v1, v2bad, gamma)


def test_merge_valuations_variable_only():
    m1 = two_valued_matrix(standard_fragment("and"))
    m2 = two_valued_matrix(standard_fragment("or"))
    p = var("p")
    v1 = PartialValuation.of(m1, {p: "1"})
    v2 = PartialValuation.of(m2, {p: "1"})
    merged = merge_valuations(v1, v2, [p])
    assert merged.value(p) == "(1,1)"


def test_restrict_values():
    m5 = strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))
    purged = restrict_values(m5, {"(0,0)", "(1/2,1/2)", "(1,1)"})
    assert purged.deterministic()
    assert purged.cell("neg", ("(1,1)",)) == ("(0,0)",)
    assert purged.cell("neg", ("(1/2,1/2)",)) == ("(1/2,1/2)",)
    assert purged.cell("sim", ("(0,0)",)) == ("(1,1)",)
    m3 = three_valued_negation_matrix("neg")
    with pytest.raises(MatrixError):
        restrict_values(m3, {"1/2", "1"})  # neg(1) = {0} empties out
