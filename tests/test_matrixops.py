import itertools
import random
import re
import time

import pytest

from nmfib.boolfun import BooleanFunction, FragmentSpec, standard_fragment, standard_function
from nmfib.fibring import (
    CATALOG_IDS,
    catalog_fragments,
    fibred_semantics,
    three_valued_negation_matrix,
    truth_preserving_bot_matrix,
)
from nmfib.matrixops import (
    SizeCapExceeded,
    matrices_equal,
    power,
    restrict_values,
    strict_product,
    translate_matrix,
)
from nmfib.semantics import (
    Holds,
    MatrixError,
    Nmatrix,
    entails,
    two_valued_matrix,
)
from nmfib.syntax import (
    App,
    Signature,
    SignatureError,
    Translation,
    app,
    apply_substitution,
    params,
    parse,
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
    for bad in ("abc", "0", "-5", "2.5"):
        monkeypatch.setenv("NMFIB_SIZE_CAP", bad)
        with pytest.raises(ValueError, match=re.escape(f"NMFIB_SIZE_CAP must be a positive integer (got {bad!r})")):
            power(m, 2)


def test_explicit_cap_below_one_is_named():
    m = two_valued_matrix(standard_fragment("neg"))
    other = two_valued_matrix(standard_fragment("and"))
    for cap in (0, -1):
        for build in (lambda: power(m, 1, cap=cap), lambda: strict_product(m, other, cap=cap)):
            with pytest.raises(ValueError, match=re.escape(f"cap (--cap) must be at least 1 (got {cap})")):
                build()


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

    # the identity translation returns an identical matrix
    ident = Translation.of(tgt, tgt, {name: app(name, params(k)) for name, k in tgt.connectives})
    assert matrices_equal(translate_matrix(m, ident), m)

    # majority through the threshold scheme over and/or
    frag2 = standard_fragment("and", "or", "top")
    m2 = two_valued_matrix(frag2)
    from test_boolfun import threshold_formula

    t2 = Translation.of(Signature.of({"maj": 3}), frag2.signature, {"maj": threshold_formula(3, 2)})
    mm = translate_matrix(m2, t2)
    want = standard_function("thr_3_2")
    for row in range(8):
        args = tuple("1" if row >> (2 - i) & 1 else "0" for i in range(3))
        assert mm.cell("maj", args) == (("1",) if want.on_row(row) else ("0",))


def test_translate_matrix_refuses_nondeterministic():
    unrest = Nmatrix(Signature.of({"c": 1}), ("0", "1"), ("1",), {"c": {("0",): ("0", "1"), ("1",): ("0", "1")}})
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


def union_translations(t1, t2):
    """The translation acting as t1 on its sources and as t2 on its own."""
    if not t1.source.disjoint_from(t2.source):
        raise SignatureError("translation sources are not disjoint")
    return Translation.of(t1.source.union(t2.source), t1.target.union(t2.target), dict(t1.mapping) | dict(t2.mapping))


def apply_translation(t, phi):
    """phi with each connective replaced by its derived connective under t."""
    if not isinstance(phi, App):
        return phi
    sigma = {f"p{i + 1}": apply_translation(t, a) for i, a in enumerate(phi.args)}
    return apply_substitution(sigma, t.body(phi.head))


def test_translation_transfer_on_samples():
    # entailment between translated fragments transfers to translated sequents
    rng = random.Random(9)
    src1, src2 = Signature.of({"coimp": 2}), Signature.of({"vel": 2})
    frag1 = standard_fragment("neg", "imp")
    frag2 = standard_fragment("or")
    m1, m2 = two_valued_matrix(frag1), two_valued_matrix(frag2)
    t1 = Translation.of(src1, frag1.signature, {"coimp": parse("neg(imp(p2,p1))", frag1.signature)})
    t2 = Translation.of(src2, frag2.signature, {"vel": parse("or(p1,p2)", frag2.signature)})
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


# ---------------------------------------------------------------------------
# Reference constructions
#
# reference_power and reference_strict_product are power and strict_product
# as they stood when both filled their whole table up front: a loop over
# every argument tuple, each table checked again by Nmatrix.  The computed
# matrices must match them in values, designation and every cell.
# ---------------------------------------------------------------------------


def _tuple_name(parts) -> str:
    return "(" + ",".join(parts) + ")"


def reference_power(matrix: Nmatrix, n: int) -> Nmatrix:
    if n == 1:
        return matrix
    tuples = sorted(itertools.product(matrix.values, repeat=n), key=_tuple_name)
    name_of = {t: _tuple_name(t) for t in tuples}
    designated = [name_of[t] for t in tuples if all(v in matrix.designated for v in t)]
    interp = {}
    for conn, arity in matrix.signature.connectives:
        cells = {}
        for args in itertools.product(tuples, repeat=arity):
            per_coord = [matrix.cell(conn, tuple(arg[i] for arg in args)) for i in range(n)]
            outs = [name_of[t] for t in itertools.product(*per_coord)]
            cells[tuple(name_of[a] for a in args)] = tuple(outs)
        interp[conn] = cells
    label = f"{matrix.name}^{n}" if matrix.name else ""
    return Nmatrix(matrix.signature, [name_of[t] for t in tuples], designated, interp, name=label,
                   saturated=matrix.saturated)


def reference_strict_product(m1: Nmatrix, m2: Nmatrix) -> Nmatrix:
    d1, d2 = m1.designated, m2.designated
    u1 = [v for v in m1.values if v not in d1]
    u2 = [v for v in m2.values if v not in d2]
    pairs = [(a, b) for a in m1.values if a in d1 for b in m2.values if b in d2]
    pairs += [(a, b) for a in u1 for b in u2]
    pairs.sort(key=_tuple_name)
    name_of = {p: _tuple_name(p) for p in pairs}
    by_first, by_second = {}, {}
    for p in pairs:
        by_first.setdefault(p[0], []).append(p)
        by_second.setdefault(p[1], []).append(p)
    designated = [name_of[p] for p in pairs if p[0] in d1]
    interp = {}
    for matrix, pick, coord in ((m1, by_first, 0), (m2, by_second, 1)):
        for conn, arity in matrix.signature.connectives:
            cells = {}
            for args in itertools.product(pairs, repeat=arity):
                own = matrix.cell(conn, tuple(a[coord] for a in args))
                outs = [name_of[p] for v in own for p in pick.get(v, ())]
                cells[tuple(name_of[a] for a in args)] = tuple(outs)
            interp[conn] = cells
    label = f"{m1.name}*{m2.name}" if m1.name and m2.name else ""
    return Nmatrix(m1.signature.union(m2.signature), [name_of[p] for p in pairs], designated, interp,
                   name=label, saturated=m1.saturated and m2.saturated)


def reference_fibred_semantics(f1: FragmentSpec, f2: FragmentSpec, n: int) -> Nmatrix:
    m1, m2 = two_valued_matrix(f1), two_valued_matrix(f2)
    return reference_strict_product(
        reference_power(m1, 1 if m1.saturated else n), reference_power(m2, 1 if m2.saturated else n)
    )


def _assert_same_matrix(built: Nmatrix, reference: Nmatrix) -> None:
    assert (built.signature, built.values, built.designated) == (
        reference.signature, reference.values, reference.designated
    )
    assert (built.name, built.saturated) == (reference.name, reference.saturated)
    assert built.full_interp() == reference.interp
    assert matrices_equal(built, reference)


# the 22 Boolean functions of arity <= 2, as table strings
_TABLES_LE2 = ["0", "1"] + [
    "".join(str(bits >> row & 1) for row in range(1 << k)) for k in (1, 2) for bits in range(1 << (1 << k))
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("table", _TABLES_LE2)
def test_power_matches_reference_on_every_small_connective(table, n):
    arity = {1: 0, 2: 1, 4: 2}[len(table)]
    m = two_valued_matrix(FragmentSpec.of({"c": BooleanFunction.from_string(table, arity)}))
    m.name = "m"  # the power's name is derived from it
    built = power(m, n)
    assert built.power_of == (m, n)
    _assert_same_matrix(built, reference_power(m, n))


@pytest.mark.parametrize("example_id", CATALOG_IDS)
def test_fibred_semantics_matches_reference_on_the_catalog(example_id):
    f1, f2 = catalog_fragments(example_id)
    for n in (2, 3):
        _assert_same_matrix(fibred_semantics(f1, f2, n), reference_fibred_semantics(f1, f2, n))


def test_fibred_or_or2_at_power_4_matches_reference(monkeypatch):
    f1, f2 = catalog_fragments("two_disj")
    # 2 * 226^2 cells: past the default cap, which bounds a whole-table read
    with pytest.raises(SizeCapExceeded, match=re.escape("102152 cells exceeds cap 10000")):
        fibred_semantics(f1, f2, 4).full_interp()
    monkeypatch.setenv("NMFIB_SIZE_CAP", "102152")
    built = fibred_semantics(f1, f2, 4)
    assert len(built.values) == 226
    _assert_same_matrix(built, reference_fibred_semantics(f1, f2, 4))


def test_m3_product_matches_reference():
    neg, sim = three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim")
    _assert_same_matrix(strict_product(neg, sim), reference_strict_product(neg, sim))
    # non-deterministic bases, and a product whose side is a computed power
    for n in (2, 3):
        _assert_same_matrix(power(neg, n), reference_power(neg, n))
    _assert_same_matrix(strict_product(power(neg, 2), sim), reference_strict_product(reference_power(neg, 2), sim))
    # values listed against their name order, so cells must be re-sorted
    c_cells = {("u",): ("u", "a"), ("b",): ("b", "a"), ("a",): ("u",)}
    odd = Nmatrix(Signature.of({"c": 1}), ("u", "b", "a"), ("a",), {"c": c_cells})
    for n in (2, 3):
        _assert_same_matrix(power(odd, n), reference_power(odd, n))
    _assert_same_matrix(strict_product(odd, sim), reference_strict_product(odd, sim))


def test_matrices_equal_reads_cells_not_yet_computed():
    neg, sim = three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim")
    reference = reference_strict_product(neg, sim)
    built = strict_product(neg, sim)
    first = built.values[0]
    assert built.cell("neg", (first,)) == reference.cell("neg", (first,))
    assert built.cell("sim", (first,)) == reference.cell("sim", (first,))
    assert 0 < len(built.interp["neg"]) < len(built.values)
    # the reference with one cell changed that the product has not read yet
    last = built.values[-1]
    changed = {conn: dict(cells) for conn, cells in reference.interp.items()}
    changed["neg"][(last,)] = reference.values
    altered = Nmatrix(reference.signature, reference.values, reference.designated, changed)
    assert not matrices_equal(built, altered)
    assert matrices_equal(built, reference)
    assert matrices_equal(reference, built)


@pytest.mark.parametrize(
    "build, conn, args",
    [
        (lambda: strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim")),
         "neg", ("(9,9)",)),
        (lambda: strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim")),
         "sim", ("(0,0)", "(0,0)")),
        (lambda: power(two_valued_matrix(standard_fragment("or")), 2), "or", ("(0,1)", "(0,1,1)")),
        (lambda: power(two_valued_matrix(standard_fragment("or")), 2), "or", ("(0,1)",)),
    ],
    ids=["product-unknown-value", "product-wrong-arity", "power-unknown-value", "power-wrong-arity"],
)
def test_out_of_range_cell_reads_raise_and_store_nothing(build, conn, args):
    m = build()
    with pytest.raises(KeyError):
        m.cell(conn, args)
    assert all(len(cells) == 0 for cells in m.interp.values())


def test_fibred_or_or2_at_power_4_is_built_on_demand():
    # W5: the 226-value product is handed out without its 102,152 cells
    f1, f2 = catalog_fragments("two_disj")
    start = time.perf_counter()
    m = fibred_semantics(f1, f2, 4)
    assert time.perf_counter() - start < 0.1
    sig = m.signature
    start = time.perf_counter()
    verdict = entails(m, [parse("or(p,or(q,r))", sig)], parse("or(or(r,q),p)", sig))
    assert isinstance(verdict, Holds) and time.perf_counter() - start < 1.0
