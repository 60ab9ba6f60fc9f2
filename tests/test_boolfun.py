import math
import random

import pytest

from nmfib import bundled
from nmfib.boolfun import (
    BooleanFunction,
    DERIVED_TRANSLATIONS,
    PRIMITIVE_TABLES,
    FragmentSpec,
    _derivation_fragment,
    _row_args,
    classify,
    clone_closure_at_arity,
    find_expression,
    function_of_formula,
    functionally_complete,
    inside,
    nontop_unary_witness,
    post_predicates,
    separation_degree,
    standard_fragment,
    standard_function,
    threshold_function,
    load_fragment,
)
from nmfib.syntax import Formula, SignatureError, Var, app, apply_substitution, params, parse, text, var
from test_clone_reference import reference_closure


def bf(s, k):
    return BooleanFunction.from_string(s, k)


def threshold_formula(k: int, n: int) -> Formula:
    """thr_k_n as a derived connective over the primitives, the reference
    for the closed-form tables of threshold_function.

    thr_k_0 is top, thr_k_k is the k-fold conjunction, and in between
    thr_k_n(p1..pk) = (p1 and thr_{k-1}_{n-1}(p2..pk)) or thr_{k-1}_n(p2..pk).
    """
    assert 0 <= n <= k

    def build(names: tuple[Var, ...], need: int) -> Formula:
        if need == 0:
            return app("top", ())
        if need == len(names):
            out: Formula = names[-1]
            for v in reversed(names[:-1]):
                out = app("and", (v, out))
            return out
        return app("or", (app("and", (names[0], build(names[1:], need - 1))), build(names[1:], need)))

    return build(params(k), n)


def test_bit_order_is_big_endian_first_argument():
    f = standard_function("or")
    assert f.to_string() == "0111"
    assert f(0, 0) == 0 and f(0, 1) == 1 and f(1, 0) == 1 and f(1, 1) == 1
    g = standard_function("coimp")
    # true exactly when the first argument is false and the second true
    assert g(0, 1) == 1 and g(0, 0) == 0 and g(1, 0) == 0 and g(1, 1) == 0


def test_classify_examples():
    c_and = classify(standard_function("and"))
    assert c_and.projection_conjunction == (1, 2)
    assert c_and.truth_preserving and not c_and.very_significant

    c_neg = classify(standard_function("neg"))
    assert c_neg.very_significant and c_neg.significant

    c_coimp = classify(standard_function("coimp"))
    assert c_coimp.significant and c_coimp.very_significant
    assert not c_coimp.truth_preserving

    assert classify(standard_function("top")).top_like
    assert classify(standard_function("bot")).bottom_like
    # affirmation is a projection-conjunction on its only argument
    assert classify(bf("01", 1)).projection_conjunction == (1,)


def test_classify_consistency_exhaustive():
    for k in (0, 1, 2):
        for bits in range(1 << (1 << k)):
            f = BooleanFunction(k, bits)
            c = classify(f)
            if c.top_like:
                assert c.projection_conjunction == ()
            assert c.very_significant == (not c.bottom_like and c.projection_conjunction is None)
            if c.projection_conjunction is not None:
                assert c.truth_preserving


def test_post_predicates_examples():
    p_and = post_predicates(standard_function("and"))
    assert (p_and.preserves0, p_and.preserves1, p_and.monotone, p_and.affine, p_and.self_dual) == (
        True,
        True,
        True,
        False,
        False,
    )
    p_maj = post_predicates(standard_function("thr_3_2"))
    assert p_maj.self_dual and p_maj.monotone
    p_iff = post_predicates(standard_function("iff"))
    assert p_iff.affine and p_iff.preserves1 and not p_iff.preserves0


def _clone_of_top(f):
    return inside([f], "P1", "N", "M")


def _clone_of_biimp(f):
    return inside([f], "P1", "L")


def test_clone_membership_examples():
    assert _clone_of_biimp(standard_function("iff"))
    assert not _clone_of_biimp(standard_function("xor"))
    assert _clone_of_biimp(standard_function("xor3"))
    assert not inside([standard_function("or")], "E")
    assert inside([standard_function("thr_3_3")], "E")
    assert inside([standard_function("or"), standard_function("bot")], "V")
    assert _clone_of_top(bf("1111", 2))
    assert _clone_of_top(bf("0011", 2))  # first projection
    assert not _clone_of_top(standard_function("and"))
    assert inside([standard_function("neg"), bf("1010", 2)], "N")
    assert not inside([standard_function("xor")], "N")


def test_clone_closure_examples():
    closure = clone_closure_at_arity([standard_function("iff")], 2)
    assert {f.to_string() for f in closure} == {"0011", "0101", "1001", "1111"}
    assert {f.to_string() for f in clone_closure_at_arity([], 2)} == {"0011", "0101"}
    assert {f.to_string() for f in clone_closure_at_arity([standard_function("and")], 2)} == {
        "0011",
        "0101",
        "0001",
    }
    with pytest.raises(ValueError):
        clone_closure_at_arity([standard_function("and")], 5)
    with pytest.raises(ValueError):
        clone_closure_at_arity([standard_function("and")], 0)


def test_closed_forms_agree_with_closure_exhaustively():
    # the brute-force closure of each clone's generators is the oracle
    gens = {
        "top": ([standard_function("top")], _clone_of_top),
        "atb": (
            [standard_function("and"), standard_function("top"), standard_function("bot")],
            lambda f: inside([f], "E"),
        ),
        "biimp": ([standard_function("iff")], _clone_of_biimp),
        # the partner clones that decide_fc_recovery names in closed form
        "D": ([standard_function("thr_3_2"), standard_function("neg")], lambda f: inside([f], "D")),
        "T0_inf": ([standard_function("coimp")], lambda f: separation_degree(f) == math.inf),
        "T0_1": ([standard_function("or"), standard_function("coimp")], lambda f: separation_degree(f) >= 1),
        "T0_2": ([standard_function("thr_3_2"), standard_function("coimp")], lambda f: separation_degree(f) >= 2),
    }
    for k in (1, 2, 3):
        for name, (g, test) in gens.items():
            closure = reference_closure(g, k)
            for bits in range(1 << (1 << k)):
                f = BooleanFunction(k, bits)
                assert test(f) == (f in closure), (name, k, f.to_string())


def test_functional_completeness_examples():
    assert functionally_complete(standard_fragment("or", "neg"))
    assert functionally_complete(standard_fragment("coimp", "top"))
    frag = standard_fragment("and", "or", "top", "bot")
    assert not functionally_complete(frag) and inside(frag.tables(), "M")
    frag = standard_fragment("iff", "bot")
    assert not functionally_complete(frag) and inside(frag.tables(), "L")


def test_post_predicates_closed_under_composition():
    # any closure of predicate-satisfying generators stays inside the predicate
    rng = random.Random(5)
    preds = {
        "preserves0": lambda f: post_predicates(f).preserves0,
        "monotone": lambda f: post_predicates(f).monotone,
        "affine": lambda f: post_predicates(f).affine,
        "self_dual": lambda f: post_predicates(f).self_dual,
    }
    pool = [BooleanFunction(2, bits) for bits in range(16)]
    for name, pred in preds.items():
        gens = [f for f in pool if pred(f)]
        sample = rng.sample(gens, min(3, len(gens)))
        for f in reference_closure(sample, 2):
            assert pred(f), (name, f.to_string())


def test_threshold_tables():
    for k in range(0, 5):
        for n in range(0, k + 1):
            f = threshold_function(k, n)
            for row in range(1 << k):
                assert f.on_row(row) == (1 if bin(row).count("1") >= n else 0), (k, n, row)
    with pytest.raises(ValueError):
        threshold_function(2, 3)


def test_nontop_unary_witness_examples():
    assert text(nontop_unary_witness("or", standard_function("or"))) == "or(p,p)"
    assert text(nontop_unary_witness("imp", standard_function("imp"))) == "imp(imp(p,p),p)"
    assert text(nontop_unary_witness("bot1", bf("00", 1))) == "bot1(p)"
    with pytest.raises(ValueError):
        nontop_unary_witness("top2", bf("11", 1))


def test_nontop_witness_nestings_never_tautologous():
    # theta^n(p) is falsifiable for every non-top-like connective and n <= 4
    for k in (1, 2):
        for bits in range(1 << (1 << k)):
            f = BooleanFunction(k, bits)
            if classify(f).top_like:
                continue
            theta = nontop_unary_witness("c", f)
            frag = FragmentSpec.of({"c": f})
            nested = var("p1")
            renamed = apply_substitution({"p": var("p1")}, theta)
            for _ in range(4):
                nested = apply_substitution({"p1": nested}, renamed)
                table = function_of_formula(nested, frag, 1)
                assert not classify(table).top_like


def test_expression_search_reproduces_derived_connectives():
    bow = bf("00000111", 3)
    e = find_expression(standard_fragment("coimp"), bow)
    assert e is not None
    assert function_of_formula(e, standard_fragment("coimp"), 3) == bow
    e2 = find_expression(standard_fragment("imp"), standard_function("or"))
    assert e2 is not None
    assert find_expression(standard_fragment("coimp"), standard_function("thr_3_2")) is None


def _derived(src, names):
    from nmfib.syntax import parse

    frag = standard_fragment(*names)
    return function_of_formula(parse(src, frag.signature), frag, 3)


def test_short_list_memberships_rederived_by_closure():
    # every connective on the long interaction list expresses one of the five
    # short-list connectives; the two affine-1-preserving exceptions express
    # none of them.  Derived by expression search, not trusted from a table.
    short = [
        standard_function("or"),
        standard_function("thr_3_2"),
        standard_function("neg"),
        standard_function("xor"),
        bf("00000111", 3),  # first-and-(second-or-third)
    ]
    long_list = {
        "thr_3_2": standard_function("thr_3_2"),
        "thr_4_3": standard_function("thr_4_3"),
        "thr_4_2": standard_function("thr_4_2"),
        "neg": standard_function("neg"),
        "imp": standard_function("imp"),
        "coimp": standard_function("coimp"),
        "xor": standard_function("xor"),
        "if3": standard_function("if3"),
        "or_of_and": _derived("or(p1,and(p2,p3))", ("or", "and")),
        "or_of_xor": _derived("or(p1,xor(p2,p3))", ("or", "xor")),
        "and_of_or": bf("00000111", 3),
        "and_of_imp": _derived("and(p1,imp(p2,p3))", ("and", "imp")),
    }
    for name, fn in long_list.items():
        frag = FragmentSpec.of({"c": fn})
        hits = [t for t in short if find_expression(frag, t) is not None]
        assert hits, name
    for name in ("iff", "xor3"):
        frag = FragmentSpec.of({"c": standard_function(name)})
        hits = [t for t in short if find_expression(frag, t) is not None]
        assert not hits, name


def test_fragment_files_round_trip():
    # every bundled fragment file is given back by its loaded tables
    for stem in bundled.stems("fragment"):
        entries = bundled.read(f"{stem}.json", "fragment")["connectives"]
        frag = load_fragment({"connectives": entries})
        back = [{"name": name, "arity": f.arity, "table": f.to_string()} for name, f in frag.functions]
        assert back == sorted(entries, key=lambda e: e["name"]), stem
    with pytest.raises(ValueError):
        load_fragment({"connectives": []})


def test_separation_degree_lifts_0_place_constants():
    for value in (0, 1):
        assert separation_degree(BooleanFunction(0, value)) == separation_degree(BooleanFunction(1, 0b11 * value))
    assert separation_degree(BooleanFunction(0, 1)) == 0 and separation_degree(BooleanFunction(0, 0)) == math.inf


def test_fragment_clone_membership_with_constants():
    assert inside(standard_fragment("and", "top", "bot").tables(), "E")
    assert not inside(standard_fragment("or").tables(), "E")
    assert inside(standard_fragment("iff", "top").tables(), "P1", "L")
    assert not inside(standard_fragment("iff", "bot").tables(), "P1", "L")
    # a 0-place connective is its unary constant in every irreducible clone
    for value in (0, 1):
        for clone in ("P0", "P1", "M", "D", "L", "E", "V", "N"):
            assert inside([BooleanFunction(0, value)], clone) == inside([BooleanFunction(1, 0b11 * value)], clone)


def reference_function_of_formula(phi: Formula, frag: FragmentSpec, k: int) -> BooleanFunction:
    """function_of_formula as it stood before it composed whole tables:
    phi evaluated recursively once per row."""
    allowed = {f"p{i}" for i in range(1, k + 1)}

    def eval_at(psi: Formula, env: dict[str, int]) -> int:
        if isinstance(psi, Var):
            if psi.name not in allowed:
                raise SignatureError(f"variable {psi.name} outside p1..p{k}")
            return env[psi.name]
        f = frag.function(psi.head)
        return f(*(eval_at(a, env) for a in psi.args))

    bits = 0
    for row in range(1 << k):
        env = {f"p{i + 1}": b for i, b in enumerate(_row_args(row, k))}
        if eval_at(phi, env):
            bits |= 1 << row
    return BooleanFunction(k, bits)


def _random_formula(rng: random.Random, frag: FragmentSpec, k: int, size: int) -> Formula:
    """A formula of the fragment over p1..pk with about size connectives."""
    if size <= 0 or rng.random() < 0.2:
        leaves = [var(f"p{i}") for i in range(1, k + 1)]
        leaves += [app(n, ()) for n, f in frag.functions if f.arity == 0]
        return rng.choice(leaves)
    name, f = rng.choice(frag.functions)
    return app(name, tuple(_random_formula(rng, frag, k, (size - 1) // max(f.arity, 1)) for _ in range(f.arity)))


def test_function_of_formula_agrees_with_reference_on_standard_tables():
    frag = _derivation_fragment()
    for name, (k, _) in PRIMITIVE_TABLES.items():
        phi = app(name, params(k))
        assert function_of_formula(phi, frag, k) == reference_function_of_formula(phi, frag, k) == standard_function(name)
    for name, (k, src) in DERIVED_TRANSLATIONS.items():
        phi = parse(src, frag.signature)
        assert function_of_formula(phi, frag, k) == reference_function_of_formula(phi, frag, k) == standard_function(name)
    for k in range(1, 5):
        for n in range(k + 1):
            phi = threshold_formula(k, n)
            assert function_of_formula(phi, frag, k) == reference_function_of_formula(phi, frag, k), (k, n)
            assert threshold_function(k, n) == function_of_formula(phi, frag, k)


def test_function_of_formula_agrees_with_reference_on_bundled_fragments():
    rng = random.Random(22)
    for stem in bundled.stems("fragment"):
        frag = load_fragment(bundled.read(f"{stem}.json", "fragment"))
        for k in (1, 2, 3):
            for size in (1, 3, 8, 20):
                phi = _random_formula(rng, frag, k, size)
                assert function_of_formula(phi, frag, k) == reference_function_of_formula(phi, frag, k), (stem, text(phi))
        for name, f in frag.functions:
            assert function_of_formula(app(name, params(f.arity)), frag, f.arity) == f, (stem, name)


def test_function_of_formula_errors():
    frag = standard_fragment("or", "neg")
    for phi, k in ((parse("or(p1,p3)", frag.signature), 2), (var("q"), 1), (var("p1"), 0)):
        with pytest.raises(SignatureError) as got:
            function_of_formula(phi, frag, k)
        with pytest.raises(SignatureError) as want:
            reference_function_of_formula(phi, frag, k)
        assert str(got.value) == str(want.value)
    with pytest.raises(SignatureError, match="connective 'and' not in fragment"):
        function_of_formula(app("and", params(2)), frag, 2)
    # a deep formula is composed without recursion
    chain = var("p1")
    for _ in range(3001):
        chain = app("neg", (chain,))
    assert function_of_formula(chain, frag, 1) == standard_function("neg")
