import pytest
from hypothesis import given, settings, strategies as st

from nmfib.syntax import (
    ParseError,
    Signature,
    SignatureError,
    Translation,
    app,
    apply_substitution,
    apply_translation,
    compose_substitutions,
    depth,
    identity_translation,
    is_subformula_closed,
    parse,
    params,
    skeleton,
    skeleton_var,
    subformula_closure,
    subformulas,
    text,
    union_translations,
    var,
    variables,
)

SIG = Signature.of({"or": 2, "and": 2, "neg": 1, "bot": 0})


def formulas(sig=SIG, max_depth=4):
    leaves = st.sampled_from([var("p"), var("q"), var("r"), app("bot", ())])

    def extend(children):
        conns = [("or", 2), ("and", 2), ("neg", 1)]
        return st.one_of(
            *[
                st.tuples(*[children] * k).map(lambda args, c=c: app(c, args))
                for c, k in conns
            ]
        )

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


def test_parse_examples():
    assert parse("or(p,q)", Signature.of({"or": 2})) == app("or", (var("p"), var("q")))
    # a bare identifier is a connective only when declared 0-ary
    assert parse("bot", Signature.of({"bot": 0})) == app("bot", ())
    assert parse("bot", Signature.of({})) == var("bot")
    # nestings
    two = parse("neg(neg(p))", Signature.of({"neg": 1}))
    assert two == app("neg", (app("neg", (var("p"),)),))


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as e:
        parse("or(p,", SIG)
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse("unknown(p)", SIG)
    with pytest.raises(ParseError):
        parse("or(p)", SIG)  # arity mismatch
    with pytest.raises(ParseError):
        parse("neg p", SIG)  # trailing input
    with pytest.raises(ParseError):
        parse("neg", SIG)  # declared connective needs arguments


@settings(max_examples=80, deadline=None)
@given(formulas())
def test_parse_print_round_trip(phi):
    assert parse(text(phi), SIG) == phi


def test_subformulas_and_vars():
    phi = parse("and(p,q)", SIG)
    assert set(subformulas(phi)) == {var("p"), var("q"), phi}
    assert variables(parse("neg(bot)", SIG)) == []
    sigma = {"p": parse("or(q,q)", SIG)}
    assert apply_substitution(sigma, parse("and(p,p)", SIG)) == parse("and(or(q,q),or(q,q))", SIG)


def test_depth():
    assert depth(var("p")) == 0 and depth(parse("bot", SIG)) == 0
    assert depth(parse("and(neg(p),or(q,neg(bot)))", SIG)) == 3
    chain = var("p")
    for _ in range(5000):
        chain = app("neg", (chain,))
    memo = {}
    assert depth(chain, memo) == 5000
    # the memo holds every subformula walked, so a second call reads it
    assert len(memo) == 5001 and depth(chain.args[0], memo) == 4999


@settings(max_examples=50, deadline=None)
@given(formulas(), formulas(), formulas())
def test_substitution_composition_associates(phi, a, b):
    sigma = {"p": a}
    tau = {"q": b, "p": var("p")}
    lhs = apply_substitution(tau, apply_substitution(sigma, phi))
    rhs = apply_substitution(compose_substitutions(sigma, tau), phi)
    assert lhs == rhs


def test_skeleton_examples():
    sig_or = Signature.of({"or": 2})
    sig_neg = Signature.of({"neg": 1})
    phi = parse("or(neg(or(p,q)),r)", SIG)
    skel = skeleton(phi, sig_or)
    assert skel == app("or", (skeleton_var(parse("neg(or(p,q))", SIG)), var("r")))
    assert skeleton(parse("or(p,q)", SIG), sig_or) == parse("or(p,q)", SIG)
    psi = parse("neg(or(p,q))", SIG)
    assert skeleton(psi, sig_neg) == app("neg", (skeleton_var(parse("or(p,q)", SIG)),))


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_skeleton_subformula_inclusion(phi):
    # sub(skel(phi)) is contained in skel(sub(phi)); equality when no head is alien
    sig_part = Signature.of({"or": 2, "bot": 0})
    skel = skeleton(phi, sig_part)
    lhs = set(subformulas(skel))
    rhs = {skeleton(psi, sig_part) for psi in subformulas(phi)}
    assert lhs <= rhs
    assert skeleton(phi, SIG) == phi


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_skeleton_closure_of_closed_sets(phi):
    sig_part = Signature.of({"and": 2, "neg": 1})
    closed = subformula_closure([phi])
    skels = {skeleton(psi, sig_part) for psi in closed}
    assert is_subformula_closed(skels)


def test_skeleton_vars_are_stable():
    phi = parse("or(p,q)", SIG)
    assert skeleton_var(phi) is skeleton_var(parse("or(p,q)", SIG))
    assert skeleton_var(phi) != skeleton_var(parse("or(q,p)", SIG))


def test_translation_examples():
    # coimplication via negation and implication
    target = Signature.of({"neg": 1, "imp": 2})
    t = Translation.of(
        Signature.of({"coimp": 2}),
        target,
        {"coimp": parse("neg(imp(p2,p1))", target)},
    )
    phi = app("coimp", (var("a"), var("b")))
    assert text(apply_translation(t, phi)) == "neg(imp(b,a))"

    ident = identity_translation(SIG)
    psi = parse("or(and(p,q),neg(bot))", SIG)
    assert apply_translation(ident, psi) == psi

    # a two-place conjunction-threshold unfolding right-associatively
    tgt = Signature.of({"and": 2})
    t2 = Translation.of(Signature.of({"t22": 2}), tgt, {"t22": parse("and(p1,p2)", tgt)})
    phi2 = app("t22", (var("p"), app("t22", (var("q"), var("r")))))
    assert text(apply_translation(t2, phi2)) == "and(p,and(q,r))"


def test_translation_validation():
    tgt = Signature.of({"neg": 1})
    with pytest.raises(SignatureError):
        Translation.of(Signature.of({"c": 1}), tgt, {"c": parse("neg(p2)", tgt)})
    with pytest.raises(SignatureError):
        Translation.of(Signature.of({"c": 1}), tgt, {})


def test_union_translations_requires_disjoint_sources():
    t1 = identity_translation(Signature.of({"or": 2}))
    t2 = identity_translation(Signature.of({"or": 2}))
    with pytest.raises(SignatureError):
        union_translations(t1, t2)
    t3 = identity_translation(Signature.of({"and": 2}))
    both = union_translations(t1, t3)
    assert set(both.source.names()) == {"or", "and"}


@settings(max_examples=50, deadline=None)
@given(formulas())
def test_translation_commutes_with_renamings(phi):
    t = identity_translation(SIG)
    sigma = {"p": var("x"), "q": var("y"), "r": var("r")}
    assert apply_translation(t, apply_substitution(sigma, phi)) == apply_substitution(
        sigma, apply_translation(t, phi)
    )


def test_signature_operations():
    s1 = Signature.of({"or": 2})
    s2 = Signature.of({"neg": 1})
    assert s1.disjoint_from(s2)
    assert not s1.disjoint_from(Signature.of({"or": 2, "top": 0}))
    with pytest.raises(SignatureError):
        s1.union(Signature.of({"or": 3}))
    # the cached arity map takes no part in equality, hashing or repr
    both = s1.union(s2)
    pairs = (("neg", 1), ("or", 2))
    assert (both, hash(both), repr(both)) == (Signature(pairs), hash((pairs,)), f"Signature(connectives={pairs!r})")
    assert (both.arity("neg"), both.arity("and"), "or" in both, s1 <= both, both <= s1) == (1, None, True, True, False)
    assert params(2) == (var("p1"), var("p2"))
