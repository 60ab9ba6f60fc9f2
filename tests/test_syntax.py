import pytest
from hypothesis import given, settings, strategies as st

from nmfib.syntax import (
    ParseError,
    Signature,
    SignatureError,
    Translation,
    app,
    apply_substitution,
    depth,
    parse,
    params,
    subformulas,
    text,
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


def test_translation_validation():
    tgt = Signature.of({"neg": 1})
    with pytest.raises(SignatureError):
        Translation.of(Signature.of({"c": 1}), tgt, {"c": parse("neg(p2)", tgt)})
    with pytest.raises(SignatureError):
        Translation.of(Signature.of({"c": 1}), tgt, {})


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
