"""Tests of formulas, parsing, substitution and translations.

reference_parse, reference_depth and reference_substitution below are
parse, depth and apply_substitution as they stood before every formula
walk became iterative: a recursive-descent parser, a depth walk with its
own memo, and a recursive substitution.  The library's versions must agree
with them wherever the references do not exhaust the interpreter stack.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from nmfib.syntax import (
    _IDENT,
    App,
    Formula,
    ParseError,
    Signature,
    SignatureError,
    Translation,
    Var,
    app,
    apply_substitution,
    depth,
    parse,
    params,
    subformula_closure,
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
    # read off the canonical key, which a walk far past the interpreter's
    # recursion limit fills in
    assert depth(chain) == 5000 == reference_depth(chain)
    assert depth(chain.args[0]) == 4999


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
    assert (both.arity("neg"), both.arity("and"), "or" in both) == (1, None, True)
    assert params(2) == (var("p1"), var("p2"))


# ---------------------------------------------------------------------------
# The iterative walks against the recursive functions they replaced
# ---------------------------------------------------------------------------

def reference_parse(src: str, sig: Signature) -> Formula:
    """parse as a recursive-descent parser, as it stood before it kept its
    open applications on a stack."""
    pos = 0
    n = len(src)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and src[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= n or src[pos] != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    def ident() -> str:
        nonlocal pos
        skip_ws()
        m = _IDENT.match(src, pos)
        if m is None:
            raise ParseError("expected identifier", pos)
        pos = m.end()
        return m.group()

    def formula() -> Formula:
        nonlocal pos
        start = pos
        name = ident()
        skip_ws()
        if pos < n and src[pos] == "(":
            pos += 1
            args = [formula()]
            skip_ws()
            while pos < n and src[pos] == ",":
                pos += 1
                args.append(formula())
                skip_ws()
            expect(")")
            k = sig.arity(name)
            if k is None:
                raise ParseError(f"unknown connective {name!r}", start)
            if k != len(args):
                raise ParseError(f"connective {name!r} takes {k} arguments, got {len(args)}", start)
            return app(name, args)
        if sig.arity(name) == 0:
            return app(name, ())
        k = sig.arity(name)
        if k is not None and k > 0:
            raise ParseError(f"connective {name!r} of arity {k} needs arguments", start)
        return var(name)

    phi = formula()
    skip_ws()
    if pos != n:
        raise ParseError("trailing input", pos)
    return phi


def reference_depth(phi: Formula, memo: Optional[dict[Formula, int]] = None) -> int:
    """depth as it stood before it read the canonical key: its own
    explicit-stack walk, with a memo a caller could share."""
    if memo is None:
        memo = {}
    stack = [phi]
    while stack:
        psi = stack[-1]
        if psi in memo:
            stack.pop()
        elif isinstance(psi, Var) or not psi.args:
            memo[psi] = 0
            stack.pop()
        else:
            missing = [a for a in psi.args if a not in memo]
            if missing:
                stack.extend(missing)
            else:
                memo[psi] = 1 + max(memo[a] for a in psi.args)
                stack.pop()
    return memo[phi]


def reference_substitution(sigma, phi: Formula) -> Formula:
    """apply_substitution as it stood before it walked an explicit stack."""
    if isinstance(phi, Var):
        return sigma.get(phi.name, phi)
    return app(phi.head, tuple(reference_substitution(sigma, a) for a in phi.args))


def _outcome(parser, src: str):
    """The formula parser makes of src, or the message and position of the
    ParseError it raises."""
    try:
        return parser(src, SIG)
    except ParseError as exc:
        return str(exc), exc.position


@st.composite
def source_texts(draw):
    """Formula texts: printed formulas, perhaps padded with whitespace
    (between tokens or inside identifiers), then perhaps cut short or with
    one character replaced, inserted or deleted."""
    src = text(draw(formulas()))
    if draw(st.booleans()):
        pads = st.text(alphabet=" \t\n", max_size=3)
        src = "".join(draw(pads) + ch for ch in src) + draw(pads)
    kind = draw(st.sampled_from(["valid", "truncated", "mutated"]))
    if kind == "truncated":
        src = src[: draw(st.integers(0, max(len(src) - 1, 0)))]
    elif kind == "mutated":
        i = draw(st.integers(0, len(src)))
        ch = draw(st.sampled_from(list("(),pqx_9 neg") + ["or", "bot", "and("]))
        src = draw(st.sampled_from([src[:i] + ch + src[i + 1 :], src[:i] + ch + src[i:], src[:i] + src[i + 1 :]]))
    return src


@settings(max_examples=400, deadline=None)
@given(source_texts())
def test_parse_agrees_with_recursive_reference(src):
    # the same formula, or the same ParseError message and position
    assert _outcome(parse, src) == _outcome(reference_parse, src)


def test_parse_agrees_with_reference_on_every_error():
    for src in ["", "  ", "(", "or(p,", "or(p", "or(p q)", "or(p,q))", "or(p)", "or(p,q,r)", "unknown(p)",
                "neg", "neg p", " neg ( ) ", "p,", "bot(p)", "9", "or(,q)", "neg(neg(p)", "neg(p) q",
                # errors reported where the formula starts, whitespace before it included
                " neg", "or( neg ,p)", " unknown (p)", "or(p,\t or(p))", " bot ( p )"]:
        assert _outcome(parse, src) == _outcome(reference_parse, src), src


def test_parse_takes_any_nesting():
    # the recursive reference exhausts the interpreter stack near nesting 1000
    for d in (3000, 20000):
        phi = parse("neg(" * d + "p" + ")" * d, SIG)
        assert depth(phi) == d
        assert isinstance(phi, App) and phi.head == "neg"
    with pytest.raises(ParseError) as e:
        parse("neg(" * 3000 + "p" + ")" * 2999, SIG)
    assert (str(e.value), e.value.position) == ("expected ')' (at position 15000)", 15000)


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_depth_agrees_with_reference(phi):
    assert depth(phi) == reference_depth(phi)


@settings(max_examples=150, deadline=None)
@given(formulas(), formulas(), formulas())
def test_substitution_agrees_with_recursive_reference(phi, a, b):
    sigma = {"p": a, "q": b}
    assert apply_substitution(sigma, phi) is reference_substitution(sigma, phi)
    assert apply_substitution({}, phi) is phi


def test_substitution_takes_any_nesting():
    chain = var("p")
    for _ in range(5000):
        chain = app("neg", (chain,))
    doubled = apply_substitution({"p": chain}, chain)
    assert depth(doubled) == 10000 and apply_substitution({"p": var("p")}, doubled) is doubled


@settings(max_examples=150, deadline=None)
@given(st.lists(formulas(), max_size=4))
def test_subformula_closure_lists_arguments_before_parents(phis):
    # bottom-up evaluations (boolfun.function_of_formula,
    # matrixops.translate_matrix, calculus.renamed) rely on this order
    closure = subformula_closure(phis)
    place = {psi: i for i, psi in enumerate(closure)}
    assert len(place) == len(closure) and all(phi in place for phi in phis)
    for i, psi in enumerate(closure):
        if isinstance(psi, App):
            assert all(place[a] < i for a in psi.args), text(psi)
