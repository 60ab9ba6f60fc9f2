"""Tests of formulas, parsing, substitution and translations.

reference_parse, reference_depth and reference_substitution below are
parse, depth and apply_substitution as they stood before every formula
walk became iterative: a recursive-descent parser, a depth walk with its
own memo, and a recursive substitution.  The library's versions must agree
with them wherever the references do not exhaust the interpreter stack.

reference_postorder and reference_depth_first are the post-order walk and
the depth-first search over paths written recursively, and
reference_canon_key and reference_check_well_formed are the explicit-stack
loops canon_key and check_well_formed ran before they followed postorder.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from nmfib import bundled
from nmfib.boolfun import DERIVED_TRANSLATIONS, _derivation_fragment
from nmfib.calculus import load_calculus
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
    canon_key,
    check_well_formed,
    depth,
    depth_first,
    fresh_var,
    instance_lookup,
    parse,
    params,
    postorder,
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
    closure = subformula_closure(phis)
    place = {psi: i for i, psi in enumerate(closure)}
    assert len(place) == len(closure) and all(phi in place for phi in phis)
    for i, psi in enumerate(closure):
        if isinstance(psi, App):
            assert all(place[a] < i for a in psi.args), text(psi)


# ---------------------------------------------------------------------------
# postorder, and the walks that follow it, against references
# ---------------------------------------------------------------------------

def reference_postorder(roots, children=lambda phi: phi.args if isinstance(phi, App) else ()) -> list:
    """Each node reachable from the roots once, right after its children,
    by a recursive walk."""
    out: list = []
    seen: set = set()

    def visit(node) -> None:
        if node not in seen:
            for child in children(node):
                visit(child)
            seen.add(node)
            out.append(node)

    for root in roots:
        visit(root)
    return out


def reference_canon_key(phi: Formula, keys: dict[Formula, tuple]) -> tuple:
    """canon_key's explicit-stack loop as it stood before postorder, with
    the keys kept in keys instead of on the formulas."""
    stack = [phi]
    while stack:
        psi = stack[-1]
        if isinstance(psi, Var):
            keys[psi] = (1, psi.name, False, 0)
            stack.pop()
            continue
        missing = [a for a in psi.args if a not in keys]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if psi in keys:
            continue
        arg_keys = [keys[a] for a in psi.args]
        label = f"{psi.head}({','.join(k[1] for k in arg_keys)})" if arg_keys else psi.head
        height = 1 + max(k[3] for k in arg_keys) if arg_keys else 0
        keys[psi] = (1 + sum(k[0] for k in arg_keys), label, True, height)
    return keys[phi]


def reference_check_well_formed(phi: Formula, sig: Signature) -> None:
    """check_well_formed's pre-order loop as it stood before postorder."""
    arities = sig._arities
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        psi = stack.pop()
        if isinstance(psi, Var) or psi in seen:
            continue
        seen.add(psi)
        k = arities.get(psi.head)
        if k is None:
            raise SignatureError(f"connective {psi.head!r} not in signature")
        if k != len(psi.args):
            raise SignatureError(f"connective {psi.head!r} has arity {k}, got {len(psi.args)} arguments")
        stack.extend(reversed(psi.args))


def random_dag(rng: random.Random, prefix: str, connectives=(("or", 2), ("and", 2), ("neg", 1)), max_depth=500):
    """Formulas sharing subformulas: each new compound takes its arguments
    mostly from the last few built, so the nesting grows up to max_depth.
    A compound whose printed text would pass about 10^5 characters is not
    built.  The variable names start with prefix, so the compounds are new."""
    pool: list[Formula] = [var(f"{prefix}{i}") for i in range(3)] + [app("bot", ())]
    height = dict.fromkeys(pool, 0)
    size = dict.fromkeys(pool, 1)  # of the formula as a tree
    for _ in range(rng.randrange(1, 700)):
        conn, k = rng.choice(connectives)
        args = tuple(rng.choice(pool[-4:] if rng.random() < 0.8 else pool) for _ in range(k))
        if args and max(height[a] for a in args) >= max_depth or sum(size[a] for a in args) > 10000:
            continue
        phi = app(conn, args)
        height.setdefault(phi, 1 + max((height[a] for a in args), default=-1))
        size.setdefault(phi, 1 + sum(size[a] for a in args))
        pool.append(phi)
    return [rng.choice(pool) for _ in range(rng.randrange(1, 4))] + [pool[-1]]


def test_postorder_agrees_with_recursive_reference_on_shared_dags():
    rng = random.Random(26)
    for trial in range(60):
        roots = random_dag(rng, f"w{trial}_")
        assert list(postorder(roots)) == reference_postorder(roots)
    # any hashable node: step numbers whose children are earlier steps
    for _ in range(60):
        n = rng.randrange(1, 300)
        premises = {i: tuple(rng.sample(range(i), min(i, rng.randrange(3)))) for i in range(n)}
        roots = [rng.randrange(n) for _ in range(3)]
        assert list(postorder(roots, premises.__getitem__)) == reference_postorder(roots, premises.__getitem__)


def _assert_each_once_after_children(order: list, children) -> None:
    place = {node: i for i, node in enumerate(order)}
    assert len(place) == len(order)
    for i, node in enumerate(order):
        assert all(place[c] < i for c in children(node))


def test_postorder_takes_any_depth_and_width():
    args = lambda phi: phi.args if isinstance(phi, App) else ()
    chain = var("p")
    for _ in range(100000):
        chain = app("neg", (chain,))
    order = list(postorder([chain]))
    assert len(order) == 100001 and order[0] is var("p") and order[-1] is chain
    _assert_each_once_after_children(order, args)
    # 10,000 arguments: the variables x0, x2, ..., and neg(x1), neg(x3), ...
    # with x1 ... x4999 each negated twice
    wide = app("w", tuple(app("neg", (var(f"x{i % 5000}"),)) if i % 2 else var(f"x{i}") for i in range(10000)))
    shared = app("neg", (var("x1"),))
    order = list(postorder([shared, wide, shared]))
    assert len(order) == 5000 + 2500 + 2500 + 1
    assert order[:2] == [var("x1"), shared] and order[-1] is wide
    _assert_each_once_after_children(order, args)


def reference_depth_first(n: int, children) -> list[tuple]:
    """Each path of n nodes, by a recursive walk that hands children a
    fresh list of the path above the level."""
    out: list[tuple] = []

    def visit(path: list) -> None:
        if len(path) == n:
            out.append(tuple(path))
            return
        for node in children(len(path), path):
            visit(path + [node])

    visit([])
    return out


def _seeded_tree(seed: int, n: int):
    """children(i, path) for a tree of n levels whose fan-out, 0 to 3, and
    nodes depend on the seed and the path above the level; the calls are
    recorded, and every other level lists its children through a generator."""
    calls: list[tuple] = []

    def children(i: int, path: list):
        above = tuple(path[:i])
        calls.append((i, above))
        rng = random.Random(hash((seed, above)))
        nodes = [rng.randrange(10) for _ in range(rng.randrange(4))]
        return nodes if i % 2 else iter(nodes)

    return children, calls


def test_depth_first_agrees_with_recursive_reference_on_seeded_trees():
    for seed in range(200):
        n = seed % 7
        children, calls = _seeded_tree(seed, n)
        got = [tuple(path) for path in depth_first(n, children)]
        walked = list(calls)
        calls.clear()
        assert got == reference_depth_first(n, children)
        # the same children calls, in the same order: one per node above the last level
        assert walked == calls
    # no level: one empty path, and children is never called
    children, calls = _seeded_tree(0, 0)
    assert list(depth_first(0, children)) == [[]] and calls == []


def test_depth_first_takes_any_depth():
    paths = [list(path) for path in depth_first(10000, lambda i, path: [i] if i == 0 else [path[i - 1] + 1])]
    assert paths == [list(range(10000))]


def bundled_formulas() -> list[Formula]:
    """The formulas of every bundled calculus and translation, and of the
    derived connectives boolfun defines."""
    out = []
    for stem in bundled.stems("calculus"):
        calc = load_calculus(bundled.read(f"{stem}.json", "calculus", builtin=True))
        out += [f for r in calc.rules for f in (*r.premises, r.conclusion)]
    frag_sig = _derivation_fragment().signature
    for stem in bundled.stems("translation"):
        mapping = bundled.read(f"{stem}.json", "translation", builtin=True)["mapping"]
        out += [parse(src, Signature.of({"neg": 1, "imp": 2})) for src in mapping.values()]
    out += [parse(src, frag_sig) for _, src in DERIVED_TRANSLATIONS.values()]
    return out


def test_canon_key_agrees_with_reference_loop():
    rng = random.Random(27)
    roots = bundled_formulas() + [phi for trial in range(40) for phi in random_dag(rng, f"k{trial}_")]
    keys: dict[Formula, tuple] = {}
    for phi in roots:
        # the walk enters only formulas without a key: both fresh and
        # partly keyed compounds are checked
        assert canon_key(phi) == reference_canon_key(phi, keys), text(phi)
    for phi in keys:
        assert canon_key(phi) == keys[phi]


def test_check_well_formed_names_what_the_reference_loop_names():
    rng = random.Random(28)
    wrong = (("or", 2), ("neg", 1), ("neg", 2), ("foo", 1), ("bar", 3), ("bot", 1))
    roots = bundled_formulas() + [
        phi for trial in range(200) for phi in random_dag(rng, f"c{trial}_", wrong if trial % 2 else wrong[:2], 30)
    ]
    for phi in [*roots, parse("foo(bar(p))", Signature.of({"foo": 1, "bar": 1}))]:
        outcomes = []
        for check in (check_well_formed, reference_check_well_formed):
            try:
                outcomes.append(check(phi, SIG))
            except SignatureError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], text(phi)
    with pytest.raises(SignatureError, match="connective 'foo' not in signature"):
        check_well_formed(parse("foo(bar(p))", Signature.of({"foo": 1, "bar": 1})), SIG)


def test_instance_lookup_and_fresh_var_follow_the_walk():
    rng = random.Random(29)
    for trial in range(30):
        for phi in random_dag(rng, f"i{trial}_", max_depth=40):
            sigma = {f"i{trial}_0": app("neg", (var("q"),)), f"i{trial}_1": var(f"i{trial}_2")}
            assert instance_lookup(phi, True)(sigma) is reference_substitution(sigma, phi)
            assert instance_lookup(phi)(sigma) is reference_substitution(sigma, phi)
            # an instance that does not exist yet is looked up as None
            tau = {f"i{trial}_0": var(f"new{trial}")}
            got = instance_lookup(phi)(tau)
            grown = isinstance(phi, App) and var(f"i{trial}_0") in reference_postorder([phi])
            assert got is (None if grown else reference_substitution(tau, phi))
            names = {v.name for v in reference_postorder([phi]) if isinstance(v, Var)}
            assert fresh_var([phi, var("w")]).name not in names | {"w"}
