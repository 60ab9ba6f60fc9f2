"""Signatures, formulas, parsing/printing, substitutions, translations, skeletons.

Formulas are plain trees over a ranked alphabet of connectives.  The text
grammar is deliberately minimal:

    formula := ident | ident '(' formula (',' formula)* ')'

A bare identifier is a 0-place connective if the ambient signature declares
one of that name, and a sentential variable otherwise.  Everything is
immutable.  Formulas are hash-consed: var() and app() are the only
constructors and return one shared object per formula, so formulas compare
and hash by identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "SignatureError",
    "ParseError",
    "Signature",
    "Var",
    "App",
    "Formula",
    "var",
    "app",
    "interned_instance",
    "text",
    "is_var",
    "depth",
    "size",
    "subformulas",
    "variables",
    "subformula_closure",
    "is_subformula_closed",
    "canon_key",
    "canon_sort",
    "check_well_formed",
    "parse",
    "Substitution",
    "apply_substitution",
    "compose_substitutions",
    "Translation",
    "identity_translation",
    "union_translations",
    "apply_translation",
    "params",
    "skeleton_var",
    "is_skeleton_var",
    "skeleton",
    "fresh_var",
]


class SignatureError(ValueError):
    """A signature is ill-formed or two signatures clash."""


class ParseError(ValueError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Signature:
    """A ranked alphabet: finitely many named connectives, each with an arity."""

    connectives: tuple[tuple[str, int], ...]

    @staticmethod
    def of(items: Union[Mapping[str, int], Iterable[tuple[str, int]]]) -> "Signature":
        pairs = sorted(items.items()) if isinstance(items, Mapping) else sorted(items)
        seen: dict[str, int] = {}
        for name, arity in pairs:
            if not _IDENT.fullmatch(name):
                raise SignatureError(f"bad connective name {name!r}")
            if arity < 0:
                raise SignatureError(f"negative arity for {name!r}")
            if name in seen and seen[name] != arity:
                raise SignatureError(f"connective {name!r} declared with arities {seen[name]} and {arity}")
            seen[name] = arity
        return Signature(tuple(sorted(seen.items())))

    def arity(self, name: str) -> Optional[int]:
        return dict(self.connectives).get(name)

    def __contains__(self, name: str) -> bool:
        return self.arity(name) is not None

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.connectives)

    def union(self, other: "Signature") -> "Signature":
        mine = dict(self.connectives)
        for name, arity in other.connectives:
            if name in mine and mine[name] != arity:
                raise SignatureError(f"arity clash on {name!r}: {mine[name]} vs {arity}")
            mine[name] = arity
        return Signature.of(mine)

    def disjoint_from(self, other: "Signature") -> bool:
        return not set(self.names()) & set(other.names())

    def __le__(self, other: "Signature") -> bool:
        return all(other.arity(n) == k for n, k in self.connectives)


@dataclass(frozen=True, eq=False)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class App:
    head: str
    args: tuple["Formula", ...]

    def __str__(self) -> str:
        return text(self)


Formula = Union[Var, App]

# Interning pool: structurally equal formulas built through var()/app() are
# the same object, so Var and App use identity for == and hash (eq=False)
# and never walk the tree.  A Var or App constructed directly would be
# unequal to its interned twin.
_pool: dict[object, Formula] = {}


def var(name: str) -> Var:
    v = _pool.get(name)
    if v is None:
        v = Var(name)
        _pool[name] = v
    return v  # type: ignore[return-value]


def app(head: str, args: Sequence[Formula] = ()) -> App:
    key = (head, tuple(args))
    a = _pool.get(key)
    if a is None:
        a = App(head, tuple(args))
        _pool[key] = a
    return a  # type: ignore[return-value]


def is_var(phi: Formula) -> bool:
    return isinstance(phi, Var)


def text(phi: Formula) -> str:
    if isinstance(phi, Var):
        return phi.name
    if not phi.args:
        return phi.head
    return f"{phi.head}({','.join(text(a) for a in phi.args)})"


def depth(phi: Formula) -> int:
    if isinstance(phi, Var) or not phi.args:
        return 0
    return 1 + max(depth(a) for a in phi.args)


def size(phi: Formula) -> int:
    if isinstance(phi, Var):
        return 1
    return 1 + sum(size(a) for a in phi.args)


def canon_key(phi: Formula) -> tuple:
    """Sort key giving the canonical (reproducible) order on formulas."""
    return (size(phi), text(phi), isinstance(phi, App))


def canon_sort(phis: Iterable[Formula]) -> list[Formula]:
    return sorted(set(phis), key=canon_key)


def subformulas(phi: Formula) -> list[Formula]:
    """All subformulas of phi, including phi itself, in canonical order."""
    out: set[Formula] = set()

    def walk(psi: Formula) -> None:
        if psi in out:
            return
        out.add(psi)
        if isinstance(psi, App):
            for a in psi.args:
                walk(a)

    walk(phi)
    return canon_sort(out)


def variables(phi: Formula) -> list[Var]:
    return [psi for psi in subformulas(phi) if isinstance(psi, Var)]  # type: ignore[misc]


def subformula_closure(phis: Iterable[Formula]) -> list[Formula]:
    out: set[Formula] = set()
    for phi in phis:
        out.update(subformulas(phi))
    return canon_sort(out)


def is_subformula_closed(phis: Iterable[Formula]) -> bool:
    have = set(phis)
    return all(isinstance(phi, Var) or set(phi.args) <= have for phi in have)


def check_well_formed(phi: Formula, sig: Signature) -> None:
    if isinstance(phi, Var):
        return
    k = sig.arity(phi.head)
    if k is None:
        raise SignatureError(f"connective {phi.head!r} not in signature")
    if k != len(phi.args):
        raise SignatureError(f"connective {phi.head!r} has arity {k}, got {len(phi.args)} arguments")
    for a in phi.args:
        check_well_formed(a, sig)


def fresh_var(taken: Iterable[Formula], stem: str = "w") -> Var:
    """A variable whose name occurs nowhere in the given formulas."""
    used = {v.name for phi in taken for v in variables(phi)}
    if stem not in used:
        return var(stem)
    i = 1
    while f"{stem}{i}" in used:
        i += 1
    return var(f"{stem}{i}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse(src: str, sig: Signature) -> Formula:
    """Parse formula text over the given signature.

    Bare identifiers declared 0-ary in the signature are connectives; all
    other bare identifiers are variables.
    """
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


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

Substitution = Mapping[str, Formula]


def apply_substitution(sigma: Substitution, phi: Formula) -> Formula:
    if isinstance(phi, Var):
        return sigma.get(phi.name, phi)
    return app(phi.head, tuple(apply_substitution(sigma, a) for a in phi.args))


def interned_instance(sigma: Substitution, phi: Formula) -> Optional[Formula]:
    """apply_substitution(sigma, phi) if that formula already exists, else None.

    A lookup only: it never adds to the intern pool, so a search can test
    candidate instances against a set of interned formulas without keeping
    every rejected candidate alive.  None means no formula with that
    structure has been built, so it lies in no set of formulas."""
    if isinstance(phi, Var):
        return sigma.get(phi.name, phi)
    args = []
    for a in phi.args:
        b = interned_instance(sigma, a)
        if b is None:
            return None
        args.append(b)
    return _pool.get((phi.head, tuple(args)))  # type: ignore[return-value]


def compose_substitutions(sigma: Substitution, tau: Substitution) -> dict[str, Formula]:
    """sigma-then-tau: p maps to tau applied to sigma(p)."""
    out = {p: apply_substitution(tau, phi) for p, phi in sigma.items()}
    for p, phi in tau.items():
        out.setdefault(p, phi)
    return out


# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------

def params(k: int) -> tuple[Var, ...]:
    return tuple(var(f"p{i}") for i in range(1, k + 1))


@dataclass(frozen=True)
class Translation:
    """Maps each k-place source connective to a derived connective of the
    target signature, written over the variables p1..pk."""

    source: Signature
    target: Signature
    mapping: tuple[tuple[str, Formula], ...]

    @staticmethod
    def of(source: Signature, target: Signature, mapping: Mapping[str, Formula]) -> "Translation":
        entries = []
        for name, k in source.connectives:
            if name not in mapping:
                raise SignatureError(f"translation missing connective {name!r}")
            body = mapping[name]
            check_well_formed(body, target)
            allowed = {f"p{i}" for i in range(1, k + 1)}
            extra = {v.name for v in variables(body)} - allowed
            if extra:
                raise SignatureError(f"translation of {name!r} uses variables outside p1..p{k}: {sorted(extra)}")
            entries.append((name, body))
        return Translation(source, target, tuple(sorted(entries)))

    def body(self, name: str) -> Formula:
        for n, b in self.mapping:
            if n == name:
                return b
        raise SignatureError(f"connective {name!r} not in translation domain")


def identity_translation(sig: Signature) -> Translation:
    return Translation.of(sig, sig, {name: app(name, params(k)) for name, k in sig.connectives})


def union_translations(t1: Translation, t2: Translation) -> Translation:
    if not t1.source.disjoint_from(t2.source):
        raise SignatureError("translation sources are not disjoint")
    return Translation.of(
        t1.source.union(t2.source),
        t1.target.union(t2.target),
        dict(t1.mapping) | dict(t2.mapping),
    )


def apply_translation(t: Translation, phi: Formula) -> Formula:
    if isinstance(phi, Var):
        return phi
    k = t.source.arity(phi.head)
    if k is None:
        raise SignatureError(f"connective {phi.head!r} not in translation domain")
    body = t.body(phi.head)
    sigma = {f"p{i + 1}": apply_translation(t, a) for i, a in enumerate(phi.args)}
    return apply_substitution(sigma, body)


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------

# Monolith variables carry a marker character that cannot occur in parsed
# identifiers, so they can never collide with user variables.
_SKEL_PREFIX = "x@"


def skeleton_var(phi: Formula) -> Var:
    """The canonical monolith variable x_phi for an alien-headed compound."""
    return var(_SKEL_PREFIX + text(phi))


def is_skeleton_var(phi: Formula) -> bool:
    return isinstance(phi, Var) and phi.name.startswith(_SKEL_PREFIX)


def skeleton(phi: Formula, sig: Signature) -> Formula:
    """Replace maximal subformulas whose head is alien to sig by monoliths."""
    if isinstance(phi, Var):
        return phi
    if phi.head in sig:
        return app(phi.head, tuple(skeleton(a, sig) for a in phi.args))
    return skeleton_var(phi)
