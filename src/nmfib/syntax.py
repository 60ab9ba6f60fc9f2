"""Signatures, formulas, parsing/printing, substitutions, translations.

Formulas are plain trees over a ranked alphabet of connectives.  The text
grammar is deliberately minimal:

    formula := ident | ident '(' formula (',' formula)* ')'

A bare identifier is a 0-place connective if the ambient signature declares
one of that name, and a sentential variable otherwise.  Everything is
immutable.  Formulas are hash-consed: var() and app() are the only
constructors and return one shared object per formula, so formulas compare
and hash by identity.

No walk over a formula recurses.  postorder is the one walk that visits
arguments before their parents: the canonical key, the subformula closure,
the compiled instance lookup and every bottom-up evaluation follow it.
parse keeps its open applications on a stack, and apply_substitution its
compounds being rebuilt.  So formulas of any nesting parse, print and
substitute.  depth_first is the one depth-first search over paths, one
node per level: the valuation search, the split certificate and derive's
premise join run on it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "SignatureError",
    "ParseError",
    "Signature",
    "Var",
    "App",
    "Formula",
    "var",
    "app",
    "instance_lookup",
    "postorder",
    "depth_first",
    "text",
    "depth",
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
    "Translation",
    "params",
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
    _arities: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_arities", dict(self.connectives))

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
        return self._arities.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.connectives)

    def union(self, other: "Signature") -> "Signature":
        mine = dict(self._arities)
        for name, arity in other.connectives:
            if name in mine and mine[name] != arity:
                raise SignatureError(f"arity clash on {name!r}: {mine[name]} vs {arity}")
            mine[name] = arity
        return Signature.of(mine)

    def disjoint_from(self, other: "Signature") -> bool:
        return not set(self.names()) & set(other.names())


@dataclass(frozen=True, eq=False)
class Var:
    name: str
    # canon_key, filled in on first use
    _key: Optional[tuple] = field(default=None, init=False, repr=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class App:
    head: str
    args: tuple["Formula", ...]
    _key: Optional[tuple] = field(default=None, init=False, repr=False)

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


def _arguments(phi: Formula) -> tuple[Formula, ...]:
    return phi.args if type(phi) is App else ()


def postorder(roots: Iterable[Hashable], children: Callable[[Any], Sequence[Hashable]] = _arguments) -> Iterator[Any]:
    """Each node of the DAG reachable from the roots (formulas and their
    arguments by default) once, right after its last child, roots and
    children in the order given.  An explicit stack holds the nodes whose
    children are being visited; a node without children gets no entry."""
    seen = set()
    stack = [(None, iter(roots))]  # the roots are the children of a node that is not yielded
    while stack:
        node, pending = stack[-1]
        for child in pending:
            if child not in seen:
                grandchildren = children(child)
                if grandchildren:
                    stack.append((child, iter(grandchildren)))
                    break
                seen.add(child)
                yield child
        else:
            stack.pop()
            if stack:
                seen.add(node)
                yield node


def depth_first(n: int, children: Callable[[int, list], Iterable[Any]]) -> Iterator[list]:
    """Each path of n nodes, one per level, of the tree whose level-i nodes
    below path[:i] are children(i, path), depth first and in the order
    listed.  One list is the path throughout: children(i, path) reads
    path[:i] (the entries from i on are stale, free to overwrite), and each
    complete path is yielded as that list.  An explicit stack holds an
    iterator over the children listed at each level of the current path."""
    path: list = [None] * n
    if not n:
        yield path
        return
    pending: list = [iter(children(0, path))] + [None] * (n - 1)
    i, last = 0, n - 1
    while i >= 0:
        for node in pending[i]:
            path[i] = node
            if i == last:
                yield path
            else:
                i += 1
                pending[i] = iter(children(i, path))
                break
        else:
            i -= 1


@functools.cache
def instance_lookup(phi: Formula, build: bool = False) -> Callable[[Mapping[str, Formula]], Optional[Formula]]:
    """The function taking sigma to apply_substitution(sigma, phi) if that
    formula already exists, else to None; compiled once per schema phi.
    With build, it takes sigma to apply_substitution(sigma, phi) itself.

    Without build it never interns, so a search can look candidate
    instances up without keeping every rejected one alive.  A formula that
    does not exist yet may still be one the search would accept: derive
    decides membership in its universe by level, and builds only the
    instances it accepts.  The generated code makes one pool lookup per
    subformula of phi, arguments first, with no test between them: a key
    holding None is no key of the pool, so a missing argument makes every
    lookup above it miss.  Its locals are numbered in post-order; names
    enter it only by repr."""
    scope: dict[str, object] = {"pool": _pool, "app": app}
    local: dict[Formula, str] = {}
    lines = []
    for psi in postorder((phi,)):
        n = len(local)
        t = local[psi] = f"t{n}"
        if type(psi) is Var:
            scope[f"v{n}"] = psi
            lines.append(f"{t} = sigma.get({psi.name!r}, v{n})")
            continue
        node = f"{psi.head!r}, ({''.join(f'{local[a]}, ' for a in psi.args)})"
        lines.append(f"{t} = app({node})" if build else f"{t} = pool.get(({node}))")
    exec("def instance(sigma):\n" + "".join(f"    {line}\n" for line in [*lines, f"return {t}"]), scope)
    return scope["instance"]  # type: ignore[return-value]


def text(phi: Formula) -> str:
    return canon_key(phi)[1]


def depth(phi: Formula) -> int:
    """Nesting depth of connectives with arguments (0 for variables and
    constants), read off phi's canonical key."""
    return canon_key(phi)[3]


def canon_key(phi: Formula) -> tuple:
    """Sort key giving the canonical (reproducible) order on formulas:
    (size, text, is-App, depth).  The depth comes last, so it leaves the
    order as it was; depth() reads it.

    Each formula's key is computed once, from its arguments' keys, and kept
    on the formula; the walk enters only the formulas without a key."""
    key = phi._key
    if key is not None:
        return key
    for psi in postorder((phi,), lambda u: [a for a in u.args if a._key is None] if type(u) is App else ()):
        if type(psi) is Var:
            key = (1, psi.name, False, 0)
        else:
            keys = [a._key for a in psi.args]
            label = f"{psi.head}({','.join(k[1] for k in keys)})" if keys else psi.head
            height = 1 + max(k[3] for k in keys) if keys else 0
            key = (1 + sum(k[0] for k in keys), label, True, height)
        object.__setattr__(psi, "_key", key)
    return key


def canon_sort(phis: Iterable[Formula]) -> list[Formula]:
    return sorted(set(phis), key=canon_key)


def subformulas(phi: Formula) -> list[Formula]:
    """All subformulas of phi, including phi itself, in canonical order."""
    return subformula_closure([phi])


def variables(phi: Formula) -> list[Var]:
    return [psi for psi in subformulas(phi) if isinstance(psi, Var)]  # type: ignore[misc]


def subformula_closure(phis: Iterable[Formula]) -> list[Formula]:
    """All subformulas of the given formulas, each walked once, sorted once."""
    return sorted(postorder(phis), key=canon_key)


def is_subformula_closed(phis: Iterable[Formula]) -> bool:
    have = set(phis)
    return all(isinstance(phi, Var) or set(phi.args) <= have for phi in have)


def check_well_formed(phi: Formula, sig: Signature) -> None:
    """Raise SignatureError naming the first ill-formed subformula of phi
    in pre-order: the outermost, then the leftmost."""
    arities = sig._arities
    first_bad: dict[Formula, App] = {}  # each subformula that has an ill-formed one: the first
    for psi in postorder((phi,)):
        if type(psi) is App and arities.get(psi.head) != len(psi.args):
            first_bad[psi] = psi
        elif first_bad and type(psi) is App:
            bad = next((first_bad[a] for a in psi.args if a in first_bad), None)
            if bad is not None:
                first_bad[psi] = bad
    if (bad := first_bad.get(phi)) is not None:
        k = arities.get(bad.head)
        if k is None:
            raise SignatureError(f"connective {bad.head!r} not in signature")
        raise SignatureError(f"connective {bad.head!r} has arity {k}, got {len(bad.args)} arguments")


def fresh_var(taken: Iterable[Formula]) -> Var:
    """A variable, w or w1, w2, ..., whose name occurs nowhere in the given
    formulas."""
    used = {v.name for v in postorder(taken) if type(v) is Var}
    if "w" not in used:
        return var("w")
    i = 1
    while f"w{i}" in used:
        i += 1
    return var(f"w{i}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse(src: str, sig: Signature) -> Formula:
    """Parse formula text over the given signature.

    Bare identifiers declared 0-ary in the signature are connectives; all
    other bare identifiers are variables.  One loop reads the text left to
    right, keeping the applications still open on a stack, so no depth of
    nesting exhausts the interpreter stack.
    """
    arities = sig._arities
    pos, n = 0, len(src)
    open_apps: list[tuple[str, int, list[Formula]]] = []  # (name, start, arguments so far)
    while True:
        # a formula starts here: an identifier, then "(" or nothing for a leaf
        start = pos
        while pos < n and src[pos].isspace():
            pos += 1
        m = _IDENT.match(src, pos)
        if m is None:
            raise ParseError("expected identifier", pos)
        name, pos = m.group(), m.end()
        while pos < n and src[pos].isspace():
            pos += 1
        if pos < n and src[pos] == "(":
            open_apps.append((name, start, []))
            pos += 1
            continue
        k = arities.get(name)
        if k:
            raise ParseError(f"connective {name!r} of arity {k} needs arguments", start)
        phi: Formula = var(name) if k is None else app(name, ())
        # close every application that phi completes; stop at a comma
        while open_apps:
            name, start, args = open_apps[-1]
            args.append(phi)
            while pos < n and src[pos].isspace():
                pos += 1
            if pos < n and src[pos] == ",":
                pos += 1
                break
            if pos >= n or src[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            open_apps.pop()
            k = arities.get(name)
            if k is None:
                raise ParseError(f"unknown connective {name!r}", start)
            if k != len(args):
                raise ParseError(f"connective {name!r} takes {k} arguments, got {len(args)}", start)
            phi = app(name, args)
        else:
            while pos < n and src[pos].isspace():
                pos += 1
            if pos != n:
                raise ParseError("trailing input", pos)
            return phi


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

Substitution = Mapping[str, Formula]


def apply_substitution(sigma: Substitution, phi: Formula) -> Formula:
    """phi with each variable named in sigma replaced.  The walk keeps a
    stack of the compounds being rebuilt, each with the instances of its
    arguments built so far; a leaf argument is filled in without a frame."""
    if type(phi) is Var:
        return sigma.get(phi.name, phi)
    frames: list[tuple[App, list[Formula]]] = [(phi, [])]
    while True:
        psi, built = frames[-1]
        for a in psi.args[len(built):]:
            if type(a) is Var:
                built.append(sigma.get(a.name, a))
            elif a.args:
                frames.append((a, []))
                break
            else:
                built.append(a)
        else:
            frames.pop()
            instance = app(psi.head, built)
            if not frames:
                return instance
            frames[-1][1].append(instance)


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
