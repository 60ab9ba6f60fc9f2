"""Schematic Hilbert calculi and bounded forward-chaining derivation search.

Derivations are explicit certificates: each step names a rule, the
substitution used, and the indices of earlier steps supplying the premises,
so verification is independent of the search that produced them.

A negative answer is always NotFoundAtBound: the search is bounded by an
instantiation universe and a step cap and never claims non-derivability.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from . import bundled
from .syntax import (
    App,
    Formula,
    Signature,
    SignatureError,
    Var,
    app,
    apply_substitution,
    canon_sort,
    check_well_formed,
    depth,
    depth_first,
    fresh_var,
    instance_lookup,
    parse,
    postorder,
    subformula_closure,
    text,
    variables,
)

__all__ = [
    "Rule",
    "HilbertCalculus",
    "builtin_calculus",
    "BUILTIN_IDS",
    "renamed",
    "merge",
    "Premise",
    "RuleApp",
    "Step",
    "Derivation",
    "Derived",
    "NotFoundAtBound",
    "derive",
    "verify",
    "audit",
    "load_calculus",
]


class Rule(NamedTuple):
    name: str
    premises: tuple[Formula, ...]
    conclusion: Formula

    @staticmethod
    def of(name: str, premises: Iterable[Formula], conclusion: Formula) -> "Rule":
        return Rule(name, tuple(premises), conclusion)

    def __str__(self) -> str:
        prem = ", ".join(text(p) for p in self.premises)
        return f"{self.name}: {prem} / {text(self.conclusion)}" if prem else f"{self.name}: |- {text(self.conclusion)}"


class HilbertCalculus(NamedTuple):
    signature: Signature
    rules: tuple[Rule, ...]

    @staticmethod
    def of(signature: Signature, rules: Iterable[Rule]) -> "HilbertCalculus":
        rules = tuple(rules)
        names: set[str] = set()
        for r in rules:
            if r.name in names:  # a derivation step names its rule
                raise SignatureError(f"two rules are named {r.name!r}")
            names.add(r.name)
            for phi in (*r.premises, r.conclusion):
                check_well_formed(phi, signature)
        return HilbertCalculus(signature, rules)


@functools.lru_cache(maxsize=None)
def _builtin_ids() -> tuple[str, ...]:
    return bundled.stems("calculus")


def __getattr__(name: str):
    # BUILTIN_IDS, the ids of the bundled calculus files, is worked out on
    # first use so that importing the module reads no file
    if name == "BUILTIN_IDS":
        return _builtin_ids()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.lru_cache(maxsize=None)
def builtin_calculus(cid: str) -> HilbertCalculus:
    """The bundled calculus ``systems/<cid>.json``, read on first use."""
    if cid not in _builtin_ids():
        raise SignatureError(f"unknown calculus id {cid!r}; known: {', '.join(_builtin_ids())}")
    return load_calculus(bundled.read(f"{cid}.json", "calculus", builtin=True))


def renamed(calc: HilbertCalculus, mapping: Mapping[str, str]) -> HilbertCalculus:
    """A copy of the calculus with connectives renamed (e.g. a second
    conjunction called and2).  Each subformula of the rules is renamed once,
    its arguments before it."""
    ren: dict[Formula, Formula] = {}
    for phi in postorder(f for r in calc.rules for f in (*r.premises, r.conclusion)):
        ren[phi] = phi if isinstance(phi, Var) else app(mapping.get(phi.head, phi.head), [ren[a] for a in phi.args])
    sig = Signature.of([(mapping.get(n, n), k) for n, k in calc.signature.connectives])
    rules = [Rule.of(r.name, [ren[p] for p in r.premises], ren[r.conclusion]) for r in calc.rules]
    return HilbertCalculus.of(sig, rules)


def merge(c1: HilbertCalculus, c2: HilbertCalculus) -> HilbertCalculus:
    """Union of rule sets over the union signature; arity clashes rejected.

    Rule names stay unique (clashing names from the second calculus get a
    prime suffix) so derivation steps resolve unambiguously."""
    sig = c1.signature.union(c2.signature)
    rules = list(c1.rules)
    have = {(r.premises, r.conclusion) for r in rules}
    names = {r.name for r in rules}
    for r in c2.rules:
        if (r.premises, r.conclusion) in have:
            continue
        name = r.name
        while name in names:
            name += "'"
        rules.append(Rule(name, r.premises, r.conclusion))
        have.add((r.premises, r.conclusion))
        names.add(name)
    return HilbertCalculus.of(sig, rules)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

class Premise(NamedTuple):
    def __bool__(self) -> bool:  # a tuple with no fields would be false
        return True


class RuleApp(NamedTuple):
    rule: str
    substitution: tuple[tuple[str, Formula], ...]
    premise_steps: tuple[int, ...]


Justification = Union[Premise, RuleApp]


class Step(NamedTuple):
    formula: Formula
    justification: Justification


class Derivation(NamedTuple):
    steps: tuple[Step, ...]

    def lines(self) -> list[str]:
        out = []
        for i, step in enumerate(self.steps):
            if isinstance(step.justification, Premise):
                out.append(f"{i}. {text(step.formula)}  [premise]")
            else:
                j = step.justification
                refs = ",".join(str(k) for k in j.premise_steps)
                out.append(f"{i}. {text(step.formula)}  [{j.rule} {refs}]" if refs else f"{i}. {text(step.formula)}  [{j.rule}]")
        return out


class Derived(NamedTuple):
    derivation: Derivation

    def __bool__(self) -> bool:
        return True


class NotFoundAtBound(NamedTuple):
    reason: str  # "step cap exhausted" or "universe saturated"
    universe_depth: int
    step_cap: int

    def __bool__(self) -> bool:
        return False


@functools.cache
def _matcher(pattern: Formula) -> Callable[[Formula, dict[str, Formula]], Optional[dict[str, Formula]]]:
    """The match of a schema against formulas, compiled once per schema.

    matcher(target, sigma) is None when no extension of sigma instantiates
    the pattern to the target, else sigma itself if that binds nothing new,
    else one copy of sigma with the new bindings in the order the pattern
    first shows them.  The generated code checks class, head and arity at
    each node, and compares a repeated variable with its first occurrence,
    and a bound one with sigma, by identity.  Its locals are numbered (t0
    is the target); names enter it only by repr."""
    lines = []
    first: dict[str, int] = {}  # each variable, with the local of its first occurrence
    stack = [(pattern, 0)]
    count = 1
    while stack:
        phi, n = stack.pop()
        if isinstance(phi, Var):
            if phi.name in first:
                lines.append(f"if t{n} is not t{first[phi.name]}: return None")
            else:
                first[phi.name] = n
            continue
        k = len(phi.args)
        lines.append(f"if type(t{n}) is not App or t{n}.head != {phi.head!r} or len(t{n}.args) != {k}: return None")
        if k:
            parts = range(count, count + k)
            lines.append("".join(f"t{m}, " for m in parts) + f"= t{n}.args")
            stack.extend(zip(reversed(phi.args), reversed(parts)))
            count += k
    binds = [(repr(name), f"t{n}", f"b{i}") for i, (name, n) in enumerate(first.items())]
    if binds:
        lines.append("if not sigma: return {" + ", ".join(f"{name}: {t}" for name, t, _ in binds) + "}")
        for name, t, b in binds:
            lines += [f"{b} = sigma.get({name})", f"if {b} is not None and {b} is not {t}: return None"]
        lines.append("if " + " and ".join(f"{b} is not None" for _, _, b in binds) + ": return sigma")
        lines.append("sigma = dict(sigma)")
        lines += [f"if {b} is None: sigma[{name}] = {t}" for name, t, b in binds]
    lines.append("return sigma")
    scope = {"App": App}
    exec("def match(t0, sigma):\n" + "".join(f"    {line}\n" for line in lines), scope)
    return scope["match"]  # type: ignore[return-value]


@functools.cache
def _member(phi: Formula) -> Callable[[Mapping[str, Formula], Mapping[Formula, int], int], Optional[Formula]]:
    """The level test of a schema's instances, compiled once per schema.

    member(sigma, levels, top) is the instance of phi under sigma if it is
    a member of the _Universe with those levels and top, else None; sigma
    binds every variable of phi to a member.  A variable's instance always
    is one.  With top -1 the instance is looked up in levels; else it is a
    member when its arguments are in levels, and is built only then."""
    if isinstance(phi, Var):
        return lambda sigma, levels, top: sigma[phi.name]
    scope = {"app": app, "lookup": instance_lookup(phi)}
    lines = ["if top < 0: return t if (t := lookup(sigma)) in levels else None"]
    for i, a in enumerate(phi.args):
        scope[f"a{i}"] = instance_lookup(a)
        lines += [f"t{i} = a{i}(sigma)", f"if t{i} not in levels: return None"]
    lines.append(f"return app({phi.head!r}, ({''.join(f't{i}, ' for i in range(len(phi.args)))}))")
    exec("def member(sigma, levels, top):\n" + "".join(f"    {line}\n" for line in lines), scope)
    return scope["member"]  # type: ignore[return-value]


class _Universe:
    """The instantiation universe of one derive call, served by level.

    A formula's level is 0 in the base (the subformulas of the sequent and
    the fresh variable), else one more than its arguments' largest level
    when its head is a calculus connective of that arity; the members have
    level at most the depth bound.  Each round is counted (the products of
    the members so far, plus the members that are no products), then built
    unsorted into levels from the products with an argument in the round
    before, as no other product is new.  members(top) builds the last round
    on first need: a formula of a schema's shape outside levels is a member
    exactly when its arguments are in it.  If a count passes the cap, that
    round takes the new products of the members in (depth, text) order up
    to cap + 1 members and is the last; top is then -1 and membership is
    looked up, as at depth bound 0.  Rounds stop at the first that adds
    nothing, whatever the depth bound."""

    def __init__(self, calc: HilbertCalculus, base: Sequence[Formula], depth_bound: int, cap: int):
        closure = subformula_closure(base)
        self.levels = levels = dict.fromkeys([*closure, fresh_var(u for u in closure if type(u) is Var)], 0)
        self.connectives, arity = calc.signature.connectives, calc.signature.arity
        opaque = sum(type(u) is not App or arity(u.head) != len(u.args) for u in levels)
        # the members of the rounds before the newest, and the newest
        self.old, self.new = [], list(levels)
        self.top, self.upto = -1, {}
        for level in range(1, depth_bound + 1):
            n = len(levels)
            if opaque + sum(n**k for _, k in self.connectives) > cap:
                grown = sorted(levels, key=lambda f: (depth(f), text(f)))
                levels.update(dict.fromkeys(itertools.islice(self.products((), grown), max(cap + 1 - n, 0)), level))
                return
            if level == depth_bound or not self.new:
                self.top = depth_bound
                return
            built = list(self.products(self.old, self.new))
            levels.update(dict.fromkeys(built, level))
            self.old += self.new
            self.new = built

    def products(self, old: Sequence[Formula], new: Sequence[Formula]) -> Iterator[App]:
        """The products with an argument in new and the others in old or new
        (with old empty: every product of new, constants too) that are not
        members yet, per connective in the order of itertools.product."""
        both = [*old, *new]
        for conn, k in self.connectives:
            # i: the position of the first argument taken from new
            tuples = [itertools.product(*[old] * i, new, *[both] * (k - 1 - i)) for i in range(k)]
            for args in itertools.chain([()] if not k and not old else [], *tuples):
                if (u := app(conn, args)) not in self.levels:
                    yield u

    def members(self, bound: int) -> list[Formula]:
        """The members of level at most bound, the last round built on
        first need."""
        if bound not in self.upto:
            last = self.products(self.old, self.new) if bound == self.top else ()
            self.upto[bound] = [*(u for u, level in self.levels.items() if level <= bound), *last]
        return self.upto[bound]

    def extensions(self, phi: Formula, sigma: dict[str, Formula], bound: int) -> list[dict[str, Formula]]:
        """Every extension of sigma under which phi is a member of level at
        most bound, built schema first: an argument of a compound sits one
        level lower, a free variable ranges over the members of its level,
        and at level 0 the schema is matched against the base members with
        its first argument that sigma binds whole, or against every base
        member if it has none.  The schema's nodes come off a stack, left to
        right, each extending every substitution found so far: the order of
        a recursive walk, with no interpreter frame per level."""
        out = [sigma]
        todo: list[tuple[Formula, Optional[int]]] = [(phi, bound)]
        while todo and out:
            phi, bound = todo.pop()
            if bound is None:  # the cap decided the members: look each instance up
                lookup = instance_lookup(phi)
                out = [s for s in out if lookup(s) in self.levels]
            elif type(phi) is Var and phi.name in out[0]:  # all substitutions so far bind the same names
                out = [s for s in out if self.levels.get(s[phi.name], self.top) <= bound]
            elif type(phi) is Var:
                out = [{**s, phi.name: u} for s in out for u in self.members(bound)]
            elif not bound:
                match = _matcher(phi)
                out = [s2 for s in out for u in self.base_candidates(phi, s) if (s2 := match(u, s)) is not None]
            else:
                if self.top < 0:
                    todo.append((phi, None))
                todo.extend((a, bound - 1) for a in reversed(phi.args))
        return out

    def base_candidates(self, phi: App, sigma: Mapping[str, Formula]) -> Sequence[Formula]:
        """The base members phi may match under sigma: those with phi's
        head and, at phi's first argument that sigma binds whole, its
        instance; every base member when sigma binds no argument whole."""
        for j, names, lookup in _arguments(phi):
            if names <= sigma.keys():
                return self.base_by_arg.get((phi.head, j, lookup(sigma)), ())
        return self.members(0)

    @functools.cached_property
    def base_by_arg(self) -> dict[tuple[str, int, Formula], list[Formula]]:
        """The base members by (head, argument position, argument), each
        list in base order; built on first need."""
        index: dict[tuple[str, int, Formula], list[Formula]] = {}
        for u in self.members(0):
            for j, a in enumerate(u.args if type(u) is App else ()):
                index.setdefault((u.head, j, a), []).append(u)
        return index


def _names(phi: Formula) -> set[str]:
    return {v.name for v in variables(phi)}


@functools.cache
def _arguments(phi: App) -> tuple[tuple[int, frozenset[str], Callable], ...]:
    """Each argument of a schema as (position, its variables, its compiled
    instance lookup)."""
    return tuple((j, frozenset(_names(a)), instance_lookup(a)) for j, a in enumerate(phi.args))


def _source(rule: Rule, i: int, bound: set[str]) -> tuple[str, Optional[int]]:
    """Where premise i's steps are found once the names in bound are bound.

    ("lookup", None): bound covers the premise, whose instance is looked
    up.  ("conclusion", j): the premise is the last of the rule's names to
    bind, the conclusion has none of its own and bound covers its argument
    j; each universe member instance of the conclusion then fixes the
    premise's instance, which is looked up.  ("argument", j): the steps
    indexed under the premise's first argument j that bound covers.
    ("head", None): every step with the premise's head, or every step for a
    variable."""
    pattern, concl = rule.premises[i], rule.conclusion
    names = _names(pattern)
    if names <= bound:
        return "lookup", None
    every = set().union(*map(_names, rule.premises))
    if isinstance(concl, App) and _names(concl) <= every <= bound | names and names <= bound | _names(concl):
        j = next((j for j, a in enumerate(concl.args) if _names(a) <= bound), None)
        if j is not None:
            return "conclusion", j
    j = next((j for j, a in enumerate(getattr(pattern, "args", ())) if _names(a) <= bound), None)
    return ("head", None) if j is None else ("argument", j)


@functools.cache
def _sources(rule: Rule) -> tuple[bool, tuple[tuple[str, Optional[int]], ...], Optional[str]]:
    """(leftover, forward, lead) of a rule.  leftover: the conclusion has
    names no premise binds, whose instances are taken from the universe.
    forward: each premise's _source once the premises before it are bound.
    lead: for two premises, the kind of the first one's source once the
    second is bound, when that is a lookup or the conclusion; else None."""
    bound, forward = set(), []
    for i, pattern in enumerate(rule.premises):
        forward.append(_source(rule, i, bound))
        bound |= _names(pattern)
    lead = _source(rule, 0, _names(rule.premises[1]))[0] if len(rule.premises) == 2 else None
    return not _names(rule.conclusion) <= bound, tuple(forward), lead if lead in ("lookup", "conclusion") else None


def derive(
    calc: HilbertCalculus,
    premises: Iterable[Formula],
    goal: Formula,
    universe_depth: int = 2,
    step_cap: int = 10000,
) -> Union[Derived, NotFoundAtBound]:
    """Bounded forward chaining from the premises.

    The saturation works inside the instantiation universe: rules fire by
    matching their premise schemas against already-derived formulas, and a
    conclusion is kept only when it lies in the universe (which always
    contains the goal and every subformula of the sequent).  Schematic
    variables left free by the premise match are bound by matching the
    partially instantiated conclusion against universe members, taken in
    (depth, text) order.  NotFoundAtBound never proves non-derivability.

    The search runs in rounds; each round fires every rule in calculus
    order, and each firing tries premise matches in step order (premise
    position 0 outermost), recording conclusions as they are found.  That
    order decides which derivation comes out: the first match of a formula
    is the one recorded, later matches build on it, and the step cap stops
    the search at a count.  The devices below cut the work without
    changing which steps are recorded, or in which order:

    * Semi-naive marks.  Each rule remembers how many steps existed when
      its previous firing began.  Every combination of steps below that
      mark was tried then, and trying it again can only re-find a recorded
      formula or one outside the universe.  So when all earlier premises of
      a match come from below the mark, the last premise position only
      scans the steps recorded since; a rule without premises fires once.
    * Indexes.  Derived formulas are kept in per-head lists, so a premise
      schema is matched only against formulas with its head.  A premise
      with an argument the earlier premises bind (imp(p,q) in
      i4: p, imp(p,q) / q) reads a narrower list, keyed by (head, argument
      position, argument); that index is kept only for the positions some
      premise reads.  Each list holds its members in step order, and a
      scan stops at the length its list had when the scan began, as the
      full scan stopped at the step count it began with; so the matches
      found, and their order, are those of a full scan.
    * Membership by level (_Universe).  Each round of the universe is
      built once, from the products with an argument in the round before,
      and the last only on first need; only a round the cap cuts is sorted.
      A conclusion is a member when its level is at most the depth bound.
      Free conclusion variables take the schema's member instances,
      enumerated schema first, and only those are put in (depth, text)
      order.
    * Partner sources (_source).  A premise whose names the earlier
      premises bind is looked up (neg(p) in n3: p, neg(p) / q).  When they
      bind an argument of a conclusion with no names of its own, and the
      premise binds the rest (c3: p, q / and(p,q)), each member instance of
      the conclusion fixes the premise's instance, which is looked up, so
      pairs whose conclusion lies outside the universe are never formed.
      Hits are taken in step order where the scan would reach them.  The
      first of two premises is also led by the second, where the second
      fixes it so: below the mark, only the steps that second-premise steps
      from the mark on name are visited, off a heap in step order that
      takes the second-premise steps recorded during the firing too.  A
      lead through the conclusion enumerates members, so it is taken only
      when fewer second-premise steps are new than first-premise ones old.
    * Compiled schemas.  Each schema is matched (_matcher), looked up
      (syntax.instance_lookup) and tested for membership (_member) by code
      compiled for it on first use.  Only universe members are built, so
      rejected candidates never enter the intern pool.

    A rule may have any number of premises and a schema any depth: fire's
    premise join runs on syntax.depth_first, and _Universe.extensions walks
    a schema on an explicit stack.  The universe stops at its first round
    that adds nothing, whatever the depth bound.

    Premises and goal may mention connectives the calculus does not govern;
    such subformulas are opaque monoliths the rules can carry around but
    never build.
    """
    premises = canon_sort(premises)
    depth_bound = max(universe_depth, 0)  # a negative depth bound, like 0, leaves the base alone
    universe = _Universe(calc, premises + [goal], depth_bound, cap=max(step_cap, 2000))
    levels, top = universe.levels, universe.top
    plans = [(rule, *_sources(rule)) for rule in calc.rules]
    # per head, the argument positions premises read steps by
    read_by_arg: dict[str, set[int]] = {}
    for rule, _, forward, _ in plans:
        for pattern, (kind, pos) in zip(rule.premises, forward):
            if kind == "argument":
                read_by_arg.setdefault(pattern.head, set()).add(pos)

    steps: list[Step] = []
    formulas: list[Formula] = []
    index: dict[Formula, int] = {}
    # step numbers in step order: every step under None, each compound also
    # by its head symbol and by (head, argument position, argument) for the
    # positions in read_by_arg
    by_head: dict[Optional[str], list[int]] = {None: []}
    by_arg: dict[tuple[str, int, Formula], list[int]] = {}

    def record(phi: Formula, just: Justification) -> None:
        k = len(steps)
        index[phi] = k
        steps.append(Step(phi, just))
        formulas.append(phi)
        by_head[None].append(k)
        if isinstance(phi, App):
            by_head.setdefault(phi.head, []).append(k)
            for pos in read_by_arg.get(phi.head, ()):
                # a sequent may use a rule's head at another arity
                if pos < len(phi.args):
                    by_arg.setdefault((phi.head, pos, phi.args[pos]), []).append(k)

    for phi in premises:
        record(phi, Premise())
    if goal in index:
        return Derived(_trim(steps, index, goal))

    def fire(plan: tuple, mark: int) -> Iterator:
        """(conclusion, substitution, premise steps) for each new match, concluded from each path of
        a depth-first walk whose levels are the partial matches of the premise positions."""
        rule, leftover, forward, lead = plan
        prems, concl = rule.premises, rule.conclusion
        last = len(prems) - 1
        # the compiled schemas, fetched once per firing
        member, build = _member(concl), instance_lookup(concl, True)
        matchers = [_matcher(pattern) for pattern in prems]
        lookups = [instance_lookup(p.args[j] if kind == "argument" else p) for p, (kind, j) in zip(prems, forward)]

        def partners(kind: str, sigma: dict[str, Formula], lookup: Callable) -> list[int]:
            # the steps a lookup or conclusion source names under sigma, in step order
            fills = universe.extensions(concl, sigma, depth_bound) if kind == "conclusion" else (sigma,)
            return sorted(k for filled in fills if (k := index.get(lookup(filled))) is not None)

        def candidates(i: int, sigma: dict[str, Formula], used: tuple[int, ...], fresh: bool) -> Iterator:
            kind, pos = forward[i]
            if kind == "argument":
                entries = by_arg.get((prems[i].head, pos, lookups[i](sigma)), ())
            elif kind == "head":
                entries = by_head.get(getattr(prems[i], "head", None), ())
            else:
                entries = partners(kind, sigma, lookups[i])
            end = len(entries)
            match = matchers[i]
            for j in range(bisect_left(entries, 0 if fresh or i < last else mark, 0, end), end):
                k = entries[j]
                nxt = match(formulas[k], sigma)
                if nxt is not None:
                    yield nxt, used + (k,), fresh or k >= mark

        def first_premises() -> Iterator:
            # Below the mark, a first-premise step starts a new match only
            # with a second-premise step from the mark on, which names it
            # through the lead source.  A lead through the conclusion
            # enumerates universe members, so it is declined unless fewer
            # second-premise steps are new than first-premise steps are old.
            firsts, seconds = (by_head.setdefault(getattr(p, "head", None), []) for p in prems)
            old, seen = bisect_left(firsts, mark), bisect_left(seconds, mark)
            if lead == "conclusion" and len(seconds) - seen >= old:
                yield from candidates(0, *empty)
                return
            lookup = instance_lookup(prems[0])
            todo = firsts[old:]  # a heap of the first-premise steps to visit
            k = -1
            while True:
                for n in seconds[seen:]:
                    sigma = matchers[1](formulas[n], {})
                    for j in partners(lead, sigma, lookup) if sigma is not None else ():
                        if k < j < mark:
                            heapq.heappush(todo, j)
                seen = len(seconds)
                if not todo:
                    return
                j = heapq.heappop(todo)
                if j > k:
                    k = j
                    sigma = matchers[0](formulas[k], {})
                    if sigma is not None:
                        yield sigma, (k,), k >= mark

        empty = ({}, (), False)  # the match before the first premise position

        def children(i: int, path: list) -> Iterator:
            return first_premises() if i == 0 and lead else candidates(i, *(path[i - 1] if i else empty))

        for path in depth_first(len(prems), children):
            sigma, used, _ = path[-1] if path else empty
            if not leftover:
                instance = member(sigma, levels, top)
                if instance is not None:
                    yield instance, sigma, used
                continue
            # free conclusion variables take the member instances in (depth, text) order
            built = {build(filled): filled for filled in universe.extensions(concl, sigma, depth_bound)}
            for u in sorted(built, key=lambda u: (depth(u), text(u))):
                yield u, built[u], used

    marks: list[Optional[int]] = [None] * len(plans)
    while True:
        grew = False
        for r, plan in enumerate(plans):
            rule = plan[0]
            mark = marks[r]
            if mark is not None and not rule.premises:
                continue
            marks[r] = len(steps)
            for concl, sigma, used in fire(plan, mark or 0):
                if concl in index:
                    continue
                record(concl, RuleApp(rule.name, tuple(sorted(sigma.items())), used))
                grew = True
                if concl is goal:
                    return Derived(_trim(steps, index, goal))
                if len(steps) >= step_cap:
                    return NotFoundAtBound("step cap exhausted", universe_depth, step_cap)
        if not grew:
            return NotFoundAtBound("universe saturated", universe_depth, step_cap)


def _trim(steps: Sequence[Step], index: Mapping[Formula, int], goal: Formula) -> Derivation:
    """Keep only the steps the goal actually depends on, renumbered."""

    def premise_steps(i: int) -> tuple[int, ...]:
        j = steps[i].justification
        return j.premise_steps if isinstance(j, RuleApp) else ()

    keep = sorted(postorder((index[goal],), premise_steps))
    renum = {old: new for new, old in enumerate(keep)}
    out = []
    for old in keep:
        s = steps[old]
        if isinstance(s.justification, RuleApp):
            j = s.justification
            s = Step(s.formula, RuleApp(j.rule, j.substitution, tuple(renum[k] for k in j.premise_steps)))
        out.append(s)
    return Derivation(tuple(out))


def audit(d: Derivation, calc: HilbertCalculus, premises: Iterable[Formula], goal: Formula) -> Optional[int]:
    """Index of the first bad step, or None if the derivation checks out."""
    premises = set(premises)
    rules = {r.name: r for r in calc.rules}
    if not d.steps or d.steps[-1].formula != goal:
        return len(d.steps) - 1 if d.steps else 0
    for i, step in enumerate(d.steps):
        j = step.justification
        if isinstance(j, Premise):
            if step.formula not in premises:
                return i
            continue
        rule = rules.get(j.rule)
        if rule is None:
            return i
        sigma = dict(j.substitution)
        if len(j.premise_steps) != len(rule.premises):
            return i
        if any(not 0 <= k < i for k in j.premise_steps):
            return i
        for pat, k in zip(rule.premises, j.premise_steps):
            if apply_substitution(sigma, pat) != d.steps[k].formula:
                return i
        if apply_substitution(sigma, rule.conclusion) != step.formula:
            return i
    return None


def verify(d: Derivation, calc: HilbertCalculus, premises: Iterable[Formula], goal: Formula) -> bool:
    """Re-check every step against the calculus and the premise set."""
    return audit(d, calc, premises, goal) is None


# ---------------------------------------------------------------------------
# Calculus files
# ---------------------------------------------------------------------------

def load_calculus(data: Mapping) -> HilbertCalculus:
    sig = Signature.of(bundled.signature_pairs(data["signature"]))
    rules = []
    for r in data["rules"]:
        (conclusion,) = bundled.fields(r, "rule", "conclusion")
        premises = bundled.fields(r, "rule", "premises")[0] if "premises" in r else []
        name = r.get("name", f"r{len(rules)}")
        try:
            rules.append(Rule.of(name, [parse(p, sig) for p in premises], parse(conclusion, sig)))
        except ValueError as exc:
            raise ValueError(f"rule {name!r}: {exc}") from exc
    return HilbertCalculus.of(sig, rules)

