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
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

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


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple[Formula, ...]
    conclusion: Formula

    @staticmethod
    def of(name: str, premises: Iterable[Formula], conclusion: Formula) -> "Rule":
        return Rule(name, tuple(premises), conclusion)

    def __str__(self) -> str:
        prem = ", ".join(text(p) for p in self.premises)
        return f"{self.name}: {prem} / {text(self.conclusion)}" if prem else f"{self.name}: |- {text(self.conclusion)}"


@dataclass(frozen=True)
class HilbertCalculus:
    signature: Signature
    rules: tuple[Rule, ...]

    @staticmethod
    def of(signature: Signature, rules: Iterable[Rule]) -> "HilbertCalculus":
        rules = tuple(rules)
        for r in rules:
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

@dataclass(frozen=True)
class Premise:
    pass


@dataclass(frozen=True)
class RuleApp:
    rule: str
    substitution: tuple[tuple[str, Formula], ...]
    premise_steps: tuple[int, ...]


Justification = Union[Premise, RuleApp]


@dataclass(frozen=True)
class Step:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Derivation:
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


@dataclass(frozen=True)
class Derived:
    derivation: Derivation

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class NotFoundAtBound:
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


@functools.cache
def _join_plan(rule: Rule) -> tuple[bool, tuple[Optional[int], ...], Optional[int], bool]:
    """How a rule's matches are found: (leftover, scans, via, led).

    leftover: the conclusion has variables no premise binds, whose
    instances are taken from the universe.  via, when not None, is a
    conclusion argument the earlier premises bind: the last premise is then
    found through the universe members with that argument.  This needs no
    leftover, and a last premise whose variables all occur in the earlier
    premises or the conclusion, so that each member fixes its instance.
    scans gives, per scanned premise, the first argument whose variables the
    earlier premises all bind: the premise then reads the steps indexed
    under that argument instead of every step with its head; None for the
    first premise, a variable, a premise with no such argument and a last
    premise found through the conclusion.  led: the two premises are a
    variable and a compound with it as an argument, and the first premise's
    steps are led by the second's."""
    prems = rule.premises
    before = [set()]
    for pattern in prems:
        before.append(before[-1] | _names(pattern))
    concl = rule.conclusion
    leftover = not _names(concl) <= before[-1]
    via = None
    if len(prems) >= 2 and isinstance(concl, App) and not leftover:
        bound = before[-2]
        if _names(prems[-1]) <= bound | _names(concl):
            via = next((j for j, a in enumerate(concl.args) if _names(a) <= bound), None)
    scanned = len(prems) if via is None else len(prems) - 1
    scans = tuple(
        next((j for j, a in enumerate(pattern.args) if _names(a) <= before[i]), None)
        if 0 < i < scanned and isinstance(pattern, App)
        else None
        for i, pattern in enumerate(prems)
    )
    led = scanned == len(prems) == 2 and isinstance(prems[0], Var) and isinstance(prems[1], App)
    led = led and prems[0] in prems[1].args
    return leftover, scans, via, led


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
    * Last premise through the conclusion.  When the earlier premises bind
      an argument of a fully bound conclusion (c3: p, q / and(p,q);
      ao1: or(p,q), or(p,r) / or(p,and(q,r))), the last premise is not
      scanned: each member instance of the conclusion fixes the last
      premise's instance, which is looked up among the steps.  A hit counts
      only if the scan would have reached it (recorded before the scan
      began, and from the mark on unless an earlier premise is new), and
      the hits are taken in step order, so the matches are again those of
      the scan; pairs whose conclusion lies outside the universe are never
      formed.
    * First premise led by the second.  When a rule's two premises are a
      variable and a compound with it as an argument (n3: p, neg(p) / q),
      a step below the mark starts a new match only if a second-premise
      step from the mark on binds the variable to it; only those are
      visited there, in step order, as the scan would reach them.
    * Compiled schemas.  Each schema is matched (_matcher), looked up
      (syntax.instance_lookup) and tested for membership (_member) by code
      compiled for it on first use.  Only universe members are built, so
      rejected candidates never enter the intern pool.

    A rule may have any number of premises and a schema any depth: fire and
    _Universe.extensions walk them on explicit stacks.  The universe stops
    at its first round that adds nothing, whatever the depth bound.

    Premises and goal may mention connectives the calculus does not govern;
    such subformulas are opaque monoliths the rules can carry around but
    never build.
    """
    premises = canon_sort(premises)
    depth_bound = max(universe_depth, 0)  # a negative depth bound, like 0, leaves the base alone
    universe = _Universe(calc, premises + [goal], depth_bound, cap=max(step_cap, 2000))
    levels, top = universe.levels, universe.top
    plans = [(rule, *_join_plan(rule)) for rule in calc.rules]
    # per head, the argument positions premises read steps by
    read_by_arg: dict[str, set[int]] = {}
    for rule, _, scans, _, _ in plans:
        for pattern, pos in zip(rule.premises, scans):
            if pos is not None:
                read_by_arg.setdefault(pattern.head, set()).add(pos)

    steps: list[Step] = []
    formulas: list[Formula] = []
    index: dict[Formula, int] = {}
    # step numbers in step order, by head symbol and by (head, argument
    # position, argument) for the positions in read_by_arg
    by_head: dict[str, list[int]] = {}
    by_arg: dict[tuple[str, int, Formula], list[int]] = {}

    def record(phi: Formula, just: Justification) -> None:
        k = len(steps)
        index[phi] = k
        steps.append(Step(phi, just))
        formulas.append(phi)
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
        """(conclusion, substitution, premise steps) for each new match,
        joined on a stack of candidate generators, one per premise position."""
        rule, leftover, scans, via, led = plan
        prems = rule.premises
        last = len(prems) - 1
        scanned = last if via is not None else last + 1
        # the compiled schemas, fetched once per firing
        concl = rule.conclusion
        member, build = _member(concl), instance_lookup(concl, True)
        last_instance = instance_lookup(prems[last]) if via is not None else None
        matchers = [_matcher(pattern) for pattern in prems]
        arg_instances = [instance_lookup(p.args[j]) if j is not None else None for p, j in zip(prems, scans)]

        def conclude(sigma: dict[str, Formula], used: tuple[int, ...], fresh: bool) -> Iterator:
            if not leftover and via is None:
                instance = member(sigma, levels, top)
                if instance is not None:
                    yield instance, sigma, used
                return
            low, end = (0 if fresh else mark), len(steps)
            found = []
            for filled in universe.extensions(concl, sigma, depth_bound):
                if leftover:
                    u = build(filled)
                    found.append(((depth(u), text(u)), u, filled, used))
                    continue
                k = index.get(last_instance(filled))  # type: ignore[misc]
                if k is not None and low <= k < end:
                    found.append((k, None, filled, used + (k,)))
            found.sort(key=itemgetter(0))
            for _, u, filled, steps_used in found:
                yield u or build(filled), filled, steps_used

        def candidates(i: int, sigma: dict[str, Formula], used: tuple[int, ...], fresh: bool) -> Iterator:
            pattern = prems[i]
            pos = scans[i]
            if isinstance(pattern, Var):
                entries = range(len(formulas))
            elif pos is None:
                entries = by_head.get(pattern.head, ())
            else:
                entries = by_arg.get((pattern.head, pos, arg_instances[i](sigma)), ())  # type: ignore[arg-type,misc]
            end = len(entries)
            start = 0 if fresh or i < last else bisect_left(entries, mark, 0, end)
            match = matchers[i]
            for j in range(start, end):
                k = entries[j]
                nxt = match(formulas[k], sigma)
                if nxt is not None:
                    yield nxt, used + (k,), fresh or k >= mark

        def led_by_second() -> Iterator:
            name, second = prems[0].name, prems[1]
            match = matchers[1]
            entries = by_head.setdefault(second.head, [])
            seen = bisect_left(entries, mark)
            todo = list(range(mark, len(steps)))  # a heap of the first-premise steps to visit
            k = -1
            while True:
                for n in entries[seen:]:
                    sigma = match(formulas[n], {})
                    j = None if sigma is None else index.get(sigma[name])
                    if j is not None and k < j < mark:
                        heapq.heappush(todo, j)
                seen = len(entries)
                if not todo:
                    return
                j = heapq.heappop(todo)
                if j > k:
                    k = j
                    yield {name: formulas[k]}, (k,), k >= mark

        if not scanned:
            yield from conclude({}, (), False)
            return
        stack = [led_by_second() if led else candidates(0, {}, (), False)]
        while stack:
            for sigma, used, fresh in stack[-1]:
                if len(stack) == scanned:
                    yield from conclude(sigma, used, fresh)
                else:
                    stack.append(candidates(len(stack), sigma, used, fresh))
                    break
            else:
                stack.pop()

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
        rules.append(
            Rule.of(
                r.get("name", f"r{len(rules)}"),
                [parse(p, sig) for p in premises],
                parse(conclusion, sig),
            )
        )
    return HilbertCalculus.of(sig, rules)

