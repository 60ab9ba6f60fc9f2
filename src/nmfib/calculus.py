"""Schematic Hilbert calculi and bounded forward-chaining derivation search.

Derivations are explicit certificates: each step names a rule, the
substitution used, and the indices of earlier steps supplying the premises,
so verification is independent of the search that produced them.

A negative answer is always NotFoundAtBound: the search is bounded by an
instantiation universe and a step cap and never claims non-derivability.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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
    interned_instance,
    parse,
    subformula_closure,
    text,
    var,
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
    "dump_calculus",
]


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple[Formula, ...]
    conclusion: Formula

    @staticmethod
    def of(name: str, premises: Iterable[Formula], conclusion: Formula) -> "Rule":
        return Rule(name, tuple(premises), conclusion)

    def schematic_variables(self) -> tuple[str, ...]:
        names = {v.name for phi in (*self.premises, self.conclusion) for v in variables(phi)}
        return tuple(sorted(names))

    def is_axiom(self) -> bool:
        return not self.premises

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


def _rules(sig: Signature, specs: Sequence[tuple[str, Sequence[str], str]]) -> list[Rule]:
    out = []
    for name, prems, concl in specs:
        out.append(Rule.of(name, [parse(p, sig) for p in prems], parse(concl, sig)))
    return out


def _sig(**names: int) -> Signature:
    return Signature.of(names)


def _builtins() -> dict[str, HilbertCalculus]:
    table: dict[str, HilbertCalculus] = {}

    def put(cid: str, sig: Signature, specs: Sequence[tuple[str, Sequence[str], str]]) -> None:
        table[cid] = HilbertCalculus.of(sig, _rules(sig, specs))

    put("B_top", _sig(top=0), [("t1", [], "top")])
    put("B_bot", _sig(bot=0), [("b1", ["bot"], "p")])
    put("B_neg", _sig(neg=1), [
        ("n1", ["p"], "neg(neg(p))"),
        ("n2", ["neg(neg(p))"], "p"),
        ("n3", ["p", "neg(p)"], "q"),
    ])
    put("B_and", _sig(**{"and": 2}), [
        ("c1", ["and(p,q)"], "p"),
        ("c2", ["and(p,q)"], "q"),
        ("c3", ["p", "q"], "and(p,q)"),
    ])
    put("B_or", _sig(**{"or": 2}), [
        ("d1", ["p"], "or(p,q)"),
        ("d2", ["or(p,p)"], "p"),
        ("d3", ["or(p,q)"], "or(q,p)"),
        ("d4", ["or(p,or(q,r))"], "or(or(p,q),r)"),
    ])
    put("B_imp", _sig(imp=2), [
        ("i1", [], "imp(p,imp(q,p))"),
        ("i2", [], "imp(imp(p,imp(q,r)),imp(imp(p,q),imp(p,r)))"),
        ("i3", [], "imp(imp(imp(p,q),p),p)"),
        ("i4", ["p", "imp(p,q)"], "q"),
    ])
    # sound rules for bi-implication; used where interaction examples need a
    # working iff engine (reflexivity, detachment, symmetry, reassociation)
    put("B_iff", _sig(iff=2), [
        ("e1", [], "iff(p,p)"),
        ("e2", ["p", "iff(p,q)"], "q"),
        ("e3", ["iff(p,q)"], "iff(q,p)"),
        ("e4", ["iff(iff(p,q),r)"], "iff(p,iff(q,r))"),
        ("e5", ["iff(p,iff(q,r))"], "iff(iff(p,q),r)"),
    ])
    put("B_bot1", _sig(bot1=1), [("u1", ["bot1(p)"], "q")])

    # interaction rule sets over joint signatures
    put("neg_pair", _sig(neg=1, sim=1), [
        ("ns1", ["neg(p)"], "sim(p)"),
        ("ns2", ["sim(p)"], "neg(p)"),
    ])
    put("or_pair", _sig(**{"or": 2, "or2": 2}), [
        ("oo1", ["or(p,or(q,r))"], "or(p,or2(q,r))"),
        ("oo2", ["or(p,or2(q,r))"], "or(p,or(q,r))"),
    ])
    put("and_or", _sig(**{"and": 2, "or": 2}), [
        ("ao1", ["or(p,q)", "or(p,r)"], "or(p,and(q,r))"),
        ("ao2", ["or(p,and(q,r))"], "or(p,q)"),
        ("ao3", ["or(p,and(q,r))"], "or(p,r)"),
    ])
    put("or_neg", _sig(**{"or": 2, "neg": 1}), [
        ("on1", [], "or(p,neg(p))"),
        ("on2", ["or(p,q)"], "or(p,neg(neg(q)))"),
        ("on3", ["or(p,neg(neg(q)))"], "or(p,q)"),
        ("on4", ["or(p,q)", "or(p,neg(q))"], "p"),
    ])
    put("coimp_bot", _sig(coimp=2, bot=0), [("cb1", ["p"], "coimp(bot,p)")])
    put("imp_bot", _sig(imp=2, bot=0), [("ib1", [], "imp(bot,p)")])
    put("neg_bot", _sig(neg=1, bot=0), [("nb1", [], "neg(bot)")])
    put("xor3_bots", _sig(xor3=3, bota=0, botb=0), [
        ("xb1", ["xor3(bota,p,q)"], "xor3(botb,p,q)"),
        ("xb2", ["xor3(botb,p,q)"], "xor3(bota,p,q)"),
    ])
    put("biimp_bot1", _sig(iff=2, bot1=1), [("eb1", [], "iff(bot1(p),bot1(q))")])
    return table


_BUILTIN = _builtins()
BUILTIN_IDS = tuple(sorted(_BUILTIN))


def builtin_calculus(cid: str) -> HilbertCalculus:
    try:
        return _BUILTIN[cid]
    except KeyError:
        raise SignatureError(f"unknown calculus id {cid!r}; known: {', '.join(BUILTIN_IDS)}")


def renamed(calc: HilbertCalculus, mapping: Mapping[str, str]) -> HilbertCalculus:
    """A copy of the calculus with connectives renamed (e.g. a second
    conjunction called and2)."""

    def ren(phi: Formula) -> Formula:
        if isinstance(phi, Var):
            return phi
        return app(mapping.get(phi.head, phi.head), tuple(ren(a) for a in phi.args))

    sig = Signature.of([(mapping.get(n, n), k) for n, k in calc.signature.connectives])
    rules = [Rule.of(r.name, [ren(p) for p in r.premises], ren(r.conclusion)) for r in calc.rules]
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

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula

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


def _match(pattern: Formula, target: Formula, sigma: dict[str, Formula]) -> Optional[dict[str, Formula]]:
    if isinstance(pattern, Var):
        bound = sigma.get(pattern.name)
        if bound is None:
            out = dict(sigma)
            out[pattern.name] = target
            return out
        return sigma if bound is target else None
    if isinstance(target, Var) or pattern.head != target.head or len(pattern.args) != len(target.args):
        return None
    for pa, ta in zip(pattern.args, target.args):
        nxt = _match(pa, ta, sigma)
        if nxt is None:
            return None
        sigma = nxt
    return sigma


def _universe(calc: HilbertCalculus, base: Sequence[Formula], depth_bound: int, cap: int) -> list[Formula]:
    """Instantiation pool: subformulas of the sequent plus a distinguished
    fresh variable, closed up to the depth bound under the calculus
    connectives, in (depth, text) order.  The cap truncates breadth-first,
    deepest candidates dropped first, so enlarging the bounds only appends."""
    pool = list(subformula_closure(base))
    pool.append(fresh_var(base))
    seen = set(pool)
    for _ in range(depth_bound):
        if len(seen) > cap:
            break
        grown = sorted(seen, key=lambda f: (depth(f), text(f)))
        for conn, arity in calc.signature.connectives:
            for args in itertools.product(grown, repeat=arity):
                candidate = app(conn, args)
                if candidate not in seen:
                    seen.add(candidate)
                if len(seen) > cap:
                    break
            if len(seen) > cap:
                break
    return sorted(seen, key=lambda f: (depth(f), text(f)))


_step_number = itemgetter(1)


def _rule_plan(rule: Rule) -> tuple[bool, Optional[int]]:
    """How a rule's conclusion gets its instances once the premises match.

    The first value says whether the conclusion has schematic variables no
    premise binds; the second is then the first conclusion argument whose
    variables the premises all bind (None if there is none), which keys the
    universe lookup for the candidates."""
    bound = {v.name for phi in rule.premises for v in variables(phi)}
    concl = rule.conclusion
    if {v.name for v in variables(concl)} <= bound:
        return False, None
    if isinstance(concl, Var):
        return True, None
    key = next((i for i, a in enumerate(concl.args) if {v.name for v in variables(a)} <= bound), None)
    return True, key


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
    partially instantiated conclusion against universe members.
    NotFoundAtBound is never a proof of non-derivability.

    The search runs in rounds; each round fires every rule in calculus
    order, and each firing tries premise matches in step order (premise
    position 0 outermost), recording conclusions as they are found.  Three
    devices cut the work without changing which steps are recorded, or in
    which order:

    * Semi-naive marks.  Each rule remembers how many steps existed when
      its previous firing began.  Every combination of steps below that
      mark was tried then, and trying it again can only re-find a recorded
      formula or one outside the universe.  So when all earlier premises of
      a match come from below the mark, the last premise position only
      scans the steps recorded since; a rule without premises fires once.
    * Indexes.  Derived formulas are kept in per-head lists, so a premise
      schema is matched only against formulas with its head.  Candidates
      for free conclusion variables come from a universe index keyed by
      (head, argument position, argument), on the first conclusion argument
      the premises fully bind, instead of a scan of the whole universe.
      Each index lists its members in step (or universe) order, and a scan
      stops at the length its list had when the scan began, as the full
      scan stopped at the step count it began with; so the matches found,
      and their order, are those of a full scan.
    * Lookup-only instantiation.  A conclusion instance is looked up with
      interned_instance, not built: the universe is interned, so an
      instance never built before lies outside it, and rejected candidates
      are never added to the intern pool.

    Premises and goal may mention connectives the calculus does not govern;
    such subformulas are opaque monoliths the rules can carry around but
    never build.
    """
    premises = canon_sort(premises)
    universe = _universe(calc, premises + [goal], universe_depth, cap=max(step_cap, 2000))
    in_universe = set(universe)
    universe_by_head: dict[str, list[Formula]] = {}
    universe_by_arg: dict[tuple[str, int, Formula], list[Formula]] = {}
    for u in universe:
        if isinstance(u, App):
            universe_by_head.setdefault(u.head, []).append(u)
            for pos, a in enumerate(u.args):
                universe_by_arg.setdefault((u.head, pos, a), []).append(u)

    steps: list[Step] = []
    index: dict[Formula, int] = {}
    # (formula, step number) in step order: all of them, and by head symbol
    every: list[tuple[Formula, int]] = []
    by_head: dict[str, list[tuple[Formula, int]]] = {}

    def record(phi: Formula, just: Justification) -> None:
        k = len(steps)
        index[phi] = k
        steps.append(Step(phi, just))
        every.append((phi, k))
        if isinstance(phi, App):
            by_head.setdefault(phi.head, []).append((phi, k))

    for phi in premises:
        record(phi, Premise())
    if goal in index:
        return Derived(_trim(steps, index, goal))

    def fire(rule: Rule, leftover: bool, key: Optional[int], mark: int) -> Iterator:
        """(conclusion, substitution, premise steps) for each new match."""
        prems = rule.premises
        last = len(prems) - 1

        def conclude(sigma: dict[str, Formula], used: tuple[int, ...]) -> Iterator:
            pattern = rule.conclusion
            if not leftover:
                concl = interned_instance(sigma, pattern)
                if concl in in_universe:
                    yield concl, sigma, used
                return
            if isinstance(pattern, Var):
                candidates: Sequence[Formula] = universe
            elif key is None:
                candidates = universe_by_head.get(pattern.head, ())
            else:
                arg = interned_instance(sigma, pattern.args[key])
                candidates = universe_by_arg.get((pattern.head, key, arg), ())  # type: ignore[arg-type]
            for u in candidates:
                filled = _match(pattern, u, sigma)
                if filled is not None:
                    yield u, filled, used

        def match_from(i: int, sigma: dict[str, Formula], used: tuple[int, ...], fresh: bool) -> Iterator:
            if i > last:
                yield from conclude(sigma, used)
                return
            pattern = prems[i]
            entries = every if isinstance(pattern, Var) else by_head.get(pattern.head, ())
            end = len(entries)
            start = 0 if fresh or i < last else bisect_left(entries, mark, 0, end, key=_step_number)
            for j in range(start, end):
                phi, k = entries[j]
                nxt = _match(pattern, phi, sigma)
                if nxt is not None:
                    yield from match_from(i + 1, nxt, used + (k,), fresh or k >= mark)

        return match_from(0, {}, (), False)

    plans = [(rule, *_rule_plan(rule)) for rule in calc.rules]
    marks: list[Optional[int]] = [None] * len(plans)
    while True:
        grew = False
        for r, (rule, leftover, key) in enumerate(plans):
            mark = marks[r]
            if mark is not None and not rule.premises:
                continue
            marks[r] = len(steps)
            for concl, sigma, used in fire(rule, leftover, key, mark or 0):
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
    needed: set[int] = set()

    def need(i: int) -> None:
        if i in needed:
            return
        needed.add(i)
        j = steps[i].justification
        if isinstance(j, RuleApp):
            for k in j.premise_steps:
                need(k)

    need(index[goal])
    keep = sorted(needed)
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
        if any(k >= i for k in j.premise_steps):
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
    sig = Signature.of([(c["name"], int(c["arity"])) for c in data["signature"]])
    rules = []
    for r in data["rules"]:
        rules.append(
            Rule.of(
                r.get("name", f"r{len(rules)}"),
                [parse(p, sig) for p in r.get("premises", [])],
                parse(r["conclusion"], sig),
            )
        )
    return HilbertCalculus.of(sig, rules)


def dump_calculus(calc: HilbertCalculus) -> dict:
    return {
        "signature": [{"name": n, "arity": k} for n, k in calc.signature.connectives],
        "rules": [
            {
                "name": r.name,
                "premises": [text(p) for p in r.premises],
                "conclusion": text(r.conclusion),
            }
            for r in calc.rules
        ],
    }


def load_calculus_file(path: str) -> HilbertCalculus:
    with open(path, "r", encoding="utf-8") as fh:
        return load_calculus(json.load(fh))
