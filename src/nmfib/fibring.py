"""Disjoint combination of two-valued fragments: semantics, decision, certificates.

The combined consequence relation of two matrix-defined logics over disjoint
signatures is captured by a strict product of powers of the component
matrices.  A component known to be saturated (a two-valued matrix none of
whose connectives is very significant, or a catalog matrix carrying the
saturation flag) enters at power 1; otherwise the requested finite power is
used.  Countermodels found at any finite power transfer to the combined
logic, so refutations are certificates; positive verdicts come from
derivations in the merged Hilbert calculi.

decide_recovery settles, exactly and by closed-form clone tests, whether
merging two fragments of classical logic yields the joint classical fragment:
    (a) one side induces only constant-1 functions and projections, or
    (b) both sides sit inside the conjunction-with-constants clone, or
    (c) one side sits inside the bi-implication clone and the other is a
        single 0-place falsum plus top-like connectives only.
Anything else is subclassical, and a witness sequent (classically valid,
refuted in the product) is produced and re-verified.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .boolfun import (
    BooleanFunction,
    ClosureBudgetExceeded,
    FragmentSpec,
    classify,
    clone_closure_at_arity,
    find_expression,
    fragment_in_clone,
    functionally_complete,
    nontop_unary_witness,
    standard_function,
)
from .calculus import (
    Derivation,
    HilbertCalculus,
    Rule,
    builtin_calculus,
    derive,
    merge,
    renamed,
    verify,
)
from .matrixops import power, strict_product
from .semantics import (
    Fails,
    Holds,
    MatrixError,
    Nmatrix,
    PartialValuation,
    bounded_saturation_check,
    entails,
    filter_valuations_by_rules,
    logically_equivalent,
    two_valued_matrix,
)
from .syntax import (
    Formula,
    Signature,
    app,
    apply_substitution,
    canon_sort,
    parse,
    subformula_closure,
    text,
    var,
    variables,
)

__all__ = [
    "Sequent",
    "Component",
    "component_matrix",
    "fibred_semantics",
    "truth_preserving_bot_matrix",
    "Classical",
    "Subclassical",
    "RecoveryVerdict",
    "decide_recovery",
    "WitnessNotFound",
    "subclassical_witness",
    "Yes",
    "No",
    "Unknown",
    "certify_entailment",
    "auto_calculus",
    "FcOutcome",
    "decide_fc_recovery",
    "ViolationFound",
    "NoneFound",
    "k_determinedness_probe",
    "phi_t_family",
    "standard_saturation_pools",
    "three_valued_negation_matrix",
    "catalog_fragments",
    "CATALOG_IDS",
    "Check",
    "Report",
    "reproduce",
]


@dataclass(frozen=True)
class Sequent:
    premises: tuple[Formula, ...]
    conclusion: Formula

    @staticmethod
    def of(premises: Iterable[Formula], conclusion: Formula) -> "Sequent":
        return Sequent(tuple(canon_sort(premises)), conclusion)

    def __str__(self) -> str:
        prem = ", ".join(text(p) for p in self.premises)
        return f"{prem} |- {text(self.conclusion)}" if prem else f"|- {text(self.conclusion)}"


Component = Union[FragmentSpec, Nmatrix]


def component_matrix(comp: Component) -> Nmatrix:
    if isinstance(comp, FragmentSpec):
        return two_valued_matrix(comp)
    return comp


def fibred_semantics(comp1: Component, comp2: Component, n: int) -> Nmatrix:
    """The strict product of component powers characterizing the combination.

    Saturated components are used at power 1; the others at power n.  A
    countermodel in the result embeds into every higher power (duplicate a
    coordinate), so refutations here are sound for the combined logic.
    """
    m1, m2 = component_matrix(comp1), component_matrix(comp2)
    if not m1.signature.disjoint_from(m2.signature):
        raise MatrixError("combined semantics needs disjoint signatures")
    return strict_product(
        power(m1, 1 if m1.saturated else n),
        power(m2, 1 if m2.saturated else n),
    )


def truth_preserving_bot_matrix(frag: FragmentSpec, bot_name: str = "bot") -> Nmatrix:
    """Deterministic 4-valued matrix for a truth-preserving fragment plus a
    0-place falsum: pairs acting componentwise, the falsum pinned to (1,0)."""
    for name, f in frag.functions:
        if not classify(f).truth_preserving:
            raise MatrixError(f"connective {name!r} is not truth-preserving")
    if bot_name in frag.signature:
        raise MatrixError(f"fragment already declares {bot_name!r}")
    squared = power(two_valued_matrix(frag), 2)
    interp = {conn: dict(cells) for conn, cells in squared.interp.items()}
    interp[bot_name] = {(): ("(1,0)",)}
    return Nmatrix(
        frag.signature.union(Signature.of({bot_name: 0})),
        squared.values,
        squared.designated,
        interp,
        name=f"M4_{bot_name}",
        saturated=False,
    )


# ---------------------------------------------------------------------------
# The recovery decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classical:
    condition: str  # "a", "b", or "c"
    detail: str = ""

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Subclassical:
    witness: Sequent
    power_used: int
    countermodel: PartialValuation

    def __bool__(self) -> bool:
        return False


RecoveryVerdict = Union[Classical, Subclassical]


def _condition_a(frag: FragmentSpec) -> bool:
    from .boolfun import in_clone_top

    for _, f in frag.functions:
        if f.arity == 0:
            if f.bits == 0:
                return False
        elif not in_clone_top(f):
            return False
    return True


def _condition_b(f1: FragmentSpec, f2: FragmentSpec) -> bool:
    return fragment_in_clone(f1, "and_top_bot") and fragment_in_clone(f2, "and_top_bot")


def _condition_c(side_biimp: FragmentSpec, side_bot: FragmentSpec) -> bool:
    if not fragment_in_clone(side_biimp, "biimp"):
        return False
    bots = [n for n, f in side_bot.functions if f.arity == 0 and f.bits == 0]
    if len(bots) != 1:
        return False
    # everything else must be top-like; projections in particular disqualify
    return all(
        classify(f).top_like
        for n, f in side_bot.functions
        if n != bots[0]
    )


def decide_recovery(
    f1: FragmentSpec,
    f2: FragmentSpec,
    n: int = 2,
    search_depth: int = 2,
) -> RecoveryVerdict:
    """Does merging the two classical fragments recover the joint fragment?

    Classical verdicts name the first matching condition in the order a, b,
    c.  Otherwise the combination is subclassical and the verdict carries a
    re-verified witness: a classically valid sequent refuted in the product.
    """
    if not f1.signature.disjoint_from(f2.signature):
        raise MatrixError("decide_recovery needs disjoint signatures")
    if _condition_a(f1):
        return Classical("a", "first fragment is top-like/projective")
    if _condition_a(f2):
        return Classical("a", "second fragment is top-like/projective")
    if _condition_b(f1, f2):
        return Classical("b", "both fragments inside the conjunction-with-constants clone")
    if _condition_c(f1, f2):
        return Classical("c", "first fragment affine-1-preserving, second a lone falsum plus top-likes")
    if _condition_c(f2, f1):
        return Classical("c", "second fragment affine-1-preserving, first a lone falsum plus top-likes")
    return subclassical_witness(f1, f2, n=n, search_depth=search_depth)


class WitnessNotFound(RuntimeError):
    """No witness found within the given bounds; never a classicality claim."""


def _classically_valid(union_frag: FragmentSpec, seq: Sequent) -> bool:
    return bool(entails(two_valued_matrix(union_frag), list(seq.premises), seq.conclusion))


def _refute_in_product(
    f1: FragmentSpec, f2: FragmentSpec, seq: Sequent, n: int, n_cap: int
) -> Optional[tuple[int, PartialValuation]]:
    for level in range(n, n_cap + 1):
        verdict = entails(fibred_semantics(f1, f2, level), list(seq.premises), seq.conclusion)
        if isinstance(verdict, Fails):
            return level, verdict.countermodel
    return None


def _l2_witnesses(frag: FragmentSpec, bot: Formula) -> list[Sequent]:
    """Witness sequents for a fragment expressing a connective from the short
    list {or, majority, neg, xor, and-of-or}, against a 0-place falsum.

    Each sequent instantiates the corresponding classical failure through a
    derived-connective expression found over the fragment.
    """
    p, q = var("p"), var("q")
    shapes = [
        (standard_function("or"), lambda e: Sequent.of([_plug(e, [bot, p])], p)),
        (standard_function("thr_3_2"), lambda e: Sequent.of([_plug(e, [bot, p, q])], p)),
        (standard_function("neg"), lambda e: Sequent.of([], _plug(e, [bot]))),
        (standard_function("xor"), lambda e: Sequent.of([_plug(e, [bot, p])], p)),
        (BooleanFunction.from_string("00000111", 3), lambda e: Sequent.of([_plug(e, [p, bot, q])], q)),
    ]
    out = []
    for target, build in shapes:
        expr = find_expression(frag, target)
        if expr is not None:
            out.append(build(expr))
    return out


def _plug(expr: Formula, args: Sequence[Formula]) -> Formula:
    return apply_substitution({f"p{i + 1}": a for i, a in enumerate(args)}, expr)


def _nest(theta: Formula, e: int) -> Formula:
    out: Formula = var("p")
    for _ in range(e):
        out = apply_substitution({"p": out}, theta)
    return out


def _phi_t(name1: str, g1: BooleanFunction, theta: Formula, t: int) -> Formula:
    cls = classify(g1)
    proj = set(cls.projective_indices)
    s = g1.arity - len(proj)
    args: list[Formula] = []
    proj_rank = 0
    nonproj_rank = 0
    for i in range(1, g1.arity + 1):
        if i in proj:
            proj_rank += 1
            args.append(var(f"p{proj_rank}"))
        else:
            nonproj_rank += 1
            args.append(_nest(theta, t * s + nonproj_rank))
    return app(name1, args)


def _curated_sequents(f1: FragmentSpec, f2: FragmentSpec) -> list[Sequent]:
    """Candidate witnesses in priority order; each is verified before use."""
    out: list[Sequent] = []
    p, q, r = var("p"), var("q"), var("r")

    def add(seq: Sequent) -> None:
        if seq not in out:
            out.append(seq)

    # two syntactic copies of one very significant connective
    for n1, g1 in f1.functions:
        for n2, g2 in f2.functions:
            if g1 == g2 and classify(g1).very_significant:
                ps = [var(f"p{i}") for i in range(1, g1.arity + 1)]
                add(Sequent.of([app(n1, ps)], app(n2, ps)))
                add(Sequent.of([app(n2, ps)], app(n1, ps)))

    # conjunction against disjunction: distributivity
    for fa, fb in ((f1, f2), (f2, f1)):
        for na, ga in fa.functions:
            if ga != standard_function("or"):
                continue
            for nb, gb in fb.functions:
                if gb != standard_function("and"):
                    continue
                lhs = app(na, (p, app(nb, (q, r))))
                rhs = app(nb, (app(na, (p, q)), app(na, (p, r))))
                add(Sequent.of([lhs], rhs))

    # disjunction against negation: excluded middle
    for fa, fb in ((f1, f2), (f2, f1)):
        for na, ga in fa.functions:
            if ga != standard_function("or"):
                continue
            for nb, gb in fb.functions:
                if gb != standard_function("neg"):
                    continue
                add(Sequent.of([], app(na, (p, app(nb, (p,))))))

    # a falsum on one side against an expressible short-list connective
    for fa, fb in ((f1, f2), (f2, f1)):
        bots = [n for n, f in fb.functions if f.arity == 0 and f.bits == 0]
        for b in bots:
            for seq in _l2_witnesses(fa, app(b, ())):
                add(seq)
        # two falsums against an expressible ternary parity connective
        if len(bots) >= 2:
            expr = find_expression(fa, standard_function("xor3"))
            if expr is not None:
                add(Sequent.of([_plug(expr, [p, app(bots[0], ()), app(bots[1], ())])], p))

    # non-local-tabularity families: classically-equal members
    for fa, fb in ((f1, f2), (f2, f1)):
        for na, ga in fa.functions:
            if not classify(ga).very_significant:
                continue
            for nb, gb in fb.functions:
                if gb.arity < 1 or classify(gb).top_like:
                    continue
                theta = nontop_unary_witness(nb, gb)
                phis = [_phi_t(na, ga, theta, t) for t in range(3)]
                for a, b in itertools.permutations(range(3), 2):
                    add(Sequent.of([phis[a]], phis[b]))
    return out


def _fallback_search(
    f1: FragmentSpec, f2: FragmentSpec, union: FragmentSpec, search_depth: int, pool_cap: int = 120
) -> list[Sequent]:
    """Empty- and single-premise sequents over a depth-bounded formula pool,
    in canonical order.  The pool cap keeps the sweep desk-scale."""
    sig = union.signature
    pool: list[Formula] = [var("p"), var("q")]
    seen = set(pool)
    for _ in range(search_depth):
        grown = canon_sort(pool)
        for conn, arity in sig.connectives:
            for args in itertools.product(grown, repeat=arity):
                phi = app(conn, args)
                if phi not in seen:
                    seen.add(phi)
                    pool.append(phi)
                if len(pool) >= pool_cap:
                    break
            if len(pool) >= pool_cap:
                break
        if len(pool) >= pool_cap:
            break
    pool = canon_sort(pool)
    out = []
    for concl in pool:
        out.append(Sequent.of([], concl))
    for prem in pool:
        for concl in pool:
            if prem != concl:
                out.append(Sequent.of([prem], concl))
    return out


def subclassical_witness(
    f1: FragmentSpec,
    f2: FragmentSpec,
    n: int = 2,
    search_depth: int = 2,
    n_cap: int = 3,
) -> Subclassical:
    """A sequent valid in the joint classical fragment but refuted in the
    product, with its countermodel; curated candidates first, bounded
    sequent search as a fallback."""
    union = f1.union(f2)
    for seq in _curated_sequents(f1, f2):
        if not _classically_valid(union, seq):
            continue
        hit = _refute_in_product(f1, f2, seq, n, n_cap)
        if hit is not None:
            level, cm = hit
            return Subclassical(seq, level, cm)
    for seq in _fallback_search(f1, f2, union, search_depth):
        if not _classically_valid(union, seq):
            continue
        hit = _refute_in_product(f1, f2, seq, n, n_cap)
        if hit is not None:
            level, cm = hit
            return Subclassical(seq, level, cm)
    raise WitnessNotFound(
        f"no witness found up to power {n_cap} and depth {search_depth}"
    )


# ---------------------------------------------------------------------------
# Entailment certificates for the combined logic
# ---------------------------------------------------------------------------

def auto_calculus(frag: FragmentSpec) -> HilbertCalculus:
    """Sound rules for a fragment, read off the tables.

    Projection-conjunctions get elimination/introduction rules, bottom-like
    connectives explosion, and the four workhorse tables (or, neg, imp, iff)
    their stock rule sets.  Connectives with no known calculus contribute no
    rules; the derivation side just gets weaker, never unsound.
    """
    sig = frag.signature
    rules: list[Rule] = []
    stock = {
        standard_function("or"): "B_or",
        standard_function("neg"): "B_neg",
        standard_function("imp"): "B_imp",
        standard_function("iff"): "B_iff",
    }
    stock_names = {"B_or": "or", "B_neg": "neg", "B_imp": "imp", "B_iff": "iff"}
    for name, f in frag.functions:
        cid = stock.get(f)
        if cid is not None:
            base = builtin_calculus(cid)
            rules.extend(renamed(base, {stock_names[cid]: name}).rules)
            continue
        cls = classify(f)
        ps = tuple(var(f"p{i}") for i in range(1, f.arity + 1))
        head = app(name, ps)
        if cls.projection_conjunction is not None:
            for j in cls.projection_conjunction:
                rules.append(Rule.of(f"{name}_e{j}", [head], ps[j - 1]))
            rules.append(
                Rule.of(f"{name}_i", [ps[j - 1] for j in cls.projection_conjunction], head)
            )
            continue
        if cls.bottom_like:
            rules.append(Rule.of(f"{name}_x", [head], var("q")))
            continue
        # no stock calculus for this table
    # dedupe names
    seen: dict[str, int] = {}
    unique = []
    for r in rules:
        nm = r.name
        while nm in seen:
            nm += "'"
        seen[nm] = 1
        unique.append(Rule(nm, r.premises, r.conclusion))
    return HilbertCalculus.of(sig, unique)


@dataclass(frozen=True)
class Yes:
    derivation: Derivation

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class No:
    countermodel: PartialValuation
    power_used: int
    exactness: str = "exact"  # "heuristic" when interaction rules were filtered

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Unknown:
    power_used: int
    universe_depth: int
    step_cap: int


CertifyVerdict = Union[Yes, No, Unknown]


def _component_calculus(comp: Component) -> HilbertCalculus:
    if isinstance(comp, FragmentSpec):
        return auto_calculus(comp)
    return HilbertCalculus.of(comp.signature, ())


def certify_entailment(
    f1: Component,
    f2: Component,
    extra_rules: Optional[HilbertCalculus],
    premises: Iterable[Formula],
    conclusion: Formula,
    n: int = 2,
    universe_depth: int = 2,
    step_cap: int = 4000,
) -> CertifyVerdict:
    """Two-sided bounded check for the combined logic.

    Without interaction rules: No comes from a countermodel in the
    finite-power product (sound: the product logic extends the combination),
    Yes from a verified derivation in the merged calculi.  With interaction
    rules the query is about the strengthened logic, so the refutation side
    must respect the rules: the derivation runs first, and a failed
    rule-filtered product query yields a No tagged heuristic (rule respect
    is only checked within the bounded universe).  Unknown reports the
    bounds when both searches fail.

    Components may be catalog Nmatrices instead of fragments (e.g. the
    saturated 3-valued negation matrices at power 1); they contribute no
    rules to the derivation side.
    """
    premises = canon_sort(premises)
    product = fibred_semantics(f1, f2, n)
    calc = merge(_component_calculus(f1), _component_calculus(f2))
    if extra_rules is None or not extra_rules.rules:
        semantic = entails(product, premises, conclusion)
        if isinstance(semantic, Fails):
            return No(semantic.countermodel, n)
        found = derive(calc, premises, conclusion, universe_depth=universe_depth, step_cap=step_cap)
        if found:
            if not verify(found.derivation, calc, premises, conclusion):
                raise AssertionError("derivation failed to re-verify")
            return Yes(found.derivation)
        return Unknown(n, universe_depth, step_cap)
    calc = merge(calc, extra_rules)
    found = derive(calc, premises, conclusion, universe_depth=universe_depth, step_cap=step_cap)
    if found:
        if not verify(found.derivation, calc, premises, conclusion):
            raise AssertionError("derivation failed to re-verify")
        return Yes(found.derivation)
    filtered = filter_valuations_by_rules(
        product, extra_rules.rules, premises, conclusion, saturated=product.saturated
    )
    if isinstance(filtered.verdict, Fails):
        return No(filtered.verdict.countermodel, n, exactness=filtered.exactness)
    return Unknown(n, universe_depth, step_cap)


# ---------------------------------------------------------------------------
# Functional-completeness recovery (the clone pairing corollary)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FcOutcome:
    outcome: str  # "Recovered", "NotRecovered", "OutOfBound"
    clone: Optional[str] = None
    up1_side: Optional[int] = None
    detail: str = ""


def _is_up1(frag: FragmentSpec) -> bool:
    if not _condition_a(frag):
        return False
    return any(classify(f).top_like for _, f in frag.functions)


@functools.lru_cache(maxsize=256)
def _closure_memo(funcs: tuple[BooleanFunction, ...], k: int) -> frozenset[BooleanFunction]:
    return clone_closure_at_arity(list(funcs), k)


def _clone_equals(frag: FragmentSpec, gens: Mapping[str, BooleanFunction]) -> Optional[bool]:
    """Mutual generator membership; None when a closure hits its budget."""
    from .boolfun import fragment_functions_at_arity_one

    funcs = tuple(f for _, f in fragment_functions_at_arity_one(frag))
    gen_funcs = tuple(sorted(set(gens.values()), key=lambda f: (f.arity, f.bits)))
    try:
        for g in gens.values():
            if g not in _closure_memo(funcs, g.arity):
                return False
        for f in funcs:
            if f.arity > 4:
                return None
            if f not in _closure_memo(gen_funcs, f.arity):
                return False
    except ClosureBudgetExceeded:
        return None
    return True


def decide_fc_recovery(f1: FragmentSpec, f2: FragmentSpec, n_max: int = 2) -> FcOutcome:
    """When neither fragment is functionally complete but the union is:
    recovery happens exactly when one side generates only top-likes and
    projections (with some top-like present) and the other side's clone is
    the self-dual clone, the coimplication clone, or one of the bounded
    threshold-coimplication family."""
    if not f1.signature.disjoint_from(f2.signature):
        raise MatrixError("decide_fc_recovery needs disjoint signatures")
    union = f1.union(f2)
    if not functionally_complete(union).complete:
        raise MatrixError("precondition violated: the union is not functionally complete")
    for i, frag in ((1, f1), (2, f2)):
        if functionally_complete(frag).complete:
            raise MatrixError(f"precondition violated: fragment {i} is already complete")
    targets: list[tuple[str, dict[str, BooleanFunction]]] = [
        ("D", {"thr_3_2": standard_function("thr_3_2"), "neg": standard_function("neg")}),
        ("T0_inf", {"coimp": standard_function("coimp")}),
    ]
    out_of_bound = n_max > 2
    for level in range(0, min(n_max, 2) + 1):
        targets.append(
            (
                f"T0_{level + 1}",
                {
                    f"thr_{level + 2}_{level + 1}": standard_function(f"thr_{level + 2}_{level + 1}"),
                    "coimp": standard_function("coimp"),
                },
            )
        )
    saw_budget = False
    for up_side, other_side, up_idx in ((f1, f2, 1), (f2, f1, 2)):
        if not _is_up1(up_side):
            continue
        for clone_name, gens in targets:
            eq = _clone_equals(other_side, gens)
            if eq is None:
                saw_budget = True
                continue
            if eq:
                return FcOutcome("Recovered", clone_name, up_idx)
    if saw_budget or out_of_bound:
        return FcOutcome("OutOfBound", detail=f"n_max={n_max}, closure arity cap 4")
    return FcOutcome("NotRecovered")


# ---------------------------------------------------------------------------
# Diagnostics: k-determinedness and the non-local-tabularity families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViolationFound:
    gamma: tuple[Formula, ...]
    phi: Formula
    power_used: int
    countermodel: PartialValuation

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class NoneFound:
    reason: str

    def __bool__(self) -> bool:
        return False


def _kdet_families(f1: FragmentSpec, f2: FragmentSpec, k: int):
    """Instantiate the generator families for the supported shapes."""
    or_table = standard_function("or")
    iff_table = standard_function("iff")
    for fa, fb in ((f1, f2), (f2, f1)):
        o1 = next((n for n, g in fa.functions if g == or_table), None)
        o2 = next((n for n, g in fb.functions if g == or_table), None)
        if o1 and o2:
            ps = [var(f"p{i}") for i in range(1, k + 2)]
            q = var("q")
            gamma = [app(o1, (ps[i], ps[j])) for i in range(k) for j in range(i + 1, k + 1)]
            terms = [app(o2, (q, app(o1, (ps[i], q)))) for i in range(k + 1)]
            phi = terms[0]
            for t in terms[1:]:
                phi = app(o1, (phi, t))
            yield gamma, phi
        i1 = next((n for n, g in fa.functions if g == iff_table), None)
        b1 = next((n for n, g in fb.functions if g.arity == 1 and g.bits == 0), None)
        if i1 and b1:
            psis = [app(b1, (var(f"p{i}"),)) for i in range(1, k + 2)]
            gamma = []
            fresh_idx = k + 2
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    extra = app(b1, (var(f"p{fresh_idx}"),))
                    fresh_idx += 1
                    gamma.append(app(i1, (app(i1, (psis[i], psis[j])), extra)))
            yield gamma, var(f"p{fresh_idx}")


def k_determinedness_probe(
    f1: FragmentSpec,
    f2: FragmentSpec,
    k: int,
    n: int = 3,
    universe_depth: int = 1,
    step_cap: int = 4000,
):
    """Refute k-determinedness of the combination, if a known family applies.

    A violation is a pair (Gamma, phi) with Gamma not entailing phi in the
    n-power product, while every substitution into {p1..pk} makes the
    instance Hilbert-derivable in the merged calculi.  Finding one certifies
    the combined logic has no k-value non-deterministic semantics.
    """
    if k < 1:
        raise ValueError("k must be positive")
    product = fibred_semantics(f1, f2, n)
    calc = merge(auto_calculus(f1), auto_calculus(f2))
    for gamma, phi in _kdet_families(f1, f2, k):
        semantic = entails(product, gamma, phi)
        if not isinstance(semantic, Fails):
            continue
        names = sorted({v.name for g in (*gamma, phi) for v in variables(g)})
        targets = [var(f"p{i}") for i in range(1, k + 1)]
        all_derivable = True
        for combo in itertools.product(targets, repeat=len(names)):
            sigma = dict(zip(names, combo))
            gamma_s = [apply_substitution(sigma, g) for g in gamma]
            phi_s = apply_substitution(sigma, phi)
            found = derive(calc, gamma_s, phi_s, universe_depth=universe_depth, step_cap=step_cap)
            if not (found and verify(found.derivation, calc, gamma_s, phi_s)):
                all_derivable = False
                break
        if all_derivable:
            return ViolationFound(tuple(gamma), phi, n, semantic.countermodel)
    return NoneFound(f"no applicable family produced a violation at power {n}")


def phi_t_family(
    c1: tuple[str, BooleanFunction],
    c2: tuple[str, BooleanFunction],
    t_max: int,
    n: int = 3,
    n_cap: int = 4,
) -> tuple[list[Formula], int]:
    """The formulas phi_0..phi_t_max built from a very significant connective
    and a non-top-like partner, pairwise non-equivalent in the product.

    theta-nestings of the partner fill the non-projective slots, shifted by
    t.  Non-equivalence is checked at power n and escalated on failure up to
    n_cap; the power actually used is returned.
    """
    name1, g1 = c1
    name2, g2 = c2
    if not classify(g1).very_significant:
        raise ValueError(f"{name1!r} is not very significant")
    cls2 = classify(g2)
    if cls2.top_like or g2.arity < 1:
        raise ValueError(f"{name2!r} must be non-top-like of arity >= 1")
    theta = nontop_unary_witness(name2, g2)
    phis = [_phi_t(name1, g1, theta, t) for t in range(t_max + 1)]
    f1 = FragmentSpec.of({name1: g1})
    f2 = FragmentSpec.of({name2: g2})
    for level in range(n, n_cap + 1):
        product = fibred_semantics(f1, f2, level)
        ok = True
        for a, b in itertools.combinations(range(len(phis)), 2):
            if logically_equivalent(product, [phis[a]], [phis[b]]):
                ok = False
                break
        if ok:
            return phis, level
    raise WitnessNotFound(f"family members not separated up to power {n_cap}")


def standard_saturation_pools(name: str, f: BooleanFunction) -> tuple[list[Formula], list[Formula]]:
    """Candidate pools refuting saturation of a single connective's matrix.

    Built from the classification: the premise applies the connective to
    fresh variables at the non-projective slots; the refutation set holds
    those variables, replacements for them, and the replaced application.
    """
    cls = classify(f)
    proj = set(cls.projective_indices)
    qs, rs = [], []
    args_q, args_r = [], []
    proj_rank = 0
    for i in range(1, f.arity + 1):
        if i in proj:
            proj_rank += 1
            args_q.append(var(f"p{proj_rank}"))
            args_r.append(var(f"p{proj_rank}"))
        else:
            qs.append(var(f"q{len(qs) + 1}"))
            rs.append(var(f"r{len(rs) + 1}"))
            args_q.append(qs[-1])
            args_r.append(rs[-1])
    gamma_pool = [app(name, args_q)]
    delta_pool: list[Formula] = [*qs, *rs]
    if qs:
        delta_pool.append(app(name, args_r))
    return gamma_pool, delta_pool


# ---------------------------------------------------------------------------
# Catalog of worked combinations
# ---------------------------------------------------------------------------

def three_valued_negation_matrix(name: str = "neg") -> Nmatrix:
    """Saturated 3-valued matrix for a classical-negation-table connective."""
    return Nmatrix(
        Signature.of({name: 1}),
        ("0", "1/2", "1"),
        ("1",),
        {name: {("0",): ("1",), ("1/2",): ("1/2",), ("1",): ("0",)}},
        name=f"M3_{name}",
        saturated=True,
    )


def catalog_fragments(example_id: str) -> tuple[FragmentSpec, FragmentSpec]:
    from .boolfun import standard_fragment

    table = {
        "two_conj": (standard_fragment("and"), standard_fragment("and2", rename={"and2": "and"})),
        "two_disj": (standard_fragment("or"), standard_fragment("or2", rename={"or2": "or"})),
        "two_neg": (standard_fragment("neg"), standard_fragment("sim", rename={"sim": "neg"})),
        "conj_disj": (standard_fragment("and"), standard_fragment("or")),
        "disj_neg": (standard_fragment("or"), standard_fragment("neg")),
        "coimp_top": (standard_fragment("coimp"), standard_fragment("top")),
        "coimp_bot": (standard_fragment("coimp"), standard_fragment("bot")),
        "imp_bot": (standard_fragment("imp"), standard_fragment("bot")),
        "biimp_bot": (standard_fragment("iff"), standard_fragment("bot")),
        "biimp_bot1": (
            standard_fragment("iff"),
            FragmentSpec.of({"bot1": BooleanFunction.from_string("00", 1)}),
        ),
        "xor3_two_bots": (
            standard_fragment("xor3"),
            FragmentSpec.of({"bota": standard_function("bot"), "botb": standard_function("bot")}),
        ),
        "neg_bot": (standard_fragment("neg"), standard_fragment("bot")),
    }
    if example_id not in table:
        raise KeyError(f"unknown example {example_id!r}; known: {', '.join(sorted(table))}")
    return table[example_id]


CATALOG_IDS = (
    "two_conj",
    "two_disj",
    "two_neg",
    "conj_disj",
    "disj_neg",
    "coimp_top",
    "coimp_bot",
    "imp_bot",
    "biimp_bot",
    "biimp_bot1",
    "xor3_two_bots",
    "neg_bot",
)

# expected decide_recovery outcome per catalog entry
CATALOG_EXPECTED = {
    "two_conj": "b",
    "two_disj": "sub",
    "two_neg": "sub",
    "conj_disj": "sub",
    "disj_neg": "sub",
    "coimp_top": "a",
    "coimp_bot": "sub",
    "imp_bot": "sub",
    "biimp_bot": "c",
    "biimp_bot1": "sub",
    "xor3_two_bots": "sub",
    "neg_bot": "sub",
}


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    example_id: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"[{mark}] {self.example_id}: {c.name}"
            if c.detail:
                line += f" ({c.detail})"
            out.append(line)
        return out


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return Check(name, bool(passed), detail)


def _expected_recovery_check(example_id: str, f1: FragmentSpec, f2: FragmentSpec) -> list[Check]:
    verdict = decide_recovery(f1, f2)
    want = CATALOG_EXPECTED[example_id]
    if want == "sub":
        ok = isinstance(verdict, Subclassical)
        detail = f"witness {verdict.witness} at power {verdict.power_used}" if ok else str(verdict)
        checks = [_check("decide_recovery is Subclassical", ok, detail)]
        if ok:
            checks.append(
                _check(
                    "witness countermodel re-verifies",
                    verdict.countermodel.check(),
                )
            )
            checks.append(
                _check(
                    "witness classically valid",
                    _classically_valid(f1.union(f2), verdict.witness),
                )
            )
        return checks
    ok = isinstance(verdict, Classical) and verdict.condition == want
    return [_check(f"decide_recovery is Classical({want})", ok, str(verdict))]


def _reproduce_two_conj() -> list[Check]:
    f1, f2 = catalog_fragments("two_conj")
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 1)
    checks = [_check("product is 2-valued", len(product.values) == 2)]
    a, b = parse("and(p,q)", sig), parse("and2(p,q)", sig)
    checks.append(_check("p and q =||= p and2 q", logically_equivalent(product, [a], [b])))
    calc = merge(builtin_calculus("B_and"), renamed(builtin_calculus("B_and"), {"and": "and2"}))
    found = derive(calc, [a], b, universe_depth=1, step_cap=500)
    checks.append(
        _check(
            "merged calculi derive the collapse",
            bool(found) and verify(found.derivation, calc, [a], b),
        )
    )
    checks.extend(_expected_recovery_check("two_conj", f1, f2))
    return checks


def _reproduce_two_disj() -> list[Check]:
    f1, f2 = catalog_fragments("two_disj")
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    lhs, rhs = parse("or(p,q)", sig), parse("or2(p,q)", sig)
    verdict = entails(product, [lhs], rhs)
    checks = [
        _check("or(p,q) does not give or2(p,q) at power 2", isinstance(verdict, Fails)),
    ]
    if isinstance(verdict, Fails):
        checks.append(_check("countermodel re-verifies", verdict.countermodel.check()))
    calc = merge(
        merge(builtin_calculus("B_or"), renamed(builtin_calculus("B_or"), {"or": "or2"})),
        builtin_calculus("or_pair"),
    )
    prem = parse("or(p,or(q,r))", sig)
    goal = parse("or(p,or2(q,r))", sig)
    found = derive(calc, [prem], goal, universe_depth=1, step_cap=1000)
    checks.append(
        _check(
            "interaction rules derive the mixed disjunction",
            bool(found) and verify(found.derivation, calc, [prem], goal),
        )
    )
    probe = k_determinedness_probe(f1, f2, 1, n=3)
    checks.append(_check("not 1-determined (power 3)", bool(probe)))
    phis, level = phi_t_family(("or", standard_function("or")), ("or2", standard_function("or")), 2, n=3)
    checks.append(_check("phi_t family pairwise distinct", len(phis) == 3, f"power {level}"))
    checks.extend(_expected_recovery_check("two_disj", f1, f2))
    return checks


def _two_neg_product() -> Nmatrix:
    return strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))


def _reproduce_two_neg() -> list[Check]:
    f1, f2 = catalog_fragments("two_neg")
    sig = f1.signature.union(f2.signature)
    product = _two_neg_product()
    half = "1/2"
    expected_neg = {
        "(0,0)": {"(1,1)"},
        f"(0,{half})": {"(1,1)"},
        f"({half},0)": {f"({half},0)", f"({half},{half})"},
        f"({half},{half})": {f"({half},0)", f"({half},{half})"},
        "(1,1)": {"(0,0)", f"(0,{half})"},
    }
    expected_sim = {
        "(0,0)": {"(1,1)"},
        f"(0,{half})": {f"(0,{half})", f"({half},{half})"},
        f"({half},0)": {"(1,1)"},
        f"({half},{half})": {f"(0,{half})", f"({half},{half})"},
        "(1,1)": {"(0,0)", f"({half},0)"},
    }
    ok_cells = all(
        set(product.cell("neg", (v,))) == expected_neg[v] for v in product.values
    ) and all(set(product.cell("sim", (v,))) == expected_sim[v] for v in product.values)
    checks = [
        _check("5 values", len(product.values) == 5),
        _check("5-valued tables match the worked example", ok_cells),
    ]
    np_, sp = parse("neg(p)", sig), parse("sim(p)", sig)
    verdict = entails(product, [np_], sp)
    checks.append(_check("neg p does not give sim p", isinstance(verdict, Fails)))
    if isinstance(verdict, Fails):
        checks.append(_check("countermodel re-verifies", verdict.countermodel.check()))
    pair = builtin_calculus("neg_pair")
    filtered = filter_valuations_by_rules(product, pair.rules, [np_], sp, saturated=True)
    checks.append(_check("filtered semantics validates neg p |- sim p", bool(filtered)))
    checks.append(_check("filtering is exact (saturated)", filtered.exactness == "exact"))

    # respecting the interaction rules forbids exactly the two mixed values
    from .semantics import enumerate_partial_valuations, respects_rule

    domain = subformula_closure(
        [parse(t, sig) for t in ("neg(neg(p))", "neg(sim(p))", "sim(neg(p))", "sim(sim(p))")]
    )
    inner = [parse(t, sig) for t in ("p", "neg(p)", "sim(p)")]
    survivors = [
        v
        for v in enumerate_partial_valuations(product, domain)
        if all(respects_rule(v, r, domain) for r in pair.rules)
    ]
    bad = {f"(0,{half})", f"({half},0)"}
    no_bad = all(v.value(phi) not in bad for v in survivors for phi in inner)
    used = {v.value(phi) for v in survivors for phi in inner}
    checks.append(_check("surviving valuations avoid the mixed values", no_bad))
    checks.append(
        _check("all three agreeing values still occur", used == {"(0,0)", f"({half},{half})", "(1,1)"})
    )
    from .matrixops import restrict_values

    purged = restrict_values(product, {"(0,0)", f"({half},{half})", "(1,1)"})
    checks.append(_check("purged matrix is deterministic", purged.deterministic()))
    calc = merge(
        merge(builtin_calculus("B_neg"), renamed(builtin_calculus("B_neg"), {"neg": "sim"})),
        pair,
    )
    found = derive(calc, [np_], sp, universe_depth=1, step_cap=500)
    checks.append(
        _check(
            "interaction rules derive sim p from neg p",
            bool(found) and verify(found.derivation, calc, [np_], sp),
        )
    )
    checks.extend(_expected_recovery_check("two_neg", f1, f2))
    return checks


def _reproduce_conj_disj() -> list[Check]:
    f1, f2 = catalog_fragments("conj_disj")
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    lhs = parse("or(p,and(q,r))", sig)
    rhs = parse("and(or(p,q),or(p,r))", sig)
    verdict = entails(product, [lhs], rhs)
    checks = [_check("distributivity fails in the product", isinstance(verdict, Fails))]
    if isinstance(verdict, Fails):
        checks.append(_check("countermodel re-verifies", verdict.countermodel.check()))
    calc = merge(
        merge(builtin_calculus("B_or"), builtin_calculus("B_and")),
        builtin_calculus("and_or"),
    )
    found = derive(calc, [lhs], rhs, universe_depth=1, step_cap=2000)
    checks.append(
        _check(
            "interaction rules derive distributivity",
            bool(found) and verify(found.derivation, calc, [lhs], rhs),
        )
    )
    checks.extend(_expected_recovery_check("conj_disj", f1, f2))
    return checks


def _reproduce_disj_neg() -> list[Check]:
    f1, f2 = catalog_fragments("disj_neg")
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    goal = parse("or(p,neg(p))", sig)
    verdict = entails(product, [], goal)
    checks = [_check("excluded middle fails in the product", isinstance(verdict, Fails))]
    calc = merge(
        merge(builtin_calculus("B_or"), builtin_calculus("B_neg")),
        builtin_calculus("or_neg"),
    )
    found = derive(calc, [], goal, universe_depth=1, step_cap=1000)
    checks.append(
        _check(
            "interaction rules prove excluded middle",
            bool(found) and verify(found.derivation, calc, [], goal),
        )
    )
    checks.append(
        _check(
            "the pair is functionally complete",
            functionally_complete(f1.union(f2)).complete,
        )
    )
    checks.extend(_expected_recovery_check("disj_neg", f1, f2))
    return checks


def _reproduce_coimp_top() -> list[Check]:
    f1, f2 = catalog_fragments("coimp_top")
    checks = _expected_recovery_check("coimp_top", f1, f2)
    checks.append(
        _check("the pair is functionally complete", functionally_complete(f1.union(f2)).complete)
    )
    # coimplication's matrix is not saturated: bounded counterexample
    m = two_valued_matrix(f1)
    gamma, delta = standard_saturation_pools("coimp", standard_function("coimp"))
    found = bounded_saturation_check(m, 5, gamma, delta)
    checks.append(_check("coimplication matrix refuted as saturated", bool(found)))
    fc = decide_fc_recovery(f1, f2)
    checks.append(
        _check("full classical logic recovered", fc.outcome == "Recovered" and fc.clone == "T0_inf")
    )
    return checks


def _reproduce_coimp_bot() -> list[Check]:
    f1, f2 = catalog_fragments("coimp_bot")
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    checks = [_check("product is 4-valued", len(product.values) == 4)]
    bot_cell = set(product.cell("bot", ()))
    checks.append(
        _check(
            "falsum ranges over the three undesignated pairs",
            bot_cell == {"((0,0),0)", "((0,1),0)", "((1,0),0)"},
        )
    )
    # the worked 4x4 coimplication table, componentwise on the pair part
    printed = {
        "(0,0)": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
        "(0,1)": ["(0,0)", "(0,0)", "(1,0)", "(1,0)"],
        "(1,0)": ["(0,0)", "(0,1)", "(0,0)", "(0,1)"],
        "(1,1)": ["(0,0)", "(0,0)", "(0,0)", "(0,0)"],
    }
    pairs = ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]

    def wrap(pair: str) -> str:
        return f"((1,1),1)" if pair == "(1,1)" else f"({pair},0)"

    table_ok = all(
        product.cell("coimp", (wrap(row), wrap(col))) == (wrap(printed[row][j]),)
        for row in pairs
        for j, col in enumerate(pairs)
    )
    checks.append(_check("4-valued coimplication table matches the worked example", table_ok))
    # cancellation-failure pair: an irrelevant satisfiable block cannot be
    # dropped.  coimp(bot,x) reads classically as x and-not bottom, i.e. x.
    block = parse("coimp(bot,q)", sig)
    goalf = parse("coimp(bot,p)", sig)
    p = parse("p", sig)
    with_block = entails(product, [block, p], goalf)
    without = entails(product, [p], goalf)
    checks.append(_check("with the block the consequence holds", isinstance(with_block, Holds)))
    checks.append(_check("without the block it fails", isinstance(without, Fails)))
    checks.append(
        _check("dropped-block conclusion is classically valid", _classically_valid(f1.union(f2), Sequent.of([p], goalf)))
    )
    calc = merge(auto_calculus(f1), auto_calculus(f2))
    calc = merge(calc, builtin_calculus("coimp_bot"))
    found = derive(calc, [p], goalf, universe_depth=1, step_cap=500)
    checks.append(
        _check(
            "interaction rule repairs the consequence",
            bool(found) and verify(found.derivation, calc, [p], goalf),
        )
    )
    checks.extend(_expected_recovery_check("coimp_bot", f1, f2))
    return checks


def _reproduce_imp_bot() -> list[Check]:
    f1, f2 = catalog_fragments("imp_bot")
    sig = f1.signature.union(f2.signature)
    m4 = truth_preserving_bot_matrix(f1, "bot")
    checks = [
        _check("4-valued deterministic matrix", m4.deterministic() and len(m4.values) == 4),
        _check("falsum pinned to (1,0)", m4.cell("bot", ()) == ("(1,0)",)),
        _check(
            "sample row (1,0) -> (0,0) = (0,1)",
            m4.cell("imp", ("(1,0)", "(0,0)")) == ("(0,1)",),
        ),
    ]
    goal = parse("imp(bot,p)", sig)
    verdict = entails(m4, [], goal)
    checks.append(_check("bot -> p fails without interaction", isinstance(verdict, Fails)))
    axiom = builtin_calculus("imp_bot")
    filtered = filter_valuations_by_rules(m4, axiom.rules, [], goal)
    checks.append(_check("axiom filtering validates bot -> p", bool(filtered)))
    checks.append(_check("axiom filtering is exact", filtered.exactness == "exact"))
    classical = two_valued_matrix(f1.union(f2))
    rng = random.Random(7)
    agree = True
    for _ in range(60):
        gamma, phi = _random_sequent(rng, sig, depth=3, n_vars=3)
        lhs = bool(filter_valuations_by_rules(m4, axiom.rules, gamma, phi))
        rhs = bool(entails(classical, gamma, phi))
        if lhs != rhs:
            agree = False
            break
    checks.append(_check("filtered semantics agrees with the classical matrix", agree))
    calc = merge(merge(auto_calculus(f1), auto_calculus(f2)), axiom)
    bot = parse("bot", sig)
    found = derive(calc, [bot], parse("p", sig), universe_depth=1, step_cap=500)
    checks.append(
        _check(
            "usual falsum rule derivable",
            bool(found) and verify(found.derivation, calc, [bot], parse("p", sig)),
        )
    )
    checks.extend(_expected_recovery_check("imp_bot", f1, f2))
    return checks


def _reproduce_biimp_bot() -> list[Check]:
    f1, f2 = catalog_fragments("biimp_bot")
    checks = _expected_recovery_check("biimp_bot", f1, f2)
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    classical = two_valued_matrix(f1.union(f2))
    rng = random.Random(11)
    agree = True
    for _ in range(60):
        gamma, phi = _random_sequent(rng, sig, depth=3, n_vars=3)
        if bool(entails(product, gamma, phi)) != bool(entails(classical, gamma, phi)):
            agree = False
            break
    checks.append(_check("product agrees with the classical matrix on samples", agree))
    return checks


def _reproduce_biimp_bot1() -> list[Check]:
    f1, f2 = catalog_fragments("biimp_bot1")
    sig = f1.signature.union(f2.signature)
    checks = _expected_recovery_check("biimp_bot1", f1, f2)
    probe = k_determinedness_probe(f1, f2, 1, n=2)
    checks.append(_check("not 1-determined (power 2)", bool(probe)))
    product = fibred_semantics(f1, f2, 2)
    goal = parse("iff(bot1(p),bot1(q))", sig)
    verdict = entails(product, [], goal)
    checks.append(_check("interaction axiom fails without filtering", isinstance(verdict, Fails)))
    axiom = builtin_calculus("biimp_bot1")
    filtered = filter_valuations_by_rules(product, axiom.rules, [], goal)
    checks.append(_check("axiom filtering validates it", bool(filtered)))
    return checks


def _reproduce_xor3_two_bots() -> list[Check]:
    f1, f2 = catalog_fragments("xor3_two_bots")
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 3)
    checks = [_check("product is 8-valued", len(product.values) == 8)]
    prem = parse("xor3(p,bota,botb)", sig)
    p = parse("p", sig)
    # the worked countermodel: p=(0,1,1), bota=(1,0,0), botb=(0,0,0)
    assignment = {
        p: "((0,1,1),0)",
        parse("bota", sig): "((1,0,0),0)",
        parse("botb", sig): "((0,0,0),0)",
        prem: "((1,1,1),1)",
    }
    cm = PartialValuation.of(product, assignment)
    checks.append(_check("worked valuation respects the product", cm.check()))
    checks.append(
        _check(
            "it designates the premise and not p",
            cm.designates(prem) and not cm.designates(p),
        )
    )
    verdict = entails(product, [prem], p)
    checks.append(_check("mixed parity consequence fails", isinstance(verdict, Fails)))
    checks.append(
        _check("it holds classically", _classically_valid(f1.union(f2), Sequent.of([prem], p)))
    )
    checks.extend(_expected_recovery_check("xor3_two_bots", f1, f2))
    return checks


def _reproduce_neg_bot() -> list[Check]:
    f1, f2 = catalog_fragments("neg_bot")
    sig = f1.signature.union(f2.signature)
    product = strict_product(three_valued_negation_matrix("neg"), two_valued_matrix(f2))
    half = "1/2"
    checks = [
        _check("3 values", len(product.values) == 3),
        _check(
            "falsum cell is the two undesignated values",
            set(product.cell("bot", ())) == {"(0,0)", f"({half},0)"},
        ),
    ]
    goal = parse("neg(bot)", sig)
    verdict = entails(product, [], goal)
    checks.append(_check("neg bot is not a theorem", isinstance(verdict, Fails)))
    if isinstance(verdict, Fails):
        checks.append(
            _check(
                "countermodel assigns the half value",
                verdict.countermodel.value(parse("bot", sig)) == f"({half},0)",
            )
        )
    checks.append(_check("neg bot gives neg bot", bool(entails(product, [goal], goal))))
    # axiom filtering on the squared classical matrix recovers classicality
    squared = strict_product(power(two_valued_matrix(f1), 2), two_valued_matrix(f2))
    axiom = builtin_calculus("neg_bot")
    filtered = filter_valuations_by_rules(squared, axiom.rules, [], goal)
    checks.append(_check("axiom filtering validates neg bot", bool(filtered)))
    classical = two_valued_matrix(f1.union(f2))
    rng = random.Random(13)
    agree = True
    for _ in range(60):
        gamma, phi = _random_sequent(rng, sig, depth=3, n_vars=2)
        lhs = bool(filter_valuations_by_rules(squared, axiom.rules, gamma, phi))
        rhs = bool(entails(classical, gamma, phi))
        if lhs != rhs:
            agree = False
            break
    checks.append(_check("filtered semantics matches the classical matrix", agree))
    checks.extend(_expected_recovery_check("neg_bot", f1, f2))
    return checks


def _random_sequent(rng: random.Random, sig: Signature, depth: int, n_vars: int):
    names = [f"p{i}" for i in range(1, n_vars + 1)]

    def gen(d: int) -> Formula:
        conns = [c for c in sig.connectives]
        if d == 0 or (rng.random() < 0.3 and names):
            choice = rng.choice(names + [c[0] for c in conns if c[1] == 0])
            k = sig.arity(choice)
            return app(choice, ()) if k == 0 else var(choice)
        conn, k = rng.choice(conns)
        if k == 0:
            return app(conn, ())
        return app(conn, tuple(gen(d - 1) for _ in range(k)))

    n_prem = rng.randrange(0, 3)
    return [gen(depth) for _ in range(n_prem)], gen(depth)


_REPRODUCERS = {
    "two_conj": _reproduce_two_conj,
    "two_disj": _reproduce_two_disj,
    "two_neg": _reproduce_two_neg,
    "conj_disj": _reproduce_conj_disj,
    "disj_neg": _reproduce_disj_neg,
    "coimp_top": _reproduce_coimp_top,
    "coimp_bot": _reproduce_coimp_bot,
    "imp_bot": _reproduce_imp_bot,
    "biimp_bot": _reproduce_biimp_bot,
    "biimp_bot1": _reproduce_biimp_bot1,
    "xor3_two_bots": _reproduce_xor3_two_bots,
    "neg_bot": _reproduce_neg_bot,
}


def reproduce(example_id: str) -> Report:
    """Re-run a catalog example's constructions and assertions."""
    if example_id not in _REPRODUCERS:
        raise KeyError(f"unknown example {example_id!r}; known: {', '.join(CATALOG_IDS)}")
    return Report(example_id, tuple(_REPRODUCERS[example_id]()))
