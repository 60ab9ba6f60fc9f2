"""Disjoint combination of two-valued fragments: semantics, decision, certificates.

The combined consequence relation of two matrix-defined logics over disjoint
signatures is captured by a strict product of powers of the component
matrices.  Both components are fragments of classical logic, read as
two-valued matrices; one known to be saturated (none of its connectives is
very significant) enters at power 1, the other at the requested finite
power.  Countermodels found at any finite power transfer to the combined
logic, so refutations are certificates; positive verdicts come from
derivations in the merged Hilbert calculi.

decide_recovery settles, exactly and by membership in the irreducible
clones of Post's lattice, whether merging two fragments of classical logic
yields the joint classical fragment:
    (a) one side induces only constant-1 functions and projections (it lies
        in N, M and P1), or
    (b) both sides sit inside the conjunction-with-constants clone E, or
    (c) one side sits inside the bi-implication clone (L and P1) and the
        other is a single 0-place falsum plus top-like connectives only.
Anything else is subclassical.  Its witness sequent (classically valid,
refuted in the product) comes from the curated families of the paper's
proof: two copies of one very significant connective, distributivity,
excluded middle, one or two falsums against an expressible short-list
connective, and the non-local-tabularity phi_t family.  Each candidate is
tried at power 2, then 3; no other search is made.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import bundled
from .boolfun import (
    BooleanFunction,
    FragmentSpec,
    classify,
    find_expression,
    functionally_complete,
    inside,
    load_fragment,
    nontop_unary_witness,
    separation_degree,
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
from .matrixops import matrices_equal, power, restrict_values, strict_product
from .semantics import (
    Fails,
    Holds,
    MatrixError,
    Nmatrix,
    PartialValuation,
    bounded_saturation_check,
    entails,
    enumerate_partial_valuations,
    filter_valuations_by_rules,
    load_system,
    logically_equivalent,
    respects_rule,
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


def fibred_semantics(f1: FragmentSpec, f2: FragmentSpec, n: int) -> Nmatrix:
    """The strict product of component powers characterizing the combination.

    Saturated components are used at power 1; the others at power n, which
    must be at least 1 either way.  A countermodel in the result embeds into
    every higher power (duplicate a coordinate), so refutations here are
    sound for the combined logic.
    """
    if n < 1:
        raise ValueError(f"power (--power) must be at least 1 (got {n})")
    m1, m2 = two_valued_matrix(f1), two_valued_matrix(f2)
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
    interp = {conn: dict(cells) for conn, cells in squared.full_interp().items()}
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


def _falsums(frag: FragmentSpec) -> list[str]:
    """The names of the fragment's 0-place connectives with value 0."""
    return [n for n, f in frag.functions if f.arity == 0 and f.bits == 0]


def _condition_c(side_biimp: FragmentSpec, side_bot: FragmentSpec) -> bool:
    if not inside(side_biimp.tables(), "P1", "L"):
        return False
    bots = _falsums(side_bot)
    if len(bots) != 1:
        return False
    # everything else must be top-like; projections in particular disqualify
    return all(
        classify(f).top_like
        for n, f in side_bot.functions
        if n != bots[0]
    )


def decide_recovery(f1: FragmentSpec, f2: FragmentSpec) -> RecoveryVerdict:
    """Does merging the two classical fragments recover the joint fragment?

    Classical verdicts name the first matching condition in the order a, b,
    c.  Otherwise the combination is subclassical and the verdict carries a
    witness from the curated families: a classically valid sequent refuted
    in the product at power 2 or 3, with its countermodel.  Every
    subclassical pair has such a witness, so WitnessNotFound here is an
    internal error, not a verdict.
    """
    if not f1.signature.disjoint_from(f2.signature):
        raise MatrixError("decide_recovery needs disjoint signatures")
    if inside(f1.tables(), "P1", "N", "M"):
        return Classical("a", "first fragment is top-like/projective")
    if inside(f2.tables(), "P1", "N", "M"):
        return Classical("a", "second fragment is top-like/projective")
    if inside(f1.tables() + f2.tables(), "E"):
        return Classical("b", "both fragments inside the conjunction-with-constants clone")
    if _condition_c(f1, f2):
        return Classical("c", "first fragment affine-1-preserving, second a lone falsum plus top-likes")
    if _condition_c(f2, f1):
        return Classical("c", "second fragment affine-1-preserving, first a lone falsum plus top-likes")
    return subclassical_witness(f1, f2)


class WitnessNotFound(RuntimeError):
    """No candidate of a witness family is refuted; never a classicality claim."""


def _classically_valid(union_frag: FragmentSpec, seq: Sequent) -> bool:
    return bool(entails(two_valued_matrix(union_frag), list(seq.premises), seq.conclusion))


# the powers at which a curated witness candidate is tried, in order
_WITNESS_POWERS = (2, 3)


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


def _curated_sequents(f1: FragmentSpec, f2: FragmentSpec) -> Iterator[Sequent]:
    """Candidate witnesses in priority order, built lazily, so a family is
    built only once every candidate before it failed; a candidate may
    repeat, and each is verified before use."""
    p, q, r = var("p"), var("q"), var("r")

    # two syntactic copies of one very significant connective
    for n1, g1 in f1.functions:
        for n2, g2 in f2.functions:
            if g1 == g2 and classify(g1).very_significant:
                ps = [var(f"p{i}") for i in range(1, g1.arity + 1)]
                yield Sequent.of([app(n1, ps)], app(n2, ps))
                yield Sequent.of([app(n2, ps)], app(n1, ps))

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
                yield Sequent.of([lhs], rhs)

    # disjunction against negation: excluded middle
    for fa, fb in ((f1, f2), (f2, f1)):
        for na, ga in fa.functions:
            if ga != standard_function("or"):
                continue
            for nb, gb in fb.functions:
                if gb != standard_function("neg"):
                    continue
                yield Sequent.of([], app(na, (p, app(nb, (p,)))))

    # a falsum on one side against an expressible short-list connective
    for fa, fb in ((f1, f2), (f2, f1)):
        bots = _falsums(fb)
        for b in bots:
            yield from _l2_witnesses(fa, app(b, ()))
        # two falsums against an expressible ternary parity connective
        if len(bots) >= 2:
            expr = find_expression(fa, standard_function("xor3"))
            if expr is not None:
                yield Sequent.of([_plug(expr, [p, app(bots[0], ()), app(bots[1], ())])], p)

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
                    yield Sequent.of([phis[a]], phis[b])


def subclassical_witness(f1: FragmentSpec, f2: FragmentSpec) -> Subclassical:
    """A sequent valid in the joint classical fragment but refuted in the
    product, with its countermodel: the first curated candidate that is
    refuted at power 2, or else at power 3."""
    classical = two_valued_matrix(f1.union(f2))
    products: dict[int, Nmatrix] = {}  # each power is built once, on first use
    tried: set[Sequent] = set()
    for seq in _curated_sequents(f1, f2):
        if seq in tried:
            continue
        tried.add(seq)
        premises = list(seq.premises)
        if not entails(classical, premises, seq.conclusion):
            continue
        for level in _WITNESS_POWERS:
            if level not in products:
                products[level] = fibred_semantics(f1, f2, level)
            verdict = entails(products[level], premises, seq.conclusion)
            if isinstance(verdict, Fails):
                return Subclassical(seq, level, verdict.countermodel)
    raise WitnessNotFound(
        f"no curated witness candidate is refuted at power {' or '.join(map(str, _WITNESS_POWERS))}"
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
    calc = HilbertCalculus.of(sig, ())
    # the stock calculus B_c is written for the connective c
    stock = {standard_function(c): c for c in ("or", "neg", "imp", "iff")}
    for name, f in frag.functions:
        if f in stock:
            calc = merge(calc, renamed(builtin_calculus(f"B_{stock[f]}"), {stock[f]: name}))
            continue
        cls = classify(f)
        ps = tuple(var(f"p{i}") for i in range(1, f.arity + 1))
        head = app(name, ps)
        rules: list[Rule] = []
        if cls.projection_conjunction is not None:
            for j in cls.projection_conjunction:
                rules.append(Rule.of(f"{name}_e{j}", [head], ps[j - 1]))
            rules.append(Rule.of(f"{name}_i", [ps[j - 1] for j in cls.projection_conjunction], head))
        elif cls.bottom_like:
            rules.append(Rule.of(f"{name}_x", [head], var("q")))
        calc = merge(calc, HilbertCalculus.of(sig, rules))
    return calc


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


def certify_entailment(
    f1: FragmentSpec,
    f2: FragmentSpec,
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
    bounds when both searches fail.  Both components are fragments; the
    merged calculi are those auto_calculus gives each of them.
    """
    premises = canon_sort(premises)
    product = fibred_semantics(f1, f2, n)
    calc = merge(auto_calculus(f1), auto_calculus(f2))

    def derived(rules: HilbertCalculus) -> Optional[Yes]:
        found = derive(rules, premises, conclusion, universe_depth=universe_depth, step_cap=step_cap)
        if not found:
            return None
        if not verify(found.derivation, rules, premises, conclusion):
            raise AssertionError("derivation failed to re-verify")
        return Yes(found.derivation)

    if extra_rules is None or not extra_rules.rules:
        semantic = entails(product, premises, conclusion)
        if isinstance(semantic, Fails):
            return No(semantic.countermodel, n)
        return derived(calc) or Unknown(n, universe_depth, step_cap)
    yes = derived(merge(calc, extra_rules))
    if yes:
        return yes
    filtered = filter_valuations_by_rules(product, extra_rules.rules, premises, conclusion)
    if isinstance(filtered.verdict, Fails):
        return No(filtered.verdict.countermodel, n, exactness=filtered.exactness)
    return Unknown(n, universe_depth, step_cap)


# ---------------------------------------------------------------------------
# Functional-completeness recovery (the clone pairing corollary)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FcOutcome:
    outcome: str  # "Recovered" or "NotRecovered"
    clone: Optional[str] = None
    up1_side: Optional[int] = None


def decide_fc_recovery(f1: FragmentSpec, f2: FragmentSpec) -> FcOutcome:
    """When neither fragment is functionally complete but the union is:
    recovery happens exactly when one side generates only top-likes and
    projections (with a top-like, or the other side would be complete).
    The other side then escapes P1, M and L (top completes it) but lies in
    P0 or D (it is incomplete), which in Post's lattice leaves the self-dual
    clone D, T0_k (k >= 1) and T0_inf; it is named from its tables."""
    if not f1.signature.disjoint_from(f2.signature):
        raise MatrixError("decide_fc_recovery needs disjoint signatures")
    union = f1.union(f2)
    if not functionally_complete(union):
        raise MatrixError("precondition violated: the union is not functionally complete")
    for i, frag in ((1, f1), (2, f2)):
        if functionally_complete(frag):
            raise MatrixError(f"precondition violated: fragment {i} is already complete")
    for up_idx, up_side, partner in ((1, f1, f2), (2, f2, f1)):
        if not inside(up_side.tables(), "P1", "N", "M"):
            continue
        if inside(partner.tables(), "D"):
            return FcOutcome("Recovered", "D", up_idx)
        degree = min(map(separation_degree, partner.tables()))
        return FcOutcome("Recovered", "T0_inf" if degree == math.inf else f"T0_{degree}", up_idx)
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
):
    """Refute k-determinedness of the combination, if a known family applies.

    A violation is a pair (Gamma, phi) with Gamma not entailing phi in the
    n-power product, while every substitution into {p1..pk} makes the
    instance Hilbert-derivable in the merged calculi (searched at universe
    depth 1 with a step cap of 4000).  Finding one certifies the combined
    logic has no k-value non-deterministic semantics.
    """
    if k < 1:
        raise ValueError(f"k (--k) must be at least 1 (got {k})")
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
            found = derive(calc, gamma_s, phi_s, universe_depth=1, step_cap=4000)
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
    n: int,
) -> list[Formula]:
    """The formulas phi_0..phi_t_max built from a very significant connective
    and a non-top-like partner, pairwise non-equivalent in the product.

    theta-nestings of the partner fill the non-projective slots, shifted by
    t.  Non-equivalence is checked in the product at power n; WitnessNotFound
    when two members are equivalent there.
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
    product = fibred_semantics(f1, f2, n)
    for a, b in itertools.combinations(phis, 2):
        if logically_equivalent(product, [a], [b]):
            raise WitnessNotFound(f"family members not separated at power {n}")
    return phis


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

@functools.lru_cache(maxsize=None)
def _bundled_system(stem: str) -> Nmatrix:
    """The bundled system ``systems/<stem>.json``, read on first use."""
    return load_system(bundled.read(f"{stem}.json", "system", builtin=True))


def three_valued_negation_matrix(name: str = "neg") -> Nmatrix:
    """Saturated 3-valued matrix for a classical-negation-table connective,
    read once from the bundled m3_<name>.json and shared by every caller."""
    return _bundled_system(f"m3_{name}")


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


def _recovery_checks(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    """decide_recovery against the expected verdict: "sub" or a condition."""
    verdict = decide_recovery(f1, f2)
    if want == "sub":
        ok = isinstance(verdict, Subclassical)
        detail = f"witness {verdict.witness} at power {verdict.power_used}" if ok else str(verdict)
        checks = [_check("decide_recovery is Subclassical", ok, detail)]
        if ok:
            checks.append(_check("witness countermodel re-verifies", verdict.countermodel.check()))
            checks.append(
                _check("witness classically valid", _classically_valid(f1.union(f2), verdict.witness))
            )
        return checks
    ok = isinstance(verdict, Classical) and verdict.condition == want
    return [_check(f"decide_recovery is Classical({want})", ok, str(verdict))]


def _merged(*parts: Union[str, HilbertCalculus]) -> HilbertCalculus:
    """The left-to-right merge of calculi, built-in ones given by id."""
    return functools.reduce(merge, [builtin_calculus(c) if isinstance(c, str) else c for c in parts])


def _derives(
    name: str, calc: HilbertCalculus, premises: list[Formula], goal: Formula, step_cap: int
) -> Check:
    """A derivation at universe depth 1 is found and re-verifies."""
    found = derive(calc, premises, goal, universe_depth=1, step_cap=step_cap)
    return _check(name, bool(found) and verify(found.derivation, calc, premises, goal))


# the follow-up check on a countermodel that most refutations make
_REVERIFIES = ("countermodel re-verifies", PartialValuation.check)


def _fails(
    name: str,
    matrix: Nmatrix,
    premises: list[Formula],
    conclusion: Formula,
    then: Optional[tuple[str, Callable[[PartialValuation], bool]]] = None,
) -> list[Check]:
    """The sequent fails in the matrix; ``then`` names a test of the
    countermodel, checked when there is one."""
    verdict = entails(matrix, premises, conclusion)
    checks = [_check(name, isinstance(verdict, Fails))]
    if then is not None and isinstance(verdict, Fails):
        checks.append(_check(then[0], then[1](verdict.countermodel)))
    return checks


def _agrees_with_classical(
    name: str,
    f1: FragmentSpec,
    f2: FragmentSpec,
    seed: int,
    n_vars: int,
    holds: Callable[[list[Formula], Formula], object],
) -> Check:
    """``holds`` gives the classical verdict on 60 seeded random sequents."""
    sig = f1.signature.union(f2.signature)
    classical = two_valued_matrix(f1.union(f2))
    rng = random.Random(seed)
    for _ in range(60):
        gamma, phi = _random_sequent(rng, sig, depth=3, n_vars=n_vars)
        if bool(holds(gamma, phi)) != bool(entails(classical, gamma, phi)):
            return _check(name, False)
    return _check(name, True)


def _random_sequent(rng: random.Random, sig: Signature, depth: int, n_vars: int):
    names = [f"p{i}" for i in range(1, n_vars + 1)]
    conns = list(sig.connectives)
    leaves = names + [c for c, k in conns if k == 0]

    def gen(d: int) -> Formula:
        """One seeded formula of depth at most d, its nodes drawn in pre-order."""
        pending: list[tuple[str, int, list[Formula]]] = []  # open connectives, innermost last
        while True:
            if len(pending) == d or (rng.random() < 0.3 and names):
                choice = rng.choice(leaves)
                phi = app(choice, ()) if sig.arity(choice) == 0 else var(choice)
            else:
                conn, k = rng.choice(conns)
                if k > 0:
                    pending.append((conn, k, []))
                    continue
                phi = app(conn, ())
            # hand phi to its parent, closing every connective it completes
            while pending:
                conn, k, args = pending[-1]
                args.append(phi)
                if len(args) < k:
                    break
                pending.pop()
                phi = app(conn, tuple(args))
            else:
                return phi

    n_prem = rng.randrange(0, 3)
    return [gen(depth) for _ in range(n_prem)], gen(depth)


def _two_conj(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 1)
    checks = [_check("product is 2-valued", len(product.values) == 2)]
    a, b = parse("and(p,q)", sig), parse("and2(p,q)", sig)
    checks.append(_check("p and q =||= p and2 q", logically_equivalent(product, [a], [b])))
    checks.append(_derives("merged calculi derive the collapse", _merged("B_and", "B_and2"), [a], b, 500))
    return checks + _recovery_checks(f1, f2, want)


def _two_disj(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    lhs, rhs = parse("or(p,q)", sig), parse("or2(p,q)", sig)
    checks = _fails("or(p,q) does not give or2(p,q) at power 2", product, [lhs], rhs, _REVERIFIES)
    prem, goal = parse("or(p,or(q,r))", sig), parse("or(p,or2(q,r))", sig)
    calc = _merged("B_or", "B_or2", "or_pair")
    checks.append(_derives("interaction rules derive the mixed disjunction", calc, [prem], goal, 1000))
    probe = k_determinedness_probe(f1, f2, 1, n=3)
    checks.append(_check("not 1-determined (power 3)", bool(probe)))
    phis = phi_t_family(("or", standard_function("or")), ("or2", standard_function("or")), 2, n=3)
    checks.append(_check("phi_t family pairwise distinct", len(phis) == 3, "power 3"))
    return checks + _recovery_checks(f1, f2, want)


def _two_neg(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    sig = f1.signature.union(f2.signature)
    product = strict_product(three_valued_negation_matrix("neg"), three_valued_negation_matrix("sim"))
    half = "1/2"
    golden = _bundled_system("two_neg_product")
    checks = [
        _check("5 values", len(product.values) == 5),
        _check("5-valued tables match the worked example", matrices_equal(product, golden)),
    ]
    np_, sp = parse("neg(p)", sig), parse("sim(p)", sig)
    checks += _fails("neg p does not give sim p", product, [np_], sp, _REVERIFIES)
    pair = builtin_calculus("neg_pair")
    filtered = filter_valuations_by_rules(product, pair.rules, [np_], sp)
    checks.append(_check("filtered semantics validates neg p |- sim p", bool(filtered)))
    checks.append(_check("filtering is exact (saturated)", filtered.exactness == "exact"))

    # respecting the interaction rules forbids exactly the two mixed values
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
    purged = restrict_values(product, {"(0,0)", f"({half},{half})", "(1,1)"})
    checks.append(_check("purged matrix is deterministic", purged.deterministic()))
    calc = _merged("B_neg", "B_sim", pair)
    checks.append(_derives("interaction rules derive sim p from neg p", calc, [np_], sp, 500))
    return checks + _recovery_checks(f1, f2, want)


def _conj_disj(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    lhs = parse("or(p,and(q,r))", sig)
    rhs = parse("and(or(p,q),or(p,r))", sig)
    checks = _fails("distributivity fails in the product", product, [lhs], rhs, _REVERIFIES)
    calc = _merged("B_or", "B_and", "and_or")
    checks.append(_derives("interaction rules derive distributivity", calc, [lhs], rhs, 2000))
    return checks + _recovery_checks(f1, f2, want)


def _disj_neg(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    goal = parse("or(p,neg(p))", sig)
    checks = _fails("excluded middle fails in the product", product, [], goal)
    calc = _merged("B_or", "B_neg", "or_neg")
    checks.append(_derives("interaction rules prove excluded middle", calc, [], goal, 1000))
    checks.append(_check("the pair is functionally complete", functionally_complete(f1.union(f2))))
    return checks + _recovery_checks(f1, f2, want)


def _coimp_top(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    checks = _recovery_checks(f1, f2, want)
    checks.append(_check("the pair is functionally complete", functionally_complete(f1.union(f2))))
    # coimplication's matrix is not saturated: bounded counterexample
    gamma, delta = standard_saturation_pools("coimp", standard_function("coimp"))
    found = bounded_saturation_check(two_valued_matrix(f1), 5, gamma, delta)
    checks.append(_check("coimplication matrix refuted as saturated", bool(found)))
    fc = decide_fc_recovery(f1, f2)
    checks.append(
        _check("full classical logic recovered", fc.outcome == "Recovered" and fc.clone == "T0_inf")
    )
    return checks


def _coimp_bot(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    sig = f1.signature.union(f2.signature)
    product = fibred_semantics(f1, f2, 2)
    golden = _bundled_system("coimp_bot_product")
    checks = [
        _check("product is 4-valued", len(product.values) == 4),
        _check("falsum ranges over the three undesignated pairs", set(product.cell("bot", ())) == product.undesignated),
        _check("4-valued coimplication table matches the worked example", matrices_equal(product, golden)),
    ]
    # cancellation-failure pair: an irrelevant satisfiable block cannot be
    # dropped.  coimp(bot,x) reads classically as x and-not bottom, i.e. x.
    block = parse("coimp(bot,q)", sig)
    goalf = parse("coimp(bot,p)", sig)
    p = parse("p", sig)
    with_block = entails(product, [block, p], goalf)
    checks.append(_check("with the block the consequence holds", isinstance(with_block, Holds)))
    checks += _fails("without the block it fails", product, [p], goalf)
    checks.append(
        _check("dropped-block conclusion is classically valid", _classically_valid(f1.union(f2), Sequent.of([p], goalf)))
    )
    calc = _merged(auto_calculus(f1), auto_calculus(f2), "coimp_bot")
    checks.append(_derives("interaction rule repairs the consequence", calc, [p], goalf, 500))
    return checks + _recovery_checks(f1, f2, want)


def _imp_bot(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
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
    checks += _fails("bot -> p fails without interaction", m4, [], goal)
    axiom = builtin_calculus("imp_bot")
    filtered = filter_valuations_by_rules(m4, axiom.rules, [], goal)
    checks.append(_check("axiom filtering validates bot -> p", bool(filtered)))
    checks.append(_check("axiom filtering is exact", filtered.exactness == "exact"))
    checks.append(
        _agrees_with_classical(
            "filtered semantics agrees with the classical matrix", f1, f2, 7, 3,
            lambda gamma, phi: filter_valuations_by_rules(m4, axiom.rules, gamma, phi),
        )
    )
    calc = _merged(auto_calculus(f1), auto_calculus(f2), axiom)
    checks.append(_derives("usual falsum rule derivable", calc, [parse("bot", sig)], parse("p", sig), 500))
    return checks + _recovery_checks(f1, f2, want)


def _biimp_bot(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    checks = _recovery_checks(f1, f2, want)
    product = fibred_semantics(f1, f2, 2)
    checks.append(
        _agrees_with_classical(
            "product agrees with the classical matrix on samples", f1, f2, 11, 3,
            lambda gamma, phi: entails(product, gamma, phi),
        )
    )
    return checks


def _biimp_bot1(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
    sig = f1.signature.union(f2.signature)
    checks = _recovery_checks(f1, f2, want)
    probe = k_determinedness_probe(f1, f2, 1, n=2)
    checks.append(_check("not 1-determined (power 2)", bool(probe)))
    product = fibred_semantics(f1, f2, 2)
    goal = parse("iff(bot1(p),bot1(q))", sig)
    checks += _fails("interaction axiom fails without filtering", product, [], goal)
    filtered = filter_valuations_by_rules(product, builtin_calculus("biimp_bot1").rules, [], goal)
    checks.append(_check("axiom filtering validates it", bool(filtered)))
    return checks


def _xor3_two_bots(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
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
    checks += _fails("mixed parity consequence fails", product, [prem], p)
    checks.append(
        _check("it holds classically", _classically_valid(f1.union(f2), Sequent.of([prem], p)))
    )
    return checks + _recovery_checks(f1, f2, want)


def _neg_bot(f1: FragmentSpec, f2: FragmentSpec, want: str) -> list[Check]:
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
    bot = parse("bot", sig)
    checks += _fails(
        "neg bot is not a theorem", product, [], goal,
        ("countermodel assigns the half value", lambda cm: cm.value(bot) == f"({half},0)"),
    )
    checks.append(_check("neg bot gives neg bot", bool(entails(product, [goal], goal))))
    # axiom filtering on the squared classical matrix recovers classicality
    squared = strict_product(power(two_valued_matrix(f1), 2), two_valued_matrix(f2))
    axiom = builtin_calculus("neg_bot")
    filtered = filter_valuations_by_rules(squared, axiom.rules, [], goal)
    checks.append(_check("axiom filtering validates neg bot", bool(filtered)))
    checks.append(
        _agrees_with_classical(
            "filtered semantics matches the classical matrix", f1, f2, 13, 2,
            lambda gamma, phi: filter_valuations_by_rules(squared, axiom.rules, gamma, phi),
        )
    )
    return checks + _recovery_checks(f1, f2, want)


# id -> (its two bundled fragment files, the expected decide_recovery
# verdict: "sub" or the classical condition, the reproducer)
_CATALOG = {
    "two_conj": (("and.json", "and2.json"), "b", _two_conj),
    "two_disj": (("or.json", "or2.json"), "sub", _two_disj),
    "two_neg": (("neg.json", "sim.json"), "sub", _two_neg),
    "conj_disj": (("and.json", "or.json"), "sub", _conj_disj),
    "disj_neg": (("or.json", "neg.json"), "sub", _disj_neg),
    "coimp_top": (("coimp.json", "top.json"), "a", _coimp_top),
    "coimp_bot": (("coimp.json", "bot.json"), "sub", _coimp_bot),
    "imp_bot": (("imp.json", "bot.json"), "sub", _imp_bot),
    "biimp_bot": (("iff.json", "bot.json"), "c", _biimp_bot),
    "biimp_bot1": (("iff.json", "bot1.json"), "sub", _biimp_bot1),
    "xor3_two_bots": (("xor3.json", "bota_botb.json"), "sub", _xor3_two_bots),
    "neg_bot": (("neg.json", "bot.json"), "sub", _neg_bot),
}

CATALOG_IDS = tuple(_CATALOG)


def _catalog_entry(example_id: str):
    try:
        return _CATALOG[example_id]
    except KeyError:
        raise KeyError(f"unknown example {example_id!r}; known: {', '.join(CATALOG_IDS)}") from None


@functools.lru_cache(maxsize=None)
def catalog_fragments(example_id: str) -> tuple[FragmentSpec, FragmentSpec]:
    """The two fragments of a catalog entry, read from the bundled files."""
    first, second = _catalog_entry(example_id)[0]
    return (
        load_fragment(bundled.read(first, "fragment", builtin=True)),
        load_fragment(bundled.read(second, "fragment", builtin=True)),
    )


def reproduce(example_id: str) -> Report:
    """Re-run a catalog example's constructions and assertions."""
    _, want, checks = _catalog_entry(example_id)
    f1, f2 = catalog_fragments(example_id)
    return Report(example_id, tuple(checks(f1, f2, want)))
