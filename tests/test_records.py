"""The behaviour every record type of the package keeps, whatever builds it.

Records are the formulas and signatures, the Boolean functions, and the
verdicts and certificates the engines return.  Each is pinned on a sample
instance: its truthiness (a verdict's says whether the answer is positive),
equality and hashing by fields (formulas by identity, through the interning
constructors), and for a few the repr text.
"""

from __future__ import annotations

import pytest

from nmfib import boolfun, calculus, fibring, semantics, syntax
from nmfib.boolfun import BooleanFunction
from nmfib.calculus import Derivation, HilbertCalculus, Premise, Rule, RuleApp, Step
from nmfib.fibring import Check, FcOutcome, Sequent
from nmfib.semantics import Fails, Holds, Nmatrix, PartialValuation
from nmfib.syntax import Signature, app, parse, var

SIG = Signature.of({"neg": 1, "or": 2})
P, Q = var("p"), var("q")
OR_PQ = app("or", (P, Q))
RULE = Rule.of("n1", [parse("neg(neg(p))", SIG)], P)
DERIVATION = Derivation((Step(P, Premise()),))
MATRIX = Nmatrix(Signature.of({}), ["0", "1"], ["1"], {})
COUNTERMODEL = PartialValuation.of(MATRIX, {P: "0"})

# each record class, a sample instance built anew on each call, and its truthiness
RECORDS = [
    (syntax.Var, lambda: var("p"), True),
    (syntax.App, lambda: app("or", (P, Q)), True),
    (Signature, lambda: Signature.of({"or": 2, "neg": 1}), True),
    (
        syntax.Translation,
        lambda: syntax.Translation.of(Signature.of({"coimp": 2}), SIG, {"coimp": parse("or(neg(p2),p1)", SIG)}),
        True,
    ),
    (BooleanFunction, lambda: BooleanFunction(2, 7), True),
    (boolfun.Classification, lambda: boolfun.classify(BooleanFunction(2, 7)), True),
    (boolfun.PostPredicates, lambda: boolfun.post_predicates(BooleanFunction(2, 7)), True),
    (boolfun.FragmentSpec, lambda: boolfun.FragmentSpec.of({"or": BooleanFunction(2, 7)}), True),
    (Rule, lambda: Rule.of("n1", [parse("neg(neg(p))", SIG)], P), True),
    (HilbertCalculus, lambda: HilbertCalculus.of(SIG, [RULE]), True),
    (Premise, Premise, True),
    (RuleApp, lambda: RuleApp("n1", (("p", P),), (0,)), True),
    (Step, lambda: Step(P, Premise()), True),
    (Derivation, lambda: Derivation((Step(P, Premise()),)), True),
    (calculus.Derived, lambda: calculus.Derived(DERIVATION), True),
    (calculus.NotFoundAtBound, lambda: calculus.NotFoundAtBound("step cap exhausted", 1, 5), False),
    (Sequent, lambda: Sequent.of([P], OR_PQ), True),
    (fibring.Classical, lambda: fibring.Classical("a"), True),
    (fibring.Subclassical, lambda: fibring.Subclassical(Sequent.of([P], OR_PQ), 2, COUNTERMODEL), False),
    (fibring.Yes, lambda: fibring.Yes(DERIVATION), True),
    (fibring.No, lambda: fibring.No(COUNTERMODEL, 2), False),
    (fibring.Unknown, lambda: fibring.Unknown(2, 1, 100), True),
    (FcOutcome, lambda: FcOutcome("Recovered", "D", 2), True),
    (fibring.ViolationFound, lambda: fibring.ViolationFound((P,), Q, 2, COUNTERMODEL), True),
    (fibring.NoneFound, lambda: fibring.NoneFound("no family applies"), False),
    (Check, lambda: Check("holds", True), True),
    (fibring.Report, lambda: fibring.Report("e1", (Check("holds", True),)), True),
    (PartialValuation, lambda: PartialValuation.of(MATRIX, {P: "0"}), True),
    (Holds, Holds, True),
    (Fails, lambda: Fails(COUNTERMODEL), False),
    (semantics.FilteredVerdict, lambda: semantics.FilteredVerdict(Fails(COUNTERMODEL), "exact"), False),
    (semantics.NoCounterexampleFound, semantics.NoCounterexampleFound, False),
    (semantics.SaturationCounterexample, lambda: semantics.SaturationCounterexample((P,), (Q,)), True),
]


def test_every_record_class_is_pinned():
    engines = {Nmatrix}  # a matrix keeps a cell cache; it compares by identity
    defined = {
        obj
        for module in (syntax, boolfun, calculus, fibring, semantics)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and not obj.__name__.startswith("_")
        and not issubclass(obj, Exception)
    }
    assert len(RECORDS) == 33
    assert defined - engines == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, make, truthy", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_behaviour(cls, make, truthy):
    a, b = make(), make()
    assert type(a) is cls
    assert bool(a) is truthy
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize(
    "record, text",
    [
        (P, "Var(name='p')"),
        (OR_PQ, "App(head='or', args=(Var(name='p'), Var(name='q')))"),
        (SIG, "Signature(connectives=(('neg', 1), ('or', 2)))"),
        (BooleanFunction(2, 7), "BooleanFunction(arity=2, bits=7)"),
        (FcOutcome("Recovered", "D", 2), "FcOutcome(outcome='Recovered', clone='D', up1_side=2)"),
        (Holds(), "Holds()"),
    ],
)
def test_record_repr(record, text):
    assert repr(record) == text


def test_boolean_function_checks_and_keeps_its_table():
    with pytest.raises(ValueError, match="^table out of range for arity 2$"):
        BooleanFunction(2, 16)
    f = boolfun.standard_function("or")  # cached and shared
    with pytest.raises(AttributeError):
        f.bits = 0
    assert f == BooleanFunction.from_string("0111", 2)
