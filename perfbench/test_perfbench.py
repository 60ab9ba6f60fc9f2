"""Tests of the benchmark itself: its checkers and its seeded op lists.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import logic  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def _context(workload, program, tmp_path):
    ctx = workloads.Context(workload, str(tmp_path), program, workloads.OP_LISTS[workload](0))
    ctx.setup()
    return ctx


def _op(ops, prefix):
    return next(op for op in ops if op.id.startswith(prefix))


# -- op lists -----------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.OP_LISTS))
def test_seed_fixes_the_op_list(workload):
    make = workloads.OP_LISTS[workload]
    a, b, c = make(1), make(1), make(2)
    assert [dataclasses.astuple(op) for op in a] == [dataclasses.astuple(op) for op in b]
    c_args = {op.id: op.args for op in c}
    # W6 and the catalog entries are named cases that no seed renames
    assert all(op.args != c_args[op.id] for op in a if op.category not in ("W6", "reproduce"))
    assert collections.Counter(op.category for op in a) == collections.Counter(op.category for op in c)
    assert len(a) >= 200


def test_op_counts():
    cats = collections.Counter(op.category for op in workloads.recovery_ops(0))
    assert cats == {"decide-recovery": 253, "fc-recovery": 38, "W6": 1, "reproduce": 12}
    cats = collections.Counter(op.category for op in workloads.entail_ops(0))
    assert cats["W3"] == 1 and cats["W7.above"] == 3 and cats["W7.below"] == 3
    cats = collections.Counter(op.category for op in workloads.derive_ops(0))
    assert cats["W4"] == 1


def test_golden_covers_every_recovery_op():
    golden = run.load_golden("recovery")
    missing = [op.id for op in workloads.recovery_ops(0) if op.id not in golden]
    assert missing == ["fc-recovery w6_f1 w6_f2"]


def test_renaming_is_undone_exactly():
    op = workloads.entail_ops(5)[0]
    prefix = op.args["prefix"]
    shape = workloads.entail_shapes()[int(op.id.split("#")[1])]
    assert [workloads.rename_back(t, prefix, ("bot", "bota", "botb")) for t in op.args["premises"]] == shape[2]


# -- checkers -------------------------------------------------------------------

def test_own_parser_round_trips_deep_formulas():
    deep = "neg(" * 5000 + "p" + ")" * 5000
    assert logic.text(logic.parse(deep)) == deep
    assert logic.classically_valid(["p"], logic.parse(deep), {"neg": "10"})


def test_tampered_countermodel_is_rejected(program, tmp_path):
    ctx = _context("entail", program, tmp_path)
    matrix = ctx.matrices["two_disj^2"]
    syntax, semantics = program["syntax"], program["semantics"]
    prem, concl = "or(p,q)", "or2(p,q)"
    verdict = semantics.entails(matrix, [syntax.parse(prem, matrix.signature)], syntax.parse(concl, matrix.signature))
    assert not verdict
    cm = {syntax.text(k): v for k, v in verdict.countermodel.assignment}
    logic.check_countermodel(matrix, cm, [prem], concl)
    designated = sorted(matrix.designated)[0]
    outside = next(v for v in matrix.values if v not in matrix.cell("or", (cm["p"], cm["q"])))
    for tampered in (dict(cm, **{concl: designated}), dict(cm, **{prem: outside}),
                     {k: v for k, v in cm.items() if k != "q"}):
        with pytest.raises(logic.CheckFailed):
            logic.check_countermodel(matrix, tampered, [prem], concl)


def test_tampered_product_countermodel_is_rejected(program, tmp_path):
    ctx = _context("recovery", program, tmp_path)
    op = _op(workloads.recovery_ops(0), "decide-recovery a0111 b0111")
    assert all(name.startswith(op.args["tag"]) for side in op.args["sides"] for name in side)
    result = workloads.run_op(ctx, op)
    assert workloads.check_op(ctx, op, result, None) == workloads.DECIDED
    payload = json.loads(result[1])
    assert payload["verdict"] == "SUBCLASSICAL"
    premises, conclusion = logic.split_sequent(payload["witness"])
    cm = payload["countermodel"]
    logic.check_product_countermodel(op.args["sides"], payload["power"], cm, premises, conclusion)
    flipped = dict(cm, **{conclusion: cm[premises[0]]})
    with pytest.raises(logic.CheckFailed):
        logic.check_product_countermodel(op.args["sides"], payload["power"], flipped, premises, conclusion)


def test_one_byte_change_in_cli_output_is_rejected(program, tmp_path):
    ctx = _context("recovery", program, tmp_path)
    golden = run.load_golden("recovery")
    op = _op(workloads.recovery_ops(0), "reproduce two_disj")
    rc, out, err = workloads.run_op(ctx, op)
    assert workloads.check_op(ctx, op, (rc, out, err), golden[op.id]) == workloads.DECIDED
    i = out.index("two_disj")
    changed = out[:i] + "T" + out[i + 1:]
    with pytest.raises(logic.CheckFailed):
        workloads.check_op(ctx, op, (rc, changed, err), golden[op.id])


def test_tampered_derivation_step_is_rejected(program, tmp_path):
    ctx = _context("derive", program, tmp_path)
    op = workloads.Op("t", "derive.d1", "derive",
                      {"calculus": "B_and", "depth": 1, "premises": ["and(p,q)"], "goal": "and(q,p)"})
    result = workloads.run_op(ctx, op)
    assert workloads.check_op(ctx, op, result, None) == workloads.DECIDED
    derivation = result[0].derivation
    calculus, syntax = program["calculus"], program["syntax"]
    q, r = syntax.var("q"), syntax.var("r")  # r occurs nowhere in the derivation
    for i, step in enumerate(derivation.steps):
        j = step.justification
        if not isinstance(j, calculus.RuleApp):
            continue
        bad_sub = calculus.RuleApp(j.rule, tuple((v, r) for v, _ in j.substitution), j.premise_steps)
        for bad in (calculus.Step(step.formula, bad_sub), calculus.Step(syntax.app("and", (q, q)), j)):
            steps = list(derivation.steps)
            steps[i] = bad
            tampered = (type(result[0])(calculus.Derivation(tuple(steps))), True)
            with pytest.raises(logic.CheckFailed):
                workloads.check_op(ctx, op, tampered, None)
