"""The three workloads: seeded op lists, set-up, running one op, checking it.

Op lists are pure data built from the seed without touching nmfib.  The
formula shapes are fixed: drawn once from ``SHAPE_SEED`` by this module's
generator.  The run's seed renames what the ops name (the variables p, q,
r of entail and derive ops, the connectives of the recovery fragments) and
shuffles the order of the ops.  The renaming puts one seed-chosen prefix in
front of every renamed name, which keeps every name in the same place of
the program's canonical (text) order, so all seeds drive the same search
paths: every seed runs the same ops per category, with different names,
and golden records taken under one naming cover every seed once the prefix
is taken off again.  What varies from run to run is then the machine, not
the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

import logic

SHAPE_SEED = 20181012

# every Boolean function of arity <= 2, as table strings
TABLES_LE2 = ["0", "1"] + [
    "".join(str(bits >> row & 1) for row in range(1 << k)) for k in (1, 2) for bits in range(1 << (1 << k))
]

CATALOG_IDS = [
    "two_conj", "two_disj", "two_neg", "conj_disj", "disj_neg", "coimp_top",
    "coimp_bot", "imp_bot", "biimp_bot", "biimp_bot1", "xor3_two_bots", "neg_bot",
]

# the nine catalog pairs whose combination is subclassical
SUBCLASSICAL_PAIRS = {
    "two_disj": ({"or": "0111"}, {"or2": "0111"}),
    "two_neg": ({"neg": "10"}, {"sim": "10"}),
    "conj_disj": ({"and": "0001"}, {"or": "0111"}),
    "disj_neg": ({"or": "0111"}, {"neg": "10"}),
    "coimp_bot": ({"coimp": "0100"}, {"bot": "0"}),
    "imp_bot": ({"imp": "1101"}, {"bot": "0"}),
    "biimp_bot1": ({"iff": "1001"}, {"bot1": "00"}),
    "xor3_two_bots": ({"xor3": "01101001"}, {"bota": "0", "botb": "0"}),
    "neg_bot": ({"neg": "10"}, {"bot": "0"}),
}

# W6: 4-ary majority of the first three arguments (the fourth is a dummy)
# plus negation, against top
W6_MAJ4 = "".join(str(int(bin(row >> 1).count("1") >= 2)) for row in range(16))
W6_FRAGMENTS = ({"maj4": W6_MAJ4, "neg": "10"}, {"top": "1"})

# W3: the holding sequent in the or/or2 product at power 3
W3 = (["or(p,or(q,r))"], "or(or(r,q),p)")
# W4: reassociation in B_or at universe depth 2
W4 = (["or(or(p,q),r)"], "or(p,or(q,r))")
# W7: p |- neg^d(p) over the two-valued negation matrix; the deep chains
# lie past the depth at which the recursive formula code fails
W7_DEPTHS_BELOW = (50, 100, 200)
W7_DEPTHS_ABOVE = (1000, 2000, 3000)

CALC_TABLES = {"and": "0001", "or": "0111", "neg": "10", "imp": "1101", "iff": "1001", "sim": "10"}
# calculus id -> (builtin calculi merged in order, "B_neg:sim" being B_neg
# with neg renamed to sim; the connectives the merged calculus governs)
CALCULI = {
    "B_and": (["B_and"], ["and"]),
    "B_or": (["B_or"], ["or"]),
    "B_neg": (["B_neg"], ["neg"]),
    "B_imp": (["B_imp"], ["imp"]),
    "B_iff": (["B_iff"], ["iff"]),
    "or+and+and_or": (["B_or", "B_and", "and_or"], ["or", "and"]),
    "or+neg+or_neg": (["B_or", "B_neg", "or_neg"], ["or", "neg"]),
    "neg+sim+neg_pair": (["B_neg", "B_neg:sim", "neg_pair"], ["neg", "sim"]),
}

ENTAIL_PER_STRATUM = 8  # valid and invalid sequents per pair and power
ENTAIL_P4_PER_STRATUM = 5
FILTER_PER_STRATUM = 5
DERIVE_D1_PER_CALCULUS = 20
DERIVE_D2_PER_CALCULUS = 6


@dataclass
class Op:
    id: str
    category: str
    kind: str
    args: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------

def _random_formula(rng: random.Random, conns: list[tuple[str, int]], depth: int, names: list[str]) -> object:
    nullary = [c for c, k in conns if k == 0]
    compound = [(c, k) for c, k in conns if k > 0]
    if depth == 0 or rng.random() < 0.25:
        if nullary and rng.random() < 0.2:
            return (rng.choice(nullary), ())
        return rng.choice(names)
    c, k = rng.choice(compound)
    return (c, tuple(_random_formula(rng, conns, depth - 1, names) for _ in range(k)))


def _sequents(rng, tables: dict, want_valid: bool, count: int, max_depth: int) -> list[tuple[list[str], str]]:
    """Non-trivial sequents (conclusion not a premise) with at most two
    premises and three variables, classically valid or not as asked."""
    conns = sorted((n, logic.arity_of(t)) for n, t in tables.items())
    out = []
    while len(out) < count:
        names = ["p", "q", "r"][: rng.randint(1, 3)]
        premises = [_random_formula(rng, conns, rng.randint(0, max_depth), names) for _ in range(rng.randint(0, 2))]
        conclusion = _random_formula(rng, conns, rng.randint(1, max_depth), names)
        if conclusion in premises or logic.classically_valid(premises, conclusion, tables) != want_valid:
            continue
        seq = ([logic.text(p) for p in premises], logic.text(conclusion))
        if seq not in out:
            out.append(seq)
    return out


def seed_prefix(seed: int) -> str:
    """The digits a seed puts into the names it renames."""
    return str(random.Random(seed).randrange(10 ** 6))


def _rename(text: str, prefix: str, nullary=()) -> str:
    """p, q, r -> p<prefix>p, p<prefix>q, p<prefix>r: each new name still
    sorts between the connective names around p, q and r ("or", "sim")."""
    sigma = {v: f"p{prefix}{v}" for v in "pqr"}
    return logic.text(logic.substitute(sigma, logic.parse(text, nullary)))


def rename_back(text: str, prefix: str, nullary=()) -> str:
    sigma = {f"p{prefix}{v}": v for v in "pqr"}
    return logic.text(logic.substitute(sigma, logic.parse(text, nullary)))


def _chain(depth: int) -> str:
    return "neg(" * depth + "p" + ")" * depth


def entail_shapes() -> list[tuple[str, str, list[str], str]]:
    """(category, matrix key, premises, conclusion) for every entail op."""
    rng = random.Random(SHAPE_SEED)
    out = []
    for pair, (s1, s2) in SUBCLASSICAL_PAIRS.items():
        tables = {**s1, **s2}
        for power in (2, 3):
            for valid in (True, False):
                for prem, concl in _sequents(rng, tables, valid, ENTAIL_PER_STRATUM, 3):
                    out.append((f"entail.p{power}", f"{pair}^{power}", prem, concl))
    tables = {**SUBCLASSICAL_PAIRS["two_disj"][0], **SUBCLASSICAL_PAIRS["two_disj"][1]}
    for valid in (True, False):
        for prem, concl in _sequents(rng, tables, valid, ENTAIL_P4_PER_STRATUM, 3):
            out.append(("entail.p4", "two_disj^4", prem, concl))
    for key, tables in (("imp_bot", {"imp": "1101", "bot": "0"}), ("neg_bot", {"neg": "10", "bot": "0"})):
        for valid in (True, False):
            for prem, concl in _sequents(rng, tables, valid, FILTER_PER_STRATUM, 3):
                out.append(("filter", f"filter:{key}", prem, concl))
    out.append(("W3", "two_disj^3", *W3))
    for d in W7_DEPTHS_BELOW:
        out.append(("W7.below", "neg^1", ["p"], _chain(d)))
    for d in W7_DEPTHS_ABOVE:
        out.append(("W7.above", "neg^1", ["p"], _chain(d)))
    return out


def derive_shapes() -> list[tuple[str, str, int, list[str], str]]:
    """(category, calculus id, universe depth, premises, goal) per derive op."""
    rng = random.Random(SHAPE_SEED)
    out = []
    for cid, (_, names) in CALCULI.items():
        tables = {n: CALC_TABLES[n] for n in names}
        for depth, count in ((1, DERIVE_D1_PER_CALCULUS), (2, DERIVE_D2_PER_CALCULUS)):
            for prem, goal in _sequents(rng, tables, True, count, 2):
                out.append((f"derive.d{depth}", cid, depth, prem, goal))
    out.append(("W4", "B_or", 2, *W4))
    return out


def recovery_pairs() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """All unordered pairs of tables of arity <= 2, and those meeting the
    functional-completeness recovery precondition."""
    pairs = [(a, b) for i, a in enumerate(TABLES_LE2) for b in TABLES_LE2[i:]]
    fc = [
        (a, b) for a, b in pairs
        if logic.functionally_complete([a, b])
        and not logic.functionally_complete([a])
        and not logic.functionally_complete([b])
    ]
    return pairs, fc


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------

def _cli_op(op_id: str, category: str, command: str, sides: list[dict], tag: str) -> Op:
    """A CLI call on two fragment files, one per side, written in set-up."""
    files = [f"{op_id.split()[i + 1]}.json" for i in range(2)]
    return Op(op_id, category, "cli", {
        "argv": [command, *files, "--json"], "tag": tag,
        "files": dict(zip(files, sides)), "sides": sides,
    })


def recovery_ops(seed: int) -> list[Op]:
    """Connective names get the seed's tag in front: a<table> -> k<digits>_a<table>."""
    rng = random.Random(seed)
    tag = f"k{seed_prefix(seed)}_"
    pairs, fc = recovery_pairs()
    ops = []
    for command, chosen in (("decide-recovery", pairs), ("fc-recovery", fc)):
        for a, b in chosen:
            ops.append(_cli_op(f"{command} a{a} b{b}", command, command,
                               [{f"{tag}a{a}": a}, {f"{tag}b{b}": b}], tag))
    ops.append(_cli_op("fc-recovery w6_f1 w6_f2", "W6", "fc-recovery", list(W6_FRAGMENTS), ""))
    for cid in CATALOG_IDS:
        ops.append(Op(f"reproduce {cid}", "reproduce", "cli", {"argv": ["reproduce", cid, "--json"], "tag": ""}))
    rng.shuffle(ops)
    return ops


def entail_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    prefix = seed_prefix(seed)
    nullary = ("bot", "bota", "botb")
    ops = []
    for i, (category, key, prem, concl) in enumerate(entail_shapes()):
        ops.append(Op(
            f"{category}#{i}", category, "filter" if category == "filter" else "entail",
            {"matrix": key, "prefix": prefix, "premises": [_rename(t, prefix, nullary) for t in prem],
             "conclusion": _rename(concl, prefix, nullary)},
        ))
    rng.shuffle(ops)
    return ops


def derive_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    prefix = seed_prefix(seed)
    ops = []
    for i, (category, cid, depth, prem, goal) in enumerate(derive_shapes()):
        ops.append(Op(
            f"{category}#{i}", category, "derive",
            {"calculus": cid, "depth": depth, "premises": [_rename(t, prefix) for t in prem],
             "goal": _rename(goal, prefix)},
        ))
    rng.shuffle(ops)
    return ops


OP_LISTS = {"recovery": recovery_ops, "entail": entail_ops, "derive": derive_ops}


def query_nodes(op: Op) -> int:
    """Formula nodes in an op's input formulas (0 for CLI ops)."""
    texts = list(op.args.get("premises", ()))
    for key in ("conclusion", "goal"):
        if key in op.args:
            texts.append(op.args[key])
    return sum(logic.size(logic.parse(t)) for t in texts)


# ---------------------------------------------------------------------------
# Set-up: builds everything an op needs, with the program's public API
# ---------------------------------------------------------------------------

class Context:
    """The imported program modules and the inputs built from them."""

    def __init__(self, workload: str, workdir: str, modules: dict, ops: list[Op]):
        self.workload = workload
        self.ops = ops
        self.workdir = workdir
        self.m = modules  # name -> module (cli, boolfun, calculus, ...)
        self.matrices: dict = {}
        self.rules: dict = {}  # matrix key -> rules as (premise texts, conclusion text)
        self.rule_objects: dict = {}
        self.calculi: dict = {}
        self.calc_rules: dict = {}

    def setup(self) -> None:
        getattr(self, f"_setup_{self.workload}")()

    def _write_fragment(self, name: str, tables: dict) -> None:
        data = {"connectives": [{"name": n, "arity": logic.arity_of(t), "table": t} for n, t in sorted(tables.items())]}
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def _setup_recovery(self) -> None:
        files = {name: tables for op in self.ops for name, tables in op.args.get("files", {}).items()}
        for name, tables in files.items():
            self._write_fragment(name, tables)

    def _fragment(self, tables: dict):
        bf = self.m["boolfun"]
        return bf.FragmentSpec.of({n: bf.BooleanFunction.from_string(t, logic.arity_of(t)) for n, t in tables.items()})

    def _setup_entail(self) -> None:
        fib, sem, mo, calc = self.m["fibring"], self.m["semantics"], self.m["matrixops"], self.m["calculus"]
        for pair, (s1, s2) in SUBCLASSICAL_PAIRS.items():
            f1, f2 = self._fragment(s1), self._fragment(s2)
            for power in (2, 3):
                self.matrices[f"{pair}^{power}"] = fib.fibred_semantics(f1, f2, power)
        d1, d2 = SUBCLASSICAL_PAIRS["two_disj"]
        self.matrices["two_disj^4"] = fib.fibred_semantics(self._fragment(d1), self._fragment(d2), 4)
        self.matrices["filter:imp_bot"] = fib.truth_preserving_bot_matrix(self._fragment({"imp": "1101"}), "bot")
        self.matrices["filter:neg_bot"] = mo.strict_product(
            mo.power(sem.two_valued_matrix(self._fragment({"neg": "10"})), 2),
            sem.two_valued_matrix(self._fragment({"bot": "0"})),
        )
        for key, cid in (("filter:imp_bot", "imp_bot"), ("filter:neg_bot", "neg_bot")):
            rules = calc.builtin_calculus(cid).rules
            self.rule_objects[key] = rules
            self.rules[key] = self._rule_texts(rules)
        self.matrices["neg^1"] = sem.two_valued_matrix(self._fragment({"neg": "10"}))

    def _rule_texts(self, rules) -> list:
        text = self.m["syntax"].text
        return [([text(p) for p in r.premises], text(r.conclusion)) for r in rules]

    def _setup_derive(self) -> None:
        calc = self.m["calculus"]
        for cid, (parts, _) in CALCULI.items():
            merged = None
            for part in parts:
                base, _, new_name = part.partition(":")
                c = calc.builtin_calculus(base)
                if new_name:
                    c = calc.renamed(c, {base[2:]: new_name})
                merged = c if merged is None else calc.merge(merged, c)
            self.calculi[cid] = merged
            self.calc_rules[cid] = {r.name: pr for r, pr in zip(merged.rules, self._rule_texts(merged.rules))}


# ---------------------------------------------------------------------------
# Running one op (the timed part) and checking its result (untimed)
# ---------------------------------------------------------------------------

def run_op(ctx: Context, op: Op):
    """Execute the op through the program's public API; returns its raw result."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        argv = [a if not a.endswith(".json") else os.path.join(ctx.workdir, a) for a in op.args["argv"]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ctx.m["cli"].main(argv)
        return rc, out.getvalue(), err.getvalue()
    syntax = ctx.m["syntax"]
    if op.kind == "derive":
        calc = ctx.calculi[op.args["calculus"]]
        premises = [syntax.parse(t, calc.signature) for t in op.args["premises"]]
        goal = syntax.parse(op.args["goal"], calc.signature)
        result = ctx.m["calculus"].derive(calc, premises, goal, universe_depth=op.args["depth"])
        verified = ctx.m["calculus"].verify(result.derivation, calc, premises, goal) if result else None
        return result, verified
    matrix = ctx.matrices[op.args["matrix"]]
    premises = [syntax.parse(t, matrix.signature) for t in op.args["premises"]]
    conclusion = syntax.parse(op.args["conclusion"], matrix.signature)
    if op.kind == "filter":
        return ctx.m["semantics"].filter_valuations_by_rules(
            matrix, ctx.rule_objects[op.args["matrix"]], premises, conclusion
        ).verdict
    return ctx.m["semantics"].entails(matrix, premises, conclusion)


DECIDED, BOUNDED = "decided", "bounded"


def _countermodel(ctx: Context, verdict) -> dict[str, str]:
    text = ctx.m["syntax"].text
    return {text(k): v for k, v in verdict.countermodel.assignment}


def entail_record(ctx: Context, op: Op, verdict) -> dict:
    """The golden form of an entail/filter verdict, under the shape's own names."""
    if verdict:
        return {"verdict": "Holds"}
    nullary = [n for n, t in _tables_of(op.args["matrix"]).items() if logic.arity_of(t) == 0]
    lines = [f"{rename_back(k, op.args['prefix'], nullary)} |-> {v}" for k, v in _countermodel(ctx, verdict).items()]
    return {"verdict": "Fails", "countermodel": logic.digest(*lines)}


def cli_record(op: Op, result) -> dict:
    """The golden form of a CLI call: exit code and output bytes, with the
    seed's tag taken off the connective names."""
    rc, out, _ = result
    if op.args["tag"]:
        out = out.replace(op.args["tag"], "")
    try:
        payload = json.loads(out)
        verdict = payload.get("verdict") or ("passed" if payload.get("passed") else "failed")
    except ValueError:
        verdict = "unparsed"
    return {"rc": rc, "verdict": verdict, "sha256": logic.digest(str(rc), out)}


def check_op(ctx: Context, op: Op, result, golden: Optional[dict]) -> str:
    """Check a completed op; returns DECIDED or BOUNDED, raises CheckFailed."""
    if op.kind == "cli":
        return _check_cli(op, result, golden)
    if op.kind == "derive":
        return _check_derive(ctx, op, result)
    return _check_entail(ctx, op, result, golden)


def _check_golden(record: dict, golden: Optional[dict], decided: bool) -> None:
    """A recorded decided verdict must be reproduced exactly.  A verdict that
    was bounded (or not reached) at record time may since have been decided."""
    if golden is None or golden == record:
        return
    if golden.get("verdict") != "OutOfBound" or not decided:
        raise logic.CheckFailed(f"output differs from the golden record: {record} vs {golden}")


def _check_cli(op: Op, result, golden: Optional[dict]) -> str:
    rc, out, err = result
    record = cli_record(op, result)
    try:
        payload = json.loads(out)
    except ValueError:
        raise logic.CheckFailed(f"unparsable output (rc {rc}): {err.strip()[:200]}")
    command = op.args["argv"][0]
    if command == "reproduce":
        if not (payload.get("passed") and rc == 0):
            raise logic.CheckFailed(f"reproduce {op.args['argv'][1]} did not pass")
        _check_golden(record, golden, True)
        return DECIDED
    verdict = payload.get("verdict")
    s1, s2 = op.args["sides"]
    if command == "decide-recovery":
        condition = logic.recovery_condition(s1, s2)
        if verdict == "CLASSICAL":
            if payload.get("condition") != condition:
                raise logic.CheckFailed(f"CLASSICAL({payload.get('condition')}) but condition is {condition}")
        elif verdict == "SUBCLASSICAL":
            if condition is not None:
                raise logic.CheckFailed(f"SUBCLASSICAL but condition {condition} holds")
            premises, conclusion = logic.split_sequent(payload["witness"])
            tables = {**s1, **s2}
            nullary = [n for n, t in tables.items() if logic.arity_of(t) == 0]
            parsed = [logic.parse(t, nullary) for t in (*premises, conclusion)]
            if not logic.classically_valid(parsed[:-1], parsed[-1], tables):
                raise logic.CheckFailed(f"witness {payload['witness']} is not classically valid")
            logic.check_product_countermodel([s1, s2], payload["power"], payload["countermodel"], premises, conclusion)
        else:
            raise logic.CheckFailed(f"unexpected verdict {verdict!r}")
        _check_golden(record, golden, True)
        return DECIDED
    # fc-recovery: the precondition holds by construction
    if verdict == "OutOfBound":
        _check_golden(record, golden, False)
        return BOUNDED
    if verdict == "Recovered":
        up = (s1, s2)[payload["up1_side"] - 1]
        if not (logic.projective_side(up) and any(logic.top_like(t) for t in up.values())):
            raise logic.CheckFailed("Recovered, but the UP1 side is not top-likes and projections with a top")
        if op.category == "W6" and payload.get("clone") != "D":
            raise logic.CheckFailed(f"W6 generates the self-dual clone D, not {payload.get('clone')}")
    elif verdict != "NotRecovered" or op.category == "W6":
        raise logic.CheckFailed(f"unexpected verdict {verdict!r}")
    _check_golden(record, golden, True)
    return DECIDED


def _tables_of(matrix_key: str) -> dict:
    if matrix_key == "neg^1":
        return {"neg": "10"}
    if matrix_key.startswith("filter:"):
        return {"filter:imp_bot": {"imp": "1101", "bot": "0"}, "filter:neg_bot": {"neg": "10", "bot": "0"}}[matrix_key]
    s1, s2 = SUBCLASSICAL_PAIRS[matrix_key.split("^")[0]]
    return {**s1, **s2}


def _check_entail(ctx: Context, op: Op, verdict, golden: Optional[dict]) -> str:
    key = op.args["matrix"]
    tables = _tables_of(key)
    nullary = [n for n, t in tables.items() if logic.arity_of(t) == 0]
    premises, conclusion = op.args["premises"], op.args["conclusion"]
    valid = logic.classically_valid([logic.parse(p, nullary) for p in premises], logic.parse(conclusion, nullary), tables)
    if verdict:
        # the classical valuations embed in every product and filtered matrix
        if not valid:
            raise logic.CheckFailed("Holds for a classically invalid sequent")
    else:
        cm = _countermodel(ctx, verdict)
        logic.check_countermodel(ctx.matrices[key], cm, premises, conclusion, ctx.rules.get(key, ()))
        if op.kind == "filter" and valid:
            raise logic.CheckFailed("rule-filtered semantics refutes a classically valid sequent")
    if op.category == "W3" and not verdict:
        raise logic.CheckFailed("W3 holds in the product")
    _check_golden(entail_record(ctx, op, verdict), golden, True)
    return DECIDED


def _check_derive(ctx: Context, op: Op, result) -> str:
    derived, verified = result
    if not derived:
        return BOUNDED
    if not verified:
        raise logic.CheckFailed("calculus.verify rejects the derivation")
    text = ctx.m["syntax"].text
    calculus = ctx.m["calculus"]
    steps = []
    for step in derived.derivation.steps:
        j = step.justification
        if isinstance(j, calculus.RuleApp):
            steps.append((text(step.formula), (j.rule, {v: text(f) for v, f in j.substitution}, j.premise_steps)))
        else:
            steps.append((text(step.formula), None))
    logic.check_derivation(steps, ctx.calc_rules[op.args["calculus"]], op.args["premises"], op.args["goal"])
    return DECIDED
