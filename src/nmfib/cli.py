"""Command-line front end.

Every subcommand produces byte-identical output for identical inputs: all
collections are emitted in canonical order and --json output is serialized
with sorted keys.  Exit codes: 0 for a decided run, 2 for bounded verdicts
(Unknown, OutOfBound, NotFoundAtBound, no witness), 1 for errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from . import boolfun, calculus, fibring, matrixops, semantics, syntax

STANDARD_SIGNATURE = syntax.Signature.of(
    {
        "top": 0,
        "bot": 0,
        "neg": 1,
        "and": 2,
        "or": 2,
        "imp": 2,
        "coimp": 2,
        "iff": 2,
        "xor": 2,
        "xor3": 3,
        "if3": 3,
    }
)


class CliError(Exception):
    pass


def _find_file(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    bundled = resources.files("nmfib") / "systems" / name
    try:
        if bundled.is_file():
            return Path(str(bundled))
    except (OSError, ValueError):
        pass
    raise CliError(f"no such file: {name} (not on disk, not bundled)")


# the top-level keys each kind of input file must have
_FILE_KEYS = {
    "fragment": ("connectives",),
    "system": ("signature", "values", "designated", "interpretation"),
    "calculus": ("signature", "rules"),
    "translation": ("source", "mapping"),
}


def _load_json(name: str, kind: str) -> dict:
    with open(_find_file(name), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    missing = [key for key in _FILE_KEYS[kind] if not isinstance(data, dict) or key not in data]
    if missing:
        raise CliError(f"{name} is not a {kind} file (missing {', '.join(repr(k) for k in missing)})")
    return data


def _load_fragment(name: str) -> boolfun.FragmentSpec:
    return boolfun.load_fragment(_load_json(name, "fragment"))


def _load_system(name: str, allow_degenerate: bool = False) -> semantics.Nmatrix:
    return semantics.load_system(_load_json(name, "system"), allow_degenerate=allow_degenerate)


def _load_calculus(name: str) -> calculus.HilbertCalculus:
    return calculus.load_calculus(_load_json(name, "calculus"))


def _load_translation(name: str, target: syntax.Signature) -> syntax.Translation:
    data = _load_json(name, "translation")
    source = syntax.Signature.of([(c["name"], int(c["arity"])) for c in data["source"]])
    mapping = {n: syntax.parse(body, target) for n, body in data["mapping"].items()}
    return syntax.Translation.of(source, target, mapping)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _write_system(matrix: semantics.Nmatrix, out: Optional[str]) -> None:
    blob = json.dumps(semantics.dump_system(matrix), sort_keys=True, indent=2)
    if out:
        Path(out).write_text(blob + "\n", encoding="utf-8")
    else:
        print(blob)


def _countermodel_lines(cm: semantics.PartialValuation) -> list[str]:
    return [f"  {line}" for line in cm.lines()]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    if args.system:
        sig = _load_system(args.system, allow_degenerate=True).signature
    elif args.fragment:
        sig = _load_fragment(args.fragment).signature
    else:
        sig = STANDARD_SIGNATURE
    phi = syntax.parse(args.formula, sig)
    _emit(args, {"formula": syntax.text(phi), "depth": syntax.depth(phi)}, [syntax.text(phi)])
    return 0


def cmd_classify(args) -> int:
    f = boolfun.BooleanFunction.from_string(args.table, args.arity)
    cls = boolfun.classify(f)
    post = boolfun.post_predicates(f) if args.arity >= 1 else None
    parts = []
    if cls.top_like:
        parts.append("top-like")
    if cls.bottom_like:
        parts.append("bottom-like")
    if cls.projection_conjunction is not None and not cls.top_like:
        inner = ",".join(str(j) for j in cls.projection_conjunction)
        parts.append(f"projection-conjunction J={{{inner}}}")
    if cls.very_significant:
        parts.append("very significant")
    if cls.truth_preserving:
        parts.append("truth-preserving")
    payload = {
        "arity": args.arity,
        "table": args.table,
        "top_like": cls.top_like,
        "bottom_like": cls.bottom_like,
        "projective_indices": list(cls.projective_indices),
        "projection_conjunction": list(cls.projection_conjunction)
        if cls.projection_conjunction is not None
        else None,
        "significant": cls.significant,
        "very_significant": cls.very_significant,
        "truth_preserving": cls.truth_preserving,
    }
    if post is not None:
        payload["post"] = {
            "preserves0": post.preserves0,
            "preserves1": post.preserves1,
            "monotone": post.monotone,
            "affine": post.affine,
            "self_dual": post.self_dual,
        }
    _emit(args, payload, ["; ".join(parts) if parts else "significant"])
    return 0


def cmd_clone(args) -> int:
    frag = _load_fragment(args.fragment)
    funcs = [f for _, f in boolfun.fragment_functions_at_arity_one(frag)]
    closure = boolfun.clone_closure_at_arity(funcs, args.arity)
    tables = sorted(f.to_string() for f in closure)
    payload = {"arity": args.arity, "count": len(tables), "tables": tables}
    lines = [f"{len(tables)} functions at arity {args.arity}"]
    if args.list:
        lines += [f"  {t}" for t in tables]
    if args.contains:
        member = boolfun.BooleanFunction.from_string(args.contains, args.arity) in closure
        payload["contains"] = {"table": args.contains, "member": member}
        lines.append(f"contains {args.contains}: {'yes' if member else 'no'}")
    _emit(args, payload, lines)
    return 0


def cmd_entail(args) -> int:
    matrix = _load_system(args.system, allow_degenerate=args.allow_degenerate)
    sig = matrix.signature
    premises = [syntax.parse(t, sig) for t in args.premises]
    conclusion = syntax.parse(args.conclusion, sig)
    verdict = semantics.entails(matrix, premises, conclusion)
    if verdict:
        _emit(args, {"verdict": "HOLDS"}, ["HOLDS"])
    else:
        cm = verdict.countermodel
        _emit(
            args,
            {"verdict": "FAILS", "countermodel": {syntax.text(k): v for k, v in cm.assignment}},
            ["FAILS"] + _countermodel_lines(cm),
        )
    return 0


def cmd_product(args) -> int:
    m1 = _load_system(args.m1)
    m2 = _load_system(args.m2)
    _write_system(matrixops.strict_product(m1, m2, cap=args.cap), args.out)
    return 0


def cmd_power(args) -> int:
    m = _load_system(args.matrix)
    _write_system(matrixops.power(m, args.n, cap=args.cap), args.out)
    return 0


def cmd_translate(args) -> int:
    m = _load_system(args.matrix)
    t = _load_translation(args.translation, m.signature)
    _write_system(matrixops.translate_matrix(m, t), args.out)
    return 0


def cmd_derive(args) -> int:
    calc = _load_calculus(args.calculus)
    sig = calc.signature
    premises = [syntax.parse(t, sig) for t in args.premises]
    goal = syntax.parse(args.goal, sig)
    result = calculus.derive(
        calc, premises, goal, universe_depth=args.universe_depth, step_cap=args.steps
    )
    if result:
        d = result.derivation
        ok = calculus.verify(d, calc, premises, goal)
        payload = {
            "verdict": "DERIVED",
            "verified": ok,
            "steps": d.lines(),
        }
        _emit(args, payload, ["DERIVED"] + [f"  {l}" for l in d.lines()])
        return 0
    payload = {
        "verdict": "NOT FOUND AT BOUND",
        "reason": result.reason,
        "universe_depth": result.universe_depth,
        "step_cap": result.step_cap,
    }
    _emit(
        args,
        payload,
        [f"NOT FOUND AT BOUND ({result.reason}; universe depth {result.universe_depth}, step cap {result.step_cap})"],
    )
    return 2


def cmd_decide_recovery(args) -> int:
    f1 = _load_fragment(args.f1)
    f2 = _load_fragment(args.f2)
    verdict = fibring.decide_recovery(f1, f2, n=args.power, search_depth=args.depth)
    if isinstance(verdict, fibring.Classical):
        _emit(
            args,
            {"verdict": "CLASSICAL", "condition": verdict.condition, "detail": verdict.detail},
            [f"CLASSICAL (condition {verdict.condition})"],
        )
        return 0
    cm = verdict.countermodel
    payload = {
        "verdict": "SUBCLASSICAL",
        "witness": str(verdict.witness),
        "power": verdict.power_used,
        "countermodel": {syntax.text(k): v for k, v in cm.assignment},
    }
    _emit(
        args,
        payload,
        [
            "SUBCLASSICAL",
            f"  witness: {verdict.witness}",
            f"  refuted at power {verdict.power_used}",
        ]
        + _countermodel_lines(cm),
    )
    return 0


def cmd_witness(args) -> int:
    f1 = _load_fragment(args.f1)
    f2 = _load_fragment(args.f2)
    try:
        sub = fibring.subclassical_witness(f1, f2, n=args.power, search_depth=args.depth)
    except fibring.WitnessNotFound as exc:
        _emit(args, {"verdict": "NO WITNESS FOUND", "detail": str(exc)}, [f"NO WITNESS FOUND ({exc})"])
        return 2
    payload = {
        "witness": str(sub.witness),
        "power": sub.power_used,
        "countermodel": {syntax.text(k): v for k, v in sub.countermodel.assignment},
    }
    _emit(
        args,
        payload,
        [f"WITNESS: {sub.witness}", f"  refuted at power {sub.power_used}"]
        + _countermodel_lines(sub.countermodel),
    )
    return 0


def cmd_certify(args) -> int:
    f1 = _load_fragment(args.frag1)
    f2 = _load_fragment(args.frag2)
    extra = _load_calculus(args.rules) if args.rules else None
    sig = f1.signature.union(f2.signature)
    if extra is not None:
        sig = sig.union(extra.signature)
    premises = [syntax.parse(t, sig) for t in args.premises]
    goal = syntax.parse(args.goal, sig)
    verdict = fibring.certify_entailment(
        f1,
        f2,
        extra,
        premises,
        goal,
        n=args.power,
        universe_depth=args.universe_depth,
        step_cap=args.steps,
    )
    if isinstance(verdict, fibring.Yes):
        lines = ["YES"] + [f"  {l}" for l in verdict.derivation.lines()]
        _emit(args, {"verdict": "YES", "derivation": verdict.derivation.lines()}, lines)
        return 0
    if isinstance(verdict, fibring.No):
        cm = verdict.countermodel
        payload = {
            "verdict": "NO",
            "power": verdict.power_used,
            "exactness": verdict.exactness,
            "countermodel": {syntax.text(k): v for k, v in cm.assignment},
        }
        tag = "" if verdict.exactness == "exact" else " [rule-filtered, heuristic]"
        _emit(args, payload, [f"NO (power {verdict.power_used}){tag}"] + _countermodel_lines(cm))
        return 0
    payload = {
        "verdict": "UNKNOWN",
        "power": verdict.power_used,
        "universe_depth": verdict.universe_depth,
        "step_cap": verdict.step_cap,
    }
    _emit(args, payload, [f"UNKNOWN (power {verdict.power_used}, universe depth {verdict.universe_depth}, step cap {verdict.step_cap})"])
    return 2


def cmd_fc_recovery(args) -> int:
    f1 = _load_fragment(args.f1)
    f2 = _load_fragment(args.f2)
    out = fibring.decide_fc_recovery(f1, f2, n_max=args.nmax)
    payload = {"verdict": out.outcome, "clone": out.clone, "up1_side": out.up1_side}
    if out.outcome == "Recovered":
        _emit(args, payload, [f"RECOVERED ({out.clone} with UP1 on side {out.up1_side})"])
        return 0
    if out.outcome == "NotRecovered":
        _emit(args, payload, ["NOT RECOVERED"])
        return 0
    _emit(args, payload, [f"OUT OF BOUND ({out.detail})"])
    return 2


def cmd_kdet(args) -> int:
    f1 = _load_fragment(args.f1)
    f2 = _load_fragment(args.f2)
    probe = fibring.k_determinedness_probe(f1, f2, args.k, n=args.power)
    if probe:
        payload = {
            "verdict": "VIOLATION FOUND",
            "gamma": [syntax.text(g) for g in probe.gamma],
            "phi": syntax.text(probe.phi),
            "power": probe.power_used,
        }
        lines = [
            "VIOLATION FOUND",
            f"  gamma: {', '.join(syntax.text(g) for g in probe.gamma)}",
            f"  phi: {syntax.text(probe.phi)}",
            f"  refuted at power {probe.power_used}",
        ]
        _emit(args, payload, lines)
        return 0
    _emit(args, {"verdict": "NONE FOUND", "reason": probe.reason}, [f"NONE FOUND ({probe.reason})"])
    return 2


def cmd_reproduce(args) -> int:
    report = fibring.reproduce(args.example)
    payload = {
        "example": report.example_id,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }
    _emit(args, payload, report.lines())
    return 0 if report.passed else 1


def _add_json(sp) -> None:
    sp.add_argument("--json", action="store_true", help="emit a JSON verdict record")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nmfib",
        description="Workbench for combining matrix-defined propositional logics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and canonically reprint a formula")
    sp.add_argument("formula")
    sp.add_argument("--system", help="system file supplying the signature")
    sp.add_argument("--fragment", help="fragment file supplying the signature")
    _add_json(sp)
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("classify", help="classify a Boolean function table")
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("--table", required=True)
    _add_json(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("clone", help="clone closure of a fragment at an arity")
    sp.add_argument("fragment")
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--contains", help="table string to test for membership")
    _add_json(sp)
    sp.set_defaults(fn=cmd_clone)

    sp = sub.add_parser("entail", help="decide entailment over a system file")
    sp.add_argument("--system", required=True)
    sp.add_argument("--premises", action="append", default=[])
    sp.add_argument("--conclusion", required=True)
    sp.add_argument("--allow-degenerate", action="store_true")
    _add_json(sp)
    sp.set_defaults(fn=cmd_entail)

    sp = sub.add_parser("product", help="strict product of two system files")
    sp.add_argument("m1")
    sp.add_argument("m2")
    sp.add_argument("-o", "--out")
    sp.add_argument("--cap", type=int)
    sp.set_defaults(fn=cmd_product)

    sp = sub.add_parser("power", help="finite power of a system file")
    sp.add_argument("matrix")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-o", "--out")
    sp.add_argument("--cap", type=int)
    sp.set_defaults(fn=cmd_power)

    sp = sub.add_parser("translate", help="interpretation induced under a translation")
    sp.add_argument("matrix")
    sp.add_argument("translation")
    sp.add_argument("-o", "--out")
    sp.set_defaults(fn=cmd_translate)

    sp = sub.add_parser("derive", help="bounded Hilbert-calculus proof search")
    sp.add_argument("--calculus", required=True)
    sp.add_argument("--premises", action="append", default=[])
    sp.add_argument("--goal", required=True)
    sp.add_argument("--universe-depth", type=int, default=2)
    sp.add_argument("--steps", type=int, default=10000)
    _add_json(sp)
    sp.set_defaults(fn=cmd_derive)

    sp = sub.add_parser("decide-recovery", help="does merging recover the classical fragment?")
    sp.add_argument("f1")
    sp.add_argument("f2")
    sp.add_argument("--power", type=int, default=2)
    sp.add_argument("--depth", type=int, default=2)
    _add_json(sp)
    sp.set_defaults(fn=cmd_decide_recovery)

    sp = sub.add_parser("witness", help="find a subclassicality witness")
    sp.add_argument("f1")
    sp.add_argument("f2")
    sp.add_argument("--power", type=int, default=2)
    sp.add_argument("--depth", type=int, default=2)
    _add_json(sp)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("certify", help="two-sided entailment certificate")
    sp.add_argument("--frag1", required=True)
    sp.add_argument("--frag2", required=True)
    sp.add_argument("--rules")
    sp.add_argument("--premises", action="append", default=[])
    sp.add_argument("--goal", required=True)
    sp.add_argument("--power", type=int, default=2)
    sp.add_argument("--universe-depth", type=int, default=2)
    sp.add_argument("--steps", type=int, default=4000)
    _add_json(sp)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("fc-recovery", help="functional-completeness recovery decision")
    sp.add_argument("f1")
    sp.add_argument("f2")
    sp.add_argument("--nmax", type=int, default=2)
    _add_json(sp)
    sp.set_defaults(fn=cmd_fc_recovery)

    sp = sub.add_parser("kdet", help="k-determinedness violation probe")
    sp.add_argument("f1")
    sp.add_argument("f2")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--power", type=int, default=3)
    _add_json(sp)
    sp.set_defaults(fn=cmd_kdet)

    sp = sub.add_parser("reproduce", help="re-run a worked example from the catalog")
    sp.add_argument("example", choices=list(fibring.CATALOG_IDS))
    _add_json(sp)
    sp.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (
        CliError,
        syntax.ParseError,
        syntax.SignatureError,
        semantics.MatrixError,
        boolfun.ClosureBudgetExceeded,
        KeyError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # the formula code walks formulas recursively, so a deep enough
        # formula exhausts the interpreter stack
        print("error: formula too deep (nesting exceeds the recursion limit)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
