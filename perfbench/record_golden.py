"""Record the golden verdicts the benchmark compares against.

    python3 perfbench/record_golden.py [recovery|entail ...]

Runs every op of the recovery and entail workloads once and writes
``perfbench/golden/<workload>.json``: the exit code, verdict and SHA-256 of
the CLI output for recovery ops, the verdict and SHA-256 of the
countermodel lines for entail ops.  A result is recorded only when it
passes the benchmark's independent checks.  Ops that do not finish within
``RECORD_LIMIT_S``, or that fail, get no record; the benchmark then checks
them with the independent checkers alone.  Run it from the root of the
checkout whose outputs are the reference.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import time

import run
import workloads
import logic

RECORD_LIMIT_S = 10.0
OP_LISTS = {"recovery": workloads.recovery_ops, "entail": workloads.entail_ops}


def record(workload: str) -> dict:
    ops = OP_LISTS[workload](0)
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = workloads.Context(workload, workdir, run.import_program(), ops)
        ctx.setup()
        out = {}
        for op in ops:
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, RECORD_LIMIT_S)
                try:
                    raw = workloads.run_op(ctx, op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except run.OpTimeout:
                print(f"no record: {op.id} ran past {RECORD_LIMIT_S} s", file=sys.stderr)
                continue
            except Exception as exc:  # reported, and left without a record
                print(f"no record: {op.id} raised {type(exc).__name__}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            try:
                workloads.check_op(ctx, op, raw, None)
            except logic.CheckFailed as exc:
                print(f"no record: {op.id} fails a check: {exc}", file=sys.stderr)
                continue
            if op.kind == "cli":
                out[op.id] = workloads.cli_record(op, raw)
            else:
                out[op.id] = workloads.entail_record(ctx, op, raw)
            if elapsed > 1.0:
                print(f"slow: {op.id} {elapsed:.2f} s", file=sys.stderr)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    sys.path.insert(0, run.SRC)
    signal.signal(signal.SIGALRM, run._on_alarm)
    os.makedirs(run.GOLDEN_DIR, exist_ok=True)
    for workload in argv or sorted(OP_LISTS):
        records = record(workload)
        path = os.path.join(run.GOLDEN_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(records)} records written to {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
