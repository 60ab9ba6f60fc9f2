"""Benchmark entry point.

    python3 perfbench/run.py --workload recovery|entail|derive --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: nmfib is imported from ``src/``
there.  The run is closed-loop with one client in one process: each op
starts when the previous one has been checked.  Whole passes over the
workload's op list are timed; another pass starts only while the time
already spent plus the last pass's length fits in ``--seconds``, so at
least one pass always runs.  Every op runs under a per-op time limit kept
by an interval timer in the main thread; a timed-out op counts as
undecided, with the limit as its latency.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; the lines before it, starting with ``#``, report
every metric with its unit.  With ``--trace 1`` one more set-up is traced,
untraced and traced passes alternate, the per-layer metrics come from the
traced set-up and passes, and the spans are written to ``.perfbench_out/``
in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import logic  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OP_LIMIT_S = 1.0
SETUP_REPEATS = 5
PROGRAM_MODULES = ("syntax", "semantics", "matrixops", "boolfun", "calculus", "fibring", "cli")
GOLDEN_DIR = os.path.join(HERE, "golden")

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("timeout_ratio", "ratio"),
    ("error_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# the end-to-end metrics the last line carries (BENCHMARK.json's end_to_end):
# timeout_ratio and error_ratio can be 0, and the failure share is already
# the result line's failed / attempted
GATED = ("ops_per_s", "latency_p50_ms", "latency_p95_ms", "decided_ratio", "setup_s", "peak_rss_mb")


class OpTimeout(BaseException):
    """Raised in the main thread when an op reaches the time limit.

    A BaseException, so that no ``except Exception`` in the program can turn
    the timeout into an ordinary error."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_program() -> dict:
    """Import nmfib afresh from the checkout's src/ (this is set-up work)."""
    for name in [n for n in sys.modules if n == "nmfib" or n.startswith("nmfib.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"nmfib.{name}") for name in PROGRAM_MODULES}
    where = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if where != os.path.join(SRC, "nmfib"):
        raise ImportError(f"nmfib imported from {where}, not from {SRC}")
    return modules


def load_golden(workload: str) -> dict:
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Outcome:
    __slots__ = ("op", "status", "latency", "detail")

    def __init__(self, op, status: str, latency: float, detail: str = ""):
        self.op, self.status, self.latency, self.detail = op, status, latency, detail


def run_one(ctx, op, golden: dict, tracer=None) -> Outcome:
    """Run an op under the time limit, then check its result untimed.

    Status: decided, bounded, timeout, error (the op raised or the program
    reported an error) or wrong (an independent check failed)."""
    if tracer is not None:
        tracer.op = op.id
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            raw = workloads.run_op(ctx, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
    except OpTimeout:
        return Outcome(op, "timeout", OP_LIMIT_S)
    except Exception as exc:  # a failed op is counted, and the run goes on
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return Outcome(op, "error", time.perf_counter() - start,
                       f"{type(exc).__name__}: {str(exc)[:120]} at {os.path.basename(frame.filename)}:{frame.lineno}")
    finally:
        if tracer is not None:
            tracer.op = None
    if op.kind == "cli" and raw[0] == 1 and not raw[1]:
        return Outcome(op, "error", latency, raw[2].strip()[:200])
    try:
        status = workloads.check_op(ctx, op, raw, golden.get(op.id))
    except logic.CheckFailed as exc:
        return Outcome(op, "wrong", latency, str(exc)[:300])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Outcome(op, "wrong", latency, f"unreadable result: {type(exc).__name__}: {exc}"[:300])
    return Outcome(op, status, latency)


def run_pass(ctx, ops, golden, tracer=None) -> list[Outcome]:
    return [run_one(ctx, op, golden, tracer) for op in ops]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def per_op(passes: list[list[Outcome]]) -> list[float]:
    """Each op's latency: the median of its runs, one per pass.

    A shared machine's speed drifts with other load; the median repeat
    resists a burst of slowness (or speed) that hits a single pass."""
    return [statistics.median(runs) for runs in zip(*([o.latency for o in p] for p in passes))]


def end_to_end(passes: list[list[Outcome]], setup_s: float) -> dict[str, float]:
    lat = sorted(per_op(passes))
    runs = [o for p in passes for o in p]
    count = lambda *s: sum(1 for o in runs if o.status in s) / len(runs)  # noqa: E731
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_p95_ms": percentile(lat, 95) * 1000.0,
        "decided_ratio": count("decided"),
        "timeout_ratio": count("timeout"),
        "error_ratio": count("error", "wrong"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def describe(workload: str, seed: int, ops, passes: int, outcomes: list[Outcome]) -> list[str]:
    cats: dict[str, int] = {}
    for op in ops:
        cats[op.category] = cats.get(op.category, 0) + 1
    by_status: dict[str, int] = {}
    for o in outcomes:
        by_status[o.status] = by_status.get(o.status, 0) + 1
    return [
        f"# workload {workload} seed {seed}: {len(ops)} ops per pass "
        + ", ".join(f"{c} {k}" for c, k in cats.items()),
        f"# {passes} timed passes, {len(outcomes)} op runs: "
        + ", ".join(f"{s} {k}" for s, k in sorted(by_status.items()))
        + f"; per-op limit {OP_LIMIT_S} s; python {platform.python_version()}; nproc {os.cpu_count()}",
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OP_LISTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "nmfib")):
        print(f"error: no nmfib sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the op list and golden records are the benchmark's own work, not set-up
    startup = time.perf_counter() - T_START
    ops = workloads.OP_LISTS[args.workload](args.seed)
    golden = load_golden(args.workload)
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            ctx = None
            gc.collect()
            t = time.perf_counter()
            ctx = workloads.Context(args.workload, workdir, import_program(), ops)
            ctx.setup()
            setup_times.append(time.perf_counter() - t)
        setup_s = startup + statistics.median(setup_times)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            # one more set-up, traced, so that set-up work (matrixops on
            # entail) shows in the per-layer metrics
            tracer.install()
            tracer.op = "setup"
            try:
                ctx.setup()
            finally:
                tracer.op = None
                tracer.uninstall()
            tracer.end_setup()
        untraced: list[list[Outcome]] = []
        traced: list[list[Outcome]] = []
        loop_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced.append(run_pass(ctx, ops, golden))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_pass(ctx, ops, golden, tracer))
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            # at least two passes, so that every op has a repeat
            if len(untraced) >= 2 and now - loop_start + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = traced if tracer is not None else untraced
    outcomes = [o for p in measured for o in p]
    failed = [o for o in outcomes if o.status in ("error", "wrong")]
    for o in failed[:20]:
        print(f"failed op {o.op.id} [{o.status}]: {o.detail}", file=sys.stderr)
    for line in describe(args.workload, args.seed, ops, len(measured), outcomes):
        print(line)
    if tracer is None:
        values = end_to_end(untraced, setup_s)
        units = dict(END_TO_END)
        print("# " + "  ".join(f"{name} {values[name]:.6g} {units[name]}" for name, _ in END_TO_END))
        metrics = {name: {"value": values[name], "unit": units[name]} for name in GATED}
    else:
        # over the ops that completed in every pass, so the limit does not dilute it
        done = [all(p[i].status in ("decided", "bounded") for p in untraced + traced) for i in range(len(ops))]
        overhead = sum(t for t, ok in zip(per_op(traced), done) if ok) / sum(
            u for u, ok in zip(per_op(untraced), done) if ok)
        nodes = sum(workloads.query_nodes(op) for op in ops)
        values = tracer.metrics(len(traced), nodes, overhead)
        units = dict(tracing.PER_LAYER_METRICS)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(trace_path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
        print("# " + "  ".join(f"{name} {values[name]:.6g} {units[name]}" for name, _ in tracing.PER_LAYER_METRICS))
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in tracing.PER_LAYER_METRICS}
    print(json.dumps({
        "correct": not any(o.status == "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
