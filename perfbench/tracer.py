"""Per-layer tracing from outside the program.

The tracer replaces each listed public function of nmfib by a wrapper at
every binding site: the defining module and every nmfib module that bound
the name with ``from .x import f``.  A call into a layer opens a span
(name, parent span, op id, start, end); its self time is its duration
minus the time of the wrapped calls made inside it.  The hot, recursive
formula functions of ``syntax`` get aggregated counters only, and only
their outermost calls are counted.  Spans stay in memory and are written
out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Optional

# layer -> (module, function) pairs that open a span
SPAN_LAYERS = {
    "cli": [("cli", "main")],
    "fibring": [
        ("fibring", "decide_recovery"),
        ("fibring", "subclassical_witness"),
        ("fibring", "decide_fc_recovery"),
        ("fibring", "fibred_semantics"),
        ("fibring", "reproduce"),
    ],
    "boolfun.expr": [("boolfun", "find_expression"), ("boolfun", "clone_expressions")],
    "boolfun.tables": [
        ("boolfun", "standard_function"),
        ("boolfun", "classify"),
        ("boolfun", "functionally_complete"),
    ],
    "boolfun.closure": [("boolfun", "clone_closure_at_arity")],
    "matrixops": [("matrixops", "power"), ("matrixops", "strict_product")],
    "semantics.entails": [("semantics", "entails")],
    "semantics.filter": [("semantics", "filter_valuations_by_rules")],
    "calculus.derive": [("calculus", "derive")],
    "calculus.verify": [("calculus", "verify")],
}
# aggregated, outermost calls only
SYNTAX_FUNCTIONS = ("parse", "apply_substitution", "subformula_closure", "canon_sort")

PER_LAYER_METRICS = [
    ("cli.calls", "calls"),
    ("cli.self_ms", "ms"),
    ("fibring.calls", "calls"),
    ("fibring.self_ms", "ms"),
    ("fibring.entails_per_decision", "calls"),
    ("fibring.witness_power_sum", "count"),
    ("boolfun.expr.calls", "calls"),
    ("boolfun.expr.self_ms", "ms"),
    ("boolfun.expr.found_ratio", "ratio"),
    ("boolfun.tables.calls", "calls"),
    ("boolfun.tables.self_ms", "ms"),
    ("boolfun.closure.calls", "calls"),
    ("boolfun.closure.self_ms", "ms"),
    ("matrixops.calls", "calls"),
    ("matrixops.self_ms", "ms"),
    ("matrixops.values", "count"),
    ("matrixops.cells", "count"),
    ("semantics.entails.calls", "calls"),
    ("semantics.entails.self_ms", "ms"),
    ("semantics.entails.holds_ratio", "ratio"),
    ("semantics.domain_formulas", "count"),
    ("semantics.filter.calls", "calls"),
    ("semantics.filter.self_ms", "ms"),
    ("calculus.derive.calls", "calls"),
    ("calculus.derive.self_ms", "ms"),
    ("calculus.derive.found_ratio", "ratio"),
    ("calculus.derivation_steps", "count"),
    ("calculus.verify.self_ms", "ms"),
    ("syntax.calls", "calls"),
    ("syntax.self_ms", "ms"),
    ("syntax.query_nodes", "count"),
    ("trace.overhead_ratio", "ratio"),
]

SPAN_FIELDS = ("id", "parent", "op", "name", "layer", "start_s", "end_s", "self_s")
PACKAGE = "nmfib"


class Tracer:
    """Owns the wrappers, the open-span stack, the spans and the counters.

    ``install`` wraps; ``uninstall`` puts the original functions back.
    Wrappers only record while ``op`` is set, so set-up and checking done
    between ops leave no trace.
    """

    def __init__(self):
        self.op: Optional[str] = None
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, layer, child seconds]
        self.syntax_depth = 0
        self.totals: dict[str, float] = {}
        self.setup_totals: dict[str, float] = {}
        self.originals: list[tuple[object, str, Callable]] = []
        self._next_id = 1
        self._origin = time.perf_counter()
        self._closure: Optional[Callable] = None

    # -- counters ---------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        self.totals[key] = self.totals.get(key, 0) + amount

    def _inside(self, layer: str) -> bool:
        return any(frame[1] == layer for frame in self.stack)

    # -- wrapping ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.originals.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for layer, funcs in SPAN_LAYERS.items():
            for mod_name, fn_name in funcs:
                original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
                self._rebind(original, self._span_wrapper(layer, f"{mod_name}.{fn_name}", original))
        syntax = sys.modules[f"{PACKAGE}.syntax"]
        self._closure = syntax.subformula_closure
        for fn_name in SYNTAX_FUNCTIONS:
            original = getattr(syntax, fn_name)
            self._rebind(original, self._syntax_wrapper(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.originals):
            setattr(mod, attr, original)
        self.originals = []

    def _span_wrapper(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [span_id, layer, 0.0]
            tracer._before(layer, name)
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - start
                self_s = duration - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                tracer.add(f"{layer}.calls")
                tracer.add(f"{layer}.self_s", self_s)
                tracer.spans.append(
                    (span_id, parent, tracer.op, name, layer, start - tracer._origin, end - tracer._origin, self_s)
                )
            tracer._after(layer, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _syntax_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None or tracer.syntax_depth:
                return fn(*args, **kwargs)
            tracer.syntax_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer.syntax_depth -= 1
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                tracer.add("syntax.calls")
                tracer.add("syntax.self_s", duration)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- layer-specific counts ---------------------------------------------

    def _before(self, layer: str, name: str) -> None:
        if layer == "fibring" and not self._inside("fibring"):
            self.add("fibring.decisions")
        if layer == "semantics.entails" and self._inside("fibring"):
            self.add("fibring.entails")

    def _after(self, layer: str, name: str, args: tuple, result) -> None:
        if name == "fibring.decide_recovery" and hasattr(result, "power_used"):
            self.add("fibring.witness_power_sum", result.power_used)
        elif name == "boolfun.find_expression":
            self.add("boolfun.expr.asked")
            self.add("boolfun.expr.found", result is not None)
        elif layer == "matrixops":
            n = len(result.values)
            self.add("matrixops.values", n)
            self.add("matrixops.cells", sum(n ** k for _, k in result.signature.connectives))
        elif layer == "semantics.entails":
            self.add("semantics.entails.holds", bool(result))
            premises, conclusion = list(args[1]), args[2]
            # counted outside every span, with tracing paused
            op, self.op = self.op, None
            try:
                self.add("semantics.domain_formulas", len(self._closure(premises + [conclusion])))
            except RecursionError:
                pass
            finally:
                self.op = op
        elif layer == "calculus.derive":
            self.add("calculus.derive.found", bool(result))
            if result:
                self.add("calculus.derivation_steps", len(result.derivation.steps))

    # -- results ------------------------------------------------------------

    def end_setup(self) -> None:
        """Close the traced set-up: its counts are kept apart from the passes'."""
        self.setup_totals, self.totals = self.totals, {}

    def metrics(self, passes: int, query_nodes: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics: one set-up plus the average pass over the op list."""
        t = {k: self.setup_totals.get(k, 0) + self.totals.get(k, 0) / passes
             for k in {*self.setup_totals, *self.totals}}

        def total(key: str, scale: float = 1.0) -> float:
            return t.get(key, 0) * scale

        def ratio(num: str, den: str) -> float:
            return t.get(num, 0) / t[den] if t.get(den) else 0.0

        out = {}
        for layer in ("cli", "fibring", "boolfun.expr", "boolfun.tables", "boolfun.closure", "matrixops",
                      "semantics.entails", "semantics.filter", "calculus.derive", "syntax"):
            out[f"{layer}.calls"] = total(f"{layer}.calls")
            out[f"{layer}.self_ms"] = total(f"{layer}.self_s", 1000.0)
        out["fibring.entails_per_decision"] = ratio("fibring.entails", "fibring.decisions")
        out["fibring.witness_power_sum"] = total("fibring.witness_power_sum")
        out["boolfun.expr.found_ratio"] = ratio("boolfun.expr.found", "boolfun.expr.asked")
        out["matrixops.values"] = total("matrixops.values")
        out["matrixops.cells"] = total("matrixops.cells")
        out["semantics.entails.holds_ratio"] = ratio("semantics.entails.holds", "semantics.entails.calls")
        out["semantics.domain_formulas"] = total("semantics.domain_formulas")
        out["calculus.derive.found_ratio"] = ratio("calculus.derive.found", "calculus.derive.calls")
        out["calculus.derivation_steps"] = total("calculus.derivation_steps")
        out["calculus.verify.self_ms"] = total("calculus.verify.self_s", 1000.0)
        out["syntax.query_nodes"] = query_nodes
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name, _ in PER_LAYER_METRICS}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "setup_totals": self.setup_totals, "pass_totals": self.totals}, fh)
