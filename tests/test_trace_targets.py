"""The functions that perfbench's tracer wraps by name must exist in nmfib.

The tracer looks each one up when ``--trace 1`` installs it, so a renamed
function would break only traced runs.  Its tables are read from the
source, without importing the benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_constants() -> dict[str, object]:
    out = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("SPAN_LAYERS", "SYNTAX_FUNCTIONS"):
                out[name] = ast.literal_eval(node.value)
    return out


def test_tracer_targets_exist():
    consts = _tracer_constants()
    spans = consts["SPAN_LAYERS"]
    assert spans and consts["SYNTAX_FUNCTIONS"]
    targets = [pair for pairs in spans.values() for pair in pairs]
    targets += [("syntax", name) for name in consts["SYNTAX_FUNCTIONS"]]
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"nmfib.{module}"), name, None))
    ]
    assert not missing
