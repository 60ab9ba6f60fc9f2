"""Byte-identity of the command line, replayed from recorded digests.

Each run below is a ``nmfib`` command line; its digest is the SHA-256 of
the JSON list ``[exit code, stdout, stderr, files]``, where ``files`` maps
each file the run wrote into its (empty) working directory to the file's
text.  The runs are:

- ``decide-recovery --json`` on every ordered pair of bundled fragment files;
- ``reproduce --json`` on every catalog id;
- ``derive --json`` for every bundled calculus on the seeded sequents of
  ``test_derive_reference``, at universe depth 1 and step caps 2, 3, 5 and
  the default;
- every example command of the README's "Command line" section.

``golden_digests.json`` holds the digests.  A change that is meant to alter
some output re-records them with

    PYTHONPATH=src python tests/test_golden_digests.py

and says which runs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

from nmfib import bundled, calculus, fibring
from nmfib.cli import main
from nmfib.syntax import text
from test_derive_reference import seeded_sequents

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("golden_digests.json")


def readme_commands() -> list[list[str]]:
    """The example command lines of the README's "Command line" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands, current = [], ""
    for line in block.splitlines():
        current += line.split("#", 1)[0].strip()
        if current.endswith("\\"):
            current = current[:-1] + " "
            continue
        if current:
            commands.append(shlex.split(current))
        current = ""
    assert all(argv[0] == "nmfib" for argv in commands), commands
    return [argv[1:] for argv in commands]


def derive_runs() -> list[list[str]]:
    """derive --json on the seeded sequents the differential derive tests
    use at universe depth 1, under small step caps and the default one."""
    out = []
    for cid in calculus.BUILTIN_IDS:
        for prems, goal in seeded_sequents(cid, seed=1, per_kind=8):
            argv = ["derive", "--json", "--calculus", f"{cid}.json", "--universe-depth", "1", "--goal", text(goal)]
            for p in prems:
                argv += ["--premises", text(p)]
            out += [argv + ["--steps", str(cap)] for cap in (2, 3, 5)]
            out.append(argv)
    return out


def runs() -> list[list[str]]:
    fragments = [f"{stem}.json" for stem in bundled.stems("fragment")]
    out = [["decide-recovery", "--json", a, b] for a in fragments for b in fragments]
    out += [["reproduce", "--json", cid] for cid in fibring.CATALOG_IDS]
    return out + derive_runs() + readme_commands()


def digest(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(argv))
            files = {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(work).iterdir())}
        finally:
            os.chdir(here)
    record = json.dumps([code, stdout.getvalue(), stderr.getvalue(), files])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def record_all() -> dict[str, str]:
    return {shlex.join(argv): digest(argv) for argv in runs()}


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    now = record_all()
    assert sorted(now) == sorted(recorded), "the set of runs changed; re-record the digests"
    changed = [run for run in now if now[run] != recorded[run]]
    assert not changed, f"{len(changed)} runs changed output, e.g. {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record_all(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
