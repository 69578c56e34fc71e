"""Recorded CLI outputs: every README command that writes no file, plus the
acceptance suite, must keep its stdout, stderr and exit code byte for byte.

Text output is recorded for every command.  JSON output is recorded where
its values are exact; the ``vn`` commands print LAPACK floats at full
precision in JSON, so only their text output is recorded.

Every command runs in-process from the repository root.  Regenerate the
recording after a deliberate change of output with
``PYTHONPATH=src python3 tests/test_golden_cli.py``.
"""
import json
import sys
from pathlib import Path

import pytest

from obslat.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

COMMANDS = [
    ("lattice", "list"),
    ("lattice", "check", "-i", "mo2"),
    ("stone", "dual-ideals", "--lattice", "b3"),
    ("stone", "quasipoints", "--lattice", "corpus/mo2.json"),
    ("spectral", "eval", "--family", "corpus/family_mo2.json", "--at", "1.0"),
    ("spectral", "spectrum", "--family", "corpus/family_b2.json"),
    ("obs", "eval", "--family", "corpus/family_mo2.json", "--ideal", "a,1"),
    ("obs", "check", "--table", "corpus/table_mo2.json"),
    ("vn", "spectral-family", "corpus/matrix_a.json"),
    ("vn", "order", "corpus/matrix_low.json", "corpus/matrix_high.json"),
    ("vn", "restrict", "--algebra", "corpus/gens_diag.json",
     "--op", "corpus/matrix_a.json", "--map", "rho"),
    ("vn", "core", "--algebra", "corpus/gens_diag.json",
     "--proj", "corpus/proj_q.json"),
    ("classical", "induce", "--space", "corpus/space_sierpinski.json",
     "--fn", "corpus/fn_id.json"),
    ("classical", "check-continuity",
     "--space", "corpus/space_sierpinski.json", "--fn", "corpus/fn_id.json"),
    ("classical", "check-continuity",
     "--family", "corpus/topfam_stepline.json"),
    ("classical", "demo", "--family", "abs", "--grid", "-2:2:0.25"),
    ("context", "glue", "--diagram", "corpus/diagram_qubit.json",
     "--sections", "corpus/section_clash.json"),
    ("presheaf", "check", "-i", "corpus/presheaf_mo2.json"),
    ("presheaf", "sheafify", "-i", "corpus/presheaf_mo2.json"),
    ("suite", "--seed", "7"),
]


def cases():
    for argv in COMMANDS:
        yield (*argv, "--format", "text")
        if argv[0] != "vn":
            yield (*argv, "--format", "json")


def test_the_recording_covers_every_case():
    recorded = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in recorded] == [list(a) for a in cases()]


@pytest.mark.parametrize("argv", list(cases()), ids=" ".join)
def test_cli_output_matches_the_recording(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}
    want = recorded[argv]
    code = main(list(argv))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (want["exit"], want["stdout"],
                                        want["stderr"])


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    records = []
    for argv in cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        records.append({"argv": list(argv), "exit": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} recordings to {GOLDEN}", file=sys.stderr)
