"""Recorded CLI outputs: every README command, the acceptance suite and a
few failing commands must keep their stdout, stderr, exit code and written
files byte for byte.

Text output is recorded for every command.  JSON output is recorded where
its values are exact; the ``vn`` commands print LAPACK floats at full
precision in JSON, so only their text output is recorded.

Every command runs in-process in an empty directory that finds the corpus
through OBS_CORPUS_DIR, so a written file and its ``written to`` line have
fixed names.  Regenerate the recording after a deliberate change of output
with ``PYTHONPATH=src python3 tests/test_golden_cli.py``.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from obslat.cli import main
from obslat.jsonio import CORPUS_ENV

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
    # M_2 + C, not abelian: the Sylvester path
    ("vn", "restrict", "--algebra", "corpus/gens_block.json",
     "--op", "corpus/matrix_a.json", "--map", "rho"),
    ("vn", "restrict", "--algebra", "corpus/gens_block.json",
     "--op", "corpus/matrix_a.json", "--map", "sigma"),
    ("vn", "core", "--algebra", "corpus/gens_block.json",
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
    # README commands that write a file
    ("lattice", "check", "-i", "corpus/o6.json", "--dot", "o6.dot"),
    ("spectral", "restrict", "--family", "corpus/family_mo2.json",
     "--to", "a'", "--out", "sub.json"),
    ("obs", "reconstruct", "--table", "corpus/table_mo2.json",
     "--out", "fam.json"),
    ("context", "from-operator", "--op", "corpus/op_qubit.json",
     "--diagram", "corpus/diagram_qubit.json", "--out", "section.json"),
    # a failed check and rejected options
    ("obs", "check", "--table", "corpus/table_bad_mo2.json"),
    ("presheaf", "check", "-i", "corpus/presheaf_mo2.json", "--cap", "1"),
    ("presheaf", "check", "-i", "corpus/presheaf_mo2.json", "--cap", "0"),
    ("vn", "spectral-family", "corpus/matrix_a.json", "--tol", "sub=x"),
]


def cases():
    for argv in COMMANDS:
        yield (*argv, "--format", "text")
        if argv[0] != "vn":
            yield (*argv, "--format", "json")


def record(argv, workdir: Path, mp: pytest.MonkeyPatch) -> dict:
    """Run one command in the empty directory workdir; its exit code,
    stdout, stderr and the files it wrote there."""
    mp.chdir(workdir)
    mp.setenv(CORPUS_ENV, str(ROOT))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "files": {f.name: f.read_bytes().decode("utf-8")
                      for f in sorted(workdir.iterdir())}}


def test_the_recording_covers_every_case():
    recorded = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in recorded] == [list(a) for a in cases()]


@pytest.mark.parametrize("argv", list(cases()), ids=" ".join)
def test_cli_output_matches_the_recording(argv, tmp_path, monkeypatch):
    recorded = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}
    assert record(argv, tmp_path, monkeypatch) == recorded[argv]


if __name__ == "__main__":
    records = []
    for argv in cases():
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            records.append(record(argv, Path(tmp), mp))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} recordings to {GOLDEN}", file=sys.stderr)
