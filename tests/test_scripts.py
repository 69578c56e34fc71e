"""Smoke tests for the worked-example scripts under scripts/, and the
behaviour sweep against its recording."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def test_make_corpus_reproduces_the_checked_in_corpus(tmp_path):
    run_script("make_corpus.py", tmp_path)
    corpus = ROOT / "corpus"
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(p.name for p in corpus.iterdir())
    for name in made:
        assert (tmp_path / name).read_bytes() == (corpus / name).read_bytes(), \
            name


def test_nonlinearity_demo_reports_rho_is_not_additive():
    assert "additive: False" in run_script("nonlinearity_demo.py").splitlines()


def test_sweep_matches_the_recording():
    """The first 60 diagrams of ``scripts/sweep.py`` with seed 0: contexts,
    pool labels, and the reports of an operator's section and a 0/1
    section, byte for byte.  Regenerate the recording after a deliberate
    change of behaviour with
    ``PYTHONPATH=src python3 scripts/sweep.py 0 60 > tests/sweep_slice.jsonl``."""
    recorded = (ROOT / "tests" / "sweep_slice.jsonl").read_text()
    assert run_script("sweep.py", 0, 60) == recorded
