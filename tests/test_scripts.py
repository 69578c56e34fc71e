"""Smoke tests for the worked-example scripts under scripts/, and the
behaviour sweep against its recording."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    pool labels, the reports of an operator's section and a 0/1 section
    with the family of each extendable one's operator, the spectral meet
    and join of two operators, and the linear dimension of two algebras
    with rho and sigma onto each and the core and support of a projection
    in each, and the atomic values of the second operator at the standard
    basis and the all-ones vector, byte for byte.  Regenerate the
    recording after a deliberate change of behaviour with
    ``PYTHONPATH=src python3 scripts/sweep.py 0 60 > tests/sweep_slice.jsonl``.
    Most lines restrict to a step strictly between 0 and I, onto C0 alone
    too, and most meet
    and join families have such a step, and many cores and supports lie
    strictly between 0, q and I, so the recording pins steps that are
    neither.  On diagonal lines most standard basis vectors are
    eigenvectors of the second operator, so their atomic values vary."""
    recorded = (ROOT / "tests" / "sweep_slice.jsonl").read_text()
    assert run_script("sweep.py", 0, 60) == recorded
    lines = [json.loads(line) for line in recorded.splitlines()]

    def between(d, fam):
        return any(0 < r < d["dim"] for r in fam.get("ranks", ()))

    assert sum(any(between(d, algebra[name])
                   for algebra in d["restricted"].values()
                   for name in ("rho", "sigma")) for d in lines) >= 40
    # C0, one generator's eigenblocks, is the algebra whose atoms rho reads
    assert sum(any(between(d, d["restricted"]["C0"][name])
                   for name in ("rho", "sigma")) for d in lines) >= 35
    assert sum(between(d, d[name]) for d in lines
               for name in ("meet", "join")) >= 60

    def strict(d, h):
        return 0 < h["core"] < h["q"] or h["q"] < h["support"] < d["dim"]

    assert sum(strict(d, algebra["hulls"]) for d in lines
               for algebra in d["restricted"].values()) >= 50
    assert sum(len(set(d["atomic"])) >= 2 for d in lines) >= 12


def test_sweep_compare_finds_head_and_the_tree_alike():
    """``scripts/sweep_compare.py`` runs the tree's sweep against HEAD's
    ``src`` and the tree's own; behaviour changes are committed with their
    recording, so the two agree."""
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("needs a git checkout with a commit")
    out = run_script("sweep_compare.py", "HEAD", ".", 0, 3)
    assert out == "HEAD and . agree on all 3 lines of sweep.py 0 3\n"


def test_sweep_compare_reports_the_first_differing_line():
    spec = importlib.util.spec_from_file_location(
        "sweep_compare", ROOT / "scripts" / "sweep_compare.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    assert compare.first_difference(["a", "b"], ["a", "b"]) is None
    assert compare.first_difference(["a", "b", "c"], ["a", "x", "y"]) == 1
    assert compare.first_difference(["a"], ["a", "b"]) == 1
