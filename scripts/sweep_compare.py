#!/usr/bin/env python3
"""Compare the behaviour sweep of two revisions of the package: run this
tree's ``scripts/sweep.py`` once against each revision's ``src`` and report
the first line that differs.

    python3 scripts/sweep_compare.py REV_A REV_B SEED COUNT

A revision is anything ``git archive`` takes (a commit, branch or tag);
``.`` is the working tree.  A committed revision's ``src`` is exported into
a temporary directory, so the repository itself is left as it was.  Exits
0 when the two sweeps agree line for line, and 1 at the first difference,
which it prints with both versions.
"""
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sweep(src: Path, seed: str, count: str) -> list[str]:
    """The sweep's lines with ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep.py"), seed, count],
        env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def revision_sweep(rev: str, seed: str, count: str) -> list[str]:
    if rev == ".":
        return sweep(ROOT / "src", seed, count)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
            capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        return sweep(Path(tmp) / "src", seed, count)


def first_difference(a: list[str], b: list[str]) -> int | None:
    """Index of the first line where a and b differ, a missing line
    included; None when they are equal."""
    for k, (x, y) in enumerate(itertools.zip_longest(a, b)):
        if x != y:
            return k
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev_a, rev_b, seed, count = argv
    a = revision_sweep(rev_a, seed, count)
    b = revision_sweep(rev_b, seed, count)
    k = first_difference(a, b)
    if k is None:
        print(f"{rev_a} and {rev_b} agree on all {len(a)} lines of "
              f"sweep.py {seed} {count}")
        return 0
    print(f"line {k + 1} of sweep.py {seed} {count} differs")
    for rev, lines in ((rev_a, a), (rev_b, b)):
        print(f"{rev}: {lines[k] if k < len(lines) else '(no line)'}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
