"""Benchmark of the obslat package: one workload per process.

    python3 perfbench/run.py --workload stone-checks --seed 1 --seconds 20 --trace 0

Imports the package from ``src/`` next to this directory; without it, exits
with a non-zero code and prints no result.  Builds the workload's inputs from
the seed, times the set-up several times and runs one untimed warm-up
operation.  Then runs operations one at a time, each between two runs of the
reference kernel the workload names (see ``calib.py``), until ``--seconds``
have passed and at least ``bench.MIN_TIMED_OPS`` operations were timed.
Every result is checked by the workload's oracle outside the timed region.

Standard output: one ``{"record": ...}`` line with the machine, the raw
(uncalibrated) figures, the median calibrated with the other kernel and a
hash of the operations run, with ``--trace 1``
a ``{"trace": ...}`` line, and last the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs of the
same operations and reports the per-layer metrics of the first
``bench.TRACED_OPS`` traced operations, writing their spans to
``.perfbench/trace-<workload>-<seed>.json`` under the current directory.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy is first imported: each workload is a
# single caller on a 2-core shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package():
    if not (SRC / "obslat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'obslat'}; run from a "
                 f"checkout that has src/obslat")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import obslat
    if Path(obslat.__file__).resolve().parent != (SRC / "obslat").resolve():
        sys.exit(f"perfbench: imported obslat from {obslat.__file__}, "
                 f"not from {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_package()
    import bench
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    if args.trace:
        out = bench.run_traced(WORKLOADS[args.workload], args.seed,
                               args.seconds, Path(".perfbench"))
    else:
        out = bench.run_timed(WORKLOADS[args.workload], args.seed,
                              args.seconds)
    for line in out:
        print(bench.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
