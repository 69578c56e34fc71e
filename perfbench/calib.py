"""Machine-speed reference kernels, calibration and the machine record.

The core this benchmark runs on changes speed by up to 2x between and within
processes, with CPU time equal to wall time, so raw wall-clock medians of the
same seeded work drift by tens of percent.  Every timed interval is therefore
paired with a reference kernel run right next to it, and reported as
``raw * nominal / ref``: the time the interval would have taken on a core
that runs the kernel in its fixed nominal time.

The speed phases do not slow all work alike: in one process an
interpreted loop ran about 1.7x slower in slow phases than in fast ones,
while a full-U SVD of a tall matrix ran about 1.1x slower.  So there are
three kernels, and each workload names, for its operations and for its
set-up, the one that matches the work its traced run shows dominating:

- ``interp``: an interpreted loop of calls, tuple indexing, dict lookups and
  small-integer arithmetic (about 4 ms), plus about 1.5 ms of 6x6 complex
  ``numpy.linalg.svd``.  For the lattice-side workloads.
- ``numpy``: many small numpy calls on 4x4 complex matrices (product, SVD,
  ``allclose``, a reduction), about 4 ms.  For the glue scan, whose time is
  thousands of small joins and pool lookups.
- ``lapack``: one full-U SVD of a 300x30 complex matrix (about 4 ms).  For
  ``matrix-restrict``, whose time is nine tenths large ``null_space`` SVDs,
  and for the set-up of ``context-glue``, whose diagram closure is about
  seven tenths ``null_space``.

All three run with the garbage collector off and keep nothing they
allocate, so the program's heap cannot slow them.
"""
from __future__ import annotations

import gc
import os
import platform
import sys
import time

import numpy as np

_PY_ITERS = 12_000
_SVD_REPS = 50
_TABLE = {k: (k * 7) % 13 for k in range(32)}
_STEPS = tuple(range(17))
_SVD_INPUT = (np.arange(36, dtype=float).reshape(6, 6) % 7
              + 1j * (np.arange(36, dtype=float).reshape(6, 6) % 5)) / 7.0
_SMALL_A = (np.arange(16, dtype=float).reshape(4, 4) % 5
            + 1j * (np.arange(16, dtype=float).reshape(4, 4) % 3))
_SMALL_B = _SMALL_A.T.copy()
_SMALL_V = np.arange(8, dtype=float)
_SMALL_REPS = 60
_TALL_INPUT = np.cos(np.arange(9000, dtype=float).reshape(300, 30)) \
    + 1j * np.sin(np.arange(9000, dtype=float).reshape(300, 30) / 7.0)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def _interp() -> None:
    acc = 0
    table, steps = _TABLE, _STEPS
    for i in range(_PY_ITERS):
        acc = _mix(acc, steps[i % 17] + table.get(i & 31, 0))
    for _ in range(_SVD_REPS):
        np.linalg.svd(_SVD_INPUT)
    if acc < 0:                      # keeps the loop's result live
        raise AssertionError(acc)


def _numpy() -> None:
    a, b, v = _SMALL_A, _SMALL_B, _SMALL_V
    for _ in range(_SMALL_REPS):
        np.allclose(a, b, atol=1e-9)
        np.linalg.svd(a @ b)
        np.abs(v - 1.0).max()


def _lapack() -> None:
    np.linalg.svd(_TALL_INPUT, full_matrices=True)


# kind -> (kernel, nominal ms).  The nominal times are fixed once for the
# benchmark, never re-measured per run: changing one rescales every time
# calibrated with it and so redefines the benchmark.
KERNELS = {"interp": (_interp, 5.5), "numpy": (_numpy, 4.5),
           "lapack": (_lapack, 4.0)}


def reference_ms(kind: str) -> float:
    """One run of the named reference kernel, in milliseconds."""
    kernel = KERNELS[kind][0]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
    finally:
        if was_enabled:
            gc.enable()
    return (t1 - t0) / 1e6


def scale(kind: str, ref_before_ms: float, ref_after_ms: float) -> float:
    """Factor that calibrates a duration timed between two kernel runs."""
    return KERNELS[kind][1] / ((ref_before_ms + ref_after_ms) / 2.0)


def _blas_info() -> dict:
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["name"] = deps["blas"].get("name")
        info["version"] = deps["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        pass
    info["env_threads"] = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    return info


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def machine_record() -> dict:
    """Cores, interpreter, numpy and BLAS versions and BLAS thread setting."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"cores": os.cpu_count(), "usable_cores": usable,
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "numpy": np.__version__, "blas": _blas_info(),
            "machine": platform.machine(),
            "ref_nominal_ms": {k: v[1] for k, v in KERNELS.items()}}
