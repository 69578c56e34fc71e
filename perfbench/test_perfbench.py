"""Tests of the benchmark itself: oracles, tracing, inputs, metric names.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench                                     # noqa: E402
from tracing import Tracer, summarize            # noqa: E402
from workloads import WORKLOADS                  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def states():
    return {name: wl.setup(wl.setup_inputs(SEED))
            for name, wl in WORKLOADS.items()}


def _run(states, name: str, index: int = 1):
    wl = WORKLOADS[name]
    state = states[name]
    op = wl.make_op(state, SEED, index)
    return wl, state, op, wl.run(state, op)


def _ok_frac(wl, state, cases) -> float:
    return sum(bool(wl.check(state, op, res)) for op, res in cases) / len(cases)


def _corrupt_stone(res):
    ok, _ = res["intersection"]
    res["intersection"] = (not ok, None)


def _corrupt_lattice(res):
    res["ideals"] = res["ideals"][1:]


def _corrupt_matrix(res):
    rho, sigma, core = res["restricted"][2]
    res["restricted"][2] = (rho, sigma, core + 1e-3 * np.eye(core.shape[0]))


def _corrupt_glue(res):
    rep = res["glue"]
    res["glue"] = dataclasses.replace(rep, operator=rep.operator
                                      + 0.5 * np.diag([1.0, 0, 0, 0]))


CORRUPT = {"stone-checks": _corrupt_stone, "lattice-build": _corrupt_lattice,
           "matrix-restrict": _corrupt_matrix, "context-glue": _corrupt_glue}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_results_and_rejects_one_corrupted(states, name):
    wl, state, op, res = _run(states, name, 1)
    _, _, op2, res2 = _run(states, name, 2)
    assert wl.check_setup(state)
    assert _ok_frac(wl, state, [(op, res), (op2, res2)]) == 1.0
    CORRUPT[name](res2)
    assert _ok_frac(wl, state, [(op, res), (op2, res2)]) == 0.5


def test_stone_oracle_rejects_a_wrong_reconstruction(states):
    wl, state, op, res = _run(states, "stone-checks", 4)
    assert wl.check(state, op, res)
    lat = state["lattices"][op[0]]
    res["rebuilt"] = dataclasses.replace(
        res["rebuilt"], breakpoints=((-9.0, lat.one),))
    assert not wl.check(state, op, res)


def test_matrix_oracle_rejects_a_bad_synthesis(states):
    wl, state, op, res = _run(states, "matrix-restrict", 1)
    res["synthesis"] = res["synthesis"] + 1e-6
    assert not wl.check(state, op, res)


def test_glue_oracle_rejects_an_undetermined_verdict(states):
    wl, state, op, res = _run(states, "context-glue", 3)
    res["glue"] = dataclasses.replace(res["glue"], extendable="undetermined")
    assert not wl.check(state, op, res)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_seed_and_index_only(states, name):
    wl, state = WORKLOADS[name], states[name]

    def digest(seed, indices):
        h = hashlib.sha256()
        for i in indices:
            bench._feed(h, wl.make_op(state, seed, i))
        return h.hexdigest()

    assert digest(SEED, [1, 2, 3]) == digest(SEED, [1, 2, 3])
    assert digest(SEED, [3]) == digest(SEED, [3])
    assert digest(SEED, [1, 2, 3]) != digest(SEED + 1, [1, 2, 3])


def _traced(wl, state, op):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(bench.ROOT):
            res = wl.run(state, op)
    finally:
        tracer.uninstall()
    return res, summarize(tracer.take(), tracer.names), tracer


def test_traced_counts_repeat(states):
    wl, state = WORKLOADS["matrix-restrict"], states["matrix-restrict"]
    op = wl.make_op(state, SEED, 1)
    runs = [_traced(wl, state, op) for _ in range(2)]
    calls = [{k: v["calls"] for k, v in s["by_name"].items()} for _, s, _ in runs]
    assert calls[0] == calls[1]
    assert calls[0]["vn.null_space"] > 0 and calls[0]["vn.subalgebra"] == 4
    res, summary, tracer = runs[0]
    assert wl.check(state, op, res)
    assert summary["core_rounds"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gated_layer_groups_cover_the_traced_op(states, name):
    # the per-operation groups, without <module>.other and the benchmark's
    # own root self time, must cover the traced operation
    wl, state = WORKLOADS[name], states[name]
    _, summary, _ = _traced(wl, state, wl.make_op(state, SEED, 1))
    root = summary["by_name"][bench.ROOT]["total_ms"]
    gated = sum(summary["by_group"].get(g, 0.0) for g in bench.OP_GROUPS)
    assert gated <= root
    assert gated >= 0.99 * root


def test_uninstall_restores_the_package():
    import obslat
    from obslat import context, stone, vn

    def targets():
        return (vn.null_space, context.projection_join, obslat.glue_section,
                stone.DualIdeal.__dict__["generator"],
                context.ContextDiagram.__dict__["pool_index_of"])

    before = targets()
    tracer = Tracer()
    tracer.install()
    assert not any(a is b for a, b in zip(before, targets()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, targets()))


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stone-checks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
