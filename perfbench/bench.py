"""Timed and traced runs of one workload; the metrics they report."""
from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from calib import machine_record, reference_ms, scale
from tracing import (CALL_COUNTS, GROUPS, ROOT, SETUP_GROUPS, Tracer,
                     summarize)

MIN_TIMED_OPS = 100          # so that ten samples lie beyond the p90
SETUP_MIN_REPEATS = 7        # set-up runs at least this often ...
SETUP_MIN_S = 3.0            # ... and until this much raw set-up time
SETUP_MAX_REPEATS = 40
TRACED_OPS = 6               # traced prefix the per-layer metrics cover
HARD_LIMIT_S = 120.0         # the loop stops here even below MIN_TIMED_OPS

# Groups reported per operation; the diagram closure is set-up only.
OP_GROUPS = tuple(g for g in GROUPS if g != "context.diagram")

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "frac"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{g}_ms": "ms" for g in OP_GROUPS}
    units.update({name: "count" for name in CALL_COUNTS})
    units.update({"vn.null_space_rows_max": "count", "vn.svd_u_mb": "MB",
                  "vn.core_rounds": "count", "context.pool_size": "count",
                  "context.lookup_hit_frac": "frac",
                  "context.diagram_ms": "ms"})
    units.update({f"setup.{g}_ms": "ms" for g in SETUP_GROUPS
                  if g != "context.diagram"})
    units.update({"bench.ref_ms": "ms", "bench.raw_op_p50_ms": "ms",
                  "bench.raw_setup_s": "s", "bench.trace_overhead": "frac",
                  "bench.traced_op_ms": "ms", "bench.glue_frac": "frac",
                  "bench.untraced_op_ms": "ms", "bench.layer_sum_ms": "ms",
                  "bench.other_frac": "frac"})
    return units


def dumps(obj) -> str:
    return json.dumps(obj, allow_nan=False, separators=(",", ":"))


def _feed(h, obj) -> None:
    """Hash an operation's inputs: type tags, numbers by repr, arrays by
    shape, dtype and bytes."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.shape}{obj.dtype}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"({len(obj)}".encode())
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, (str, int, float, np.integer, np.floating)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    else:
        raise TypeError(f"cannot hash operation input {type(obj).__name__}")


def _safe_check(wl, state, op, res) -> bool:
    try:
        return bool(wl.check(state, op, res))
    except Exception:            # a malformed result fails its oracle
        return False


class Run:
    """State shared by the timed and traced loops of one process."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.refs: list[float] = []
        self.alt_refs: list[float] = []
        self.digest = hashlib.sha256()
        self.failures: list[str] = []

    def ref(self, kind: str | None = None) -> float:
        r = reference_ms(kind or self.wl.reference)
        if kind is None:
            self.refs.append(r)
        return r

    def setup(self):
        """Time repeated set-ups (see SETUP_MIN_*); keep the last state."""
        raw, cal = [], []
        state = None
        while len(raw) < SETUP_MAX_REPEATS and (
                len(raw) < SETUP_MIN_REPEATS or sum(raw) < SETUP_MIN_S):
            inputs = self.wl.setup_inputs(self.seed)
            state = None
            gc.collect()
            kind = self.wl.setup_reference
            r0 = self.ref(kind)
            t0 = time.perf_counter()
            state = self.wl.setup(inputs)
            t1 = time.perf_counter()
            r1 = self.ref(kind)
            raw.append(t1 - t0)
            cal.append((t1 - t0) * scale(kind, r0, r1))
        self.setup_raw, self.setup_cal = raw, cal
        self.setup_ok = bool(self.wl.check_setup(state))
        if not self.setup_ok:
            self.failures.append("setup oracle")
        return state

    def op(self, state, index: int):
        op = self.wl.make_op(state, self.seed, index)
        _feed(self.digest, op)
        return op

    def timed(self, state, op, tracer: Tracer | None = None):
        """(result or None, raw ms, calibrated ms, spans or None,
        calibration factor, ms calibrated with the workload's alternative
        kernel).  The alternative runs outside the chosen kernel, so the
        chosen one stays next to the operation."""
        if tracer is not None:
            tracer.install()
        alt = self.wl.alt_reference
        a0 = self.ref(alt)
        r0 = self.ref()
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                res = self.wl.run(state, op)
            else:
                with tracer.span(ROOT):
                    res = self.wl.run(state, op)
        except Exception as exc:
            res = None
            self.failures.append(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter_ns()
        r1 = self.ref()
        a1 = self.ref(alt)
        self.alt_refs += [a0, a1]
        spans = None
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.take()
        raw = (t1 - t0) / 1e6
        k = scale(self.wl.reference, r0, r1)
        return res, raw, raw * k, spans, k, raw * scale(alt, a0, a1)

    def warm_up(self, state) -> bool:
        op = self.wl.make_op(state, self.seed, 0)
        res = self.wl.run(state, op)
        ok = _safe_check(self.wl, state, op, res)
        if not ok:
            self.failures.append("warm-up oracle")
        gc.collect()
        return ok

    def record(self, **extra) -> dict:
        return {"record": {
            "workload": self.wl.name, "seed": self.seed,
            "machine": machine_record(),
            "ops_sha256": self.digest.hexdigest(),
            "setup_raw_s": self.setup_raw, "setup_cal_s": self.setup_cal,
            "ref_ms_median": statistics.median(self.refs),
            "ref_ms_min": min(self.refs), "ref_ms_max": max(self.refs),
            "failures": self.failures[:5], **extra}}


def _e2e(cal_ms, setup_cal, ok, attempted) -> dict:
    values = {
        "ops_per_s": len(cal_ms) / (sum(cal_ms) / 1000.0),
        "op_p50_ms": statistics.median(cal_ms),
        "op_p90_ms": statistics.quantiles(cal_ms, n=10)[8],
        "setup_s": statistics.median(setup_cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def run_timed(wl, seed: int, seconds: float) -> list[dict]:
    run = Run(wl, seed)
    state = run.setup()
    warm_ok = run.warm_up(state)
    raw_ms, cal_ms, alt_ms = [], [], []
    ok = attempted = 0
    start = time.perf_counter()
    index = 1
    while True:
        op = run.op(state, index)
        res, raw, cal, _, _, alt = run.timed(state, op)
        attempted += 1
        if res is not None:
            raw_ms.append(raw)
            cal_ms.append(cal)
            alt_ms.append(alt)
            ok += _safe_check(wl, state, op, res)
        index += 1
        elapsed = time.perf_counter() - start
        if ((elapsed >= seconds and attempted >= MIN_TIMED_OPS)
                or elapsed >= HARD_LIMIT_S):
            break
    if len(cal_ms) < 2:
        raise SystemExit(f"perfbench: only {len(cal_ms)} operations succeeded")
    record = run.record(timed_ops=attempted, loop_s=elapsed, bench={
        "raw_op_p50_ms": statistics.median(raw_ms),
        "raw_op_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
        "raw_setup_s": statistics.median(run.setup_raw),
        "ref_ms": statistics.median(run.refs),
        "alt_kernel": wl.alt_reference,
        "alt_op_p50_ms": statistics.median(alt_ms),
        "alt_ref_ms": statistics.median(run.alt_refs)})
    failed = attempted - ok
    result = {"correct": run.setup_ok and warm_ok and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": _e2e(cal_ms, run.setup_cal, ok, attempted)}
    return [record, result]


def run_traced(wl, seed: int, seconds: float, outdir: Path) -> list[dict]:
    """Untraced and traced runs of each operation in turn; per-layer metrics
    from the first TRACED_OPS traced ones."""
    run = Run(wl, seed)
    state = run.setup()
    tracer = Tracer()
    inputs = wl.setup_inputs(seed)
    gc.collect()
    tracer.install()
    r0 = run.ref(wl.setup_reference)
    with tracer.span(ROOT):
        wl.setup(inputs)
    r1 = run.ref(wl.setup_reference)
    tracer.uninstall()
    setup_spans = tracer.take()
    setup_scale = scale(wl.setup_reference, r0, r1)

    warm_ok = run.warm_up(state)
    plain_cal, plain_raw, traced_cal = [], [], []
    kept: list[tuple[list, float, float]] = []  # (spans, scale, untraced ms)
    ok = attempted = 0
    start = time.perf_counter()
    index = 1
    while True:
        op = run.op(state, index)
        plain, raw, cal, _, _, _ = run.timed(state, op)
        attempted += 1
        if plain is not None:
            plain_raw.append(raw)
            plain_cal.append(cal)
            ok += _safe_check(wl, state, op, plain)
        res, _, traced, spans, k, _ = run.timed(state, op, tracer)
        attempted += 1
        if res is not None:
            traced_cal.append(traced)
            ok += _safe_check(wl, state, op, res)
            if plain is not None and len(kept) < TRACED_OPS:
                kept.append((spans, k, cal))
        index += 1
        elapsed = time.perf_counter() - start
        if ((elapsed >= seconds and len(kept) >= TRACED_OPS)
                or elapsed >= HARD_LIMIT_S):
            break
    if not kept or not plain_cal:
        raise SystemExit("perfbench: no traced operation succeeded")

    names = tracer.names
    setup_sum = summarize(setup_spans, names)
    op_sums = [summarize(spans, names) for spans, _, _ in kept]
    metrics = _layer_metrics(kept, op_sums, setup_sum, setup_scale)
    metrics["bench.ref_ms"] = statistics.median(run.refs)
    metrics["bench.raw_op_p50_ms"] = statistics.median(plain_raw)
    metrics["bench.raw_setup_s"] = statistics.median(run.setup_raw)
    metrics["bench.trace_overhead"] = (statistics.median(traced_cal)
                                       / statistics.median(plain_cal) - 1.0)
    units = per_layer_units()
    if set(metrics) != set(units):
        raise AssertionError(sorted(set(metrics) ^ set(units)))

    outdir.mkdir(parents=True, exist_ok=True)
    span_file = outdir / f"trace-{wl.name}-{seed}.json"
    with open(span_file, "w", encoding="utf-8") as fh:
        fh.write(dumps({"names": names,
                        "fields": ["name", "parent", "start_ns", "end_ns",
                                   "extra"],
                        "setup": setup_spans,
                        "ops": [spans for spans, _, _ in kept]}))
    trace_line = {"trace": {
        "spans_file": str(span_file), "traced_ops": len(kept),
        "pairs": len(plain_cal),
        "setup": _rounded(setup_sum["by_group"]),
        "ops": [{"index": j + 1, "by_group_ms": _rounded(s["by_group"]),
                 "self_sum_ms": round(sum(s["by_group"].values()), 4)}
                for j, s in enumerate(op_sums)],
        "by_name": _merge_by_name(op_sums)}}
    failed = attempted - ok
    result = {"correct": run.setup_ok and warm_ok and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in sorted(metrics.items())}}
    return [run.record(timed_ops=attempted, loop_s=elapsed), trace_line, result]


def _rounded(d: dict) -> dict:
    return {k: round(v, 4) for k, v in sorted(d.items())}


def _merge_by_name(sums: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for s in sums:
        for name, row in s["by_name"].items():
            acc = out.setdefault(name, {"calls": 0, "self_ms": 0.0,
                                        "total_ms": 0.0})
            for k in acc:
                acc[k] += row[k]
    return {k: {"calls": v["calls"], "self_ms": round(v["self_ms"], 4),
                "total_ms": round(v["total_ms"], 4)}
            for k, v in sorted(out.items())}


def _layer_metrics(kept, op_sums, setup_sum, setup_scale):
    n = len(op_sums)
    scales = [k for _, k, _ in kept]
    m: dict[str, float] = {}
    for g in OP_GROUPS:
        m[f"{g}_ms"] = sum(s["by_group"].get(g, 0.0) * k
                           for s, k in zip(op_sums, scales)) / n
    for metric, name in CALL_COUNTS.items():
        m[metric] = sum(s["by_name"].get(name, {}).get("calls", 0)
                        for s in op_sums) / n
    rows = max(s["null_space_rows_max"] for s in op_sums)
    m["vn.null_space_rows_max"] = rows
    m["vn.svd_u_mb"] = rows * rows * 16 / 1e6
    m["vn.core_rounds"] = sum(s["core_rounds"] for s in op_sums) / n
    m["context.pool_size"] = max(s["pool_size"] for s in op_sums)
    lookups = sum(s["lookup_calls"] for s in op_sums)
    m["context.lookup_hit_frac"] = (sum(s["lookup_hits"] for s in op_sums)
                                    / lookups if lookups else 0.0)
    for g in SETUP_GROUPS:
        key = "context.diagram_ms" if g == "context.diagram" else f"setup.{g}_ms"
        m[key] = setup_sum["by_group"].get(g, 0.0) * setup_scale
    traced = [(spans[0][3] - spans[0][2]) / 1e6 * k for spans, k, _ in kept]
    m["bench.traced_op_ms"] = sum(traced) / n
    m["bench.untraced_op_ms"] = sum(u for _, _, u in kept) / n
    m["bench.layer_sum_ms"] = sum(m[f"{g}_ms"] for g in OP_GROUPS)

    def share(pick) -> float:
        return sum(sum(v for g, v in s["by_group"].items() if pick(g)) * k
                   for s, k in zip(op_sums, scales)) / sum(traced)
    m["bench.glue_frac"] = share(lambda g: g == "bench.glue")
    m["bench.other_frac"] = share(lambda g: g.endswith(".other"))
    return m
