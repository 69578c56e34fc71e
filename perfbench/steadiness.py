"""Steadiness record: repeated runs of the benchmark, one process at a time.

    python3 perfbench/steadiness.py --seed0 3000
    python3 perfbench/steadiness.py --traced --seed0 3000

The first form runs every workload of ``BENCHMARK.json`` with its command,
``run_seconds`` and the seeds ``seed0 .. seed0 + RUNS - 1``: one set.  For
every end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(n=4)``) and the quartile spread as a share of the
median, next to the metric's bound.  Beside the calibrated median latency it
reports the raw one and the one calibrated with the workload's alternative
kernel, so that the calibration's effect and the kernel choice are measured.
With two or more sets of the same code, it reports by how much each later
set's medians are worse than the first set's, next to the bounds.

The second form runs each workload's traced run twice with the seed
``seed0``.  It checks that the counts agree, and that the gated per-layer
``*_ms`` metrics add up to the untraced time of the same operations times
(1 + their trace overhead), to within ``COVERAGE_TOL`` of that time.

Each form stores its runs in ``perfbench/STEADINESS.json`` and then writes
``perfbench/STEADINESS.md`` whole from that file.  The file keeps the sets
and the traced runs made with the current code (``code_sha256`` over the
benchmark's run-time files, ``BENCHMARK.json`` and ``src/obslat``) and drops
the others.  Run it from the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "perfbench" / "STEADINESS.json"
REPORT = ROOT / "perfbench" / "STEADINESS.md"
RUNS = 10
# Largest share of the untraced operation time that the gated per-layer
# metrics may miss once the trace overhead is accounted for.
COVERAGE_TOL = 0.01

COUNT_METRICS = ("lattice.build_calls", "stone.generator_calls",
                 "spectral.family_calls", "vn.null_space_calls",
                 "vn.eigen_calls", "vn.join_calls", "context.lookup_calls",
                 "vn.core_rounds", "vn.null_space_rows_max",
                 "context.pool_size", "context.lookup_hit_frac")
TRACE_FIGURES = ("bench.untraced_op_ms", "bench.traced_op_ms",
                 "bench.layer_sum_ms", "bench.other_frac", "bench.glue_frac",
                 "bench.trace_overhead")


def code_sha256() -> str:
    """Hash of what a run executes: the benchmark's files other than this
    script and its tests, ``BENCHMARK.json`` and the package."""
    here = ROOT / "perfbench"
    files = sorted(p for p in here.glob("*.py")
                   if p.name not in ("steadiness.py", "test_perfbench.py"))
    files += [ROOT / "BENCHMARK.json"]
    files += sorted((ROOT / "src" / "obslat").rglob("*.py"))
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(record, result) of one benchmark process."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.strip()]
    return lines[0]["record"], lines[-1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steadiness(spec: dict, seed0: int, code: str) -> dict:
    out: dict = {"seed0": seed0, "run_seconds": spec["run_seconds"],
                 "code_sha256": code, "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        rows = []
        for seed in range(seed0, seed0 + RUNS):
            t = time.perf_counter()
            rec, res = run_once(spec, w, seed, 0)
            b = rec["bench"]
            rows.append({"seed": seed, "wall_s": time.perf_counter() - t,
                         "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()},
                         "raw_op_p50_ms": b["raw_op_p50_ms"],
                         "raw_setup_s": b["raw_setup_s"],
                         "ref_ms": b["ref_ms"],
                         "alt_kernel": b["alt_kernel"],
                         "alt_op_p50_ms": b["alt_op_p50_ms"],
                         "ops_sha256": rec["ops_sha256"]})
            out["machine"] = rec["machine"]
            print(f"{w} seed {seed}: {rows[-1]['wall_s']:.1f} s, "
                  f"p50 {rows[-1]['metrics']['op_p50_ms']:.1f} ms "
                  f"(raw {b['raw_op_p50_ms']:.1f})", file=sys.stderr, flush=True)
        out["workloads"][w] = rows
    return out


def coverage_gap(m: dict) -> float:
    """Share of the untraced operation time by which the gated per-layer
    metrics fall short of, or exceed, that time times (1 + the same
    operations' trace overhead)."""
    return (m["bench.traced_op_ms"] - m["bench.layer_sum_ms"]) \
        / m["bench.untraced_op_ms"]


def traced_twice(spec: dict, seed: int, code: str) -> dict:
    out: dict = {"seed": seed, "run_seconds": spec["run_seconds"],
                 "code_sha256": code, "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        pair = []
        for _ in range(2):
            _, res = run_once(spec, w, seed, 1)
            m = {k: v["value"] for k, v in res["metrics"].items()}
            pair.append({"correct": res["correct"],
                         "counts": {k: m[k] for k in COUNT_METRICS},
                         "figures": {k: m[k] for k in TRACE_FIGURES}})
        out["workloads"][w] = pair
        print(f"{w}: {pair}", file=sys.stderr, flush=True)
    return out


def _prose(spec: dict, data: dict) -> list[str]:
    sets, tr = data.get("sets", []), data.get("traced")
    lines = ["# Steadiness record", "",
             "Written by `perfbench/steadiness.py` from `STEADINESS.json`, "
             "which holds every run's values."]
    if not sets:
        return lines
    m = sets[-1]["machine"]
    blas = m["blas"]
    threads = sorted({v for v in blas["env_threads"].values() if v})
    made = [f"`python3 perfbench/steadiness.py --seed0 {st['seed0']}`"
            for st in sets]
    if tr:
        made.append(f"`python3 perfbench/steadiness.py --traced --seed0 "
                    f"{tr['seed']}`")
    lines += ["", f"Made with {', '.join(made)}, with code "
              f"`{sets[-1]['code_sha256'][:12]}`.  "
              "Each run was its own process, one at a time.  "
              f"Machine: {m['machine']}, {m['cores']} cores "
              f"({m['usable_cores']} usable), Python {m['python']}, "
              f"numpy {m['numpy']}, BLAS {blas.get('name')} "
              f"{blas.get('version')} with thread variables set to "
              f"{', '.join(threads) or 'nothing'}.  `spread` is "
              "(q3 − q1) / median over the runs, with quartiles from "
              "`statistics.quantiles(values, n=4)`."]
    bounds = {x["name"]: x["bound"] for x in spec["end_to_end"]}
    for st in sets:
        over, beyond = [], []
        for w, rows in st["workloads"].items():
            for k, b in bounds.items():
                sp = spread([r["metrics"][k] for r in rows])[3]
                if sp > b and k != "setup_s":
                    beyond.append(f"`{w}` `{k}` at {sp:.3f} against {b}")
                if sp >= b / 3:
                    over.append(f"`{w}` `{k}` at {sp:.3f} against {b / 3:.3f}")
        raw = [spread([r["raw_op_p50_ms"] for r in rows])[3]
               for rows in st["workloads"].values()]
        cal = [spread([r["metrics"]["op_p50_ms"] for r in rows])[3]
               for rows in st["workloads"].values()]
        lines += ["", f"Set {st['seed0']}: " +
                  ("spreads beyond their bound: " + "; ".join(beyond) + "."
                   if beyond else "every end-to-end spread other than "
                   "`setup_s` is within its bound.") + "  " +
                  ("Spreads at or above a third of their bound: "
                   + "; ".join(over) + "." if over else
                   "Every spread is below a third of its bound.") +
                  f"  Raw `op_p50_ms` spread {min(raw):.3f}–{max(raw):.3f} "
                  f"across the workloads, calibrated {min(cal):.3f}–"
                  f"{max(cal):.3f}."]
    return lines


def _between_sets(spec: dict, sets: list[dict]) -> list[str]:
    """How much worse each later set's medians are than the first set's."""
    first = sets[0]
    lines = ["", "## Between sets", "",
             f"Medians of set {first['seed0']} against each later set.  "
             "`worse by` is the change in the direction the metric gets "
             "worse, as a share of the first median (0 when it got better).",
             "", "| workload | metric | " + " | ".join(
                 f"median {st['seed0']}" for st in sets)
             + " | worse by | bound | within |",
             "| -------- | ------ | " + " | ".join("---" for _ in sets)
             + " | -------- | ----- | ------ |"]
    for w in first["workloads"]:
        for metric in spec["end_to_end"]:
            k, b = metric["name"], metric["bound"]
            meds = [statistics.median(r["metrics"][k]
                                      for r in st["workloads"][w])
                    for st in sets]
            sign = 1 if metric["better"] == "lower" else -1
            worse = max(max(0.0, sign * (x - meds[0]) / meds[0])
                        for x in meds[1:])
            lines.append(f"| {w} | {k} | " + " | ".join(f"{x:.4g}" for x in meds)
                         + f" | {worse:.3f} | {b} | "
                         f"{'yes' if worse <= b else 'NO'} |")
    return lines


def _steadiness_tables(spec: dict, st: dict) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for w, rows in st["workloads"].items():
        alt = rows[0]["alt_kernel"]
        lines += ["", f"## {w}, set {st['seed0']}", "",
                  f"{len(rows)} runs, seeds {rows[0]['seed']}..{rows[-1]['seed']}, "
                  f"{st['run_seconds']} s each; correct in "
                  f"{sum(r['correct'] for r in rows)}/{len(rows)}, "
                  f"{min(r['attempted'] for r in rows)}.."
                  f"{max(r['attempted'] for r in rows)} timed operations, "
                  f"wall {min(r['wall_s'] for r in rows):.0f}.."
                  f"{max(r['wall_s'] for r in rows):.0f} s per run.", "",
                  "| metric | median | q1 | q3 | spread | bound | spread < bound/3 |",
                  "| ------ | ------ | -- | -- | ------ | ----- | ---------------- |"]
        series = {k: [r["metrics"][k] for r in rows] for k in bounds}
        series["raw op_p50_ms (uncalibrated)"] = [r["raw_op_p50_ms"] for r in rows]
        series[f"op_p50_ms with the `{alt}` kernel"] = [r["alt_op_p50_ms"]
                                                        for r in rows]
        series["raw setup_s (uncalibrated)"] = [r["raw_setup_s"] for r in rows]
        series["ref_ms (kernel)"] = [r["ref_ms"] for r in rows]
        for k, vals in series.items():
            med, q1, q3, sp = spread(vals)
            b = bounds.get(k)
            verdict = "" if b is None else ("yes" if sp < b / 3 else "NO")
            lines.append(f"| {k} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                         f"{sp:.3f} | {'' if b is None else b} | {verdict} |")
        lines += ["", "Per run, calibrated / raw / other-kernel op_p50_ms: "
                  + ", ".join(f"{r['metrics']['op_p50_ms']:.1f}/"
                              f"{r['raw_op_p50_ms']:.1f}/{r['alt_op_p50_ms']:.1f}"
                              for r in rows)]
    return lines


def _traced_table(tr: dict, st: dict | None) -> list[str]:
    lines = ["", "## Traced runs, twice per workload with one seed", "",
             f"Seed {tr['seed']}, {tr['run_seconds']} s each.  Per-layer "
             "figures are means over the traced operations; "
             "`untraced` is the same operations run untraced, and "
             "`p50` the median `op_p50_ms` of the last ten-seed set.  "
             "`gap` is (traced − layer sum) / untraced: the share of the "
             "untraced operation time that the gated per-layer metrics miss "
             "once the trace overhead of the same operations is counted.  The "
             f"check passes when the counts agree and `gap` ≤ {COVERAGE_TOL}.",
             "",
             "| workload | run | counts equal | untraced ms | p50 ms | traced ms | "
             "layer sum ms | other_frac | glue_frac | trace_overhead | gap | check |",
             "| -------- | --- | ------------ | ----------- | ------ | --------- | "
             "------------ | ---------- | --------- | -------------- | --- | ----- |"]
    for w, pair in tr["workloads"].items():
        equal = pair[0]["counts"] == pair[1]["counts"]
        p50 = (statistics.median(r["metrics"]["op_p50_ms"]
                                 for r in st["workloads"][w])
               if st and w in st["workloads"] else float("nan"))
        for i, run in enumerate(pair, 1):
            f = run["figures"]
            gap = coverage_gap(f)
            ok = equal and run["correct"] and abs(gap) <= COVERAGE_TOL
            lines.append(
                f"| {w} | {i} | {equal} | {f['bench.untraced_op_ms']:.1f} | "
                f"{p50:.1f} | {f['bench.traced_op_ms']:.1f} | "
                f"{f['bench.layer_sum_ms']:.1f} | {f['bench.other_frac']:.4f} | "
                f"{f['bench.glue_frac']:.4f} | "
                f"{f['bench.trace_overhead']:.3f} | {gap:.4f} | "
                f"{'pass' if ok else 'FAIL'} |")
    lines += ["", "Counts of the first run per workload:", ""]
    for w, pair in tr["workloads"].items():
        lines.append(f"- `{w}`: " + ", ".join(
            f"{k} {v:g}" for k, v in pair[0]["counts"].items() if v))
    return lines


def render(spec: dict, data: dict) -> str:
    sets = data.get("sets", [])
    lines = _prose(spec, data)
    if len(sets) > 1:
        lines += _between_sets(spec, sets)
    for st in sets:
        lines += _steadiness_tables(spec, st)
    if data.get("traced"):
        lines += _traced_table(data["traced"], sets[-1] if sets else None)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed0", type=int, default=100)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code = code_sha256()
    data = json.loads(DATA.read_text()) if DATA.is_file() else {}
    sets = [st for st in data.get("sets", []) if st["code_sha256"] == code]
    traced = data.get("traced")
    if traced and traced["code_sha256"] != code:
        traced = None
    if args.traced:
        traced = traced_twice(spec, args.seed0, code)
    else:
        sets = [st for st in sets if st["seed0"] != args.seed0]
        sets.append(steadiness(spec, args.seed0, code))
    data = {"sets": sets, "traced": traced}
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    REPORT.write_text(render(spec, data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
