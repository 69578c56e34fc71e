"""Single command line entry point with one subcommand group per module.

Each ``cmd_*`` handler takes the parsed arguments and returns its report,
(exit code, JSON payload, text lines); ``main`` prints it.

Exit codes: 0 success, 1 failed check (the witness is printed as JSON) or
stdout closed before the output was written, 2 bad input (unknown files,
malformed data, violated preconditions, caps, an option the subcommand does
not take).
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np

from . import acceptance, classical, observables, spectral, stone, vn
from . import jsonio
from . import presheaf as presheaf_mod
from .context import glue_section, section_from_operator
from .errors import CheckFailure, InputError, ObslatError, PreconditionError
from .vn import TOL, Tolerances

Report = tuple[int, dict, list[str]]


def _parse_tol(pairs) -> Tolerances:
    if not pairs:
        return TOL
    allowed = {f.name for f in dc_fields(Tolerances)}
    overrides = {}
    for item in pairs:
        if "=" not in item:
            raise InputError("tolerance overrides look like KEY=VALUE",
                             witness=item)
        key, _, val = item.partition("=")
        if key not in allowed:
            raise InputError("unknown tolerance key",
                             witness={"key": key, "known": sorted(allowed)})
        try:
            x = float(val)
        except ValueError:
            x = math.nan
        if not 0 <= x < math.inf:
            raise InputError("a tolerance is a finite nonnegative number",
                             witness={"key": key, "value": val})
        overrides[key] = x
    return TOL.scaled(**overrides)


def _cap(args, default: int) -> int:
    if args.cap is None:
        return default
    if args.cap <= 0:
        raise InputError("--cap must be a positive integer", witness=args.cap)
    return args.cap


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    sys.stdout.flush()      # a closed stdout raises here, inside main


def _b(flag: bool) -> str:
    return "true" if flag else "false"


def _fmt_val(v: float) -> str:
    return f"{v:g}"


def _verdict(label: str, ok: bool, witness) -> str:
    """`label:true`, or `label:false witness:{...}`."""
    return f"{label}:{_b(ok)}" + (
        "" if ok else f" witness:{json.dumps(witness, sort_keys=True)}")


def _write_dot(args, text: str, lines: list[str]) -> None:
    if args.dot:
        Path(args.dot).write_text(text, encoding="utf-8")
        lines.append(f"dot written to {args.dot}")


def _write_out(args, data, lines: list[str]) -> None:
    if args.out:
        jsonio.save_json(args.out, data)
        lines.append(f"written to {args.out}")


def _family_report(args, fam) -> Report:
    """A family's breakpoints, also written to --out if given."""
    pairs = fam.to_pairs()
    lines = [f"{_fmt_val(lam)}: {name}" for lam, name in pairs]
    _write_out(args, jsonio.family_to_json(fam), lines)
    return 0, {"breakpoints": pairs, "top": fam.lattice.names[fam.top]}, lines


# -- lattice ------------------------------------------------------------------------

def cmd_lattice_check(args) -> Report:
    lat = jsonio.load_lattice(args.input)
    dist, dist_w = lat.is_distributive()
    if lat.ortho is not None:
        omod, omod_w = lat.is_orthomodular()
        boolean = lat.is_boolean()
    else:
        omod, omod_w, boolean = None, None, False
    atomistic = lat.is_atomistic()
    payload = {"elements": lat.n, "distributive": dist,
               "distributive_witness": list(dist_w) if dist_w else None,
               "orthomodular": omod,
               "orthomodular_witness": list(omod_w) if omod_w else None,
               "boolean": boolean, "atomistic": atomistic}
    lines = [f"elements:{lat.n}",
             f"distributive:{_b(dist)}"
             + (f" witness:{','.join(dist_w)}" if dist_w else ""),
             "orthomodular:" + ("n/a" if omod is None else _b(omod))
             + (f" witness:{','.join(omod_w)}" if omod_w else ""),
             f"boolean:{_b(boolean)}",
             f"atomistic:{_b(atomistic)}"]
    _write_dot(args, lat.hasse_dot(), lines)
    payload["dot"] = args.dot
    return 0, payload, lines


def cmd_lattice_list(args) -> Report:
    names = sorted(jsonio.standard_lattices())
    return 0, {"lattices": names}, names


# -- stone --------------------------------------------------------------------------

def cmd_stone(args, maximal_only: bool) -> Report:
    lat = jsonio.load_lattice(args.lattice)
    ideals = (stone.enumerate_quasipoints(lat) if maximal_only
              else stone.enumerate_dual_ideals(lat))
    rows = [{"generator": lat.names[j.generator()], "members": j.names()}
            for j in ideals]
    lines = [f"H({r['generator']}): " + ",".join(r["members"]) for r in rows]
    _write_dot(args, stone.inclusion_dot(lat), lines)
    return 0, {"count": len(rows), "ideals": rows, "dot": args.dot}, lines


# -- spectral -----------------------------------------------------------------------

def cmd_spectral_eval(args) -> Report:
    if not math.isfinite(args.at):
        raise InputError("--at must be a finite real", witness=args.at)
    fam = jsonio.load_family(args.family)
    name = fam.lattice.names[fam.value_at(args.at)]
    return 0, {"at": args.at, "element": name}, [
        f"E({_fmt_val(args.at)}) = {name}"]


def cmd_spectral_restrict(args) -> Report:
    fam = jsonio.load_family(args.family)
    return _family_report(
        args, spectral.restrict_family(fam, fam.lattice.index(args.to)))


def cmd_spectral_spectrum(args) -> Report:
    fam = jsonio.load_family(args.family)
    sp = list(fam.spectrum())
    return 0, {"spectrum": sp}, [",".join(_fmt_val(v) for v in sp)]


# -- obs ----------------------------------------------------------------------------

def cmd_obs_eval(args) -> Report:
    fam = jsonio.load_family(args.family)
    lat = fam.lattice
    ideal = jsonio.read_ideal(lat, args.ideal)
    value = observables.observable_from_spectral(fam, ideal)
    return 0, {"ideal": ideal.names(), "value": value}, [
        f"f(H({lat.names[ideal.generator()]})) = {_fmt_val(value)}"]


def cmd_obs_check(args) -> Report:
    f = jsonio.load_table(args.table)
    ok1, w1 = observables.check_intersection_condition(f)
    ok2, w2 = observables.check_upper_semicontinuous(f)
    payload = {"intersection_condition": ok1, "intersection_witness": w1,
               "upper_semicontinuous": ok2, "usc_witness": w2}
    lines = [_verdict("intersection-condition", ok1, w1),
             _verdict("upper-semicontinuous", ok2, w2)]
    return (0 if ok1 and ok2 else 1), payload, lines


def cmd_obs_reconstruct(args) -> Report:
    f = jsonio.load_table(args.table)
    # reconstruct raises CheckFailure on bad tables
    return _family_report(args, observables.reconstruct(f))


# -- vn -----------------------------------------------------------------------------

def cmd_vn_spectral_family(args) -> Report:
    tol = _parse_tol(args.tol)
    fam = vn.spectral_family_of(jsonio.load_matrix(args.matrix), tol)
    rows = [{"breakpoint": mu, "rank": vn.rank_of_projection(p)}
            for mu, p in zip(fam.breakpoints, fam.projections)]
    lines = [f"{_fmt_val(r['breakpoint'])}: rank {r['rank']}" for r in rows]
    return 0, {"dim": fam.dim, "steps": rows}, lines


def cmd_vn_order(args) -> Report:
    tol = _parse_tol(args.tol)
    a = vn.spectral_family_of(jsonio.load_matrix(args.a), tol)
    b = vn.spectral_family_of(jsonio.load_matrix(args.b), tol)
    ab = vn.spectral_leq(a, b, tol)
    ba = vn.spectral_leq(b, a, tol)
    return 0, {"a_leq_b": ab, "b_leq_a": ba}, [f"A <= B: {_b(ab)}",
                                              f"B <= A: {_b(ba)}"]


def _load_algebra(ref, tol: Tolerances):
    gens, dim = jsonio.load_generators(ref)
    return vn.subalgebra(gens, dim=dim, tol=tol)


def _matrix_lines(m: np.ndarray) -> list[str]:
    out = []
    # rounded first, then + 0.0 turns a -0.0 round-off residue into 0.0
    for row in np.round(np.asarray(m), 6) + 0.0:
        out.append("  ".join(f"{e.real:+.6f}{e.imag:+.6f}i" for e in row))
    return out


def cmd_vn_restrict(args) -> Report:
    tol = _parse_tol(args.tol)
    alg = _load_algebra(args.algebra, tol)
    fn = vn.rho_restrict if args.map == "rho" else vn.sigma_restrict
    out = fn(alg, jsonio.load_matrix(args.op), tol)
    data = jsonio.matrix_to_json(out)
    lines = _matrix_lines(out)
    _write_out(args, data, lines)
    return 0, {"map": args.map, "matrix": data}, lines


def cmd_vn_core(args) -> Report:
    tol = _parse_tol(args.tol)
    alg = _load_algebra(args.algebra, tol)
    q = jsonio.load_matrix(args.proj)
    core = vn.core_projection(alg, q, tol)
    support = vn.support_projection(alg, q, tol)
    lines = ([f"core rank {vn.rank_of_projection(core)}"]
             + _matrix_lines(core)
             + [f"support rank {vn.rank_of_projection(support)}"])
    return 0, {"core": jsonio.matrix_to_json(core),
               "support": jsonio.matrix_to_json(support)}, lines


# -- classical ----------------------------------------------------------------------

def cmd_classical_induce(args) -> Report:
    space = jsonio.load_space(args.space)
    values = jsonio.load_point_values(args.fn)
    fam = classical.sigma_from_function(space, values)
    pairs = fam.to_pairs()
    induced = {p: classical.induced_function(fam, p) for p in space.points}
    lines = [f"{_fmt_val(lam)}: {{{','.join(names)}}}"
             for lam, names in pairs]
    lines += [f"f({p}) = {_fmt_val(v)}" for p, v in induced.items()]
    return 0, {"breakpoints": pairs, "induced": induced}, lines


def cmd_classical_check(args) -> Report:
    if args.family:
        fam = jsonio.load_top_family(args.family)
        ok, witness, report = classical.is_continuous_family(fam)
        payload = {"continuous": ok, "witness": witness, "report": report}
    elif args.space and args.fn:
        space = jsonio.load_space(args.space)
        values = jsonio.load_point_values(args.fn)
        ok, witness = classical.is_continuous_function(space, values)
        payload = {"continuous": ok, "witness": witness}
    else:
        raise InputError("need --family or both --space and --fn")
    return (0 if ok else 1), payload, [_verdict("continuous", ok, witness)]


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("grid looks like lo:hi:step", witness=text)
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise InputError("grid looks like lo:hi:step", witness=text)
    return lo, hi, step


def cmd_classical_demo(args) -> Report:
    lo, hi, step = _parse_grid(args.grid)
    demo = classical.demo_family(args.family, lo, hi, step)
    fam = demo["family"]
    ok, witness, _ = classical.is_continuous_family(fam)
    rows = []
    mismatches = 0
    for point, want in demo["targets"].items():
        got = classical.induced_function(fam, point)
        rows.append({"point": point, "target": want, "induced": got})
        if got != want:
            mismatches += 1
    lines = [f"kind:{demo['kind']}  points:{len(fam.space.points)}",
             f"continuous:{_b(ok)}"]
    lines += [f"note: {n}" for n in demo["notes"]]
    lines += [f"f({r['point']}) = {_fmt_val(r['induced'])}"
              + ("" if r["induced"] == r["target"]
                 else f"  (target {_fmt_val(r['target'])})")
              for r in rows]
    lines.append(f"mismatches:{mismatches}")
    return 0, {"kind": demo["kind"], "continuous": ok,
               "continuity_witness": witness, "notes": demo["notes"],
               "table": rows, "mismatches": mismatches}, lines


# -- context ------------------------------------------------------------------------

def cmd_context_glue(args) -> Report:
    tol = _parse_tol(args.tol)
    dia = jsonio.load_diagram(args.diagram, tol=tol)
    _, section = jsonio.load_section(args.sections, tol=tol, dia=dia)
    try:
        report = glue_section(dia, section)
    except PreconditionError as exc:
        raise CheckFailure("not a global section", witness=exc.witness)
    payload = report.summary()
    payload["pool"] = [{"projection": lab, "value": val}
                       for lab, val in zip(report.pool_labels, report.values)]
    lines = [f"contexts:{len(dia.contexts)}  pool:{len(report.pool_labels)}"]
    for law, ok, witness in (
            ("commuting-join", report.commuting_ok, report.commuting_witness),
            ("joint-increasing", report.increasing_ok,
             report.increasing_witness)):
        lines.append(f"{law} law:{_b(ok)}")
        if witness:
            lines.append("  witness:" + json.dumps(witness, sort_keys=True))
    lines.append(f"operator-extendable:{report.extendable}"
                 + f"  ({report.certificate.get('reason')})")
    return 0, payload, lines


def cmd_context_from_operator(args) -> Report:
    dia = jsonio.load_diagram(args.diagram, tol=_parse_tol(args.tol))
    a = jsonio.load_matrix(args.op)
    section = section_from_operator(dia, a)
    data = jsonio.section_to_json(dia, section, diagram_ref=args.diagram)
    lines = []
    for cname in sorted(data["values"]):
        for elem, v in sorted(data["values"][cname].items()):
            lines.append(f"{cname}[{elem}] = {_fmt_val(v)}")
    _write_out(args, data, lines)
    return 0, {"section": data}, lines


# -- presheaf -----------------------------------------------------------------------

def cmd_presheaf_check(args) -> Report:
    work_cap = _cap(args, presheaf_mod.WORK_CAP)
    ps, meta = jsonio.load_presheaf(args.input)
    # the sheaf check runs the laws first and raises on lawless input
    report = presheaf_mod.check_sheaf_condition(ps, work_cap=work_cap)
    payload = {"kind": meta["kind"], "presheaf_laws": True,
               "laws_witness": None, "sheaf": report["ok"],
               "existence_failure": report["existence"],
               "uniqueness_failure": report["uniqueness"]}
    lines = ["presheaf laws:true",
             f"sheaf condition:{_b(report['ok'])}"]
    for key in ("existence", "uniqueness"):
        if report[key]:
            lines.append(f"  {key} failure:"
                         + json.dumps(report[key], sort_keys=True))
    return (0 if report["ok"] else 1), payload, lines


def cmd_presheaf_sheafify(args) -> Report:
    cap = _cap(args, presheaf_mod.SECTION_CAP)
    ps, meta = jsonio.load_presheaf(args.input)
    sheafified, base, masks = presheaf_mod.sheafify(ps, cap=cap)
    sizes = {base.names[a]: len(sheafified.values_at(a))
             for a in range(base.n)}
    laws_ok, _ = presheaf_mod.check_presheaf(sheafified)
    payload = {"kind": meta["kind"], "quasipoints": len(masks),
               "section_counts": sizes, "presheaf_laws": laws_ok}
    lines = [f"quasipoints:{len(masks)}",
             f"presheaf laws:{_b(laws_ok)}"]
    lines += [f"|S({name})| = {count}"
              for name, count in sorted(sizes.items())]
    return 0, payload, lines


# -- suite --------------------------------------------------------------------------

def cmd_suite(args) -> Report:
    results = acceptance.run_all(args.seed)
    payload = {"seed": args.seed,
               "results": [{"number": r.number, "label": r.label,
                            "passed": r.passed, "detail": r.detail}
                           for r in results]}
    lines = acceptance.format_report(results).split("\n")
    return (0 if all(r.passed for r in results) else 1), payload, lines


# -- wiring -------------------------------------------------------------------------

def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


# The options a subcommand takes only when it reads them (``leaf``).
OPTIONS = {
    "seed": dict(type=int, default=7),
    "tol": dict(action="append", metavar="KEY=VAL"),
    "cap": dict(type=int),
    "dot": dict(metavar="OUT"),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="obslat",
        description="spectral families, observable functions, and contexts "
                    "on finite lattices")
    groups = top.add_subparsers(dest="group", required=True)

    def leaf(group, name, fn, *options):
        p = group.add_parser(name)
        _common(p)
        for opt in options:
            p.add_argument("--" + opt, **OPTIONS[opt])
        p.set_defaults(handler=fn)
        return p

    g = groups.add_parser("lattice").add_subparsers(dest="command",
                                                    required=True)
    p = leaf(g, "check", cmd_lattice_check, "dot")
    p.add_argument("--input", "-i", required=True)
    leaf(g, "list", cmd_lattice_list)

    g = groups.add_parser("stone").add_subparsers(dest="command",
                                                  required=True)
    p = leaf(g, "quasipoints", lambda a: cmd_stone(a, True), "dot")
    p.add_argument("--lattice", "--input", "-i", required=True)
    p = leaf(g, "dual-ideals", lambda a: cmd_stone(a, False), "dot")
    p.add_argument("--lattice", "--input", "-i", required=True)

    g = groups.add_parser("spectral").add_subparsers(dest="command",
                                                     required=True)
    p = leaf(g, "eval", cmd_spectral_eval)
    p.add_argument("--family", required=True)
    p.add_argument("--at", type=float, required=True)
    p = leaf(g, "restrict", cmd_spectral_restrict)
    p.add_argument("--family", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--out")
    p = leaf(g, "spectrum", cmd_spectral_spectrum)
    p.add_argument("--family", required=True)

    g = groups.add_parser("obs").add_subparsers(dest="command", required=True)
    p = leaf(g, "eval", cmd_obs_eval)
    p.add_argument("--family", required=True)
    p.add_argument("--ideal", required=True)
    p = leaf(g, "check", cmd_obs_check)
    p.add_argument("--table", required=True)
    p = leaf(g, "reconstruct", cmd_obs_reconstruct)
    p.add_argument("--table", required=True)
    p.add_argument("--out")

    g = groups.add_parser("vn").add_subparsers(dest="command", required=True)
    p = leaf(g, "spectral-family", cmd_vn_spectral_family, "tol")
    p.add_argument("matrix")
    p = leaf(g, "order", cmd_vn_order, "tol")
    p.add_argument("a")
    p.add_argument("b")
    p = leaf(g, "restrict", cmd_vn_restrict, "tol")
    p.add_argument("--algebra", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--map", choices=("rho", "sigma"), required=True)
    p.add_argument("--out")
    p = leaf(g, "core", cmd_vn_core, "tol")
    p.add_argument("--algebra", required=True)
    p.add_argument("--proj", required=True)

    g = groups.add_parser("classical").add_subparsers(dest="command",
                                                      required=True)
    p = leaf(g, "induce", cmd_classical_induce)
    p.add_argument("--space", required=True)
    p.add_argument("--fn", required=True)
    p = leaf(g, "check-continuity", cmd_classical_check)
    p.add_argument("--space")
    p.add_argument("--fn")
    p.add_argument("--family")
    p = leaf(g, "demo", cmd_classical_demo)
    p.add_argument("--family", required=True,
                   choices=classical.DEMO_KINDS)
    p.add_argument("--grid", default="-2:2:0.25")

    g = groups.add_parser("context").add_subparsers(dest="command",
                                                    required=True)
    p = leaf(g, "glue", cmd_context_glue, "tol")
    p.add_argument("--diagram", required=True)
    p.add_argument("--sections", required=True)
    p = leaf(g, "from-operator", cmd_context_from_operator, "tol")
    p.add_argument("--op", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--out")

    g = groups.add_parser("presheaf").add_subparsers(dest="command",
                                                     required=True)
    p = leaf(g, "check", cmd_presheaf_check, "cap")
    p.add_argument("--input", "-i", required=True)
    p = leaf(g, "sheafify", cmd_presheaf_sheafify, "cap")
    p.add_argument("--input", "-i", required=True)

    leaf(groups, "suite", cmd_suite, "seed")
    return top


def _merge_grid_flag(argv: list[str]) -> list[str]:
    """Fold `--grid -2:2:0.25` into `--grid=-2:2:0.25`; argparse would
    otherwise read the negative lower bound as an unknown option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv) and \
                argv[i + 1].startswith("-") and ":" in argv[i + 1]:
            out.append("--grid=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _finite_json(obj):
    """obj with each non-finite float replaced by its JSON spelling as a
    string ("NaN", "Infinity", "-Infinity"), so it dumps as strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _print_error(exc: ObslatError) -> None:
    print(json.dumps({"error": str(exc), "witness": _finite_json(exc.witness)},
                     sort_keys=True), file=sys.stderr)


def _one_blas_thread() -> None:
    """Pin numpy's bundled OpenBLAS to one thread in the process the command
    owns: matrices stop at dimension 16, where a second thread buys nothing
    and slows every call beside a busy core.  numpy is loaded by now, so
    ``OPENBLAS_NUM_THREADS`` would come too late.  Without the bundled
    library or its symbol this does nothing."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_*.so"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def main(argv=None) -> int:
    _one_blas_thread()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_grid_flag(list(argv)))
    try:
        code, payload, lines = args.handler(args)
        _emit(args, payload, lines)
        return code
    except CheckFailure as exc:
        _print_error(exc)
        return 1
    except ObslatError as exc:
        _print_error(exc)
        return 2
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush at
        # interpreter exit does not raise again (the recipe in the docs of
        # Python's signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
