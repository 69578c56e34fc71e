"""Command line behavior: exit codes, JSON payloads, file outputs."""
import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from obslat import jsonio
from obslat.lattice import bits
from obslat.cli import _matrix_lines, _merge_grid_flag, build_parser, main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def c(name: str) -> str:
    return str(CORPUS / name)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_lattice_list_and_check(capsys, tmp_path):
    code, payload = run_json(capsys, "lattice", "list")
    assert code == 0 and "mo2" in payload["lattices"]

    code, payload = run_json(capsys, "lattice", "check", "-i", "o6")
    assert code == 0
    assert payload["distributive"] is False
    assert payload["orthomodular"] is False
    assert payload["orthomodular_witness"] == ["a", "b"]

    dot = tmp_path / "hasse.dot"
    code, _, _ = run(capsys, "lattice", "check", "-i", c("mo2.json"),
                     "--dot", str(dot))
    assert code == 0
    assert "digraph" in dot.read_text()


def test_stone_commands(capsys):
    code, payload = run_json(capsys, "stone", "quasipoints",
                             "--lattice", "mo2")
    assert code == 0 and payload["count"] == 4
    code, payload = run_json(capsys, "stone", "dual-ideals",
                             "--lattice", "b3")
    assert code == 0 and payload["count"] == 7


def test_spectral_commands(capsys, tmp_path):
    fam = c("family_mo2.json")
    code, payload = run_json(capsys, "spectral", "eval",
                             "--family", fam, "--at", "1.0")
    assert code == 0 and payload["element"] == "a"

    out = tmp_path / "restricted.json"
    code, payload = run_json(capsys, "spectral", "restrict", "--family", fam,
                             "--to", "a'", "--out", str(out))
    assert code == 0 and payload["breakpoints"] == [[2.0, "a'"]]
    reloaded = jsonio.load_family(str(out))
    assert reloaded.breakpoints == ((2.0, reloaded.lattice.index("a'")),)

    code, payload = run_json(capsys, "spectral", "spectrum", "--family", fam)
    assert code == 0 and payload["spectrum"] == [1.0, 2.0]


def test_obs_commands(capsys, tmp_path):
    code, payload = run_json(capsys, "obs", "eval",
                             "--family", c("family_mo2.json"),
                             "--ideal", "a,1")
    assert code == 0 and payload["value"] == 1.0

    code, payload = run_json(capsys, "obs", "check",
                             "--table", c("table_mo2.json"))
    assert code == 0 and payload["intersection_condition"]

    code, payload = run_json(capsys, "obs", "check",
                             "--table", c("table_bad_mo2.json"))
    assert code == 1
    assert payload["intersection_witness"] == {
        "family": [["a", "1"], ["b", "1"]], "intersection": ["1"],
        "sup_of_values": 1.5, "value": 2.0}

    out = tmp_path / "fam.json"
    code, payload = run_json(capsys, "obs", "reconstruct",
                             "--table", c("table_mo2.json"),
                             "--out", str(out))
    assert code == 0
    assert jsonio.load_family(str(out)).breakpoints == \
        tuple((lam, jsonio.load_lattice("mo2").index(nm))
              for lam, nm in payload["breakpoints"])

    code, out_text, err = run(capsys, "obs", "reconstruct",
                              "--table", c("table_bad_mo2.json"))
    assert code == 1
    assert json.loads(err)["witness"]["sup_of_values"] == 1.5


def test_vn_commands(capsys, tmp_path):
    code, payload = run_json(capsys, "vn", "spectral-family",
                             c("matrix_a.json"))
    assert code == 0 and payload["dim"] == 3
    assert payload["steps"][-1]["rank"] == 3

    code, payload = run_json(capsys, "vn", "order",
                             c("matrix_low.json"), c("matrix_high.json"))
    assert code == 0
    assert payload == {"a_leq_b": True, "b_leq_a": False}

    out = tmp_path / "rho.json"
    code, payload = run_json(capsys, "vn", "restrict",
                             "--algebra", c("gens_diag.json"),
                             "--op", c("matrix_a.json"),
                             "--map", "rho", "--out", str(out))
    assert code == 0
    assert out.is_file()

    code, payload = run_json(capsys, "vn", "core",
                             "--algebra", c("gens_diag.json"),
                             "--proj", c("proj_q.json"))
    assert code == 0
    core = jsonio.load_matrix(payload["core"])
    support = jsonio.load_matrix(payload["support"])
    import numpy as np
    assert np.allclose(core, np.zeros((3, 3)))
    assert np.trace(support).real == pytest.approx(2.0)


def test_classical_commands(capsys):
    code, payload = run_json(capsys, "classical", "induce",
                             "--space", c("space_sierpinski.json"),
                             "--fn", c("fn_flat.json"))
    assert code == 0
    assert payload["induced"] == {"1": 1.0, "2": 1.0, "3": 1.0}

    code, payload = run_json(capsys, "classical", "check-continuity",
                             "--space", c("space_sierpinski.json"),
                             "--fn", c("fn_id.json"))
    assert code == 1
    assert payload["witness"] == {"neighbor": "1", "point": "2",
                                  "values": [1.0, 0.0]}

    code, payload = run_json(capsys, "classical", "check-continuity",
                             "--family", c("topfam_abs.json"))
    assert code == 0 and payload["continuous"]

    code, payload = run_json(capsys, "classical", "check-continuity",
                             "--family", c("topfam_stepline.json"))
    assert code == 1
    assert payload["witness"] == {"closure": ["u0", "v1"], "lambda": -2.0,
                                  "mu": -1.5, "value": ["u0"]}

    code, _, _ = run(capsys, "classical", "check-continuity")
    assert code == 2


def test_classical_demo_and_grid_flag(capsys):
    # a negative lower bound must survive argparse
    code, payload = run_json(capsys, "classical", "demo",
                             "--family", "id", "--grid", "-2:2:0.25")
    assert code == 0 and payload["mismatches"] == 0

    code, payload = run_json(capsys, "classical", "demo",
                             "--family", "step", "--grid", "0:3:0.5")
    assert code == 0 and payload["continuous"]

    code, _, _ = run(capsys, "classical", "demo",
                     "--family", "id", "--grid", "nope")
    assert code == 2

    merged = _merge_grid_flag(["demo", "--grid", "-2:2:0.25", "--seed", "7"])
    assert merged == ["demo", "--grid=-2:2:0.25", "--seed", "7"]
    untouched = _merge_grid_flag(["demo", "--grid", "0:3:0.5"])
    assert untouched == ["demo", "--grid", "0:3:0.5"]


@pytest.mark.parametrize("grid, error", [
    ("0:1:nan", "grid bounds and step must be finite"),
    ("0:1e300:1e-300", "grid too fine; at most 48 points"),
    ("0:1e9:1", "grid too fine; at most 48 points"),
])
def test_grids_out_of_range_exit_2_at_once(capsys, grid, error):
    """The point count is capped before a single point is built."""
    start = time.perf_counter()
    code, out, err = run(capsys, "classical", "demo", "--family", "id",
                         f"--grid={grid}")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err, parse_constant=pytest.fail)["error"] == error


def test_context_commands(capsys, tmp_path):
    code, payload = run_json(capsys, "context", "glue",
                             "--diagram", c("diagram_qubit.json"),
                             "--sections", c("section_clash.json"))
    assert code == 0
    assert payload["commuting_ok"] is True
    assert payload["increasing_ok"] is False
    assert payload["extendable"] == "no"

    out = tmp_path / "section.json"
    code, _ = run_json(capsys, "context", "from-operator",
                       "--op", c("op_qubit.json"),
                       "--diagram", c("diagram_qubit.json"),
                       "--out", str(out))
    assert code == 0
    code, payload = run_json(capsys, "context", "glue",
                             "--diagram", c("diagram_qubit.json"),
                             "--sections", str(out))
    assert code == 0 and payload["extendable"] == "yes"

    # a section that is not even locally consistent fails the check
    broken = json.loads((CORPUS / "section_clash.json").read_text())
    broken["values"]["Az"]["{1,2}"] = 0.5
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(broken))
    code, _, err = run(capsys, "context", "glue",
                       "--diagram", c("diagram_qubit.json"),
                       "--sections", str(bad))
    assert code == 1
    assert json.loads(err)["witness"]["kind"] == "not-increasing-in-context"


def test_context_glue_checks_the_section_once(capsys, tmp_path, monkeypatch):
    """A section that clashes across contexts exits 1 with the global
    check's witness, and a global one glues: one ``is_global_section`` call
    each."""
    from obslat import cli, context
    calls = []
    check = context.is_global_section

    def counted(dia, section):
        calls.append(1)
        return check(dia, section)

    monkeypatch.setattr(context, "is_global_section", counted)
    monkeypatch.setattr(cli, "is_global_section", counted, raising=False)
    clash = json.loads((CORPUS / "section_clash.json").read_text())
    clash["values"]["Ax&Az"]["{1}"] = 3.0
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(clash))
    code, _, err = run(capsys, "context", "glue",
                       "--diagram", c("diagram_qubit.json"),
                       "--sections", str(path))
    assert code == 1 and len(calls) == 1
    calls.clear()
    assert run(capsys, "context", "glue", "--diagram", c("diagram_qubit.json"),
               "--sections", c("section_clash.json"))[0] == 0
    assert len(calls) == 1
    assert json.loads(err) == {
        "error": "not a global section",
        "witness": {"kind": "inconsistent-across-contexts",
                    "projection": "Ax:{1,2}", "contexts": ["Ax", "Ax&Az"],
                    "values": [2.0, 3.0]}}


def test_context_glue_prints_the_commuting_witness(capsys, tmp_path):
    """Three contexts on C^3; each keeps one basis line and turns the plane
    of the other two by 45 degrees.  The lines kept by X and Y are valued 0
    and commute without sharing a context; their join is a plane of Z
    valued 1, so the commuting-join law fails."""
    gens = {"X": [[0, 0, 0], [0, 1.5, -0.5], [0, -0.5, 1.5]],
            "Y": [[1, 0, -1], [0, 1, 0], [-1, 0, 1]],
            "Z": [[0.5, -0.5, 0], [-0.5, 0.5, 0], [0, 0, 2]]}
    dia_path = tmp_path / "planes.json"
    jsonio.save_json(dia_path, {"ambient_dim": 3,
                                "contexts": {k: [g] for k, g in gens.items()}})
    dia = jsonio.load_diagram(str(dia_path))

    def line_value(name, q):
        # the generator's eigenvalue on the line; X and Y lower 1 to 0
        eig = round(float(np.trace(np.array(gens[name]) @ q).real))
        return float(eig if name == "Z" else 2 * (eig == 2))

    section = {}
    for ctx in dia.contexts:
        atoms = [line_value(ctx.name, q) if ctx.name in gens else 2.0
                 for q in ctx.minimal]
        section[ctx.name] = {e: max(atoms[i] for i in bits(e))
                             for e in ctx.nonzero_elements()}
    sec_path = tmp_path / "section.json"
    jsonio.save_json(sec_path, jsonio.section_to_json(dia, section))

    argv = ("context", "glue", "--diagram", str(dia_path),
            "--sections", str(sec_path))
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["commuting_ok"] is False
    witness = payload["commuting_witness"]
    assert witness["value"] == 1.0 and witness["sup_of_values"] == 0.0
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    at = lines.index("commuting-join law:false")
    assert lines[at + 1] == "  witness:" + json.dumps(witness, sort_keys=True)


def test_presheaf_commands(capsys):
    code, payload = run_json(capsys, "presheaf", "check",
                             "-i", c("presheaf_mo2.json"))
    assert code == 1
    assert payload["presheaf_laws"] is True and payload["sheaf"] is False
    assert payload["existence_failure"]["cover"] == ["a", "a'", "b"]

    code, payload = run_json(capsys, "presheaf", "check",
                             "-i", c("presheaf_fn.json"))
    assert code == 0 and payload["sheaf"] is True

    code, payload = run_json(capsys, "presheaf", "sheafify",
                             "-i", c("presheaf_mo2.json"))
    assert code == 0 and payload["quasipoints"] == 4
    assert payload["section_counts"]["{1,2,3,4}"] == 16


def test_error_exits(capsys, tmp_path):
    code, _, err = run(capsys, "lattice", "check", "-i", "no_such.json")
    assert code == 2 and "no such file" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "lattice", "check", "-i", str(bad))
    assert code == 2 and "malformed" in err

    code, _, err = run(capsys, "obs", "eval",
                       "--family", c("family_mo2.json"), "--ideal", " , ")
    assert code == 2


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "presheaf", "check",
                      "-i", c("presheaf_mo2.json"), "--format", "json")
    _, second, _ = run(capsys, "presheaf", "check",
                       "-i", c("presheaf_mo2.json"), "--format", "json")
    assert first == second
    _, a1, _ = run(capsys, "vn", "spectral-family", c("matrix_a.json"),
                   "--format", "json")
    _, a2, _ = run(capsys, "vn", "spectral-family", c("matrix_a.json"),
                   "--format", "json")
    assert a1 == a2


def test_suite_reports_nine_passing_criteria(capsys):
    code, payload = run_json(capsys, "suite", "--seed", "7")
    assert code == 0
    assert len(payload["results"]) == 9
    assert all(r["passed"] for r in payload["results"])
    assert [r["number"] for r in payload["results"]] == list(range(1, 10))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_table_values_exit_2(capsys, tmp_path, bad):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"lattice": "mo2", "values": {
        "a,1": 1.0, "a',1": bad, "b,1": 2.0, "b',1": 2.0, "1": 2.0}}))
    for cmd in ("check", "reconstruct"):
        code, out, err = run(capsys, "obs", cmd, "--table", str(table))
        assert code == 2 and out == ""
        # strict JSON: a NaN or Infinity literal fails the test
        assert json.loads(err, parse_constant=pytest.fail)["witness"] == "a'"


def test_table_with_bottom_top_exit_2(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"lattice": "mo2", "top": "0", "values": {}}))
    for cmd in ("check", "reconstruct"):
        code, out, err = run(capsys, "obs", cmd, "--table", str(table))
        assert code == 2 and out == ""
        assert json.loads(err)["witness"] == "0"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_witnesses_print_strict_json(capsys, tmp_path, literal):
    path = tmp_path / "family.json"
    path.write_text('{"lattice": "mo2", "breakpoints": [[%s, "a"], [2, "1"]]}'
                    % literal)
    code, out, err = run(capsys, "spectral", "spectrum", "--family", str(path))
    assert code == 2 and out == ""
    assert json.loads(err, parse_constant=pytest.fail) == {
        "error": "breakpoints must be finite reals", "witness": literal}


@pytest.mark.parametrize("at, witness", [
    ("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity")])
def test_a_non_finite_at_exits_2(capsys, at, witness):
    code, out, err = run(capsys, "spectral", "eval", "--family",
                         c("family_mo2.json"), f"--at={at}",
                         "--format", "json")
    assert code == 2 and out == ""
    assert json.loads(err, parse_constant=pytest.fail) == {
        "error": "--at must be a finite real", "witness": witness}


@pytest.mark.parametrize("argv, data, key, value", [
    (("spectral", "spectrum", "--family"),
     {"lattice": "mo2", "breakpoints": [[0.5, "a"], [1.0]]},
     "breakpoints[1]", [1.0]),
    (("spectral", "spectrum", "--family"),
     {"lattice": "mo2", "breakpoints": {"0.5": "a"}},
     "breakpoints", {"0.5": "a"}),
    (("classical", "check-continuity", "--family"),
     {"space": c("space_sierpinski.json"),
      "breakpoints": [[0.5, ["1"]], [1.0]]},
     "breakpoints[1]", [1.0]),
    (("classical", "check-continuity", "--family"),
     {"space": c("space_sierpinski.json"),
      "breakpoints": [[0.5, ["1"]], [1.0, ["1", "2", "3"], "x"]]},
     "breakpoints[1]", [1.0, ["1", "2", "3"], "x"]),
], ids=["family-short", "family-not-a-list", "top-family-short",
        "top-family-long"])
def test_breakpoints_must_be_a_list_of_pairs(capsys, tmp_path, argv, data,
                                             key, value):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "breakpoints are a list of [lambda, value] pairs",
        "witness": {"key": key, "value": value}}


@pytest.mark.parametrize("argv, data, key", [
    (("spectral", "spectrum", "--family"),
     {"lattice": "mo2", "breakpoints": [["x", "a"], [2.0, "1"]]},
     "breakpoints[0]"),
    (("obs", "check", "--table"),
     {"lattice": "mo2", "values": {"a,1": 1.0, "a',1": "x", "b,1": 2.0,
                                   "b',1": 2.0, "1": 2.0}},
     "values[a',1]"),
    (("vn", "spectral-family"), [[1.0, [0.0, "x"]], [0.0, 1.0]],
     "matrix[0][1]"),
    (("vn", "spectral-family"), [[True, 0], [0, False]], "matrix[0][0]"),
    (("classical", "induce", "--space", c("space_sierpinski.json"), "--fn"),
     {"values": {"1": 0.0, "2": None, "3": 1.0}}, "values[2]"),
    (("classical", "check-continuity", "--family"),
     {"space": c("space_sierpinski.json"),
      "breakpoints": [[[1], ["1"]], [2.0, ["1", "2", "3"]]]},
     "breakpoints[0]"),
    (("presheaf", "check", "--input"),
     {"kind": "spectral", "lattice": "mo2", "grid": [0.0, "x"]}, "grid[1]"),
    (("context", "glue", "--diagram", c("diagram_qubit.json"), "--sections"),
     {"values": {"Ax": {"{1}": "x"}}}, "values[Ax][{1}]"),
])
def test_non_numeric_reals_in_files_exit_2(capsys, tmp_path, argv, data, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "expected a real number"
    assert payload["witness"]["key"] == key


LATTICE = ("lattice", "check", "-i")
SPACE = ("classical", "induce", "--fn", c("fn_id.json"), "--space")
SECTION = ("context", "glue", "--diagram", c("diagram_qubit.json"),
           "--sections")


@pytest.mark.parametrize("argv, data, key", [
    (LATTICE, {"elements": ["0", "1"], "leq": [["0", "1", "1"]]}, "leq[0]"),
    (LATTICE, {"elements": ["0", "1"], "leq": ["01"]}, "leq[0]"),
    (LATTICE, {"elements": ["0", "1"], "ortho": [["0", "1"]]}, "ortho"),
    (LATTICE, {"elements": "01", "leq": [["0", "1"]]}, "elements"),
    (SPACE, {"points": ["1", "2"], "opens": 3}, "opens"),
    (SPACE, {"points": ["1", "2"], "opens": [[], "12", ["1"]]}, "opens[1]"),
    (SPACE, {"points": "12", "opens": [[], ["1", "2"]]}, "points"),
    (SPACE, {"points": ["1", "2"], "min_neighborhoods": [["1"], ["2"]]},
     "min_neighborhoods"),
    (("context", "glue", "--sections", c("section_clash.json"),
      "--diagram"), {"ambient_dim": 2, "contexts": [[[1, 0], [0, 0]]]},
     "contexts"),
    (("context", "glue", "--sections", c("section_clash.json"),
      "--diagram"), {"contexts": {"Ax": "matrix_a.json"}}, "contexts[Ax]"),
    (("obs", "check", "--table"), {"lattice": "mo2", "values": [1.0]},
     "values"),
    (SECTION, {"values": [["Ax", 1.0]]}, "values"),
    (SECTION, {"values": {"Ax": [1.0, 2.0]}}, "values[Ax]"),
    (("vn", "spectral-family"), [[1.0, 0.0], [0.0]], "matrix[1]"),
    (("classical", "check-continuity", "--family"),
     {"space": c("space_sierpinski.json"),
      "breakpoints": [[0.5, "12"], [1.0, ["1", "2", "3"]]]},
     "breakpoints[0][1]"),
    (("classical", "check-continuity", "--family"),
     {"space": c("space_sierpinski.json"), "base": "1",
      "breakpoints": [[1.0, ["1", "2", "3"]]]}, "base"),
], ids=["leq-triple", "leq-string", "ortho-list", "elements-string",
        "opens-number", "open-string", "points-string", "neighborhoods-list",
        "contexts-list", "generators-string", "table-values-list",
        "section-values-list", "section-table-list", "matrix-ragged",
        "family-value-string", "family-base-string"])
def test_malformed_containers_in_files_exit_2(capsys, tmp_path, argv, data,
                                              key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    payload = json.loads(err, parse_constant=pytest.fail)
    assert payload["error"].startswith("expected a ")
    assert payload["witness"]["key"] == key


def test_non_finite_matrix_exit_2(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('[[NaN, 0], [0, 1]]')
    code, out, err = run(capsys, "vn", "spectral-family", str(path))
    assert code == 2 and out == ""
    payload = json.loads(err, parse_constant=pytest.fail)
    assert payload == {"error": "matrix entries must be finite",
                       "witness": [0, 0]}


@pytest.mark.parametrize("setting", [
    "sub=x", "sub=nan", "sub=-1e-9", "pivot=inf"])
def test_bad_tolerance_values_exit_2(capsys, setting):
    code, out, err = run(capsys, "vn", "spectral-family", c("matrix_a.json"),
                         "--tol", setting)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"].startswith("a tolerance is a finite nonnegative")
    key, _, val = setting.partition("=")
    assert payload["witness"] == {"key": key, "value": val}


@pytest.mark.parametrize("key", ["rec", "jacobi_off", "jacobi_sweeps"])
def test_removed_tolerance_keys_are_unknown(capsys, key):
    code, _, err = run(capsys, "vn", "spectral-family", c("matrix_a.json"),
                       "--tol", f"{key}=3")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "unknown tolerance key"
    assert payload["witness"]["key"] == key
    assert key not in payload["witness"]["known"]


@pytest.mark.parametrize("value", ["x", 0, -2, 2.5, True])
@pytest.mark.parametrize("argv, key", [
    (("vn", "core", "--proj", c("proj_q.json"), "--algebra"), "dim"),
    (("context", "from-operator", "--op", c("op_qubit.json"), "--diagram"),
     "ambient_dim"),
], ids=["algebra", "diagram"])
def test_dimensions_in_files_are_positive_integers(capsys, tmp_path, argv,
                                                   key, value):
    path = tmp_path / "input.json"
    data = ({"dim": value, "generators": []} if key == "dim"
            else {"ambient_dim": value, "contexts": {"A": []}})
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "expected a positive integer",
                               "witness": {"key": key, "value": value}}


def test_algebra_dimension_above_the_cap_exit_2(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 17, "generators": []}))
    code, out, err = run(capsys, "vn", "core", "--algebra", str(path),
                         "--proj", c("proj_q.json"))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "dimension 17 exceeds 16",
                               "witness": None}


@pytest.mark.parametrize("argv", [
    ("vn", "restrict", "--op", c("op_qubit.json"), "--map", "sigma"),
    ("vn", "restrict", "--op", c("op_qubit.json"), "--map", "rho"),
    ("vn", "core", "--proj", "QUBIT_PROJ"),
], ids=["sigma", "rho", "core"])
def test_matrix_of_another_dimension_than_the_algebra_exit_2(capsys, tmp_path,
                                                            argv):
    proj = tmp_path / "p.json"
    proj.write_text("[[1, 0], [0, 0]]")
    argv = [str(proj) if a == "QUBIT_PROJ" else a for a in argv]
    code, out, err = run(capsys, *argv, "--algebra", c("gens_diag.json"))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "matrix dimension differs from the algebra's",
        "witness": [2, 3]}


@pytest.mark.parametrize("grid, error", [
    ("nan:1:0.5", "grid bounds must be finite"),
    ("0:1e9:1", "line too long; at most 48 points"),
    ("-1e308:1e308:1", "line too long; at most 48 points"),
    ("2:-2:0.25", "need lo < hi and a positive step"),
    ("-2:2:0", "need lo < hi and a positive step"),
    ("-2:2:-1", "need lo < hi and a positive step"),
    ("-2:2:nan", "need lo < hi and a positive step"),
])
def test_step_line_bounds_exit_2_at_once(capsys, grid, error):
    start = time.perf_counter()
    code, out, err = run(capsys, "classical", "demo", "--family", "step-line",
                         f"--grid={grid}")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err, parse_constant=pytest.fail)["error"] == error


def test_round_off_entries_print_without_sign():
    m = np.array([[-4e-16, 1 - 4e-16j], [1 + 4e-16j, 4e-16]])
    assert _matrix_lines(m) == ["+0.000000+0.000000i  +1.000000+0.000000i",
                                "+1.000000+0.000000i  +0.000000+0.000000i"]
    assert _matrix_lines(-m) == ["+0.000000+0.000000i  -1.000000+0.000000i",
                                 "-1.000000+0.000000i  +0.000000+0.000000i"]


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", ["check", "sheafify"])
def test_non_positive_caps_exit_2(capsys, command, cap):
    code, out, err = run(capsys, "presheaf", command,
                         "-i", c("presheaf_mo2.json"), "--cap", cap)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--cap must be a positive integer",
                               "witness": int(cap)}


@pytest.mark.parametrize("command, error", [
    ("check", "gluing scan exceeded the work cap"),
    ("sheafify", "sheafification exceeds the size cap"),
])
def test_a_cap_of_one_is_honoured(capsys, command, error):
    code, out, err = run(capsys, "presheaf", command,
                         "-i", c("presheaf_mo2.json"), "--cap", "1")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error, "witness": {"cap": 1}}


SIX_POINTS = {"points": list("abcdef"),
              "min_neighborhoods": {p: [p] for p in "abcdef"}}


@pytest.mark.parametrize("data, error, witness", [
    ({"kind": "spectral", "lattice": "mo2", "grid": 3},
     "expected a list", {"key": "grid", "value": 3}),
    ({"kind": "functions", "space": c("space_sierpinski.json"), "values": 3},
     "expected a list", {"key": "values", "value": 3}),
    ({"kind": "functions", "space": c("space_sierpinski.json"),
      "values": [[0, 1], 2]},
     "expected a real number", {"key": "values[0]", "value": [0, 1]}),
    ({"kind": "functions", "space": SIX_POINTS, "values": [0, 1, 2, 3, 4]},
     "too many sections; shrink the values list", {"cap": 4096}),
    ({"kind": "spectral", "lattice": "chain2", "grid": [0.0, float("inf")]},
     "breakpoints must be finite reals", "Infinity"),
    ({"kind": "functions", "space": c("space_sierpinski.json"),
      "values": [0.0, float("nan"), float("inf")]},
     "values must be finite reals", "NaN"),
], ids=["grid-not-a-list", "values-not-a-list", "value-not-a-real",
        "sections-over-the-cap", "non-finite-grid", "non-finite-values"])
def test_bad_presheaf_files_exit_2_at_once(capsys, tmp_path, data, error,
                                           witness):
    path = tmp_path / "presheaf.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "presheaf", "check", "-i", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err, parse_constant=pytest.fail) == {
        "error": error, "witness": witness}


def test_repeated_function_values_are_dropped(capsys, tmp_path):
    """[0.0, 0.0] once gave every open set duplicate sections, and this
    genuine sheaf was reported failing both existence and uniqueness, with
    four identical gluings in its witness."""
    two = {"points": ["x", "y"], "min_neighborhoods": {"x": ["x"],
                                                       "y": ["y"]}}
    payloads = []
    for values in ([0.0, 0.0], [0.0]):
        path = tmp_path / "presheaf.json"
        path.write_text(json.dumps({"kind": "functions", "space": two,
                                    "values": values}))
        code, payload = run_json(capsys, "presheaf", "check", "-i", str(path))
        assert code == 0 and payload["sheaf"] is True
        payloads.append(payload)
        code, payload = run_json(capsys, "presheaf", "sheafify",
                                 "-i", str(path))
        assert code == 0 and payload["section_counts"]["{1,2}"] == 1
    assert payloads[0] == payloads[1]


def _leaves(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


LEAVES = dict(_leaves(build_parser()))
SHARED = {"--format", "--seed", "--tol", "--cap", "--dot"}
OPTIONS = {("lattice", "check"): {"--dot"},
           ("stone", "quasipoints"): {"--dot"},
           ("stone", "dual-ideals"): {"--dot"},
           ("vn", "spectral-family"): {"--tol"}, ("vn", "order"): {"--tol"},
           ("vn", "restrict"): {"--tol"}, ("vn", "core"): {"--tol"},
           ("context", "glue"): {"--tol"},
           ("context", "from-operator"): {"--tol"},
           ("presheaf", "check"): {"--cap"},
           ("presheaf", "sheafify"): {"--cap"},
           ("suite",): {"--seed"}}


def test_the_option_table_names_leaves():
    assert set(OPTIONS) <= set(LEAVES) and len(LEAVES) == 22


@pytest.mark.parametrize("path", sorted(LEAVES), ids=" ".join)
def test_each_subcommand_takes_only_the_options_it_reads(path):
    flags = {f for a in LEAVES[path]._actions for f in a.option_strings}
    assert {"-h", "--format"} <= flags
    assert flags & SHARED == {"--format"} | OPTIONS.get(path, set())


@pytest.mark.parametrize("argv", [
    ("context", "glue", "--diagram", c("diagram_qubit.json"),
     "--sections", c("section_operator.json"), "--cap", "5"),
    ("stone", "dual-ideals", "--lattice", "b3", "--seed", "3"),
    ("obs", "check", "--table", c("table_mo2.json"), "--tol", "sub=1"),
])
def test_an_option_the_subcommand_does_not_take_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


def test_a_closed_stdout_exits_1_without_a_traceback():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CORPUS.parent / "src")] + ([env["PYTHONPATH"]]
                                        if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "obslat.cli", "stone", "dual-ideals",
             "--lattice", "b4"], stdout=write_end, stderr=subprocess.PIPE,
            env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert done.returncode == 1


def test_console_script_entry_point_resolves_to_main():
    """The ``obslat`` command that ``pip install`` makes calls ``cli.main``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = CORPUS.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["obslat"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def bundled_openblas():
    """numpy's bundled OpenBLAS, or None where it is absent."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_*.so"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


def test_the_command_runs_on_one_blas_thread(capsys):
    lib = bundled_openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS is absent")
    before = lib.scipy_openblas_get_num_threads64_()
    try:
        lib.scipy_openblas_set_num_threads64_(2)
        assert run(capsys, "lattice", "list")[0] == 0
        assert lib.scipy_openblas_get_num_threads64_() == 1
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def test_restrict_at_the_cap_beside_a_busy_core(capsys, tmp_path):
    """A d = 16 restriction stays quick while a spinning child process keeps
    one core busy; on two BLAS threads the matrix layer has run 10 to 60 times
    slower there."""
    rng = np.random.default_rng(16)
    shape = (2, 16, 16)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gen, op = m + m.conj().transpose(0, 2, 1)
    gens, ops = tmp_path / "gens.json", tmp_path / "op.json"
    jsonio.save_json(gens, {"dim": 16,
                            "generators": [jsonio.matrix_to_json(gen)]})
    jsonio.save_json(ops, {"matrix": jsonio.matrix_to_json(op)})
    spin = subprocess.Popen(
        [sys.executable, "-c", "print(flush=True)\nwhile True: pass"],
        stdout=subprocess.PIPE)
    try:
        spin.stdout.readline()
        start = time.perf_counter()
        code, payload = run_json(capsys, "vn", "restrict", "--algebra",
                                 str(gens), "--op", str(ops), "--map", "rho")
        elapsed = time.perf_counter() - start
    finally:
        spin.kill()
        spin.wait(timeout=10)
        spin.stdout.close()
    assert code == 0 and len(payload["matrix"]) == 16
    assert elapsed < 5.0
