"""On-disk formats: resolution order, round trips, malformed inputs."""
import json
from pathlib import Path

import numpy as np
import pytest

from obslat import classical, jsonio
from obslat.acceptance import fixture_diagram, fixture_section
from obslat.corpus import standard_lattices
from obslat.errors import CheckFailure, InputError
from obslat.spectral import spectral_family

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_resolve_path_order(tmp_path, monkeypatch):
    (tmp_path / "here.json").write_text("{}")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "near.json").write_text("{}")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "far.json").write_text("{}")

    absolute = jsonio.resolve_path(str(tmp_path / "here.json"))
    assert absolute == tmp_path / "here.json"
    with pytest.raises(InputError):
        jsonio.resolve_path(str(tmp_path / "missing.json"))

    # relative to the referring file first
    got = jsonio.resolve_path("near.json", referrer=sub / "owner.json")
    assert got == sub / "near.json"

    monkeypatch.chdir(tmp_path)
    assert jsonio.resolve_path("here.json") == tmp_path / "here.json"

    monkeypatch.setenv(jsonio.CORPUS_ENV, str(corpus))
    assert jsonio.resolve_path("far.json") == corpus / "far.json"
    with pytest.raises(InputError) as err:
        jsonio.resolve_path("nowhere.json")
    assert "searched" in err.value.witness


def test_load_json_reports_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputError):
        jsonio.load_json(bad)


def test_save_json_is_deterministic(tmp_path):
    data = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    jsonio.save_json(p1, data)
    jsonio.save_json(p2, {"a": {"x": 1, "y": 2}, "b": [3, 1]})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_lattice_builtin_inline_and_file(tmp_path):
    mo2 = jsonio.load_lattice("mo2")
    assert mo2.names == ("0", "a", "a'", "b", "b'", "1")
    blob = jsonio.lattice_to_json(mo2)
    again = jsonio.load_lattice(blob)
    assert again.names == mo2.names
    path = tmp_path / "lat.json"
    jsonio.save_json(path, blob)
    assert jsonio.load_lattice(str(path)).names == mo2.names
    with pytest.raises(InputError):
        jsonio.load_lattice({"nope": 1})


def test_family_round_trip(tmp_path):
    mo2 = standard_lattices()["mo2"]
    fam = spectral_family(mo2, [(0.5, mo2.index("a")), (1.5, mo2.one)])
    blob = jsonio.family_to_json(fam, lattice_ref="mo2")
    assert blob == {"lattice": "mo2",
                    "breakpoints": [[0.5, "a"], [1.5, "1"]]}
    again = jsonio.load_family(blob)
    assert again.breakpoints == fam.breakpoints

    # a proper top survives the trip
    sub = spectral_family(mo2, [(0.5, mo2.index("a"))], top=mo2.index("a"))
    blob2 = jsonio.family_to_json(sub, lattice_ref="mo2")
    assert blob2["top"] == "a"
    assert jsonio.load_family(blob2).top == mo2.index("a")
    with pytest.raises(InputError):
        jsonio.load_family({"lattice": "mo2"})


def test_split_ideal_key():
    assert jsonio.split_ideal_key("a,b") == ["a", "b"]
    assert jsonio.split_ideal_key("{1},{1,2}") == ["{1}", "{1,2}"]
    assert jsonio.split_ideal_key("{1,2}") == ["{1,2}"]
    assert jsonio.split_ideal_key(" a , 1 ") == ["a", "1"]
    with pytest.raises(InputError):
        jsonio.split_ideal_key("}{")
    with pytest.raises(InputError):
        jsonio.split_ideal_key(" , ")


def test_ideal_key_lists_all_members():
    b2 = standard_lattices()["b2"]
    assert jsonio.ideal_key(b2, b2.index("{1}")) == "{1},{1,2}"
    mo2 = standard_lattices()["mo2"]
    assert jsonio.ideal_key(mo2, mo2.index("a")) == "a,1"


def test_load_table_accepts_keys_and_rejects_impostors():
    table = {"lattice": "mo2",
             "values": {"a,1": 1.0, "a',1": 2.0, "b,1": 2.0,
                        "b',1": 2.0, "1": 2.0}}
    f = jsonio.load_table(table)
    mo2 = f.lattice
    assert f.values[mo2.index("a")] == 1.0
    assert f.values[mo2.one] == 2.0

    # a multi-name key must list the full ideal
    with pytest.raises(InputError):
        jsonio.load_table({"lattice": "mo2", "values": {"a,b": 1.0}})
    with pytest.raises(InputError):
        jsonio.load_table({"lattice": "mo2",
                           "values": {"a,1": 1.0, "a": 2.0}})
    with pytest.raises(InputError):
        jsonio.load_table({"lattice": "mo2"})


def test_table_round_trip():
    b2 = standard_lattices()["b2"]
    table = {"lattice": "b2",
             "values": {"{1},{1,2}": 0.5, "{2},{1,2}": 1.5, "{1,2}": 1.5}}
    f = jsonio.load_table(table)
    blob = jsonio.table_to_json(f, lattice_ref="b2")
    assert blob["values"] == table["values"]
    again = jsonio.load_table(blob)
    assert again.values == f.values


def test_matrix_entries_and_round_trip(tmp_path):
    real = jsonio.load_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert real.dtype == complex
    pairs = jsonio.load_matrix([[[0.0, 0.0], [0.0, -1.0]],
                                [[0.0, 1.0], [0.0, 0.0]]])
    assert pairs[0, 1] == -1j and pairs[1, 0] == 1j
    wrapped = jsonio.load_matrix({"matrix": [[2.0]]})
    assert wrapped[0, 0] == 2.0
    with pytest.raises(InputError):
        jsonio.load_matrix([[[1.0, 2.0, 3.0]]])
    with pytest.raises(InputError):
        jsonio.load_matrix([])
    blob = jsonio.matrix_to_json(pairs)
    assert np.allclose(jsonio.load_matrix(blob), pairs)
    path = tmp_path / "m.json"
    jsonio.save_json(path, blob)
    assert np.allclose(jsonio.load_matrix(str(path)), pairs)


def test_space_round_trip_both_forms():
    sp = classical.sierpinski3()
    blob = jsonio.space_to_json(sp)
    assert blob["opens"] == [[], ["1"], ["1", "2"], ["1", "2", "3"]]
    again = jsonio.load_space(blob)
    assert again.points == sp.points and again.opens() == sp.opens()

    nb = {"points": ["1", "2", "3"],
          "min_neighborhoods": {"1": ["1"], "2": ["1", "2"],
                                "3": ["1", "2", "3"]}}
    from_nb = jsonio.load_space(nb)
    assert from_nb.nb_masks == sp.nb_masks

    # 2048 open sets, over the 1024 the opens list may hold
    big = classical.discrete_space([str(i) for i in range(11)])
    blob = jsonio.space_to_json(big)
    assert "opens" not in blob and len(blob["min_neighborhoods"]) == 11
    assert jsonio.load_space(blob).nb_masks == big.nb_masks
    with pytest.raises(InputError):
        jsonio.load_space({"points": ["1"], "opens": [["ghost"]]})
    with pytest.raises(InputError):
        jsonio.load_space({"points": ["1"]})


def test_space_to_json_does_not_depend_on_call_history():
    names = [str(i) for i in range(11)]
    fresh = classical.discrete_space(names)
    used = classical.discrete_space(names)
    assert len(used.opens()) == 2048
    assert jsonio.space_to_json(used) == jsonio.space_to_json(fresh)


def test_top_family_round_trip():
    sp = classical.sierpinski3()
    fam = classical.top_spectral_family(sp, [(0.5, 0b001), (1.5, 0b111)])
    blob = jsonio.top_family_to_json(fam)
    again = jsonio.load_top_family(blob)
    assert again.breakpoints == fam.breakpoints

    tail = classical.top_spectral_family(sp, [(0.0, 0b011)], base=0b001,
                                         unbounded_above=True)
    blob2 = jsonio.top_family_to_json(tail)
    assert blob2["base"] == ["1"] and blob2["unbounded_above"] is True
    again2 = jsonio.load_top_family(blob2)
    assert again2.base == 0b001 and again2.unbounded_above


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [False]])
def test_flags_are_json_booleans(flag):
    """A flag reads only a JSON boolean: through bool() the string "false"
    read as true, so a table was verified and a family loaded unbounded."""
    table = {"lattice": "mo2", "values": {"1": 2.0}, "checked": flag}
    family = jsonio.top_family_to_json(classical.top_spectral_family(
        classical.sierpinski3(), [(0.5, 0b001), (1.5, 0b111)]))
    family["unbounded_above"] = flag
    for load, data, key in ((jsonio.load_table, table, "checked"),
                            (jsonio.load_top_family, family,
                             "unbounded_above")):
        with pytest.raises(InputError) as err:
            load(data)
        assert str(err.value) == "expected a boolean"
        assert err.value.witness == {"key": key, "value": flag}


def test_false_flags_are_read_as_false():
    bad = jsonio.load_json(CORPUS / "table_bad_mo2.json")
    assert bad["checked"] is False
    assert jsonio.load_table(bad).values[5] == 2.0
    with pytest.raises(CheckFailure):
        jsonio.load_table({**bad, "checked": True})
    family = jsonio.top_family_to_json(classical.top_spectral_family(
        classical.sierpinski3(), [(0.5, 0b001), (1.5, 0b111)]))
    for flag in (False, True):
        loaded = jsonio.load_top_family({**family, "unbounded_above": flag})
        assert loaded.unbounded_above is flag


@pytest.mark.parametrize("load, data, key, value", [
    (jsonio.load_presheaf,
     {"kind": "spectral", "lattice": "mo2", "grid": [True, 0.5]},
     "grid[0]", True),
    (jsonio.load_matrix, [[True, 0], [0, False]], "matrix[0][0]", True),
    (jsonio.load_family,
     {"lattice": "mo2", "breakpoints": [[1.0, "a"], [False, "1"]]},
     "breakpoints[1]", False),
    (jsonio.load_table, {"lattice": "mo2", "values": {"1": True}},
     "values[1]", True),
    (lambda data: jsonio.load_section(data, dia=fixture_diagram()),
     {"values": {"Az": {"{1}": 1.0, "{2}": False}}}, "values[Az][{2}]",
     False),
], ids=["grid", "matrix entry", "breakpoint", "table value", "section value"])
def test_json_booleans_are_not_reals(load, data, key, value):
    """float() reads true as 1.0, so a boolean where a number belongs ran
    to a verdict."""
    with pytest.raises(InputError) as err:
        load(data)
    assert str(err.value) == "expected a real number"
    assert err.value.witness == {"key": key, "value": value}
    assert type(err.value.witness["value"]) is bool


def test_point_values_forms():
    assert jsonio.load_point_values({"values": {"p": 1}}) == {"p": 1.0}
    assert jsonio.load_point_values({"p": 1}) == {"p": 1.0}
    with pytest.raises(InputError):
        jsonio.load_point_values([1, 2])


def test_diagram_and_section_files(tmp_path):
    dia_blob = {"ambient_dim": 2,
                "contexts": {"Az": [[[0.0, 0.0], [0.0, 1.0]]],
                             "Ax": ["ax.json"]}}
    jsonio.save_json(tmp_path / "ax.json",
                     [[0.5, 0.5], [0.5, 0.5]])
    jsonio.save_json(tmp_path / "diagram.json", dia_blob)

    # save_json sorts keys, so the context order flips; the names do not
    dia = jsonio.load_diagram(str(tmp_path / "diagram.json"))
    assert sorted(c.name for c in dia.contexts) == ["Ax", "Ax&Az", "Az"]

    section = fixture_section(dia)
    sec_blob = jsonio.section_to_json(dia, section,
                                      diagram_ref="diagram.json")
    assert sec_blob["values"]["Az"] == {"{1}": 1.0, "{2}": 2.0, "{1,2}": 2.0}
    path = tmp_path / "section.json"
    jsonio.save_json(path, sec_blob)

    # the diagram ref resolves relative to the section file
    dia2, sec2 = jsonio.load_section(str(path))
    assert sec2 == section
    # or the caller supplies the diagram
    _, sec3 = jsonio.load_section(str(path), dia=dia)
    assert sec3 == section

    with pytest.raises(InputError):
        jsonio.load_section({"values": {}})
    with pytest.raises(InputError):
        jsonio.load_diagram({"nope": 1})


def test_load_generators_forms():
    gens, dim = jsonio.load_generators([[[0.0, 0.0], [0.0, 1.0]]])
    assert dim is None and len(gens) == 1
    gens, dim = jsonio.load_generators(
        {"generators": [[[0.0, 1.0], [1.0, 0.0]]], "dim": 2})
    assert dim == 2
    with pytest.raises(InputError):
        jsonio.load_generators({"dim": 2})


def test_load_presheaf_kinds():
    ps, meta = jsonio.load_presheaf({"kind": "spectral", "lattice": "mo2",
                                     "grid": [0, 1]})
    assert meta["kind"] == "spectral" and meta["grid"] == [0.0, 1.0]
    assert [len(s) for s in ps.sections] == [1, 2, 2, 2, 2, 6]

    space_blob = jsonio.space_to_json(classical.sierpinski3())
    ps2, meta2 = jsonio.load_presheaf({"kind": "functions",
                                       "space": space_blob,
                                       "values": [0, 1]})
    assert meta2["opens"] == [0, 1, 3, 7]
    with pytest.raises(InputError):
        jsonio.load_presheaf({"kind": "functions", "space": space_blob})
    with pytest.raises(InputError):
        jsonio.load_presheaf({"kind": "weird"})
    with pytest.raises(InputError):
        jsonio.load_presheaf({"lattice": "mo2"})
