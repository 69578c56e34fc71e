#!/usr/bin/env python3
"""Regenerate the checked-in corpus/ files.

Every file is produced deterministically (fixed seeds), so a rerun after an
intentional format change shows up as a clean diff.  Run from anywhere:

    python3 scripts/make_corpus.py [outdir]
"""
import random
import sys
from pathlib import Path

import numpy as np

from obslat import classical, corpus, vn
from obslat.context import diagram, section_from_operator
from obslat.jsonio import (family_to_json, lattice_to_json, matrix_to_json,
                           save_json, section_to_json, space_to_json,
                           table_to_json, top_family_to_json)
from obslat.observables import observable
from obslat.spectral import spectral_family

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else \
    Path(__file__).resolve().parent.parent / "corpus"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    wrote = []

    def put(name: str, data) -> None:
        save_json(OUT / name, data)
        wrote.append(name)

    lats = corpus.standard_lattices()
    mo2, b2 = lats["mo2"], lats["b2"]

    # explicit lattice files; bare names ("mo2", "b2", ...) also work anywhere
    # a lattice is expected, these two just pin the on-disk format
    put("mo2.json", lattice_to_json(mo2))
    put("o6.json", lattice_to_json(lats["o6"]))

    put("family_mo2.json", family_to_json(
        spectral_family(mo2, [(1.0, mo2.index("a")), (2.0, mo2.one)]),
        lattice_ref="mo2"))
    put("family_b2.json", family_to_json(
        spectral_family(b2, [(0.5, b2.index("{1}")), (1.5, b2.one)]),
        lattice_ref="b2"))

    # a valid table on mo2, keyed by full ideal member lists
    good = {mo2.index("a"): 1.0, mo2.index("a'"): 2.0, mo2.index("b"): 2.0,
            mo2.index("b'"): 2.0, mo2.one: 2.0}
    put("table_mo2.json",
        table_to_json(observable(mo2, good), lattice_ref="mo2"))
    # same shape but the join law fails on the pair (a, b); checked:false so
    # it loads and `obslat obs check` gets to report the witness
    bad = observable(mo2, {**good, mo2.index("b"): 1.5}, checked=False)
    put("table_bad_mo2.json",
        {**table_to_json(bad, lattice_ref="mo2"), "checked": False})

    rng = random.Random(5)
    put("matrix_a.json", {"matrix": matrix_to_json(
        vn.random_hermitian(rng, 3))})
    # diagonal pair in spectral order: diag(1,1,3) <= diag(1,2,3)
    put("matrix_low.json", {"matrix": matrix_to_json(np.diag([1.0, 1.0, 3.0]))})
    put("matrix_high.json", {"matrix": matrix_to_json(np.diag([1.0, 2.0, 3.0]))})
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    put("proj_q.json", {"matrix": matrix_to_json(np.outer(v, v.conj()))})
    put("gens_diag.json", {
        "dim": 3,
        "generators": [matrix_to_json(np.diag([0.0, 1.0, 2.0]))]})
    # diag(1, -1, 0) and the flip of the first two lines generate M_2 + C,
    # which is not abelian: its algebra takes the Sylvester path
    flip = np.zeros((3, 3))
    flip[0, 1] = flip[1, 0] = 1.0
    put("gens_block.json", {
        "dim": 3,
        "generators": [matrix_to_json(np.diag([1.0, -1.0, 0.0])),
                       matrix_to_json(flip)]})

    sp3 = classical.sierpinski3()
    put("space_sierpinski.json", space_to_json(sp3))
    # constant on the closure-order chain: continuous in the literal sense
    put("fn_flat.json", {"values": {p: 1.0 for p in sp3.points}})
    # injective values break clopenness of every level set
    put("fn_id.json", {"values": {p: float(i)
                                  for i, p in enumerate(sp3.points)}})

    abs_demo = classical.demo_family("abs")
    put("topfam_abs.json", top_family_to_json(abs_demo["family"]))
    # the jump sits at a closed singleton of the line space, so this one
    # fails the continuity check (exit 1 from check-continuity)
    step_line = classical.demo_family("step-line")
    put("topfam_stepline.json", top_family_to_json(step_line["family"]))

    az = np.diag([0.0, 1.0])
    ax = np.array([[0.5, 0.5], [0.5, 0.5]])
    put("diagram_qubit.json", {
        "ambient_dim": 2,
        "contexts": {"Az": [matrix_to_json(az)], "Ax": [matrix_to_json(ax)]}})
    dia = diagram({"Az": [az], "Ax": [ax]}, dim=2)
    clash = {}
    for c in dia.contexts:
        vals = {}
        for e in c.nonzero_elements():
            p = c.projection_of(e)
            if c.name == "Az" and vn.rank_of_projection(p) == 1 and \
                    abs(float(np.real(p[1, 1]))) > 0.5:
                vals[e] = 1.0
            elif c.name == "Ax" and vn.rank_of_projection(p) == 1 and \
                    float(np.real(p[0, 1])) > 0.25:
                vals[e] = 1.5
            else:
                vals[e] = 2.0
        clash[c.name] = vals
    put("section_clash.json", section_to_json(
        dia, clash, diagram_ref="diagram_qubit.json"))

    # shares the Az eigenbasis, so the Az values spread while Ax collapses
    # to the maximum
    op = np.diag([0.3, 1.2])
    put("op_qubit.json", {"matrix": matrix_to_json(op)})
    put("section_operator.json", section_to_json(
        dia, section_from_operator(dia, op),
        diagram_ref="diagram_qubit.json"))

    put("presheaf_mo2.json", {"kind": "spectral", "lattice": "mo2",
                              "grid": [0.0, 1.0]})
    put("presheaf_fn.json", {"kind": "functions",
                             "space": "space_sierpinski.json",
                             "values": [0.0, 1.0]})

    for name in wrote:
        print("wrote", OUT / name)


if __name__ == "__main__":
    main()
