"""Context diagrams, sections, gluing laws, operator extendability."""
import itertools
import json
import math
import random
import time
import tracemalloc
from functools import reduce
from itertools import combinations
from operator import and_
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslat import context as cx
from obslat import jsonio, vn
from obslat.acceptance import fixture_diagram, fixture_section
from obslat.corpus import boolean_algebra
from obslat.errors import InputError, PreconditionError, ResourceError
from test_vn import ref_is_abelian, ref_minimal_projections, same_projections

AZ = np.diag([0.0, 1.0]).astype(complex)
AX = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_diagram_closes_under_intersection():
    dia = fixture_diagram()
    assert [c.name for c in dia.contexts] == ["Az", "Ax", "Ax&Az"]
    assert dia.pool_labels == ("Az:{1}", "Az:{2}", "Az:{1,2}",
                               "Ax:{1}", "Ax:{2}")
    # the intersection of the two masas is the scalars, so no extra
    # scalars context is appended
    inter = dia.context_named("Ax&Az")
    assert len(inter.minimal) == 1
    assert np.allclose(inter.minimal[0], np.eye(2))
    # the pool array is left out of equality and hashing
    assert dia == fixture_diagram() and hash(dia) == hash(fixture_diagram())


def test_intersection_name_ignores_argument_order():
    d1 = cx.diagram({"Az": [AZ], "Ax": [AX]}, dim=2)
    d2 = cx.diagram({"Ax": [AX], "Az": [AZ]}, dim=2)
    assert sorted(c.name for c in d1.contexts) == \
        sorted(c.name for c in d2.contexts) == ["Ax", "Ax&Az", "Az"]


def test_single_context_gets_a_scalars_context():
    dia = cx.diagram({"D": [AZ]}, dim=2)
    assert [c.name for c in dia.contexts] == ["D", "scalars"]


def test_construction_errors():
    with pytest.raises(InputError):
        cx.diagram({})
    with pytest.raises(InputError):
        cx.diagram({"A": [AZ], "B": [np.diag([0.0, 1.0, 2.0])]})
    with pytest.raises(InputError):
        cx.context_from_generators("bad", [AZ, AX])
    with pytest.raises(InputError):       # not normal: g and g* do not commute
        cx.context_from_generators("nilpotent", [np.triu(np.ones((2, 2)), 1)])
    with pytest.raises(ResourceError):
        cx.context_from_generators("big", [np.diag(np.arange(7.0))])


def test_projection_element_bridge():
    dia = fixture_diagram()
    az = dia.context_named("Az")
    for e in az.nonzero_elements():
        assert az.element_of(az.projection_of(e)) == e
    with pytest.raises(PreconditionError):
        az.element_of(dia.context_named("Ax").minimal[0])
    with pytest.raises(InputError):
        dia.context_named("nope")


def test_fixture_section_breaks_the_joint_law_only():
    """The headline example: consistent in every context, no joint refinement.
    The pairwise-commuting law holds, the unrestricted law fails, and no
    selfadjoint operator induces it."""
    dia = fixture_diagram()
    section = fixture_section(dia)
    ok, witness = cx.is_global_section(dia, section)
    assert ok and witness is None
    report = cx.glue_section(dia, section)
    assert report.values == (1.0, 2.0, 2.0, 2.0, 1.5)
    assert report.commuting_ok and report.commuting_witness is None
    assert not report.increasing_ok
    assert report.increasing_witness == {
        "members": ["Az:{1}", "Ax:{2}"], "join": "Az:{1,2}",
        "value": 2.0, "sup_of_values": 1.5}
    assert report.extendable == "no"
    assert report.certificate == {
        "reason": "projection-under-level-join", "projection": "Az:{2}",
        "value": 2.0, "level": 1.5, "join_of": ["Az:{1}", "Ax:{2}"]}
    json.dumps(report.summary())


def test_join_laws_compare_values_exactly():
    """A join valued a hair above its members' sup breaks the law; the
    level join at that value already spans the qubit."""
    dia = fixture_diagram()
    section = fixture_section(dia)
    section["Ax"][2] = 2.0 - 1e-12        # the line of e0 + e1
    assert cx.is_global_section(dia, section)[0]
    report = cx.glue_section(dia, section)
    assert not report.increasing_ok
    assert report.increasing_witness == {
        "members": ["Az:{1}", "Ax:{2}"], "join": "Az:{1,2}",
        "value": 2.0, "sup_of_values": 2.0 - 1e-12}
    assert report.extendable == "no"
    assert report.certificate["level"] == 2.0 - 1e-12


def test_operator_section_round_trip():
    dia = fixture_diagram()
    a = np.diag([0.3, 1.2]).astype(complex)
    section = cx.section_from_operator(dia, a)
    assert section["Az"] == {1: 0.3, 2: 1.2, 3: 1.2}
    assert section["Ax"] == {1: 1.2, 2: 1.2, 3: 1.2}
    ok, _ = cx.is_global_section(dia, section)
    assert ok
    report = cx.glue_section(dia, section)
    assert report.extendable == "yes"
    assert report.certificate == {"reason": "verified-candidate"}
    again = cx.section_from_operator(dia, report.operator)
    assert again == section


def test_identity_operator_values_everything_one():
    dia = fixture_diagram()
    section = cx.section_from_operator(dia, np.eye(2))
    assert all(v == 1.0 for vals in section.values() for v in vals.values())


def test_section_validation():
    dia = fixture_diagram()
    good = fixture_section(dia)
    missing_ctx = {k: dict(v) for k, v in good.items() if k != "Ax"}
    with pytest.raises(InputError):
        cx.is_global_section(dia, missing_ctx)
    partial = {k: dict(v) for k, v in good.items()}
    del partial["Az"][1]
    with pytest.raises(InputError):
        cx.is_global_section(dia, partial)
    for bad in (float("nan"), True):
        wrong = {k: dict(v) for k, v in good.items()}
        wrong["Az"][1] = bad
        with pytest.raises(InputError):
            cx.is_global_section(dia, wrong)


def test_global_section_witness_kinds():
    dia = fixture_diagram()
    good = fixture_section(dia)

    sunk_top = {k: dict(v) for k, v in good.items()}
    sunk_top["Az"][3] = 0.5
    ok, w = cx.is_global_section(dia, sunk_top)
    assert not ok
    assert w == {"kind": "not-increasing-in-context", "context": "Az",
                 "family": ["{1}", "{2}"], "join": "{1,2}",
                 "value": 0.5, "sup_of_values": 2.0}

    clash = {k: dict(v) for k, v in good.items()}
    clash["Ax"] = {e: 3.0
                   for e in dia.context_named("Ax").nonzero_elements()}
    ok, w = cx.is_global_section(dia, clash)
    assert not ok
    assert w == {"kind": "inconsistent-across-contexts",
                 "projection": "Az:{1,2}", "contexts": ["Az", "Ax"],
                 "values": [2.0, 3.0]}
    with pytest.raises(PreconditionError):
        cx.pool_values(dia, clash)


def test_extendability_certificates():
    dia = fixture_diagram()
    # pool order: Az:{1}, Az:{2}, Az:{1,2}, Ax:{1}, Ax:{2}
    verdict, cert, _ = cx._extendability(dia, [1.0, 2.0, 1.0, 1.0, 1.0])
    assert verdict == "no"
    assert cert == {"reason": "projection-under-level-join",
                    "projection": "Az:{2}", "value": 2.0, "level": 1.0,
                    "join_of": ["Az:{1}", "Az:{1,2}", "Ax:{1}", "Ax:{2}"]}
    # two different lines at the low level span the whole space
    verdict, cert, _ = cx._extendability(dia, [1.0, 2.0, 2.0, 2.0, 1.0])
    assert verdict == "no"
    assert cert == {"reason": "projection-under-level-join",
                    "projection": "Az:{2}", "value": 2.0, "level": 1.0,
                    "join_of": ["Az:{1}", "Ax:{2}"]}
    verdict, cert, op = cx._extendability(dia, [1.0, 2.0, 2.0, 2.0, 2.0])
    assert verdict == "yes"
    assert np.allclose(op, np.diag([1.0, 2.0]))


def test_synthesis_guard_raises_on_a_breach(monkeypatch):
    dia = fixture_diagram()
    honest = cx.section_from_operator

    def off_by_one(d, a):
        out = honest(d, a)
        out["Az"][1] += 1.0
        return out

    monkeypatch.setattr(cx, "section_from_operator", off_by_one)
    with pytest.raises(ResourceError) as err:
        cx._extendability(dia, [1.0, 2.0, 2.0, 2.0, 2.0])
    assert err.value.witness == {"projection": "Az:{1}", "value": 1.0,
                                 "induced": 2.0}


def test_dim3_fixture_is_not_extendable():
    """A 45 degree rotation inside the top-left plane: the two low lines,
    of e1 and of e0 - e1, span that plane at level 1.5, and it contains the
    line of e0, valued 2."""
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    u = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    az = np.diag([0.0, 1.0, 2.0]).astype(complex)
    ax = (u @ np.diag([0.0, 1.0, 2.0]) @ u.T).astype(complex)
    dia = cx.diagram({"Az": [az], "Ax": [ax]}, dim=3)
    assert [c_.name for c_ in dia.contexts] == \
        ["Az", "Ax", "Ax&Az", "scalars"]

    lows = {"Az": ([0.0, 1.0, 0.0], 1.0), "Ax": ([c, -s, 0.0], 1.5)}
    section = {}
    for ctx in dia.contexts:
        vals = {e: 2.0 for e in ctx.nonzero_elements()}
        if ctx.name in lows:
            v, low = lows[ctx.name]
            vals[ctx.element_of(np.outer(v, v))] = low
        section[ctx.name] = vals
    ok, _ = cx.is_global_section(dia, section)
    assert ok
    report = cx.glue_section(dia, section)
    assert report.commuting_ok
    assert not report.increasing_ok
    assert report.extendable == "no"
    assert report.certificate == {
        "reason": "projection-under-level-join", "projection": "Az:{1}",
        "value": 2.0, "level": 1.5, "join_of": ["Az:{2}", "Ax:{2}"]}


def random_section(dia, rng, grid):
    """Random atom values extended by the join law; the extension makes each
    per-context table valid by construction, so the only way a sample fails
    to be global is a clash on a projection two contexts share."""
    top = rng.choice(grid[1:])
    low = [g for g in grid if g <= top]
    by_pool: dict[int, float] = {}
    section = {}
    for c in dia.contexts:
        atoms = c.lattice.atoms()
        vals = {}
        fresh = []
        for e in atoms:
            i = dia.element_pool[(c.name, e)]
            if i in by_pool:
                vals[e] = by_pool[i]
            else:
                vals[e] = rng.choice(low)
                by_pool[i] = vals[e]
                fresh.append(e)
        # the identity is shared by every context, so each one must reach
        # the value already pinned there (or the drawn top on first touch)
        need = by_pool.get(dia.element_pool[(c.name, c.lattice.one)], top)
        if fresh and max(vals[t] for t in atoms) < need:
            e = rng.choice(fresh)
            vals[e] = need
            by_pool[dia.element_pool[(c.name, e)]] = need
        for e in c.nonzero_elements():
            if e not in vals:
                vals[e] = max(vals[t] for t in atoms if c.lattice.le(t, e))
                by_pool.setdefault(dia.element_pool[(c.name, e)], vals[e])
        section[c.name] = vals
    return section


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 4), seed=st.integers(0, 10 ** 6),
       from_operator=st.booleans())
def test_extendability_verdicts_carry_their_proofs(dim, seed, from_operator):
    rng = random.Random(seed)
    dia = cx.diagram({"A": [vn.random_hermitian(rng, dim)],
                      "B": [vn.random_hermitian(rng, dim)]}, dim=dim)
    if from_operator:
        section = cx.section_from_operator(dia, vn.random_hermitian(rng, dim))
    else:
        section = random_section(dia, rng, [0.0, 0.5, 1.0, 1.5])
    if not cx.is_global_section(dia, section)[0]:
        return
    values = cx.pool_values(dia, section)
    verdict, cert, op = cx._extendability(dia, values)
    assert verdict == "yes" or not from_operator
    if verdict == "yes":
        again = cx.pool_values(dia, cx.section_from_operator(dia, op))
        assert np.allclose(again, values, rtol=0, atol=dia.tol.cluster)
        return
    assert cert["value"] > cert["level"]
    assert cert["join_of"] == [lab for lab, v in zip(dia.pool_labels, values)
                               if v <= cert["level"]]
    p = dia.pool[dia.pool_labels.index(cert["projection"])]
    m = vn.projection_join([dia.pool[dia.pool_labels.index(lab)]
                            for lab in cert["join_of"]], dia.tol)
    assert vn.projection_leq(p, m, dia.tol)


def test_operator_dimension_mismatch():
    dia = fixture_diagram()
    with pytest.raises(InputError) as err:
        cx.section_from_operator(dia, np.diag([0.0, 1.0, 2.0]))
    assert str(err.value) == "operator dimension mismatch"
    assert err.value.witness == [3, 2]
    # the Hermitian check comes first
    with pytest.raises(InputError) as err:
        cx.section_from_operator(dia, np.triu(np.ones((3, 3))))
    assert str(err.value).startswith("matrix is not Hermitian")


def test_section_checks_the_operator_once(monkeypatch):
    seen = []
    check = vn.check_hermitian

    def counted(a, tol=vn.TOL):
        seen.append(np.asarray(a, dtype=complex))
        return check(a, tol)

    monkeypatch.setattr(vn, "check_hermitian", counted)
    # context may hold its own reference to the check
    monkeypatch.setattr(cx, "check_hermitian", counted, raising=False)
    a = np.diag([0.5, 2.0]).astype(complex)
    cx.section_from_operator(fixture_diagram(), a)
    assert sum(np.array_equal(x, a) for x in seen) == 1


def test_empty_generators_are_refused():
    with pytest.raises(InputError) as err:
        cx.diagram({"E": [np.zeros((0, 0))]})
    assert str(err.value) == "dimension must be positive"
    assert err.value.witness == 0


def test_scalars_come_from_a_one_dimensional_context(monkeypatch):
    built = []
    shared = cx._shared_context
    monkeypatch.setattr(cx, "_shared_context",
                        lambda name, *args: built.append(name)
                        or shared(name, *args))
    dia = fixture_diagram()
    assert [c.name for c in dia.contexts] == ["Az", "Ax", "Ax&Az"]
    assert built == ["Ax&Az"]


# -- the gluing scan against the subset scan it replaced -------------------------

def linear_pool_index(pool, p, tol):
    """The former pool lookup, kept as the oracle: the index of the first
    pool projection within ``tol.proj`` of p, by a linear norm scan."""
    for i, q in enumerate(pool):
        if float(np.linalg.norm(q - p)) <= tol.proj:
            return i
    return None


def _commutes(p, q, tol):
    return float(np.linalg.norm(p @ q - q @ p)) <= tol.sub


def subset_scan_glue(dia, section):
    """The former scan, kept as the oracle: every subset for pools of 12 or
    fewer, pairs and triples above that."""
    values = cx.pool_values(dia, section)
    tol = dia.tol
    n = len(dia.pool)

    commuting_ok, commuting_witness = True, None
    if n <= 12:
        subsets = []
        for size in range(2, n + 1):
            subsets.extend(combinations(range(n), size))
    else:
        subsets = list(combinations(range(n), 2))
        subsets += list(combinations(range(n), 3))
    for sub in subsets:
        if not all(_commutes(dia.pool[i], dia.pool[j], tol)
                   for i, j in combinations(sub, 2)):
            continue
        j = linear_pool_index(dia.pool, vn.projection_join(
            [dia.pool[i] for i in sub], tol), tol)
        if j is None:
            continue
        expect = max(values[i] for i in sub)
        if values[j] != expect:
            commuting_ok = False
            commuting_witness = {
                "members": [dia.pool_labels[i] for i in sub],
                "join": dia.pool_labels[j],
                "value": values[j], "sup_of_values": expect}
            break

    increasing_ok, increasing_witness = True, None
    for i, k in combinations(range(n), 2):
        j = linear_pool_index(dia.pool, vn.projection_join(
            [dia.pool[i], dia.pool[k]], tol), tol)
        if j is None:
            continue
        expect = max(values[i], values[k])
        if values[j] != expect:
            increasing_ok = False
            increasing_witness = {
                "members": [dia.pool_labels[i], dia.pool_labels[k]],
                "join": dia.pool_labels[j],
                "value": values[j], "sup_of_values": expect}
            break

    extendable, certificate, _ = cx._extendability(dia, values)
    return {"commuting_ok": commuting_ok,
            "commuting_witness": commuting_witness,
            "increasing_ok": increasing_ok,
            "increasing_witness": increasing_witness,
            "extendable": extendable, "certificate": certificate}


def pair_loop_global_section(dia, section):
    """The former in-context check, one join per pair, kept as the oracle."""
    for c in dia.contexts:
        vals = section[c.name]
        lat = c.lattice
        for x, y in combinations(c.nonzero_elements(), 2):
            j = lat.join(x, y)
            expect = max(vals[x], vals[y])
            if vals[j] != expect:
                return False, {
                    "kind": "not-increasing-in-context",
                    "context": c.name,
                    "family": [lat.names[x], lat.names[y]],
                    "join": lat.names[j],
                    "value": vals[j], "sup_of_values": expect}
    return cx.is_global_section(dia, section)


def planes_diagram(dim, angles):
    """Three contexts in dim >= 3; context k keeps basis line k and turns the
    plane of the other two of the first three lines by angles[k].  Their
    lines commute across contexts without sharing one, and the joins land in
    the third context."""
    gens = {}
    for k, name in enumerate("XYZ"):
        i, j = [m for m in range(3) if m != k]
        u = np.eye(dim, dtype=complex)
        c, s = np.cos(angles[k]), np.sin(angles[k])
        u[[i, i, j, j], [i, j, i, j]] = [c, -s, s, c]
        gens[name] = [(u * np.arange(dim)) @ u.conj().T]
    return cx.diagram(gens, dim=dim)


@st.composite
def glue_cases(draw):
    """A diagram (two random contexts, optionally a third diagonal one, or
    three turned planes in dim 3) and a section on it.  Planes stay at dim 3:
    in dim 4 their 15 diagonal projections all commute, and though the
    pruned scan glues such a section quickly, the subset oracle walks every
    pair and triple and the complete scan about 33,000 families."""
    dim = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    shape = draw(st.sampled_from(["pair", "diagonal", "planes"]))
    if shape == "planes" and dim == 3:
        dia = planes_diagram(dim, [rng.uniform(0.2, 1.4) for _ in range(3)])
    else:
        gens = {"A": [vn.random_hermitian(rng, dim)],
                "B": [vn.random_hermitian(rng, dim)]}
        if shape == "diagonal":
            diag = [float(rng.randrange(3)) for _ in range(dim)]
            gens["D"] = [np.diag(diag).astype(complex)]
        dia = cx.diagram(gens, dim=dim)
    if draw(st.booleans()):
        section = cx.section_from_operator(dia, vn.random_hermitian(rng, dim))
    else:
        section = random_section(dia, rng, [0.0, 0.5, 1.0, 1.5])
    return dia, section


def assert_agrees_with_subset_scan(dia, got, want):
    if len(dia.pool) <= 12 or want["commuting_witness"] is not None:
        assert got == want
    else:
        # the oracle stops at triples; any witness it lacks is larger
        assert {k: v for k, v in got.items() if "commuting" not in k} == \
            {k: v for k, v in want.items() if "commuting" not in k}
        if got["commuting_witness"] is not None:
            assert len(got["commuting_witness"]["members"]) > 3


@settings(max_examples=40, deadline=None)
@given(case=glue_cases())
def test_glue_scan_matches_the_subset_scan(case):
    dia, section = case
    if not cx.is_global_section(dia, section)[0]:
        return
    assert_agrees_with_subset_scan(dia, cx.glue_section(dia, section).summary(),
                                   subset_scan_glue(dia, section))


@settings(max_examples=80, deadline=None)
@given(case=glue_cases(), nudge=st.integers(0, 10 ** 6))
def test_in_context_check_matches_the_pair_loop(case, nudge):
    dia, section = case
    rng = random.Random(nudge)
    c = rng.choice(dia.contexts)
    e = rng.choice(c.nonzero_elements())
    section[c.name][e] += rng.choice([-1.0, -0.5, 0.0, 0.5])
    assert cx.is_global_section(dia, section) == \
        pair_loop_global_section(dia, section)


def cross_context_witness_case():
    """A dim-3 three-plane section whose commuting-law witness is a
    cross-context pair."""
    dia = planes_diagram(3, [np.pi / 4] * 3)
    # atom values: X's e0 2, Y's e0 - e2 2, Z's e0 + e1 1 and e2 2, others 0
    lines = {"X": [2.0, 0.0, 0.0], "Y": [0.0, 0.0, 2.0], "Z": [1.0, 0.0, 2.0]}
    section = {c.name: {e: max(lines.get(c.name, [2.0])[i] for i in cx.bits(e))
                        for e in c.nonzero_elements()}
               for c in dia.contexts}
    return dia, section


def test_cross_context_commuting_family_breaks_the_law():
    """X:{1} and Y:{2} are the lines of e0 and e1: they commute, share no
    context, and join to Z's plane of e0 and e1, valued below them."""
    dia, section = cross_context_witness_case()
    assert cx.is_global_section(dia, section)[0]
    got = cx.glue_section(dia, section).summary()
    assert got == subset_scan_glue(dia, section)
    assert got["commuting_witness"] == {
        "members": ["X:{1}", "Y:{2}"], "join": "Z:{1,2}",
        "value": 1.0, "sup_of_values": 2.0}


def test_first_failure_can_be_a_triple_whose_pairs_escape_the_pool():
    """Context k keeps basis line k (valued 0 in A, B and C) and turns the
    other three lines at random (valued 1).  The lines of A, B and C
    commute, their pairwise joins are in no context, and all three join to
    D's complement of line 3, valued 1; no pair fails before that."""
    rng = np.random.default_rng(5)
    gens = {}
    for k, name in enumerate("ABCD"):
        rest = [m for m in range(4) if m != k]
        q = np.linalg.qr(rng.normal(size=(3, 3))
                         + 1j * rng.normal(size=(3, 3)))[0]
        a = np.zeros((4, 4), dtype=complex)
        a[np.ix_(rest, rest)] = (q * [1.0, 2.0, 3.0]) @ q.conj().T
        gens[name] = [a]
    dia = cx.diagram(gens, dim=4)
    lines = {name: np.diag(np.eye(4)[k]) for k, name in enumerate("ABC")}
    section = {}
    for c in dia.contexts:
        w = [0.0 if c.name in lines
             and np.linalg.norm(m - lines[c.name]) <= dia.tol.proj else 1.0
             for m in c.minimal]
        section[c.name] = {e: max(w[i] for i in cx.bits(e))
                           for e in c.nonzero_elements()}
    assert cx.is_global_section(dia, section)[0]
    got = cx.glue_section(dia, section).summary()
    assert got == complete_glue(dia, section) == subset_scan_glue(dia, section)
    witness = got["commuting_witness"]
    stack = [dia.pool[dia.pool_labels.index(lab)]
             for lab in witness["members"] + [witness["join"]]]
    assert np.allclose(stack, [*lines.values(), np.diag([1, 1, 1, 0])])
    assert (witness["value"], witness["sup_of_values"]) == (1.0, 0.0)


def diagonal_sections(dia):
    """The section of diag(0, 1, ..., d-1) on a planes diagram, and the same
    section with Z:{1} lowered by 1.0: still global and not extendable, so
    its join laws are scanned."""
    section = cx.section_from_operator(dia, np.diag(np.arange(dia.dim * 1.0)))
    lowered = {name: dict(vals) for name, vals in section.items()}
    z1 = dia.pool_labels.index("Z:{1}")
    for (name, e), i in dia.element_pool.items():
        if i == z1:
            lowered[name][e] -= 1.0
    return section, lowered


def test_glue_work_cap_raises(monkeypatch):
    """A cap of one family per pool entry covers the singletons only; the
    first pair goes over it."""
    dia = planes_diagram(3, [0.3, 0.7, 1.1])
    section = diagonal_sections(dia)[1]
    assert cx.glue_section(dia, section).commuting_ok
    monkeypatch.setattr(cx, "GLUE_WORK_CAP", len(dia.pool))
    with pytest.raises(ResourceError) as err:
        cx.glue_section(dia, section)
    assert err.value.witness == {"cap": len(dia.pool)}


def test_dim6_two_context_glue_is_complete_and_quick():
    rng = random.Random(3)
    dia = cx.diagram({"A": [vn.random_hermitian(rng, 6)],
                      "B": [vn.random_hermitian(rng, 6)]}, dim=6)
    assert len(dia.pool) == 125
    section = cx.section_from_operator(dia, vn.random_hermitian(rng, 6))
    t0 = time.perf_counter()
    report = cx.glue_section(dia, section)
    assert time.perf_counter() - t0 < 5.0
    assert report.commuting_ok and report.increasing_ok
    assert report.extendable == "yes"


# -- the pruned scan against the complete scan it replaced -----------------------

def ref_commuting_families(comm, in_ctx):
    """The complete scan's family stream, kept as the oracle: pairwise
    commuting families, one list per family size, in (size, index) order,
    grown from the empty family, which every context holds (mask -1).  A
    family stops growing once one context holds it and every later entry
    commuting with it, since all its extensions then lie there.  Past
    ``GLUE_WORK_CAP`` families the list drawn so far still comes out, then
    ``ResourceError`` is raised."""
    level, drawn = [((), -1, range(len(comm)))], 0
    while level:
        fams, grown = [], []
        for fam, shared, cands in level:
            for pos, m in enumerate(cands):
                if drawn + len(fams) >= cx.GLUE_WORK_CAP:
                    yield fams
                    raise ResourceError("gluing scan over its work cap",
                                        witness={"cap": cx.GLUE_WORK_CAP})
                fams.append(fam + (m,))
                later = [k for k in cands[pos + 1:] if comm[m][k]]
                if later and not reduce(and_, (in_ctx[k] for k in later),
                                        shared & in_ctx[m]):
                    grown.append((fams[-1], shared & in_ctx[m], later))
        yield fams
        drawn += len(fams)
        level = grown


def ref_first_failure(dia, values, in_ctx, levels):
    """The complete scan's body, kept as the oracle: every family of
    ``levels`` outside one context, ``_CHUNK`` at a time, each chunk joined
    with one SVD call and matched against the pool at once."""
    vals, masks = np.array(values), np.array(in_ctx)
    for level in levels:
        level = iter(level)
        while chunk := list(itertools.islice(level, cx._CHUNK)):
            fams = np.array(chunk)
            fams = fams[np.bitwise_and.reduce(masks[fams], axis=1) == 0]
            if not len(fams):
                continue
            j = cx._first_match(dia.pool, vn.projection_joins(
                dia.pool[fams], dia.tol), dia.tol)
            fail = (j >= 0) & (vals[j] != vals[fams].max(axis=1))
            if fail.any():
                k = fail.argmax()
                fam, j = fams[k].tolist(), int(j[k])
                return {"members": [dia.pool_labels[i] for i in fam],
                        "join": dia.pool_labels[j], "value": values[j],
                        "sup_of_values": max(values[i] for i in fam)}
    return None


def scan_inputs(dia):
    """Context bitmask per pool entry and the pairwise commutation rows, as
    the complete scan built them."""
    bit = {c.name: 1 << k for k, c in enumerate(dia.contexts)}
    in_ctx = [0] * len(dia.pool)
    for (name, _), i in dia.element_pool.items():
        in_ctx[i] |= bit[name]
    stack = np.array(dia.pool)
    comm = [np.linalg.norm(stack @ p - p @ stack, axis=(1, 2)) <= dia.tol.sub
            for p in stack]
    return in_ctx, comm


def complete_glue(dia, section):
    """``glue_section`` over the complete scan."""
    values = cx.pool_values(dia, section)
    in_ctx, comm = scan_inputs(dia)
    commuting = ref_first_failure(dia, values, in_ctx,
                                  ref_commuting_families(comm, in_ctx))
    increasing = ref_first_failure(dia, values, in_ctx,
                                   [combinations(range(len(values)), 2)])
    extendable, certificate, _ = cx._extendability(dia, values)
    return {"commuting_ok": commuting is None,
            "commuting_witness": commuting,
            "increasing_ok": increasing is None,
            "increasing_witness": increasing,
            "extendable": extendable, "certificate": certificate}


def per_family_first_failure(dia, values, in_ctx, families):
    """The scan body before batching, kept as the oracle: one join and one
    linear pool lookup per family."""
    for fam in families:
        if reduce(and_, (in_ctx[i] for i in fam)):
            continue
        j = linear_pool_index(dia.pool, vn.projection_join(
            [dia.pool[i] for i in fam], dia.tol), dia.tol)
        if j is None:
            continue
        expect = max(values[i] for i in fam)
        if values[j] != expect:
            return {"members": [dia.pool_labels[i] for i in fam],
                    "join": dia.pool_labels[j],
                    "value": values[j], "sup_of_values": expect}
    return None


def per_family_glue(dia, section):
    """``glue_section`` before batching, over the complete family stream."""
    values = cx.pool_values(dia, section)
    in_ctx, comm = scan_inputs(dia)
    commuting = per_family_first_failure(
        dia, values, in_ctx,
        itertools.chain.from_iterable(ref_commuting_families(comm, in_ctx)))
    increasing = per_family_first_failure(
        dia, values, in_ctx, combinations(range(len(values)), 2))
    extendable, certificate, _ = cx._extendability(dia, values)
    return {"commuting_ok": commuting is None,
            "commuting_witness": commuting,
            "increasing_ok": increasing is None,
            "increasing_witness": increasing,
            "extendable": extendable, "certificate": certificate}


def glue_outcome(glue, dia, section):
    """The report's summary, or the witness of the ``ResourceError``."""
    try:
        out = glue(dia, section)
    except ResourceError as err:
        return "over the cap", err.witness
    return "report", out if isinstance(out, dict) else out.summary()


@settings(max_examples=40, deadline=None)
@given(case=glue_cases(), cap=st.integers(1, 300),
       chunk=st.sampled_from([3, 64, cx._CHUNK]))
def test_batched_scan_matches_the_per_family_scan(case, cap, chunk):
    """Uncapped, the pruned scan gives the complete scan's verdicts and
    witnesses, also with chunks small enough that a scan crosses many chunk
    boundaries.  Under a cap it draws fewer families than the complete
    scan: it never raises where the complete scan reports, and each report
    it gives is the uncapped one."""
    dia, section = case
    if not cx.is_global_section(dia, section)[0]:
        return
    saved = cx.GLUE_WORK_CAP, cx._CHUNK
    cx._CHUNK = chunk
    try:
        want = glue_outcome(per_family_glue, dia, section)
        assert glue_outcome(cx.glue_section, dia, section) == \
            glue_outcome(complete_glue, dia, section) == want
        cx.GLUE_WORK_CAP = cap
        got = glue_outcome(cx.glue_section, dia, section)
        complete = glue_outcome(complete_glue, dia, section)
    finally:
        cx.GLUE_WORK_CAP, cx._CHUNK = saved
    if got[0] == "report":
        assert got == want
    else:
        assert complete == got == ("over the cap", {"cap": cap})


@pytest.mark.parametrize("name", ["section_clash", "section_operator"])
def test_batched_scan_matches_the_per_family_scan_on_the_corpus(name):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    dia, section = jsonio.load_section(str(corpus / f"{name}.json"))
    assert glue_outcome(cx.glue_section, dia, section) == \
        glue_outcome(per_family_glue, dia, section)


def nudged(rng, p, factor, tol):
    """p moved by factor * tol.proj in Frobenius norm, along a random
    Hermitian direction."""
    h = vn.random_hermitian(rng, p.shape[0])
    return p + factor * tol.proj * h / np.linalg.norm(h)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 4), seed=st.integers(0, 10 ** 6),
       factors=st.lists(st.sampled_from([0.5, 0.99, 1.01, 2.0]),
                        min_size=1, max_size=4))
def test_pool_lookup_matches_the_linear_scan(dim, seed, factors):
    """Duplicated entries (the first wins), entries and queries nudged to
    either side of tol.proj, and queries that miss the pool."""
    rng = random.Random(seed)
    tol = vn.TOL
    base = [vn.random_projection(rng, dim) for _ in range(4)]
    entries = base + [rng.choice(base) for _ in range(2)]
    entries += [nudged(rng, rng.choice(base), f, tol) for f in factors]
    rng.shuffle(entries)
    pool = np.array(entries)
    queries = entries + [nudged(rng, p, f, tol) for p in base for f in factors]
    queries += [vn.random_projection(rng, dim) for _ in range(3)]
    want = [linear_pool_index(pool, q, tol) for q in queries]
    got = cx._first_match(pool, np.array(queries), tol)
    assert [None if j < 0 else j for j in got.tolist()] == want
    dia = cx.ContextDiagram(dim, (), pool, tuple(map(str, range(len(pool)))),
                            {}, tol)
    assert [dia.pool_index_of(q) for q in queries] == want


def test_cap_right_after_a_failing_family_returns_its_witness(monkeypatch):
    """The smallest cap at which the witness comes back falls after the
    singletons and no later than on the complete stream, and the stream
    goes on past it (a non-extendable section whose commuting law holds
    draws the same families and raises there); one family earlier, the cap
    raises."""
    dia, section = cross_context_witness_case()
    witness = cx.glue_section(dia, section).commuting_witness
    in_ctx, comm = scan_inputs(dia)
    families = list(itertools.chain.from_iterable(
        ref_commuting_families(comm, in_ctx)))
    complete_at = 1 + families.index(tuple(dia.pool_labels.index(lab)
                                           for lab in witness["members"]))

    def outcome(cap, sec=section):
        monkeypatch.setattr(cx, "GLUE_WORK_CAP", cap)
        return glue_outcome(cx.glue_section, dia, sec)

    at = next(cap for cap in range(1, complete_at + 1)
              if outcome(cap)[0] == "report")
    assert len(dia.pool) < at <= complete_at
    assert outcome(at)[1]["commuting_witness"] == witness
    assert outcome(at - 1) == ("over the cap", {"cap": at - 1})
    passing = diagonal_sections(dia)[1]
    assert outcome(at, passing) == ("over the cap", {"cap": at})


def clique_sections():
    """The dim-4 three-plane diagram, its 15 diagonal projections pairwise
    commuting with no context covering them, with the section of
    diag(0, 1, 2, 3), and the same section with Z:{1} lowered by 1.0: still
    global, not extendable, its commuting law holding and its increasing
    law failing."""
    dia = planes_diagram(4, [0.3, 0.8, 1.2])
    return (dia, *diagonal_sections(dia))


def test_dim4_three_plane_clique_glues_in_bounded_memory():
    """The lowered section is not extendable, so gluing it runs the scans.
    The complete commuting scan walks about 33,000 commuting families here;
    the pruned one stops each family at its first join in the pool."""
    dia, _, lowered = clique_sections()
    tracemalloc.start()
    try:
        got = cx.glue_section(dia, lowered).summary()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got["extendable"] == "no" and got["commuting_ok"]
    assert_agrees_with_subset_scan(dia, got, subset_scan_glue(dia, lowered))
    assert peak < 16 * 2 ** 20


def test_dim4_three_plane_clique_glues_quickly():
    dia, section, lowered = clique_sections()
    assert cx.is_global_section(dia, lowered)[0]
    for sec in (section, lowered):
        t0 = time.perf_counter()
        got = cx.glue_section(dia, sec).summary()
        assert time.perf_counter() - t0 < 0.1
        assert got == complete_glue(dia, sec)
    assert got["extendable"] == "no" and got["commuting_ok"]
    assert not got["increasing_ok"]


# -- extendability first, the join-law scans as its oracle -----------------------

def scan_witnesses(dia, values):
    """Both join-law scans, run whatever the extendability verdict."""
    cross, comm = dia._relations
    return (cx._first_failure(dia, values, cross & comm, True),
            cx._first_failure(dia, values, cross, False))


@st.composite
def extendability_cases(draw):
    """A glue case, an operator section on two random contexts in dims 2-5,
    or such a section with one pool value moved to another value of the
    section or half a unit off it."""
    kind = draw(st.sampled_from(["glue case", "operator", "moved"]))
    if kind == "glue case":
        return draw(glue_cases())
    dim = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    dia = cx.diagram({"A": [vn.random_hermitian(rng, dim)],
                      "B": [vn.random_hermitian(rng, dim)]}, dim=dim)
    section = cx.section_from_operator(dia, vn.random_hermitian(rng, dim))
    if kind == "moved":
        values = sorted({v for vals in section.values() for v in vals.values()})
        i = rng.randrange(len(dia.pool))
        to = rng.choice(values + [values[0] - 0.5, values[-1] + 0.5])
        for (name, e), k in dia.element_pool.items():
            if k == i:
                section[name][e] = to
    return dia, section


@settings(max_examples=100, deadline=None)
@given(case=extendability_cases())
def test_scans_find_no_failure_where_an_operator_extends(case):
    """The report's witnesses are the scans' on every global section, and on
    "yes", where the scans are skipped, neither scan finds a failure."""
    dia, section = case
    if not cx.is_global_section(dia, section)[0]:
        return
    report = cx.glue_section(dia, section)
    want = scan_witnesses(dia, cx.pool_values(dia, section))
    assert (report.commuting_witness, report.increasing_witness) == want
    if report.extendable == "yes":
        assert want == (None, None)


def test_scans_run_only_on_no_or_a_loose_match(monkeypatch):
    """No scan on "yes" under ``TOL``; both when ``tol.proj`` is raised to
    ``tol.sub``, and on "no"."""
    calls = []
    scan = cx._first_failure
    monkeypatch.setattr(cx, "_first_failure",
                        lambda *args: calls.append(args) or scan(*args))
    for tol, want in ((vn.TOL, 0), (vn.TOL.scaled(proj=vn.TOL.sub), 2)):
        dia = cx.diagram({"Az": [AZ], "Ax": [AX]}, dim=2, tol=tol)
        calls.clear()
        report = cx.glue_section(
            dia, cx.section_from_operator(dia, np.diag([0.3, 1.2])))
        assert report.extendable == "yes" and len(calls) == want
        assert report.commuting_ok and report.increasing_ok
    dia = fixture_diagram()
    calls.clear()
    assert cx.glue_section(dia, fixture_section(dia)).extendable == "no"
    assert len(calls) == 2


def six_levels(rng, dim):
    """dim values from 0..5, each at least once, in random order."""
    return rng.permutation(np.concatenate(
        [np.arange(6), rng.integers(0, 6, dim - 6)])).astype(float)


def dimension_16_cases():
    """Eight random six-level contexts and four diagonal ones in dim 16,
    each diagram with an operator."""
    rng = np.random.default_rng(16)
    unitaries = [np.linalg.qr(rng.normal(size=(16, 16))
                              + 1j * rng.normal(size=(16, 16)))[0]
                 for _ in range(8)]
    yield (cx.diagram({f"C{k}": [(u * six_levels(rng, 16)) @ u.conj().T]
                       for k, u in enumerate(unitaries)}, dim=16),
           vn.random_hermitian(random.Random(16), 16))
    yield (cx.diagram({f"D{k}": [np.diag(six_levels(rng, 16)).astype(complex)]
                       for k in range(4)}, dim=16),
           np.diag(np.arange(1.0, 17.0)))


def test_operator_sections_glue_quickly_at_dimension_16():
    """Eight random contexts (pool 497), whose increasing scan took about
    18 s, and four diagonal ones, each a six-block partition of the 16
    coordinates, whose commuting scan reached ``GLUE_WORK_CAP``: an
    operator's section is "yes" without either scan.  The synthesized
    operator's breakpoints come from ``eigh``, so it gives the section back
    within ``tol.cluster``.  A non-extendable section on a small diagram
    still gets the complete scan's witnesses."""
    pools = []
    for dia, a in dimension_16_cases():
        pools.append(len(dia.pool))
        section = cx.section_from_operator(dia, a)
        t0 = time.perf_counter()
        report = cx.glue_section(dia, section)
        assert time.perf_counter() - t0 < 0.5
        assert report.extendable == "yes"
        assert report.commuting_ok and report.increasing_ok
        again = cx.section_from_operator(dia, report.operator)
        assert max(abs(again[name][e] - v) for name, vals in section.items()
                   for e, v in vals.items()) <= dia.tol.cluster
    assert pools[0] == 497
    small = planes_diagram(3, [0.3, 0.7, 1.1])
    for dia, section in ((small, diagonal_sections(small)[1]),
                         cross_context_witness_case()):
        assert cx.glue_section(dia, section).summary() == \
            complete_glue(dia, section)


def test_scan_walks_the_related_families_in_scan_order(monkeypatch):
    """With every join escaping the pool, the scan with ``grow`` draws
    exactly the families of two or more entries pairwise related by
    ``adj``, in (size, index) order; without it, the related pairs."""
    n = 9
    rng = random.Random(7)
    adj = np.zeros((n, n), dtype=bool)
    for i, k in combinations(range(n), 2):
        adj[i, k] = adj[k, i] = rng.random() < 0.6
    pool = np.array([np.diag(row).astype(complex) for row in np.eye(n)])
    dia = cx.ContextDiagram(n, (), pool, tuple(map(str, range(n))), {}, vn.TOL)
    drawn = []

    def joins_escaping_the_pool(ps, tol):
        drawn.extend(tuple(int(np.diagonal(p).real.argmax()) for p in fam)
                     for fam in ps)
        return np.zeros_like(ps[:, 0])

    monkeypatch.setattr(cx, "projection_joins", joins_escaping_the_pool)
    monkeypatch.setattr(cx, "_CHUNK", 4)
    for grow, sizes in ((False, [2]), (True, range(2, n + 1))):
        drawn.clear()
        assert cx._first_failure(dia, [0.0] * n, adj, grow) is None
        assert drawn == [fam for size in sizes
                         for fam in combinations(range(n), size)
                         if all(adj[i, k] for i, k in combinations(fam, 2))]
    assert len(drawn[-1]) > 3


# -- the pool-wide section against the per-context loop it replaced --------------

def ref_section_from_operator(dia, a):
    """``section_from_operator`` as the loop it replaced: every element of
    every context checked against the breakpoints from the bottom up."""
    a = vn.check_hermitian(a, dia.tol)
    if a.shape[0] != dia.dim:
        raise InputError("operator dimension mismatch",
                         witness=[int(a.shape[0]), dia.dim])
    fam = vn.spectral_family_of(a, dia.tol)
    out = {}
    for c in dia.contexts:
        vals = {}
        for e in c.nonzero_elements():
            p = c.projection_of(e)
            for mu, proj in zip(fam.breakpoints, fam.projections):
                if vn.projection_leq(p, proj, dia.tol):
                    vals[e] = float(mu)
                    break
        out[c.name] = vals
    return out


def assert_section_matches_the_loop(dia, a):
    got, want = cx.section_from_operator(dia, a), ref_section_from_operator(dia, a)
    assert got == want
    assert list(got) == list(want)
    assert [list(v) for v in got.values()] == [list(v) for v in want.values()]


def sample_operators(dia, rng):
    """A random operator, one with a degenerate spectrum in a random basis,
    and one built from a context's minimal projections, whose eigenspaces
    hold that context's projections exactly."""
    u = np.linalg.eigh(vn.random_hermitian(rng, dia.dim))[1]
    levels = [float(rng.randrange(3)) for _ in range(dia.dim)]
    c = rng.choice(dia.contexts)
    return [vn.random_hermitian(rng, dia.dim), (u * levels) @ u.conj().T,
            sum(float(rng.randrange(3)) * q for q in c.minimal)]


@pytest.mark.parametrize("name", ["section_clash", "section_operator"])
def test_section_matches_the_loop_on_the_corpus(name):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    dia, _ = jsonio.load_section(str(corpus / f"{name}.json"))
    ops = [jsonio.load_matrix(str(corpus / "op_qubit.json")), np.eye(2),
           np.diag([0.3, 1.2])] + sample_operators(dia, random.Random(name))
    for a in ops:
        assert_section_matches_the_loop(dia, a)


@settings(max_examples=40, deadline=None)
@given(case=glue_cases(), seed=st.integers(0, 10 ** 6))
def test_section_matches_the_loop(case, seed):
    dia, _ = case
    for a in sample_operators(dia, random.Random(seed)):
        assert_section_matches_the_loop(dia, a)


@pytest.mark.parametrize("seed", range(3))
def test_section_matches_the_loop_on_four_dimensional_planes(seed):
    rng = random.Random(seed)
    dia = planes_diagram(4, [rng.uniform(0.2, 1.4) for _ in range(3)])
    for a in [np.diag([0.0, 1.0, 2.0, 3.0]), np.diag([0.0, 0.0, 1.0, 1.0])] + \
            sample_operators(dia, rng):
        assert_section_matches_the_loop(dia, a)


def test_section_matches_the_loop_at_dimension_16():
    """Both dim-16 diagrams, each with its operator, one with six repeated
    eigenvalues in a random basis, and the sampled operators."""
    rng = random.Random(16)
    for dia, a in dimension_16_cases():
        u = np.linalg.eigh(vn.random_hermitian(rng, 16))[1]
        levels = six_levels(np.random.default_rng(rng.randrange(100)), 16)
        for b in [a, (u * levels) @ u.conj().T] + sample_operators(dia, rng):
            assert_section_matches_the_loop(dia, b)


@pytest.mark.parametrize("angle, lower", [(0.5, True), (2.0, False)])
def test_section_range_test_sits_at_the_sub_tolerance(angle, lower):
    """An eigenbasis turned by t against the diagonal context moves its lines
    by sin t out of the eigenspaces: within ``tol.sub`` the line takes the
    eigenvalue, past it the next breakpoint up."""
    dia = cx.diagram({"D": [np.diag([0.0, 1.0]).astype(complex)]}, dim=2)
    t = angle * dia.tol.sub
    u = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    a = (u * [0.0, 1.0]) @ u.T
    section = cx.section_from_operator(dia, a)
    assert section["D"][dia.context_named("D").element_of(
        np.diag([1.0, 0.0]))] == (0.0 if lower else 1.0)
    assert_section_matches_the_loop(dia, a)


def test_contexts_sharing_a_pool_projection_give_it_one_value():
    """In the dim-4 planes diagram every context holds the identity, and
    the diagonal lines and planes lie in several contexts."""
    dia = planes_diagram(4, [0.3, 0.8, 1.2])
    section = cx.section_from_operator(dia, np.diag([0.0, 1.0, 2.0, 3.0]))
    values: dict[int, set] = {}
    holders: dict[int, set] = {}
    for (name, e), i in dia.element_pool.items():
        values.setdefault(i, set()).add(section[name][e])
        holders.setdefault(i, set()).add(name)
    assert all(len(v) == 1 for v in values.values())
    assert max(len(h) for h in holders.values()) == len(dia.contexts)
    assert cx.is_global_section(dia, section) == (True, None)
    assert cx.pool_values(dia, section) == [values[i].pop()
                                            for i in range(len(dia.pool))]


def test_projections_of_the_wrong_dimension_are_refused():
    """element_of and pool_index_of used to fail inside numpy."""
    dia = fixture_diagram()
    az = dia.context_named("Az")
    for lookup in (az.element_of, dia.pool_index_of):
        with pytest.raises(InputError) as err:
            lookup(np.eye(3))
        assert str(err.value) == \
            "projection dimension differs from the context's"
        assert err.value.witness == [3, 2]


# -- closure on shared pool projections against the algebra loop it replaced -----

def ref_context(name, alg, tol):
    """The former ``context_from_algebra``: the generic element's blocks of
    an abelian algebra."""
    if not ref_is_abelian(alg, tol):
        raise InputError("context algebras must be abelian",
                         witness={"context": name})
    mins = ref_minimal_projections(alg, tol)
    if len(mins) > cx.MAX_MINIMAL:
        raise ResourceError(
            "too many minimal projections for the lattice bridge",
            witness={"context": name, "count": len(mins)})
    return cx.Context(name, alg.dim, boolean_algebra(len(mins)), tuple(mins))


def ref_algebra_intersection(a, b, tol):
    """The former ``algebra_intersection``: the meet of the two spans,
    regenerated."""
    def span(m):
        return vn.projection_onto(
            np.column_stack([x.reshape(-1) for x in m.basis]), tol)

    vecs = vn.orthonormal_range(vn.projection_meet([span(a), span(b)], tol),
                                tol)
    return vn.subalgebra([vecs[:, k].reshape(a.dim, a.dim)
                          for k in range(vecs.shape[1])], dim=a.dim, tol=tol)


def _ref_same_algebra(a, b, tol):
    return (a.linear_dim == b.linear_dim
            and all(b.contains(x, tol) for x in a.basis))


def ref_diagram(named_generators, dim=None, tol=vn.TOL):
    """``diagram`` as it was: each context the bicommutant of its generators
    (``vn.subalgebra``) with the generic element's blocks, every pair of
    contexts intersected as algebras each round, a result kept unless its
    span matches a context's, and the pool built after the closure."""
    if not named_generators:
        raise InputError("need at least one context")
    ctxs, algs = [], {}

    def add(name, alg):
        ctxs.append(ref_context(name, alg, tol))
        algs[name] = alg

    for name, gens in named_generators.items():
        if name in algs:
            raise InputError("duplicate context name", witness={"context": name})
        alg = vn.subalgebra(gens, dim=dim, tol=tol)
        if algs and alg.dim != ctxs[0].dim:
            raise InputError("ambient dimension mismatch",
                             witness={"context": name})
        add(name, alg)
    ambient = ctxs[0].dim
    changed = True
    while changed:
        changed = False
        for a, b in combinations(list(ctxs), 2):
            inter = ref_algebra_intersection(algs[a.name], algs[b.name], tol)
            if any(_ref_same_algebra(inter, m, tol) for m in algs.values()):
                continue
            add("&".join(sorted((a.name, b.name))), inter)
            changed = True
            if len(ctxs) > cx.MAX_CONTEXTS:
                raise ResourceError("intersection closure grew too large",
                                    witness={"cap": cx.MAX_CONTEXTS})
    if not any(m.linear_dim == 1 for m in algs.values()):
        add("scalars", vn.trivial_algebra(ambient, tol))
    pool, labels, element_pool = [], [], {}
    for c in ctxs:
        elems = c.nonzero_elements()
        ps = np.array([c.projection_of(e) for e in elems])
        found = cx._first_match(np.array(pool), ps, tol)
        for e, p, idx in zip(elems, ps, found.tolist()):
            if idx < 0:
                pool.append(p)
                labels.append(f"{c.name}:{c.lattice.names[e]}")
                idx = len(pool) - 1
            element_pool[(c.name, e)] = idx
    return cx.ContextDiagram(ambient, tuple(ctxs), np.array(pool),
                             tuple(labels), element_pool, tol)


def given_generators(dia):
    """One generator per given context (the generated ones are named with
    '&' or 'scalars'), sum_k k P_k over its atoms: it generates the same
    algebra and numbers the atoms as the context does."""
    return {c.name: [sum(k * p for k, p in enumerate(c.minimal))]
            for c in dia.contexts if "&" not in c.name and c.name != "scalars"}


def assert_same_diagram_by_content(got, want):
    """The same contexts in the same order, each with the same atoms, the
    same pool, and each context holding the same pool projections, all
    matched by content: the atom numbering may differ."""
    assert [c.name for c in got.contexts] == [c.name for c in want.contexts]
    for c, w in zip(got.contexts, want.contexts):
        assert same_projections(c.minimal, w.minimal)
    assert same_projections(list(got.pool), list(want.pool))
    to_want = cx._first_match(want.pool, got.pool, got.tol).tolist()
    assert {(name, to_want[i]) for (name, _), i in got.element_pool.items()} \
        == {(name, i) for (name, _), i in want.element_pool.items()}
    for (name, e), i in got.element_pool.items():
        assert np.linalg.norm(got.context_named(name).projection_of(e)
                              - got.pool[i]) <= got.tol.proj


def assert_closes_like_the_algebra_loop(named, dim, monkeypatch):
    """The algebra loop's contexts, pool and element pool, by content; no
    bicommutant, and one ``_shared_context`` call per generated context."""
    calls = []
    shared = cx._shared_context

    def counted(*args):
        calls.append(1)
        return shared(*args)

    def no_bicommutant(*args, **kwargs):
        raise AssertionError("diagram built a bicommutant")

    with monkeypatch.context() as m:
        m.setattr(cx, "_shared_context", counted)
        m.setattr(vn, "subalgebra", no_bicommutant)
        got = cx.diagram(named, dim=dim)
    want = ref_diagram(named, dim=dim)
    assert_same_diagram_by_content(got, want)
    assert len(calls) == sum("&" in c.name or c.name == "scalars"
                             for c in got.contexts)
    return got, len(calls)


def test_fixture_closes_with_one_intersection(monkeypatch):
    """The parent loop intersected the fixture's pair four times."""
    dia = fixture_diagram()
    got, calls = assert_closes_like_the_algebra_loop(
        given_generators(dia), 2, monkeypatch)
    assert calls == 1 and got == dia


def test_corpus_diagram_closes_like_the_algebra_loop(monkeypatch):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    dia = jsonio.load_diagram(str(corpus / "diagram_qubit.json"))
    named = {name: [jsonio.load_matrix(g) for g in gens] for name, gens in
             jsonio.load_json(corpus / "diagram_qubit.json")["contexts"].items()}
    got, _ = assert_closes_like_the_algebra_loop(named, dia.dim, monkeypatch)
    assert got.pool_labels == dia.pool_labels


@settings(max_examples=30, deadline=None)
@given(case=glue_cases())
def test_glue_case_diagrams_close_like_the_algebra_loop(case):
    dia, _ = case
    with pytest.MonkeyPatch.context() as mp:
        assert_closes_like_the_algebra_loop(given_generators(dia), dia.dim, mp)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_planes_diagrams_close_like_the_algebra_loop(dim, monkeypatch):
    rng = random.Random(dim)
    dia = planes_diagram(dim, [rng.uniform(0.2, 1.4) for _ in range(3)])
    assert_closes_like_the_algebra_loop(given_generators(dia), dim,
                                        monkeypatch)


@pytest.mark.parametrize("seed", range(12))
def test_commuting_diagrams_close_like_the_algebra_loop(seed, monkeypatch):
    """Diagonal generators with repeated entries under one shared unitary:
    the contexts commute and meet in many shared projections."""
    rng = random.Random(seed)
    dim = rng.randint(3, 8)
    u = np.linalg.qr(vn.random_hermitian(rng, dim) + 1j * np.eye(dim))[0]
    named = {f"G{k}": [(u * [float(rng.randrange(3)) for _ in range(dim)])
                       @ u.conj().T]
             for k in range(rng.randint(3, 6))}
    assert_closes_like_the_algebra_loop(named, dim, monkeypatch)


@pytest.mark.parametrize("named", [
    {"Az": [AZ], "Ax": [AX], "Ax&Az": [np.diag([0.0, 2.0])]},
    {"scalars": [AZ]},
], ids=["intersection", "scalars"])
def test_a_given_name_clashing_with_a_generated_one_is_refused(named):
    """Both diagrams used to keep two contexts of one name, on which the
    diagram's own operator section failed validation."""
    with pytest.raises(InputError) as err:
        cx.diagram(named, dim=2)
    assert str(err.value) == "duplicate context name"
    assert err.value.witness == {"context": next(reversed(named))}


def test_the_context_cap_counts_given_and_scalars_contexts():
    """40 masas and a given scalars context used to build 41 contexts."""
    rng = random.Random(0)
    named = {f"M{k}": [vn.random_hermitian(rng, 2)] for k in range(40)}
    named["scalars"] = [np.eye(2)]
    with pytest.raises(ResourceError) as err:
        cx.diagram(named, dim=2)
    assert err.value.witness == {"cap": cx.MAX_CONTEXTS}


def test_the_context_cap_stops_the_closure():
    rng = random.Random(0)
    named = {f"C{k}": [np.diag([float(rng.randrange(3)) for _ in range(6)])]
             for k in range(20)}
    with pytest.raises(ResourceError) as err:
        cx.diagram(named, dim=6)
    assert err.value.witness == {"cap": cx.MAX_CONTEXTS}
    with pytest.raises(ResourceError):
        ref_diagram(named, dim=6)


def ref_element_of(c, p, tol=vn.TOL):
    """``Context.element_of`` as it was: the minimal projections under p,
    then their sum checked against p."""
    p = cx._in_dim(p, c.dim)
    mask = 0
    for i, q in enumerate(c.minimal):
        if vn.projection_leq(q, p, tol):
            mask |= 1 << i
    if float(np.linalg.norm(c.projection_of(mask) - p)) > tol.proj:
        raise PreconditionError("projection does not belong to the context",
                                witness={"context": c.name})
    return mask


def element_outcome(lookup, p):
    try:
        return lookup(p)
    except PreconditionError as err:
        return str(err), err.witness


@pytest.mark.parametrize("seed", range(6))
def test_element_of_matches_the_minimal_projection_loop(seed):
    """Every element of every context, as is and moved by 0.3 and 3 times
    tol.proj, and a projection of another context."""
    rng = random.Random(seed)
    dim = 2 + seed % 3
    dia = cx.diagram({"A": [vn.random_hermitian(rng, dim)],
                      "B": [vn.random_hermitian(rng, dim)],
                      "D": [np.diag([float(rng.randrange(3))
                                     for _ in range(dim)])]}, dim=dim)
    for c in dia.contexts:
        for e in range(c.lattice.n):
            p = c.projection_of(e)
            queries = [p, nudged(rng, p, 0.3, dia.tol),
                       nudged(rng, p, 3.0, dia.tol),
                       rng.choice(dia.contexts).projection_of(e % 2)]
            for q in queries:
                assert element_outcome(c.element_of, q) == \
                    element_outcome(lambda x: ref_element_of(c, x), q)
    assert cx.diagram({"D": [AZ]}, dim=2).contexts[0].element_of(
        np.zeros((2, 2))) == 0


# -- atom numbering: joint eigenblocks in lexicographic eigenvalue order ---------

def coordinates(c):
    """The coordinate each rank-one atom of a diagonal context holds."""
    return [int(np.argmax(np.diagonal(p).real)) for p in c.minimal]


def test_diagonal_atoms_are_numbered_by_eigenvalue():
    """The parent numbered diag(1, 2, 3) as coordinates [1, 0, 2] and its
    square as [1, 2, 0]."""
    for gens in ([np.diag([1.0, 2.0, 3.0])], [np.diag([1.0, 4.0, 9.0])]):
        assert coordinates(cx.context_from_generators("D", gens)) == [0, 1, 2]
    assert coordinates(cx.context_from_generators(
        "D", [np.diag([3.0, 1.0, 2.0])])) == [1, 2, 0]


def test_atoms_are_numbered_lexicographically():
    """Two generators: the first one's eigenvalue ascending, ties broken by
    the second's.  One normal generator: its Hermitian part, then its skew
    part."""
    c = cx.context_from_generators("G", [np.diag([1.0, 0.0, 1.0, 0.0]),
                                         np.diag([5.0, 7.0, 2.0, 6.0])])
    assert coordinates(c) == [3, 1, 2, 0]
    c = cx.context_from_generators("N", [np.diag([1 + 1j, 1 - 1j, 0.0])])
    assert coordinates(c) == [2, 1, 0]


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 10 ** 6))
def test_numbering_depends_on_the_generated_order_alone(dim, seed):
    """g = U D U* with repeated levels numbers its atoms as g^3 + g, as the
    pair [g, g^2], and as g rebuilt from U with its eigenvector columns
    re-phased do."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))[0]
    levels = rng.integers(0, 3, dim).astype(float)
    g = (u * levels) @ u.conj().T
    phased = u * np.exp(2j * np.pi * rng.random(dim))
    want = cx.context_from_generators("C", [g]).minimal
    assert len(want) == len(set(levels))
    for gens in ([g @ g @ g + g], [g, g @ g],
                 [(phased * levels) @ phased.conj().T]):
        got = cx.context_from_generators("C", gens).minimal
        assert len(got) == len(want)
        assert all(np.linalg.norm(p - q) < 1e-9 for p, q in zip(got, want))


@pytest.mark.parametrize("vals", [[0.0, 0.5, 0.5 + 1e-8],
                                  [0.0, 0.5, 0.5 + 1e-8, 0.5 + 2e-8]])
def test_near_degenerate_diagonal_generators_give_contexts(vals):
    """The bicommutant refused both: the first as non-abelian, the second as
    not closing.  The atoms are the clusters of ``vn._cluster_ends``."""
    c = cx.diagram({"D": [np.diag(vals)]}).context_named("D")
    ends = vn._cluster_ends(np.array(vals), vn.TOL)
    assert len(c.minimal) == len(ends) == 3
    assert [vn.rank_of_projection(p) for p in c.minimal] == \
        np.diff([0, *ends]).tolist()


def test_blocks_that_do_not_reduce_a_generator_raise():
    """diag(0, 1, 1 + 2e-8) splits into three lines.  A generator that turns
    the last two by 0.03 commutes with it within ``tol.sub`` (0.03 * 2e-8 *
    sqrt 2) and is no function of it."""
    h = np.zeros((3, 3))
    h[1, 2] = h[2, 1] = 0.03
    with pytest.raises(ResourceError) as err:
        cx.context_from_generators("G", [np.diag([0.0, 1.0, 1.0 + 2e-8]), h])
    assert str(err.value) == "joint eigenblocks do not reduce a generator"
    assert err.value.witness["defect"] == pytest.approx(0.03 * math.sqrt(2))


def test_diagram_builds_no_bicommutant(monkeypatch):
    """Given contexts come from their joint eigenblocks, intersections and
    the scalars from the pool."""
    def no_bicommutant(*args, **kwargs):
        raise AssertionError("diagram built a bicommutant")

    monkeypatch.setattr(vn, "subalgebra", no_bicommutant)
    monkeypatch.setattr(vn, "commutant_basis", no_bicommutant)
    dia = planes_diagram(4, [0.3, 0.8, 1.2])
    # every pair shares the line of e3 and its complement, and nothing else
    assert [c.name for c in dia.contexts] == ["X", "Y", "Z", "X&Y", "scalars"]
    assert len(dia.context_named("X&Y").minimal) == 2
