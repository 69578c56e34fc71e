"""Presheaves on lattices: laws, gluing, stalks, sheafification."""
import math
import time
import tracemalloc
from itertools import combinations, product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslat import classical, corpus, presheaf, stone
from obslat.corpus import boolean_algebra, standard_lattices
from obslat.errors import InputError, PreconditionError, ResourceError
from obslat.lattice import FiniteOrthoLattice, bits
from obslat.spectral import SpectralFamily, restrict_family, spectral_family


def _chain2_presheaf(break_what=None):
    """Two-point sets on the three-chain, with knobs to break each law."""
    lat = standard_lattices()["chain3"]
    secs = {0: ["x"], 1: ["p", "q"], 2: ["s", "t"]}
    r = {
        (0, 1): {"p": "x", "q": "x"},
        (0, 2): {"s": "x", "t": "x"},
        (1, 2): {"s": "p", "t": "q"},
    }
    if break_what == "missing":
        del r[(1, 2)]
    elif break_what == "partial":
        del r[(1, 2)]["t"]
    elif break_what == "escape":
        r[(1, 2)]["t"] = "zzz"
    elif break_what == "composition":
        r[(0, 2)] = {"s": "x", "t": "y"}
        secs[0] = ["x", "y"]
        r[(0, 1)] = {"p": "x", "q": "x"}
    return presheaf.lattice_presheaf(lat, secs, r)


def test_laws_pass_on_a_good_presheaf():
    ok, witness = presheaf.check_presheaf(_chain2_presheaf())
    assert ok and witness is None


@pytest.mark.parametrize("what,kind", [
    ("missing", "missing-map"),
    ("partial", "partial-map"),
    ("escape", "map-leaves-sections"),
    ("composition", "composition"),
])
def test_laws_catch_each_defect(what, kind):
    ok, witness = presheaf.check_presheaf(_chain2_presheaf(what))
    assert not ok
    assert witness["kind"] == kind


def test_construction_rejects_gaps_and_duplicates():
    lat = standard_lattices()["chain3"]
    with pytest.raises(InputError):
        presheaf.lattice_presheaf(lat, {0: ["x"], 2: ["s"]}, {})
    with pytest.raises(InputError):
        presheaf.lattice_presheaf(lat, {0: ["x", "x"], 1: ["p"], 2: ["s"]},
                                  {})


def test_restrict_direction_and_missing_entry():
    ps = _chain2_presheaf()
    with pytest.raises(PreconditionError):
        ps.restrict(2, 1, "p")
    assert ps.restrict(1, 1, "p") == "p"
    assert ps.restrict(0, 2, "t") == "x"
    broken = _chain2_presheaf("partial")
    with pytest.raises(InputError):
        broken.restrict(1, 2, "t")


def test_spectral_presheaf_fails_gluing_on_mo2():
    """The canonical counterexample: a compatible family over the atoms of
    mo2 with no joint extension, and a two-element cover where three
    different sections all restrict to the same pair."""
    mo2 = standard_lattices()["mo2"]
    ps = presheaf.spectral_presheaf(mo2, [0.0, 1.0])
    assert [len(s) for s in ps.sections] == [1, 2, 2, 2, 2, 6]
    ok, _ = presheaf.check_presheaf(ps)
    assert ok
    report = presheaf.check_sheaf_condition(ps)
    assert not report["ok"]
    assert report["existence"] == {
        "element": "1",
        "cover": ["a", "a'", "b"],
        "family": [[[0.0, "a"]], [[0.0, "a'"]], [[1.0, "b"]]],
        "gluings": [],
    }
    assert report["uniqueness"] == {
        "element": "1",
        "cover": ["a", "a'"],
        "family": [[[1.0, "a"]], [[1.0, "a'"]]],
        "gluings": [[[1.0, "1"]],
                    [[0.0, "b"], [1.0, "1"]],
                    [[0.0, "b'"], [1.0, "1"]]],
    }


def test_spectral_presheaf_is_a_sheaf_on_a_boolean_algebra():
    b2 = standard_lattices()["b2"]
    ps = presheaf.spectral_presheaf(b2, [0.0, 1.0])
    report = presheaf.check_sheaf_condition(ps)
    assert report["ok"]
    assert report["existence"] is None and report["uniqueness"] is None


def test_spectral_presheaf_restriction_is_pointwise_meet():
    mo2 = standard_lattices()["mo2"]
    ps = presheaf.spectral_presheaf(mo2, [0.0, 1.0])
    top = mo2.n - 1
    a = mo2.names.index("a")
    for fam in ps.values_at(top):
        got = ps.restrict(a, top, fam)
        want = restrict_family(spectral_family(mo2, fam), a).breakpoints
        assert got == want
        # restriction to the bottom collapses to the sentinel
        assert ps.restrict(mo2.zero, top, fam) == presheaf._ZERO_SENTINEL


def test_stalks_and_germs():
    mo2 = standard_lattices()["mo2"]
    ps = presheaf.spectral_presheaf(mo2, [0.0, 1.0])
    qs = stone.enumerate_quasipoints(mo2)
    assert [mo2.names[q.generator()] for q in qs] == ["a", "a'", "b", "b'"]
    gen, vals = presheaf.stalk(ps, qs[0])
    assert mo2.names[gen] == "a" and len(vals) == 2
    top = mo2.n - 1
    fam = ps.values_at(top)[0]
    assert ps.section_repr(fam) == [[0.0, "1"]]
    assert ps.section_repr(presheaf.germ(ps, qs[0], top, fam)) == [[0.0, "a"]]
    b = mo2.names.index("b")
    with pytest.raises(PreconditionError):
        presheaf.germ(ps, qs[0], b, ps.values_at(b)[0])


def test_sheafify_mo2_spectral_presheaf():
    """Sections of the germ bundle form a genuine sheaf on the powerset of
    the four quasipoints; the top now has 2^4 sections where the original
    presheaf had 6."""
    mo2 = standard_lattices()["mo2"]
    ps = presheaf.spectral_presheaf(mo2, [0.0, 1.0])
    sheaf, base, masks = presheaf.sheafify(ps)
    assert len(masks) == 4 and base.n == 16
    assert len(sheaf.values_at(base.n - 1)) == 16
    ok, _ = presheaf.check_presheaf(sheaf)
    assert ok
    assert sheaf.section_repr(sheaf.values_at(3)[0]) == \
        [["a", [[0.0, "a"]]], ["a'", [[0.0, "a'"]]]]
    # full gluing scan is too big here; check one disjoint cover by hand
    lo, hi, top = 0b0011, 0b1100, 0b1111
    fam_lo = sheaf.values_at(lo)[0]
    fam_hi = sheaf.values_at(hi)[0]
    glue = [v for v in sheaf.values_at(top)
            if sheaf.restrict(lo, top, v) == fam_lo
            and sheaf.restrict(hi, top, v) == fam_hi]
    assert len(glue) == 1
    assert sheaf.section_repr(glue[0]) == [
        ["a", [[0.0, "a"]]], ["a'", [[0.0, "a'"]]],
        ["b", [[0.0, "b"]]], ["b'", [[0.0, "b'"]]]]


def test_sheafify_b2_gives_a_sheaf_with_full_scan():
    b2 = standard_lattices()["b2"]
    ps = presheaf.spectral_presheaf(b2, [0.0, 1.0])
    sheaf, base, masks = presheaf.sheafify(ps)
    assert len(masks) == 2 and base.n == 4
    assert len(sheaf.values_at(base.n - 1)) == 4
    ok, _ = presheaf.check_presheaf(sheaf)
    assert ok
    report = presheaf.check_sheaf_condition(sheaf)
    assert report["ok"]


def test_function_presheaf_is_a_sheaf():
    sp = classical.sierpinski3()
    ps, lat, opens = presheaf.function_presheaf(sp, [0.0, 1.0])
    assert opens == [0b000, 0b001, 0b011, 0b111]
    assert [len(ps.values_at(i)) for i in range(lat.n)] == [1, 2, 4, 8]
    ok, _ = presheaf.check_presheaf(ps)
    assert ok
    report = presheaf.check_sheaf_condition(ps)
    assert report["ok"]
    assert ps.section_repr(ps.values_at(lat.n - 1)[5]) == \
        [["1", 1.0], ["2", 0.0], ["3", 1.0]]


def test_resource_caps():
    mo2 = standard_lattices()["mo2"]
    ps = presheaf.spectral_presheaf(mo2, [0.0, 1.0])
    with pytest.raises(ResourceError):
        presheaf.check_sheaf_condition(ps, work_cap=3)
    with pytest.raises(ResourceError):
        presheaf.sheafify(ps, cap=3)
    with pytest.raises(ResourceError):
        presheaf.spectral_presheaf(mo2, [0.1 * k for k in range(10)], cap=10)
    with pytest.raises(InputError):
        presheaf.spectral_presheaf(mo2, [])
    six = classical.discrete_space("abcdef")
    with pytest.raises(ResourceError):
        presheaf.function_presheaf(six, [0.0, 1.0, 2.0, 3.0, 4.0])


# -- reading the position tables back as value dicts, for the oracles --

def _decode(ps):
    """Every table of the presheaf as {section over b: image over a}, for
    the entries that exist; a stray image decodes to its value."""
    return {(a, b): {v: ps._value(a, int(i))
                     for v, i in zip(ps.sections[b], table) if i >= 0}
            for (a, b), table in ps.restrictions.items()}


def _oracle_restrict(ps, tables, a, b, value):
    """The value-keyed restriction of a section over b to a <= b, read from
    the decoded tables, with the errors restrict has always raised."""
    if a == b:
        return value
    table = tables.get((a, b))
    if table is None or value not in table:
        raise InputError(
            "missing restriction entry",
            witness={"from": ps.lattice.names[b], "to": ps.lattice.names[a],
                     "value": repr(value)})
    return table[value]


# -- the builders as they stood before the shared bundle, kept as oracles --

def _oracle_function_presheaf(space, values):
    from obslat.classical import open_set_lattice
    lat, opens = open_set_lattice(space)
    values = list(values)
    sections: dict[int, list] = {}
    for i, u in enumerate(opens):
        pts = bits(u)
        sections[i] = [tuple(zip(pts, combo))
                       for combo in iproduct(values, repeat=len(pts))]
    restrictions: dict[tuple[int, int], dict] = {}
    for bi in range(lat.n):
        for ai in range(lat.n):
            if ai == bi or not lat.le(ai, bi):
                continue
            keep = set(bits(opens[ai]))
            restrictions[(ai, bi)] = {
                v: tuple((p, g) for p, g in v if p in keep)
                for v in sections[bi]}

    def describe(v):
        return [[space.points[p], g] for p, g in v]

    ps = presheaf.lattice_presheaf(lat, sections, restrictions, describe)
    return ps, lat, opens


def _oracle_sheafify(ps, cap=4096):
    from obslat.stone import enumerate_quasipoints
    lat = ps.lattice
    qs = enumerate_quasipoints(lat)
    base = boolean_algebra(len(qs))
    total = 1
    for q in qs:
        total *= max(1, len(presheaf.stalk(ps, q)[1]))
        if total > cap:
            raise ResourceError("sheafification exceeds the size cap",
                                witness={"cap": cap})
    sections: dict[int, list] = {}
    for mask in range(base.n):
        members = bits(mask)
        stalks = [presheaf.stalk(ps, qs[i])[1] for i in members]
        sections[mask] = [tuple(zip(members, combo))
                          for combo in iproduct(*stalks)]
    restrictions: dict[tuple[int, int], dict] = {}
    for big in range(base.n):
        for small in range(base.n):
            if small == big or (small & big) != small:
                continue
            keep = set(bits(small))
            table = {}
            for v in sections[big]:
                table[v] = tuple((i, g) for i, g in v if i in keep)
            restrictions[(small, big)] = table
    atom_names = [lat.names[q.generator()] for q in qs]

    def describe(v):
        return [[atom_names[i], ps.section_repr(g)] for i, g in v]

    sheaf = presheaf.lattice_presheaf(base, sections, restrictions, describe)
    return sheaf, base, [q.mask for q in qs]


def _assert_same_presheaf(got, want):
    assert got.sections == want.sections
    assert got.restrictions.keys() == want.restrictions.keys()
    for pair, table in got.restrictions.items():
        assert table.dtype == np.int32
        assert np.array_equal(table, want.restrictions[pair]), pair
    assert _decode(got) == _decode(want)
    assert [got.section_repr(v) for s in got.sections for v in s] == \
        [want.section_repr(v) for s in want.sections for v in s]


@pytest.mark.parametrize("space", [
    classical.sierpinski3(), classical.discrete_space("ab"),
    classical.discrete_space("abc"), classical.digital_line(2),
], ids=["sierpinski3", "discrete2", "discrete3", "digital_line2"])
def test_function_presheaf_matches_the_oracle(space):
    got, lat, opens = presheaf.function_presheaf(space, [0.0, 1.0])
    want, want_lat, want_opens = _oracle_function_presheaf(space, [0.0, 1.0])
    assert opens == want_opens and lat.names == want_lat.names
    _assert_same_presheaf(got, want)


@pytest.mark.parametrize("name", ["mo2", "b2", "mo3"])
def test_sheafify_matches_the_oracle(name):
    ps = presheaf.spectral_presheaf(standard_lattices()[name], [0.0, 1.0])
    got, base, masks = presheaf.sheafify(ps)
    want, want_base, want_masks = _oracle_sheafify(ps)
    assert masks == want_masks and base.names == want_base.names
    _assert_same_presheaf(got, want)


def test_partial_presheaf_scan_raises_precondition_error():
    """The scan presumes the laws, as glue_section presumes a section; a
    partial map is the laws' witness, not a missing-entry InputError."""
    ps = _chain2_presheaf("partial")
    with pytest.raises(PreconditionError) as err:
        presheaf.check_sheaf_condition(ps)
    assert str(err.value) == "the sheaf condition needs a presheaf"
    assert err.value.witness == presheaf.check_presheaf(ps)[1] == {
        "kind": "partial-map", "from": "1", "to": "m", "value": "'t'"}


def test_scan_work_counts(monkeypatch):
    """Machine-independent guard on the scan's cost: restrict calls on the
    mo3 spectral presheaf (8,306 before the gluing index, 1,701 before the
    position tables, none since)."""
    ps = presheaf.spectral_presheaf(standard_lattices()["mo3"],
                                    [0.0, 0.5, 1.0])
    calls = [0]
    restrict = presheaf.LatticePresheaf.restrict

    def counted(self, a, b, value):
        calls[0] += 1
        return restrict(self, a, b, value)

    monkeypatch.setattr(presheaf.LatticePresheaf, "restrict", counted)
    presheaf.check_sheaf_condition(ps)
    assert calls[0] == 0
    calls[0] = 0
    assert presheaf.check_presheaf(ps) == (True, None)
    assert calls[0] == 0


def test_spectral_presheaf_on_a_long_chain_stops_at_the_grid():
    lat = corpus.chain(64)
    ps = presheaf.spectral_presheaf(lat, [0.0])
    assert ps.values_at(lat.n - 1) == (((0.0, lat.n - 1),),)


# -- the laws and the gluing scan as they stood before the gluing index, kept
# as oracles --

def _oracle_families_with_top(lattice, top, grid, cap):
    chains = []

    def descend(chain):
        chains.append(tuple(chain))
        last = chain[-1]
        for e in range(lattice.n):
            if e != lattice.zero and e != last and lattice.le(e, last):
                descend(chain + [e])

    descend([top])
    out = []
    for chain in chains:
        if len(chain) > len(grid):
            continue
        for vals in combinations(grid, len(chain)):
            # chain descends from the top; values ascend with the elements
            fam = tuple(zip(vals, reversed(chain)))
            out.append(fam)
            if len(out) > cap:
                raise ResourceError("too many sections; shrink the grid",
                                    witness={"cap": cap})
    return out


def _oracle_check_presheaf(ps):
    lat = ps.lattice
    tables = _decode(ps)
    for b in range(lat.n):
        for a in range(lat.n):
            if a == b or not lat.le(a, b):
                continue
            table = tables.get((a, b))
            if table is None:
                return False, {"kind": "missing-map",
                               "from": lat.names[b], "to": lat.names[a]}
            for v in ps.values_at(b):
                if v not in table:
                    return False, {"kind": "partial-map",
                                   "from": lat.names[b], "to": lat.names[a],
                                   "value": repr(v)}
                if table[v] not in ps.values_at(a):
                    return False, {"kind": "map-leaves-sections",
                                   "from": lat.names[b], "to": lat.names[a],
                                   "value": repr(v)}
    for c in range(lat.n):
        for b in range(lat.n):
            if not lat.le(b, c):
                continue
            for a in range(lat.n):
                if not lat.le(a, b):
                    continue
                for v in ps.values_at(c):
                    direct = _oracle_restrict(ps, tables, a, c, v)
                    stepped = _oracle_restrict(
                        ps, tables, a, b, _oracle_restrict(ps, tables, b, c, v))
                    if direct != stepped:
                        return False, {
                            "kind": "composition",
                            "chain": [lat.names[a], lat.names[b],
                                      lat.names[c]],
                            "value": repr(v),
                            "direct": repr(direct), "stepped": repr(stepped)}
    return True, None


def _oracle_check_sheaf_condition(ps, work_cap=presheaf.WORK_CAP):
    lat = ps.lattice
    tables = _decode(ps)
    work = 0
    first_existence = None
    first_uniqueness = None
    nonzero = [a for a in range(lat.n) if a != lat.zero]
    for a in range(lat.n):
        if a == lat.zero:
            continue
        below = [b for b in nonzero if lat.le(b, a)]
        for size in range(2, len(below) + 1):
            for cover in combinations(below, size):
                if lat.join_of(cover) != a:
                    continue
                sets = [ps.values_at(b) for b in cover]
                count = 1
                for s in sets:
                    count *= len(s)
                work += count
                if work > work_cap:
                    raise ResourceError(
                        "gluing scan exceeded the work cap",
                        witness={"cap": work_cap})
                for family in iproduct(*sets):
                    if not _oracle_compatible(ps, tables, cover, family):
                        continue
                    glue = [v for v in ps.values_at(a)
                            if all(_oracle_restrict(ps, tables, b, a, v) == fv
                                   for b, fv in zip(cover, family))]
                    if not glue and first_existence is None:
                        first_existence = _oracle_witness(ps, a, cover,
                                                          family, glue)
                    if len(glue) > 1 and first_uniqueness is None:
                        first_uniqueness = _oracle_witness(ps, a, cover,
                                                           family, glue)
                    if first_existence and first_uniqueness:
                        return {"ok": False, "existence": first_existence,
                                "uniqueness": first_uniqueness}
    return {"ok": first_existence is None and first_uniqueness is None,
            "existence": first_existence, "uniqueness": first_uniqueness}


def _oracle_compatible(ps, tables, cover, family):
    lat = ps.lattice
    for (b1, v1), (b2, v2) in combinations(zip(cover, family), 2):
        m = lat.meet(b1, b2)
        if m == lat.zero:
            continue
        if _oracle_restrict(ps, tables, m, b1, v1) != \
                _oracle_restrict(ps, tables, m, b2, v2):
            return False
    return True


def _oracle_witness(ps, a, cover, family, glue):
    lat = ps.lattice
    return {"element": lat.names[a],
            "cover": [lat.names[b] for b in cover],
            "family": [ps.section_repr(v) for v in family],
            "gluings": [ps.section_repr(v) for v in glue]}


def _outcome(check, *args, **kw):
    """A check's result, or the type, message and witness of its error."""
    try:
        return check(*args, **kw)
    except (InputError, PreconditionError, ResourceError) as err:
        return type(err).__name__, str(err), err.witness


def _assert_checks_match_the_oracles(ps, work_cap=presheaf.WORK_CAP):
    """The laws equal the oracle's.  Where they fail, the scan raises
    PreconditionError with their witness.  On a presheaf the scan's report
    equals the subset scan's wherever that reports at the default cap, and
    wherever both report under a smaller cap; the antichain scan may report
    where the subset scan reaches the cap, and the other way round below
    the default.  Returns the scan's outcome and the subset scan's."""
    laws = presheaf.check_presheaf(ps)
    assert laws == _oracle_check_presheaf(ps)
    got = _outcome(presheaf.check_sheaf_condition, ps, work_cap)
    if not laws[0]:
        assert got == ("PreconditionError",
                       "the sheaf condition needs a presheaf", laws[1])
        return got, None
    want = _outcome(_oracle_check_sheaf_condition, ps, work_cap)
    if isinstance(want, dict) and (work_cap == presheaf.WORK_CAP
                                   or isinstance(got, dict)):
        assert got == want
    return got, want


# b4 and b2xchain3 with two values, and b3, b4 and b2xchain3 with three,
# reach WORK_CAP in the oracle scan after about a second each.
_SCANNED = [(name, grid)
            for grid, over in [((0.0, 1.0), {"b4", "b2xchain3"}),
                               ((0.0, 0.5, 1.0), {"b3", "b4", "b2xchain3"})]
            for name in standard_lattices() if name not in over]


@pytest.mark.parametrize("name,grid", _SCANNED,
                         ids=[f"{n}-{len(g)}" for n, g in _SCANNED])
def test_spectral_checks_match_the_oracles(name, grid):
    ps = presheaf.spectral_presheaf(standard_lattices()[name], grid)
    _assert_checks_match_the_oracles(ps)


@pytest.mark.parametrize("name", list(standard_lattices()))
def test_scan_cap_matches_the_oracle(name):
    ps = presheaf.spectral_presheaf(standard_lattices()[name], [0.0, 1.0])
    for cap in (50, 400):
        _assert_checks_match_the_oracles(ps, work_cap=cap)


def _flips(outcomes) -> dict:
    """How often one scan reports where the other reaches the cap."""
    return {
        "scan reports, oracle raises": sum(
            isinstance(got, dict) and not isinstance(want, dict)
            for got, want in outcomes),
        "oracle reports, scan raises": sum(
            isinstance(want, dict) and not isinstance(got, dict)
            for got, want in outcomes)}


def test_cap_flips_on_the_corpus():
    """The two scans count different work, so under a small cap one can
    reach it where the other reports.  On the corpus presheaves only the
    antichain scan gains verdicts."""
    inputs = [presheaf.spectral_presheaf(lat, [0.0, 1.0])
              for lat in standard_lattices().values()]
    inputs += [presheaf.function_presheaf(space, [0.0, 1.0])[0]
               for space in (classical.sierpinski3(),
                             classical.discrete_space("abc"),
                             classical.digital_line(2))]
    for cap, gained in ((50, 4), (400, 3)):
        outcomes = [_assert_checks_match_the_oracles(ps, work_cap=cap)
                    for ps in inputs]
        assert _flips(outcomes) == {"scan reports, oracle raises": gained,
                                    "oracle reports, scan raises": 0}


@pytest.mark.parametrize("space", [
    classical.sierpinski3(), classical.discrete_space("ab"),
    classical.discrete_space("abc"), classical.digital_line(2),
], ids=["sierpinski3", "discrete2", "discrete3", "digital_line2"])
def test_function_checks_match_the_oracles(space):
    ps, _, _ = presheaf.function_presheaf(space, [0.0, 1.0])
    _assert_checks_match_the_oracles(ps)


def test_sheafify_checks_match_the_oracles():
    ps = presheaf.spectral_presheaf(standard_lattices()["b2"], [0.0, 1.0])
    _assert_checks_match_the_oracles(presheaf.sheafify(ps)[0])


@pytest.mark.parametrize("what", [
    None, "missing", "partial", "escape", "composition"])
def test_broken_chain_checks_match_the_oracles(what):
    _assert_checks_match_the_oracles(_chain2_presheaf(what))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["chain3", "b2", "mo2"]), data=st.data())
def test_random_presheaf_checks_match_the_oracles(name, data):
    """Random section sets and random total maps, in half the draws free to
    leave the sections below: these mostly break the laws and the gluing, so
    every witness kind turns up."""
    lat = standard_lattices()[name]
    sizes = [data.draw(st.integers(1, 3)) for _ in range(lat.n)]
    escape = data.draw(st.integers(0, 1))
    sections = {a: list(range(sizes[a])) for a in range(lat.n)}
    restrictions = {
        (a, b): {v: data.draw(st.integers(0, sizes[a] - 1 + escape))
                 for v in sections[b]}
        for b in range(lat.n) for a in range(lat.n)
        if a != b and lat.le(a, b)}
    ps = presheaf.lattice_presheaf(lat, sections, restrictions)
    _assert_checks_match_the_oracles(ps)


_SMALL = [name for name, lat in standard_lattices().items() if lat.n <= 12]


@st.composite
def lawful_bundles(draw):
    """A presheaf that keeps the laws on a corpus lattice of at most 12
    elements: masks[a] is the OR of random point sets drawn over the
    down-set of a, so it grows along the order, and each point's fiber has
    1-2 values.  Where masks[a] holds more than its covers' masks, the
    gluing may not be unique; where a meet's mask is smaller than the members'
    common points, a compatible family may not glue."""
    lat = standard_lattices()[draw(st.sampled_from(_SMALL))]
    points = draw(st.integers(1, 3))
    own = [draw(st.integers(0, (1 << points) - 1)) for _ in range(lat.n)]
    masks = [0] * lat.n
    for a in range(lat.n):
        for e in lat.downset(a):
            masks[a] |= own[e]
    fibers = [list(range(draw(st.integers(1, 2)))) for _ in range(points)]
    return presheaf._bundle(lat, masks, fibers, None, presheaf.SECTION_CAP,
                            "too many sections")


@settings(max_examples=60, deadline=None)
@given(ps=lawful_bundles())
def test_lawful_bundle_checks_match_the_oracles(ps):
    for cap in (presheaf.WORK_CAP, 50, 400):
        _assert_checks_match_the_oracles(ps, work_cap=cap)


@pytest.mark.parametrize("lattice,grid", [
    (boolean_algebra(4), [0.0]), (boolean_algebra(5), [0.0]),
    (boolean_algebra(4), [0.0, 1.0]),
    (standard_lattices()["b2xchain3"], [0.0, 0.5, 1.0]),
    (corpus.chain(64), [0.0, 0.5, 1.0])],
    ids=["b4-1", "b5-1", "b4-2", "b2xchain3-3", "chain64-3"])
def test_scan_decides_where_the_subset_scan_reached_the_cap(lattice, grid):
    """The subset scan took 1.9 s on b4 with one value and reached the work
    cap on every other input here, after 8.5 s on b5.  They are sheaves:
    the lattices are distributive."""
    ps = presheaf.spectral_presheaf(lattice, grid)
    start = time.perf_counter()
    report = presheaf.check_sheaf_condition(ps)
    assert time.perf_counter() - start < 5.0
    assert report == {"ok": True, "existence": None, "uniqueness": None}


def test_antichains_drawn_count_against_the_cap():
    """61 atoms under M, and an extra top T listed first.  Antichains of
    atoms join to M, never to T, so T has no antichain cover: without a
    unit per antichain drawn the scan would enumerate 2^61 of them before
    its first cover.  The cap bounds time and the memory of a level (the
    subset scan took 3.7 s to reach it here)."""
    atoms = [f"x{i}" for i in range(61)]
    pairs = [("0", x) for x in atoms] + [(x, "M") for x in atoms]
    lat = FiniteOrthoLattice.from_relation(["T", "0", *atoms, "M"],
                                           pairs + [("M", "T")])
    ps = presheaf.spectral_presheaf(lat, [0.0])
    start = time.perf_counter()
    with pytest.raises(ResourceError) as err:
        presheaf.check_sheaf_condition(ps)
    assert time.perf_counter() - start < 5.0
    assert err.value.witness == {"cap": presheaf.WORK_CAP}
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            presheaf.check_sheaf_condition(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("grid", [
    [0.0], [0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]])
def test_spectral_sections_match_the_oracle(grid):
    for lat in standard_lattices().values():
        for top in range(lat.n):
            if top != lat.zero:
                assert _outcome(presheaf._families_with_top, lat, top, grid,
                                presheaf.SECTION_CAP) == \
                    _outcome(_oracle_families_with_top, lat, top, grid,
                             presheaf.SECTION_CAP)


# -- the spectral builder as it stood before the position tables: one
# restrict_family call per entry of every comparable pair, kept as an oracle --

def _oracle_tables(lattice, sections, rule):
    return {(a, b): {v: rule(a, b, v) for v in sections[b]}
            for b in range(lattice.n) for a in range(lattice.n)
            if a != b and lattice.le(a, b)}


def _oracle_spectral_presheaf(lattice, grid, cap=presheaf.SECTION_CAP):
    grid = sorted(set(float(g) for g in grid))
    if not grid:
        raise InputError("need a nonempty breakpoint grid")
    sections = {a: [presheaf._ZERO_SENTINEL] if a == lattice.zero
                else _oracle_families_with_top(lattice, a, grid, cap)
                for a in range(lattice.n)}

    def restrict(a, b, fam):
        if a == lattice.zero:
            return presheaf._ZERO_SENTINEL
        return restrict_family(SpectralFamily(lattice, fam, b), a).breakpoints

    def describe(fam):
        if fam == presheaf._ZERO_SENTINEL:
            return "*"
        return [[lam, lattice.names[e]] for lam, e in fam]

    return presheaf.lattice_presheaf(
        lattice, sections, _oracle_tables(lattice, sections, restrict),
        describe)


@pytest.mark.parametrize("grid", [
    [0.0], [0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]])
def test_spectral_presheaf_matches_the_oracle(grid):
    """Tables composed along covers from the direct meet rule equal the
    per-pair restrict_family tables entry for entry."""
    for lat in standard_lattices().values():
        got = presheaf.spectral_presheaf(lat, grid)
        want = _oracle_spectral_presheaf(lat, grid)
        _assert_same_presheaf(got, want)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["chain3", "b2", "mo2"]), data=st.data())
def test_value_dicts_round_trip_through_the_tables(name, data):
    """lattice_presheaf keeps every present entry, stray images included,
    and only those; an absent table stays absent."""
    lat = standard_lattices()[name]
    sizes = [data.draw(st.integers(0, 3)) for _ in range(lat.n)]
    sections = {a: [f"s{a}.{i}" for i in range(sizes[a])]
                for a in range(lat.n)}
    images = st.one_of(st.integers(0, 2).map(lambda k: f"stray{k}"),
                       st.integers(0, 3))
    restrictions = {}
    for b in range(lat.n):
        for a in range(lat.n):
            if a == b or not lat.le(a, b) or data.draw(st.integers(0, 4)) == 0:
                continue
            table = {}
            for v in sections[b]:
                img = data.draw(images)
                if isinstance(img, int):
                    if img == 3:
                        continue                  # a missing entry
                    if img >= sizes[a]:
                        img = f"stray{img}"
                    else:
                        img = sections[a][img]
                table[v] = img
            restrictions[(a, b)] = table
    ps = presheaf.lattice_presheaf(lat, sections, restrictions)
    assert _decode(ps) == restrictions
    for table in ps.restrictions.values():
        assert table.dtype == np.int32
    for a in range(lat.n):
        assert len(set(ps.strays[a])) == len(ps.strays[a])
        assert not set(ps.strays[a]) & set(sections[a])


def test_spectral_presheaf_refuses_non_finite_grids():
    """The grid is checked up front; the first non-finite value in input
    order is the witness, also where no family would ever be restricted."""
    nan, inf = float("nan"), float("inf")
    cases = [("chain2", [nan, inf], nan), ("chain2", [1.0, inf, nan], inf),
             ("mo2", [nan, 1.0], nan), ("mo2", [inf], inf),
             ("mo2", [0.0, -inf], -inf)]
    for name, grid, bad in cases:
        with pytest.raises(InputError) as err:
            presheaf.spectral_presheaf(standard_lattices()[name], grid)
        assert str(err.value) == "breakpoints must be finite reals"
        witness = err.value.witness
        assert (math.isnan(witness) and math.isnan(bad)) or witness == bad


def test_presheaf_layer_at_the_caps(monkeypatch):
    """The cap-size presheaves are usable: the spectral rule runs on the
    cover pairs only and the laws compare integer arrays.  The counts guard
    the design on any machine; the wall bounds catch a return to per-entry
    Python work (41 s and 5 s before the position tables)."""
    rule_pairs = []
    tables = presheaf._tables

    def counted(lattice, sections, rule):
        def traced(a, c, v):
            rule_pairs.append((a, c))
            return rule(a, c, v)
        return tables(lattice, sections, traced)

    monkeypatch.setattr(presheaf, "_tables", counted)
    lat = corpus.chain(64)
    start = time.perf_counter()
    ps = presheaf.spectral_presheaf(lat, [0, 0.5, 1])
    assert presheaf.check_presheaf(ps) == (True, None)
    assert time.perf_counter() - start < 10.0
    assert sum(len(t) for t in ps.restrictions.values()) == 2_162_160
    assert set(rule_pairs) == set(lat.covers()) and len(lat.covers()) == 63
    assert len(rule_pairs) == sum(len(ps.sections[c]) for _, c in lat.covers())

    start = time.perf_counter()
    fp, _, _ = presheaf.function_presheaf(classical.discrete_space("abcdef"),
                                          [0.0, 1.0, 2.0, 3.0])
    assert presheaf.check_presheaf(fp) == (True, None)
    assert time.perf_counter() - start < 2.0
    assert sum(len(t) for t in fp.restrictions.values()) == 515_816


@pytest.mark.parametrize("index", [99, 6, -1])
def test_germ_refuses_an_element_outside_the_lattice(index):
    # 99 ended in an IndexError, -1 in "negative shift count"
    mo2 = standard_lattices()["mo2"]
    ps = presheaf.spectral_presheaf(mo2, [0.0, 1.0])
    q = stone.enumerate_quasipoints(mo2)[0]
    with pytest.raises(InputError) as err:
        presheaf.germ(ps, q, index, ps.values_at(mo2.one)[0])
    assert str(err.value) == "the germ element is not an element of the lattice"
    assert err.value.witness == [index, 6]
