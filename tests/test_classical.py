"""Finite topologies: induced functions, canonical families, continuity."""
import itertools
import random
import time
from itertools import combinations

import pytest

from obslat import classical as cl
from obslat.errors import InputError, PreconditionError, ResourceError
from obslat.lattice import bits, mask_from


def test_space_construction_and_queries():
    sp = cl.sierpinski3()
    assert sp.points == ("1", "2", "3")
    assert sp.is_open(0b001) and sp.is_open(0b011)
    assert not sp.is_open(0b010)
    assert sp.interior(0b010) == 0
    assert sp.closure(0b001) == 0b111
    assert sp.closure(0b100) == 0b100
    assert sorted(sp.opens()) == [0b000, 0b001, 0b011, 0b111]


def test_opens_must_close_under_union_intersection():
    with pytest.raises(InputError):
        cl.FiniteTopSpace(["a", "b", "c"],
                          opens=[0b000, 0b001, 0b010, 0b111])


# The parent construction, verbatim up to returning instead of raising: the
# pairwise closure scan of the opens= constructor, then the neighborhoods.
def pairwise_opens_check(n, opens):
    """None for a rejected family, else (nb_masks, sorted opens)."""
    full = (1 << n) - 1
    opens = sorted(set(int(u) for u in opens))
    if 0 not in opens or full not in opens:
        return None
    oset = set(opens)
    for u, v in combinations(opens, 2):
        if u | v not in oset:
            return None
        if u & v not in oset:
            return None
    nb_masks = []
    for x in range(n):
        m = full
        for u in opens:
            if u >> x & 1:
                m &= u
        nb_masks.append(m)
    return nb_masks, opens


# The parent enumeration, verbatim: every family of middle sets, kept when
# closed under pairwise union and intersection.
def pairwise_all_topologies(n: int) -> list[list[int]]:
    full = (1 << n) - 1
    middles = [m for m in range(1, full)]
    out = []
    for picks in range(1 << len(middles)):
        fam = [0, full] + [m for k, m in enumerate(middles)
                           if picks >> k & 1]
        sfam = set(fam)
        ok = True
        for u in fam:
            for v in fam:
                if u | v not in sfam or u & v not in sfam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(sorted(sfam))
    return out


def oracle_families():
    """Every family of subsets on 1..3 points; 9000 seeded families on 4..6
    points, closed under union and intersection at random and then perhaps
    perturbed by one set; every 4-point topology, whole and with each of its
    opens removed."""
    for n in (1, 2, 3):
        for picks in range(1 << (1 << n)):
            yield n, bits(picks)
    r = random.Random(14)
    for _ in range(9000):
        n = r.randint(4, 6)
        full = (1 << n) - 1
        fam = {0, full} | {r.randrange(full + 1)
                           for _ in range(r.randrange(5))}
        for op in ("__or__", "__and__"):
            if r.random() < 0.7:
                while True:
                    more = {getattr(u, op)(v) for u in fam for v in fam}
                    if more <= fam:
                        break
                    fam |= more
        if r.random() < 0.3:
            fam ^= {r.randrange(full + 1)}
        yield n, sorted(fam)
    for opens in pairwise_all_topologies(4):
        yield 4, opens
        for u in opens:
            yield 4, [v for v in opens if v != u]


def test_validity_matches_the_pairwise_scan():
    valid = total = 0
    for n, opens in oracle_families():
        want = pairwise_opens_check(n, opens)
        try:
            space = cl.FiniteTopSpace(range(n), opens=opens)
            got = space.nb_masks, space.opens()
        except InputError:
            got = None
        assert got == want, (n, opens)
        if want is not None:
            nb = cl.FiniteTopSpace(range(n), nb_masks=want[0])
            assert nb.opens() == want[1]
            valid += 1
        total += 1
    assert total == 11969 and valid > 1000


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_topologies_match_the_pairwise_enumeration(n):
    assert cl.all_topologies(n) == pairwise_all_topologies(n)


@pytest.mark.parametrize("kwargs", [
    {"nb_masks": [1]}, {"nb_masks": [1, 2, 4]}, {"nb_masks": [5, 2]},
    {"nb_masks": [1, -2]}, {"opens": [0, 1, 3, 7]}, {"opens": [-1, 0, 1, 3]},
], ids=repr)
def test_neighborhoods_and_opens_must_fit_the_space(kwargs):
    with pytest.raises(InputError):
        cl.FiniteTopSpace(["a", "b"], **kwargs)


def test_a_large_discrete_space_builds_from_its_opens_at_once():
    start = time.perf_counter()
    space = cl.FiniteTopSpace(range(14), opens=range(1 << 14))
    assert time.perf_counter() - start < 5.0
    assert space.nb_masks == [1 << x for x in range(14)]


def test_min_neighborhood_roundtrip():
    line = cl.digital_line(2)
    assert line.points == ("u0", "v1", "u1", "v2", "u2")
    # cells are open points, vertices stick to their two cells
    assert line.nb_masks[line.points.index("u1")] == \
        1 << line.points.index("u1")
    v1 = line.points.index("v1")
    expected = mask_from([line.points.index("u0"), v1,
                          line.points.index("u1")])
    assert line.nb_masks[v1] == expected


def test_topology_counts():
    assert [len(cl.all_topologies(n)) for n in [1, 2, 3, 4]] == [1, 4, 29, 355]
    with pytest.raises(ResourceError):
        cl.all_topologies(5)


def test_identity_on_sierpinski_is_not_continuous():
    sp = cl.sierpinski3()
    vals = {"1": 0.0, "2": 1.0, "3": 2.0}
    ok, witness = cl.is_continuous_function(sp, vals)
    assert not ok
    assert witness == {"point": "2", "neighbor": "1", "values": [1.0, 0.0]}
    ok, _ = cl.is_continuous_function(sp, {"1": 7.0, "2": 7.0, "3": 7.0})
    assert ok
    # the minimal neighborhood of 3 is the whole space, so a non-constant
    # assignment is out even when 1 and 2 agree
    ok, _ = cl.is_continuous_function(sp, {"1": 0.0, "2": 0.0, "3": 5.0})
    assert not ok


def test_continuous_functions_enumeration():
    sp = cl.sierpinski3()
    fns = cl.continuous_functions(sp, [0.0, 1.0])
    # nb(3) is the whole space, so everything collapses to one class
    assert len(fns) == 2
    assert all(len(set(f.values())) == 1 for f in fns)
    disc = cl.discrete_space(["x", "y"])
    assert len(cl.continuous_functions(disc, [0.0, 1.0])) == 4


def test_family_validation():
    sp = cl.sierpinski3()
    with pytest.raises(InputError):
        cl.top_spectral_family(sp, [(0.0, 0b010), (1.0, 0b111)])
    with pytest.raises(InputError):
        cl.top_spectral_family(sp, [(0.0, 0b011), (1.0, 0b001)])
    with pytest.raises(InputError):
        cl.top_spectral_family(sp, [(0.0, 0b001)])
    with pytest.raises(InputError):
        cl.top_spectral_family(sp, [(0.0, 0b001)], base=0b010)
    fam = cl.top_spectral_family(sp, [(0.0, 0b001)], unbounded_above=True)
    assert fam.value_at(99.0) == 0b001
    assert fam.breakpoints == ((0.0, 0b001),)


def test_induced_function_and_domain():
    sp = cl.sierpinski3()
    fam = cl.top_spectral_family(sp, [(0.5, 0b001), (1.5, 0b111)])
    assert fam.admissible_domain() == 0b111
    assert cl.induced_function(fam, "1") == 0.5
    assert cl.induced_function(fam, "2") == 1.5
    assert cl.induced_function(fam, "3") == 1.5

    # a nonempty base removes its points from the domain
    based = cl.top_spectral_family(sp, [(1.0, 0b111)], base=0b001)
    assert based.admissible_domain() == 0b110
    with pytest.raises(PreconditionError):
        cl.induced_function(based, "1")

    tail = cl.top_spectral_family(sp, [(0.0, 0b001)], unbounded_above=True)
    with pytest.raises(PreconditionError):
        cl.induced_function(tail, "3")


def test_sigma_and_induced_are_inverse():
    """On every topology over four points and every function into a fixed
    finite value set, the canonical family returns the function."""
    values = [0.0, 0.5, 1.0, 1.5]
    checked = 0
    for n in [2, 3]:
        for opens in cl.all_topologies(n):
            points = [f"p{i}" for i in range(n)]
            space = cl.FiniteTopSpace(points, opens=opens)
            for combo in itertools.product(values, repeat=n):
                vals = dict(zip(points, combo))
                ok, _ = cl.is_continuous_function(space, vals)
                if not ok:
                    continue
                fam = cl.sigma_from_function(space, vals)
                assert fam.admissible_domain() == space.full
                for p in points:
                    assert cl.induced_function(fam, p) == vals[p]
                checked += 1
    assert checked > 50


def test_family_continuity_needs_clopen_values():
    sp = cl.sierpinski3()
    fam = cl.top_spectral_family(sp, [(0.5, 0b001), (1.5, 0b111)])
    ok, witness, _ = cl.is_continuous_family(fam)
    assert not ok
    assert witness["lambda"] == 0.5
    assert witness["value"] == ["1"]
    assert witness["closure"] == ["1", "2", "3"]

    disc = cl.discrete_space(["x", "y"])
    fam2 = cl.top_spectral_family(disc, [(0.0, 0b01), (1.0, 0b11)])
    ok2, _, report = cl.is_continuous_family(fam2)
    assert ok2
    assert report["regular_open"] and report["admissible_domain_open"]


def sublevel_regularization_gap(space, vals):
    """Values v where the interior of the intersection of the strict
    sublevel sets over every cut above v differs from the interior of the
    closed sublevel set at v; vals lists one value per point."""
    distinct = sorted(set(vals))
    eps = min((b - a for a, b in zip(distinct, distinct[1:])), default=1.0) / 2
    bad = []
    for v in distinct:
        inter = space.full
        for mu in [m for m in distinct if m > v] + [v + eps]:
            inter &= mask_from(i for i, fv in enumerate(vals) if fv < mu)
        if space.interior(inter) != space.interior(
                mask_from(i for i, fv in enumerate(vals) if fv <= v)):
            bad.append(v)
    return bad


def test_regularization_gap_empty_on_finite_spaces():
    sp = cl.sierpinski3()
    for combo in itertools.product([0.0, 1.0, 2.0], repeat=3):
        assert sublevel_regularization_gap(sp, list(combo)) == []


def test_open_set_lattice_bridge():
    sp = cl.sierpinski3()
    lat, opens = cl.open_set_lattice(sp)
    assert lat.n == 4
    assert lat.ortho is None
    ok, _ = lat.is_distributive()
    assert ok
    fam = cl.top_spectral_family(sp, [(0.5, 0b001), (1.5, 0b111)])
    lfam, lat2, opens2 = cl.lattice_family_of(fam)
    assert [lam for lam, _ in lfam.breakpoints] == [0.5, 1.5]
    assert [opens2[e] for _, e in lfam.breakpoints] == [0b001, 0b111]


def test_grid_coordinates():
    assert cl.grid_coordinates(-1.0, 1.0, 0.5) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    # no point past hi, and a count a rounding error short of whole still
    # reaches hi
    assert cl.grid_coordinates(0.0, 1.0, 0.6) == [0.0, 0.6]
    assert cl.grid_coordinates(0.0, 1.0, 0.1)[-1] == 1.0
    assert len(cl.grid_coordinates(0.0, 1.0, 0.1)) == 11
    assert cl.grid_coordinates(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.3]
    assert len(cl.grid_coordinates(-2.0, 2.0, 0.25)) == 17
    with pytest.raises(InputError):
        cl.grid_coordinates(1.0, -1.0, 0.5)
    with pytest.raises(ResourceError):
        cl.grid_coordinates(0.0, 10.0, 0.1)


def test_demo_families_hit_their_targets():
    for kind in ["id", "abs", "ln", "step"]:
        demo = cl.demo_family(kind)
        fam = demo["family"]
        for point, want in demo["targets"].items():
            assert cl.induced_function(fam, point) == pytest.approx(want), kind


def test_demo_ln_drops_zero():
    demo = cl.demo_family("ln", lo=0.0, hi=2.0, step=0.5)
    dom = demo["family"].admissible_domain()
    names = [demo["family"].space.points[i] for i in bits(dom)]
    assert "0" not in names
    assert any("drops" in note for note in demo["notes"])


def test_demo_step_line_is_discontinuous():
    demo = cl.demo_family("step-line")
    ok, witness, _ = cl.is_continuous_family(demo["family"])
    assert not ok and witness is not None
    assert len(demo["family"].space.points) == 9
    # the line has 2n + 1 points for n = hi - lo; the cap is checked first
    assert len(cl.demo_family("step-line", 0.0, 23.0)["family"].space.points) \
        == cl.GRID_POINTS - 1
    with pytest.raises(ResourceError):
        cl.demo_family("step-line", 0.0, 24.0)


def test_demo_unbounded_has_open_tail():
    demo = cl.demo_family("id-unbounded")
    assert demo["family"].unbounded_above
    with pytest.raises(InputError):
        cl.demo_family("nope")
