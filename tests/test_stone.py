"""Dual ideals and the quasipoint space, checked against an exhaustive
subset scan, and the generator-based order and inclusion graph against the
mask scans they replaced."""
import dataclasses
import itertools

import numpy as np
import pytest

from obslat import corpus, jsonio, observables as ob, stone
from obslat.errors import InputError, PreconditionError
from obslat.lattice import bits, mask_from
from obslat.spectral import spectral_family


def brute_dual_ideals(lat):
    """Every nonempty proper up-closed meet-closed subset, as masks."""
    out = []
    for mask in range(1, 1 << lat.n):
        members = bits(mask)
        if lat.zero in members:
            continue
        up = all(not lat.le(a, b) or (mask >> b) & 1
                 for a in members for b in range(lat.n))
        closed = all((mask >> lat.meet(a, b)) & 1
                     for a, b in itertools.combinations(members, 2))
        if up and closed:
            out.append(mask)
    return sorted(out)


@pytest.mark.parametrize("name,count", [
    ("chain3", 2), ("b2", 3), ("mo2", 5), ("b3", 7), ("o6", 5)])
def test_dual_ideal_counts(lattices, name, count):
    lat = lattices[name]
    found = stone.enumerate_dual_ideals(lat)
    assert len(found) == count
    assert sorted(i.mask for i in found) == brute_dual_ideals(lat)


def test_every_dual_ideal_is_principal(lattices):
    for name in ["chain4", "mo2", "b3", "o6", "b2xchain3"]:
        lat = lattices[name]
        expected = {stone.principal(lat, a).mask
                    for a in range(lat.n) if a != lat.zero}
        assert {i.mask for i in stone.enumerate_dual_ideals(lat)} == expected


@pytest.mark.parametrize("name,count", [
    ("mo2", 4), ("b3", 3), ("b2", 2), ("chain3", 1), ("o6", 2)])
def test_quasipoint_counts(lattices, name, count):
    lat = lattices[name]
    qs = stone.enumerate_quasipoints(lat)
    assert len(qs) == count
    # maximal ideals are exactly the cones over atoms
    assert {q.generator() for q in qs} == set(lat.atoms())


def test_mo2_quasipoints_listed(lattices):
    mo2 = lattices["mo2"]
    got = sorted(sorted(q.names()) for q in stone.enumerate_quasipoints(mo2))
    assert got == [["1", "a"], ["1", "a'"], ["1", "b"], ["1", "b'"]]


def test_principal_membership(lattices):
    mo2 = lattices["mo2"]
    h = stone.principal(mo2, mo2.index("a"))
    assert sorted(h.names()) == ["1", "a"]
    assert h.contains(mo2.one)
    assert not h.contains(mo2.index("b"))
    assert h.generator() == mo2.index("a")
    assert h.size() == 2


def test_maximality_census(lattices):
    """An ideal is maximal iff no other proper ideal strictly contains it."""
    for name in ["mo2", "b3", "chain4"]:
        lat = lattices[name]
        all_ideals = [i.mask for i in stone.enumerate_dual_ideals(lat)]
        maximal = {m for m in all_ideals
                   if not any(m != o and (m & o) == m for o in all_ideals)}
        assert {q.mask for q in stone.enumerate_quasipoints(lat)} == maximal


def test_cone_and_filter_base(lattices):
    mo2 = lattices["mo2"]
    a, ap, b = mo2.index("a"), mo2.index("a'"), mo2.index("b")
    ok, witness = stone.is_filter_base(mo2, [a])
    assert ok and witness is None
    ideal = stone.cone(mo2, [a])
    assert ideal.mask == stone.principal(mo2, a).mask

    ok, witness = stone.is_filter_base(mo2, [a, ap])
    assert not ok
    assert witness["kind"] == "no-lower-bound-in-set"
    assert sorted(witness["pair"]) == ["a", "a'"]
    with pytest.raises(PreconditionError):
        stone.cone(mo2, [a, ap])
    with pytest.raises(PreconditionError):
        stone.cone(mo2, [a, b])


def test_cone_needs_directedness_inside_the_set(lattices):
    b3 = lattices["b3"]
    x, y = b3.index("{1,2}"), b3.index("{2,3}")
    # the pair has a common lower bound in the lattice but not in the set,
    # so it is no filter base; adding the meet repairs it
    with pytest.raises(PreconditionError):
        stone.cone(b3, [x, y])
    m = b3.meet(x, y)
    ideal = stone.cone(b3, [x, y, m])
    assert ideal.generator() == m == b3.index("{2}")


def test_basis_set_is_upper_stone_set(lattices):
    b3 = lattices["b3"]
    for a in range(b3.n):
        if a == b3.zero:
            continue
        qs = stone.basis_set(b3, a)
        expected = [q for q in stone.enumerate_quasipoints(b3)
                    if q.contains(a)]
        assert {q.mask for q in qs} == {q.mask for q in expected}


def test_ideal_recovery_needs_atomisticity(lattices):
    """Intersecting the quasipoints through an element recovers its cone
    exactly on the atomistic lattices."""
    for name, lat in lattices.items():
        qs = stone.enumerate_quasipoints(lat)
        mismatch = None
        for a in range(lat.n):
            if a == lat.zero:
                continue
            through = [q.mask for q in qs if q.contains(a)]
            if not through:
                continue
            inter = through[0]
            for m in through[1:]:
                inter &= m
            if inter != stone.principal(lat, a).mask:
                mismatch = a
                break
        if lat.is_atomistic():
            assert mismatch is None, name
        else:
            assert mismatch is not None, name


def test_chain3_recovery_counterexample(lattices):
    chain3 = lattices["chain3"]
    one = chain3.one
    qs = [q for q in stone.enumerate_quasipoints(chain3) if q.contains(one)]
    inter = qs[0].mask
    for q in qs[1:]:
        inter &= q.mask
    # the single quasipoint sits over m, so the intersection keeps m
    assert sorted(chain3.names[i] for i in bits(inter)) == ["1", "m"]
    assert stone.principal(chain3, one).size() == 1


def test_read_ideal_roundtrip(lattices):
    mo2 = lattices["mo2"]
    ideal = jsonio.read_ideal(mo2, "a,1")
    assert ideal.mask == stone.principal(mo2, mo2.index("a")).mask
    with pytest.raises(InputError):
        jsonio.read_ideal(mo2, "nope")


def test_quasipoints_over_center(lattices):
    lat = lattices["mo2xb1"]
    sub, _ = lat.sublattice(lat.center())
    traces = set()
    for q in stone.enumerate_quasipoints(lat):
        tr = stone.quasipoints_over_center(lat, q)
        # each trace is itself maximal in the 4-element center
        assert tr.generator() in sub.atoms()
        traces.add(tr.mask)
    # the five ambient quasipoints land on the two central blocks
    assert len(traces) == 2


def test_inclusion_dot_mentions_every_ideal(lattices):
    mo2 = lattices["mo2"]
    dot = stone.inclusion_dot(mo2)
    assert dot.startswith("digraph")
    for ideal in stone.enumerate_dual_ideals(mo2):
        assert f'"H({mo2.names[ideal.generator()]})"' in dot


def test_dual_ideal_holds_its_generator(lattices):
    assert [f.name for f in dataclasses.fields(stone.DualIdeal)
            if f.compare] == ["least"]
    mo2 = lattices["mo2"]
    a = mo2.index("a")
    ideal = jsonio.read_ideal(mo2, "1,a")
    assert ideal.least == a and ideal == stone.principal(mo2, a)
    assert ideal.mask == mo2.upset_mask(a)


# -- the mask scans that generators replaced, kept as oracles -----------------

def oracle_lattices():
    lats = dict(corpus.standard_lattices())
    lats["b6"] = corpus.boolean_algebra(6)
    lats["mo3xb3"] = corpus.product(corpus.mo(3), corpus.boolean_algebra(3))
    return lats


def up_masks(lat):
    return [mask_from(b for b in range(lat.n) if lat.le(a, b))
            for a in range(lat.n)]


def mask_sorted(lat, gens, top):
    """Generators sorted by (size, member tuple) of their ideal's member
    mask inside the nonzero elements under top."""
    under = mask_from(b for b in range(lat.n)
                      if b != lat.zero and lat.le(b, top))
    up = up_masks(lat)
    keyed = sorted((m.bit_count(), tuple(bits(m)), a)
                   for a in gens for m in [up[a] & under])
    return [a for _, _, a in keyed]


def mask_inclusion_dot(lat):
    """Cover edges found by testing every pair of ideal masks against every
    third ideal."""
    up = up_masks(lat)
    masks = [up[a] for a in mask_sorted(lat, range(lat.n), lat.one)
             if a != lat.zero]
    label = {m: "H(" + lat.names[lat.meet_of(bits(m))] + ")" for m in masks}
    lines = ["digraph dual_ideals {", "  rankdir=BT;"]
    for m in masks:
        lines.append(f'  "{label[m]}";')
    for a in masks:
        for b in masks:
            if a == b or (a & b) != a:
                continue
            strict = [c for c in masks
                      if c not in (a, b) and (a & c) == a and (c & b) == c]
            if not strict:
                lines.append(f'  "{label[a]}" -> "{label[b]}";')
    lines.append("}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(oracle_lattices()))
def test_generator_order_and_dot_match_mask_scans(name):
    lat = oracle_lattices()[name]
    nonzero = [a for a in range(lat.n) if a != lat.zero]
    assert [j.generator() for j in stone.enumerate_dual_ideals(lat)] == \
        mask_sorted(lat, nonzero, lat.one)
    assert [q.generator() for q in stone.enumerate_quasipoints(lat)] == \
        mask_sorted(lat, lat.atoms(), lat.one)
    for top in nonzero:
        under = [a for a in nonzero if lat.le(a, top)]
        expected = mask_sorted(lat, under, top)
        # the memoized order is handed out as a fresh list each call
        first = stone.canonical_order(lat, top)
        assert first == stone.canonical_order(lat, top) == expected
        first.append(lat.zero)
        assert stone.canonical_order(lat, top) == expected
    assert stone.inclusion_dot(lat) == mask_inclusion_dot(lat)


def test_equal_lattices_and_sublattices_keep_their_own_orders():
    lat = corpus.product(corpus.mo(3), corpus.boolean_algebra(3))
    twin = corpus.product(corpus.mo(3), corpus.boolean_algebra(3))
    sub, _ = lat.sublattice(lat.center())
    for one in (lat, twin, sub):
        nonzero = [a for a in range(one.n) if a != one.zero]
        for top in nonzero:
            under = [a for a in nonzero if one.le(a, top)]
            assert stone.canonical_order(one, top) == \
                mask_sorted(one, under, top)
    assert lat is not twin and lat == twin and hash(lat) == hash(twin)


@pytest.mark.parametrize("index", [99, 6, -1])
def test_canonical_order_refuses_a_top_outside_the_lattice(lattices, index):
    with pytest.raises(InputError) as err:
        stone.canonical_order(lattices["mo2"], index)
    assert str(err.value) == "the ideal top is not an element of the lattice"
    assert err.value.witness == [index, 6]


@pytest.mark.parametrize("index", [99, 6, -1])
def test_principal_refuses_a_generator_outside_the_lattice(lattices, index):
    # -1 used to wrap around to the top's up-set
    with pytest.raises(InputError) as err:
        stone.principal(lattices["mo2"], index)
    assert str(err.value) == ("the ideal generator is not an element of "
                              "the lattice")
    assert err.value.witness == [index, 6]


@pytest.mark.parametrize("index", [99, 6, -1])
def test_basis_set_refuses_an_element_outside_the_lattice(lattices, index):
    # 99 used to give an empty basic open
    with pytest.raises(InputError) as err:
        stone.basis_set(lattices["mo2"], index)
    assert str(err.value) == "the basis element is not an element of the lattice"
    assert err.value.witness == [index, 6]


@pytest.mark.parametrize("index", [99, 6, -1])
def test_is_filter_base_refuses_a_member_outside_the_lattice(lattices, index):
    # -1 used to be read as the top, and 99 ended in an IndexError
    mo2 = lattices["mo2"]
    with pytest.raises(InputError) as err:
        stone.is_filter_base(mo2, [mo2.index("a"), index])
    assert str(err.value) == ("the filter base member is not an element of "
                              "the lattice")
    assert err.value.witness == [index, 6]


@pytest.mark.parametrize("index", [99, 6, -1])
def test_cone_refuses_a_member_outside_the_lattice(lattices, index):
    # cone(mo2, [-1]) used to return the up-set of the top
    with pytest.raises(InputError) as err:
        stone.cone(lattices["mo2"], [index])
    assert str(err.value) == ("the filter base member is not an element of "
                              "the lattice")
    assert err.value.witness == [index, 6]


# -- filter bases: the triple loop the meet replaced, kept as the oracle ----

def ref_is_filter_base(lattice, subset):
    """Nonempty, bottom-free, and every pair with a lower bound in the set,
    by one le call per (pair, candidate) in ascending index order."""
    elems = sorted(set(int(a) for a in subset))
    for a in elems:
        lattice._check_element(a, "filter base member")
    if not elems:
        return False, {"kind": "empty"}
    if lattice.zero in elems:
        return False, {"kind": "contains-bottom"}
    for a in elems:
        for b in elems:
            if not any(lattice.le(c, a) and lattice.le(c, b) for c in elems):
                return False, {"kind": "no-lower-bound-in-set",
                               "pair": [lattice.names[a], lattice.names[b]]}
    return True, None


def small_lattices():
    """The standard lattices with at most 12 elements, so every subset can be
    tried."""
    return {k: lat for k, lat in corpus.standard_lattices().items()
            if lat.n <= 12}


def test_filter_base_verdicts_and_witnesses_match_the_triple_loop():
    subsets = bases = 0
    for lat in small_lattices().values():
        for mask in range(1 << lat.n):
            got = stone.is_filter_base(lat, bits(mask))
            assert got == ref_is_filter_base(lat, bits(mask)), (lat, mask)
            subsets += 1
            bases += got[0]
    assert (len(small_lattices()), subsets, bases) == (14, 8992, 436)


MO2 = corpus.standard_lattices()["mo2"]


# case -> (call, its witness, its message); each call used to escape untyped
# or to read a truncated index
WRONG_TYPES = {
    "observable-key-str": (lambda: ob.observable(MO2, {"a": 1.0}), "a",
                           "value keyed by unknown element"),
    "observable-key-none": (lambda: ob.observable(MO2, {None: 1.0}), None,
                            "value keyed by unknown element"),
    "observable-key-float": (lambda: ob.observable(MO2, {1.5: 1.0}), 1.5,
                             "value keyed by unknown element"),
    "observable-key-bool": (lambda: ob.observable(MO2, {True: 1.0}), True,
                            "value keyed by unknown element"),
    "observable-value-none": (lambda: ob.observable(MO2, {1: None}), "a",
                              "the value at a is not a finite real"),
    "observable-value-str": (lambda: ob.observable(MO2, {1: "x"}), "a",
                             "the value at a is not a finite real"),
    "observable-value-bool": (lambda: ob.observable(MO2, {1: True}), "a",
                              "the value at a is not a finite real"),
    "observable-value-huge": (lambda: ob.observable(MO2, {1: 10**400}), "a",
                              "the value at a is not a finite real"),
    "family-element-str": (
        lambda: spectral_family(MO2, [(1.0, "a"), (2.0, 5)]), "a",
        "breakpoint element out of range"),
    "family-element-float": (
        lambda: spectral_family(MO2, [(1.0, 1.5), (2.0, 5)]), 1.5,
        "breakpoint element out of range"),
    "cone-str": (lambda: stone.cone(MO2, ["a"]), ["a", 6],
                 "the filter base member is not an element of the lattice"),
    "filter-base-float": (
        lambda: stone.is_filter_base(MO2, [1.5]), [1.5, 6],
        "the filter base member is not an element of the lattice"),
    "sublattice-float": (
        lambda: MO2.sublattice([0, 1.5, 2, 5]), [1.5, 6],
        "the sublattice member is not an element of the lattice"),
    "criterion-key-str": (
        lambda: ob.observability_criterion(MO2, {"a": 1.0}), ["a", 6],
        "the quasipoint key is not an element of the lattice"),
    "principal-bool": (
        lambda: stone.principal(MO2, True), [True, 6],
        "the ideal generator is not an element of the lattice"),
    "key-unclosed-brace": (lambda: jsonio.split_ideal_key("{1"), "{1",
                           "unbalanced braces in ideal key"),
}


@pytest.mark.parametrize("case", list(WRONG_TYPES))
def test_indices_and_values_of_the_wrong_type_are_refused(case):
    call, witness, message = WRONG_TYPES[case]
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message
    assert err.value.witness == witness


def test_numpy_integers_are_element_indices():
    a = np.int64(MO2.index("a"))
    assert stone.principal(MO2, a) == stone.principal(MO2, 1)
    assert stone.cone(MO2, [a, np.int32(5)]).generator() == 1
    assert spectral_family(MO2, [(1.0, a), (2.0, np.int64(5))]).elements() \
        == [1, 5]
