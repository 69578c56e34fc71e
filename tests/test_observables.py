"""Tables on dual ideals: the two axioms, reconstruction, and the same table
read on elements.  One independent oracle enumerates every bounded family
outright and compares memberships; the others are the pairwise scans over
dual ideals and over elements that the vectorized join law replaced,
compared witness for witness."""
import itertools
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslat import corpus, observables as ob, stone
from obslat.errors import CheckFailure, InputError, PreconditionError
from obslat.lattice import FiniteOrthoLattice, bits, mask_from
from obslat.spectral import restrict_family, sample_family, spectral_family
from obslat.stone import principal
from test_stone import oracle_lattices


def all_bounded_families(lat, values):
    """Every spectral family whose breakpoints draw from the given values."""
    chains = []

    def grow(chain):
        if chain[-1] == lat.one:
            chains.append(list(chain))
        for e in range(lat.n):
            if e != lat.zero and e != chain[-1] and lat.le(chain[-1], e):
                grow(chain + [e])

    for e in range(lat.n):
        if e != lat.zero:
            grow([e])
    fams = []
    for chain in chains:
        for vals in itertools.combinations(sorted(values), len(chain)):
            fams.append(spectral_family(lat, list(zip(vals, chain))))
    return fams


# -- reference scans over dual ideals -----------------------------------------

@dataclass(frozen=True)
class RefIdeal:
    """A dual ideal held as its member mask, apart from the package's own
    representation; its generator is the meet of its members."""
    lattice: FiniteOrthoLattice
    mask: int

    def members(self):
        return bits(self.mask)

    def names(self):
        return [self.lattice.names[i] for i in self.members()]

    def contains(self, a):
        return bool(self.mask >> a & 1)

    def size(self):
        return self.mask.bit_count()

    def generator(self):
        return self.lattice.meet_of(self.members())


def ref_ideals(f):
    """The dual ideals of the table's domain, in canonical order."""
    lat = f.lattice
    dom = mask_from(f.domain())
    out = [RefIdeal(lat, dom & mask_from(b for b in range(lat.n)
                                         if lat.le(a, b)))
           for a in f.domain()]
    out.sort(key=lambda j: (j.size(), tuple(j.members())))
    return out


def ref_intersection(f):
    lat = f.lattice
    ideals = ref_ideals(f)
    for ja in ideals:
        for jb in ideals:
            inter = RefIdeal(lat, ja.mask & jb.mask)
            expected = max(f.at_ideal(ja), f.at_ideal(jb))
            got = f.at_ideal(inter)
            if got != expected:
                return False, {
                    "family": [ja.names(), jb.names()],
                    "intersection": inter.names(),
                    "value": got, "sup_of_values": expected}
    return True, None


def ref_usc(f):
    ideals = ref_ideals(f)
    for ja in ideals:
        for jb in ideals:
            if (ja.mask & jb.mask) == ja.mask and ja.mask != jb.mask:
                if f.at_ideal(ja) < f.at_ideal(jb):
                    return False, {
                        "kind": "not-decreasing",
                        "smaller": ja.names(), "larger": jb.names(),
                        "values": [f.at_ideal(ja), f.at_ideal(jb)]}
    for j in ideals:
        low = min(f.at_element(p) for p in j.members())
        if f.at_ideal(j) != low:
            return False, {
                "kind": "not-min-of-principal-values",
                "ideal": j.names(), "value": f.at_ideal(j),
                "min_over_members": low}
    return True, None


def ref_completely_increasing(r):
    """The join law pair by pair, in element index order, with the witness
    naming elements."""
    lat = r.lattice
    for a in r.domain():
        for b in r.domain():
            j = lat.join(a, b)
            expected = max(r.at_element(a), r.at_element(b))
            if r.at_element(j) != expected:
                return False, {
                    "family": [lat.names[a], lat.names[b]],
                    "join": lat.names[j],
                    "value": r.at_element(j), "sup_of_values": expected}
    return True, None


def dual_ideal_violation(lattice, mask):
    """None if the mask is a dual ideal, else a witness dict saying why not:
    the member-by-member scan the package once kept as a public check."""
    if mask == 0:
        return {"kind": "empty"}
    members = bits(mask)
    if lattice.zero in members:
        return {"kind": "contains-bottom", "element": lattice.names[lattice.zero]}
    mset = set(members)
    for a in members:
        for b in bits(lattice.upset_mask(a)):
            if b not in mset:
                return {"kind": "not-up-closed",
                        "element": lattice.names[a], "missing": lattice.names[b]}
        for b in members:
            if lattice.meet(a, b) not in mset:
                return {"kind": "not-meet-closed",
                        "pair": [lattice.names[a], lattice.names[b]],
                        "missing": lattice.names[lattice.meet(a, b)]}
    return None


def ref_reconstruct(f):
    """Generator of the intersection of the ideals valued at most v, for each
    image value v; whole-lattice tops only."""
    lat = f.lattice
    assert f.top == lat.one
    pairs = []
    for v in f.image():
        inter = None
        for j in ref_ideals(f):
            if f.at_ideal(j) <= v:
                inter = j.mask if inter is None else inter & j.mask
        assert dual_ideal_violation(lat, inter) is None
        pairs.append((v, RefIdeal(lat, inter).generator()))
    return spectral_family(lat, pairs, top=f.top)


def ref_observable_table(family):
    """The value at each a under the top is the first breakpoint whose
    element lies above a."""
    lat = family.lattice
    return tuple(
        next(lam for lam, e in family.breakpoints if lat.le(a, e))
        if a != lat.zero and lat.le(a, family.top) else None
        for a in range(lat.n))


def perturbed_table(lat, r):
    """A sampled table, restricted to a random top a third of the time, with
    zero to two of its values moved."""
    fam = sample_family(lat, r)
    if r.random() < 1 / 3:
        c = r.choice([a for a in range(lat.n) if a != lat.zero])
        fam = restrict_family(fam, c)
    f = ob.observable_table(fam)
    vals = {a: f.values[a] for a in f.domain()}
    moves = fam.spectrum() + [min(fam.spectrum()) - 0.25,
                              max(fam.spectrum()) + 0.25]
    for _ in range(r.randrange(3)):
        vals[r.choice(f.domain())] = r.choice(moves)
    return ob.observable(lat, vals, top=f.top, checked=False)


def assert_matches_reference(f):
    ok1, w1 = ob.check_intersection_condition(f)
    assert (ok1, w1) == ref_intersection(f)
    ok2, w2 = ob.check_upper_semicontinuous(f)
    assert (ok2, w2) == ref_usc(f)
    if ok1 and ok2:
        rec = ob.reconstruct(f)
        assert ob.observable_table(rec).values == f.values
        if f.top == f.lattice.one:
            assert rec == ref_reconstruct(f)


def shuffled(lat, r):
    """The same lattice with its element indices shuffled, so that index
    order is no longer a linear extension of the lattice order."""
    perm = list(range(lat.n))      # new index k holds old element perm[k]
    r.shuffle(perm)
    pos = {old: k for k, old in enumerate(perm)}
    ortho = None if lat.ortho is None else [pos[lat.ortho[p]] for p in perm]
    return FiniteOrthoLattice([lat.names[p] for p in perm],
                              lat.leq[np.ix_(perm, perm)], ortho)


def test_checks_match_reference_scans_on_corpus(lattices):
    r = random.Random(3)
    for lat in lattices.values():
        # ties in ideal size are broken by member tuple, not by generator
        # index; only shuffled copies, and only a few tables, tell them apart
        for copy in [lat] + [shuffled(lat, r) for _ in range(6)]:
            for _ in range(12):
                assert_matches_reference(perturbed_table(copy, r))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(list(corpus.standard_lattices())),
       seed=st.integers(0, 10 ** 6))
def test_checks_match_reference_scans_sampled(name, seed):
    lat = corpus.standard_lattices()[name]
    assert_matches_reference(perturbed_table(lat, random.Random(seed)))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(list(corpus.standard_lattices())),
       seed=st.integers(0, 10 ** 6))
def test_the_join_law_implies_upper_semicontinuity(name, seed):
    """reconstruct and observable run only the intersection check: for
    b <= a the join law gives r(a) >= r(b), so a table that passes it is
    upper semicontinuous as well."""
    lat = corpus.standard_lattices()[name]
    r = random.Random(seed)
    top = r.choice([a for a in range(lat.n) if a != lat.zero])
    vals = {a: float(r.randrange(3)) for a in range(lat.n)
            if a != lat.zero and lat.le(a, top)}
    for f in (ob.observable(lat, vals, top=top, checked=False),
              perturbed_table(lat, r)):
        if ob.check_intersection_condition(f)[0]:
            assert ob.check_upper_semicontinuous(f) == (True, None)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(list(corpus.standard_lattices())),
       seed=st.integers(0, 10 ** 6))
def test_completely_increasing_matches_the_pair_scan(name, seed):
    """The element-order witness, pinned against a pair scan in index order;
    shuffled copies make index order differ from the lattice order."""
    r = random.Random(seed)
    lat = corpus.standard_lattices()[name]
    if r.random() < 0.5:
        lat = shuffled(lat, r)
    f = perturbed_table(lat, r)
    assert ob.check_completely_increasing(f) == ref_completely_increasing(f)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(list(corpus.standard_lattices())),
       seed=st.integers(0, 10 ** 6))
def test_the_two_join_law_readings_agree(name, seed):
    """The intersection condition and complete increase are one law read in
    two orders: same verdict, and each witness is a failure of the table."""
    lat = corpus.standard_lattices()[name]
    f = perturbed_table(lat, random.Random(seed))
    ok1, w1 = ob.check_intersection_condition(f)
    ok2, w2 = ob.check_completely_increasing(f)
    assert ok1 == ok2
    if ok2:
        return
    a, b = (lat.index(n) for n in w2["family"])
    assert lat.names[lat.join(a, b)] == w2["join"]
    assert w2["value"] == f.at_element(lat.index(w2["join"]))
    assert w2["sup_of_values"] == max(f.at_element(a), f.at_element(b))
    ja, jb = (lat.meet_of(map(lat.index, names)) for names in w1["family"])
    assert sorted(w1["intersection"]) == sorted(
        set(w1["family"][0]) & set(w1["family"][1]))
    assert w1["value"] == f.at_element(lat.join(ja, jb))
    assert w1["sup_of_values"] == max(f.at_element(ja), f.at_element(jb))
    assert w1["value"] != w1["sup_of_values"]
    assert w2["value"] != w2["sup_of_values"]


def by_name(f):
    return {f.lattice.names[a]: f.values[a] for a in f.domain()}


def mo2_example(lattices):
    mo2 = lattices["mo2"]
    return mo2, spectral_family(
        mo2, [(1.0, mo2.index("a")), (2.0, mo2.one)])


def test_example_values_on_ideals(lattices):
    mo2, fam = mo2_example(lattices)
    h = lambda nm: principal(mo2, mo2.index(nm))
    assert ob.observable_from_spectral(fam, h("a")) == 1.0
    assert ob.observable_from_spectral(fam, h("b")) == 2.0
    assert ob.observable_from_spectral(fam, h("1")) == 2.0
    assert ob.observable_from_spectral(fam, h("a'")) == 2.0


def test_unbounded_inside_ideal_refused(lattices):
    mo2 = lattices["mo2"]
    a = mo2.index("a")
    fam = spectral_family(mo2, [(1.0, a)], top=a)
    with pytest.raises(PreconditionError):
        ob.observable_from_spectral(fam, principal(mo2, mo2.index("b")))


def test_full_table_and_roundtrip(lattices):
    mo2, fam = mo2_example(lattices)
    f = ob.observable_table(fam)
    assert by_name(f) == {
        "a": 1.0, "a'": 2.0, "b": 2.0, "b'": 2.0, "1": 2.0}
    assert f.image() == [1.0, 2.0]
    rec = ob.reconstruct(f)
    assert rec.breakpoints == fam.breakpoints


def test_square_reconstruction_example(lattices):
    b2 = lattices["b2"]
    p = b2.index("{1}")
    fam = spectral_family(b2, [(0.5, p), (1.5, b2.one)])
    f = ob.observable_table(fam)
    assert by_name(f) == {"{1}": 0.5, "{2}": 1.5, "{1,2}": 1.5}
    assert ob.reconstruct(f).breakpoints == ((0.5, p), (1.5, b2.one))


def test_intersection_condition_witness(lattices):
    mo2 = lattices["mo2"]
    vals = {mo2.index("a"): 1.0, mo2.index("a'"): 2.0, mo2.index("b"): 1.5,
            mo2.index("b'"): 2.0, mo2.one: 2.0}
    f = ob.observable(mo2, vals, checked=False)
    ok, witness = ob.check_intersection_condition(f)
    assert not ok
    assert witness == {"family": [["a", "1"], ["b", "1"]],
                       "intersection": ["1"],
                       "value": 2.0, "sup_of_values": 1.5}
    ok, _ = ob.check_upper_semicontinuous(f)
    assert ok
    with pytest.raises(CheckFailure):
        ob.reconstruct(f)
    with pytest.raises(CheckFailure):
        ob.observable(mo2, vals)


def test_usc_witness(lattices):
    mo2 = lattices["mo2"]
    vals = {mo2.index("a"): 2.0, mo2.index("a'"): 2.0, mo2.index("b"): 2.0,
            mo2.index("b'"): 2.0, mo2.one: 1.0}
    f = ob.observable(mo2, vals, checked=False)
    ok, witness = ob.check_upper_semicontinuous(f)
    assert not ok
    assert witness["kind"] == "not-decreasing"
    assert witness["smaller"] == ["1"]
    assert witness["values"] == [1.0, 2.0]


def test_construction_errors(lattices):
    mo2 = lattices["mo2"]
    with pytest.raises(InputError):
        ob.observable(mo2, {99: 1.0})
    with pytest.raises(InputError):
        ob.observable(mo2, {mo2.zero: 1.0})
    with pytest.raises(InputError):
        ob.observable(mo2, {mo2.index("a"): 1.0})   # not total
    a = mo2.index("a")
    with pytest.raises(InputError):
        # b does not sit under the top a
        ob.observable(mo2, {a: 1.0, mo2.index("b"): 2.0}, top=a)
    for top in (99, -1):
        with pytest.raises(InputError) as err:
            ob.observable(mo2, {a: 1.0}, top=top)
        assert err.value.witness == [top, mo2.n]
    # no dual ideal lies under bottom, so there is no table there
    with pytest.raises(PreconditionError) as err:
        ob.observable(mo2, {}, top=mo2.zero)
    assert err.value.witness == "0"
    whole = {b: 1.0 for b in range(mo2.n) if b != mo2.zero}
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError) as err:
            ob.observable(mo2, {**whole, mo2.index("b"): bad}, checked=False)
        assert err.value.witness == "b"


@pytest.mark.parametrize("name,values", [
    ("chain3", (0.0, 1.0, 2.0)),
    ("b2", (0.0, 0.5, 1.0)),
    ("mo2", (0.0, 1.0)),
])
def test_axioms_accept_exactly_the_family_tables(lattices, name, values):
    lat = lattices[name]
    valid = {}
    for fam in all_bounded_families(lat, values):
        key = tuple(ob.observable_table(fam).values)
        valid.setdefault(key, fam)
    dom = [a for a in range(lat.n) if a != lat.zero]
    accepted = 0
    for combo in itertools.product(values, repeat=len(dom)):
        f = ob.observable(lat, dict(zip(dom, combo)), checked=False)
        ok1, _ = ob.check_intersection_condition(f)
        ok2, _ = ob.check_upper_semicontinuous(f)
        if tuple(f.values) in valid:
            assert ok1 and ok2, combo
            accepted += 1
            rec = ob.reconstruct(f)
            assert tuple(ob.observable_table(rec).values) == tuple(f.values)
        else:
            assert not (ok1 and ok2), combo
    assert accepted == len(valid)


def test_element_picture_bijection(lattices, rng):
    for name in ["mo2", "b3", "o6", "b2xchain3"]:
        lat = lattices[name]
        for _ in range(20):
            fam = sample_family(lat, rng)
            f = ob.observable_table(fam)
            for ideal in stone.enumerate_dual_ideals(lat):
                assert (min(map(f.at_element, ideal.members()))
                        == f.at_ideal(ideal))
            back, ok, witness = ob.observable_from_increasing(f)
            assert ok and witness is None
            assert back.values == f.values


def test_completely_increasing_witness(lattices):
    mo2 = lattices["mo2"]
    r = ob.observable(mo2, {
        mo2.index("a"): 1.0, mo2.index("a'"): 2.0, mo2.index("b"): 1.5,
        mo2.index("b'"): 2.0, mo2.one: 2.0}, checked=False)
    ok, witness = ob.check_completely_increasing(r)
    assert not ok
    assert witness == {"family": ["a", "b"], "join": "1",
                       "value": 2.0, "sup_of_values": 1.5}


def test_quasipoint_table_obstruction(lattices):
    mo2 = lattices["mo2"]
    fixture = {mo2.index("a"): 1.0, mo2.index("b"): 1.5,
               mo2.index("a'"): 2.0, mo2.index("b'"): 2.0}
    ok, witness, fam = ob.observability_criterion(mo2, fixture)
    assert not ok and fam is None
    assert witness["family"] == ["a", "b"]


def test_quasipoint_table_on_boolean(lattices):
    b2 = lattices["b2"]
    atoms = b2.atoms()
    ok, witness, fam = ob.observability_criterion(
        b2, {atoms[0]: 0.5, atoms[1]: 2.0})
    assert ok and witness is None
    f = ob.observable_table(fam)
    assert f.at_element(atoms[0]) == 0.5
    assert f.at_element(b2.one) == 2.0
    with pytest.raises(InputError):
        ob.observability_criterion(b2, {atoms[0]: 0.5})
    with pytest.raises(InputError):
        ob.observability_criterion(lattices["chain3"], {})


def test_restrict_observable_to_block(lattices):
    mo2, fam = mo2_example(lattices)
    f = ob.observable_table(fam)
    block = [mo2.zero, mo2.index("a"), mo2.index("a'"), mo2.one]
    sub_f, sub = ob.restrict_observable(f, block)
    assert sub.is_boolean()
    assert by_name(sub_f) == {"a": 1.0, "a'": 2.0, "1": 2.0}
    ok, _ = ob.check_intersection_condition(sub_f)
    assert ok


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["mo2", "b2", "b3", "chain4", "o6"]),
       seed=st.integers(0, 10 ** 6))
def test_reconstruction_roundtrip_sampled(name, seed):
    lat = corpus.standard_lattices()[name]
    fam = sample_family(lat, random.Random(seed))
    f = ob.observable_table(fam)
    rec = ob.reconstruct(f)
    assert rec.breakpoints == fam.breakpoints
    assert rec.top == fam.top


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["mo2", "mo3", "b4", "o6", "chain5"]),
       seed=st.integers(0, 10 ** 6))
def test_reconstruction_roundtrip_restricted_top(name, seed):
    lat = corpus.standard_lattices()[name]
    r = random.Random(seed)
    fam = restrict_family(sample_family(lat, r),
                          r.choice([a for a in range(lat.n) if a != lat.zero]))
    assert ob.reconstruct(ob.observable_table(fam)) == fam


def test_constant_table_under_a_smaller_top(lattices):
    from obslat.spectral import constant_family
    mo2 = lattices["mo2"]
    fam = constant_family(mo2, 0.5, top=mo2.index("a"))
    f = ob.observable_table(fam)
    assert ob.check_intersection_condition(f) == (True, None)
    assert ob.check_upper_semicontinuous(f) == (True, None)
    assert ob.reconstruct(f) == fam


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["mo2", "b3"]), seed=st.integers(0, 10 ** 6))
def test_restriction_of_table_matches_family_restriction(name, seed):
    """Restricting the family, then tabulating, agrees with the table's own
    restriction wherever both are defined (on the block's principal ideals)."""
    lat = corpus.standard_lattices()[name]
    r = random.Random(seed)
    fam = sample_family(lat, r)
    f = ob.observable_table(fam)
    c = r.randrange(lat.n)
    if c == lat.zero:
        return
    sub_fam = restrict_family(fam, c)
    g = ob.observable_table(sub_fam)
    for a in g.domain():
        assert g.at_element(a) == min(
            lam for lam, e in fam.breakpoints if lat.le(a, lat.meet(e, c)))


@pytest.mark.parametrize("name", sorted(oracle_lattices()))
def test_observable_table_matches_the_breakpoint_scan(name):
    lat = oracle_lattices()[name]
    r = random.Random(5)
    nonzero = [a for a in range(lat.n) if a != lat.zero]
    for _ in range(25):
        fam = sample_family(lat, r)
        for g in (fam, restrict_family(fam, r.choice(nonzero))):
            assert ob.observable_table(g).values == ref_observable_table(g)


@pytest.mark.parametrize("index", [99, 6, -1])
def test_restrict_observable_refuses_a_member_outside_the_lattice(lattices,
                                                                  index):
    # 99 ended in an IndexError; -1 was read as the top and reported as
    # duplicate element names
    mo2, fam = mo2_example(lattices)
    f = ob.observable_table(fam)
    block = [mo2.zero, mo2.index("a"), mo2.index("a'"), mo2.one, index]
    with pytest.raises(InputError) as err:
        ob.restrict_observable(f, block)
    assert str(err.value) == ("the sublattice member is not an element of "
                              "the lattice")
    assert err.value.witness == [index, 6]


@pytest.mark.parametrize("index", [99, 6, -1])
def test_quasipoint_table_refuses_a_key_outside_the_lattice(lattices, index):
    # 99 crashed with an IndexError while the witness was being built
    mo2 = lattices["mo2"]
    table = {a: 1.0 for a in mo2.atoms()}
    table[index] = 2.0
    with pytest.raises(InputError) as err:
        ob.observability_criterion(mo2, table)
    assert str(err.value) == "the quasipoint key is not an element of the lattice"
    assert err.value.witness == [index, 6]


@pytest.mark.parametrize("name", sorted(corpus.standard_lattices()))
def test_quasipoint_table_values_every_nonzero_element(name):
    """Every nonzero element of a finite lattice lies over an atom, so the
    candidate function is defined everywhere; equal quasipoint values give
    the constant observable."""
    lat = corpus.standard_lattices()[name]
    ok, witness, fam = ob.observability_criterion(
        lat, {a: 1.5 for a in lat.atoms()})
    assert ok and witness is None
    f = ob.observable_table(fam)
    assert all(f.at_element(a) == 1.5 for a in range(lat.n) if a != lat.zero)
