"""Order structure: tables against brute force, law checks with witnesses,
construction errors."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from obslat import corpus
from obslat.classical import sierpinski3
from obslat.errors import InputError, ResourceError
from obslat.lattice import FiniteOrthoLattice, bits, mask_from

ORTHO_NAMES = ["b1", "b2", "b3", "b4", "chain2", "mo1", "mo2", "mo3", "o6",
               "mo2xb1"]


def brute_meet(lat, a, b):
    lower = [x for x in range(lat.n) if lat.le(x, a) and lat.le(x, b)]
    top = [x for x in lower if all(lat.le(y, x) for y in lower)]
    assert len(top) == 1
    return top[0]


def brute_join(lat, a, b):
    upper = [x for x in range(lat.n) if lat.le(a, x) and lat.le(b, x)]
    bot = [x for x in upper if all(lat.le(x, y) for y in upper)]
    assert len(bot) == 1
    return bot[0]


def brute_covers(lat):
    return [(a, b) for a in range(lat.n) for b in range(lat.n)
            if a != b and lat.le(a, b)
            and not any(c not in (a, b) and lat.le(a, c) and lat.le(c, b)
                        for c in range(lat.n))]


@pytest.mark.parametrize("name", ["mo2", "b2xchain3", "o6", "b3", "mo3xb3"])
def test_tables_match_brute_force(lattices, name):
    lat = (lattices[name] if name in lattices
           else corpus.product(corpus.mo(3), corpus.boolean_algebra(3)))
    for a in range(lat.n):
        for b in range(lat.n):
            assert lat.meet(a, b) == brute_meet(lat, a, b)
            assert lat.join(a, b) == brute_join(lat, a, b)
    assert lat.covers() == brute_covers(lat)
    assert lat.atoms() == [b for a, b in brute_covers(lat) if a == lat.zero]


def test_mo2_shape(lattices):
    mo2 = lattices["mo2"]
    assert mo2.n == 6
    assert mo2.names == ("0", "a", "a'", "b", "b'", "1")
    a, ap, b = mo2.index("a"), mo2.index("a'"), mo2.index("b")
    assert mo2.join(a, b) == mo2.one
    assert mo2.meet(a, b) == mo2.zero
    assert mo2.join(a, ap) == mo2.one
    assert mo2.orthocomplement(a) == ap


def test_mo2_distributivity_witness(lattices):
    ok, witness = lattices["mo2"].is_distributive()
    assert not ok
    # lexically first violating triple
    assert witness == ("a", "a'", "b")


def test_mo2_orthomodular(lattices):
    ok, witness = lattices["mo2"].is_orthomodular()
    assert ok and witness is None
    assert not lattices["mo2"].is_boolean()
    assert lattices["mo2"].is_atomistic()


def test_o6_fails_orthomodularity(lattices):
    ok, witness = lattices["o6"].is_orthomodular()
    assert not ok
    assert witness == ("a", "b")
    lat = lattices["o6"]
    a, b = lat.index("a"), lat.index("b")
    # the law's right side: a v (a' ^ b) stops short of b
    assert lat.le(a, b)
    assert lat.join(a, lat.meet(lat.orthocomplement(a), b)) != b


def test_boolean_family(lattices):
    for name in ["b1", "b2", "b3", "b4"]:
        lat = lattices[name]
        assert lat.is_boolean()
        ok, _ = lat.is_distributive()
        assert ok
        ok, _ = lat.is_orthomodular()
        assert ok
        assert lat.is_atomistic()


def test_chains_not_atomistic(lattices):
    for name in ["chain3", "chain4", "chain5", "chain6"]:
        assert not lattices[name].is_atomistic()
        ok, _ = lattices[name].is_distributive()
        assert ok
    assert lattices["chain2"].is_atomistic()


def test_atomistic_census(lattices):
    atomistic = {name for name, lat in lattices.items() if lat.is_atomistic()}
    assert atomistic == {"b1", "b2", "b3", "b4", "chain2",
                         "mo1", "mo2", "mo3", "mo2xb1"}


def test_ortho_involution_and_de_morgan(lattices):
    for name in ORTHO_NAMES:
        lat = lattices[name]
        for a in range(lat.n):
            ac = lat.orthocomplement(a)
            assert lat.orthocomplement(ac) == a
            assert lat.meet(a, ac) == lat.zero
            assert lat.join(a, ac) == lat.one
        for a in range(lat.n):
            for b in range(lat.n):
                ac, bc = lat.orthocomplement(a), lat.orthocomplement(b)
                assert lat.orthocomplement(lat.join(a, b)) == lat.meet(ac, bc)
                assert lat.orthocomplement(lat.meet(a, b)) == lat.join(ac, bc)
                if lat.le(a, b):
                    assert lat.le(bc, ac)


def test_center_of_irreducible_is_trivial(lattices):
    mo2 = lattices["mo2"]
    assert sorted(mo2.center()) == [mo2.zero, mo2.one]
    b2 = lattices["b2"]
    assert sorted(b2.center()) == list(range(b2.n))


def test_product_center_sees_factors(lattices):
    lat = lattices["mo2xb1"]
    assert lat.n == 12
    # both factor blocks contribute central elements besides the bounds
    assert len(lat.center()) == 4


def test_covers_of_square(lattices):
    b2 = lattices["b2"]
    cov = b2.covers()
    names = {(b2.names[a], b2.names[b]) for a, b in cov}
    assert names == {("{}", "{1}"), ("{}", "{2}"),
                     ("{1}", "{1,2}"), ("{2}", "{1,2}")}


def test_from_relation_rejects_non_lattice():
    names = ["0", "a", "b", "x", "y", "1"]
    pairs = [("0", "a"), ("0", "b"), ("a", "x"), ("b", "x"),
             ("a", "y"), ("b", "y"), ("x", "1"), ("y", "1")]
    with pytest.raises(InputError) as err:
        FiniteOrthoLattice.from_relation(names, pairs)
    assert str(err.value) == "no least upper bound for (a, b)"
    assert err.value.witness == ["a", "b"]
    # the order dual: a and b share the lower bounds x and y
    with pytest.raises(InputError) as err:
        FiniteOrthoLattice.from_relation(names, [(q, p) for p, q in pairs])
    assert str(err.value) == "no greatest lower bound for (a, b)"
    assert err.value.witness == ["a", "b"]


def test_from_relation_rejects_bad_ortho():
    names = ["0", "a", "b", "1"]
    pairs = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    # a'' = a forces a <-> b, but a ^ b = 0 v ... complement of a must be b;
    # mapping a to itself breaks the complement law
    with pytest.raises(InputError):
        FiniteOrthoLattice.from_relation(names, pairs, ortho_pairs={"a": "a"})


def test_size_cap():
    with pytest.raises(InputError):
        corpus.boolean_algebra(7)
    names = [f"x{i}" for i in range(65)]
    pairs = [(f"x{i}", f"x{i + 1}") for i in range(64)]
    with pytest.raises(ResourceError):
        FiniteOrthoLattice.from_relation(names, pairs)


def test_duplicate_names_rejected():
    with pytest.raises(InputError):
        FiniteOrthoLattice.from_relation(["0", "x", "x", "1"],
                                         [("0", "x"), ("x", "1")])


def test_mask_helpers():
    assert mask_from([0, 2, 5]) == 0b100101
    assert bits(0b100101) == [0, 2, 5]
    assert bits(0) == []


def test_bits_rejects_a_negative_mask():
    with pytest.raises(InputError, match="nonnegative"):
        bits(-1)
    with pytest.raises(InputError, match="nonnegative"):
        sierpinski3().is_open(-2)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ORTHO_NAMES), seed=st.integers(0, 10 ** 6))
def test_meet_join_duality_sampled(name, seed):
    import random
    lat = corpus.standard_lattices()[name]
    r = random.Random(seed)
    a, b = r.randrange(lat.n), r.randrange(lat.n)
    ac, bc = lat.orthocomplement(a), lat.orthocomplement(b)
    assert lat.orthocomplement(lat.join(a, b)) == lat.meet(ac, bc)
    assert lat.meet(a, b) == lat.meet(b, a)
    assert lat.join(a, lat.meet(a, b)) == a


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(list(corpus.standard_lattices())),
       seed=st.integers(0, 10 ** 6))
def test_join_of_agrees_with_pairwise(name, seed):
    import random
    lat = corpus.standard_lattices()[name]
    r = random.Random(seed)
    k = r.randrange(1, 4)
    xs = [r.randrange(lat.n) for _ in range(k)]
    acc = xs[0]
    for x in xs[1:]:
        acc = lat.join(acc, x)
    assert lat.join_of(xs) == acc
    acc = xs[0]
    for x in xs[1:]:
        acc = lat.meet(acc, x)
    assert lat.meet_of(xs) == acc


def test_ortholattice_from_relation_builds_tables_once(monkeypatch):
    from obslat import jsonio
    source = corpus.boolean_algebra(6)
    calls = []
    build = FiniteOrthoLattice._build_tables

    def counted(self):
        calls.append(self.n)
        return build(self)

    monkeypatch.setattr(FiniteOrthoLattice, "_build_tables", counted)
    lat = jsonio.load_lattice(source.to_dict())
    assert calls == [64]
    assert lat.ortho == source.ortho
    assert (lat.join_table == source.join_table).all()
