"""Monotone families over a lattice: validation, canonical form, restriction."""
import pytest
from hypothesis import given, settings, strategies as st

from obslat import corpus
from obslat.errors import InputError, PreconditionError
from obslat.spectral import (constant_family, projection_family,
                             restrict_family, sample_family, spectral_family)


def test_breakpoints_must_increase(lattices):
    mo2 = lattices["mo2"]
    a, one = mo2.index("a"), mo2.one
    with pytest.raises(InputError):
        spectral_family(mo2, [(1.0, one), (2.0, a)])
    with pytest.raises(InputError):
        # two different elements cannot share a breakpoint
        spectral_family(mo2, [(1.0, a), (1.0, one), (2.0, one)])
    with pytest.raises(InputError):
        spectral_family(mo2, [])
    # a literal repeat of the same step is only redundant, not wrong
    fam = spectral_family(mo2, [(1.0, a), (1.0, a), (2.0, one)])
    assert fam.breakpoints == ((1.0, a), (2.0, one))


def test_family_needs_its_top(lattices):
    mo2 = lattices["mo2"]
    a, b = mo2.index("a"), mo2.index("b")
    with pytest.raises(InputError):
        spectral_family(mo2, [(1.0, a)], top=b)
    fam = spectral_family(mo2, [(1.0, a)], top=a)
    assert fam.top == a
    assert list(fam.spectrum()) == [1.0]
    for top in (99, -1):
        with pytest.raises(InputError) as err:
            spectral_family(mo2, [(1.0, mo2.one)], top=top)
        assert err.value.witness == [top, mo2.n]


def test_leading_bottom_steps_are_dropped(lattices):
    mo2 = lattices["mo2"]
    a = mo2.index("a")
    fam = spectral_family(mo2, [(0.0, mo2.zero), (1.0, a), (2.0, mo2.one)])
    assert fam.breakpoints == ((1.0, a), (2.0, mo2.one))


def test_repeated_element_keeps_first_value(lattices):
    mo2 = lattices["mo2"]
    a = mo2.index("a")
    fam = spectral_family(mo2, [(1.0, a), (1.5, a), (2.0, mo2.one)])
    assert fam.breakpoints == ((1.0, a), (2.0, mo2.one))


def test_value_at_steps(lattices):
    mo2 = lattices["mo2"]
    a = mo2.index("a")
    fam = spectral_family(mo2, [(1.0, a), (2.0, mo2.one)])
    assert fam.value_at(0.5) == mo2.zero
    assert fam.value_at(1.0) == a
    assert fam.value_at(1.7) == a
    assert fam.value_at(2.0) == mo2.one
    assert fam.value_at(9.0) == mo2.one


def test_restriction_example(lattices):
    mo2 = lattices["mo2"]
    a, ap = mo2.index("a"), mo2.index("a'")
    fam = spectral_family(mo2, [(1.0, a), (2.0, mo2.one)])
    sub = restrict_family(fam, ap)
    # the first step meets a' at bottom and vanishes from the family
    assert sub.breakpoints == ((2.0, ap),)
    assert sub.top == ap


def test_restriction_is_pointwise_meet(lattices, rng):
    for name in ["mo2", "b3", "o6", "b2xchain3"]:
        lat = lattices[name]
        for _ in range(25):
            fam = sample_family(lat, rng)
            for c in range(lat.n):
                if c == lat.zero:
                    continue
                sub = restrict_family(fam, c)
                for lam in [x for x, _ in fam.breakpoints] + [-1.0, 99.0]:
                    assert sub.value_at(lam) == lat.meet(fam.value_at(lam), c)


def test_constant_and_projection_families(lattices):
    b2 = lattices["b2"]
    c = constant_family(b2, 3.5)
    assert c.breakpoints == ((3.5, b2.one),)
    p = b2.index("{1}")
    f = projection_family(b2, p)
    # characteristic shape: complement enters at 0, the whole space at 1
    assert f.breakpoints == ((0.0, b2.orthocomplement(p)), (1.0, b2.one))
    z = projection_family(b2, b2.zero)
    assert z.breakpoints == ((0.0, b2.one),)
    i = projection_family(b2, b2.one)
    assert i.breakpoints == ((1.0, b2.one),)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["mo2", "b2", "b3", "chain4", "o6", "mo2xb1"]),
       seed=st.integers(0, 10 ** 6))
def test_sampled_families_are_monotone(name, seed):
    import random
    lat = corpus.standard_lattices()[name]
    fam = sample_family(lat, random.Random(seed))
    lams = [lam for lam, _ in fam.breakpoints]
    assert lams == sorted(lams) and len(set(lams)) == len(lams)
    es = fam.elements()
    for lo, hi in zip(es, es[1:]):
        assert lat.le(lo, hi) and lo != hi
    assert fam.breakpoints[-1][1] == fam.top


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(["mo2", "b3", "o6"]), seed=st.integers(0, 10 ** 6))
def test_restriction_commutes_with_double_restriction(name, seed):
    import random
    lat = corpus.standard_lattices()[name]
    r = random.Random(seed)
    fam = sample_family(lat, r)
    c = r.randrange(lat.n)
    d = r.randrange(lat.n)
    if c == lat.zero or d == lat.zero or lat.meet(c, d) == lat.zero:
        return
    once = restrict_family(restrict_family(fam, c), lat.meet(c, d))
    direct = restrict_family(fam, lat.meet(c, d))
    assert once.breakpoints == direct.breakpoints


@pytest.mark.parametrize("index", [99, 6, -1])
def test_restrict_family_refuses_a_target_outside_the_lattice(lattices, index):
    mo2 = lattices["mo2"]
    fam = spectral_family(mo2, [(0.0, mo2.index("a")), (1.0, mo2.one)])
    with pytest.raises(InputError) as err:
        restrict_family(fam, index)
    assert str(err.value) == ("the restriction target is not an element of "
                              "the lattice")
    assert err.value.witness == [index, 6]


@pytest.mark.parametrize("index", [99, 6, -1])
def test_projection_family_refuses_an_element_outside_the_lattice(lattices,
                                                                   index):
    # -1 used to be read as the top, and 99 ended in an IndexError
    with pytest.raises(InputError) as err:
        projection_family(lattices["mo2"], index)
    assert str(err.value) == "the projection is not an element of the lattice"
    assert err.value.witness == [index, 6]


MO2 = corpus.standard_lattices()["mo2"]
A, B = MO2.index("a"), MO2.index("b")


@pytest.mark.parametrize("call, error, message, witness", [
    (lambda: restrict_family(spectral_family(MO2, [(1.0, A)], top=A), B),
     PreconditionError, "restriction target meets the family top in bottom",
     "b")],
    ids=["restrict-to-bottom"])
def test_typed_errors_keep_their_message_and_witness(call, error, message,
                                                    witness):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.witness == witness
