"""One canonical form for step families over three orders: lattice elements,
open sets of a finite space, and projections."""
import json
import math

import numpy as np
import pytest

from obslat import classical as cl, corpus, vn
from obslat.errors import InputError
from obslat.spectral import spectral_family

MO2 = corpus.standard_lattices()["mo2"]
A, B, ONE = MO2.index("a"), MO2.index("b"), MO2.one
SP = cl.sierpinski3()            # opens {}, {1}, {1,2}, {1,2,3}
E0 = np.diag([1.0, 0.0]).astype(complex)
E1 = np.diag([0.0, 1.0]).astype(complex)
EYE = np.eye(2, dtype=complex)


def lattice(pairs, top=None):
    return spectral_family(MO2, pairs, top)


def opens(pairs, base=0):
    return cl.top_spectral_family(SP, pairs, base=base)


def projections(pairs):
    return vn.family_from_steps([lam for lam, _ in pairs],
                                [p for _, p in pairs])


# (failure kind, constructor, pairs, message, witness); lattice witnesses are
# element names, open-set witnesses point lists, projection witnesses ranks
CASES = [
    ("empty", lattice, [], "a spectral family needs at least one breakpoint",
     None),
    ("empty", opens, [], "a spectral family needs at least one breakpoint",
     None),
    ("empty", projections, [],
     "a spectral family needs at least one breakpoint", None),
    ("nan", lattice, [(math.nan, A), (2.0, ONE)],
     "breakpoints must be finite reals", math.nan),
    ("nan", opens, [(math.nan, 0b001), (2.0, 0b111)],
     "breakpoints must be finite reals", math.nan),
    ("nan", projections, [(math.nan, E0), (2.0, EYE)],
     "breakpoints must be finite reals", math.nan),
    ("inf", lattice, [(1.0, A), (math.inf, ONE)],
     "breakpoints must be finite reals", math.inf),
    ("inf", opens, [(1.0, 0b001), (math.inf, 0b111)],
     "breakpoints must be finite reals", math.inf),
    ("inf", projections, [(1.0, E0), (-math.inf, EYE)],
     "breakpoints must be finite reals", -math.inf),
    ("string", lattice, [("x", A), (2.0, ONE)],
     "breakpoints must be finite reals", "'x'"),
    ("string", opens, [("x", 0b001), (2.0, 0b111)],
     "breakpoints must be finite reals", "'x'"),
    ("string", projections, [("a", EYE)],
     "breakpoints must be finite reals", "'a'"),
    ("none", lattice, [(None, ONE)], "breakpoints must be finite reals",
     "None"),
    ("none", opens, [(1.0, 0b001), (None, 0b111)],
     "breakpoints must be finite reals", "None"),
    ("none", projections, [(None, EYE)], "breakpoints must be finite reals",
     "None"),
    ("shared", lattice, [(1.0, A), (1.0, ONE)],
     "two different elements at breakpoint 1", ["a", "1"]),
    ("shared", opens, [(1.0, 0b001), (1.0, 0b111)],
     "two different elements at breakpoint 1", [["1"], ["1", "2", "3"]]),
    ("shared", projections, [(0.0, E0), (0.0, EYE)],
     "two different elements at breakpoint 0", [1, 2]),
    ("decreasing", lattice, [(1.0, ONE), (2.0, A)],
     "family is not increasing", [[1.0, "1"], [2.0, "a"]]),
    ("decreasing", opens, [(1.0, 0b011), (2.0, 0b001)],
     "family is not increasing", [[1.0, ["1", "2"]], [2.0, ["1"]]]),
    ("decreasing", projections, [(1.0, EYE), (2.0, E0)],
     "family is not increasing", [[1.0, 2], [2.0, 1]]),
    ("incomparable", lattice, [(1.0, A), (2.0, B), (3.0, ONE)],
     "family is not increasing", [[1.0, "a"], [2.0, "b"]]),
    ("incomparable", projections, [(1.0, E0), (2.0, E1), (3.0, EYE)],
     "family is not increasing", [[1.0, 1], [2.0, 1]]),
    ("short of top", lattice, [(1.0, A)],
     "family must reach its top element", "1"),
    ("short of top", opens, [(1.0, 0b011)],
     "family must reach its top element", ["1", "2", "3"]),
    ("short of top", projections, [(1.0, E0)],
     "family must reach its top element", 2),
    ("only the base", lattice, [(1.0, MO2.zero)],
     "family must reach its top element", "1"),
    ("only the base", projections, [(1.0, 0 * EYE)],
     "family must reach its top element", 2),
    # faults of one order only
    ("out of range", lattice, [(1.0, 99)],
     "breakpoint element out of range", 99),
    ("above the top", lattice, [(1.0, ONE)],
     "element 1 exceeds the family top a", ["1", "a"]),
    ("not open", opens, [(1.0, 0b010)],
     "family values must be open", ["2"]),
    ("not a projection", projections, [(1.0, 2 * EYE)],
     "matrix is not idempotent within proj tolerance 1e-10",
     {"defect": 2 * math.sqrt(2)}),
    ("mixed dimensions", projections, [(0.0, E0), (1.0, np.eye(3))],
     "dimension mismatch", [2, 3]),
]


@pytest.mark.parametrize(
    "kind, build, pairs, message, witness", CASES,
    ids=[f"{kind}-{build.__name__}" for kind, build, *_ in CASES])
def test_failures_share_one_wording(kind, build, pairs, message, witness):
    kw = {"top": A} if kind == "above the top" else {}
    with pytest.raises(InputError) as err:
        build(pairs, **kw)
    assert str(err.value) == message
    # json compares NaN witnesses as the literal they print as
    assert json.dumps(err.value.witness) == json.dumps(witness)


def test_base_must_lie_below_the_first_value():
    with pytest.raises(InputError) as err:
        opens([(1.0, 0b011), (2.0, 0b111)], base=0b100)
    assert str(err.value) == "base value must be open"
    with pytest.raises(InputError) as err:
        cl.top_spectral_family(SP, [(1.0, 0b001), (2.0, 0b111)], base=0b011)
    assert str(err.value) == "base must lie below every value"
    assert err.value.witness == ["1"]


def test_canonical_forms_agree_across_orders():
    """One input shape, three orders: leading base steps and repeats drop,
    and the evaluator reads the same steps."""
    lat = lattice([(3.0, ONE), (0.0, MO2.zero), (1.0, A), (2.0, A), (1.0, A)])
    top = opens([(3.0, 0b111), (0.0, 0), (1.0, 0b001), (2.0, 0b001),
                 (1.0, 0b001)])
    proj = projections([(3.0, EYE), (0.0, 0 * EYE), (1.0, E0), (2.0, E0),
                        (1.0, E0)])
    assert lat.breakpoints == ((1.0, A), (3.0, ONE))
    assert top.breakpoints == ((1.0, 0b001), (3.0, 0b111))
    assert proj.breakpoints == (1.0, 3.0)
    for lam, e, u, r in [(-5.0, MO2.zero, 0, 0), (1.0, A, 0b001, 1),
                         (2.9, A, 0b001, 1), (3.0, ONE, 0b111, 2),
                         (math.nan, MO2.zero, 0, 0)]:
        assert lat.value_at(lam) == e
        assert top.value_at(lam) == u
        assert vn.rank_of_projection(proj.value_at(lam)) == r


def test_unbounded_family_may_stop_short_or_be_empty():
    fam = cl.top_spectral_family(SP, [(0.0, 0b011)], unbounded_above=True)
    assert fam.breakpoints == ((0.0, 0b011),)
    empty = cl.top_spectral_family(SP, [], base=0b001, unbounded_above=True)
    assert empty.breakpoints == () and empty.value_at(9.0) == 0b001


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrix_entries_rejected(bad):
    with pytest.raises(InputError) as err:
        vn.as_matrix([[1.0, 0.0], [0.0, bad]])
    assert str(err.value) == "matrix entries must be finite"
    assert err.value.witness == [1, 1]
