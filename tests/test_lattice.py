"""Order structure: tables against brute force, law checks with witnesses,
construction errors, and the whole-array construction and checks against
the element-by-element loops they replaced."""
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslat import classical, corpus, jsonio
from obslat.classical import sierpinski3
from obslat.errors import (InputError, ObslatError, PreconditionError,
                           ResourceError)
from obslat.lattice import (FiniteOrthoLattice, _cliques,
                            _transitive_reflexive_closure, bits, mask_from)

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


# -- the clique walker against brute force ---------------------------------------

def walked_levels(rows, roots):
    """The cliques the walker draws, level by level from the singletons of
    roots, as member tuples in the order drawn; the last level is empty."""
    out, level = [], [1 << b for b in bits(roots)]
    while True:
        drawn = []
        for clique, members, later in _cliques(rows, roots, level):
            assert members == bits(clique)
            drawn += [clique | 1 << c for c in later]
        out.append([tuple(bits(m)) for m in drawn])
        if not drawn:
            return out
        level = drawn


def brute_levels(related, roots):
    """The cliques of 2, 3, ... roots, each size in index order, up to the
    first size with none."""
    out = []
    for size in itertools.count(2):
        out.append([fam for fam in itertools.combinations(bits(roots), size)
                    if all(related(i, k)
                           for i, k in itertools.combinations(fam, 2))])
        if not out[-1]:
            return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cliques_draw_every_clique_in_scan_order(data):
    """A random relation on up to 12 nodes, given by the bits of row i after
    i, and random roots.  The walker reads nothing else, so the raw rows,
    random at and below the diagonal, draw what the symmetric ones do."""
    n = data.draw(st.integers(1, 12))
    raw = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                             min_size=n, max_size=n))
    roots = data.draw(st.integers(0, (1 << n) - 1))

    def related(i, k):
        return bool(raw[min(i, k)] >> max(i, k) & 1)

    symmetric = [mask_from(k for k in range(n) if k != i and related(i, k))
                 for i in range(n)]
    want = brute_levels(related, roots)
    assert walked_levels(symmetric, roots) == want
    assert walked_levels(raw, roots) == want


@pytest.mark.parametrize("name", list(corpus.standard_lattices()))
def test_cliques_draw_the_antichains_below_each_element(name):
    """The sheaf scan's walk: incomparability rows, below each element a
    without a and bottom."""
    lat = corpus.standard_lattices()[name]
    rows = [~(lat.upset_mask(b) | lat.downset_mask(b)) for b in range(lat.n)]
    for a in range(lat.n):
        below = lat.downset_mask(a) & ~(1 << a | 1 << lat.zero)
        assert walked_levels(rows, below) == brute_levels(
            lambda i, k: not lat.le(i, k) and not lat.le(k, i), below)


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


# -- the element-by-element loops, kept as oracles ----------------------------

def ref_closure(rel):
    out = rel | np.eye(rel.shape[0], dtype=bool)
    while True:
        nxt = out | (out @ out)
        if (nxt == out).all():
            return nxt
        out = nxt


def ref_unique_extremum(names, leq, bottom):
    mat = leq if bottom else leq.T
    hits = [i for i in range(len(names)) if mat[i].all()]
    kind = "bottom" if bottom else "top"
    if len(hits) != 1:
        raise InputError(f"lattice must have a unique {kind} element",
                         witness=[names[i] for i in hits])
    return hits[0]


def ref_build_tables(names, down, up):
    n = len(names)
    below = {m: k for k, m in enumerate(down)}
    above = {m: k for k, m in enumerate(up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            glb = below.get(down[i] & down[j])
            if glb is None:
                raise InputError(
                    f"no greatest lower bound for ({names[i]}, {names[j]})",
                    witness=[names[i], names[j]])
            meet[i][j] = meet[j][i] = glb
            lub = above.get(up[i] & up[j])
            if lub is None:
                raise InputError(
                    f"no least upper bound for ({names[i]}, {names[j]})",
                    witness=[names[i], names[j]])
            join[i][j] = join[j][i] = lub
    return np.array(meet, dtype=np.int64), np.array(join, dtype=np.int64)


def ref_validate_ortho(names, leq, meet, join, zero, one, o):
    n = len(names)
    if len(o) != n or sorted(o) != list(range(n)):
        raise InputError("ortho must be a permutation of the elements")
    for a in range(n):
        if o[o[a]] != a:
            raise InputError(f"ortho not involutive at {names[a]}",
                             witness=names[a])
        if meet[a, o[a]] != zero:
            raise InputError(f"{names[a]} meet its ortho is not bottom",
                             witness=names[a])
        if join[a, o[a]] != one:
            raise InputError(f"{names[a]} join its ortho is not top",
                             witness=names[a])
    for a in range(n):
        for b in range(n):
            if leq[a, b] and not leq[o[b], o[a]]:
                raise InputError("ortho is not order-reversing",
                                 witness=[names[a], names[b]])


def ref_is_distributive(lat):
    mt, jt, n = lat.meet_table, lat.join_table, lat.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mt[a, jt[b, c]] != jt[mt[a, b], mt[a, c]]:
                    return False, (lat.names[a], lat.names[b], lat.names[c])
    return True, None


def ref_is_orthomodular(lat):
    mt, jt, o = lat.meet_table, lat.join_table, lat.ortho
    for a in range(lat.n):
        for b in range(lat.n):
            if lat.leq[a, b] and jt[a, mt[b, o[a]]] != b:
                return False, (lat.names[a], lat.names[b])
    return True, None


def ref_center(lat):
    mt, jt, o = lat.meet_table, lat.join_table, lat.ortho
    return [z for z in range(lat.n)
            if all(jt[mt[z, a], mt[z, o[a]]] == z for a in range(lat.n))]


def ref_lattice(names, rel, ortho=None):
    """The constructor as it ran element by element: its fields, or raises."""
    names = tuple(names)
    n = len(names)
    leq = ref_closure(np.asarray(rel, dtype=bool))
    bad = np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))
    if bad.size:
        i, j = bad[0]
        raise InputError(
            f"not a partial order: {names[i]} <= {names[j]} <= {names[i]}",
            witness=[names[i], names[j]])
    zero = ref_unique_extremum(names, leq, True)
    one = ref_unique_extremum(names, leq, False)
    down = [mask_from(np.flatnonzero(leq[:, i])) for i in range(n)]
    up = [mask_from(np.flatnonzero(leq[i, :])) for i in range(n)]
    meet, join = ref_build_tables(names, down, up)
    if ortho is not None:
        ortho = tuple(int(k) for k in ortho)
        ref_validate_ortho(names, leq, meet, join, zero, one, ortho)
    return (leq.tolist(), zero, one, down, up, meet.tolist(), join.tolist(),
            ortho)


def fields(lat):
    return (lat.leq.tolist(), lat.zero, lat.one, lat._down, lat._up,
            lat.meet_table.tolist(), lat.join_table.tolist(), lat.ortho)


def outcome(build, *args):
    """What a call returns, or the type, message and witness it raises."""
    try:
        return "ok", build(*args)
    except ObslatError as err:
        return type(err).__name__, str(err), err.witness


def check_against_refs(names, rel, ortho=None):
    """Build both ways; compare fields or error, then every check."""
    got = outcome(FiniteOrthoLattice, names, rel, ortho)
    lat = got[1] if got[0] == "ok" else None
    if lat is not None:
        got = "ok", fields(lat)
    assert got == outcome(ref_lattice, names, rel, ortho)
    if lat is None:
        return got
    assert lat.is_distributive() == ref_is_distributive(lat)
    assert lat.covers() == ref_covers(lat)
    if ortho is not None:
        ok = lat.is_orthomodular()
        assert ok == ref_is_orthomodular(lat)
        if ok[0]:
            assert lat.center() == ref_center(lat)
    return got


def cover_relation(lat):
    rel = np.zeros((lat.n, lat.n), dtype=bool)
    for a, b in lat.covers():
        rel[a, b] = True
    return rel


def big_lattices():
    return {"b6": corpus.boolean_algebra(6),
            "mo3xb3": corpus.product(corpus.mo(3), corpus.boolean_algebra(3)),
            "chain4xb4": corpus.product(corpus.chain(4),
                                        corpus.boolean_algebra(4))}


ALL_LATTICES = {**corpus.standard_lattices(), **big_lattices()}


@pytest.mark.parametrize("name", list(ALL_LATTICES))
def test_construction_and_checks_match_the_loops(name):
    lat = ALL_LATTICES[name]
    rel = cover_relation(lat)
    assert (_transitive_reflexive_closure(rel) == ref_closure(rel)).all()
    assert check_against_refs(lat.names, rel, lat.ortho)[0] == "ok"
    assert check_against_refs(lat.names, lat.leq, lat.ortho)[0] == "ok"


def ref_covers(lat):
    """FiniteOrthoLattice.covers as the bitmask loop it replaced: b covers a
    when the interval [a, b] holds nothing else."""
    return [(a, b) for a in range(lat.n) for b in range(lat.n)
            if a != b and lat._up[a] & lat._down[b] == (1 << a) | (1 << b)]


def test_covers_match_the_loop():
    """Every standard and 64-element lattice, chain(64) and the open-set
    lattices of all topologies on three points."""
    lats = list(ALL_LATTICES.values()) + [corpus.chain(64)]
    lats += [classical.open_set_lattice(
                 classical.FiniteTopSpace(range(3), opens=opens))[0]
             for opens in classical.all_topologies(3)]
    for lat in lats:
        assert lat.covers() == ref_covers(lat)
        assert all(type(k) is int for pair in lat.covers() for k in pair)


def test_center_sublattice_matches_the_loops():
    lat = big_lattices()["mo3xb3"]
    sub, mem = lat.sublattice(lat.center())
    assert sub.n == 16
    assert fields(sub) == ref_lattice(sub.names, lat.leq[np.ix_(mem, mem)],
                                      sub.ortho)
    assert sub.is_distributive() == ref_is_distributive(sub) == (True, None)
    assert sub.is_orthomodular() == ref_is_orthomodular(sub)
    assert sub.center() == ref_center(sub) == list(range(sub.n))


def ref_sublattice(lat, members):
    """FiniteOrthoLattice.sublattice as the pair-by-pair loop it replaced."""
    mem = sorted(set(int(m) for m in members))
    if lat.zero not in mem or lat.one not in mem:
        raise PreconditionError("sublattice must contain bottom and top",
                                witness=[lat.names[lat.zero],
                                         lat.names[lat.one]])
    pos = {m: k for k, m in enumerate(mem)}
    for a in mem:
        for b in mem:
            if int(lat.meet_table[a, b]) not in pos:
                raise PreconditionError(
                    "subset not closed under meet",
                    witness=[lat.names[a], lat.names[b]])
            if int(lat.join_table[a, b]) not in pos:
                raise PreconditionError(
                    "subset not closed under join",
                    witness=[lat.names[a], lat.names[b]])
    ortho = None
    if lat.ortho is not None:
        for a in mem:
            if lat.ortho[a] not in pos:
                raise PreconditionError("subset not closed under ortho",
                                        witness=lat.names[a])
        ortho = [pos[lat.ortho[a]] for a in mem]
    sub = FiniteOrthoLattice([lat.names[m] for m in mem],
                             lat.leq[np.ix_(mem, mem)], ortho=ortho)
    return sub, mem


def check_sublattice(lat, members):
    got = outcome(lat.sublattice, members)
    assert got == outcome(ref_sublattice, lat, members)
    return got


@pytest.mark.parametrize("name", list(ALL_LATTICES))
def test_sublattices_match_the_loop(name):
    """Center sublattices, the whole lattice, and the down-set and up-set
    of each element with bottom and top added."""
    lat = ALL_LATTICES[name]
    if lat.ortho is not None and lat.is_orthomodular()[0]:
        assert check_sublattice(lat, lat.center())[0] == "ok"
    assert check_sublattice(lat, range(lat.n))[0] == "ok"
    ends = {lat.zero, lat.one}
    for a in range(lat.n):
        check_sublattice(lat, set(lat.downset(a)) | ends)
        check_sublattice(lat, set(bits(lat.upset_mask(a))) | ends)


def test_sublattice_errors_match_the_loop(lattices):
    """One input for each error, each with its witness."""
    mo2, b3 = lattices["mo2"], lattices["b3"]
    a, c = mo2.index("a"), mo2.index("a'")
    cases = [(mo2, [a, mo2.one], "sublattice must contain bottom and top"),
             (mo2, [mo2.zero, a, mo2.one], "subset not closed under ortho"),
             (mo2, [mo2.zero, a, c, mo2.one], None),
             (b3, [b3.zero, 1, 2, b3.one], "subset not closed under join"),
             (b3, [b3.zero, 3, 5, b3.one], "subset not closed under meet")]
    for lat, members, message in cases:
        got = check_sublattice(lat, members)
        if message is None:
            assert got[0] == "ok"
        else:
            assert got[:2] == ("PreconditionError", message)


@pytest.mark.parametrize("index", [99, 6, -1])
def test_sublattice_refuses_a_member_outside_the_lattice(lattices, index):
    # 99 ended in an IndexError; -1 was read as the top and reported as
    # duplicate element names
    mo2 = lattices["mo2"]
    with pytest.raises(InputError) as err:
        mo2.sublattice([mo2.zero, mo2.one, index])
    assert str(err.value) == ("the sublattice member is not an element of "
                              "the lattice")
    assert err.value.witness == [index, 6]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ALL_LATTICES)), data=st.data())
def test_random_member_sets_match_the_loop(name, data):
    lat = ALL_LATTICES[name]
    members = set(data.draw(st.lists(st.integers(0, lat.n - 1),
                                     max_size=min(lat.n, 8))))
    if data.draw(st.integers(0, 3)):
        members |= {lat.zero, lat.one}
    check_sublattice(lat, members)


# the non-lattice 0 < a, b < x, y < 1 of test_from_relation_rejects_non_lattice
BOWTIE = (["0", "a", "b", "x", "y", "1"],
          [("0", "a"), ("0", "b"), ("a", "x"), ("b", "x"),
           ("a", "y"), ("b", "y"), ("x", "1"), ("y", "1")])


def relation(names, pairs):
    index = {s: i for i, s in enumerate(names)}
    rel = np.zeros((len(names), len(names)), dtype=bool)
    for a, b in pairs:
        rel[index[a], index[b]] = True
    return rel


SQUARE = (["0", "a", "b", "1"],
          [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
# 0 < a, b < x < 1: a and b are disjoint but join below the top
KITE = (["0", "a", "b", "x", "1"],
        [("0", "a"), ("0", "b"), ("a", "x"), ("b", "x"), ("x", "1")])
# the hexagon 0 < a < b < 1, 0 < b' < a' < 1
HEXAGON = (["0", "a", "b", "a'", "b'", "1"],
           [("0", "a"), ("a", "b"), ("b", "1"),
            ("0", "b'"), ("b'", "a'"), ("a'", "1")])

# case -> (names, relation, ortho, the message it must raise)
ERROR_CASES = {
    "cycle": (["0", "a", "1"],
              relation(["0", "a", "1"], [("0", "a"), ("a", "1"), ("1", "a")]),
              None, "not a partial order: a <= 1 <= a"),
    "two-bottoms": (["a", "b", "1"],
                    relation(["a", "b", "1"], [("a", "1"), ("b", "1")]),
                    None, "lattice must have a unique bottom element"),
    "two-tops": (["0", "a", "b"],
                 relation(["0", "a", "b"], [("0", "a"), ("0", "b")]),
                 None, "lattice must have a unique top element"),
    "no-meet": (BOWTIE[0], relation(*BOWTIE).T, None,
                "no greatest lower bound for (a, b)"),
    "no-join": (BOWTIE[0], relation(*BOWTIE), None,
                "no least upper bound for (a, b)"),
    # a and b lack both bounds: the meet is reported first
    "no-meet-no-join": (
        ["0", "a", "b", "p", "q", "x", "y", "1"],
        relation(["0", "a", "b", "p", "q", "x", "y", "1"],
                 [("0", "p"), ("0", "q"), ("p", "a"), ("p", "b"), ("q", "a"),
                  ("q", "b"), ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"),
                  ("x", "1"), ("y", "1")]),
        None, "no greatest lower bound for (a, b)"),
    "not-permutation": (SQUARE[0], relation(*SQUARE), (3, 1, 1, 0),
                        "ortho must be a permutation of the elements"),
    "not-involutive": (SQUARE[0], relation(*SQUARE), (1, 2, 3, 0),
                       "ortho not involutive at 0"),
    "meet-not-bottom": (SQUARE[0], relation(*SQUARE), (3, 1, 2, 0),
                        "a meet its ortho is not bottom"),
    "join-not-top": (KITE[0], relation(*KITE), (4, 2, 1, 3, 0),
                     "a join its ortho is not top"),
    "not-order-reversing": (HEXAGON[0], relation(*HEXAGON),
                            (5, 4, 3, 2, 1, 0), "ortho is not order-reversing"),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_every_construction_error_matches_the_loops(case):
    names, rel, ortho, message = ERROR_CASES[case]
    assert check_against_refs(names, rel, ortho)[:2] == ("InputError", message)


def test_from_relation_ortho_errors_match_the_loops():
    # the same ortho failures through named pairs: kite pairs a with b, the
    # hexagon a with b' and b with a'
    for (names, pairs), ortho_pairs, message in [
            (KITE, {"a": "b", "x": "x"}, "a join its ortho is not top"),
            (HEXAGON, {"a": "b'", "b": "a'"}, "ortho is not order-reversing"),
            (SQUARE, {"a": "a", "b": "b"}, "a meet its ortho is not bottom")]:
        with pytest.raises(InputError) as err:
            FiniteOrthoLattice.from_relation(names, pairs, ortho_pairs)
        lat = FiniteOrthoLattice.from_relation(names, pairs)
        omap = {lat.zero: lat.one, lat.one: lat.zero}
        for a, b in ortho_pairs.items():
            omap[lat.index(a)], omap[lat.index(b)] = lat.index(b), lat.index(a)
        want = outcome(ref_lattice, lat.names, lat.leq,
                       [omap[k] for k in range(lat.n)])
        assert want == ("InputError", str(err.value), err.value.witness)
        assert str(err.value) == message


@st.composite
def relations(draw):
    """A relation on 2..9 elements, mostly upward so many draws are orders,
    mostly bounded, sometimes order-dual, with an optional permutation or
    involution as ortho."""
    n = draw(st.integers(2, 9))
    rel = np.zeros((n, n), dtype=bool)
    idx = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(idx, idx), max_size=2 * n)):
        rel[min(i, j), max(i, j)] = True
    if draw(st.integers(0, 3)) != 3:
        rel[0, :] = rel[:, n - 1] = True
    if draw(st.integers(0, 5)) == 5:
        i, j = draw(idx), draw(idx)
        rel[max(i, j), min(i, j)] = True
    if draw(st.booleans()):
        rel = rel.T
    kind = draw(st.sampled_from(["none", "permutation", "reversal"]))
    ortho = {"none": None, "reversal": tuple(range(n - 1, -1, -1)),
             "permutation": tuple(draw(st.permutations(range(n))))}[kind]
    return [f"e{k}" for k in range(n)], rel, ortho


@settings(max_examples=400, deadline=None)
@given(case=relations())
def test_random_relations_match_the_loops(case):
    names, rel, ortho = case
    assert (_transitive_reflexive_closure(rel) == ref_closure(rel)).all()
    check_against_refs(names, rel, ortho)


def ref_open_set_leq(opens):
    size = len(opens)
    leq = np.zeros((size, size), dtype=bool)
    for i, u in enumerate(opens):
        for j, v in enumerate(opens):
            leq[i, j] = u & v == u
    return leq


def test_open_set_lattice_matches_the_loop():
    spaces = [classical.FiniteTopSpace(range(3), opens=opens)
              for opens in classical.all_topologies(3)]
    spaces.append(classical.digital_line(3))
    for space in spaces:
        lat, opens = classical.open_set_lattice(space)
        assert lat.leq.dtype == bool
        assert (lat.leq == ref_open_set_leq(opens)).all()
    assert lat.n == 34


def ref_boolean_leq(size):
    leq = np.zeros((size, size), dtype=bool)
    for a in range(size):
        for b in range(size):
            leq[a, b] = (a & b) == a
    return leq


def ref_chain_leq(k):
    leq = np.zeros((k, k), dtype=bool)
    for a in range(k):
        for b in range(a, k):
            leq[a, b] = True
    return leq


def ref_product_leq(left, right):
    pairs = list(itertools.product(range(left.n), range(right.n)))
    leq = np.zeros((len(pairs), len(pairs)), dtype=bool)
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            leq[i, j] = left.leq[a, c] and right.leq[b, d]
    return leq


def test_corpus_orders_match_the_loops():
    for n in range(7):
        lat = corpus.boolean_algebra(n)
        assert (lat.leq == ref_boolean_leq(1 << n)).all()
        assert list(lat.ortho) == [(1 << n) - 1 - a for a in range(1 << n)]
    for k in range(2, 8):
        assert (corpus.chain(k).leq == ref_chain_leq(k)).all()
    lefts = [corpus.boolean_algebra(1), corpus.boolean_algebra(2),
             corpus.chain(3), corpus.chain(4), corpus.mo(2), corpus.mo(3)]
    rights = [corpus.boolean_algebra(1), corpus.o6(), corpus.boolean_algebra(3)]
    for left, right in itertools.product(lefts, rights):
        lat = corpus.product(left, right)
        assert list(lat.names) == [f"({x},{y})" for x in left.names
                             for y in right.names]
        assert (lat.leq == ref_product_leq(left, right)).all()
        if left.ortho is not None:
            assert list(lat.ortho) == [o * right.n + p for o in left.ortho
                                 for p in right.ortho]
    lat = corpus.product(corpus.chain(4), corpus.boolean_algebra(4))
    assert (lat.leq == ref_product_leq(corpus.chain(4),
                                       corpus.boolean_algebra(4))).all()


@pytest.mark.parametrize("name", list(big_lattices()))
def test_lattice_layer_at_the_cap(name):
    lat = big_lattices()[name]
    start = time.perf_counter()
    assert jsonio.load_lattice(lat.to_dict()) == lat
    distributive, _ = lat.is_distributive()
    assert distributive == (name != "mo3xb3")
    if lat.ortho is not None:
        assert lat.is_orthomodular() == (True, None)
        assert len(lat.center()) == {"b6": 64, "mo3xb3": 16}[name]
    assert time.perf_counter() - start < 1.0
