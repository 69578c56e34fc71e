"""Matrix side: the eigensolver, the spectral order, commutants against the
one-stack null space, the two coarse-graining maps, and the caps."""
import math
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslat import context as cx
from obslat import jsonio, vn
from obslat.errors import InputError, PreconditionError, ResourceError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_eigensolver_against_numpy(rng):
    worst = 0.0
    for _ in range(40):
        dim = rng.choice([2, 3, 4, 5, 6])
        a = vn.random_hermitian(rng, dim)
        vals, vecs = vn.eigen_hermitian(a)
        ref = np.linalg.eigvalsh(a)
        worst = max(worst, float(np.max(np.abs(vals - ref))))
        # columns are orthonormal and diagonalize a
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) < 1e-9
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.conj().T - a) < 1e-9
    assert worst < 1e-9


def test_eigensolver_rejects_non_hermitian():
    with pytest.raises(InputError):
        vn.eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        vn.eigen_hermitian(np.ones((2, 3)))
    with pytest.raises(InputError):
        vn.check_projection(np.diag([0.5, 1.0]))


def test_dimension_cap():
    with pytest.raises(ResourceError):
        vn.eigen_hermitian(np.eye(17))


def test_spectral_family_steps(rng):
    a = np.diag([1.0, 1.0, 3.0])
    fam = vn.spectral_family_of(a)
    assert fam.breakpoints == (1.0, 3.0)
    assert vn.rank_of_projection(fam.value_at(1.0)) == 2
    assert vn.rank_of_projection(fam.value_at(2.9)) == 2
    assert vn.rank_of_projection(fam.value_at(3.0)) == 3
    assert vn.rank_of_projection(fam.value_at(0.0)) == 0
    # the last projection is the identity exactly, not approximately
    assert np.array_equal(fam.projections[-1], np.eye(3, dtype=complex))
    assert np.linalg.norm(fam.synthesize() - a) < 1e-10


def test_synthesis_roundtrip(rng):
    for _ in range(25):
        dim = rng.choice([2, 3, 4])
        a = vn.random_hermitian(rng, dim)
        fam = vn.spectral_family_of(a)
        assert np.linalg.norm(fam.synthesize() - a) < 1e-9
        # cumulative projections increase
        for p, q in zip(fam.projections, fam.projections[1:]):
            assert vn.projection_leq(p, q)


def test_shift_and_scale(rng):
    a = vn.random_hermitian(rng, 4)
    fam = vn.spectral_family_of(a)
    shifted = vn.spectral_family_of(a + 2.5 * np.eye(4))
    assert np.allclose(np.array(shifted.breakpoints),
                       np.array(fam.breakpoints) + 2.5, atol=1e-9)
    scaled = vn.spectral_family_of(3.0 * a)
    assert np.allclose(np.array(scaled.breakpoints),
                       3.0 * np.array(fam.breakpoints), atol=1e-9)


def test_family_from_steps_errors():
    eye = np.eye(2, dtype=complex)
    e0 = np.diag([1.0, 0.0]).astype(complex)
    zero = np.zeros((2, 2), dtype=complex)
    with pytest.raises(InputError):
        vn.family_from_steps([0.0], [zero])
    with pytest.raises(InputError):
        vn.family_from_steps([0.0], [e0])        # never reaches the identity
    with pytest.raises(InputError):
        vn.family_from_steps([0.0, 1.0], [eye, e0])
    fam = vn.family_from_steps([0.5, 0.0, 1.0], [e0, zero, eye])
    assert fam.breakpoints == (0.5, 1.0)


def test_merged_breakpoints_cluster_jitter():
    eye = np.eye(2, dtype=complex)
    f1 = vn.family_from_steps([-1e-17, 1.0], [np.diag([1.0, 0.0]), eye])
    f2 = vn.family_from_steps([0.0, 1.0], [np.diag([0.0, 1.0]), eye])
    merged = vn.merged_breakpoints([f1, f2])
    assert merged == [0.0, 1.0]


# -- the eigenbasis steps against the loops they replaced -----------------------

def ref_spectral_family_of(a, tol=vn.TOL):
    """The clustering loop and the rank-1 accumulation of eigenprojections,
    one column at a time."""
    vals, vecs = vn.eigen_hermitian(a, tol)
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][-1]] <= tol.cluster:
            groups[-1].append(i)
        else:
            groups.append([i])
    breakpoints = tuple(float(np.mean([vals[i] for i in g])) for g in groups)
    n = vecs.shape[0]
    projections = []
    cum = np.zeros((n, n), dtype=complex)
    for g in groups:
        for i in g:
            col = vecs[:, i:i + 1]
            cum = cum + col @ col.conj().T
        projections.append(cum.copy())
    projections[-1] = np.eye(n, dtype=complex)
    return vn.OperatorSpectralFamily(breakpoints, tuple(projections), n)


def hermitian_parts(m):
    """The Hermitian and skew parts of each span basis element: a spanning
    set of the algebra's selfadjoint part."""
    return [h for x in m.basis
            for h in ((x + x.conj().T) / 2, (x - x.conj().T) / 2j)]


def ref_minimal_projections(m, tol=vn.TOL):
    """The former ``minimal_projections``: differences of the cumulative
    steps of a generic element, the span basis's Hermitian parts weighted by
    sqrt(k + 2), with the same checks.  Its order follows the span basis."""
    if not ref_is_abelian(m, tol):
        raise PreconditionError("minimal projections need an abelian algebra")
    generic = np.zeros((m.dim, m.dim), dtype=complex)
    for k, h in enumerate(hermitian_parts(m)):
        generic = generic + math.sqrt(k + 2.0) * h
    prev = np.zeros((m.dim, m.dim), dtype=complex)
    out = []
    for e in ref_spectral_family_of(generic, tol).projections:
        out.append(e - prev)
        prev = e
    if len(out) != m.linear_dim:
        raise ResourceError(
            "generic element failed to separate the minimal projections",
            witness={"found": len(out), "algebra_dim": m.linear_dim})
    for p in out:
        if not m.contains(p, tol):
            raise ResourceError(
                "spectral projection of the generic element left the algebra")
    return out


def ref_merged_breakpoints(fams, tol=vn.TOL):
    lams = sorted(set(b for f in fams for b in f.breakpoints))
    out = []
    for lam in lams:
        if out and lam - out[-1] <= tol.cluster:
            out[-1] = lam
        else:
            out.append(lam)
    return out


def assert_family_matches_the_loop(a):
    got, want = vn.spectral_family_of(a), ref_spectral_family_of(a)
    assert got.breakpoints == want.breakpoints
    assert [vn.rank_of_projection(p) for p in got.projections] == \
        [vn.rank_of_projection(p) for p in want.projections]
    for p, q in zip(got.projections, want.projections):
        assert np.linalg.norm(p - q) < 1e-12
    assert np.array_equal(got.projections[-1], np.eye(got.dim, dtype=complex))
    return got


def minimal_outcome(fn, alg):
    try:
        return fn(alg)
    except (PreconditionError, ResourceError) as e:
        return type(e), str(e), e.witness


def same_projections(got, want):
    """The same projections, each within 1e-10, in any order."""
    return len(got) == len(want) and all(
        sum(float(np.linalg.norm(p - q)) < 1e-10 for q in want) == 1
        for p in got)


def assert_eigenblocks_match_the_loop(gens, dim):
    """On an abelian algebra the joint eigenblocks are the generic element's
    blocks, matched by content; the loop refuses only non-abelian ones."""
    want = minimal_outcome(ref_minimal_projections,
                           vn.subalgebra(gens, dim=dim))
    if isinstance(want, tuple):
        assert want[0] is PreconditionError
        return
    assert same_projections(vn.joint_eigenblocks(gens, dim), want)


def test_eigenbasis_steps_match_the_loops_on_the_corpus(rng):
    sets = [gens for gens in corpus_generator_sets()]
    sets += [gens for _, gens in random_generator_sets(rng) if gens]
    fams = []
    for gens in sets:
        for g in gens:
            fams.append(assert_family_matches_the_loop(vn.check_hermitian(g)))
        assert_eigenblocks_match_the_loop(gens, gens[0].shape[0])
    for f, g in zip(fams, fams[1:]):
        assert vn.merged_breakpoints([f, g]) == ref_merged_breakpoints([f, g])


def clustered_values():
    """Ascending reals built by float addition from gaps of zero (repeats),
    exactly ``tol.cluster``, just above or below it, and of order one."""
    c = vn.TOL.cluster
    gap = st.sampled_from([0.0, c, c, np.nextafter(c, 0), np.nextafter(c, 1),
                           2 * c, 0.5, 1.0])
    return st.tuples(st.sampled_from([0.0, -1.0, 0.25]),
                     st.lists(gap, min_size=1, max_size=5)).map(
        lambda t: np.cumsum([t[0], *t[1]]).tolist())


@settings(max_examples=80, deadline=None)
@given(vals=clustered_values(), seed=st.integers(0, 10 ** 6),
       turned=st.booleans())
def test_eigenbasis_steps_match_the_loops_on_clusters(vals, seed, turned):
    """Diagonal operators keep the gaps exact; turned ones in a random basis
    move them by rounding.  The joint eigenblocks of one operator are the
    differences of its steps, in order.  The generic element's blocks are
    compared on the same operator with its clusters merged into repeated
    eigenvalues (gaps of 1e-8 are beyond ``subalgebra``'s conditioning)."""
    dim = len(vals)
    u = np.eye(dim, dtype=complex)
    if turned:
        r = random.Random(seed)
        u, _ = np.linalg.qr(vn.random_hermitian(r, dim) + 1j * np.eye(dim))
    a = vn.check_hermitian((u * vals) @ u.conj().T)
    fam = assert_family_matches_the_loop(a)
    steps = [np.zeros((dim, dim)), *fam.projections]
    blocks = vn.joint_eigenblocks([a], dim)
    assert len(blocks) == len(fam.breakpoints)
    for p, lo, hi in zip(blocks, steps, steps[1:]):
        assert np.linalg.norm(p - (hi - lo)) < 1e-12
    assert_eigenblocks_match_the_loop(
        [vn.check_hermitian((u * np.round(vals, 3)) @ u.conj().T)], dim)
    assert vn.merged_breakpoints([fam]) == ref_merged_breakpoints([fam])


@settings(max_examples=80, deadline=None)
@given(lams=st.lists(clustered_values(), min_size=1, max_size=3))
def test_merged_breakpoints_match_the_loop(lams):
    eye = np.eye(1, dtype=complex)
    fams = [vn.OperatorSpectralFamily(tuple(v), (eye,) * len(v), 1)
            for v in lams]
    assert vn.merged_breakpoints(fams) == ref_merged_breakpoints(fams)


def test_spectral_order_on_diagonals():
    a = np.diag([1.0, 1.0, 3.0])
    b = np.diag([1.0, 2.0, 3.0])
    assert vn.spectral_leq(a, b)
    assert not vn.spectral_leq(b, a)
    assert vn.spectral_leq(a, a)


def test_spectral_order_antisymmetry(rng):
    for _ in range(20):
        a = vn.random_hermitian(rng, 3)
        b = vn.random_hermitian(rng, 3)
        if vn.spectral_leq(a, b) and vn.spectral_leq(b, a):
            assert np.linalg.norm(a - b) < 1e-8


def test_order_scalar_comparison(rng):
    """Against scalars the spectral order reads off the extreme eigenvalues."""
    for _ in range(10):
        a = vn.random_hermitian(rng, 3)
        lo = float(np.min(np.linalg.eigvalsh(a)))
        hi = float(np.max(np.linalg.eigvalsh(a)))
        assert vn.spectral_leq((lo - 0.1) * np.eye(3), a)
        assert vn.spectral_leq(a, (hi + 0.1) * np.eye(3))
        assert not vn.spectral_leq(a, (hi - 0.1) * np.eye(3))


def test_meet_join_of_commuting_diagonals(rng):
    for _ in range(15):
        x = [rng.gauss(0, 1) for _ in range(3)]
        y = [rng.gauss(0, 1) for _ in range(3)]
        a, b = np.diag(x), np.diag(y)
        meet = vn.spectral_meet([a, b])
        join = vn.spectral_join([a, b])
        assert np.linalg.norm(meet - np.diag(np.minimum(x, y))) < 1e-9
        assert np.linalg.norm(join - np.diag(np.maximum(x, y))) < 1e-9
        # lattice laws against the order itself
        assert vn.spectral_leq(meet, a) and vn.spectral_leq(meet, b)
        assert vn.spectral_leq(a, join) and vn.spectral_leq(b, join)


def test_meet_is_greatest_lower_bound(rng):
    for _ in range(10):
        a = vn.random_hermitian(rng, 2)
        b = vn.random_hermitian(rng, 2)
        meet = vn.spectral_meet([a, b])
        assert vn.spectral_leq(meet, a)
        assert vn.spectral_leq(meet, b)


def test_commutant_dimensions():
    diag = np.diag([0.0, 1.0, 2.0])
    basis = vn.commutant_basis([diag], 3)
    assert len(basis) == 3
    basis = vn.commutant_basis([np.eye(3, dtype=complex)], 3)
    assert len(basis) == 9
    # a rank-1 projection plus a generic hermitian leaves only scalars
    rng = random.Random(4)
    a = vn.random_hermitian(rng, 3)
    b = vn.random_hermitian(rng, 3)
    assert len(vn.commutant_basis([a, b], 3)) == 1


@pytest.mark.parametrize("build", [
    lambda: vn.commutant_basis([np.eye(3)], 2),
    lambda: vn.subalgebra([np.eye(2), np.eye(3)])],
    ids=["commutant_basis", "subalgebra"])
def test_generator_dimension_is_checked(build):
    with pytest.raises(InputError) as err:
        build()
    assert err.value.args[0] == "generator dimension mismatch"
    assert err.value.witness == [3, 2]


def one_stack_commutant(mats, dim, tol=vn.TOL):
    """Reference: the commutant as the null space of all Sylvester blocks
    stacked at once, from a full SVD (the construction before the stack was
    folded into its R factor)."""
    eye = np.eye(dim, dtype=complex)
    rows = [np.kron(h, eye) - np.kron(eye, h.T)
            for g in mats for h in (g, g.conj().T)]
    if not rows:
        return np.eye(dim * dim, dtype=complex)
    _, s, vh = np.linalg.svd(np.vstack(rows), full_matrices=True)
    rank = int(np.sum(s > tol.pivot * max(1.0, float(s[0]))))
    return vh.conj().T[:, rank:]


def corpus_generator_sets():
    yield jsonio.load_generators(str(CORPUS / "gens_diag.json"))[0]
    dia = jsonio.load_json(CORPUS / "diagram_qubit.json")
    for gens in dia["contexts"].values():
        yield [jsonio.load_matrix(g) for g in gens]
    for name in ("matrix_a", "matrix_low", "matrix_high", "op_qubit",
                 "proj_q"):
        yield [jsonio.load_matrix(str(CORPUS / f"{name}.json"))]


def random_generator_sets(rng):
    """Generators of maximal and non-maximal abelian algebras, block
    algebras, the full algebra and the trivial one, at dimensions 2..5."""
    for dim in range(2, 6):
        u, _ = np.linalg.qr(vn.random_hermitian(rng, dim) + 1j * np.eye(dim))
        repeated = np.diag([0.0, 0.0] + [float(k) for k in range(1, dim - 1)])
        block = np.zeros((dim, dim), dtype=complex)
        block[:2, :2] = vn.random_hermitian(rng, 2)
        yield dim, []
        yield dim, [vn.random_hermitian(rng, dim)]
        yield dim, [u @ repeated @ u.conj().T]
        yield dim, [vn.random_projection(rng, dim, rank=1)]
        yield dim, [u @ block @ u.conj().T, vn.random_projection(rng, dim)]
        yield dim, [vn.random_hermitian(rng, dim), vn.random_hermitian(rng, dim)]


def assert_same_commutant(mats, dim):
    got = np.column_stack([m.reshape(-1) for m in vn.commutant_basis(mats, dim)])
    want = one_stack_commutant(mats, dim)
    assert got.shape == want.shape
    assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) < 1e-8


def test_commutant_matches_one_stack_null_space(rng):
    """The folded stack keeps the commutant of the one-stack construction,
    for the generators themselves (the commutant ``subalgebra`` keeps), the
    generated algebra's basis, and its commutant (whose commutant is the
    double commutant ``subalgebra`` counts)."""
    sets = [(gens[0].shape[0], gens) for gens in corpus_generator_sets()]
    sets += list(random_generator_sets(rng))
    for dim, gens in sets:
        alg = vn.subalgebra(gens, dim=dim)
        for mats in (gens, alg.basis, alg.commutant):
            assert_same_commutant(mats, dim)


def block_generator_sets(rng):
    """Two generic elements of a non-abelian block algebra, the direct sum
    of M_n (x) I_m over the (n, m) blocks, in a random basis; d <= 8."""
    for blocks in ([(2, 1), (2, 1)], [(2, 1), (1, 2)], [(2, 2), (1, 1)],
                   [(3, 2), (1, 2)], [(2, 3), (2, 1)],
                   [(2, 2), (2, 1), (1, 2)]):
        dim = sum(n * m for n, m in blocks)
        u, _ = np.linalg.qr(vn.random_hermitian(rng, dim) + 1j * np.eye(dim))
        gens = []
        for _ in range(2):
            g = np.zeros((dim, dim), dtype=complex)
            at = 0
            for n, m in blocks:
                g[at:at + n * m, at:at + n * m] = np.kron(
                    vn.random_hermitian(rng, n), np.eye(m))
                at += n * m
            gens.append(u @ g @ u.conj().T)
        yield dim, gens


# The parent construction, verbatim: the span closed under products until a
# round adds nothing, the commutant of the whole span, and the double
# commutant of the whole commutant.

def ref_closed_linear_span(seed, dim, tol=vn.TOL):
    basis = vn.orthonormal_range(np.column_stack([vn._vec(m) for m in seed]),
                                 tol)
    while True:
        mats = [basis[:, k].reshape(dim, dim) for k in range(basis.shape[1])]
        cols = [basis] + [vn._vec(x @ y).reshape(-1, 1)
                          for x in mats for y in mats]
        new_basis = vn.orthonormal_range(np.hstack(cols), tol)
        if new_basis.shape[1] == basis.shape[1]:
            return mats
        basis = new_basis


def ref_subalgebra(gens, dim=None, tol=vn.TOL):
    gens = [vn.as_matrix(g) for g in gens]
    if dim is None:
        if not gens:
            raise InputError("need generators or an explicit dimension")
        dim = gens[0].shape[0]
    for g in gens:
        if g.shape[0] != dim:
            raise InputError("generator dimension mismatch",
                             witness=[int(g.shape[0]), dim])
    seed = [np.eye(dim, dtype=complex)]
    for g in gens:
        seed += [g, g.conj().T]
    basis = ref_closed_linear_span(seed, dim, tol)
    comm = vn.commutant_basis(basis, dim, tol)
    bicomm = vn.commutant_basis(comm, dim, tol)
    if len(bicomm) != len(basis):
        raise ResourceError(
            "double commutant does not close at the generated span",
            witness={"span": len(basis), "bicommutant": len(bicomm)})
    return vn.VNSubalgebra(dim, tuple(gens), tuple(basis), tuple(comm))


def ref_core_projection(m, q, tol=vn.TOL):
    """The fixpoint loop: rounds until the commutant keeps the subspace."""
    q = vn.check_projection(q, tol)
    basis = vn.orthonormal_range(q, tol)
    eye = np.eye(m.dim, dtype=complex)
    while basis.shape[1] > 0:
        p_cur = basis @ basis.conj().T
        stacked = np.vstack([(eye - p_cur) @ (g @ basis) for g in m.commutant])
        keep = vn.null_space(stacked, tol)
        if keep.shape[1] == basis.shape[1]:
            break
        basis = vn.orthonormal_range(basis @ keep, tol)
    core = (basis @ basis.conj().T if basis.shape[1]
            else np.zeros((m.dim, m.dim), dtype=complex))
    for g in m.commutant:
        defect = float(np.linalg.norm(g @ core - core @ g))
        if defect > tol.sub:
            raise ResourceError("core failed to commute with the commutant",
                                witness={"defect": defect})
    return core


def ref_restrict(m, a, hull):
    """rho (hull = core) or sigma (hull = support) through the oracle core."""
    eye = np.eye(m.dim)
    fam = vn.spectral_family_of(vn.check_hermitian(a))
    steps = [ref_core_projection(m, e) if hull == "core"
             else eye - ref_core_projection(m, eye - e)
             for e in fam.projections]
    return vn.family_from_steps(fam.breakpoints, steps).synthesize()


def test_batched_commute_check_keeps_the_loop_witness():
    """A commutant that is not *-closed (spanned by I and E12) does not keep
    the core of diag(1, 0) in the algebra: the batched check raises with the
    loop oracle's witness, the defect of the first breaching element."""
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    m = vn.VNSubalgebra(2, (), (np.eye(2, dtype=complex),),
                        (np.eye(2, dtype=complex), e12))
    q = np.diag([1.0, 0.0])
    with pytest.raises(ResourceError) as got:
        vn.core_projection(m, q)
    with pytest.raises(ResourceError) as want:
        ref_core_projection(m, q)
    assert got.value.args == want.value.args
    assert got.value.witness == want.value.witness == {"defect": 1.0}


def test_commutant_stack_is_read_only():
    alg = vn.subalgebra([np.diag([0.0, 1.0, 2.0])])
    assert alg.commutant.shape == (3, 3, 3)
    assert not alg.commutant.flags.writeable
    with pytest.raises(ValueError):
        alg.commutant[0, 0, 0] = 1.0


@pytest.mark.parametrize("fn", [vn.core_projection, vn.support_projection],
                         ids=lambda fn: fn.__name__)
def test_core_and_support_check_the_projection_once(fn, monkeypatch):
    seen = []
    check = vn.check_projection

    def counted(p, tol=vn.TOL):
        seen.append(p)
        return check(p, tol)

    monkeypatch.setattr(vn, "check_projection", counted)
    fn(vn.subalgebra([np.diag([0.0, 1.0, 2.0])]), np.diag([1.0, 1.0, 0.0]))
    assert len(seen) == 1


def projector(mats):
    return vn.projection_onto(np.column_stack([m.reshape(-1) for m in mats]))


def test_subalgebra_matches_the_full_bicommutant_oracle(rng):
    """Bases and minimal projections bitwise, commutants as subspaces, and
    core, support, rho and sigma on projections whose core lies strictly
    between 0 and q as well as on random ones."""
    sets = [(gens[0].shape[0], gens) for gens in corpus_generator_sets()]
    sets += list(random_generator_sets(rng)) + list(block_generator_sets(rng))
    strictly_between = 0
    for dim, gens in sets:
        new, old = vn.subalgebra(gens, dim=dim), ref_subalgebra(gens, dim=dim)
        assert len(new.basis) == len(old.basis)
        assert all(np.array_equal(x, y) for x, y in zip(new.basis, old.basis))
        assert len(new.commutant) == len(old.commutant)
        assert np.linalg.norm(projector(new.commutant)
                              - projector(old.commutant)) < 1e-8
        herm = sum(rng.gauss(0, 1) * h for h in hermitian_parts(new))
        inner = vn.spectral_family_of(herm).projections[0]
        eye = np.eye(dim)
        qs = [vn.random_projection(rng, dim) for _ in range(3)]
        qs += [vn.projection_join([inner, vn.random_projection(rng, dim, 1)])]
        for q in qs + [eye - p for p in qs]:
            core = vn.core_projection(new, q)
            assert np.linalg.norm(core - ref_core_projection(old, q)) < 1e-12
            assert np.linalg.norm(
                vn.support_projection(new, q)
                - (eye - ref_core_projection(old, eye - q))) < 1e-12
            rank = vn.rank_of_projection(core)
            strictly_between += 0 < rank < vn.rank_of_projection(q)
        a = vn.random_hermitian(rng, dim)
        assert np.linalg.norm(vn.rho_restrict(new, a)
                              - ref_restrict(old, a, "core")) < 1e-12
        assert np.linalg.norm(vn.sigma_restrict(new, a)
                              - ref_restrict(old, a, "support")) < 1e-12
    assert strictly_between > len(sets) // 2


def clustered_hermitian(rng, dim):
    """A Hermitian whose eigenvalues repeat (drawn from 0, 1, 2) in a random
    basis, so its spectral projections skip ranks."""
    u, _ = np.linalg.qr(vn.random_hermitian(rng, dim) + 1j * np.eye(dim))
    a = u @ np.diag([float(rng.randrange(3)) for _ in range(dim)]) @ u.conj().T
    return (a + a.conj().T) / 2


def assert_restrictions_match_the_oracle(alg, a):
    assert np.linalg.norm(vn.rho_restrict(alg, a)
                          - ref_restrict(alg, a, "core")) < 1e-12
    assert np.linalg.norm(vn.sigma_restrict(alg, a)
                          - ref_restrict(alg, a, "support")) < 1e-12


def test_restrictions_of_clustered_operators_match_the_oracle(rng):
    sets = [(gens[0].shape[0], gens) for gens in corpus_generator_sets()]
    sets += list(random_generator_sets(rng)) + list(block_generator_sets(rng))
    clustered = 0
    for dim, gens in sets:
        a = clustered_hermitian(rng, dim)
        clustered += len(vn.spectral_family_of(a).breakpoints) < dim
        assert_restrictions_match_the_oracle(vn.subalgebra(gens, dim=dim), a)
    assert clustered > len(sets) // 2


@pytest.mark.parametrize("dim", [12, 16])
def test_restrictions_match_the_oracle_at_the_caps(dim):
    """The trivial algebra and a maximal abelian one, on a random and a
    clustered operator."""
    rng = random.Random(dim)
    algebras = (vn.trivial_algebra(dim),
                vn.subalgebra([vn.random_hermitian(rng, dim)], dim=dim))
    for alg in algebras:
        for a in (vn.random_hermitian(rng, dim), clustered_hermitian(rng, dim)):
            assert_restrictions_match_the_oracle(alg, a)


@pytest.mark.parametrize("fn", [vn.rho_restrict, vn.sigma_restrict],
                         ids=lambda fn: fn.__name__)
def test_restriction_on_the_trivial_algebra_at_the_cap_stays_small(fn):
    """The 256-element commutant acts on one core at a time, so the traced
    peak stays near 3 MiB; a padded batch of all 16 systems at once would
    hold many times that."""
    alg = vn.trivial_algebra(16)
    b = vn.random_hermitian(random.Random(16), 16)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        out = fn(alg, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert peak < 8 * 2 ** 20
    vals = np.linalg.eigvalsh(b)
    want = vals[-1] if fn is vn.rho_restrict else vals[0]
    assert np.linalg.norm(out - want * np.eye(16)) < 1e-9


def test_non_generic_pair_raises_with_the_span_witness(monkeypatch):
    """A pair of scalars (zero weights) has all of M_3 as its commutant, so
    the count passes any span and the diagonal algebra stalls below it."""
    class ZeroWeights:
        def standard_normal(self, shape):
            return np.zeros(shape)

    monkeypatch.setattr(vn.np.random, "default_rng", lambda seed: ZeroWeights())
    with pytest.raises(ResourceError) as err:
        vn.subalgebra([np.diag([0.0, 1.0, 2.0])], dim=3)
    assert err.value.witness == {"span": 3, "bicommutant": 9}


@pytest.mark.parametrize("dim, error", [(0, InputError), (-2, InputError),
                                        (17, ResourceError)])
def test_subalgebra_dimension_is_checked_first(dim, error):
    with pytest.raises(error):
        vn.subalgebra([], dim=dim)


def test_null_space_of_tall_wide_and_empty_systems():
    tall = np.vstack([np.diag([1.0, 2.0, 0.0])] * 4)
    assert vn.null_space(tall).shape == (3, 1)
    wide = np.array([[1.0, 0.0, 0.0]])
    assert vn.null_space(wide).shape == (3, 2)
    assert vn.null_space(np.zeros((0, 3))).shape == (3, 3)


def test_rank_rule_counts_along_the_trailing_axis():
    """The threshold scales with the largest value once it exceeds 1: 4e-10
    is below it in the first row (5e-10) and above it in the second."""
    s = np.array([[5.0, 4e-10, 1e-12], [0.5, 4e-10, 5e-11], [1.0, 1.0, 0.0]])
    assert vn._rank(s, vn.TOL).tolist() == [1, 2, 2]
    assert [vn._rank(row, vn.TOL) for row in s] == [1, 2, 2]
    assert vn._rank(np.zeros(0), vn.TOL) == 0
    assert vn._rank(np.zeros((2, 0)), vn.TOL).tolist() == [0, 0]


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_batched_joins_match_one_join_per_family(dim):
    """Random projections with repeats, zeros and complements mixed in, so
    the families' joins have every rank from 0 to dim."""
    rng = random.Random(dim)
    for k in (1, 2, 4):
        fams = []
        for _ in range(12):
            fam = [vn.random_projection(rng, dim, rank=rng.randrange(dim))
                   for _ in range(k)]
            if k > 1 and rng.random() < 0.5:
                fam[-1] = rng.choice([fam[0], np.eye(dim) - fam[0]])
            fams.append(fam)
        got = vn.projection_joins(np.array(fams))
        for fam, j in zip(fams, got):
            assert np.linalg.norm(j - vn.projection_join(fam)) <= 1e-12


# Wall-time bounds at the caps.  On 2 cores one run takes about 0.2 s at d=12
# and 0.7 s at d=16.
CAP_SECONDS = {12: 5.0, 16: 5.0}


@pytest.mark.parametrize("dim", [12, 16])
def test_matrix_layer_at_the_caps(dim):
    rng = random.Random(dim)
    start = time.perf_counter()
    triv = vn.trivial_algebra(dim)
    alg = vn.subalgebra([vn.random_hermitian(rng, dim)], dim=dim)
    full = vn.subalgebra([vn.random_hermitian(rng, dim),
                          vn.random_hermitian(rng, dim)], dim=dim)
    assert triv.linear_dim == 1 and len(triv.commutant) == dim * dim
    assert full.linear_dim == dim * dim and len(full.commutant) == 1
    assert alg.linear_dim == dim and ref_is_abelian(alg)
    q = vn.random_projection(rng, dim, rank=dim // 2)
    b = vn.random_hermitian(rng, dim)
    vals = np.linalg.eigvalsh(b)
    eye = np.eye(dim)
    assert np.linalg.norm(vn.core_projection(triv, q)) < 1e-9
    assert np.linalg.norm(vn.rho_restrict(triv, b) - vals[-1] * eye) < 1e-9
    assert np.linalg.norm(vn.sigma_restrict(triv, b) - vals[0] * eye) < 1e-9
    core = vn.core_projection(alg, q)
    assert alg.contains(core) and vn.projection_leq(core, q)
    up, down = vn.rho_restrict(alg, b), vn.sigma_restrict(alg, b)
    assert alg.contains(up) and alg.contains(down)
    assert vn.spectral_leq(down, b) and vn.spectral_leq(b, up)
    assert time.perf_counter() - start < CAP_SECONDS[dim]


def test_subalgebra_structure(rng):
    alg = vn.subalgebra([np.diag([0.0, 1.0, 2.0])], dim=3)
    assert alg.linear_dim == 3
    assert ref_is_abelian(alg)
    assert alg.contains(np.diag([5.0, -1.0, 0.5]))
    assert not alg.contains(np.ones((3, 3)))
    mins = vn.joint_eigenblocks(alg.generators, 3)
    assert len(mins) == 3
    assert all(vn.rank_of_projection(p) == 1 and alg.contains(p) for p in mins)
    total = sum(mins[1:], mins[0])
    assert np.linalg.norm(total - np.eye(3)) < 1e-9


def test_trivial_and_intersection(rng):
    triv = vn.trivial_algebra(3)
    assert triv.linear_dim == 1
    assert np.array_equal(vn.joint_eigenblocks([], 3), [np.eye(3)])
    diag = np.diag([0.0, 1.0, 2.0])
    u, _ = np.linalg.qr(vn.random_hermitian(rng, 3) + 1j * np.eye(3))
    dia = cx.diagram({"D": [diag], "R": [u @ diag @ u.conj().T]}, dim=3)
    assert len(dia.context_named("D&R").minimal) == 1


def test_core_support_sandwich(rng):
    alg = vn.subalgebra([np.diag([0.0, 1.0, 2.0])], dim=3)
    for _ in range(15):
        q = vn.random_projection(rng, 3)
        c = vn.core_projection(alg, q)
        s = vn.support_projection(alg, q)
        assert vn.projection_leq(c, q)
        assert vn.projection_leq(q, s)
        assert alg.contains(c) and alg.contains(s)
        # complement duality between the two hulls
        eye = np.eye(3)
        assert np.linalg.norm(
            s - (eye - vn.core_projection(alg, eye - q))) < 1e-10


def test_restriction_of_projection_is_support(rng):
    alg = vn.subalgebra([np.diag([0.0, 1.0, 2.0])], dim=3)
    for _ in range(10):
        q = vn.random_projection(rng, 3, rank=rng.choice([1, 2]))
        r = vn.rho_restrict(alg, q)
        s = vn.support_projection(alg, q)
        assert np.linalg.norm(r - s) < 1e-8


def test_restriction_duality(rng):
    """The lower map is the negative-mirror of the upper map."""
    alg = vn.subalgebra([np.diag([0.0, 1.0, 2.0])], dim=3)
    for _ in range(10):
        a = vn.random_hermitian(rng, 3)
        lhs = vn.sigma_restrict(alg, a)
        rhs = -vn.rho_restrict(alg, -a)
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_trivial_algebra_compression(rng):
    triv = vn.trivial_algebra(3)
    for _ in range(10):
        a = vn.random_hermitian(rng, 3)
        vals = np.linalg.eigvalsh(a)
        up = vn.rho_restrict(triv, a)
        dn = vn.sigma_restrict(triv, a)
        assert np.linalg.norm(up - vals[-1] * np.eye(3)) < 1e-9
        assert np.linalg.norm(dn - vals[0] * np.eye(3)) < 1e-9


def test_restriction_bounds_operator(rng):
    """sigma <= a <= rho in the spectral order."""
    alg = vn.subalgebra([np.diag([0.0, 1.0, 2.0])], dim=3)
    for _ in range(8):
        a = vn.random_hermitian(rng, 3)
        assert vn.spectral_leq(vn.sigma_restrict(alg, a), a)
        assert vn.spectral_leq(a, vn.rho_restrict(alg, a))


def test_compression_is_not_additive():
    alg = vn.subalgebra([np.diag([0.0, 1.0])], dim=2)
    p = np.full((2, 2), 0.5)
    q = np.diag([1.0, 0.0])
    rho_sum = vn.rho_restrict(alg, p + q)
    lam = 1.0 + math.sqrt(0.5)
    assert np.linalg.norm(rho_sum - lam * np.eye(2)) < 1e-9
    separate = vn.rho_restrict(alg, p) + vn.rho_restrict(alg, q)
    assert np.linalg.norm(separate - np.diag([2.0, 1.0])) < 1e-9
    assert np.linalg.norm(rho_sum - separate) > 0.7


def test_atomic_value(rng):
    a = np.diag([0.25, 0.75])
    assert vn.atomic_value(a, np.array([1.0, 0.0])) == pytest.approx(0.25)
    assert vn.atomic_value(a, np.array([0.0, 2.0])) == pytest.approx(0.75)
    # a vector off both eigenlines only enters at the full space
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert vn.atomic_value(a, x) == pytest.approx(0.75)
    with pytest.raises(InputError):
        vn.atomic_value(a, np.zeros(2))


def test_atomic_value_rejects_bad_vectors():
    a = np.diag([0.0, 1.0, 2.0])
    with pytest.raises(InputError) as err:
        vn.atomic_value(a, [math.nan, 1.0, 1.0])
    assert err.value.witness == 0
    with pytest.raises(InputError) as err:
        vn.atomic_value(a, [1.0, math.inf, 1.0])
    assert err.value.witness == 1
    with pytest.raises(InputError) as err:
        vn.atomic_value(a, [1.0, 0.0])
    assert err.value.witness == [2, 3]


def test_random_projection_rank(rng):
    for rank in [0, 1, 2, 3]:
        p = vn.random_projection(rng, 3, rank=rank)
        vn.check_projection(p)
        assert vn.rank_of_projection(p) == rank


def test_tolerance_scaling():
    t = vn.TOL.scaled(sub=1e-6)
    assert t.sub == 1e-6
    assert t.proj == vn.TOL.proj
    with pytest.raises(TypeError):
        vn.TOL.scaled(bogus=1.0)


@pytest.mark.parametrize("fn", [vn.core_projection, vn.support_projection,
                                vn.rho_restrict, vn.sigma_restrict],
                         ids=lambda fn: fn.__name__)
def test_matrix_must_have_the_algebras_dimension(fn):
    alg = vn.subalgebra([np.diag([0.0, 1.0, 2.0])])
    with pytest.raises(InputError) as err:
        fn(alg, np.diag([1.0, 0.0]))
    assert err.value.witness == [2, 3]


# -- one site per decision: commutation, containment, the Hermitian check ------

def ref_is_abelian(m, tol=vn.TOL):
    """The former ``VNSubalgebra.is_abelian``: the pair loop over the span
    basis."""
    return all(float(np.linalg.norm(x @ y - y @ x)) <= tol.sub
               for x in m.basis for y in m.basis)


def context_is_abelian(m, tol=vn.TOL):
    """Whether ``context_from_generators`` passes the algebra's generators
    (its span basis when it has none) through its abelian check."""
    try:
        cx.context_from_generators("C", m.generators or m.basis, dim=m.dim,
                                   tol=tol)
    except InputError:
        return False
    except ResourceError:   # raised after the check, e.g. past MAX_MINIMAL
        pass
    return True


def abelian_oracle_algebras(rng):
    """The corpus algebras; at d = 1..8 the trivial algebra, a maximal
    abelian one, one with a repeated eigenvalue, a non-abelian block algebra
    and a generic pair's; the trivial and a maximal abelian one at d = 16;
    C + M_2 spanned with its central elements first."""
    for gens in corpus_generator_sets():
        yield vn.subalgebra(gens)
    flip = np.zeros((3, 3), dtype=complex)
    flip[1, 2] = flip[2, 1] = 1.0
    yield vn.VNSubalgebra(3, (), (np.eye(3, dtype=complex),
                                  np.diag([1.0, 0.0, 0.0]).astype(complex),
                                  np.diag([0.0, 1.0, -1.0]).astype(complex),
                                  flip))
    for dim in range(1, 9):
        u, _ = np.linalg.qr(vn.random_hermitian(rng, dim) + 1j * np.eye(dim))
        k = min(2, dim)
        blocks = []
        for _ in range(2):
            g = np.zeros((dim, dim), dtype=complex)
            g[:k, :k] = vn.random_hermitian(rng, k)
            blocks.append(u @ g @ u.conj().T)
        repeated = u @ np.diag([0.0] * k + [1.0] * (dim - k)) @ u.conj().T
        for gens in ([], [vn.random_hermitian(rng, dim)], [repeated], blocks,
                     [vn.random_hermitian(rng, dim),
                      vn.random_hermitian(rng, dim)]):
            yield vn.subalgebra(gens, dim=dim)
    yield vn.trivial_algebra(16)
    yield vn.subalgebra([vn.random_hermitian(rng, 16)])


def test_abelian_check_matches_the_pair_loop(rng):
    verdicts = [(context_is_abelian(alg), ref_is_abelian(alg))
                for alg in abelian_oracle_algebras(rng)]
    assert all(got == want for got, want in verdicts)
    assert {got for got, _ in verdicts} == {True, False}


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_abelian_check_sits_at_the_sub_tolerance(factor):
    """A diagonal algebra with one element turned by t out of the diagonal:
    diag(1, 0) and diag(0, 1) + t (E12 + E21) have commutator norm t sqrt 2."""
    t = factor * vn.TOL.sub / math.sqrt(2.0)
    turned = np.array([[0.0, t], [t, 1.0]], dtype=complex)
    m = vn.VNSubalgebra(2, (), (np.eye(2, dtype=complex),
                                np.diag([1.0, 0.0]).astype(complex), turned))
    assert context_is_abelian(m) == ref_is_abelian(m) == (factor < 1)


def test_containment_takes_stacks(rng):
    """Leading axes broadcast, one verdict per pair, each the two-matrix
    verdict; a column stack is tested by its range."""
    ps = np.array([vn.random_projection(rng, 3) for _ in range(4)])
    qs = np.array([vn.random_projection(rng, 3) for _ in range(3)]
                  + [np.eye(3, dtype=complex), ps[0]])
    got = vn.projection_leq(ps[:, None], qs[None])
    assert got.shape == (4, 5)
    assert got.tolist() == [[vn.projection_leq(p, q) for q in qs] for p in ps]
    assert got[:, 3].all() and got[0, 4]
    assert isinstance(vn.projection_leq(ps[0], qs[0]), bool)
    x = np.array([[1.0], [0.0], [0.0]])
    assert vn.projection_leq(x, np.diag([1.0, 0.0, 0.0]))
    assert not vn.projection_leq(x, np.diag([0.0, 1.0, 1.0]))


@pytest.mark.parametrize("fn", [
    lambda p, q: vn.projection_leq(p, q),
    lambda p, q: vn.projection_join([p, q]),
    lambda p, q: vn.projection_meet([p, q])],
    ids=["projection_leq", "projection_join", "projection_meet"])
def test_projection_dimension_mismatch_is_typed(fn):
    with pytest.raises(InputError) as err:
        fn(np.eye(2), np.eye(3))
    assert str(err.value) == "dimension mismatch"
    assert err.value.witness == [2, 3]


@pytest.mark.parametrize("fn", [
    vn.as_matrix, vn.check_hermitian, vn.eigen_hermitian, vn.check_projection,
    vn.spectral_family_of, lambda a: vn.subalgebra([a])],
    ids=["as_matrix", "check_hermitian", "eigen_hermitian",
         "check_projection", "spectral_family_of", "subalgebra"])
def test_empty_matrices_are_refused(fn):
    with pytest.raises(InputError) as err:
        fn(np.zeros((0, 0)))
    assert str(err.value) == "dimension must be positive"
    assert err.value.witness == 0


def ref_atomic_value(a, x, tol=vn.TOL):
    """``atomic_value`` as the step loop it replaced."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    x = x / float(np.linalg.norm(x))
    fam = vn.spectral_family_of(a, tol)
    for mu, e in zip(fam.breakpoints, fam.projections):
        if float(np.linalg.norm(e @ x - x)) <= tol.sub:
            return mu
    return float(fam.breakpoints[-1])


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 5), seed=st.integers(0, 10 ** 6),
       entries=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10),
       eigen=st.none() | st.integers(0, 4))
def test_atomic_value_matches_the_step_loop(dim, seed, entries, eigen):
    """Operators with repeated eigenvalues in a random basis; vectors drawn
    by hypothesis, or one of the operator's eigenvectors."""
    a = clustered_hermitian(random.Random(seed), dim)
    if eigen is None:
        x = np.array(entries[:dim]) + 1j * np.array(entries[5:5 + dim])
        if np.linalg.norm(x) <= vn.TOL.pivot:
            x = np.ones(dim)
    else:
        x = np.linalg.eigh(a)[1][:, eigen % dim]
    assert vn.atomic_value(a, x) == ref_atomic_value(a, x)


def counted_checks(monkeypatch):
    """Arguments of every ``check_hermitian`` call from here on."""
    seen = []
    check = vn.check_hermitian

    def counted(a, tol=vn.TOL):
        seen.append(np.asarray(a, dtype=complex))
        return check(a, tol)

    monkeypatch.setattr(vn, "check_hermitian", counted)
    return seen


def checks_of(seen, m):
    """How many checks saw m, by value: a check hands on a symmetrized copy,
    which equals a Hermitian m exactly."""
    return sum(np.array_equal(x, m) for x in seen)


@pytest.mark.parametrize("call, uses_b", [
    (lambda a, b, alg: vn.spectral_family_of(a), 0),
    (lambda a, b, alg: vn.rho_restrict(alg, a), 0),
    (lambda a, b, alg: vn.sigma_restrict(alg, a), 0),
    (lambda a, b, alg: vn.spectral_meet([a, b]), 1),
    (lambda a, b, alg: vn.spectral_join([a, b]), 1),
    (lambda a, b, alg: vn.spectral_leq(a, b), 1),
    (lambda a, b, alg: vn.atomic_value(a, np.ones(3)), 0)],
    ids=["spectral_family_of", "rho_restrict", "sigma_restrict",
         "spectral_meet", "spectral_join", "spectral_leq", "atomic_value"])
def test_each_operator_is_checked_once(call, uses_b, monkeypatch):
    """Steps that a call builds are checked as projections too; each operator
    handed in is checked once.  Both are exactly Hermitian."""
    rng = random.Random(3)
    a, b = clustered_hermitian(rng, 3), vn.random_hermitian(rng, 3)
    alg = vn.subalgebra([np.diag([0.0, 1.0, 1.0])])
    seen = counted_checks(monkeypatch)
    call(a, b, alg)
    assert [checks_of(seen, op) for op in (a, b)] == [1, uses_b]


@pytest.mark.parametrize("argv, files, checks", [
    (["spectral-family", "matrix_a.json"], ["matrix_a.json"], [1]),
    (["order", "matrix_low.json", "matrix_high.json"],
     ["matrix_low.json", "matrix_high.json"], [1, 1]),
    (["restrict", "--algebra", "gens_diag.json", "--op", "matrix_a.json",
      "--map", "rho"], ["matrix_a.json"], [1]),
    (["restrict", "--algebra", "gens_diag.json", "--op", "matrix_a.json",
      "--map", "sigma"], ["matrix_a.json"], [1]),
    # one check in each of the two library calls, core and support
    (["core", "--algebra", "gens_diag.json", "--proj", "proj_q.json"],
     ["proj_q.json"], [2])],
    ids=["spectral-family", "order", "rho", "sigma", "core"])
def test_vn_commands_check_each_matrix_in_the_library(argv, files, checks,
                                                      monkeypatch, capsys):
    from obslat.cli import main
    seen = counted_checks(monkeypatch)
    args = [str(CORPUS / x) if x.endswith(".json") else x for x in argv]
    assert main(["vn", *args]) == 0
    capsys.readouterr()
    loaded = [jsonio.load_matrix(str(CORPUS / f)) for f in files]
    assert [checks_of(seen, m) for m in loaded] == checks


def test_vn_order_solves_each_operator_once(monkeypatch, capsys):
    from obslat.cli import main
    calls = []
    solve = vn.eigen_hermitian

    def counted(a, tol=vn.TOL):
        calls.append(a)
        return solve(a, tol)

    monkeypatch.setattr(vn, "eigen_hermitian", counted)
    assert main(["vn", "order", str(CORPUS / "matrix_low.json"),
                 str(CORPUS / "matrix_high.json")]) == 0
    capsys.readouterr()
    assert len(calls) == 2
