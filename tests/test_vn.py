"""Matrix side: the eigensolver, the spectral order, commutants against the
one-stack null space, the two coarse-graining maps, and the caps."""
import json
import math
import random
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslat import context as cx
from obslat import jsonio, vn
from obslat.errors import InputError, PreconditionError, ResourceError
from obslat.spectral import _canonical_steps

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


@pytest.mark.parametrize("lams, ps", [
    ([0.0, 1.0, 2.0], [np.eye(2)]),
    ([0.0], [np.diag([1.0, 0.0]), np.eye(2)]),
    ([], [np.eye(2)])], ids=["more-breakpoints", "more-steps", "none"])
def test_family_from_steps_needs_one_breakpoint_per_projection(lams, ps):
    """Unmatched inputs are not zipped away: the counts are checked first."""
    with pytest.raises(InputError) as err:
        vn.family_from_steps(lams, ps)
    assert err.value.witness == {"breakpoints": len(lams),
                                 "projections": len(ps)}


# -- family_from_steps against the per-step loop it replaced ---------------------

def ref_family_from_steps(breakpoints, projections, tol=vn.TOL):
    """Each projection checked on its own, then ``_canonical_steps`` comparing
    the projections themselves, one norm per comparison."""
    ps = [vn.check_projection(p, tol) for p in projections]
    dim = vn._one_dim(p.shape[0] for p in ps)
    steps = _canonical_steps(
        zip(breakpoints, ps), lambda p, q: vn.projection_leq(p, q, tol),
        lambda p, q: float(np.linalg.norm(p - q)) <= tol.sub,
        np.zeros((dim, dim), dtype=complex), np.eye(dim, dtype=complex),
        vn.rank_of_projection)
    return vn.OperatorSpectralFamily(tuple(lam for lam, _ in steps),
                                     tuple(p for _, p in steps), dim)


def family_outcome(build, lams, ps):
    """The family's breakpoints and projections as bits, or the error's type,
    message and witness."""
    try:
        fam = build(lams, ps)
    except (InputError, ResourceError) as err:
        return type(err), err.args, repr(err.witness)
    return ([lam.hex() for lam in fam.breakpoints],
            [(p.shape, p.tobytes()) for p in fam.projections], fam.dim)


def assert_family_matches_the_step_loop(lams, ps):
    want = family_outcome(ref_family_from_steps, lams, ps)
    assert family_outcome(vn.family_from_steps, lams, ps) == want
    return want


def unitary(seed, dim):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


BREAKS = ("nan", "inf", "lambda", "non-square", "too-big", "empty-matrix",
          "dimension", "hermitian", "barely-hermitian", "idempotent",
          "barely-idempotent", "decreasing", "tie", "no-top", "no-steps")


def broken(kind, lams, ps, k, dim):
    """Break the family at step k (taken modulo its length) one way; a
    family with no steps stays as it is."""
    lams, ps = list(lams), [np.array(p, dtype=complex) for p in ps]
    if not ps:
        return lams, ps
    k = k % len(ps)
    eye = np.eye(*ps[k].shape)
    if kind in ("nan", "inf"):
        ps[k][..., -1:] = float(kind)
    elif kind == "lambda":
        lams[k] = float("nan")
    elif kind == "non-square":
        ps[k] = np.zeros((dim, dim + 1))
    elif kind == "too-big":
        ps[k] = np.eye(vn.MAX_DIM + 1)
    elif kind == "empty-matrix":
        ps[k] = np.zeros((0, 0))
    elif kind == "dimension":
        ps[k] = np.eye(dim + 1)
    elif kind in ("hermitian", "barely-hermitian"):
        # a defect of 1.4 or 2 times the sym tolerance when barely
        ps[k][:1, -1:] += 1e-6j if kind == "hermitian" else vn.TOL.sym * 1j
    elif kind in ("idempotent", "barely-idempotent"):
        # a defect of about twice the proj tolerance when barely
        ps[k] = ps[k] + (1e-3 if kind == "idempotent" else 2 * vn.TOL.proj
                         / max(1, ps[k].shape[0]) ** 0.5) * eye
    elif kind == "decreasing":
        ps[k] = eye - ps[k]
    elif kind == "tie":
        lams[k] = lams[k - 1]
    elif kind == "no-top":
        keep = [i for i, p in enumerate(ps) if not (
            p.shape == (dim, dim) and np.linalg.norm(p - np.eye(dim)) < 1e-9)]
        lams, ps = [lams[i] for i in keep], [ps[i] for i in keep]
    else:
        lams, ps = [], []
    return lams, ps


@st.composite
def step_families(draw):
    """A family of steps V_r V_r* of one random unitary, ranks 0 to dim drawn
    with repeats, lambdas from a small grid so that some coincide, in a
    shuffled order, usually with the identity among them; then up to two
    breaks from ``BREAKS``."""
    dim = draw(st.integers(1, 5))
    u = unitary(draw(st.integers(0, 2 ** 32 - 1)), dim)
    n = draw(st.integers(0, 7))
    ranks = sorted(draw(st.lists(st.integers(0, dim), min_size=n,
                                 max_size=n)))
    grid = st.sampled_from([-1.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.5])
    lams = sorted(draw(st.lists(grid, min_size=n, max_size=n)))
    if draw(st.booleans()):
        ranks.append(dim)
        lams.append(3.0)
    steps = [u[:, :r] @ u[:, :r].conj().T for r in ranks]
    order = draw(st.permutations(range(len(steps))))
    lams, steps = [lams[i] for i in order], [steps[i] for i in order]
    for kind in draw(st.lists(st.sampled_from(BREAKS), max_size=2)):
        lams, steps = broken(kind, lams, steps, draw(st.integers(0, 10)), dim)
    return lams, steps


@settings(max_examples=300, deadline=None)
@given(family=step_families())
def test_family_from_steps_matches_the_step_loop(family):
    """Valid families give bitwise the loop's breakpoints and projections;
    broken ones its first error, message and witness."""
    assert_family_matches_the_step_loop(*family)


def test_broken_families_raise_the_step_loops_first_error():
    """Each break on its own, on a family with every kind of step, and two
    at once, where the earlier step's error must come first."""
    dim = 3
    u = unitary(1, dim)
    steps = [u[:, :r] @ u[:, :r].conj().T for r in (3, 0, 1, 2, 1, 3)]
    lams = [2.0, -1.0, 0.0, 1.0, 0.5, 3.0]
    assert len(assert_family_matches_the_step_loop(lams, steps)[0]) == 3
    messages = set()
    for kind in BREAKS:
        want = assert_family_matches_the_step_loop(
            *broken(kind, lams, steps, 3, dim))
        messages.add(want[1][0])
        for other in BREAKS:
            assert_family_matches_the_step_loop(*broken(
                other, *broken(kind, lams, steps, 4, dim), 2, dim))
    # nan and inf, and each kind with its barely- twin, share a message
    assert len(messages) == len(BREAKS) - 3


@pytest.mark.parametrize("seed", range(4))
def test_family_from_steps_matches_the_step_loop_at_dimension_16(seed):
    """The pointwise joins of two operators' families at their merged
    breakpoints, as ``spectral_meet`` builds them, shuffled, with repeated
    steps and a zero step mixed in: at least 30 steps."""
    rng = random.Random(seed)
    fams = [vn.spectral_family_of(vn.random_hermitian(rng, 16))
            for _ in range(2)]
    lams = vn.merged_breakpoints(fams)
    steps = [vn.projection_join([f.value_at(lam) for f in fams])
             for lam in lams]
    lams += [lams[3], lams[0] - 1.0, lams[-1]]
    steps += [steps[3], np.zeros((16, 16)), steps[-1]]
    order = list(range(len(lams)))
    rng.shuffle(order)
    lams, steps = [lams[i] for i in order], [steps[i] for i in order]
    assert len(steps) >= 30
    want = assert_family_matches_the_step_loop(lams, steps)
    assert len(want[0]) == 16


def test_singleton_clusters_keep_the_means_bits(monkeypatch):
    """A cluster of one takes its eigenvalue, wider clusters keep the mean;
    an eigensolver that hands out a negative zero (LAPACK does, on a
    diagonal input not symmetrized first) gives the mean's positive zero."""
    a = np.diag([-0.0, 1.0, 1.0 + 1e-9, 2.0 + 1e-15, 5.0])
    got = vn.spectral_family_of(a).breakpoints
    want = ref_spectral_family_of(a).breakpoints
    assert [b.hex() for b in got] == [b.hex() for b in want]
    assert len(got) == 4
    monkeypatch.setattr(vn, "eigen_hermitian",
                        lambda a, tol: np.linalg.eigh(a))
    a = np.diag([-0.0, 1.0]).astype(complex)
    assert np.signbit(np.linalg.eigh(a)[0][0])
    got = vn.spectral_family_of(a).breakpoints
    assert [b.hex() for b in got] == [float(np.mean([-0.0])).hex(),
                                      (1.0).hex()]


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
                           ref_subalgebra(gens, dim=dim))
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
    eigenvalues (gaps of 1e-8 are beyond the bicommutant oracle's
    conditioning)."""
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
    basis = vn.orthonormal_range(
        np.column_stack([m.reshape(-1) for m in seed]), tol)
    while True:
        mats = [basis[:, k].reshape(dim, dim) for k in range(basis.shape[1])]
        cols = [basis] + [(x @ y).reshape(-1, 1) for x in mats for y in mats]
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


def ref_cores(m, vecs, ks, tol=vn.TOL):
    """One ``_commuting`` call per core, as soon as the core is found."""
    comm = m.commutant
    h = vecs.conj().T @ comm @ vecs
    cores = []
    for k in ks:
        basis = vecs[:, :k]
        if k:
            basis = basis @ vn.null_space(h[:, k:, :k].reshape(-1, k), tol)
        core = basis @ basis.conj().T
        ok, defects = vn._commuting(comm, core, tol)
        if not ok.all():
            raise ResourceError("core failed to commute with the commutant",
                                witness={"defect": float(defects[ok.argmin()])})
        cores.append(core)
    return cores


def shift_breaking_algebra(dim, i, fill, adjoint):
    """A hand-built algebra whose stored commutant holds the identity,
    ``fill`` random diagonals, then E, 2E and 3F for E = E_{i,i+1} and
    F = E_{i+1,i+2} (1-based; their adjoints when ``adjoint``).  On
    a = diag(0, ..., dim - 1) the cores of rho are the spans of the leading
    basis vectors, growing, which all of these keep: the core at position
    i - 1 fails to commute with E and 2E, the next one with 3F, and no
    other fails, so the first breach has defect 1.  sigma is -rho(-a), whose
    cores are the spans of the trailing basis vectors, growing: with the
    adjoints the core at position dim - i - 2 fails with 3F* and the next
    one with E* and 2E*, so the first breach has defect 3."""
    e = np.zeros((3, dim, dim), dtype=complex)
    for n, (r, c) in enumerate([(i - 1, i), (i - 1, i), (i, i + 1)]):
        e[(n, c, r) if adjoint else (n, r, c)] = n + 1.0
    rng = np.random.default_rng(dim)
    diagonals = [np.diag(rng.normal(size=dim) + 1j * rng.normal(size=dim))
                 for _ in range(fill)]
    comm = np.array([np.eye(dim), *diagonals, *e])
    return vn.VNSubalgebra(dim, (), (np.eye(dim, dtype=complex),), comm)


@pytest.mark.parametrize("where, dim, fill", [
    ("first", 4, 0), ("middle", 8, 20), ("last", 16, 60)])
@pytest.mark.parametrize("fn", [vn.rho_restrict, vn.sigma_restrict],
                         ids=lambda fn: fn.__name__)
def test_core_check_keeps_the_per_core_loops_witness(fn, where, dim, fill,
                                                     monkeypatch):
    """The check raises on the first breaching core, wherever it falls, with
    the per-core loop's witness: that core's first breaching element, not
    the largest defect nor a later core's.  The first breach falls on the
    first core, a middle one, or the last one that a second breach follows
    (the last core, the identity, never breaches)."""
    sigma = fn is vn.sigma_restrict
    first = {"first": 0, "middle": (dim - 3) // 2, "last": dim - 3}[where]
    i = dim - 2 - first if sigma else first + 1
    alg = shift_breaking_algebra(dim, i, fill, sigma)
    a = np.diag(np.arange(dim, dtype=float))
    with pytest.raises(ResourceError) as got:
        fn(alg, a)
    monkeypatch.setattr(vn, "_cores", ref_cores)
    with pytest.raises(ResourceError) as want:
        fn(alg, a)
    assert got.value.args == want.value.args
    assert got.value.witness == want.value.witness == {
        "defect": 3.0 if sigma else 1.0}
    vecs = vn.eigen_hermitian(-a if sigma else a)[1]
    ks = list(range(1, dim + 1))
    ref_cores(alg, vecs, ks[:first])
    with pytest.raises(ResourceError):
        ref_cores(alg, vecs, ks[:first + 1])


# The parent bodies, verbatim: support from its own SVD of I - q, and sigma
# from the cores of the reversed eigenbasis with complemented ranks, before
# each was written through its primal.

def ref_support_projection(m, q, tol=vn.TOL):
    q = vn._in_algebra_dim(m, vn.check_projection(q, tol))
    eye = np.eye(m.dim, dtype=complex)
    u, s, _ = np.linalg.svd(eye - q)
    return eye - vn._cores(m, u, [int(vn._rank(s, tol))], tol)[0]


def ref_sigma_restrict(m, a, tol=vn.TOL):
    vecs, breakpoints, ends = vn._clustered_eigen(a, tol)
    vn._in_algebra_dim(m, vecs)
    eye = np.eye(m.dim, dtype=complex)
    cores = vn._cores(m, vecs[:, ::-1], [m.dim - k for k in ends], tol)
    return vn.family_from_steps(breakpoints, eye - cores, tol).synthesize()


def dual_map_algebras(rng):
    """The generator sets above, and at d = 1..16 the trivial algebra, one
    random Hermitian's, one with integer levels 0-2 in a random basis, and
    a diagonal one with such levels; two random Hermitians (the Sylvester
    path) at d = 6, 11 and 16."""
    sets = [(gens[0].shape[0], gens) for gens in corpus_generator_sets()]
    sets += list(random_generator_sets(rng)) + list(block_generator_sets(rng))
    for dim in range(1, 17):
        levels = [float(rng.randrange(3)) for _ in range(dim)]
        sets += [(dim, []), (dim, [vn.random_hermitian(rng, dim)]),
                 (dim, [clustered_hermitian(rng, dim)]),
                 (dim, [np.diag(levels)])]
    sets += [(dim, [vn.random_hermitian(rng, dim) for _ in range(2)])
             for dim in (6, 11, 16)]
    return [vn.subalgebra(gens, dim=dim) for dim, gens in sets]


def test_dual_maps_match_their_own_bodies(rng):
    """sigma as -rho(-a) and support as the complement of the core of the
    complement agree with the bodies they replaced within 1e-12, on random
    and clustered operators and on projections whose core or support lies
    strictly between 0, q and I as well as on random ones."""
    algebras = dual_map_algebras(rng)
    strictly_between = 0
    for alg in algebras:
        dim = alg.dim
        for a in (vn.random_hermitian(rng, dim),
                  clustered_hermitian(rng, dim)):
            assert np.linalg.norm(vn.sigma_restrict(alg, a)
                                  - ref_sigma_restrict(alg, a)) < 1e-12
        inner = vn.spectral_family_of(
            sum(rng.gauss(0, 1) * h for h in hermitian_parts(alg))
        ).projections[0]
        qs = [vn.random_projection(rng, dim) for _ in range(2)]
        qs += [vn.projection_join([inner, vn.random_projection(rng, dim, 1)])]
        for q in qs + [np.eye(dim) - p for p in qs]:
            support = vn.support_projection(alg, q)
            assert np.linalg.norm(support
                                  - ref_support_projection(alg, q)) < 1e-12
            rank = vn.rank_of_projection(q)
            strictly_between += rank < vn.rank_of_projection(support) < dim
    assert strictly_between > len(algebras) // 2


BAD_OPERATORS = {
    "not-hermitian": np.triu(np.ones((3, 3))),
    "wrong-dimension": np.eye(4),
    "ragged": [[1.0, 0.0], [0.0]],
    "nan": np.diag([math.nan, 0.0, 0.0]),
    "not-idempotent": vn.random_hermitian(random.Random(7), 3)}


DUAL_ERROR_CASES = [
    *((vn.sigma_restrict, ref_sigma_restrict, kind)
      for kind in BAD_OPERATORS if kind != "not-idempotent"),
    *((vn.support_projection, ref_support_projection, kind)
      for kind in BAD_OPERATORS)]


@pytest.mark.parametrize("fn, ref, kind", DUAL_ERROR_CASES,
                         ids=[f"{fn.__name__}-{kind}"
                              for fn, _, kind in DUAL_ERROR_CASES])
def test_dual_maps_raise_their_own_bodies_errors(fn, ref, kind):
    """The same error and witness, but for the idempotence defect of a q
    handed to support: it is now measured on I - q, which has the same
    defect up to rounding."""
    alg = vn.subalgebra([np.diag([0.0, 1.0, 1.0])])
    with pytest.raises(InputError) as got:
        fn(alg, BAD_OPERATORS[kind])
    with pytest.raises(InputError) as want:
        ref(alg, BAD_OPERATORS[kind])
    assert got.value.args == want.value.args
    if kind == "not-idempotent":
        assert math.isclose(got.value.witness["defect"],
                            want.value.witness["defect"], rel_tol=1e-12)
    else:
        assert got.value.witness == want.value.witness


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
    """Bases and commutants as subspaces, on sets that are not abelian (the
    Sylvester path) and on abelian ones (the eigenblock path), and core,
    support, rho and sigma on projections whose core lies strictly between
    0 and q as well as on random ones."""
    sets = [(gens[0].shape[0], gens) for gens in corpus_generator_sets()]
    sets += list(random_generator_sets(rng)) + list(block_generator_sets(rng))
    strictly_between = 0
    abelian = 0
    for dim, gens in sets:
        new, old = vn.subalgebra(gens, dim=dim), ref_subalgebra(gens, dim=dim)
        assert len(new.basis) == len(old.basis)
        abelian += ref_is_abelian(old)
        assert np.linalg.norm(projector(new.basis)
                              - projector(old.basis)) < 1e-8
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
    assert 0 < abelian < len(sets)


def sylvester_subalgebra(gens, dim):
    """``subalgebra`` on its Sylvester path, whatever the generators."""
    with mock.patch.object(vn, "_abelian", lambda gens, tol: False):
        return vn.subalgebra(gens, dim=dim)


@st.composite
def abelian_generator_sets(draw):
    """Commuting normal generators in one random basis at d = 1..16: one
    Hermitian with repeated integer levels, two of them, a unitary with
    repeated phases, or none."""
    dim = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["one", "two", "unitary", "none"]))
    levels = draw(st.integers(1, 4))
    np_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = np_rng.normal(size=(dim, dim)) + 1j * np_rng.normal(size=(dim, dim))
    u = np.linalg.qr(z)[0]

    def turned(vals):
        return (u * vals) @ u.conj().T

    def drawn_levels():
        return np_rng.integers(0, levels, dim).astype(float)

    if kind == "none":
        return dim, []
    if kind == "unitary":
        return dim, [turned(np.exp(2j * np.pi * drawn_levels() / levels))]
    return dim, [turned(drawn_levels())
                 for _ in range(1 if kind == "one" else 2)]


@settings(max_examples=60, deadline=None)
@given(case=abelian_generator_sets(), seed=st.integers(0, 10 ** 6))
def test_eigenblock_path_matches_the_sylvester_path(case, seed):
    """On abelian sets the two paths give the same algebra and commutant as
    subspaces, each with orthonormal vecs, and the same core, support, rho
    and sigma, on a projection whose core lies strictly between 0 and q (a
    block and a random line) unless that is all of I or there is one block,
    and on a random one."""
    dim, gens = case
    rng = random.Random(seed)
    new, old = vn.subalgebra(gens, dim=dim), sylvester_subalgebra(gens, dim)
    assert new.linear_dim == old.linear_dim
    assert len(new.commutant) == len(old.commutant)
    assert np.linalg.norm(projector(new.basis) - projector(old.basis)) < 1e-10
    assert np.linalg.norm(projector(new.commutant)
                          - projector(old.commutant)) < 1e-10
    for mats in (new.basis, new.commutant):
        vecs = np.array([m.reshape(-1) for m in mats])
        assert np.linalg.norm(vecs.conj() @ vecs.T - np.eye(len(vecs))) < 1e-12
    block = vn.joint_eigenblocks(gens, dim)[0]
    qs = [vn.projection_join([block, vn.random_projection(rng, dim, 1)]),
          vn.random_projection(rng, dim)]
    for q in qs:
        core = vn.core_projection(new, q)
        assert np.linalg.norm(core - vn.core_projection(old, q)) < 1e-12
        assert np.linalg.norm(vn.support_projection(new, q)
                              - vn.support_projection(old, q)) < 1e-12
    rank = vn.rank_of_projection(qs[0])
    if new.linear_dim > 1 and rank < dim:
        assert 0 < vn.rank_of_projection(vn.core_projection(new, qs[0])) < rank
    a = vn.random_hermitian(rng, dim)
    for fn in (vn.rho_restrict, vn.sigma_restrict):
        assert np.linalg.norm(fn(new, a) - fn(old, a)) < 1e-12


@pytest.mark.parametrize("vals", [[0.0, 0.5, 0.5 + 1e-8],
                                  [0.0, 0.5, 0.5 + 1e-8, 0.5 + 2e-8],
                                  [0.0, 0.5, 0.5 + 5e-9]])
def test_near_degenerate_generators_give_the_contexts_algebra(vals):
    """Eigenvalues within the cluster gap share a block, as in a context:
    the algebra has one dimension per atom.  The Sylvester path refused the
    second set and gave the third three dimensions."""
    alg = vn.subalgebra([np.diag(vals)])
    atoms = cx.context_from_generators("D", [np.diag(vals)]).minimal
    assert alg.linear_dim == len(atoms)
    assert len(alg.commutant) == sum(
        vn.rank_of_projection(p) ** 2 for p in atoms)
    assert all(alg.contains(p) for p in atoms)


def test_blocks_that_do_not_reduce_a_generator_take_the_sylvester_path():
    """diag(0, 1, 1 + 2e-8) and a generator that turns its last two lines
    by 0.03 commute within ``tol.sub``, but their joint eigenblocks fail
    the guard, so the algebra is the Sylvester path's C + M_2, five
    dimensions, as before."""
    h = np.zeros((3, 3))
    h[1, 2] = h[2, 1] = 0.03
    gens = [np.diag([0.0, 1.0, 1.0 + 2e-8]), h]
    assert vn._abelian([vn.as_matrix(g) for g in gens], vn.TOL)
    alg = vn.subalgebra(gens)
    assert alg.linear_dim == sylvester_subalgebra(gens, 3).linear_dim == 5


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


# -- rho and sigma onto an algebra with atoms, against the cores route ------------

def without_atoms(m):
    """The same algebra with no atoms: rho and sigma take ``_cores``."""
    return replace(m, atoms=None)


@st.composite
def atom_route_cases(draw):
    """At d = 1..16, one generator with repeated integer levels, two such
    in one random basis U (commuting), or the trivial algebra; with a
    random Hermitian, levels 0-2 in U with one plane turned, and a distinct
    level per atom in U with one plane turned by 0.2-1.4, whose rho and
    sigma have a step strictly between 0 and I once there are three atoms."""
    dim = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["one", "two", "trivial"]))
    levels = draw(st.integers(1, 4))
    np_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = np_rng.normal(size=(dim, dim)) + 1j * np_rng.normal(size=(dim, dim))
    u = np.linalg.qr(z)[0]
    drawn = [np_rng.integers(0, levels, dim).astype(float)
             for _ in range({"one": 1, "two": 2, "trivial": 0}[kind])]
    alg = vn.subalgebra([(u * v) @ u.conj().T for v in drawn], dim=dim)
    keys = list(zip(*drawn)) if drawn else [()] * dim
    atom_of = [sorted(set(keys)).index(k) for k in keys]
    turn = np.eye(dim, dtype=complex)
    if dim > 1:
        i, j = np_rng.choice(dim, 2, replace=False)
        t = np_rng.uniform(0.2, 1.4)
        turn[[i, i, j, j], [i, j, i, j]] = [np.cos(t), -np.sin(t),
                                            np.sin(t), np.cos(t)]
    w = u @ turn
    ops = [vn.random_hermitian(random.Random(int(np_rng.integers(1 << 30))),
                               dim),
           (w * np_rng.integers(0, 3, dim).astype(float)) @ w.conj().T,
           (w * np.array(atom_of, dtype=float)) @ w.conj().T]
    return alg, [(op + op.conj().T) / 2 for op in ops], len(set(atom_of))


@settings(max_examples=60, deadline=None)
@given(case=atom_route_cases())
def test_atom_route_matches_the_cores_route(case):
    alg, ops, atoms = case
    assert len(alg.atoms) == atoms
    old = without_atoms(alg)
    for fn in (vn.rho_restrict, vn.sigma_restrict):
        for a in ops:
            assert np.linalg.norm(fn(alg, a) - fn(old, a)) < 1e-12
        if atoms >= 3:
            ranks = [vn.rank_of_projection(p) for p in
                     vn.spectral_family_of(fn(alg, ops[-1])).projections]
            assert any(0 < r < alg.dim for r in ranks)


@pytest.mark.parametrize("kind", ["not-hermitian", "wrong-dimension"])
@pytest.mark.parametrize("fn", [vn.rho_restrict, vn.sigma_restrict],
                         ids=lambda fn: fn.__name__)
def test_atom_route_raises_the_cores_routes_errors(fn, kind):
    alg = vn.subalgebra([np.diag([0.0, 1.0, 1.0])])
    with pytest.raises(InputError) as got:
        fn(alg, BAD_OPERATORS[kind])
    with pytest.raises(InputError) as want:
        fn(without_atoms(alg), BAD_OPERATORS[kind])
    assert type(got.value) is type(want.value)
    assert got.value.args == want.value.args
    assert got.value.witness == want.value.witness


@pytest.mark.parametrize("path, calls", [("blocks", 0), ("sylvester", 3)])
def test_rho_on_a_block_algebra_solves_no_null_space(path, calls,
                                                     monkeypatch):
    """rho reads a block algebra's atoms; the Sylvester path's algebra has
    none, so its three cores take one null space each."""
    gens = [np.diag([0.0, 1.0, 1.0])]
    alg = (vn.subalgebra(gens) if path == "blocks"
           else sylvester_subalgebra(gens, 3))
    assert (alg.atoms is None) == (path == "sylvester")
    seen = []
    solve = vn.null_space

    def counted(stacked, tol=vn.TOL):
        seen.append(stacked)
        return solve(stacked, tol)

    monkeypatch.setattr(vn, "null_space", counted)
    vn.rho_restrict(alg, vn.random_hermitian(random.Random(5), 3))
    assert len(seen) == calls


def test_atom_stack_is_read_only():
    alg = vn.subalgebra([np.diag([0.0, 1.0, 1.0])])
    assert alg.atoms.shape == (2, 3, 3)
    assert not alg.atoms.flags.writeable
    assert sylvester_subalgebra([np.diag([0.0, 1.0, 1.0])], 3).atoms is None


def test_restrict_of_a_negative_operator_prints_no_negative_zero(tmp_path,
                                                                 capsys):
    """Every value sum v_i P_i takes is negative, so each zero entry is a
    sum of products v_i * 0.0 = -0.0 unless it is added to +0.0."""
    from obslat.cli import main
    op = tmp_path / "negative.json"
    op.write_text(json.dumps({"matrix": jsonio.matrix_to_json(
        np.diag([-1.0, -2.0, -3.0]))}))
    for m in ("rho", "sigma"):
        assert main(["vn", "restrict", "--algebra",
                     str(CORPUS / "gens_diag.json"), "--op", str(op),
                     "--map", m, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        assert json.loads(out)["matrix"][0][0] == [-1.0, 0.0]


def test_non_generic_pair_raises_with_the_span_witness(monkeypatch):
    """A pair of scalars (zero weights) has all of M_3 as its commutant,
    which is not the double commutant of M_2 + C, generated by a set that
    is not abelian.  The largest defect is that of a matrix unit E_i3 or
    E_3i against the commutant's element E_33: 1."""
    class ZeroWeights:
        def standard_normal(self, shape):
            return np.zeros(shape)

    flip = np.zeros((3, 3))
    flip[0, 1] = flip[1, 0] = 1.0
    monkeypatch.setattr(vn.np.random, "default_rng", lambda seed: ZeroWeights())
    with pytest.raises(ResourceError) as err:
        vn.subalgebra([np.diag([1.0, -1.0, 0.0]), flip], dim=3)
    assert err.value.witness == {"defect": pytest.approx(1.0)}


def ref_contains(m, x, tol=vn.TOL):
    """The former ``VNSubalgebra.contains``: the residual of x off the span
    of the basis, within the sub tolerance relative to |x|_F once that
    exceeds 1."""
    x = vn.as_matrix(x)
    if x.shape[0] != m.dim:
        return False
    b = np.column_stack([y.reshape(-1) for y in m.basis])
    v = x.reshape(-1)
    resid = v - b @ (b.conj().T @ v)   # columns are orthonormal
    return float(np.linalg.norm(resid)) <= tol.sub * max(
        1.0, float(np.linalg.norm(v)))


def test_contains_matches_the_span_residual_rule(rng):
    """On both paths, ``contains`` and the rule it replaced accept 200
    members of Frobenius norm 1, 1e3 and 1e6, and refuse each of them plus
    a piece orthogonal to the algebra of relative size 1e-6."""
    np_rng = np.random.default_rng(4)
    sets = list(random_generator_sets(rng)) + list(block_generator_sets(rng))
    algs = [alg for alg in (vn.subalgebra(gens, dim=dim) for dim, gens in sets)
            if alg.linear_dim < alg.dim ** 2]      # room for an orthogonal piece
    assert 0 < sum(ref_is_abelian(alg) for alg in algs) < len(algs)
    for k in range(200):
        alg = algs[k % len(algs)]
        dim = alg.dim
        coef = np_rng.normal(size=alg.linear_dim) + 1j * np_rng.normal(
            size=alg.linear_dim)
        member = np.tensordot(coef, np.array(alg.basis), axes=1)
        member /= np.linalg.norm(member)
        z = (np_rng.normal(size=dim * dim)
             + 1j * np_rng.normal(size=dim * dim))
        off = (z - projector(alg.basis) @ z).reshape(dim, dim)
        off /= np.linalg.norm(off)
        for scale in (1.0, 1e3, 1e6):
            assert alg.contains(scale * member)
            assert ref_contains(alg, scale * member)
            assert not alg.contains(scale * (member + 1e-6 * off))
            assert not ref_contains(alg, scale * (member + 1e-6 * off))


@pytest.mark.parametrize("dim, error", [(0, InputError), (-2, InputError),
                                        (17, ResourceError)])
def test_subalgebra_dimension_is_checked_first(dim, error):
    with pytest.raises(error):
        vn.subalgebra([], dim=dim)


@pytest.mark.parametrize("build", [
    lambda dim: vn.subalgebra([], dim=dim),
    lambda dim: vn.trivial_algebra(dim),
    lambda dim: vn.commutant_basis([], dim),
    lambda dim: vn.joint_eigenblocks([np.eye(2)], dim),
    lambda dim: cx.context_from_generators("C", [np.eye(2)], dim=dim),
    lambda dim: cx.diagram({"C": [np.eye(2)]}, dim=dim)],
    ids=["subalgebra", "trivial_algebra", "commutant_basis",
         "joint_eigenblocks", "context_from_generators", "diagram"])
def test_a_given_dimension_must_be_an_integer(build):
    """Non-integers and bools are typed errors, as in ``jsonio``; numpy
    integers are dimensions."""
    for dim in (2.5, 2.0, True, "2"):
        with pytest.raises(InputError) as err:
            build(dim)
        assert err.value.args[0] == "dimension must be an integer"
        assert err.value.witness == repr(dim)
    build(np.int64(2))


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
    for x in ([1.0, "a", 1.0], [[1.0], [1.0, 2.0]]):
        with pytest.raises(InputError) as err:
            vn.atomic_value(a, x)
        assert str(err.value) == "vector entries must be numbers in equal rows"


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
                                vn.rho_restrict, vn.sigma_restrict,
                                vn.VNSubalgebra.contains],
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


@pytest.mark.parametrize("call, error, message, witness", [
    (lambda: vn.projection_join([]), PreconditionError,
     "join of no projections", None),
    (lambda: vn.projection_meet([]), PreconditionError,
     "meet of no projections", None),
    (lambda: vn.spectral_leq(np.eye(2), np.eye(3)), InputError,
     "dimension mismatch", [2, 3]),
    (lambda: vn.spectral_meet([]), PreconditionError,
     "need a nonempty operator list", None),
    (lambda: vn.subalgebra([]), InputError,
     "need generators or an explicit dimension", None)],
    ids=["join-of-none", "meet-of-none", "leq-across-dimensions",
         "spectral-meet-of-none", "subalgebra-of-none"])
def test_typed_errors_keep_their_message_and_witness(call, error, message,
                                                    witness):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.witness == witness


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


@pytest.mark.parametrize("entries", [[[1, 0], [0]], [["a", 0], [0, 1]]],
                         ids=["ragged", "string"])
@pytest.mark.parametrize("fn", [
    vn.as_matrix, vn.check_hermitian, lambda a: vn.subalgebra([a]),
    lambda a: vn.family_from_steps([0.0], [a]),
    lambda a: vn.family_from_steps([0.0, 1.0], [np.eye(2), a])],
    ids=["as_matrix", "check_hermitian", "subalgebra", "family_from_steps",
         "second_step"])
def test_entries_that_are_no_matrix_are_refused(fn, entries):
    """A ragged nesting or an entry that is no number raises ``InputError``
    rather than numpy's ``ValueError``."""
    with pytest.raises(InputError) as err:
        fn(entries)
    assert str(err.value) == "matrix entries must be numbers in equal rows"
    assert err.value.witness is None


def ref_atomic_value(a, x, tol=vn.TOL):
    """``atomic_value`` as the step loop it replaced."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    x = x / float(np.linalg.norm(x))
    fam = vn.spectral_family_of(a, tol)
    for mu, e in zip(fam.breakpoints, fam.projections):
        if float(np.linalg.norm(e @ x - x)) <= tol.sub:
            return mu
    return float(fam.breakpoints[-1])


@settings(max_examples=120, deadline=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 10 ** 6),
       entries=st.lists(st.floats(-2.0, 2.0), min_size=32, max_size=32),
       eigen=st.none() | st.integers(0, 15), spread=st.booleans())
def test_atomic_value_matches_the_step_loop(dim, seed, entries, eigen,
                                            spread):
    """Operators at d = 1-16 whose eigenvalues repeat, or with ``spread``
    lie apart within the cluster gap, in a random basis; complex vectors
    drawn by hypothesis, or one of the operator's eigenvectors."""
    rng = random.Random(seed)
    a = clustered_hermitian(rng, dim)
    if spread:
        # Weyl: each eigenvalue moves by at most |E| ~ 8e-10 < cluster / 2
        a = a + 1e-10 * vn.random_hermitian(rng, dim)
    if eigen is None:
        x = np.array(entries[:dim]) + 1j * np.array(entries[16:16 + dim])
        if np.linalg.norm(x) <= vn.TOL.pivot:
            x = np.ones(dim)
    else:
        x = np.linalg.eigh(a)[1][:, eigen % dim]
    assert vn.atomic_value(a, x) == ref_atomic_value(a, x)


def test_atomic_value_builds_no_family(monkeypatch):
    """The value is read in the eigenbasis, with no spectral family and no
    stacked containment test."""
    for name in ("spectral_family_of", "projection_leq"):
        monkeypatch.setattr(vn, name, lambda *args, name=name: pytest.fail(
            f"atomic_value called {name}"))
    assert vn.atomic_value(np.diag([0.0, 1.0, 1.0]), [0, 1, 1]) == 1.0


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


@pytest.mark.parametrize("call, counts", [
    (lambda a, b, alg: vn.spectral_family_of(a), [1, 0, 0]),
    (lambda a, b, alg: vn.rho_restrict(alg, a), [1, 0, 0]),
    # sigma is -rho(-a): its one check sees -a
    (lambda a, b, alg: vn.sigma_restrict(alg, a), [0, 1, 0]),
    (lambda a, b, alg: vn.spectral_meet([a, b]), [1, 0, 1]),
    (lambda a, b, alg: vn.spectral_join([a, b]), [1, 0, 1]),
    (lambda a, b, alg: vn.spectral_leq(a, b), [1, 0, 1]),
    (lambda a, b, alg: vn.atomic_value(a, np.ones(3)), [1, 0, 0])],
    ids=["spectral_family_of", "rho_restrict", "sigma_restrict",
         "spectral_meet", "spectral_join", "spectral_leq", "atomic_value"])
def test_each_operator_is_checked_once(call, counts, monkeypatch):
    """Steps that a call builds are checked as projections too; each operator
    handed in is checked once, as itself or negated: the counts are those of
    a, -a and b.  All are exactly Hermitian."""
    rng = random.Random(3)
    a, b = clustered_hermitian(rng, 3), vn.random_hermitian(rng, 3)
    alg = vn.subalgebra([np.diag([0.0, 1.0, 1.0])])
    seen = counted_checks(monkeypatch)
    call(a, b, alg)
    assert [checks_of(seen, op) for op in (a, -a, b)] == counts


@pytest.mark.parametrize("argv, files, checked", [
    (["spectral-family", "matrix_a.json"], ["matrix_a.json"],
     lambda m: [m]),
    (["order", "matrix_low.json", "matrix_high.json"],
     ["matrix_low.json", "matrix_high.json"], lambda lo, hi: [lo, hi]),
    (["restrict", "--algebra", "gens_diag.json", "--op", "matrix_a.json",
      "--map", "rho"], ["matrix_a.json"], lambda m: [m]),
    # sigma is -rho(-a)
    (["restrict", "--algebra", "gens_diag.json", "--op", "matrix_a.json",
      "--map", "sigma"], ["matrix_a.json"], lambda m: [-m]),
    # core checks q, and support checks I - q in its call of core
    (["core", "--algebra", "gens_diag.json", "--proj", "proj_q.json"],
     ["proj_q.json"], lambda q: [q, np.eye(len(q)) - q])],
    ids=["spectral-family", "order", "rho", "sigma", "core"])
def test_vn_commands_check_each_matrix_in_the_library(argv, files, checked,
                                                      monkeypatch, capsys):
    """Each matrix a command reads is checked in the library, once in each
    form that a library call hands to ``check_hermitian``."""
    from obslat.cli import main
    seen = counted_checks(monkeypatch)
    args = [str(CORPUS / x) if x.endswith(".json") else x for x in argv]
    assert main(["vn", *args]) == 0
    capsys.readouterr()
    loaded = [jsonio.load_matrix(str(CORPUS / f)) for f in files]
    want = checked(*loaded)
    assert [checks_of(seen, m) for m in want] == [1] * len(want)


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
