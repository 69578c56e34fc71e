"""Small Hermitian matrices: eigenstructure, operator spectral families, the
spectral order, the joint eigenblocks of commuting normal matrices,
commutants, subalgebras as their double commutants, and the two
coarse-graining maps onto a subalgebra.

Everything is exact linear algebra on matrices of dimension <= 16.  numpy
(LAPACK) supplies the eigensolver, the SVDs and the QR; every rank decision
goes through one rule, ``_rank``.

All comparisons name the tolerance they use; the defaults live in
``Tolerances``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, PreconditionError, ResourceError
from .spectral import _canonical_steps, _step_value

MAX_DIM = 16
GENERIC_SEED = 20260101   # of the random pair whose commutant is the algebra


@dataclass(frozen=True)
class Tolerances:
    sym: float = 1e-12         # Hermitian symmetry defect
    proj: float = 1e-10        # idempotence defect of projections
    sub: float = 1e-9          # subspace membership / principal angles
    cluster: float = 1e-8      # eigenvalue clustering gap
    pivot: float = 1e-10       # rank decisions in orthonormalization

    def scaled(self, **kw) -> "Tolerances":
        return replace(self, **kw)


TOL = Tolerances()


def _complex_entries(entries) -> np.ndarray | None:
    """The entries as a complex array, or None when their nesting is ragged
    or one of them is no number."""
    try:
        return np.asarray(entries, dtype=complex)
    except (TypeError, ValueError):
        return None


def as_matrix(entries) -> np.ndarray:
    a = _complex_entries(entries)
    if a is None:
        raise InputError("matrix entries must be numbers in equal rows")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square", witness=list(a.shape))
    if a.shape[0] > MAX_DIM:
        raise ResourceError(f"dimension {a.shape[0]} exceeds {MAX_DIM}")
    if not a.size:
        raise InputError("dimension must be positive", witness=0)
    if not np.isfinite(a).all():
        raise InputError("matrix entries must be finite", witness=[
            int(k) for k in np.argwhere(~np.isfinite(a))[0]])
    return a


def check_hermitian(a, tol: Tolerances = TOL) -> np.ndarray:
    a = as_matrix(a)
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > tol.sym:
        raise InputError(
            f"matrix is not Hermitian within sym tolerance {tol.sym:g}",
            witness={"defect": defect})
    return (a + a.conj().T) / 2


def check_projection(p, tol: Tolerances = TOL) -> np.ndarray:
    p = check_hermitian(p, tol)
    defect = float(np.linalg.norm(p @ p - p))
    if defect > tol.proj:
        raise InputError(
            f"matrix is not idempotent within proj tolerance {tol.proj:g}",
            witness={"defect": defect})
    return p


def rank_of_projection(p) -> int:
    return int(round(float(np.trace(np.asarray(p)).real)))


# -- eigensolver -------------------------------------------------------------

def eigen_hermitian(a, tol: Tolerances = TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns: the
    module's only eigensolve, and the only Hermitian check of an operator."""
    return np.linalg.eigh(check_hermitian(a, tol))


# -- subspace arithmetic ------------------------------------------------------

def _rank(s: np.ndarray, tol: Tolerances):
    """Number of singular values (descending along the trailing axis) above
    the pivot threshold, scaled by the largest one once that exceeds 1; one
    count per leading index."""
    return np.add.reduce(s > tol.pivot * np.maximum(s[..., :1], 1.0), axis=-1)


def orthonormal_range(columns: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Orthonormal basis of the column span."""
    columns = np.asarray(columns, dtype=complex)
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, :_rank(s, tol)]


def null_space(stacked: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Orthonormal basis of the right null space.  The SVD is thin unless
    the system is wide, where the full V is what holds the null space."""
    stacked = np.asarray(stacked, dtype=complex)
    rows, cols = stacked.shape
    if rows == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(stacked, full_matrices=rows < cols)
    return vh.conj().T[:, _rank(s, tol):]


def projection_onto(columns: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    b = orthonormal_range(columns, tol)
    return b @ b.conj().T


def _one_dim(dims) -> int:
    """The dimension all the given ones share (0 for none)."""
    dims = sorted(set(dims))
    if len(dims) > 1:
        raise InputError("dimension mismatch", witness=dims)
    return dims[0] if dims else 0


def projection_leq(p, q, tol: Tolerances = TOL):
    """Range containment ran p <= ran q, the module's one test of it: q acts
    as the identity on ran p within the sub tolerance.  Leading axes
    broadcast, one verdict per pair (a bool for two matrices)."""
    p, q = np.asarray(p), np.asarray(q)
    _one_dim([p.shape[-2], q.shape[-1]])
    out = np.linalg.norm(q @ p - p, axis=(-2, -1)) <= tol.sub
    return bool(out) if out.ndim == 0 else out


def projection_join(ps, tol: Tolerances = TOL) -> np.ndarray:
    """Projection onto the span-sum of the ranges."""
    ps = [np.asarray(p, dtype=complex) for p in ps]
    if not ps:
        raise PreconditionError("join of no projections")
    _one_dim(p.shape[0] for p in ps)
    return projection_onto(np.hstack(ps), tol)


def projection_joins(ps, tol: Tolerances = TOL) -> np.ndarray:
    """Joins of a stack of equal-sized families, ``ps`` of shape
    (n, k, d, d): one batched SVD of the n column stacks (n, d, k*d), each
    projector built from the leading columns of its U that ``_rank`` keeps,
    as ``projection_join`` does for one family."""
    ps = np.asarray(ps, dtype=complex)
    n, k, d, _ = ps.shape
    u, s, _ = np.linalg.svd(ps.transpose(0, 2, 1, 3).reshape(n, d, k * d),
                            full_matrices=False)
    u = u * (np.arange(u.shape[-1]) < _rank(s, tol)[:, None])[:, None, :]
    return u @ u.conj().transpose(0, 2, 1)


def projection_meet(ps, tol: Tolerances = TOL) -> np.ndarray:
    """Projection onto the intersection of the ranges: complement of the
    span of the complements."""
    ps = [np.asarray(p, dtype=complex) for p in ps]
    if not ps:
        raise PreconditionError("meet of no projections")
    eye = np.eye(_one_dim(p.shape[0] for p in ps), dtype=complex)
    return eye - projection_join([eye - p for p in ps], tol)


# -- operator spectral families ----------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorSpectralFamily:
    """Clustered eigenvalue breakpoints with cumulative eigenprojections.
    It holds arrays, so it compares and hashes by identity."""
    breakpoints: tuple[float, ...] = ()
    projections: tuple = ()          # ndarrays, strictly increasing ranges
    dim: int = 0

    def value_at(self, lam: float) -> np.ndarray:
        return _step_value(zip(self.breakpoints, self.projections), lam,
                           np.zeros((self.dim, self.dim), dtype=complex))

    def synthesize(self) -> np.ndarray:
        """sum of mu_i (E_i - E_{i-1})."""
        a = np.zeros((self.dim, self.dim), dtype=complex)
        prev = np.zeros_like(a)
        for mu, e in zip(self.breakpoints, self.projections):
            a = a + mu * (e - prev)
            prev = e
        return a


def _cluster_ends(vals, tol: Tolerances) -> list[int]:
    """Ends (exclusive) of the runs of ascending reals whose consecutive gaps
    are within the cluster gap: the module's one clustering rule."""
    return [k for k in range(1, len(vals) + 1)
            if k == len(vals) or vals[k] - vals[k - 1] > tol.cluster]


def _clustered_eigen(a, tol: Tolerances):
    """Eigenvector columns V, one breakpoint per cluster of eigenvalues (the
    module's only lossy step; each breakpoint is its cluster's mean, which
    for a cluster of one is its eigenvalue, read off without ``np.mean``),
    and the column count k up to each cluster's end: the step there is
    V_k V_k*."""
    vals, vecs = eigen_hermitian(a, tol)
    listed = vals.tolist()
    ends = _cluster_ends(listed, tol)
    # np.mean of one value is that value + 0.0: a negative zero turns positive
    breakpoints = tuple(listed[i] + 0.0 if k - i == 1
                        else float(np.mean(vals[i:k]))
                        for i, k in zip([0, *ends], ends))
    return vecs, breakpoints, ends


def spectral_family_of(a, tol: Tolerances = TOL) -> OperatorSpectralFamily:
    """Each step V_k V_k* read off the clustered eigenbasis
    (``_clustered_eigen``); the last is the identity exactly."""
    if isinstance(a, OperatorSpectralFamily):
        return a
    vecs, breakpoints, ends = _clustered_eigen(a, tol)
    n = vecs.shape[0]
    steps = [vecs[:, :k] @ vecs[:, :k].conj().T for k in ends[:-1]]
    return OperatorSpectralFamily(
        breakpoints, (*steps, np.eye(n, dtype=complex)), n)


def _range_values(a, ps: np.ndarray, tol: Tolerances) -> np.ndarray:
    """For each projection P of the stack ps, the first breakpoint of a whose
    step E_k holds ran P within the sub tolerance: one eigensolve
    (``_clustered_eigen``), then ``_first_holding``."""
    vecs, breakpoints, ends = _clustered_eigen(a, tol)
    if len(vecs) != ps.shape[-1]:
        raise InputError("operator dimension mismatch",
                         witness=[len(vecs), int(ps.shape[-1])])
    return _first_holding(vecs, breakpoints, ends, ps, tol)


def _first_holding(vecs, breakpoints, ends, ps: np.ndarray, tol: Tolerances
                   ) -> np.ndarray:
    """For each projection P of the stack ps (or unit column, for its
    line), the first breakpoint whose step V_k V_k* (``_clustered_eigen``'s
    form) holds ran P within the sub tolerance: ``projection_leq``'s test,
    read in the eigenbasis V.  V* P is one product for the whole stack; V
    is unitary, so |E_k P - P| = |(I - E_k) P| is the root of the squared
    row norms of V* P summed over rows k and on."""
    w = vecs.conj().T @ ps
    rows = (w.real ** 2 + w.imag ** 2).sum(axis=-1)
    tails = np.zeros((len(ps), len(vecs) + 1))
    tails[:, :-1] = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    first = (np.sqrt(tails[:, ends]) <= tol.sub).argmax(axis=1)
    return np.array(breakpoints)[first]


def family_from_steps(breakpoints, projections, tol: Tolerances = TOL
                      ) -> OperatorSpectralFamily:
    """The family of the given steps, one breakpoint per projection (other
    counts raise), in canonical form (``spectral._canonical_steps``) in the
    range order from zero to the identity, projections equal within the sub
    tolerance; witnesses name projections by rank.  Each projection is
    checked (``check_projection``), in input order, before the dimensions
    must agree."""
    breakpoints, projections = list(breakpoints), list(projections)
    if len(breakpoints) != len(projections):
        raise InputError("one breakpoint per projection", witness={
            "breakpoints": len(breakpoints), "projections": len(projections)})
    ps = [check_projection(p, tol) for p in projections]
    dim = _one_dim(p.shape[0] for p in ps)
    steps = _canonical_steps(
        zip(breakpoints, ps), lambda p, q: projection_leq(p, q, tol),
        lambda p, q: float(np.linalg.norm(p - q)) <= tol.sub,
        np.zeros((dim, dim), dtype=complex), np.eye(dim, dtype=complex),
        rank_of_projection)
    return OperatorSpectralFamily(tuple(lam for lam, _ in steps),
                                  tuple(p for _, p in steps), dim)


# -- spectral order ------------------------------------------------------------

def merged_breakpoints(fams, tol: Tolerances = TOL) -> list[float]:
    """Union of the families' breakpoints with nearly-equal values
    identified; each cluster is represented by its maximum, so evaluating
    there sees every member family past its jump."""
    lams = sorted(set(b for f in fams for b in f.breakpoints))
    return [lams[k - 1] for k in _cluster_ends(lams, tol)]


def spectral_leq(a, b, tol: Tolerances = TOL) -> bool:
    """a <= b in the spectral order: b's spectral projection lies under a's
    at every merged breakpoint."""
    fa = spectral_family_of(a, tol)
    fb = spectral_family_of(b, tol)
    if fa.dim != fb.dim:
        raise InputError("dimension mismatch", witness=[fa.dim, fb.dim])
    return all(projection_leq(fb.value_at(lam), fa.value_at(lam), tol)
               for lam in merged_breakpoints([fa, fb], tol))


def spectral_meet(ops, tol: Tolerances = TOL) -> np.ndarray:
    """Greatest lower bound: -join(-ops), since negation reverses the
    spectral order; a cluster of near-equal breakpoints takes its smallest
    member.  Subtracting from 0.0 keeps zero entries at +0.0."""
    return 0.0 - spectral_join([-as_matrix(x) for x in ops], tol)


def spectral_join(ops, tol: Tolerances = TOL) -> np.ndarray:
    """Least upper bound: pointwise meet of the spectral projections at the
    merged breakpoints, then synthesis.  Step families are right-continuous,
    so the regularized value at each merged breakpoint is the plain
    intersection there."""
    fams = [spectral_family_of(x, tol) for x in ops]
    if not fams:
        raise PreconditionError("need a nonempty operator list")
    _one_dim(f.dim for f in fams)
    lams = merged_breakpoints(fams, tol)
    steps = [projection_meet([f.value_at(lam) for f in fams], tol)
             for lam in lams]
    return family_from_steps(lams, steps, tol).synthesize()


# -- subalgebras and commutants ------------------------------------------------

def _commuting(xs: np.ndarray, y: np.ndarray, tol: Tolerances
               ) -> tuple[np.ndarray, np.ndarray]:
    """Whether each X of the stack xs commutes with y within the sub
    tolerance, with its defect |X y - y X|_F: the one commutation test."""
    defects = np.linalg.norm(xs @ y - y @ xs, axis=(-2, -1))
    return defects <= tol.sub, defects


def _sylvester_stack(mats, dim: int) -> np.ndarray:
    """The stacked Sylvester equations of ``commutant_basis``, folded into
    their R factor whenever they pass dim^2 rows."""
    eye = np.eye(dim, dtype=complex)
    stack = np.zeros((0, dim * dim), dtype=complex)
    for g in mats:
        hs = np.stack([g, g.conj().T])
        blocks = (np.einsum("hij,kl->hikjl", hs, eye)
                  - np.einsum("ij,hlk->hikjl", eye, hs))
        stack = np.vstack([stack, blocks.reshape(2 * dim * dim, dim * dim)])
        if stack.shape[0] > dim * dim:
            stack = np.linalg.qr(stack, mode="r")
    return stack


def commutant_basis(mats, dim: int, tol: Tolerances = TOL) -> np.ndarray:
    """Basis of everything commuting with the given matrices and their
    adjoints, as a (k, dim, dim) stack: the null space of the stacked
    Sylvester equations, via vec(G X - X G) = (G (x) I - I (x) G^T) vec(X).
    Each generator's two blocks are broadcast at once (einsum), and whenever
    the stack passes dim^2 rows it is replaced by its R factor, which has the
    same null space and singular values, so memory stays O(dim^4) for any
    number of generators."""
    mats, dim = _generators(mats, dim)
    return null_space(_sylvester_stack(mats, dim), tol).T.reshape(-1, dim, dim)


@dataclass(frozen=True, eq=False)
class VNSubalgebra:
    """Unital *-closed linear span inside a full matrix algebra.  An
    algebra of joint eigenblocks (``_block_algebra``) also holds its atoms,
    the minimal projections P_i, as a stack; one from the Sylvester path or
    built by hand holds None.  It holds arrays, so it compares and hashes by
    identity."""
    dim: int = 0
    generators: tuple = ()
    basis: tuple = ()            # matrices whose vecs are orthonormal
    commutant: np.ndarray = field(   # (k, d, d), read-only; vecs orthonormal
        default_factory=lambda: np.zeros((0, 0, 0), dtype=complex))
    atoms: np.ndarray | None = None     # (n, d, d), read-only, or None

    @property
    def linear_dim(self) -> int:
        return len(self.basis)

    def contains(self, m, tol: Tolerances = TOL) -> bool:
        """Whether m lies in the algebra, its double commutant: m, scaled
        down to Frobenius norm 1 when larger, commutes with the commutant
        (``_commuting``).  A matrix of another dimension raises."""
        m = _in_algebra_dim(self, as_matrix(m))
        m = m / max(1.0, float(np.linalg.norm(m)))
        return bool(_commuting(np.asarray(self.commutant), m, tol)[0].all())


def _generators(gens, dim: int | None) -> tuple[list[np.ndarray], int]:
    """The generators as matrices, and the dimension they share: ``dim`` when
    given (an integer, numpy's included, but no bool), else the first
    generator's, positive and at most MAX_DIM."""
    gens = [as_matrix(g) for g in gens]
    if dim is None:
        if not gens:
            raise InputError("need generators or an explicit dimension")
        dim = gens[0].shape[0]
    elif isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise InputError("dimension must be an integer", witness=repr(dim))
    if dim > MAX_DIM:
        raise ResourceError(f"dimension {dim} exceeds {MAX_DIM}")
    if dim < 1:
        raise InputError("dimension must be positive", witness=dim)
    for g in gens:
        if g.shape[0] != dim:
            raise InputError("generator dimension mismatch",
                             witness=[int(g.shape[0]), dim])
    return gens, dim


def _abelian(gens, tol: Tolerances) -> bool:
    """Whether the matrices and their adjoints pairwise commute within the
    sub tolerance (``_commuting``), one call per member."""
    both = np.array([h for g in gens for h in (g, g.conj().T)])
    return all(_commuting(both, y, tol)[0].all() for y in both)


def _block_algebra(gens, dim: int, blocks, projs) -> VNSubalgebra:
    """The functions on the joint eigenblocks: atoms P_i and basis
    P_i / sqrt(m_i) for the blocks' isometries b_i of rank m_i, and their
    commutant, the direct sum of the full matrix algebras on ran P_i, as the
    matrix units b_i[:, a] b_i[:, c]* within each block."""
    basis = tuple(p / np.sqrt(b.shape[1]) for b, p in zip(blocks, projs))
    comm = np.concatenate([
        (b.T[:, None, :, None] * b.conj().T[None, :, None, :]).reshape(
            -1, dim, dim) for b in blocks])
    atoms = np.array(projs)
    for x in (comm, atoms):
        x.flags.writeable = False
    return VNSubalgebra(dim, tuple(gens), basis, comm, atoms)


def _sylvester_algebra(gens, dim: int, tol: Tolerances) -> VNSubalgebra:
    """The algebra as its double commutant (von Neumann), from the
    commutant, the null space of the generators' Sylvester stack.  Being
    singly generated (Pearcy 1962), the commutant is generated by two
    random elements, so the algebra is the pair's commutant.  A pair that
    is not generic has a larger commutant, which then holds an element that
    fails to commute with the commutant: one ``_commuting`` call per basis
    element checks, and a breach raises with the largest defect."""
    comm = commutant_basis(gens, dim, tol)
    comm.flags.writeable = False
    w = np.random.default_rng(GENERIC_SEED).standard_normal((2, 2, len(comm)))
    pair = np.tensordot(w[0] + 1j * w[1], comm, axes=1)
    basis = commutant_basis(pair, dim, tol)
    checks = [_commuting(comm, x, tol) for x in basis]
    if not all(ok.all() for ok, _ in checks):
        raise ResourceError(
            "the random pair's commutant leaves the double commutant",
            witness={"defect": max(float(d.max()) for _, d in checks)})
    return VNSubalgebra(dim, tuple(gens), tuple(basis), comm)


def subalgebra(gens, dim: int | None = None, tol: Tolerances = TOL
               ) -> VNSubalgebra:
    """The unital *-algebra generated by the given matrices, with its
    commutant (the generators' own), stored once as a read-only (k, d, d)
    stack.  When the generators and their adjoints pairwise commute
    (``_abelian``) and their joint eigenblocks (``joint_eigenblocks``)
    reduce every generator, the algebra is the functions on those blocks
    (``_block_algebra``), so eigenvalues within the cluster gap share a
    block, as in a context.  A set that is not abelian, or abelian with
    blocks that fail that guard, takes the Sylvester path
    (``_sylvester_algebra``)."""
    gens, dim = _generators(gens, dim)
    if _abelian(gens, tol):
        try:
            found = _eigenblocks(gens, dim, tol)
        except ResourceError:
            pass
        else:
            return _block_algebra(gens, dim, *found)
    return _sylvester_algebra(gens, dim, tol)


def trivial_algebra(dim: int, tol: Tolerances = TOL) -> VNSubalgebra:
    return subalgebra([], dim=dim, tol=tol)


def _eigenblocks(gens, dim: int, tol: Tolerances
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Isometries b_i onto the joint eigenblocks of ``joint_eigenblocks``,
    and the projections b_i b_i*, in its order and under its guard."""
    blocks = [np.eye(dim, dtype=complex)]
    for g in gens:
        for part in ((g + g.conj().T) / 2, (g - g.conj().T) / 2j):
            split = []
            for v in blocks:
                c = v.conj().T @ part @ v
                vecs, _, ends = _clustered_eigen((c + c.conj().T) / 2, tol)
                w = v @ vecs
                split += [w[:, i:k] for i, k in zip([0, *ends], ends)]
            blocks = split
    projs = [b @ b.conj().T for b in blocks]
    for g in gens:
        defect = float(np.linalg.norm(g - sum(p @ g @ p for p in projs)))
        if defect > tol.sub:
            raise ResourceError("joint eigenblocks do not reduce a generator",
                                witness={"defect": defect})
    return blocks, projs


def joint_eigenblocks(gens, dim: int | None = None, tol: Tolerances = TOL
                      ) -> list[np.ndarray]:
    """Minimal projections of the abelian *-algebra that commuting normal
    matrices generate: their joint eigenspaces (Horn & Johnson, *Matrix
    Analysis*, 2.5).  The whole space is split by the clustered eigenvalues
    (``_clustered_eigen``) of each generator's Hermitian part, then skew
    part, compressed to each block, so the blocks come out ordered
    lexicographically by those eigenvalues.  Commutation is the caller's
    check (``_abelian``); blocks that leave a generator off their block
    diagonal by more than the sub tolerance raise."""
    gens, dim = _generators(gens, dim)
    return _eigenblocks(gens, dim, tol)[1]


# -- core, support, and the two restriction maps -------------------------------

def _in_algebra_dim(m: VNSubalgebra, x: np.ndarray) -> np.ndarray:
    if x.shape[0] != m.dim:
        raise InputError("matrix dimension differs from the algebra's",
                         witness=[int(x.shape[0]), m.dim])
    return x


def _cores(m: VNSubalgebra, vecs: np.ndarray, ks, tol: Tolerances
           ) -> np.ndarray:
    """Core of span(vecs[:, :k]) for each k, ``vecs`` unitary, as a stack:
    ``rho_restrict`` on an algebra without atoms, and core and support.
    With the K commutant elements in that basis, h = V* C V (one batched
    product), V_k x lies in the core iff h[:, k:, :k] x = 0: (I - P_k) G V_k
    is V_{>k} (V* G V)[k:, :k] and V_{>k} is an isometry, so these K (d - k)
    rows have the singular values of the (K d, k) system.  One k at a time
    keeps memory at one system.  Each core, once built, is checked by one
    ``_commuting`` call to commute with every element (hence to lie in the
    algebra); a breach is an internal numeric failure, witnessed by the
    first breaching element's defect."""
    comm = np.asarray(m.commutant)
    h = vecs.conj().T @ comm @ vecs
    cores = np.empty((len(ks), m.dim, m.dim), dtype=complex)
    for i, k in enumerate(ks):
        basis = vecs[:, :k]
        if k:
            basis = basis @ null_space(h[:, k:, :k].reshape(-1, k), tol)
        cores[i] = basis @ basis.conj().T
        ok, defects = _commuting(comm, cores[i], tol)
        if not ok.all():
            raise ResourceError("core failed to commute with the commutant",
                                witness={"defect": float(defects[ok.argmin()])})
    return cores


def core_projection(m: VNSubalgebra, q, tol: Tolerances = TOL) -> np.ndarray:
    """Largest subspace of ran q invariant under the commutant, as a
    projection: the x in ran q with g x in ran q for all g in the commutant,
    already invariant because the commutant is an algebra.  One SVD of q
    gives a unitary whose leading columns, as many as ``_rank`` keeps, span
    ran q; ``_cores`` keeps one null space in that basis."""
    q = _in_algebra_dim(m, check_projection(q, tol))
    u, s, _ = np.linalg.svd(q)
    return _cores(m, u, [int(_rank(s, tol))], tol)[0]


def support_projection(m: VNSubalgebra, q, tol: Tolerances = TOL) -> np.ndarray:
    """Smallest projection of the algebra above q: the complement of the
    core of the complement."""
    eye = np.eye(len(as_matrix(q)), dtype=complex)
    return eye - core_projection(m, eye - q, tol)


def rho_restrict(m: VNSubalgebra, a, tol: Tolerances = TOL) -> np.ndarray:
    """Smallest spectral-order upper bound of a inside the subalgebra,
    synthesized from the cores of a's spectral projections.  The projection
    at a breakpoint spans the eigenvectors up to the end of its cluster, so
    the eigenbasis serves every core.  On an algebra with atoms P_i, the
    commutant, the direct sum of the full matrix algebras on ran P_i,
    leaves invariant exactly the sums of whole atoms, so the core of E_k is
    the sum of the P_i <= E_k and the synthesis is sum v_i P_i, v_i the
    first breakpoint whose step holds P_i (``_first_holding``, the rule of
    a context's section).  Otherwise the cores come from ``_cores``."""
    vecs, breakpoints, ends = _clustered_eigen(a, tol)
    _in_algebra_dim(m, vecs)
    if m.atoms is None:
        return family_from_steps(breakpoints, _cores(m, vecs, ends, tol),
                                 tol).synthesize()
    vals = _first_holding(vecs, breakpoints, ends, m.atoms, tol)
    # adding to 0.0 keeps zero entries at +0.0 when every value is negative
    return 0.0 + np.tensordot(vals, m.atoms, axes=1)


def sigma_restrict(m: VNSubalgebra, a, tol: Tolerances = TOL) -> np.ndarray:
    """Largest spectral-order lower bound inside the subalgebra: -rho(-a),
    since negation reverses the spectral order and keeps the subalgebra.
    Subtracting from 0.0 keeps zero entries at +0.0."""
    return 0.0 - rho_restrict(m, -as_matrix(a), tol)


def atomic_value(a, x, tol: Tolerances = TOL) -> float:
    """The first breakpoint whose spectral projection contains the given
    vector (normalized here): ``_first_holding`` on the vector's line, the
    rule of a context's section."""
    x = _complex_entries(x)
    if x is None:
        raise InputError("vector entries must be numbers in equal rows")
    x = x.reshape(-1)
    if not np.isfinite(x).all():
        raise InputError("vector entries must be finite",
                         witness=int(np.flatnonzero(~np.isfinite(x))[0]))
    nrm = float(np.linalg.norm(x))
    if nrm <= tol.pivot:
        raise InputError("need a nonzero vector")
    x = x / nrm
    vecs, breakpoints, ends = _clustered_eigen(a, tol)
    if x.shape[0] != len(vecs):
        raise InputError("vector dimension differs from the operator's",
                         witness=[int(x.shape[0]), len(vecs)])
    return float(_first_holding(vecs, breakpoints, ends, x[None, :, None],
                                tol)[0])


# -- samplers -----------------------------------------------------------------

def random_hermitian(rng, dim: int) -> np.ndarray:
    re = np.array([[rng.gauss(0.0, 1.0) for _ in range(dim)]
                   for _ in range(dim)])
    im = np.array([[rng.gauss(0.0, 1.0) for _ in range(dim)]
                   for _ in range(dim)])
    m = re + 1j * im
    return (m + m.conj().T) / 2


def random_projection(rng, dim: int, rank: int | None = None,
                      tol: Tolerances = TOL) -> np.ndarray:
    if rank is None:
        rank = rng.randrange(0, dim + 1)
    if rank == 0:
        return np.zeros((dim, dim), dtype=complex)
    cols = np.array([[rng.gauss(0.0, 1.0) + 1j * rng.gauss(0.0, 1.0)
                      for _ in range(rank)] for _ in range(dim)])
    return projection_onto(cols, tol)
