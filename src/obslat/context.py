"""Contexts (abelian matrix algebras with their Boolean projection
lattices), diagrams of contexts closed under intersection, partial sections
over a diagram, and the gluing report with an operator-extendability verdict.

A given context's atoms are its generators' joint eigenblocks, numbered
lexicographically by eigenvalue (``vn.joint_eigenblocks``), so element
names such as ``{1,2}`` depend on the generators alone.  A section assigns
one real value to every nonzero projection of every context; the diagram's
pool maps every (context, element) to its projection.  Abelian contexts
meet in the projections they share, so the closure under intersection
reads the pool and builds intersection contexts with no numerics.  An
operator's section, the cross-context check and the gluing scan work with
one value per pool projection.  Whether one selfadjoint operator induces a
global section is decided first, exactly and in every dimension, by the
minimal candidate family (see ``_extendability``): the verdict is "yes"
with a verified operator or "no" with a projection that lies under the join
of the lower-valued ones.  An operator's section meets both join laws, so
the join-law scans run only on "no" (or when ``2 * tol.proj > tol.sub``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from .corpus import boolean_algebra
from .errors import InputError, PreconditionError, ResourceError
from .lattice import FiniteOrthoLattice, _cliques, _row_masks, bits, mask_from
from .observables import check_completely_increasing, observable
from .vn import (TOL, Tolerances, _abelian, _commuting, _generators,
                 _range_values, as_matrix, family_from_steps,
                 joint_eigenblocks, projection_join, projection_joins,
                 projection_leq)

MAX_MINIMAL = 6
MAX_CONTEXTS = 24
GLUE_WORK_CAP = 200_000
# Most families per batched join and pool match.  A chunk of families of
# size k stacks _CHUNK * k * d^2 complex entries, so this bounds the scan's
# memory.
_CHUNK = 256


@dataclass(frozen=True)
class Context:
    """An abelian algebra of d x d matrices, held as its minimal projections,
    with its projection lattice realized as their powerset (bit i of an
    element's mask selects minimal[i])."""
    name: str
    dim: int = field(compare=False)
    lattice: FiniteOrthoLattice = field(compare=False)
    minimal: tuple = field(compare=False, default=())

    def projection_of(self, element: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i in bits(element):
            out = out + self.minimal[i]
        return out

    def element_of(self, p, tol: Tolerances = TOL) -> int:
        """The element whose projection lies within ``tol.proj`` of p, by
        the diagram's pool rule."""
        ps = np.array([self.projection_of(e) for e in range(self.lattice.n)])
        e = int(_first_match(ps, _in_dim(p, self.dim)[None], tol)[0])
        if e < 0:
            raise PreconditionError(
                "projection does not belong to the context",
                witness={"context": self.name})
        return e

    def nonzero_elements(self) -> list[int]:
        return [e for e in range(self.lattice.n) if e != self.lattice.zero]


def context_from_generators(name: str, gens, dim: int | None = None,
            tol: Tolerances = TOL) -> Context:
    """The context that commuting normal matrices generate.  Its atoms are
    their joint eigenblocks (``vn.joint_eigenblocks``), numbered
    lexicographically by the eigenvalues of the generators' Hermitian and
    skew parts in turn."""
    gens, dim = _generators(gens, dim)
    if not _abelian(gens, tol):
        raise InputError("context algebras must be abelian",
                         witness={"context": name})
    mins = joint_eigenblocks(gens, dim, tol)
    if len(mins) > MAX_MINIMAL:
        raise ResourceError(
            "too many minimal projections for the lattice bridge",
            witness={"context": name, "count": len(mins)})
    return Context(name, dim, boolean_algebra(len(mins)), tuple(mins))


def _shared_context(name: str, parent: Context, shared: frozenset,
                    element_pool: dict) -> tuple[Context, list[int]]:
    """The context of the pool projections ``shared`` by ``parent`` and other
    contexts, with the pool index of each of its nonzero elements.  Abelian
    algebras meet in the span of the projections they share, a Boolean
    subalgebra of each.  Its atoms are the minimal shared elements, as masks
    over the parent's atoms, numbered by their lowest atom."""
    masks = [e for e in parent.nonzero_elements()
             if element_pool[(parent.name, e)] in shared]
    atoms = sorted((m for m in masks
                    if not any(x != m and x & m == x for x in masks)),
                   key=lambda m: m & -m)
    c = Context(name, parent.dim, boolean_algebra(len(atoms)),
                tuple(parent.projection_of(m) for m in atoms))
    return c, [element_pool[(parent.name, sum(atoms[i] for i in bits(e)))]
               for e in c.nonzero_elements()]


@dataclass(frozen=True)
class ContextDiagram:
    """Contexts closed under pairwise intersection (the scalars always end
    up present), with a deduplicated pool of every projection that occurs in
    any member lattice."""
    dim: int
    contexts: tuple = ()
    pool: np.ndarray = field(      # (P, d, d): distinct projections, index order
        default_factory=lambda: np.zeros((0, 0, 0), dtype=complex),
        compare=False)
    pool_labels: tuple = ()
    element_pool: dict = field(default_factory=dict, compare=False)
    tol: Tolerances = field(default=TOL, compare=False)

    def context_named(self, name: str) -> Context:
        for c in self.contexts:
            if c.name == name:
                return c
        raise InputError("no such context", witness={"context": name})

    def pool_index_of(self, p) -> int | None:
        """Index of the first pool projection within ``tol.proj`` of p."""
        j = int(_first_match(self.pool, _in_dim(p, self.dim)[None],
                             self.tol)[0])
        return None if j < 0 else j

    @cached_property
    def _relations(self) -> tuple[np.ndarray, np.ndarray]:
        """The gluing scans' relations on pool entries, filled on first use:
        ``cross[i, k]`` when no context holds both, ``comm[i, k]`` when
        they commute within ``tol.sub`` (the scans read rows i < k)."""
        ctx = {c.name: k for k, c in enumerate(self.contexts)}
        inc = np.zeros((len(self.contexts), len(self.pool)), dtype=np.float32)
        for (name, _), i in self.element_pool.items():
            inc[ctx[name], i] = 1.0
        comm = [_commuting(self.pool, p, self.tol)[0] for p in self.pool]
        return inc.T @ inc == 0, np.array(comm)


def _in_dim(p, dim: int) -> np.ndarray:
    p = as_matrix(p)
    if p.shape[0] != dim:
        raise InputError("projection dimension differs from the context's",
                         witness=[int(p.shape[0]), dim])
    return p


def _first_match(pool: np.ndarray, ps: np.ndarray, tol: Tolerances
                 ) -> np.ndarray:
    """For each matrix of the stack ps, the index of the first pool entry
    within ``tol.proj`` of it in Frobenius norm, or -1.  The Gram form of
    the squared distance, |p|^2 + |q|^2 - 2 Re<p, q>, only narrows the
    candidates: its margin is about 10^6 times its rounding error.  The
    norm of the difference decides."""
    out = np.full(len(ps), -1)
    if not len(pool):
        return out
    a, b = ps.reshape(len(ps), -1), pool.reshape(len(pool), -1)
    na = (a.real ** 2 + a.imag ** 2).sum(axis=1)[:, None]
    nb = (b.real ** 2 + b.imag ** 2).sum(axis=1)
    gram = na + nb - 2 * (a.conj() @ b.T).real
    ii, jj = np.nonzero(gram <= tol.proj ** 2 + 1e-8 * (na + nb))
    hit = np.linalg.norm(ps[ii] - pool[jj], axis=(1, 2)) <= tol.proj
    ii, jj = ii[hit], jj[hit]
    # candidates come row by row, pool order within a row: keep the first
    rows, first = np.unique(ii, return_index=True)
    out[rows] = jj[first]
    return out


def diagram(named_generators: dict[str, list], dim: int | None = None,
            tol: Tolerances = TOL) -> ContextDiagram:
    """Build contexts from generator lists, then close under pairwise
    intersection; a scalars context is appended when no context is
    one-dimensional (every subalgebra holds the identity).  Every context,
    given or generated, takes a fresh name and counts toward MAX_CONTEXTS.

    Each given context is matched into the pool as it is added, and the
    closure reads the pool indices each context holds.  Two contexts meet in
    the span of the pool projections they share: a pair whose shared set
    some context already holds adds nothing, and each new intersection, like
    the scalars (the identity alone), is read off the pool with no
    numerics (``_shared_context``)."""
    if not named_generators:
        raise InputError("need at least one context")
    ctxs: list[Context] = []
    held: list[frozenset] = []
    pool: list[np.ndarray] = []
    labels: list[str] = []
    element_pool: dict[tuple[str, int], int] = {}

    def add(c: Context, found: list[int] | None = None) -> None:
        if any(x.name == c.name for x in ctxs):
            raise InputError("duplicate context name",
                             witness={"context": c.name})
        if len(ctxs) == MAX_CONTEXTS:
            raise ResourceError("diagram has too many contexts",
                                witness={"cap": MAX_CONTEXTS})
        if ctxs and c.dim != ctxs[0].dim:
            raise InputError("ambient dimension mismatch",
                             witness={"context": c.name})
        elems = c.nonzero_elements()
        if found is None:
            # Elements of one context differ by a nonzero sum of minimal
            # projections, so none lies within tol.proj of another: matching
            # a whole context against the pool built before it finds what
            # matching element by element would.
            ps = np.array([c.projection_of(e) for e in elems])
            found = _first_match(np.array(pool), ps, tol).tolist()
            for k, (e, p) in enumerate(zip(elems, ps)):
                if found[k] < 0:
                    pool.append(p)
                    labels.append(f"{c.name}:{c.lattice.names[e]}")
                    found[k] = len(pool) - 1
        element_pool.update(((c.name, e), i) for e, i in zip(elems, found))
        ctxs.append(c)
        held.append(frozenset(found))

    for name, gens in named_generators.items():
        add(context_from_generators(name, gens, dim=dim, tol=tol))
    changed = True
    while changed:
        changed = False
        for (a, ha), (b, hb) in combinations(list(zip(ctxs, held)), 2):
            if ha & hb in held:
                continue
            # name independent of the order the contexts were given in
            a, b = sorted((a, b), key=lambda c: c.name)
            add(*_shared_context(f"{a.name}&{b.name}", a, ha & hb,
                                 element_pool))
            changed = True
    if not any(len(c.minimal) == 1 for c in ctxs):
        first = ctxs[0]
        one = element_pool[(first.name, first.lattice.one)]
        add(*_shared_context("scalars", first, frozenset({one}),
                             element_pool))
    stack = np.array(pool)
    stack.flags.writeable = False
    return ContextDiagram(ctxs[0].dim, tuple(ctxs), stack, tuple(labels),
                          element_pool, tol)


# -- sections ---------------------------------------------------------------------

def section_from_operator(dia: ContextDiagram, a) -> dict[str, dict[int, float]]:
    """Restrict a selfadjoint operator to every context.  The value at a
    projection, the first spectral breakpoint whose step contains its range,
    depends on the projection alone: the whole pool is decided at once in
    the operator's eigenbasis (``vn._range_values``), and each value is
    copied to every (context, element) over it in ``dia.element_pool``
    order."""
    vals = _range_values(a, dia.pool, dia.tol).tolist()
    out: dict[str, dict[int, float]] = {c.name: {} for c in dia.contexts}
    for (name, e), i in dia.element_pool.items():
        out[name][e] = vals[i]
    return out


def _validate_section(dia: ContextDiagram, section) -> None:
    names = {c.name for c in dia.contexts}
    if set(section) != names:
        raise InputError("section must cover exactly the diagram's contexts",
                         witness={"missing": sorted(names - set(section)),
                                  "extra": sorted(set(section) - names)})
    for c in dia.contexts:
        want = set(c.nonzero_elements())
        got = set(section[c.name])
        if got != want:
            raise InputError(
                "section must value every nonzero element of the context",
                witness={"context": c.name})
        for v in section[c.name].values():
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not np.isfinite(v)):
                raise InputError("section values must be finite reals",
                                 witness={"context": c.name})


def is_global_section(dia: ContextDiagram, section
                      ) -> tuple[bool, dict | None]:
    """Inside each context the values must increase jointly (value at a join
    is the largest member value); across contexts the same projection must
    get the same value."""
    _validate_section(dia, section)
    for c in dia.contexts:
        ok, w = check_completely_increasing(
            observable(c.lattice, section[c.name], checked=False))
        if not ok:
            return False, {"kind": "not-increasing-in-context",
                           "context": c.name, **w}
    first: dict[int, tuple[str, float]] = {}
    for (name, e), i in dia.element_pool.items():
        v = section[name][e]
        prev = first.setdefault(i, (name, v))
        if prev[1] != v:
            return False, {"kind": "inconsistent-across-contexts",
                           "projection": dia.pool_labels[i],
                           "contexts": [prev[0], name], "values": [prev[1], v]}
    return True, None


def pool_values(dia: ContextDiagram, section) -> list[float]:
    """One value per pool projection; needs a globally consistent section."""
    ok, w = is_global_section(dia, section)
    if not ok:
        raise PreconditionError("section is not a global section", witness=w)
    out = [0.0] * len(dia.pool)
    for (name, e), i in dia.element_pool.items():
        out[i] = float(section[name][e])
    return out


@dataclass(frozen=True, eq=False)
class GlueReport:
    """The gluing verdicts; it may hold an operator, so it compares and
    hashes by identity."""
    pool_labels: tuple = ()
    values: tuple = ()
    commuting_ok: bool = True
    commuting_witness: dict | None = None
    increasing_ok: bool = True
    increasing_witness: dict | None = None
    extendable: str = "no"              # "yes" | "no"
    certificate: dict = field(default_factory=dict)
    operator: object = None             # ndarray when extendable == "yes"

    def summary(self) -> dict:
        return {"commuting_ok": self.commuting_ok,
                "commuting_witness": self.commuting_witness,
                "increasing_ok": self.increasing_ok,
                "increasing_witness": self.increasing_witness,
                "extendable": self.extendable,
                "certificate": self.certificate}


def glue_section(dia: ContextDiagram, section) -> GlueReport:
    """Decide whether a single selfadjoint operator induces the whole
    section, then check the two join laws over the projection pool.

    An operator's section meets both laws on every family: P v Q <= E_lam
    exactly when P <= E_lam and Q <= E_lam.  So on "yes" the laws hold and
    are not scanned, provided a join matched within ``tol.proj`` passes the
    range test at ``tol.sub`` (``2 * tol.proj <= tol.sub``, as for ``TOL``):
    a failing family whose join matches entry j is then caught at level v_j
    when v_j is below the sup of its members' values, and at that sup when
    above.  The verdict and the scans both compare values exactly.

    Otherwise the increasing law covers every pair and the commuting law
    every pairwise commuting family ``_first_failure`` grows, none with two
    members in one context (there the section check decides the law); a
    join that escapes the pool is skipped.  The commuting scan raises
    ``ResourceError`` past ``GLUE_WORK_CAP`` families, singletons included,
    unless a family drawn before the cap already fails."""
    values = pool_values(dia, section)
    extendable, certificate, operator = _extendability(dia, values)
    commuting_witness = increasing_witness = None
    if extendable == "no" or 2 * dia.tol.proj > dia.tol.sub:
        cross, comm = dia._relations
        commuting_witness = _first_failure(dia, values, cross & comm, True)
        increasing_witness = _first_failure(dia, values, cross, False)
    return GlueReport(tuple(dia.pool_labels), tuple(values),
                      commuting_witness is None, commuting_witness,
                      increasing_witness is None, increasing_witness,
                      extendable, certificate, operator)


def _first_failure(dia, values, adj, grow) -> dict | None:
    """Witness for the first family, in (size, index) order, of entries
    pairwise related by ``adj`` (read at i < k) whose join is not valued at
    the sup of its members' values.  Without ``grow`` the families are the
    pairs.  With it a family grows only while its join escapes the pool: a
    join q in the pool lies in the algebra of its family and commutes with
    the other entries, so a failure above forces one of the family or of q
    with the others, both earlier."""
    vals = np.array(values)
    rows, entries = _row_masks(adj), (1 << len(vals)) - 1
    level = [1 << i for i in range(len(vals))]
    drawn = len(vals)
    while level:
        stream = ((*members, c) for _, members, later
                  in _cliques(rows, entries, level) for c in later)
        level = []
        while chunk := list(islice(stream, _CHUNK)):
            fams = np.array(chunk)
            j = _first_match(dia.pool, projection_joins(dia.pool[fams], dia.tol),
                             dia.tol)
            fail = (j >= 0) & (vals[j] != vals[fams].max(axis=1))
            if grow and drawn + len(chunk) > GLUE_WORK_CAP:
                fail[max(GLUE_WORK_CAP - drawn, 0):] = False
                if not fail.any():
                    raise ResourceError("gluing scan over its work cap",
                                        witness={"cap": GLUE_WORK_CAP})
            if fail.any():
                k = fail.argmax()
                fam, j = chunk[k], int(j[k])
                return {"members": [dia.pool_labels[i] for i in fam],
                        "join": dia.pool_labels[j], "value": values[j],
                        "sup_of_values": max(values[i] for i in fam)}
            drawn += len(chunk)
            level += [mask_from(fam)
                      for fam, m in zip(chunk, j.tolist()) if grow and m < 0]
    return None


def _extendability(dia: ContextDiagram, values: list[float]
                   ) -> tuple[str, dict, object]:
    """Decide exactly whether one selfadjoint operator induces the pool
    values.

    Let M_lam be the join of the pool projections valued <= lam.  A spectral
    family F that induces the section has F_lam >= P for each of them, so
    F_lam >= M_lam and v_F(P) <= v_M(P) <= v(P): F induces the section only
    if M does.  M does unless some projection valued above lam lies under
    M_lam; the first one, scanning lam upwards and then the pool in index
    order, is the certificate for "no".  Otherwise M, which reaches the
    identity at the top value, is synthesized, and re-reading its values on
    the pool (``vn._range_values``) guards the numerics: the first pool
    projection off by more than ``tol.cluster`` raises."""
    tol = dia.tol
    vals = np.array(values)
    levels = sorted(set(values))
    joins: list[np.ndarray] = []
    for lam in levels[:-1]:
        below = np.flatnonzero(vals <= lam).tolist()
        m = projection_join(dia.pool[below], tol)
        under = (vals > lam) & projection_leq(dia.pool, m, tol)
        if under.any():
            i = int(under.argmax())
            return "no", {"reason": "projection-under-level-join",
                          "projection": dia.pool_labels[i], "value": values[i],
                          "level": lam,
                          "join_of": [dia.pool_labels[k] for k in below]
                          }, None
        joins.append(m)
    joins.append(np.eye(dia.dim, dtype=complex))
    candidate = family_from_steps(levels, joins, tol).synthesize()
    induced = _range_values(candidate, dia.pool, tol)
    off = np.abs(induced - vals) > tol.cluster
    if off.any():
        i = int(off.argmax())
        raise ResourceError(
            "the synthesized operator does not reproduce the section",
            witness={"projection": dia.pool_labels[i], "value": values[i],
                     "induced": float(induced[i])})
    return "yes", {"reason": "verified-candidate"}, candidate
