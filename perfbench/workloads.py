"""The four workloads: seeded inputs, set-up, one timed operation, oracle.

Every workload is one closed-loop caller: one operation at a time, each of
the same shape, tens to hundreds of milliseconds long.  Inputs come from the
seed alone (``numpy.random.default_rng([seed, salt, index])``), so an
operation's inputs do not depend on how many operations ran before it.  The
package sees only the generated inputs; sampling is the benchmark's own.

Each oracle runs outside the timed region and checks results by a route
other than the code that produced them: the join law on ``join_table``
instead of the dual-ideal pair scans, numpy eigen-decompositions instead of
the package's Jacobi solver and SVD fixpoints, and so on.
"""
from __future__ import annotations

import numpy as np

# Package functions are called through their modules, so that the tracer's
# replacement of module attributes also sees the benchmark's own calls.
from obslat import (classical, context, corpus, jsonio, observables,
                    presheaf, spectral, stone, vn)

ATOL = 1e-9


def rng_for(seed: int, salt: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, index + 1])


def big_lattices():
    """The three 64-element lattices: Boolean, orthomodular but not
    distributive, distributive without an orthocomplement."""
    return [corpus.boolean_algebra(6),
            corpus.product(corpus.mo(3), corpus.boolean_algebra(3)),
            corpus.product(corpus.chain(4), corpus.boolean_algebra(4))]


def _random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_hermitian(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2


def _random_projection(rng, d: int, rank: int) -> np.ndarray:
    q = _random_unitary(rng, d)[:, :rank]
    return q @ q.conj().T


def _psd(m: np.ndarray) -> bool:
    return bool(np.linalg.eigvalsh((m + m.conj().T) / 2)[0] >= -ATOL)


# -- stone-checks -----------------------------------------------------------------

class StoneChecks:
    """Table a sampled family, reconstruct it, and decide both axioms on a
    perturbed copy of the table, on one 64-element lattice per operation."""
    name = "stone-checks"
    salt = 1
    reference = "interp"
    alt_reference = "numpy"
    setup_reference = "interp"
    grid = [round(-2.0 + 0.25 * k, 2) for k in range(21)]

    def setup_inputs(self, seed: int):
        return None

    def setup(self, inputs):
        return {"lattices": big_lattices()}

    def check_setup(self, state) -> bool:
        return [lat.n for lat in state["lattices"]] == [64, 64, 64]

    def make_op(self, state, seed: int, index: int):
        rng = rng_for(seed, self.salt, index)
        k = index % 3
        lat = state["lattices"][k]
        leq = lat.leq
        chain_ = [lat.one]
        while len(chain_) < 4 and rng.random() < 0.65:
            below = [e for e in range(lat.n) if e not in (lat.zero, chain_[-1])
                     and leq[e, chain_[-1]]]
            if not below:
                break
            chain_.append(below[rng.integers(len(below))])
        chain_.reverse()
        lams = sorted(float(x) for x in rng.choice(self.grid, size=len(chain_),
                                                   replace=False))
        pairs = tuple(zip(lams, (int(e) for e in chain_)))
        nonzero = [e for e in range(lat.n) if e != lat.zero]
        elem = nonzero[rng.integers(len(nonzero))]
        current = next(lam for lam, e in zip(lams, chain_) if leq[elem, e])
        choices = [v for v in lams + [lams[0] - 0.25, lams[-1] + 0.25]
                   if v != current]
        value = float(choices[rng.integers(len(choices))])
        return (k, pairs, elem, value)

    def run(self, state, op):
        k, pairs, elem, value = op
        lat = state["lattices"][k]
        fam = spectral.spectral_family(lat, pairs)
        table = observables.observable_table(fam)
        rebuilt = observables.reconstruct(table)
        vals = {a: table.values[a] for a in table.domain()}
        vals[elem] = value
        bent = observables.observable(lat, vals, checked=False)
        return {"table": table, "rebuilt": rebuilt, "bent": bent,
                "intersection": observables.check_intersection_condition(bent),
                "usc": observables.check_upper_semicontinuous(bent)}

    def check(self, state, op, res) -> bool:
        k, pairs, elem, value = op
        lat = state["lattices"][k]
        nz = np.array([a for a in range(lat.n) if a != lat.zero])
        # r(a) = first breakpoint whose element lies above a
        above = np.array([[lat.leq[a, e] for _, e in pairs] for a in nz])
        lams = np.array([lam for lam, _ in pairs])
        expect = lams[np.argmax(above, axis=1)]
        got = np.array([res["table"].values[a] for a in nz], dtype=float)
        if not np.array_equal(expect, got):
            return False
        if tuple(res["rebuilt"].breakpoints) != tuple(pairs):
            return False
        r = np.zeros(lat.n)
        r[nz] = expect
        r[elem] = value
        joins = lat.join_table[np.ix_(nz, nz)]
        law = bool(np.array_equal(r[joins], np.maximum.outer(r[nz], r[nz])))
        bent = np.array([res["bent"].values[a] for a in nz], dtype=float)
        if not np.array_equal(bent, r[nz]):
            return False
        (ok_i, wit_i), (ok_u, wit_u) = res["intersection"], res["usc"]
        if ok_i != law or not (ok_i or wit_i):
            return False
        if law and not ok_u:
            return False
        return ok_u or bool(wit_u)


# -- lattice-build ----------------------------------------------------------------

class LatticeBuild:
    """Load a 64-element lattice from its JSON form, enumerate its spectrum,
    build and scan the mo3 spectral presheaf, and round-trip a function on
    the digital line through its open-set lattice."""
    name = "lattice-build"
    salt = 2
    reference = "interp"
    alt_reference = "numpy"
    setup_reference = "interp"
    grid = [0.0, 0.5, 1.0]

    def setup_inputs(self, seed: int):
        return None

    def setup(self, inputs):
        lats = big_lattices()
        return {"lattices": lats, "forms": [lat.to_dict() for lat in lats],
                "mo3": corpus.mo(3), "line": classical.digital_line(3)}

    def check_setup(self, state) -> bool:
        return (len(state["line"].points) == 7
                and [lat.n for lat in state["lattices"]] == [64, 64, 64])

    def make_op(self, state, seed: int, index: int):
        rng = rng_for(seed, self.salt, index)
        cells = [float(x) for x in rng.integers(0, 4, size=4)]
        lift = [float(x) for x in rng.integers(0, 2, size=3)]
        values = {}
        for i in range(4):
            values[f"u{i}"] = cells[i]
        for i in range(1, 4):
            # a vertex never sits below its cells, so the round trip is exact
            values[f"v{i}"] = max(cells[i - 1], cells[i]) + lift[i - 1]
        return (index % 3, tuple(sorted(values.items())))

    def run(self, state, op):
        k, values = op
        lat = jsonio.load_lattice(state["forms"][k])
        res = {"lattice": lat, "ideals": stone.enumerate_dual_ideals(lat),
               "quasipoints": stone.enumerate_quasipoints(lat),
               "orthomodular": (lat.is_orthomodular() if lat.ortho is not None
                                else None)}
        ps = presheaf.spectral_presheaf(state["mo3"], self.grid)
        res["presheaf"] = presheaf.check_presheaf(ps)
        res["sheaf"] = presheaf.check_sheaf_condition(ps)
        fam = classical.sigma_from_function(state["line"], dict(values))
        res["family"], _, res["opens"] = classical.lattice_family_of(fam)
        res["continuity"] = classical.is_continuous_family(fam)
        return res

    def check(self, state, op, res) -> bool:
        k, values = op
        ref = state["lattices"][k]
        lat = res["lattice"]
        if (lat.names != ref.names or not np.array_equal(lat.leq, ref.leq)
                or lat.ortho != ref.ortho):
            return False
        leq = ref.leq
        up = [sum(1 << int(b) for b in np.flatnonzero(leq[a]))
              for a in range(ref.n)]
        nonzero = [a for a in range(ref.n) if a != ref.zero]
        if sorted(j.mask for j in res["ideals"]) != sorted(up[a] for a in nonzero):
            return False
        atoms = [a for a in nonzero if leq[:, a].sum() == 2]
        if sorted(q.mask for q in res["quasipoints"]) != sorted(up[a] for a in atoms):
            return False
        # b6 and mo3 x b3 are orthomodular by construction
        if k < 2 and res["orthomodular"] != (True, None):
            return False
        if res["presheaf"] != (True, None):
            return False
        sheaf = res["sheaf"]
        if sheaf["ok"] or not sheaf["existence"]:
            return False
        points = state["line"].points
        want = dict(values)
        fam, opens = res["family"], res["opens"]
        for x, p in enumerate(points):
            hits = [lam for lam, e in fam.breakpoints if opens[e] >> x & 1]
            if not hits or hits[0] != want[p]:
                return False
        # the digital line is connected: only constant functions are continuous
        ok, witness, _ = res["continuity"]
        constant = len(set(want.values())) == 1
        return ok == constant and (ok or bool(witness))


# -- matrix-restrict ----------------------------------------------------------------

class MatrixRestrict:
    """For d = 4..7, build the algebra of one Hermitian generator with a
    doubly repeated eigenvalue (non-maximal abelian), restrict a seeded
    operator both ways and take the core of a seeded projection; then the
    scalar case in d = 5 and the spectral family of a d = 16 operator."""
    name = "matrix-restrict"
    salt = 3
    reference = "lapack"
    alt_reference = "interp"
    setup_reference = "lapack"
    dims = (4, 5, 6, 7)

    def setup_inputs(self, seed: int):
        return None

    def setup(self, inputs):
        return {"scalars5": vn.trivial_algebra(5)}

    def check_setup(self, state) -> bool:
        return state["scalars5"].linear_dim == 1

    def make_op(self, state, seed: int, index: int):
        rng = rng_for(seed, self.salt, index)
        per_dim = []
        for d in self.dims:
            u = _random_unitary(rng, d)
            pattern = np.array([0.0] + list(range(d - 1)))
            per_dim.append((u, pattern, _random_hermitian(rng, d),
                            _random_projection(rng, d, d // 2)))
        return (tuple(per_dim), _random_hermitian(rng, 5),
                _random_hermitian(rng, 16))

    def run(self, state, op):
        per_dim, a5, a16 = op
        out = []
        for u, pattern, a, q in per_dim:
            alg = vn.subalgebra([(u * pattern) @ u.conj().T])
            out.append((vn.rho_restrict(alg, a), vn.sigma_restrict(alg, a),
                        vn.core_projection(alg, q)))
        scalars = state["scalars5"]
        fam = vn.spectral_family_of(a16)
        return {"restricted": out,
                "scalar": (vn.rho_restrict(scalars, a5),
                           vn.sigma_restrict(scalars, a5)),
                "synthesis": fam.synthesize()}

    def check(self, state, op, res) -> bool:
        per_dim, a5, a16 = op
        for (u, pattern, a, q), (rho, sigma, core) in zip(per_dim,
                                                          res["restricted"]):
            if not (_psd(rho - a) and _psd(a - sigma)):
                return False
            if not all(_in_algebra(m, u, pattern) for m in (rho, sigma, core)):
                return False
            if (np.linalg.norm(core @ core - core) > 1e-8
                    or np.linalg.norm(q @ core - core) > 1e-8):
                return False
        lo, hi = np.linalg.eigvalsh(a5)[[0, -1]]
        rho5, sigma5 = res["scalar"]
        eye = np.eye(5)
        if (np.linalg.norm(rho5 - hi * eye) > 1e-8
                or np.linalg.norm(sigma5 - lo * eye) > 1e-8):
            return False
        return bool(np.linalg.norm(res["synthesis"] - a16) < ATOL)


def _in_algebra(m: np.ndarray, u: np.ndarray, pattern: np.ndarray) -> bool:
    """m is a function of u diag(pattern) u*: diagonal in u's basis and
    constant on each eigenvalue's block.  Such an m commutes with the whole
    commutant, and every operator that does is of this form."""
    b = u.conj().T @ m @ u
    diag = np.diag(b)
    if np.linalg.norm(b - np.diag(diag)) > 1e-7:
        return False
    for lam in set(pattern.tolist()):
        block = diag[pattern == lam]
        if np.ptp(block.real) > 1e-7 or np.abs(block.imag).max() > 1e-7:
            return False
    return True


# -- context-glue -------------------------------------------------------------------

class ContextGlue:
    """Section of a seeded operator on one of four two-context diagrams in
    dimension 4 (pool 29, so the pairs+triples gluing scan), checked for
    consistency and glued."""
    name = "context-glue"
    salt = 4
    reference = "numpy"
    alt_reference = "interp"
    setup_reference = "lapack"
    dim = 4
    diagrams = 4

    def setup_inputs(self, seed: int):
        rng = rng_for(seed, self.salt, -1)
        return [{name: _random_unitary(rng, self.dim) for name in ("A", "B")}
                for _ in range(self.diagrams)]

    def setup(self, inputs):
        spectrum = np.arange(1.0, self.dim + 1)
        dias = [context.diagram({name: [(u * spectrum) @ u.conj().T]
                                 for name, u in bases.items()})
                for bases in inputs]
        return {"diagrams": dias, "bases": inputs}

    def check_setup(self, state) -> bool:
        return all(len(d.pool) == 29 for d in state["diagrams"])

    def make_op(self, state, seed: int, index: int):
        rng = rng_for(seed, self.salt, index)
        k = index % self.diagrams
        ctx = "AB"[(index // self.diagrams) % 2]
        u = state["bases"][k][ctx]
        levels = rng.integers(-3, 4, size=self.dim).astype(float)
        return (k, ctx, levels, (u * levels) @ u.conj().T)

    def run(self, state, op):
        k, _, _, a = op
        dia = state["diagrams"][k]
        section = context.section_from_operator(dia, a)
        return {"section": section,
                "global": context.is_global_section(dia, section),
                "glue": context.glue_section(dia, section)}

    def check(self, state, op, res) -> bool:
        k, _, _, a = op
        dia = state["diagrams"][k]
        rep = res["glue"]
        if res["global"][0] is not True or rep.extendable != "yes":
            return False
        if not (rep.commuting_ok and rep.increasing_ok):
            return False
        want = _section_by_eigh(dia, a)
        return (_same_section(res["section"], want)
                and _same_section(_section_by_eigh(dia, rep.operator), want))


def _section_by_eigh(dia, a) -> dict:
    """Value at a projection: the least eigenvalue whose cumulative
    eigenspace contains the projection's range (numpy eigh)."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    out = {}
    for c in dia.contexts:
        vals = {}
        for e in range(1, 1 << len(c.minimal)):
            p = sum(c.minimal[i] for i in range(len(c.minimal)) if e >> i & 1)
            for lam in np.unique(np.round(w, 9)):
                low = v[:, w <= lam + 1e-9]
                if np.linalg.norm(p - low @ (low.conj().T @ p)) <= 1e-7:
                    vals[e] = float(lam)
                    break
        out[c.name] = vals
    return out


def _same_section(got, want) -> bool:
    if set(got) != set(want):
        return False
    for name, vals in want.items():
        if set(got[name]) != set(vals):
            return False
        if any(abs(got[name][e] - v) > 1e-7 for e, v in vals.items()):
            return False
    return True


WORKLOADS = {w.name: w for w in (StoneChecks(), LatticeBuild(),
                                 MatrixRestrict(), ContextGlue())}
