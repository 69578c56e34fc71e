"""The acceptance suite: nine desk-scale property checks covering the whole
package, each reporting one pass/fail line.  All sampling is seeded, so a
fixed seed gives a byte-identical report.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import classical, corpus, observables, presheaf, spectral, stone, vn
from .context import diagram, section_from_operator, glue_section, \
    is_global_section
from .errors import ObslatError


@dataclass(frozen=True)
class CriterionResult:
    number: int
    label: str
    passed: bool
    detail: str

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} {word} {self.label}: {self.detail}"


def _corpus() -> dict:
    return corpus.standard_lattices()


# 1 -------------------------------------------------------------------------------

def criterion_round_trip(seed: int) -> CriterionResult:
    """Sampled bounded families reconstruct exactly from their tables, and
    equal tables never come from distinct canonical families."""
    rng = random.Random(seed)
    lats = _corpus()
    families = 0
    failures = 0
    for lat in lats.values():
        seen: dict = {}
        for _ in range(36):
            fam = spectral.sample_family(lat, rng)
            families += 1
            f = observables.observable_table(fam)
            rec = observables.reconstruct(f)
            if rec != fam:
                failures += 1
                continue
            key = (f.values, f.top)
            if key in seen and seen[key] != fam:
                failures += 1
            seen[key] = fam
    return CriterionResult(
        1, "round-trip reconstruction",
        families >= 500 and failures == 0,
        f"{families} sampled families, {failures} failures")


# 2 -------------------------------------------------------------------------------

def criterion_axiom_soundness(seed: int) -> CriterionResult:
    """Spectral tables always pass both axiom checkers; perturbed tables are
    either still reconstructible or rejected with a witness."""
    rng = random.Random(seed + 1)
    lats = list(_corpus().values())
    clean_failures = 0
    checked = 0
    for lat in lats:
        for _ in range(12):
            fam = spectral.sample_family(lat, rng)
            f = observables.observable_table(fam)
            ok1, _ = observables.check_intersection_condition(f)
            ok2, _ = observables.check_upper_semicontinuous(f)
            checked += 1
            if not (ok1 and ok2):
                clean_failures += 1
    perturbed = 0
    accepted = 0
    rejected = 0
    silent = 0
    while perturbed < 120:
        lat = lats[rng.randrange(len(lats))]
        fam = spectral.sample_family(lat, rng)
        f = observables.observable_table(fam)
        dom = f.domain()
        a = dom[rng.randrange(len(dom))]
        vals = {b: f.values[b] for b in dom}
        vals[a] = vals[a] + rng.choice([-0.75, -0.5, 0.5, 0.75])
        g = observables.observable(lat, vals, top=f.top, checked=False)
        perturbed += 1
        ok1, w1 = observables.check_intersection_condition(g)
        ok2, w2 = observables.check_upper_semicontinuous(g)
        if ok1 and ok2:
            accepted += 1
            rec = observables.reconstruct(g)
            if observables.observable_table(rec).values != g.values:
                silent += 1
        else:
            rejected += 1
            if (not ok1 and w1 is None) or (not ok2 and w2 is None):
                silent += 1
    ok = clean_failures == 0 and silent == 0 and perturbed >= 100
    return CriterionResult(
        2, "axiom soundness",
        ok,
        f"{checked} spectral tables clean, {perturbed} perturbed "
        f"({accepted} still valid, {rejected} rejected), "
        f"{silent} silent failures")


# 3 -------------------------------------------------------------------------------

def criterion_spectrum_identity(seed: int) -> CriterionResult:
    """The image of f over the dual ideals equals the spectrum of the family
    on every corpus lattice; over the maximal ideals alone the identity is
    checked on the atomistic members, where the maximal ideals reach every
    principal one."""
    rng = random.Random(seed + 2)
    lats = _corpus()
    all_ok = 0
    atomistic_ok = 0
    atomistic_total = 0
    bad = []
    for name, lat in lats.items():
        fams = [spectral.sample_family(lat, rng) for _ in range(10)]
        good = all(
            sorted({observables.observable_table(fm).at_ideal(j)
                    for j in stone.enumerate_dual_ideals(lat)})
            == list(fm.spectrum())
            for fm in fams)
        if good:
            all_ok += 1
        else:
            bad.append(name)
        if lat.is_atomistic():
            atomistic_total += 1
            good_q = all(
                sorted({observables.observable_table(fm).at_ideal(q)
                        for q in stone.enumerate_quasipoints(lat)})
                == list(fm.spectrum())
                for fm in fams)
            if good_q:
                atomistic_ok += 1
            else:
                bad.append(name + " (maximal ideals)")
    ok = all_ok == len(lats) and atomistic_ok == atomistic_total
    detail = (f"image over dual ideals = spectrum on {all_ok}/{len(lats)} "
              f"lattices; over maximal ideals on {atomistic_ok}/"
              f"{atomistic_total} atomistic ones")
    if bad:
        detail += f"; failing: {bad}"
    return CriterionResult(3, "spectrum identity", ok, detail)


# 4 -------------------------------------------------------------------------------

def criterion_bijection(seed: int) -> CriterionResult:
    """A table's value at a dual ideal is the min of its element values over
    the ideal's members, and ``observable_from_increasing`` returns the
    table unchanged; the join-based observability test accepts every
    bounded table on the Boolean corpus and rejects the standard
    non-observable assignment on the horizontal-pair lattice."""
    rng = random.Random(seed + 3)
    lats = _corpus()
    identity_failures = 0
    count = 0
    for lat in lats.values():
        for _ in range(12):
            fam = spectral.sample_family(lat, rng)
            f = observables.observable_table(fam)
            count += 1
            for j in stone.enumerate_dual_ideals(lat):
                if min(map(f.at_element, j.members())) != f.at_ideal(j):
                    identity_failures += 1
                    break
            f2, ok_flag, _ = observables.observable_from_increasing(f)
            if not ok_flag or f2.values != f.values:
                identity_failures += 1
    boolean_pass = 0
    boolean_total = 0
    for name in ("b1", "b2", "b3", "b4"):
        lat = lats[name]
        ats = lat.atoms()
        grids = [[0.0, 0.5, 1.0]] * len(ats)
        choice = [0] * len(ats)
        while True:
            table = {t: grids[i][choice[i]] for i, t in enumerate(ats)}
            ok, _, _ = observables.observability_criterion(lat, table)
            boolean_total += 1
            if ok:
                boolean_pass += 1
            k = 0
            while k < len(ats) and choice[k] == 2:
                choice[k] = 0
                k += 1
            if k == len(ats):
                break
            choice[k] += 1
    mo2 = lats["mo2"]
    fixture = {mo2.index("a"): 1.0, mo2.index("b"): 1.5,
               mo2.index("a'"): 2.0, mo2.index("b'"): 2.0}
    mo2_ok, mo2_witness, _ = observables.observability_criterion(mo2, fixture)
    ok = (identity_failures == 0 and boolean_pass == boolean_total
          and not mo2_ok and mo2_witness is not None)
    return CriterionResult(
        4, "bijection between tables and joint-increasing functions", ok,
        f"{count} round trips, {identity_failures} failures; "
        f"{boolean_pass}/{boolean_total} Boolean tables observable; "
        f"mo2 fixture rejected: {not mo2_ok}")


# 5 -------------------------------------------------------------------------------

def criterion_matrix_side(seed: int) -> CriterionResult:
    rng = random.Random(seed + 4)
    parts = []
    ok = True

    worst = 0.0
    for k in range(200):
        dim = 2 + k % 7
        a = vn.random_hermitian(rng, dim)
        fam = vn.spectral_family_of(a)
        worst = max(worst, float(np.linalg.norm(fam.synthesize() - a)))
    res_ok = worst < vn.TOL.sub
    ok &= res_ok
    parts.append(f"recon residual {'<' if res_ok else '>='} {vn.TOL.sub:g}")

    order_bad = 0
    for k in range(200):
        dim = 2 + k % 3
        p = vn.random_projection(rng, dim)
        if k % 2 == 0:
            extra = vn.random_projection(rng, dim, rank=1)
            q = vn.projection_join([p, extra])
        else:
            q = vn.random_projection(rng, dim)
        if vn.spectral_leq(p, q) != vn.projection_leq(p, q):
            order_bad += 1
        if vn.spectral_leq(q, p) != vn.projection_leq(q, p):
            order_bad += 1
    ok &= order_bad == 0
    parts.append(f"{order_bad} order mismatches")

    lat_bad = 0
    for k in range(30):
        dim = 2 + k % 4
        d1 = np.diag([rng.randrange(-4, 5) * 0.5 for _ in range(dim)]) \
            .astype(complex)
        d2 = np.diag([rng.randrange(-4, 5) * 0.5 for _ in range(dim)]) \
            .astype(complex)
        lo = vn.spectral_meet([d1, d2])
        hi = vn.spectral_join([d1, d2])
        want_lo = np.diag(np.minimum(np.diag(d1).real, np.diag(d2).real))
        want_hi = np.diag(np.maximum(np.diag(d1).real, np.diag(d2).real))
        if float(np.linalg.norm(lo - want_lo)) > vn.TOL.sub:
            lat_bad += 1
        if float(np.linalg.norm(hi - want_hi)) > vn.TOL.sub:
            lat_bad += 1
    ok &= lat_bad == 0
    parts.append(f"{lat_bad} diagonal lattice mismatches")

    core_bad = 0
    for k in range(100):
        dim = 2 + k % 3
        m = vn.subalgebra([vn.random_hermitian(rng, dim)])
        q = vn.random_projection(rng, dim)
        rho = vn.rho_restrict(m, q)
        sup = vn.support_projection(m, q)
        if float(np.linalg.norm(rho - sup)) > vn.TOL.cluster:
            core_bad += 1
    ok &= core_bad == 0
    parts.append(f"{core_bad} support mismatches")

    triv_bad = 0
    for k in range(20):
        dim = 2 + k % 5
        a = vn.random_hermitian(rng, dim)
        triv = vn.trivial_algebra(dim)
        vals, _ = vn.eigen_hermitian(a)
        hi = vn.rho_restrict(triv, a)
        lo = vn.sigma_restrict(triv, a)
        eye = np.eye(dim)
        if float(np.linalg.norm(hi - vals[-1] * eye)) > vn.TOL.sub:
            triv_bad += 1
        if float(np.linalg.norm(lo - vals[0] * eye)) > vn.TOL.sub:
            triv_bad += 1
    ok &= triv_bad == 0
    parts.append(f"{triv_bad} scalar-compression mismatches")

    return CriterionResult(5, "matrix side", bool(ok), "; ".join(parts))


# 6 -------------------------------------------------------------------------------

def criterion_gelfand(seed: int) -> CriterionResult:
    """On a diagonal algebra the section of the operator values each minimal
    projection at exactly the matching diagonal entry, and the vector form
    agrees."""
    rng = random.Random(seed + 5)
    bad = 0
    total = 0
    for dim in range(2, 7):
        for _ in range(4):
            entries = [0.5 * k - 1.0 for k in range(dim)]
            rng.shuffle(entries)
            a = np.diag(entries).astype(complex)
            dia = diagram({"D": [a]}, dim=dim)
            section = section_from_operator(dia, a)
            ctx = dia.context_named("D")
            for p in ctx.minimal:
                total += 1
                basis_vec = np.diag(p).real.round()
                want = entries[int(np.argmax(basis_vec))]
                if section["D"][ctx.element_of(p)] != want:
                    bad += 1
                if vn.atomic_value(a, basis_vec.astype(complex)) != want:
                    bad += 1
    return CriterionResult(
        6, "finite function-algebra correspondence", bad == 0,
        f"{total} minimal projections over diagonal algebras, {bad} mismatches")


# 7 -------------------------------------------------------------------------------

def criterion_classical(seed: int) -> CriterionResult:
    counts = {n: len(classical.all_topologies(n)) for n in range(1, 5)}
    count_ok = counts == {1: 1, 2: 4, 3: 29, 4: 355}

    values = [0.0, 0.5, 1.0, 1.5]
    round_trips = 0
    bad = 0
    for n in range(1, 5):
        points = [f"p{i}" for i in range(n)]
        for opens in classical.all_topologies(n):
            space = classical.FiniteTopSpace(points, opens=opens)
            for func in classical.continuous_functions(space, values):
                fam = classical.sigma_from_function(space, func)
                cont, _, _ = classical.is_continuous_family(fam)
                full = (1 << n) - 1
                if not cont or fam.admissible_domain() != full:
                    bad += 1
                    continue
                if any(classical.induced_function(fam, p) != func[p]
                       for p in points):
                    bad += 1
                    continue
                induced = {p: classical.induced_function(fam, p)
                           for p in points}
                if classical.sigma_from_function(space, induced) != fam:
                    bad += 1
                    continue
                round_trips += 1

    demo_bad = 0
    for kind in ("id", "abs", "ln", "step"):
        demo = classical.demo_family(kind)
        fam = demo["family"]
        for point, want in demo["targets"].items():
            if classical.induced_function(fam, point) != want:
                demo_bad += 1

    step_line = classical.demo_family("step-line")
    cont, witness, _ = classical.is_continuous_family(step_line["family"])
    step_ok = (not cont) and witness is not None

    ok = count_ok and bad == 0 and demo_bad == 0 and step_ok
    return CriterionResult(
        7, "classical dictionary", ok,
        f"topology counts {list(counts.values())}, {round_trips} function "
        f"round trips ({bad} failures), {demo_bad} grid-demo mismatches, "
        f"step family flagged non-continuous: {step_ok}")


# 8 -------------------------------------------------------------------------------

def fixture_diagram():
    """Two noncommuting two-dimensional contexts: the diagonal algebra and
    the one generated by the symmetric half matrix."""
    az = np.diag([0.0, 1.0]).astype(complex)
    ax = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    return diagram({"Az": [az], "Ax": [ax]}, dim=2)


def fixture_section(dia) -> dict:
    """Value 1 on the line of e0, 1.5 on the line of e0 + e1, 2 elsewhere;
    consistent in every context but joint over none."""
    lows = {"Az": (np.diag([1.0, 0.0]), 1.0), "Ax": (np.full((2, 2), 0.5), 1.5)}
    section: dict[str, dict[int, float]] = {}
    for c in dia.contexts:
        section[c.name] = dict.fromkeys(c.nonzero_elements(), 2.0)
        if c.name in lows:
            p, low = lows[c.name]
            section[c.name][c.element_of(p)] = low
    return section


def criterion_contextual(seed: int) -> CriterionResult:
    rng = random.Random(seed + 7)
    dia = fixture_diagram()
    section = fixture_section(dia)
    global_ok, _ = is_global_section(dia, section)
    report = glue_section(dia, section)
    fixture_ok = (global_ok
                  and report.commuting_ok
                  and not report.increasing_ok
                  and report.increasing_witness is not None
                  and report.extendable == "no")

    round_bad = 0
    for k in range(30):
        if k % 3 == 0:
            a = np.diag([rng.randrange(-2, 3) * 0.5,
                         rng.randrange(-2, 3) * 0.5]).astype(complex)
        else:
            a = vn.random_hermitian(rng, 2)
        s = section_from_operator(dia, a)
        g_ok, _ = is_global_section(dia, s)
        rep = glue_section(dia, s)
        if not g_ok or rep.extendable != "yes":
            round_bad += 1
            continue
        s2 = section_from_operator(dia, rep.operator)
        if any(abs(s2[c.name][e] - s[c.name][e]) > vn.TOL.sub
               for c in dia.contexts for e in c.nonzero_elements()):
            round_bad += 1
    ok = fixture_ok and round_bad == 0
    return CriterionResult(
        8, "contextual observables", ok,
        f"fixture: global={global_ok}, pairwise-commuting law holds="
        f"{report.commuting_ok}, joint law fails={not report.increasing_ok}, "
        f"extendable={report.extendable}; 30 operator sections, "
        f"{round_bad} round-trip failures")


# 9 -------------------------------------------------------------------------------

def criterion_sheaf(seed: int) -> CriterionResult:
    mo2 = corpus.mo(2)
    ps = presheaf.spectral_presheaf(mo2, [0.0, 1.0])
    # the sheaf check runs the laws first and raises on lawless input
    report = presheaf.check_sheaf_condition(ps)
    spectral_fails = not report["ok"] and report["existence"] is not None

    function_ok = True
    for space in (classical.sierpinski3(),
                  classical.discrete_space(["x", "y"])):
        fp, _, _ = presheaf.function_presheaf(space, [0.0, 1.0])
        fp_report = presheaf.check_sheaf_condition(fp)
        function_ok = function_ok and fp_report["ok"]

    ok = spectral_fails and function_ok
    cover = report["existence"]["cover"] if report["existence"] else None
    return CriterionResult(
        9, "sheaf obstruction echo", ok,
        f"spectral presheaf on mo2 has an ungluable compatible family over "
        f"cover {cover}; function presheaf is a sheaf: {function_ok}")


CRITERIA = (
    criterion_round_trip,
    criterion_axiom_soundness,
    criterion_spectrum_identity,
    criterion_bijection,
    criterion_matrix_side,
    criterion_gelfand,
    criterion_classical,
    criterion_contextual,
    criterion_sheaf,
)


def run_all(seed: int = 7) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        try:
            results.append(fn(seed))
        except ObslatError as exc:
            number = len(results) + 1
            results.append(CriterionResult(
                number, fn.__name__, False,
                f"raised {type(exc).__name__}: {exc}"))
    return results


def format_report(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
