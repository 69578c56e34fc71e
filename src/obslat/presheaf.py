"""Presheaves of finite sets on a finite lattice, the gluing condition,
stalks over the maximal dual ideals, and the associated sheaf of sections.

Sections are opaque hashable values; restriction maps are explicit dicts for
every comparable pair.  The gluing scan is exhaustive over join-covers and
compatible families, so it is guarded by a work cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product as iproduct

from .corpus import boolean_algebra
from .errors import InputError, PreconditionError, ResourceError
from .lattice import FiniteOrthoLattice, bits
from .spectral import SpectralFamily, restrict_family
from .stone import DualIdeal

WORK_CAP = 200_000
SECTION_CAP = 4096


@dataclass(frozen=True)
class LatticePresheaf:
    """Finite value set per element plus a restriction map per comparable
    pair (small index to large: restrict(a, b) maps S(b) into S(a))."""
    lattice: FiniteOrthoLattice = field(compare=False)
    sections: tuple = ()          # tuple of tuples, indexed by element
    restrictions: dict = field(default_factory=dict, compare=False)
    describe: object = field(compare=False, default=None)

    def values_at(self, a: int) -> tuple:
        return self.sections[a]

    def section_repr(self, value):
        """A JSON-friendly description of a section value for witnesses."""
        if self.describe is not None:
            return self.describe(value)
        return repr(value)

    def restrict(self, a: int, b: int, value):
        """Map a section over b down to a (needs a <= b)."""
        if not self.lattice.le(a, b):
            raise PreconditionError(
                "restriction runs downward only",
                witness=[self.lattice.names[a], self.lattice.names[b]])
        if a == b:
            return value
        table = self.restrictions.get((a, b))
        if table is None or value not in table:
            raise InputError(
                "missing restriction entry",
                witness={"from": self.lattice.names[b],
                         "to": self.lattice.names[a], "value": repr(value)})
        return table[value]


def lattice_presheaf(lattice: FiniteOrthoLattice, sections: dict[int, list],
             restrictions: dict[tuple[int, int], dict],
             describe=None) -> LatticePresheaf:
    secs = []
    for a in range(lattice.n):
        if a not in sections:
            raise InputError("section set missing",
                             witness=lattice.names[a])
        vals = list(sections[a])
        if len(set(vals)) != len(vals):
            raise InputError("duplicate section values",
                             witness=lattice.names[a])
        secs.append(tuple(vals))
    return LatticePresheaf(lattice, tuple(secs), dict(restrictions), describe)


def check_presheaf(ps: LatticePresheaf) -> tuple[bool, dict | None]:
    """Totality of every downward map, identity on equal endpoints, and
    composition along all chains a <= b <= c.  Once every map is total, a
    chain with two equal members composes trivially, so only the strict
    chains a < b < c are compared, read straight from the tables."""
    lat = ps.lattice
    tabs = ps.restrictions
    for b in range(lat.n):
        for a in range(lat.n):
            if a == b or not lat.le(a, b):
                continue
            table = tabs.get((a, b))
            if table is None:
                return False, {"kind": "missing-map",
                               "from": lat.names[b], "to": lat.names[a]}
            for v in ps.values_at(b):
                if v not in table:
                    return False, {"kind": "partial-map",
                                   "from": lat.names[b], "to": lat.names[a],
                                   "value": repr(v)}
                if table[v] not in ps.values_at(a):
                    return False, {"kind": "map-leaves-sections",
                                   "from": lat.names[b], "to": lat.names[a],
                                   "value": repr(v)}
    for c in range(lat.n):
        for b in range(lat.n):
            if b == c or not lat.le(b, c):
                continue
            bc = tabs[(b, c)]
            for a in range(lat.n):
                if a == b or not lat.le(a, b):
                    continue
                ac, ab = tabs[(a, c)], tabs[(a, b)]
                for v in ps.values_at(c):
                    direct, stepped = ac[v], ab[bc[v]]
                    if direct != stepped:
                        return False, {
                            "kind": "composition",
                            "chain": [lat.names[a], lat.names[b],
                                      lat.names[c]],
                            "value": repr(v),
                            "direct": repr(direct), "stepped": repr(stepped)}
    return True, None


def check_sheaf_condition(ps: LatticePresheaf, work_cap: int = WORK_CAP
                          ) -> dict:
    """Scan every join-cover (two or more nonzero elements below a with join
    a, in (size, index) order) and every compatible family over it; a family
    is compatible when its members agree after restriction to each nonzero
    pairwise meet.  Reports the first existence failure and the first
    uniqueness failure separately; ok means neither occurred.

    At the first compatible family of a cover, the sections over a are
    grouped once by their restrictions to the cover members (the cover's
    gluing index), and each family looks its gluings up there.  That index
    reads every member's restriction of every section over a, so on a
    partial presheaf built directly through the API the missing-entry
    InputError can name an entry that a section-by-section comparison
    would never have reached."""
    lat = ps.lattice
    work = 0
    first_existence = None
    first_uniqueness = None
    nonzero = [a for a in range(lat.n) if a != lat.zero]
    for a in range(lat.n):
        if a == lat.zero:
            continue
        below = [b for b in nonzero if lat.le(b, a)]
        for size in range(2, len(below) + 1):
            for cover in combinations(below, size):
                if lat.join_of(cover) != a:
                    continue
                sets = [ps.values_at(b) for b in cover]
                count = 1
                for s in sets:
                    count *= len(s)
                work += count
                if work > work_cap:
                    raise ResourceError(
                        "gluing scan exceeded the work cap",
                        witness={"cap": work_cap})
                gluings = None
                for family in iproduct(*sets):
                    if not _compatible(ps, cover, family):
                        continue
                    if gluings is None:
                        gluings = _gluings(ps, a, cover)
                    glue = gluings.get(family, [])
                    if not glue and first_existence is None:
                        first_existence = _witness(ps, a, cover, family, glue)
                    if len(glue) > 1 and first_uniqueness is None:
                        first_uniqueness = _witness(ps, a, cover, family,
                                                    glue)
                    if first_existence and first_uniqueness:
                        return {"ok": False, "existence": first_existence,
                                "uniqueness": first_uniqueness}
    return {"ok": first_existence is None and first_uniqueness is None,
            "existence": first_existence, "uniqueness": first_uniqueness}


def _gluings(ps: LatticePresheaf, a: int, cover) -> dict:
    """Sections over a grouped, in section order, by their restrictions to
    the cover members."""
    out: dict[tuple, list] = {}
    for v in ps.values_at(a):
        out.setdefault(tuple(ps.restrict(b, a, v) for b in cover),
                       []).append(v)
    return out


def _compatible(ps: LatticePresheaf, cover, family) -> bool:
    lat = ps.lattice
    for (b1, v1), (b2, v2) in combinations(zip(cover, family), 2):
        m = lat.meet(b1, b2)
        if m == lat.zero:
            continue
        if ps.restrict(m, b1, v1) != ps.restrict(m, b2, v2):
            return False
    return True


def _witness(ps, a, cover, family, glue) -> dict:
    lat = ps.lattice
    return {"element": lat.names[a],
            "cover": [lat.names[b] for b in cover],
            "family": [ps.section_repr(v) for v in family],
            "gluings": [ps.section_repr(v) for v in glue]}


def stalk(ps: LatticePresheaf, quasipoint: DualIdeal) -> tuple[int, tuple]:
    """Direct limit of the sections over the members of a maximal dual
    ideal.  The ideal is the up-set of an atom, which is its minimum, so the
    limit is the section set there; the germ of a section over any member is
    its restriction to that atom."""
    t = quasipoint.generator()
    return t, ps.values_at(t)


def germ(ps: LatticePresheaf, quasipoint: DualIdeal, a: int, value):
    t = quasipoint.generator()
    if not quasipoint.contains(a):
        raise PreconditionError(
            "the element does not belong to the quasipoint",
            witness=ps.lattice.names[a])
    return ps.restrict(t, a, value)


def sheafify(ps: LatticePresheaf, cap: int = SECTION_CAP
             ) -> tuple[LatticePresheaf, FiniteOrthoLattice, list[int]]:
    """The presheaf of sections of the germ bundle over the (discrete,
    finite) space of maximal dual ideals: on a set of quasipoints, a section
    is one germ per member, and restriction forgets components.  Returned
    over the powerset lattice of the quasipoints, whose element index is the
    subset bitmask."""
    from .stone import enumerate_quasipoints
    qs = enumerate_quasipoints(ps.lattice)
    base = boolean_algebra(len(qs))
    atom_names = [ps.lattice.names[q.generator()] for q in qs]

    def describe(v):
        return [[atom_names[i], ps.section_repr(g)] for i, g in v]

    sheaf = _bundle(base, range(base.n), [stalk(ps, q)[1] for q in qs],
                    describe, cap, "sheafification exceeds the size cap")
    return sheaf, base, [q.mask for q in qs]


def _tables(lattice: FiniteOrthoLattice, sections, rule) -> dict:
    """The restriction table {v: rule(a, b, v)} over the sections at b, for
    every pair a < b."""
    return {(a, b): {v: rule(a, b, v) for v in sections[b]}
            for b in range(lattice.n) for a in range(lattice.n)
            if a != b and lattice.le(a, b)}


def _bundle(lattice: FiniteOrthoLattice, masks, fibers, describe, cap: int,
            message: str) -> LatticePresheaf:
    """Sections of a finite bundle: over element a, one value from each
    point's fiber for every point in masks[a], as (point, value) tuples;
    restriction keeps the points in the smaller mask.  Raises before
    building anything once the sections over all points would pass cap."""
    if math.prod(max(1, len(fiber)) for fiber in fibers) > cap:
        raise ResourceError(message, witness={"cap": cap})
    sections = {}
    for a in range(lattice.n):
        pts = bits(masks[a])
        sections[a] = [tuple(zip(pts, combo))
                       for combo in iproduct(*(fibers[p] for p in pts))]

    def keep(a, b, v):
        return tuple((p, g) for p, g in v if masks[a] >> p & 1)

    return lattice_presheaf(lattice, sections,
                            _tables(lattice, sections, keep), describe)


# -- concrete presheaves ---------------------------------------------------------

_ZERO_SENTINEL = ("*",)


def spectral_presheaf(lattice: FiniteOrthoLattice, grid,
                      cap: int = SECTION_CAP) -> LatticePresheaf:
    """Sections over a: bounded families with top a and breakpoints drawn
    from the grid; restriction is the pointwise meet.  The bottom element
    carries a one-point sentinel set (there are no families over it)."""
    grid = sorted(set(float(g) for g in grid))
    if not grid:
        raise InputError("need a nonempty breakpoint grid")
    sections = {a: [_ZERO_SENTINEL] if a == lattice.zero
                else _families_with_top(lattice, a, grid, cap)
                for a in range(lattice.n)}

    def restrict(a, b, fam):
        if a == lattice.zero:
            return _ZERO_SENTINEL
        return restrict_family(SpectralFamily(lattice, fam, b), a).breakpoints

    def describe(fam):
        if fam == _ZERO_SENTINEL:
            return "*"
        return [[lam, lattice.names[e]] for lam, e in fam]

    return lattice_presheaf(lattice, sections,
                            _tables(lattice, sections, restrict), describe)


def _families_with_top(lattice, top, grid, cap) -> list:
    """All canonical (value, element) breakpoint tuples with the given top.
    Chains below the top are visited in preorder, each one's families
    emitted on the visit; no chain grows past len(grid) members, since a
    longer one has no families."""
    out = []

    def descend(chain):
        for vals in combinations(grid, len(chain)):
            # chain descends from the top; values ascend with the elements
            out.append(tuple(zip(vals, reversed(chain))))
            if len(out) > cap:
                raise ResourceError("too many sections; shrink the grid",
                                    witness={"cap": cap})
        if len(chain) == len(grid):
            return
        last = chain[-1]
        for e in range(lattice.n):
            if e != lattice.zero and e != last and lattice.le(e, last):
                descend(chain + [e])

    descend([top])
    return out


def function_presheaf(space, values) -> tuple[LatticePresheaf,
                                              FiniteOrthoLattice, list[int]]:
    """Sections over an open set: all maps from its points into the value
    list, restriction by forgetting points.  A genuine sheaf."""
    from .classical import open_set_lattice
    lat, opens = open_set_lattice(space)

    def describe(v):
        return [[space.points[p], g] for p, g in v]

    ps = _bundle(lat, opens, [list(values)] * len(space.points), describe,
                 SECTION_CAP, "too many sections; shrink the values list")
    return ps, lat, opens
