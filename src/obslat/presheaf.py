"""Presheaves of finite sets on a finite lattice, the gluing condition,
stalks over the maximal dual ideals, and the associated sheaf of sections.

Sections are opaque hashable values, kept in order per element.  Every
restriction map is an ``int32`` array over positions: entry i of the table
of a < b is the position in S(a) of the restriction of the i-th section
over b.  The builders apply their restriction rule on the cover pairs only
and compose every other table along one cover,
``tab[a, c] = tab[a, b][tab[b, c]]``; a presheaf is a functor, so its values
on the covers fix it.  The laws and the gluing scan compare positions, and
sections are rendered as values only in witnesses.  The gluing scan presumes
the laws and draws its antichain covers from ``lattice._cliques``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, product as iproduct

import numpy as np

from .corpus import boolean_algebra
from .errors import InputError, PreconditionError, ResourceError
from .lattice import FiniteOrthoLattice, _cliques, _row_masks, bits
from .stone import DualIdeal

WORK_CAP = 200_000
SECTION_CAP = 4096


@dataclass(frozen=True)
class LatticePresheaf:
    """Finite value set per element plus a restriction table per strict
    comparable pair (small index to large: ``restrictions[a, b]`` maps
    positions in S(b) to positions in S(a)).  A table built from value
    dicts through ``lattice_presheaf`` may hold -1 for a missing entry and,
    for an image outside S(a), a position past the end of S(a) that stands
    for one of ``strays[a]``."""
    lattice: FiniteOrthoLattice = field(compare=False)
    sections: tuple = ()          # tuple of tuples, indexed by element
    restrictions: dict = field(default_factory=dict, compare=False)
    describe: object = field(compare=False, default=None)
    strays: tuple = field(default=(), compare=False)

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
        i = self._positions[b].get(value)
        if table is None or i is None or table[i] < 0:
            raise InputError(
                "missing restriction entry",
                witness={"from": self.lattice.names[b],
                         "to": self.lattice.names[a], "value": repr(value)})
        return self._value(a, int(table[i]))

    @cached_property
    def _positions(self) -> list[dict]:
        return _positions(self.sections)

    def _value(self, a: int, i: int):
        """The section at position i over a, or the stray image past the
        end of S(a)."""
        s = self.sections[a]
        return s[i] if i < len(s) else self.strays[a][i - len(s)]


def lattice_presheaf(lattice: FiniteOrthoLattice, sections: dict[int, list],
             restrictions: dict[tuple[int, int], dict],
             describe=None) -> LatticePresheaf:
    """A presheaf from value dicts: ``restrictions[a, b]`` maps sections over
    b to their restrictions.  Tables are read for the pairs a < b only and
    converted to positions once; a missing table stays absent, a missing
    entry becomes -1, and each distinct image outside S(a) gets its own
    position past the end of S(a)."""
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
    index = _positions(secs)
    strays: list[dict] = [{} for _ in secs]
    tabs = {}
    for b, below in enumerate(_below(lattice)):
        for a in below:
            table = restrictions.get((a, b))
            if table is None:
                continue
            tab = np.full(len(secs[b]), -1, dtype=np.int32)
            for i, v in enumerate(secs[b]):
                if v in table:
                    img = table[v]
                    pos = index[a].get(img)
                    if pos is None:
                        pos = strays[a].setdefault(
                            img, len(secs[a]) + len(strays[a]))
                    tab[i] = pos
            tabs[a, b] = tab
    return LatticePresheaf(lattice, tuple(secs), tabs, describe,
                           tuple(tuple(s) for s in strays))


def _positions(sections) -> list[dict]:
    """Per element, each section's position."""
    return [{v: i for i, v in enumerate(s)} for s in sections]


def _below(lattice: FiniteOrthoLattice) -> list[list[int]]:
    """Per element, the elements strictly below it, ascending."""
    return [[a for a in lattice.downset(b) if a != b]
            for b in range(lattice.n)]


def check_presheaf(ps: LatticePresheaf) -> tuple[bool, dict | None]:
    """Totality of every downward map and membership of its images, then
    composition along all chains a <= b <= c.  Once every map is total, a
    chain with two equal members composes trivially, so only the strict
    chains a < b < c are compared, each as one comparison of position
    arrays, ``tab[a, c]`` against ``tab[a, b][tab[b, c]]``."""
    lat = ps.lattice
    tabs = ps.restrictions
    below = _below(lat)
    for b in range(lat.n):
        for a in below[b]:
            tab = tabs.get((a, b))
            if tab is None:
                return False, {"kind": "missing-map",
                               "from": lat.names[b], "to": lat.names[a]}
            bad = (tab < 0) | (tab >= len(ps.sections[a]))
            if bad.any():
                i = int(bad.argmax())
                return False, {"kind": ("partial-map" if tab[i] < 0
                                        else "map-leaves-sections"),
                               "from": lat.names[b], "to": lat.names[a],
                               "value": repr(ps.sections[b][i])}
    for c in range(lat.n):
        for b in below[c]:
            bc = tabs[b, c]
            for a in below[b]:
                direct, stepped = tabs[a, c], tabs[a, b][bc]
                bad = direct != stepped
                if bad.any():
                    i = int(bad.argmax())
                    s = ps.sections[a]
                    return False, {
                        "kind": "composition",
                        "chain": [lat.names[a], lat.names[b], lat.names[c]],
                        "value": repr(ps.sections[c][i]),
                        "direct": repr(s[direct[i]]),
                        "stepped": repr(s[stepped[i]])}
    return True, None


def check_sheaf_condition(ps: LatticePresheaf, work_cap: int = WORK_CAP
                          ) -> dict:
    """Scan every antichain cover of each element a (two or more pairwise
    incomparable nonzero elements below a with join a, in (size, index)
    order) and every compatible family over it: one whose members agree
    after restriction to each nonzero pairwise meet.  Reports the first
    existence failure and the first uniqueness failure; ok means neither.

    The laws are presumed (PreconditionError with their witness otherwise).
    A cover and the sieve it generates share compatible families and
    gluings, and each covering sieve is generated by one antichain, its
    maximal members; so the first failures over all covers lie on
    antichains.  One work count caps the scan: a unit per antichain drawn
    plus the families of each cover."""
    laws_ok, laws_witness = check_presheaf(ps)
    if not laws_ok:
        raise PreconditionError("the sheaf condition needs a presheaf",
                                witness=laws_witness)
    lat = ps.lattice
    meet = lat.meet_table.tolist()

    @cache
    def row(a, b):
        """The table of a < b as a list."""
        return ps.restrictions[a, b].tolist()

    sizes = [len(s) for s in ps.sections]
    first_existence = None
    first_uniqueness = None
    for a, cover in _antichain_covers(lat, sizes, work_cap):
        meets = [(j, l, row(m, cover[j]), row(m, cover[l]))
                 for j, l in combinations(range(len(cover)), 2)
                 if (m := meet[cover[j]][cover[l]]) != lat.zero]
        gluings = None
        for family in iproduct(*(range(sizes[b]) for b in cover)):
            if any(row_j[family[j]] != row_l[family[l]]
                   for j, l, row_j, row_l in meets):
                continue
            if gluings is None:
                # the sections over a, by their restrictions to the members
                gluings = {}
                for g, key in enumerate(zip(*(row(b, a) for b in cover))):
                    gluings.setdefault(key, []).append(g)
            glue = gluings.get(family, [])
            if not glue and first_existence is None:
                first_existence = _witness(ps, a, cover, family, glue)
            if len(glue) > 1 and first_uniqueness is None:
                first_uniqueness = _witness(ps, a, cover, family, glue)
            if first_existence and first_uniqueness:
                return {"ok": False, "existence": first_existence,
                        "uniqueness": first_uniqueness}
    return {"ok": first_existence is None and first_uniqueness is None,
            "existence": first_existence, "uniqueness": first_uniqueness}


def _antichain_covers(lat: FiniteOrthoLattice, sizes, work_cap: int):
    """(a, cover) for each antichain cover in scan order.  A unit of work
    per antichain drawn makes the cap bound a level's memory too."""
    join = lat.join_table.tolist()
    incomparable = _row_masks(~(lat.leq | lat.leq.T))
    work = 0
    for a in range(lat.n):
        below = lat.downset_mask(a) & ~(1 << a | 1 << lat.zero)
        level = [1 << b for b in bits(below)]
        while level:
            drawn = []
            for mask, members, later in _cliques(incomparable, below, level):
                top = lat.zero
                for b in members:
                    top = join[top][b]
                for c in later:
                    drawn.append(mask | 1 << c)
                    cover = (*members, c) if join[top][c] == a else ()
                    work += (1 + math.prod(sizes[b] for b in cover)
                             if cover else 1)
                    if work > work_cap:
                        raise ResourceError(
                            "gluing scan exceeded the work cap",
                            witness={"cap": work_cap})
                    if cover:
                        yield a, cover
            level = drawn


def _witness(ps, a, cover, family, glue) -> dict:
    lat = ps.lattice
    return {"element": lat.names[a],
            "cover": [lat.names[b] for b in cover],
            "family": [ps.section_repr(ps.sections[b][i])
                       for b, i in zip(cover, family)],
            "gluings": [ps.section_repr(ps.sections[a][g]) for g in glue]}


def stalk(ps: LatticePresheaf, quasipoint: DualIdeal) -> tuple[int, tuple]:
    """Direct limit of the sections over the members of a maximal dual
    ideal.  The ideal is the up-set of an atom, which is its minimum, so the
    limit is the section set there; the germ of a section over any member is
    its restriction to that atom."""
    t = quasipoint.generator()
    return t, ps.values_at(t)


def germ(ps: LatticePresheaf, quasipoint: DualIdeal, a: int, value):
    ps.lattice._check_element(a, "germ element")
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
    """The position table of every pair a < c.  On a cover pair, rule(a, c,
    v) gives the restriction of each section v over c, looked up in S(a).
    Every other pair is one gather along the first cover b of c with a <= b,
    ``tab[a, c] = tab[a, b][tab[b, c]]``; elements are visited by down-set
    size, so the tables below c are ready when c is reached."""
    index = _positions(sections)
    tabs = {}
    lower: list[list[int]] = [[] for _ in range(lattice.n)]
    for a, c in lattice.covers():
        lower[c].append(a)
        tabs[a, c] = np.array([index[a][rule(a, c, v)] for v in sections[c]],
                              dtype=np.int32)
    down = [lattice.downset_mask(c) for c in range(lattice.n)]
    for c in sorted(range(lattice.n), key=lambda c: down[c].bit_count()):
        for b in lower[c]:
            for a in lattice.downset(b):
                if a != b and (a, c) not in tabs:
                    tabs[a, c] = tabs[a, b][tabs[b, c]]
    return tabs


def _bundle(lattice: FiniteOrthoLattice, masks, fibers, describe, cap: int,
            message: str) -> LatticePresheaf:
    """Sections of a finite bundle: over element a, one value from each
    point's fiber for every point in masks[a], as (point, value) tuples;
    restriction keeps the points in the smaller mask.  Raises before
    building anything once the sections over all points would pass cap."""
    if math.prod(max(1, len(fiber)) for fiber in fibers) > cap:
        raise ResourceError(message, witness={"cap": cap})
    sections = []
    for a in range(lattice.n):
        pts = bits(masks[a])
        sections.append(tuple(tuple(zip(pts, combo)) for combo in
                              iproduct(*(fibers[p] for p in pts))))

    def keep(a, b, v):
        return tuple((p, g) for p, g in v if masks[a] >> p & 1)

    return LatticePresheaf(lattice, tuple(sections),
                           _tables(lattice, sections, keep), describe)


# -- concrete presheaves ---------------------------------------------------------

_ZERO_SENTINEL = ("*",)


def spectral_presheaf(lattice: FiniteOrthoLattice, grid,
                      cap: int = SECTION_CAP) -> LatticePresheaf:
    """Sections over a: bounded families with top a and breakpoints drawn
    from the grid; restriction is the pointwise meet.  The bottom element
    carries a one-point sentinel set (there are no families over it)."""
    grid = [float(g) for g in grid]
    for g in grid:
        if not math.isfinite(g):
            raise InputError("breakpoints must be finite reals", witness=g)
    grid = sorted(set(grid))
    if not grid:
        raise InputError("need a nonempty breakpoint grid")
    sections = [(_ZERO_SENTINEL,) if a == lattice.zero
                else tuple(_families_with_top(lattice, a, grid, cap))
                for a in range(lattice.n)]
    meet = lattice.meet_table.tolist()

    def restrict(a, c, fam):
        # the pointwise meet of a canonical family, with a step equal to
        # its predecessor (or to bottom at the front) dropped, is canonical
        if a == lattice.zero:
            return _ZERO_SENTINEL
        out, last = [], lattice.zero
        for lam, e in fam:
            if meet[e][a] != last:
                last = meet[e][a]
                out.append((lam, last))
        return tuple(out)

    def describe(fam):
        if fam == _ZERO_SENTINEL:
            return "*"
        return [[lam, lattice.names[e]] for lam, e in fam]

    return LatticePresheaf(lattice, tuple(sections),
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
    list, restriction by forgetting points.  A genuine sheaf.  A repeated
    value is dropped, so the first occurrence fixes the order."""
    from .classical import open_set_lattice
    values = list(dict.fromkeys(values))
    for v in values:
        if not math.isfinite(v):
            raise InputError("values must be finite reals", witness=v)
    lat, opens = open_set_lattice(space)

    def describe(v):
        return [[space.points[p], g] for p, g in v]

    ps = _bundle(lat, opens, [values] * len(space.points), describe,
                 SECTION_CAP, "too many sections; shrink the values list")
    return ps, lat, opens
