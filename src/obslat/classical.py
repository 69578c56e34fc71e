"""Spectral families valued in the open sets of a finite topological space.

Point sets are bitmasks.  A finite topology is determined by the minimal open
neighborhood of each point, so the space stores one neighborhood mask per
point; closure and openness are read through the interior.  A list of opens
is read through the neighborhoods it induces: each listed set is the union of
its points' neighborhoods, so the list is a topology exactly when it holds
every such union.  The full list of opens is enumerated only on demand, with
a cap, since a near-discrete space has exponentially many.

A family carries an explicit base value: the open set it sits at below the
first breakpoint.  The base is normally empty; a nonempty base models maps
whose induced function is undefined on part of the space, and the admissible
domain is the complement of the base.  Families may also be flagged unbounded
above (final value short of the whole space) for demonstration purposes;
statements that need boundedness skip those with a notice.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice, product

import numpy as np

from .errors import InputError, PreconditionError, ResourceError
from .lattice import ELEMENT_CAP, FiniteOrthoLattice, bits, mask_from
from .spectral import _canonical_steps, _step_value, spectral_family

OPENS_CAP = 4096


def _mask(u) -> int:
    """A point-set mask as a Python int: an int (numpy's included, no bool)
    that is not negative; a float is refused rather than truncated."""
    if isinstance(u, bool) or not isinstance(u, (int, np.integer)) or u < 0:
        raise InputError("a mask is a nonnegative int", witness=repr(u))
    return int(u)


class FiniteTopSpace:
    """Finite topological space; subsets of points are bitmasks."""

    def __init__(self, points, opens=None, nb_masks=None):
        self.points = tuple(str(p) for p in points)
        n = len(self.points)
        if n == 0:
            raise InputError("a space needs at least one point")
        if len(set(self.points)) != n:
            raise InputError("duplicate point names")
        self.full = (1 << n) - 1
        if (opens is None) == (nb_masks is None):
            raise InputError("give exactly one of opens or nb_masks")
        if opens is not None:
            opens = sorted(set(_mask(u) for u in opens))
            if 0 not in opens or self.full not in opens:
                raise InputError(
                    "opens must contain the empty set and the whole space")
            if opens[-1] != self.full:
                raise InputError("opens name points outside the space",
                                 witness=[u for u in opens if u > self.full])
            nb_masks = [reduce(operator.and_, (u for u in opens if u >> x & 1))
                        for x in range(n)]
        self.nb_masks = [_mask(m) for m in nb_masks]
        if len(self.nb_masks) != n:
            raise InputError(f"give one minimal neighborhood for each of "
                             f"the {n} points", witness=len(self.nb_masks))
        for x, m in enumerate(self.nb_masks):
            if m & ~self.full:
                raise InputError(
                    f"neighborhood of {self.points[x]} names points outside "
                    f"the space", witness=m)
            if not m >> x & 1:
                raise InputError(
                    f"minimal neighborhood of {self.points[x]} must "
                    f"contain it")
        # consistency: the neighborhood assignment must itself be open
        for x, m in enumerate(self.nb_masks):
            if self.interior(m) != m:
                raise InputError(
                    f"neighborhood of {self.points[x]} is not a union of "
                    f"neighborhoods", witness=self.set_names(m))
        if opens is not None:
            listed = set(opens)
            for u in self._unions():
                if u not in listed:
                    raise InputError(
                        "opens are not closed under union and intersection: "
                        "a union of minimal neighborhoods is missing",
                        witness=self.set_names(u))
        self._opens = opens

    # -- mask utilities ------------------------------------------------------

    def mask_of(self, names) -> int:
        idx = {p: i for i, p in enumerate(self.points)}
        m = 0
        for s in names:
            if str(s) not in idx:
                raise InputError(f"unknown point {s!r}", witness=str(s))
            m |= 1 << idx[str(s)]
        return m

    def set_names(self, mask: int) -> list[str]:
        return [self.points[i] for i in bits(mask)]

    # -- topology ------------------------------------------------------------

    def _points_of(self, mask: int) -> list[int]:
        """``bits`` of a mask (``_mask``), which must name no point outside
        the space."""
        mask = _mask(mask)
        if mask > self.full:
            raise InputError("mask names points outside the space",
                             witness=mask)
        return bits(mask)

    def is_open(self, mask: int) -> bool:
        return self.interior(mask) == mask

    def interior(self, mask: int) -> int:
        out = 0
        for x in self._points_of(mask):
            if self.nb_masks[x] & mask == self.nb_masks[x]:
                out |= 1 << x
        return out

    def closure(self, mask: int) -> int:
        """The complement of the interior of the complement in the space."""
        self._points_of(mask)
        return self.full & ~self.interior(self.full & ~mask)

    def _unions(self):
        """Every union of minimal neighborhoods, once, the empty set first."""
        yield 0
        found = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for nb in self.nb_masks:
                v = u | nb
                if v not in found:
                    found.add(v)
                    yield v
                    frontier.append(v)

    def opens(self, cap: int = OPENS_CAP) -> list[int]:
        """All open sets (enumerated once, ascending as integers); more than
        cap of them is a ResourceError, whether enumerated now or before."""
        if self._opens is None:
            found = list(islice(self._unions(), cap + 1))
            if len(found) > cap:
                raise ResourceError(f"more than {cap} open sets")
            self._opens = sorted(found)
        if len(self._opens) > cap:
            raise ResourceError(f"more than {cap} open sets")
        return self._opens

    def nb_classes(self) -> list[int]:
        """Partition masks: points sharing constancy constraints.

        Two points are linked when one lies in the other's minimal
        neighborhood; continuous real functions are exactly the functions
        constant on the connected classes of that linkage.
        """
        n = len(self.points)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for x in range(n):
            for y in bits(self.nb_masks[x]):
                parent[find(x)] = find(y)
        groups: dict[int, int] = {}
        for x in range(n):
            groups.setdefault(find(x), 0)
            groups[find(x)] |= 1 << x
        return sorted(groups.values())

    def __repr__(self):
        return f"<FiniteTopSpace {len(self.points)} points>"


def discrete_space(points) -> FiniteTopSpace:
    return FiniteTopSpace(points, nb_masks=[1 << i for i in range(len(points))])


def sierpinski3() -> FiniteTopSpace:
    """Three points with opens {}, {1}, {1,2}, {1,2,3}."""
    return FiniteTopSpace(["1", "2", "3"], opens=[0b000, 0b001, 0b011, 0b111])


def digital_line(n: int) -> FiniteTopSpace:
    """Alternating open cells u_i and boundary vertices v_i on a line.

    Cell points u_0..u_n are open; each vertex v_i (i = 1..n) sticks to its
    two neighboring cells: its minimal neighborhood is {u_{i-1}, v_i, u_i}.
    A connected finite model of the real line.
    """
    if n < 1:
        raise InputError("digital line needs at least one vertex")
    points = []
    for i in range(n + 1):
        points.append(f"u{i}")
        if i < n:
            points.append(f"v{i + 1}")
    idx = {p: k for k, p in enumerate(points)}
    nb = []
    for p in points:
        if p.startswith("u"):
            nb.append(1 << idx[p])
        else:
            i = int(p[1:])
            nb.append((1 << idx[f"u{i - 1}"]) | (1 << idx[p])
                      | (1 << idx[f"u{i}"]))
    return FiniteTopSpace(points, nb_masks=nb)


def is_continuous_function(space: FiniteTopSpace, values: dict[str, float]
                           ) -> tuple[bool, dict | None]:
    """Real function continuity: constant on every minimal neighborhood."""
    vals = _total_values(space, values)
    for x in range(len(space.points)):
        for y in bits(space.nb_masks[x]):
            if vals[y] != vals[x]:
                return False, {"point": space.points[x],
                               "neighbor": space.points[y],
                               "values": [vals[x], vals[y]]}
    return True, None


def _total_values(space: FiniteTopSpace, values: dict[str, float]
                  ) -> list[float]:
    missing = [p for p in space.points if p not in values]
    if missing:
        raise InputError("function must be total", witness=missing)
    return [float(values[p]) for p in space.points]


# -- spectral families over the open-set lattice --------------------------------

@dataclass(frozen=True)
class TopSpectralFamily:
    space: FiniteTopSpace = field(compare=False)
    base: int = 0
    breakpoints: tuple[tuple[float, int], ...] = ()
    unbounded_above: bool = False

    def value_at(self, lam: float) -> int:
        return _step_value(self.breakpoints, lam, self.base)

    def admissible_domain(self) -> int:
        """Complement of the intersection of all values (= of the base)."""
        return self.space.full & ~self.base

    def to_pairs(self) -> list[tuple[float, list[str]]]:
        return [(lam, self.space.set_names(u)) for lam, u in self.breakpoints]


def top_spectral_family(space: FiniteTopSpace,
                        pairs, base: int = 0,
                        unbounded_above: bool = False) -> TopSpectralFamily:
    """Canonical form (``spectral._canonical_steps``) in the inclusion order
    from the open base; all values open, the last one the whole space unless
    the family is flagged unbounded above."""
    base = _mask(base)
    if not space.is_open(base):
        raise InputError("base value must be open",
                         witness=space.set_names(base))

    def check(u: int) -> int:
        if not space.is_open(u):
            raise InputError("family values must be open",
                             witness=space.set_names(u))
        return u

    steps = _canonical_steps(((lam, _mask(u)) for lam, u in pairs),
                             lambda u, v: u & v == u, operator.eq, base,
                             None if unbounded_above else space.full,
                             space.set_names, check)
    return TopSpectralFamily(space, base, steps, unbounded_above)


def sigma_from_function(space: FiniteTopSpace, values: dict[str, float]
                        ) -> TopSpectralFamily:
    """The canonical family of a total function: at each function value, the
    interior of the corresponding sublevel set."""
    vals = _total_values(space, values)
    pairs = []
    for v in sorted(set(vals)):
        sub = mask_from(i for i, fv in enumerate(vals) if fv <= v)
        pairs.append((v, space.interior(sub)))
    return top_spectral_family(space, pairs, base=0)


def induced_function(family: TopSpectralFamily, point: str) -> float:
    """Smallest breakpoint whose value contains the point; defined on the
    admissible domain only."""
    x = family.space.mask_of([point])
    if not x & family.admissible_domain():
        raise PreconditionError(
            f"{point} lies outside the admissible domain", witness=point)
    for lam, u in family.breakpoints:
        if u & x:
            return lam
    raise PreconditionError(
        f"the family never reaches {point}; it is unbounded above there",
        witness=point)


def is_continuous_family(family: TopSpectralFamily
                         ) -> tuple[bool, dict | None, dict]:
    """The closure of every earlier value must lie inside every later value.

    Step families are constant between breakpoints, so the binding instances
    are pairs inside one step: the closure of each value (the base included)
    must lie in the value itself, i.e. every value is closed as well as open.
    The witness names a failing pair (lambda, lambda + half gap).  When the
    verdict is true the report says each value is regular open and the
    admissible domain is open.  Both hold then without a check: each level
    is open (the builder checks the base and the values) and now closed, so
    it is its own interior of closure, and the admissible domain is the
    complement of the closed base.
    """
    space = family.space
    sp = [lam for lam, _ in family.breakpoints]
    gaps = [b - a for a, b in zip(sp, sp[1:])]
    eps = min(gaps) / 2 if gaps else 0.5
    levels = [(sp[0] - 1.0 if sp else 0.0, family.base)]
    levels += list(family.breakpoints)
    for lam, u in levels:
        if space.closure(u) != u:
            return False, {
                "lambda": lam, "mu": lam + eps,
                "value": space.set_names(u),
                "closure": space.set_names(space.closure(u))}, {}
    return True, None, {"regular_open": True, "admissible_domain_open": True}


# -- bridges and corpora ---------------------------------------------------------

def open_set_lattice(space: FiniteTopSpace
                     ) -> tuple[FiniteOrthoLattice, list[int]]:
    """The lattice of open sets (no orthocomplement), with the open mask per
    lattice element."""
    opens = space.opens()
    if len(opens) > ELEMENT_CAP:
        raise ResourceError(
            f"{len(opens)} open sets exceed the lattice cap {ELEMENT_CAP}")
    opens = sorted(opens, key=lambda u: (u.bit_count(), u))
    names = ["{" + ",".join(space.set_names(u)) + "}" for u in opens]
    # object ints: a space with few opens may have more than 64 points
    u = np.array(opens, dtype=object)[:, None]
    leq = (u & u.T) == u
    return FiniteOrthoLattice(names, leq, ortho=None), opens


def lattice_family_of(family: TopSpectralFamily):
    """The same family as a lattice-valued one over the open-set lattice."""
    if family.unbounded_above:
        raise PreconditionError("lattice form needs a bounded family")
    if family.base != 0:
        raise PreconditionError(
            "lattice form models empty-based families only",
            witness=family.space.set_names(family.base))
    lat, opens = open_set_lattice(family.space)
    pos = {u: i for i, u in enumerate(opens)}
    return spectral_family(
        lat, [(lam, pos[u]) for lam, u in family.breakpoints]), lat, opens


def all_topologies(n: int) -> list[list[int]]:
    """Every topology on n labeled points (n <= 4), as sorted open lists."""
    if not 1 <= n <= 4:
        raise ResourceError("exhaustive enumeration is for 1..4 points")
    full = (1 << n) - 1
    out = []
    for nb in product(*([m for m in range(1, full + 1) if m >> x & 1]
                        for x in range(n))):
        try:
            out.append(FiniteTopSpace(range(n), nb_masks=nb).opens())
        except InputError:
            continue
    return sorted(out, key=mask_from)


GRID_POINTS = 48


def grid_coordinates(lo: float, hi: float, step: float) -> list[float]:
    """At most GRID_POINTS points from lo, step apart, none past hi but for
    a relative slack of 1e-9 on the step count (so 0:1:0.1 ends at 1); the
    count is capped before any point is built."""
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise InputError("grid bounds and step must be finite",
                         witness={"lo": lo, "hi": hi, "step": step})
    if step <= 0 or hi <= lo:
        raise InputError("need lo < hi and a positive step")
    count = math.floor(min((hi - lo) / step, GRID_POINTS) * (1 + 1e-9))
    if count + 1 > GRID_POINTS:
        raise ResourceError(f"grid too fine; at most {GRID_POINTS} points")
    return [round(lo + k * step, 10) for k in range(count + 1)]


def _coord_label(x: float) -> str:
    return f"{x:g}"


DEMO_KINDS = ("id", "abs", "ln", "step", "step-line", "id-unbounded")


def demo_family(kind: str, lo: float = -2.0, hi: float = 2.0,
                step: float = 0.25) -> dict:
    """The worked families on a finite trace of the real line.

    id, abs and step come from their defining functions on the discrete grid
    trace; ln is built directly with the grid point 0 as the base value (its
    induced function is defined away from 0 only); id-unbounded chops the
    last step off id and flags the family; step-line realizes the floor
    function on a connected line model, where it genuinely fails the
    continuity property.
    """
    if kind not in DEMO_KINDS:
        raise InputError(f"unknown demo family {kind!r}",
                         witness=sorted(DEMO_KINDS))
    notes: list[str] = []
    if kind == "step-line":
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InputError("grid bounds must be finite",
                             witness={"lo": lo, "hi": hi})
        if not step > 0 or hi <= lo:    # the step may still be nan
            raise InputError("need lo < hi and a positive step")
        n = max(1, round(min(hi - lo, GRID_POINTS)))
        if 2 * n + 1 > GRID_POINTS:
            raise ResourceError(f"line too long; at most {GRID_POINTS} points",
                                witness={"points": 2 * n + 1})
        space = digital_line(n)
        coords = {}
        for p in space.points:
            if p.startswith("u"):
                coords[p] = lo + int(p[1:]) + 0.5
            else:
                coords[p] = lo + float(int(p[1:]))
        values = {p: float(math.floor(c)) for p, c in coords.items()}
        family = sigma_from_function(space, values)
        targets = values
    else:
        xs = grid_coordinates(lo, hi, step)
        space = discrete_space([_coord_label(x) for x in xs])
        coord = {_coord_label(x): x for x in xs}
        if kind == "ln":
            targets = {p: math.log(abs(x)) for p, x in coord.items()
                       if x != 0.0}
            if len(targets) == len(coord):
                notes.append("grid misses 0; base value is empty")
                base = 0
            else:
                base = space.mask_of([_coord_label(0.0)])
                notes.append("0 sits in every value; the admissible domain "
                             "drops it")
            pairs = []
            for v in sorted(set(targets.values())):
                pairs.append((v, base | space.mask_of(
                    [p for p, t in targets.items() if t <= v])))
            family = top_spectral_family(space, pairs, base=base)
        else:
            fn = {"id": lambda x: x, "abs": abs,
                  "step": lambda x: float(math.floor(x)),
                  "id-unbounded": lambda x: x}[kind]
            values = {p: float(fn(x)) for p, x in coord.items()}
            family = sigma_from_function(space, values)
            targets = values
            if kind == "id-unbounded":
                family = top_spectral_family(
                    space, family.breakpoints[:-1], base=0,
                    unbounded_above=True)
                cut = max(v for v, _ in family.breakpoints)
                targets = {p: v for p, v in values.items() if v <= cut}
                notes.append("flagged unbounded above; boundedness checks "
                             "are skipped with this notice")
    return {"kind": kind, "space": space, "family": family,
            "targets": targets, "notes": notes}


def continuous_functions(space: FiniteTopSpace, values: list[float]
                         ) -> list[dict[str, float]]:
    """All assignments from the given value list that are constant on the
    linkage classes (exactly the continuous real functions up to the choice
    of value set)."""
    classes = space.nb_classes()
    out = []
    for k in range(len(values) ** len(classes)):
        x = k
        assign = {}
        for cls in classes:
            v = values[x % len(values)]
            x //= len(values)
            for i in bits(cls):
                assign[space.points[i]] = v
        out.append(assign)
    return out
