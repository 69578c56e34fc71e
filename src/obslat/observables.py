"""Observable functions on dual ideals and their reconstruction.

An observable function assigns a real to every dual ideal, subject to two
axioms: the intersection condition (the value of an intersection of dual
ideals is the supremum of the values) and upper semicontinuity (equivalently,
the function is decreasing under inclusion and every value is the minimum of
the values at the principal up-sets of the ideal's members).

Every dual ideal of a finite lattice is the principal up-set of its
generator, so there is one table: one real per nonzero element under its
top.  Read on dual ideals it is the observable function f; read on elements
it is the function r(P) = f(up-set of P), completely increasing exactly when
f obeys the intersection condition.  Under the top, up(a) meets up(b) in
up(a join b), so both are one join law r(a join b) = max(r(a), r(b)); up(a)
lies strictly inside up(b) exactly when b < a, so decreasing under inclusion
is r increasing.  The join law is scanned in canonical ideal order (size,
then member tuple) for tables, and witnesses name ideals; it is scanned in
element order for completely increasing functions and context sections,
and witnesses name elements.  The rebuilt spectral family takes at each
value v the join of the elements valued at most v.

Values are finite 64-bit floats compared exactly; reconstruction partitions
the table by value equality, so tables should stick to exactly representable
decimals.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import CheckFailure, InputError, PreconditionError
from .lattice import FiniteOrthoLattice, bits
from .spectral import SpectralFamily, spectral_family
from .stone import DualIdeal, canonical_order


# the types a table value may have, but a bool is refused, as the JSON
# readers refuse one
_REALS = (float, int, np.floating, np.integer)


@dataclass(frozen=True)
class ObservableFunction:
    """Total real table on the dual ideals of (the down-set under top of) a
    finite lattice, keyed by the ideal's generator.  Read on elements, the
    same table is the function r(P) = f(up-set of P)."""
    lattice: FiniteOrthoLattice = field(compare=False)
    values: tuple[float | None, ...] = ()    # indexed by element; None off-domain
    top: int = 0

    def domain(self) -> list[int]:
        return [a for a in range(self.lattice.n) if self.values[a] is not None]

    def at_element(self, a: int) -> float:
        v = self.values[a]
        if v is None:
            raise PreconditionError(
                f"no value at {self.lattice.names[a]}",
                witness=self.lattice.names[a])
        return v

    def at_ideal(self, ideal: DualIdeal) -> float:
        """f of a dual ideal: the value at its generator (= min over members)."""
        return self.at_element(ideal.generator())

    def image(self) -> list[float]:
        return sorted(set(self.values[a] for a in self.domain()))


def observable(lattice: FiniteOrthoLattice, values: dict[int, float],
               top: int | None = None, checked: bool = True
               ) -> ObservableFunction:
    """Build a table from per-generator values; verify both axioms unless
    ``checked`` is False (the escape hatch for deliberately broken tables).
    Upper semicontinuity follows from the intersection condition (see
    ``reconstruct``), so only the latter is run."""
    if top is None:
        top = lattice.one
    lattice._check_element(top, "table top")
    if top == lattice.zero:
        raise PreconditionError(
            f"no dual ideal lies under the top {lattice.names[top]}, the "
            f"bottom", witness=lattice.names[top])
    under = lattice.downset_mask(top) & ~(1 << lattice.zero)
    cells: list[float | None] = [None] * lattice.n
    for a, v in values.items():
        if not lattice._is_element(a):
            raise InputError("value keyed by unknown element", witness=a)
        a = int(a)
        if not under >> a & 1:
            raise InputError(
                f"values may only sit at nonzero elements under the top "
                f"{lattice.names[top]}", witness=lattice.names[a])
        # NaN fails the comparison, as does an int past the float range
        if type(v) is bool or not isinstance(v, _REALS) \
                or not abs(v) <= sys.float_info.max:
            raise InputError(
                f"the value at {lattice.names[a]} is not a finite real",
                witness=lattice.names[a])
        cells[a] = float(v)
    missing = [lattice.names[a] for a in bits(under) if cells[a] is None]
    if missing:
        raise InputError("table is not total", witness=missing)
    f = ObservableFunction(lattice, tuple(cells), top)
    if checked:
        ok, witness = check_intersection_condition(f)
        if not ok:
            raise CheckFailure("intersection condition fails", witness=witness)
    return f


def observable_from_spectral(family: SpectralFamily, ideal: DualIdeal) -> float:
    """inf of the breakpoints whose element lies in the ideal."""
    for lam, e in family.breakpoints:
        if ideal.contains(e):
            return lam
    raise PreconditionError(
        "the family never enters the ideal; it is not bounded above inside it",
        witness=ideal.names())


def observable_table(family: SpectralFamily) -> ObservableFunction:
    """The full table of a bounded family, one value per principal up-set."""
    lat = family.lattice
    dom = bits(lat.downset_mask(family.top) & ~(1 << lat.zero))
    # the first breakpoint above each a; the last one, the top, is above all
    first = lat.leq[np.ix_(dom, family.elements())].argmax(axis=1)
    lams = np.array(family.spectrum())[first].tolist()
    return observable(lat, dict(zip(dom, lams)), top=family.top, checked=False)


# -- the axioms, decided on elements ------------------------------------------

def _ideal_of(f: ObservableFunction, a: int) -> list[int]:
    """Members of the dual ideal generated by a, within the table's domain."""
    return bits(f.lattice.upset_mask(a) & f.lattice.downset_mask(f.top))


def _ideal_names(f: ObservableFunction, a: int) -> list[str]:
    return [f.lattice.names[b] for b in _ideal_of(f, a)]


def _join_law(f: ObservableFunction, order: list[int], key: str,
              name: Callable[[int], object]) -> tuple[bool, dict | None]:
    """f(a join b) == max(f(a), f(b)) over ``order`` squared, row by row.
    The witness names the first failing pair, and their join under ``key``,
    by ``name``."""
    idx = np.array(order, dtype=np.int64)
    vals = np.array([0.0 if v is None else v for v in f.values])
    joins = f.lattice.join_table[np.ix_(idx, idx)]
    bad = np.flatnonzero(vals[joins] != np.maximum.outer(vals[idx], vals[idx]))
    if not bad.size:
        return True, None
    i, k = divmod(int(bad[0]), len(order))
    a, b = order[i], order[k]
    j = f.lattice.join(a, b)
    return False, {"family": [name(a), name(b)], key: name(j),
                   "value": f.values[j],
                   "sup_of_values": max(f.values[a], f.values[b])}


def check_intersection_condition(f: ObservableFunction
                                 ) -> tuple[bool, dict | None]:
    """f(J intersect K) == max(f(J), f(K)) over all pairs of dual ideals.

    Pairs decide all finite families: intersecting one ideal at a time turns
    any family into a chain of binary steps, so a pairwise pass is exact.  The
    ideals generated by a and b meet in the one generated by a join b, so the
    pass is the join law on the generators, in the canonical ideal order.
    """
    return _join_law(f, canonical_order(f.lattice, f.top), "intersection",
                     lambda a: _ideal_names(f, a))


def check_completely_increasing(r: ObservableFunction
                                ) -> tuple[bool, dict | None]:
    """r(a join b) == max(r(a), r(b)) on all pairs, in element order; pairs
    decide all finite joins by the same chaining argument as the
    intersection condition."""
    return _join_law(r, r.domain(), "join", lambda a: r.lattice.names[a])


def check_upper_semicontinuous(f: ObservableFunction
                               ) -> tuple[bool, dict | None]:
    """Decreasing under inclusion, and every value is the min over the
    ideal's principal values.  On a finite lattice these two together are the
    upper-semicontinuity of the table.  The ideal of a lies strictly inside
    the ideal of b exactly when b < a, so the first part asks r increasing.
    The second part then holds by itself: a is the least member of its
    ideal's domain part, so its value is already the min."""
    order = canonical_order(f.lattice, f.top)
    idx = np.array(order, dtype=np.int64)
    vals = np.array([f.values[a] for a in order], dtype=float)
    below = f.lattice.leq[np.ix_(idx, idx)].T & ~np.eye(len(order), dtype=bool)
    bad = np.flatnonzero(below & (vals[:, None] < vals[None, :]))
    if bad.size:
        i, k = divmod(int(bad[0]), len(order))
        a, b = order[i], order[k]
        return False, {
            "kind": "not-decreasing",
            "smaller": _ideal_names(f, a), "larger": _ideal_names(f, b),
            "values": [f.values[a], f.values[b]]}
    return True, None


def reconstruct(f: ObservableFunction) -> SpectralFamily:
    """The unique bounded spectral family whose table is f.

    Refuses tables that fail the intersection condition.  That check alone
    decides both axioms: for b <= a the join law reads
    r(a) = max(r(a), r(b)) >= r(b), so r is increasing and the table is upper
    semicontinuous.  The breakpoints are exactly the image values; at value v
    the element is the generator of the intersection of all ideals with
    value <= v, which is the join of their generators.
    """
    ok, witness = check_intersection_condition(f)
    if not ok:
        raise CheckFailure("reconstruction refused: intersection condition "
                           "fails", witness=witness)
    return _rebuild(f)


def _rebuild(f: ObservableFunction) -> SpectralFamily:
    """``reconstruct`` for a table already known to obey the join law."""
    lat = f.lattice
    dom = f.domain()
    pairs = [(v, lat.join_of(a for a in dom if f.values[a] <= v))
             for v in f.image()]
    return spectral_family(lat, pairs, top=f.top)


def observable_from_increasing(r: ObservableFunction
                               ) -> tuple[ObservableFunction, bool, dict | None]:
    """The table valued at each a by the min of r over a's dual ideal, plus
    r's completely-increasing verdict.

    The table is computed either way.  When r passes, r is increasing, so
    the min over a's ideal is r(a) and the table is r itself.
    """
    ok, witness = check_completely_increasing(r)
    vals = {a: min(r.values[b] for b in _ideal_of(r, a)) for a in r.domain()}
    f = observable(r.lattice, vals, top=r.top, checked=False)
    return f, ok, witness


def observability_criterion(lattice: FiniteOrthoLattice,
                            quasipoint_values: dict[int, float]
                            ) -> tuple[bool, dict | None, SpectralFamily | None]:
    """Decide whether a real table on the quasipoints extends to an
    observable function.

    The quasipoints are the up-sets of the atoms.  The candidate element
    function takes at P the max over the quasipoints containing P (finite,
    so the sup is attained); the verdict is whether that candidate is
    completely increasing.  On success the reconstructed spectral family is
    returned as the witness of observability.
    """
    for t in quasipoint_values:
        lattice._check_element(t, "quasipoint key")
    atoms = lattice.atoms()
    if set(quasipoint_values) != set(atoms):
        raise InputError(
            "need exactly one value per quasipoint, keyed by its atom",
            witness=sorted(lattice.names[t] for t in
                           set(atoms) ^ set(quasipoint_values)))
    # every nonzero element of a finite lattice lies over an atom
    vals = {a: max(quasipoint_values[t] for t in atoms if lattice.le(t, a))
            for a in range(lattice.n) if a != lattice.zero}
    r = observable(lattice, vals, checked=False)
    ok, witness = check_completely_increasing(r)
    if not ok:
        return False, witness, None
    # the join law makes r increasing, so f_r is r itself and obeys both axioms
    return True, None, _rebuild(r)


def restrict_observable(f: ObservableFunction, members: Iterable[int]
                        ) -> tuple[ObservableFunction, FiniteOrthoLattice]:
    """Restriction to a sub-ortholattice: evaluate f at the parent cone of
    each of the sub's dual ideals.  The cone of the sub's up-set of a is the
    parent's up-set of a, so the value is f's value at a."""
    lat = f.lattice
    if f.top != lat.one:
        raise PreconditionError("restriction starts from a whole-lattice table")
    sub, parent_idx = lat.sublattice(members)
    vals = {a_sub: f.at_element(parent_idx[a_sub])
            for a_sub in range(sub.n) if a_sub != sub.zero}
    return observable(sub, vals, checked=False), sub
