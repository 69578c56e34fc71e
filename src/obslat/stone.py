"""Dual ideals and quasipoints of a finite lattice.

A dual ideal is a nonempty, upward-closed, meet-closed proper subset (it never
contains the bottom element).  In a finite lattice every dual ideal has a
minimum, so it is the principal up-set of its generator, which is all a
``DualIdeal`` stores; enumeration walks the nonzero elements instead of
scanning subsets, and quasipoints (the maximal dual ideals) are exactly the
up-sets of atoms.  Subsets are bitmasks over element indices.  The canonical
order of the ideals under a top is sorted once per lattice and top and
memoized on the lattice, so enumeration, the axiom checks and the inclusion
graph share one sort.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .errors import PreconditionError
from .lattice import FiniteOrthoLattice, bits, mask_from


@dataclass(frozen=True)
class DualIdeal:
    """An upward-closed, meet-closed set of nonzero elements, held as its
    least member: the ideal is that generator's up-set."""
    lattice: FiniteOrthoLattice = field(compare=False)
    least: int

    @property
    def mask(self) -> int:
        return self.lattice.upset_mask(self.least)

    def members(self) -> list[int]:
        return bits(self.mask)

    def names(self) -> list[str]:
        return [self.lattice.names[i] for i in self.members()]

    def contains(self, a: int) -> bool:
        return bool(self.mask >> a & 1)

    def generator(self) -> int:
        """The minimum member; the ideal is its principal up-set."""
        return self.least

    def size(self) -> int:
        return self.mask.bit_count()

    def __repr__(self):
        return "{" + ",".join(self.names()) + "}"


def principal(lattice: FiniteOrthoLattice, a: int) -> DualIdeal:
    """The up-set of a nonzero element."""
    lattice._check_element(a, "ideal generator")
    if a == lattice.zero:
        raise PreconditionError(
            "the up-set of bottom is the whole lattice, not a proper dual ideal")
    return DualIdeal(lattice, a)


def is_filter_base(lattice: FiniteOrthoLattice, subset: Iterable[int]
                   ) -> tuple[bool, dict | None]:
    """Nonempty, bottom-free, and downward directed inside itself.

    A finite set is directed exactly when it holds its own meet, so the meet
    decides.  A refusal names the first pair, in ascending index order, with
    no lower bound in the set."""
    elems = sorted({lattice._check_element(a, "filter base member")
                    for a in subset})
    if not elems:
        return False, {"kind": "empty"}
    if lattice.zero in elems:
        return False, {"kind": "contains-bottom"}
    if lattice.meet_of(elems) in elems:
        return True, None
    mask, down = mask_from(elems), lattice.downset_mask
    a, b = next((a, b) for a, b in combinations(elems, 2)
                if not down(a) & down(b) & mask)
    return False, {"kind": "no-lower-bound-in-set",
                   "pair": [lattice.names[a], lattice.names[b]]}


def cone(lattice: FiniteOrthoLattice, subset: Iterable[int]) -> DualIdeal:
    """Smallest dual ideal containing a filter base: the up-set of its meet,
    which the base holds."""
    elems = list(subset)
    ok, why = is_filter_base(lattice, elems)
    if not ok:
        raise PreconditionError("cone needs a filter base", witness=why)
    return principal(lattice, lattice.meet_of(elems))


def canonical_order(lattice: FiniteOrthoLattice, top: int | None = None
                    ) -> list[int]:
    """Generators of the dual ideals under ``top`` (default the lattice top),
    sorted by the size, then the member tuple, of up(a) meet down(top) so
    reports are deterministic.

    The order depends on the lattice and the top alone, so it is sorted once
    per top and memoized on the lattice; each call returns a fresh list."""
    top = lattice.one if top is None else top
    lattice._check_element(top, "ideal top")
    order = lattice._orders.get(top)
    if order is None:
        under = lattice.downset_mask(top)

        def key(a: int) -> tuple[int, list[int]]:
            m = lattice.upset_mask(a) & under
            return m.bit_count(), bits(m)

        order = tuple(sorted(bits(under & ~(1 << lattice.zero)), key=key))
        lattice._orders[top] = order
    return list(order)


def enumerate_dual_ideals(lattice: FiniteOrthoLattice) -> list[DualIdeal]:
    """All dual ideals: one principal up-set per nonzero element."""
    return [DualIdeal(lattice, a) for a in canonical_order(lattice)]


def enumerate_quasipoints(lattice: FiniteOrthoLattice) -> list[DualIdeal]:
    """Maximal dual ideals: the up-sets of atoms, in canonical order."""
    atoms = set(lattice.atoms())
    return [DualIdeal(lattice, t) for t in canonical_order(lattice)
            if t in atoms]


def basis_set(lattice: FiniteOrthoLattice, a: int) -> list[DualIdeal]:
    """Quasipoints containing the element a (a basic open of the spectrum)."""
    lattice._check_element(a, "basis element")
    if a == lattice.zero:
        return []
    return [q for q in enumerate_quasipoints(lattice) if q.contains(a)]


def quasipoints_over_center(lattice: FiniteOrthoLattice,
                            quasipoint: DualIdeal) -> DualIdeal:
    """Trace of a quasipoint on the center sublattice: a center dual ideal
    (it holds the top, not the bottom), so the up-set of its meet there."""
    central = lattice.center()
    sub, parent_idx = lattice.sublattice(central)
    pos = {m: k for k, m in enumerate(parent_idx)}
    return principal(sub, sub.meet_of(pos[z] for z in central
                                      if quasipoint.contains(z)))


def inclusion_dot(lattice: FiniteOrthoLattice) -> str:
    """DOT digraph of dual ideals ordered by inclusion (cover edges only).

    up(a) is covered by up(b) exactly when a covers b and b is nonzero.
    """
    order = canonical_order(lattice)
    rank = {a: k for k, a in enumerate(order)}
    label = [f'"H({s})"' for s in lattice.names]
    lines = ["digraph dual_ideals {", "  rankdir=BT;"]
    lines += [f"  {label[a]};" for a in order]
    edges = sorted((rank[a], rank[b]) for b, a in lattice.covers()
                   if b != lattice.zero)
    lines += [f"  {label[order[i]]} -> {label[order[k]]};" for i, k in edges]
    lines.append("}")
    return "\n".join(lines)
