"""Bounded spectral families, and the canonical form shared by the three
orders that carry one: elements of a finite lattice (here), open sets of a
finite space (``classical``) and projections (``vn``).

A family is a finite list of breakpoints (lambda_i, E_i) with strictly
increasing lambdas and increasing values, read as the right-continuous step
map that is E_i on [lambda_i, lambda_{i+1}) and the base value below
lambda_1.  ``_canonical_steps`` and ``_step_value`` build and evaluate it for
any order; the three family types wrap them.  In a lattice the base is
bottom and the last element must equal the family's top (the whole-lattice
top by default; a smaller top models a family living in the down-set
sublattice under it).  Breakpoint reals are compared exactly: the corpus
sticks to small decimals, so no epsilon is needed at the lattice layer.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InputError, PreconditionError
from .lattice import FiniteOrthoLattice


def _canonical_steps(pairs, le, same, base, top, show, check=lambda v: v):
    """Canonical (lambda, value) steps in the order ``le``: lambdas finite,
    values passed through ``check`` in input order, then sorted by lambda,
    one value per lambda, increasing from ``base``; a step ``same`` as
    ``base`` at the front or as its predecessor is dropped (the step map is
    unchanged), and the last value must be ``top`` unless that is None.
    Witnesses render values with ``show``."""
    raw = list(pairs)
    if not raw and top is not None:
        raise InputError("a spectral family needs at least one breakpoint")
    for k, (lam, v) in enumerate(raw):
        try:
            lam = float(lam)
        except (TypeError, ValueError, OverflowError):
            raise InputError("breakpoints must be finite reals",
                             witness=repr(lam)) from None
        if not math.isfinite(lam):
            raise InputError("breakpoints must be finite reals", witness=lam)
        raw[k] = (lam, check(v))
    raw.sort(key=lambda p: p[0])
    for (l1, v1), (l2, v2) in zip(raw, raw[1:]):
        if l1 == l2 and not same(v1, v2):
            raise InputError(f"two different elements at breakpoint {l1:g}",
                             witness=[show(v1), show(v2)])
        if not le(v1, v2):
            raise InputError("family is not increasing",
                             witness=[[l1, show(v1)], [l2, show(v2)]])
    if raw and not le(base, raw[0][1]):
        raise InputError("base must lie below every value",
                         witness=show(raw[0][1]))
    canon: list[tuple[float, object]] = []
    for lam, v in raw:
        if not same(v, canon[-1][1] if canon else base):
            canon.append((lam, v))
    if top is not None and not (canon and same(canon[-1][1], top)):
        raise InputError("family must reach its top element",
                         witness=show(top))
    return tuple(canon)


def _step_value(steps, lam: float, below):
    """The value at the largest breakpoint <= lam; ``below`` before the
    first.  ``steps`` iterates (lambda, value) in increasing lambda."""
    reached = [v for lam_i, v in steps if lam_i <= lam]
    return reached[-1] if reached else below


@dataclass(frozen=True)
class SpectralFamily:
    lattice: FiniteOrthoLattice = field(compare=False)
    breakpoints: tuple[tuple[float, int], ...] = ()
    top: int = 0

    def elements(self) -> list[int]:
        return [e for _, e in self.breakpoints]

    def spectrum(self) -> list[float]:
        return [lam for lam, _ in self.breakpoints]

    def value_at(self, lam: float) -> int:
        """The step value: the element at the largest breakpoint <= lam."""
        return _step_value(self.breakpoints, lam, self.lattice.zero)

    def to_pairs(self) -> list[tuple[float, str]]:
        return [(lam, self.lattice.names[e]) for lam, e in self.breakpoints]

    def __repr__(self):
        inner = ", ".join(f"({lam:g}, {self.lattice.names[e]})"
                          for lam, e in self.breakpoints)
        return f"[{inner}]"


def spectral_family(lattice: FiniteOrthoLattice,
                    pairs: Iterable[tuple[float, int]],
                    top: int | None = None) -> SpectralFamily:
    """Canonical form (``_canonical_steps``) in the lattice order from
    bottom; every element must lie in range and below ``top``."""
    if top is None:
        top = lattice.one
    lattice._check_element(top, "family top")

    def check(e: int) -> int:
        if not lattice._is_element(e):
            raise InputError("breakpoint element out of range", witness=e)
        if not lattice.le(e, top):
            raise InputError(
                f"element {lattice.names[e]} exceeds the family top "
                f"{lattice.names[top]}",
                witness=[lattice.names[e], lattice.names[top]])
        return int(e)

    steps = _canonical_steps(pairs, lattice.le, operator.eq, lattice.zero,
                             top, lattice.names.__getitem__, check)
    return SpectralFamily(lattice, steps, top)


def constant_family(lattice: FiniteOrthoLattice, value: float,
                    top: int | None = None) -> SpectralFamily:
    return spectral_family(lattice, [(value, top if top is not None
                                      else lattice.one)], top)


def projection_family(lattice: FiniteOrthoLattice, p: int) -> SpectralFamily:
    """The two-step family of an orthocomplemented element: its complement at
    0, top at 1.  Degenerate p in {0, top} collapses to one step."""
    lattice._check_element(p, "projection")
    return spectral_family(
        lattice, [(0.0, lattice.orthocomplement(p)), (1.0, lattice.one)])


def restrict_family(family: SpectralFamily, a: int) -> SpectralFamily:
    """Meet every value with a; the result lives under the new top a."""
    lat = family.lattice
    lat._check_element(a, "restriction target")
    new_top = lat.meet(family.top, a)
    if new_top == lat.zero:
        raise PreconditionError(
            "restriction target meets the family top in bottom",
            witness=lat.names[a])
    return spectral_family(
        lat, [(lam, lat.meet(e, a)) for lam, e in family.breakpoints], new_top)


def sample_family(lattice: FiniteOrthoLattice, rng) -> SpectralFamily:
    """Random bounded family: a random chain of at most 4 elements up to top,
    with breakpoints drawn from the grid -2, -1.75, ..., 2."""
    grid = [round(-2.0 + 0.25 * i, 2) for i in range(21)]
    chain = [lattice.one]
    while len(chain) < 4:
        below = [e for e in range(lattice.n)
                 if e not in (lattice.zero, chain[-1])
                 and lattice.le(e, chain[-1])]
        if not below or rng.random() < 0.35:
            break
        chain.append(below[rng.randrange(len(below))])
    chain.reverse()
    lams = sorted(rng.sample(grid, len(chain)))
    return spectral_family(lattice, list(zip(lams, chain)))
