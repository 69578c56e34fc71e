"""Finite bounded lattices with optional orthocomplement.

Elements are identified by index into a name tuple.  The order relation is a
dense boolean matrix ``leq`` with ``leq[i, j] == True`` iff ``i <= j``.  Each
element also keeps its down-set and its up-set as int bitmasks (bit k set for
element k).  The lower bounds of a pair are ``down[i] & down[j]``, and the
pair has a meet exactly when that mask is itself the down-set of an element,
which a dict from down-set mask to element looks up; joins are found the same
way from up-sets.  Meet and join are precomputed n-by-n tables; structural
checks (distributivity, orthomodularity) scan exhaustively and report the
first counterexample in lexicographic index order.

Subsets of elements are passed around as bitmasks (int) throughout the
package; helpers live at the bottom of this module.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, PreconditionError, ResourceError

ELEMENT_CAP = 64


class FiniteOrthoLattice:
    """A finite bounded lattice, optionally with an orthocomplementation.

    Construction validates everything: antisymmetry, existence of all binary
    meets and joins, unique bottom and top, and (when present) that ``ortho``
    is an involutive order-reversing complement.
    """

    def __init__(self, names: Sequence[str], leq: np.ndarray,
                 ortho: Sequence[int] | None = None):
        names = tuple(str(s) for s in names)
        n = len(names)
        if n == 0:
            raise InputError("empty element list")
        if len(set(names)) != n:
            raise InputError("duplicate element names", witness=sorted(
                s for s in set(names) if list(names).count(s) > 1))
        if n > ELEMENT_CAP:
            raise ResourceError(f"{n} elements exceeds cap {ELEMENT_CAP}",
                                witness={"n": n, "cap": ELEMENT_CAP})
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise InputError(f"leq matrix must be {n}x{n}")
        self.names = names
        self.leq = _transitive_reflexive_closure(leq)

        bad = np.argwhere(self.leq & self.leq.T & ~np.eye(n, dtype=bool))
        if bad.size:
            i, j = (int(x) for x in bad[0])
            raise InputError(
                f"not a partial order: {names[i]} <= {names[j]} <= {names[i]}",
                witness=[names[i], names[j]])

        self.zero = self._unique_extremum(bottom=True)
        self.one = self._unique_extremum(bottom=False)
        self._down = [mask_from(np.flatnonzero(self.leq[:, i])) for i in range(n)]
        self._up = [mask_from(np.flatnonzero(self.leq[i, :])) for i in range(n)]
        self.meet_table, self.join_table = self._build_tables()
        # stone.canonical_order's memo, top -> sorted generators; it reads
        # only leq, which never changes after this point
        self._orders: dict[int, tuple[int, ...]] = {}

        self.ortho: tuple[int, ...] | None = None
        if ortho is not None:
            self.ortho = tuple(int(k) for k in ortho)
            self._validate_ortho()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_relation(cls, names: Sequence[str],
                      pairs: Iterable[tuple[str, str]],
                      ortho_pairs: dict[str, str] | None = None
                      ) -> "FiniteOrthoLattice":
        """Build from named order pairs (any relation whose closure is the order).

        ``ortho_pairs`` may be partial; it is symmetrized, and bottom/top are
        paired automatically.  Every element must end up with an image.
        """
        names = tuple(str(s) for s in names)
        index = {s: i for i, s in enumerate(names)}
        n = len(names)
        rel = np.zeros((n, n), dtype=bool)
        for a, b in pairs:
            if a not in index or b not in index:
                raise InputError(f"leq pair ({a!r}, {b!r}) names unknown element",
                                 witness=[a, b])
            rel[index[a], index[b]] = True
        lat = cls(names, rel, ortho=None)
        if ortho_pairs is not None:
            omap: dict[int, int] = {lat.zero: lat.one, lat.one: lat.zero}
            for a, b in ortho_pairs.items():
                if a not in index or b not in index:
                    raise InputError(f"ortho pair ({a!r}, {b!r}) names unknown element",
                                     witness=[a, b])
                i, j = index[a], index[b]
                for x, y in ((i, j), (j, i)):
                    if omap.get(x, y) != y:
                        raise InputError(
                            f"conflicting orthocomplements for {names[x]}",
                            witness=names[x])
                    omap[x] = y
            missing = [names[i] for i in range(n) if i not in omap]
            if missing:
                raise InputError("orthocomplement undefined for some elements",
                                 witness=missing)
            lat.ortho = tuple(omap[i] for i in range(n))
            lat._validate_ortho()
        return lat

    def _unique_extremum(self, bottom: bool) -> int:
        mat = self.leq if bottom else self.leq.T
        hits = [i for i in range(len(self.names)) if mat[i].all()]
        kind = "bottom" if bottom else "top"
        if len(hits) != 1:
            raise InputError(f"lattice must have a unique {kind} element",
                             witness=[self.names[i] for i in hits])
        return hits[0]

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.names)
        below = {m: k for k, m in enumerate(self._down)}
        above = {m: k for k, m in enumerate(self._up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                # the lower bounds are the down-set of the meet, if it exists
                glb = below.get(self._down[i] & self._down[j])
                if glb is None:
                    raise InputError(
                        f"no greatest lower bound for ({self.names[i]}, {self.names[j]})",
                        witness=[self.names[i], self.names[j]])
                meet[i][j] = meet[j][i] = glb
                lub = above.get(self._up[i] & self._up[j])
                if lub is None:
                    raise InputError(
                        f"no least upper bound for ({self.names[i]}, {self.names[j]})",
                        witness=[self.names[i], self.names[j]])
                join[i][j] = join[j][i] = lub
        return np.array(meet, dtype=np.int64), np.array(join, dtype=np.int64)

    def _validate_ortho(self):
        o = self.ortho
        n = len(self.names)
        if len(o) != n or sorted(o) != list(range(n)):
            raise InputError("ortho must be a permutation of the elements")
        for a in range(n):
            if o[o[a]] != a:
                raise InputError(f"ortho not involutive at {self.names[a]}",
                                 witness=self.names[a])
            if self.meet_table[a, o[a]] != self.zero:
                raise InputError(f"{self.names[a]} meet its ortho is not bottom",
                                 witness=self.names[a])
            if self.join_table[a, o[a]] != self.one:
                raise InputError(f"{self.names[a]} join its ortho is not top",
                                 witness=self.names[a])
        for a in range(n):
            for b in range(n):
                if self.leq[a, b] and not self.leq[o[b], o[a]]:
                    raise InputError(
                        "ortho is not order-reversing",
                        witness=[self.names[a], self.names[b]])

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element {name!r}", witness=name) from None

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    def meet(self, a: int, b: int) -> int:
        return int(self.meet_table[a, b])

    def join(self, a: int, b: int) -> int:
        return int(self.join_table[a, b])

    def meet_of(self, elems: Iterable[int]) -> int:
        # empty meet is the top element, the usual complete-lattice convention
        out = self.one
        for e in elems:
            out = int(self.meet_table[out, e])
        return out

    def join_of(self, elems: Iterable[int]) -> int:
        out = self.zero
        for e in elems:
            out = int(self.join_table[out, e])
        return out

    def orthocomplement(self, a: int) -> int:
        if self.ortho is None:
            raise PreconditionError("lattice has no orthocomplementation")
        return self.ortho[a]

    def atoms(self) -> list[int]:
        """Minimal nonzero elements, ascending by index."""
        return [a for a in range(self.n) if a != self.zero
                and self._down[a] == (1 << a) | (1 << self.zero)]

    def upset_mask(self, a: int) -> int:
        """Bitmask of ``{b : a <= b}``."""
        return self._up[a]

    def downset_mask(self, a: int) -> int:
        """Bitmask of ``{b : b <= a}``."""
        return self._down[a]

    def downset(self, a: int) -> list[int]:
        return bits(self._down[a])

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with b covering a."""
        # b covers a when the interval [a, b] holds nothing else
        return [(a, b) for a in range(self.n) for b in range(self.n)
                if a != b and self._up[a] & self._down[b] == (1 << a) | (1 << b)]

    # -- structural checks -------------------------------------------------

    def is_distributive(self) -> tuple[bool, tuple[str, str, str] | None]:
        """Exhaustive triple scan; first counterexample in lex index order."""
        mt, jt = self.meet_table, self.join_table
        n = self.n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if mt[a, jt[b, c]] != jt[mt[a, b], mt[a, c]]:
                        return False, (self.names[a], self.names[b], self.names[c])
        return True, None

    def is_orthomodular(self) -> tuple[bool, tuple[str, str] | None]:
        """a <= b implies b = a join (b meet ortho(a)); needs ortho."""
        if self.ortho is None:
            raise PreconditionError("orthomodularity needs an orthocomplementation")
        mt, jt, o = self.meet_table, self.join_table, self.ortho
        for a in range(self.n):
            for b in range(self.n):
                if self.leq[a, b] and jt[a, mt[b, o[a]]] != b:
                    return False, (self.names[a], self.names[b])
        return True, None

    def is_boolean(self) -> bool:
        if self.ortho is None:
            return False
        return self.is_distributive()[0]

    def is_atomistic(self) -> bool:
        """Every element is the join of the atoms below it."""
        ats = self.atoms()
        return all(self.join_of(t for t in ats if self.leq[t, a]) == a
                   for a in range(self.n))

    def center(self) -> list[int]:
        """Elements compatible with everything: z = (z meet a) join (z meet ortho(a)).

        Requires an orthomodular lattice; there compatibility is symmetric and
        the set returned is a Boolean sublattice.
        """
        ok, wit = self.is_orthomodular()
        if not ok:
            raise PreconditionError(
                "center is only computed for orthomodular lattices", witness=wit)
        mt, jt, o = self.meet_table, self.join_table, self.ortho
        out = []
        for z in range(self.n):
            if all(jt[mt[z, a], mt[z, o[a]]] == z for a in range(self.n)):
                out.append(z)
        return out

    # -- sublattices ---------------------------------------------------------

    def sublattice(self, members: Iterable[int]
                   ) -> tuple["FiniteOrthoLattice", list[int]]:
        """Induced lattice on ``members``; returns (sub, parent index per sub index).

        ``members`` must contain bottom and top and be closed under binary meet
        and join.  When the parent has an orthocomplement, closure under it is
        required as well, and the sublattice keeps it.
        """
        mem = sorted(set(int(m) for m in members))
        if self.zero not in mem or self.one not in mem:
            raise PreconditionError("sublattice must contain bottom and top",
                                    witness=[self.names[self.zero], self.names[self.one]])
        pos = {m: k for k, m in enumerate(mem)}
        for a in mem:
            for b in mem:
                if int(self.meet_table[a, b]) not in pos:
                    raise PreconditionError(
                        "subset not closed under meet",
                        witness=[self.names[a], self.names[b]])
                if int(self.join_table[a, b]) not in pos:
                    raise PreconditionError(
                        "subset not closed under join",
                        witness=[self.names[a], self.names[b]])
        ortho = None
        if self.ortho is not None:
            for a in mem:
                if self.ortho[a] not in pos:
                    raise PreconditionError("subset not closed under ortho",
                                            witness=self.names[a])
            ortho = [pos[self.ortho[a]] for a in mem]
        sub = FiniteOrthoLattice([self.names[m] for m in mem],
                                 self.leq[np.ix_(mem, mem)], ortho=ortho)
        return sub, mem

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        d = {"elements": list(self.names),
             "leq": [[self.names[a], self.names[b]] for a, b in self.covers()]}
        if self.ortho is not None:
            d["ortho"] = {self.names[a]: self.names[self.ortho[a]]
                          for a in range(self.n) if a < self.ortho[a]}
        return d

    def hasse_dot(self) -> str:
        """DOT digraph of the cover relation, bottom to top."""
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for s in self.names:
            lines.append(f'  "{s}";')
        for a, b in self.covers():
            lines.append(f'  "{self.names[a]}" -> "{self.names[b]}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        o = "ortho, " if self.ortho is not None else ""
        return f"<FiniteOrthoLattice {self.n} elements, {o}top={self.names[self.one]}>"

    def __eq__(self, other):
        if not isinstance(other, FiniteOrthoLattice):
            return NotImplemented
        return (self.names == other.names
                and bool((self.leq == other.leq).all())
                and self.ortho == other.ortho)

    def __hash__(self):
        return hash((self.names, self.leq.tobytes(), self.ortho))


def _transitive_reflexive_closure(rel: np.ndarray) -> np.ndarray:
    out = rel | np.eye(rel.shape[0], dtype=bool)
    while True:
        nxt = out | (out @ out)
        if (nxt == out).all():
            return nxt
        out = nxt


# -- bitmask helpers ---------------------------------------------------------

def mask_from(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def bits(mask: int) -> list[int]:
    if mask < 0:        # mask & -mask would find a lowest bit forever
        raise InputError("a mask is a nonnegative int", witness=mask)
    out = []
    while mask:
        low = mask & -mask          # one step per set bit, lowest first
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
