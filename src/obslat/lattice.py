"""Finite bounded lattices with optional orthocomplement.

Elements are identified by index into a name tuple.  The order relation is a
dense boolean matrix ``leq`` with ``leq[i, j] == True`` iff ``i <= j``.  Each
element also keeps its down-set and its up-set as int bitmasks (bit k set
for element k).  The lower bounds of a pair are ``down[i] & down[j]``, and the
pair has a meet exactly when that mask is itself the down-set of an element:
all n-by-n pair masks are looked up at once among the sorted down-set masks,
and joins are found the same way from up-sets.  Meet and join are
precomputed n-by-n tables; each structural check (the ortho laws,
distributivity, orthomodularity, the center, the closure of a sublattice)
is one array comparison over every pair or triple, and reports the first counterexample in lexicographic
index order.

Subsets of elements are passed around as bitmasks (int) throughout the
package; helpers live at the bottom of this module.
"""
from __future__ import annotations

from itertools import repeat
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
        self._down, self._up = _row_masks(self.leq.T), _row_masks(self.leq)
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
        hits = np.flatnonzero(mat.all(axis=1))
        kind = "bottom" if bottom else "top"
        if len(hits) != 1:
            raise InputError(f"lattice must have a unique {kind} element",
                             witness=[self.names[i] for i in hits])
        return int(hits[0])

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # the lower bounds of a pair are the down-set of its meet, if it has
        # one; down-sets are distinct, so a sorted lookup finds that element
        meet, has_meet = _lookup(np.array(self._down, dtype=np.uint64))
        join, has_join = _lookup(np.array(self._up, dtype=np.uint64))
        bad = np.argwhere(~(has_meet & has_join))
        if bad.size:
            # the tables are symmetric, so the first pair has i <= j
            i, j = (self.names[k] for k in bad[0])
            kind = ("greatest lower" if not has_meet[tuple(bad[0])]
                    else "least upper")
            raise InputError(f"no {kind} bound for ({i}, {j})", witness=[i, j])
        return meet, join

    def _validate_ortho(self):
        o = self.ortho
        n = len(self.names)
        if len(o) != n or sorted(o) != list(range(n)):
            raise InputError("ortho must be a permutation of the elements")
        o = np.array(o)
        idx = np.arange(n)
        fails = np.stack([o[o] != idx,
                          self.meet_table[idx, o] != self.zero,
                          self.join_table[idx, o] != self.one])
        bad = np.flatnonzero(fails.any(axis=0))
        if bad.size:
            a = int(bad[0])
            name = self.names[a]
            raise InputError(
                (f"ortho not involutive at {name}",
                 f"{name} meet its ortho is not bottom",
                 f"{name} join its ortho is not top")[fails[:, a].argmax()],
                witness=name)
        # leq[o[b], o[a]] is the transpose of leq[o, o]
        bad = np.argwhere(self.leq & ~self.leq[np.ix_(o, o)].T)
        if bad.size:
            raise InputError("ortho is not order-reversing",
                             witness=[self.names[k] for k in bad[0]])

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element {name!r}", witness=name) from None

    def _check_element(self, a: int, role: str) -> None:
        """Refuse an index outside the lattice, naming its role."""
        if not 0 <= a < self.n:
            raise InputError(f"the {role} is not an element of the lattice",
                             witness=[a, self.n])

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
        """Pairs (a, b) with b covering a, in row-major order: a < b with
        nothing strictly between.  The product of the strict order counts
        the elements between; each count is at most 64, exact in float32."""
        lt = (self.leq & ~np.eye(self.n, dtype=bool)).astype(np.float32)
        return list(map(tuple, np.argwhere((lt > 0) & (lt @ lt == 0)).tolist()))

    # -- structural checks -------------------------------------------------

    def is_distributive(self) -> tuple[bool, tuple[str, str, str] | None]:
        """a meet (b join c) = (a meet b) join (a meet c) on every triple;
        first counterexample in lex index order."""
        mt, jt = self.meet_table, self.join_table
        bad = np.argwhere(mt[:, jt] != jt[mt[:, :, None], mt[:, None, :]])
        if bad.size:
            return False, tuple(self.names[k] for k in bad[0])
        return True, None

    def is_orthomodular(self) -> tuple[bool, tuple[str, str] | None]:
        """a <= b implies b = a join (b meet ortho(a)); needs ortho."""
        if self.ortho is None:
            raise PreconditionError("orthomodularity needs an orthocomplementation")
        mt, jt, o = self.meet_table, self.join_table, np.array(self.ortho)
        idx = np.arange(self.n)
        # entry [a, b] is a join (b meet ortho(a))
        bad = np.argwhere(self.leq & (jt[idx[:, None], mt[:, o].T] != idx))
        if bad.size:
            return False, tuple(self.names[k] for k in bad[0])
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
        mt, jt, o = self.meet_table, self.join_table, np.array(self.ortho)
        # entry [z, a] is (z meet a) join (z meet ortho(a))
        both = jt[mt, mt[:, o]]
        return np.flatnonzero(
            (both == np.arange(self.n)[:, None]).all(axis=1)).tolist()

    # -- sublattices ---------------------------------------------------------

    def sublattice(self, members: Iterable[int]
                   ) -> tuple["FiniteOrthoLattice", list[int]]:
        """Induced lattice on ``members``; returns (sub, parent index per sub index).

        ``members`` must contain bottom and top and be closed under binary meet
        and join.  When the parent has an orthocomplement, closure under it is
        required as well, and the sublattice keeps it.  Closure is one
        membership test over all member pairs; the first failing pair in
        row-major order is the witness, meet before join.
        """
        mem = sorted(set(int(m) for m in members))
        for m in mem:
            self._check_element(m, "sublattice member")
        if self.zero not in mem or self.one not in mem:
            raise PreconditionError("sublattice must contain bottom and top",
                                    witness=[self.names[self.zero], self.names[self.one]])
        pairs = np.ix_(mem, mem)
        # fails[k, i, j]: the meet (k = 0) or join (k = 1) of members i, j
        fails = ~np.isin(np.stack([self.meet_table[pairs],
                                   self.join_table[pairs]]), mem)
        bad = np.argwhere(fails.any(axis=0))
        if bad.size:
            i, j = bad[0]
            kind = "meet" if fails[0, i, j] else "join"
            raise PreconditionError(
                f"subset not closed under {kind}",
                witness=[self.names[mem[i]], self.names[mem[j]]])
        ortho = None
        if self.ortho is not None:
            images = np.array(self.ortho)[mem]
            bad = np.flatnonzero(~np.isin(images, mem))
            if bad.size:
                raise PreconditionError("subset not closed under ortho",
                                        witness=self.names[mem[bad[0]]])
            ortho = np.searchsorted(mem, images).tolist()
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
    # squaring a reflexive relation doubles the path length it covers; the
    # float32 product counts paths (at most ELEMENT_CAP), so > 0 is exact
    out = rel | np.eye(rel.shape[0], dtype=bool)
    while True:
        f = out.astype(np.float32)
        nxt = (f @ f) > 0
        if (nxt == out).all():
            return nxt
        out = nxt


def _row_masks(mat: np.ndarray) -> list[int]:
    """Row k of a boolean matrix as an int bitmask (bit j for column j)."""
    rows = np.packbits(mat, axis=1, bitorder="little").tolist()
    return list(map(int.from_bytes, rows, repeat("little")))


def _lookup(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every pair (i, j), the element whose mask is ``masks[i] &
    masks[j]``, and whether one exists (masks are distinct)."""
    order = np.argsort(masks)
    ranked = masks[order]
    pair = masks[:, None] & masks[None, :]
    at = np.minimum(np.searchsorted(ranked, pair), len(masks) - 1)
    return order[at].astype(np.int64), ranked[at] == pair


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


def _cliques(rows: Sequence[int], roots: int, level: Iterable[int]):
    """For each clique (mask) of ``level``, in order: the clique, its members
    and the later elements of ``roots`` related to every member, both
    ascending (row b is read only after bit b).  Adding each in turn draws
    the cliques one larger, in (size, index) order if ``level`` is."""
    for clique in level:
        members = bits(clique)
        # -(2 << m) keeps the elements after m
        later = roots & -(2 << members[-1])
        for b in members:
            later &= rows[b]
        yield clique, members, bits(later)
