"""Standard small lattices used throughout the tests and the CLI suite.

The shipped families: powerset (Boolean) algebras, chains, the horizontal-sum
"lantern" lattices MO(n), the hexagon O6, and direct products.  Boolean
algebras index their elements by subset bitmask, so element ``m`` of
``boolean_algebra(n)`` is the subset with member bits ``m``.
"""
from __future__ import annotations

from itertools import product as iproduct

import numpy as np

from .errors import InputError
from .lattice import FiniteOrthoLattice, check_element_cap


def subset_name(mask: int) -> str:
    if mask == 0:
        return "{}"
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length())
                          if mask >> i & 1) + "}"


def boolean_algebra(n: int) -> FiniteOrthoLattice:
    """Powerset of {1..n}; element index equals subset bitmask."""
    if n < 0 or n > 6:
        raise InputError("boolean_algebra supports 0..6 generators")
    size = 1 << n
    names = [subset_name(m) for m in range(size)]
    m = np.arange(size)
    leq = (m[:, None] & m[None, :]) == m[:, None]
    full = size - 1
    ortho = [full ^ a for a in range(size)]
    return FiniteOrthoLattice(names, leq, ortho=ortho)


def chain(k: int) -> FiniteOrthoLattice:
    """Total order with k elements.  No orthocomplement for k > 2."""
    if k < 2:
        raise InputError("chain needs at least 2 elements")
    check_element_cap(k)
    if k == 2:
        names = ["0", "1"]
    elif k == 3:
        names = ["0", "m", "1"]
    else:
        names = ["0"] + [f"m{i}" for i in range(1, k - 1)] + ["1"]
    leq = np.triu(np.ones((k, k), dtype=bool))
    ortho = [1, 0] if k == 2 else None
    return FiniteOrthoLattice(names, leq, ortho=ortho)


def mo(n: int) -> FiniteOrthoLattice:
    """Horizontal sum of n copies of 2^2: 0 and 1 plus n complement pairs."""
    if n < 1 or n > 12:
        raise InputError("mo supports 1..12 pairs")
    letters = "abcdefghijkl"[:n]
    names = ["0"]
    for c in letters:
        names += [c, c + "'"]
    names.append("1")
    size = len(names)
    leq = np.eye(size, dtype=bool)
    leq[0, :] = True
    leq[:, size - 1] = True
    ortho = [size - 1]
    for i in range(n):
        ortho += [2 + 2 * i, 1 + 2 * i]
    ortho.append(0)
    return FiniteOrthoLattice(names, leq, ortho=ortho)


def o6() -> FiniteOrthoLattice:
    """Hexagon ortholattice 0 < a < b < 1, 0 < b' < a' < 1."""
    names = ["0", "a", "b", "b'", "a'", "1"]
    pairs = [("0", "a"), ("a", "b"), ("b", "1"),
             ("0", "b'"), ("b'", "a'"), ("a'", "1")]
    return FiniteOrthoLattice.from_relation(
        names, pairs, ortho_pairs={"a": "a'", "b": "b'"})


def product(left: FiniteOrthoLattice, right: FiniteOrthoLattice
            ) -> FiniteOrthoLattice:
    """Direct product ordered componentwise; ortho iff both factors have one."""
    pairs = list(iproduct(range(left.n), range(right.n)))
    names = [f"({left.names[a]},{right.names[b]})" for a, b in pairs]
    # pair (a, b) sits at a * right.n + b, the Kronecker product's order
    leq = np.kron(left.leq, right.leq)
    ortho = None
    if left.ortho is not None and right.ortho is not None:
        pos = {ab: i for i, ab in enumerate(pairs)}
        ortho = [pos[(left.ortho[a], right.ortho[b])] for a, b in pairs]
    return FiniteOrthoLattice(names, leq, ortho=ortho)


def standard_lattices() -> dict[str, FiniteOrthoLattice]:
    """The fixed corpus keyed by short names."""
    reg: dict[str, FiniteOrthoLattice] = {}
    for n in range(1, 5):
        reg[f"b{n}"] = boolean_algebra(n)
    for k in range(2, 7):
        reg[f"chain{k}"] = chain(k)
    for n in range(1, 4):
        reg[f"mo{n}"] = mo(n)
    reg["o6"] = o6()
    reg["mo2xb1"] = product(mo(2), boolean_algebra(1))
    reg["b2xchain3"] = product(boolean_algebra(2), chain(3))
    return reg
