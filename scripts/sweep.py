#!/usr/bin/env python3
"""Behaviour sweep over seeded context diagrams: one canonical JSON line per
diagram, so two versions of the package can be compared with ``cmp``.

Diagram k of a run is built from the seed pair (SEED, k): dimension 2-6,
2-4 given contexts of one shape, each context generated by one operator
with integer levels:

- ``random``: each context in its own random basis;
- ``diagonal``: diagonal generators, levels 0-2;
- ``shared``: one random basis, some contexts turned in one coordinate
  plane of it.

Each line holds the pool labels, the pool label of each context's atoms in
the context's order, and two sections with their reports: the
section of an operator with levels 0-2 in a random basis, and a 0/1 section
that is usually not extendable.  The latter values each given context's
atoms 0 or 1 in the order of <P, H> for a seeded Hermitian H, so it does not
depend on how the atoms are numbered, values every element by the largest
of its atoms, and copies the values of shared projections to the generated
contexts.  A report is the ``glue_section`` summary, or the error and its
witness when the section is not global.  Floats are rounded to 8 places and
keys are sorted.  Run from anywhere:

    PYTHONPATH=src python3 scripts/sweep.py SEED COUNT
"""
import json
import sys

import numpy as np

from obslat.context import diagram, glue_section, section_from_operator
from obslat.errors import PreconditionError, ResourceError
from obslat.lattice import bits

SHAPES = ("random", "diagonal", "shared")


def unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


def generators(rng, shape: str, dim: int) -> dict:
    count = int(rng.integers(2, 5))
    base = unitary(rng, dim)
    out = {}
    for k in range(count):
        levels = rng.integers(0, 3 if shape == "diagonal" else dim,
                              dim).astype(float)
        if shape == "diagonal":
            u = np.eye(dim)
        elif shape == "random":
            u = unitary(rng, dim)
        else:
            u = base.copy()
            if k and rng.random() < 0.7:
                i, j = rng.choice(dim, 2, replace=False)
                t = rng.uniform(0.2, 1.4)
                turn = np.eye(dim)
                turn[[i, i, j, j], [i, j, i, j]] = [np.cos(t), -np.sin(t),
                                             np.sin(t), np.cos(t)]
                u = base @ turn
        out[f"C{k}"] = [(u * levels) @ u.conj().T]
    return out


def zero_one_section(dia, given, rng) -> dict:
    z = rng.normal(size=(dia.dim, dia.dim)) + 1j * rng.normal(size=(dia.dim,
                                                                    dia.dim))
    h = z + z.conj().T
    by_pool: dict[int, float] = {}
    section = {}
    for c in dia.contexts:
        if c.name not in given:
            continue
        order = np.argsort([np.trace(p @ h).real for p in c.minimal])
        draw = rng.integers(0, 2, len(order))
        if len(order) > 1 and draw.min() == draw.max():
            draw[-1] = 1 - draw[-1]
        atom = dict(zip(order.tolist(), draw.astype(float).tolist()))
        section[c.name] = {e: max(atom[i] for i in bits(e))
                           for e in c.nonzero_elements()}
        for e, v in section[c.name].items():
            by_pool.setdefault(dia.element_pool[(c.name, e)], v)
    for c in dia.contexts:
        if c.name not in given:
            section[c.name] = {e: by_pool[dia.element_pool[(c.name, e)]]
                               for e in c.nonzero_elements()}
    return section


def failure(err) -> dict:
    return {"error": str(err), "witness": err.witness}


def report(dia, section) -> dict:
    try:
        return glue_section(dia, section).summary()
    except (PreconditionError, ResourceError) as err:
        return failure(err)


def rounded(obj):
    if isinstance(obj, float):
        return round(obj, 8) + 0.0      # no negative zero
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(v) for v in obj]
    return obj


def sweep_line(seed: int, index: int) -> str:
    rng = np.random.default_rng([seed, index])
    shape = SHAPES[index % len(SHAPES)]
    dim = int(rng.integers(2, 7))
    named = generators(rng, shape, dim)
    line = {"seed": seed, "index": index, "shape": shape, "dim": dim}
    try:
        dia = diagram(named, dim=dim)
    except ResourceError as err:
        return json.dumps(rounded({**line, "diagram": failure(err)}),
                          sort_keys=True)
    u = unitary(rng, dim)
    op = (u * rng.integers(0, 3, dim).astype(float)) @ u.conj().T
    atoms = {c.name: [dia.pool_labels[dia.element_pool[(c.name, 1 << i)]]
                      for i in range(len(c.minimal))] for c in dia.contexts}
    line |= {"atoms": atoms, "pool": list(dia.pool_labels),
             "operator": report(dia, section_from_operator(dia, op)),
             "zero_one": report(dia, zero_one_section(dia, named, rng))}
    return json.dumps(rounded(line), sort_keys=True)


def main() -> None:
    seed, count = int(sys.argv[1]), int(sys.argv[2])
    for index in range(count):
        print(sweep_line(seed, index), flush=True)


if __name__ == "__main__":
    main()
