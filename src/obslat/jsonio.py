"""JSON readers and writers for every on-disk object: lattices, spectral
families, observable tables, matrices, finite topologies, context diagrams,
sections, and presheaf descriptions.

File references resolve in order: absolute path, the directory of the
referring file, the working directory, then the directory named by the
OBS_CORPUS_DIR environment variable.  A bare name with no .json suffix may
also pick one of the built-in lattices.
"""
from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

from .classical import FiniteTopSpace
from .context import ContextDiagram, diagram
from .corpus import standard_lattices
from .errors import InputError, ResourceError
from .lattice import FiniteOrthoLattice, mask_from
from .observables import ObservableFunction, observable
from .presheaf import (LatticePresheaf, function_presheaf, spectral_presheaf)
from .spectral import SpectralFamily, spectral_family
from .stone import principal
from .vn import Tolerances, TOL, as_matrix

CORPUS_ENV = "OBS_CORPUS_DIR"


def resolve_path(ref: str, referrer: Path | None = None) -> Path:
    p = Path(ref)
    if p.is_absolute():
        if p.is_file():
            return p
        raise InputError("no such file", witness=str(p))
    candidates = []
    if referrer is not None:
        candidates.append(Path(referrer).parent / p)
    candidates.append(Path.cwd() / p)
    env = os.environ.get(CORPUS_ENV)
    if env:
        candidates.append(Path(env) / p)
    for c in candidates:
        if c.is_file():
            return c
    raise InputError("no such file",
                     witness={"ref": ref,
                              "searched": [str(c) for c in candidates]})


def load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON",
                         witness={"file": str(path), "error": str(exc)})


def _real(v, key: str) -> float:
    """A number read from a file; a JSON boolean, or anything float()
    refuses, is an InputError naming the key it came from."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(v, bool):
            return float(v)
    raise InputError("expected a real number",
                     witness={"key": key, "value": v})


def _list(v, key: str, length: int | None = None) -> list:
    """A list read from a file, of the given length if one is given;
    anything else is an InputError naming the key it came from."""
    if not isinstance(v, list) or length is not None and len(v) != length:
        raise InputError("expected a list" if length is None else
                         f"expected a list of {length} items",
                         witness={"key": key, "value": v})
    return v


def _flag(v, key: str) -> bool:
    """A flag read from a file: a JSON boolean; anything else, such as the
    string "false", is an InputError naming the key it came from."""
    if not isinstance(v, bool):
        raise InputError("expected a boolean",
                         witness={"key": key, "value": v})
    return v


def _mapping(v, key: str) -> dict:
    """A mapping read from a file; anything else is an InputError naming
    the key it came from."""
    if not isinstance(v, dict):
        raise InputError("expected a mapping",
                         witness={"key": key, "value": v})
    return v


def _reals(data: dict, key: str) -> list[float]:
    """data[key], absent read as empty, as a list of reals; a non-list is an
    InputError naming the key, and each item is read by _real."""
    return [_real(v, f"{key}[{k}]")
            for k, v in enumerate(_list(data.get(key, []), key))]


def _dimension(v, key: str) -> int | None:
    """A matrix dimension read from a file: absent, or a positive integer;
    anything else is an InputError naming the key it came from."""
    if v is not None and (isinstance(v, bool) or not isinstance(v, int)
                          or v < 1):
        raise InputError("expected a positive integer",
                         witness={"key": key, "value": v})
    return v


def _breakpoints(data: dict):
    """Yield each item of data["breakpoints"] as (real lambda, value), one at
    a time so later checks keep their order.  A list that is not a list of
    pairs is an InputError naming the key of the offending part."""
    shape = "breakpoints are a list of [lambda, value] pairs"
    items = data["breakpoints"]
    if not isinstance(items, list):
        raise InputError(shape, witness={"key": "breakpoints", "value": items})
    for k, item in enumerate(items):
        key = f"breakpoints[{k}]"
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InputError(shape, witness={"key": key, "value": item})
        yield _real(item[0], key), item[1]


def save_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _dereference(ref, referrer: Path | None) -> tuple[object, Path | None]:
    """A ref may be inline data or a filename; returns (data, its path)."""
    if isinstance(ref, str):
        path = resolve_path(ref, referrer)
        return load_json(path), path
    return ref, referrer


# -- lattices ---------------------------------------------------------------------

def load_lattice(ref, referrer: Path | None = None) -> FiniteOrthoLattice:
    if isinstance(ref, str) and not ref.endswith(".json"):
        builtin = standard_lattices()
        if ref in builtin:
            return builtin[ref]
    data, _ = _dereference(ref, referrer)
    if isinstance(data, FiniteOrthoLattice):
        return data
    if not isinstance(data, dict) or "elements" not in data:
        raise InputError("a lattice file needs an 'elements' list")
    names = [str(x) for x in _list(data["elements"], "elements")]
    pairs = [tuple(str(x) for x in _list(item, f"leq[{k}]", 2))
             for k, item in enumerate(_list(data.get("leq", []), "leq"))]
    ortho = {str(k): str(v) for k, v in
             _mapping(data.get("ortho", {}), "ortho").items()} or None
    return FiniteOrthoLattice.from_relation(names, pairs, ortho_pairs=ortho)


def lattice_to_json(lattice: FiniteOrthoLattice) -> dict:
    return lattice.to_dict()


# -- spectral families -------------------------------------------------------------

def load_family(ref, referrer: Path | None = None) -> SpectralFamily:
    data, path = _dereference(ref, referrer)
    if not isinstance(data, dict) or "breakpoints" not in data:
        raise InputError("a family file needs 'lattice' and 'breakpoints'")
    lat = load_lattice(data.get("lattice"), path)
    pairs = [(lam, lat.index(str(name))) for lam, name in _breakpoints(data)]
    top = lat.index(str(data["top"])) if "top" in data else None
    return spectral_family(lat, pairs, top=top)


def family_to_json(family: SpectralFamily,
                   lattice_ref: str | None = None) -> dict:
    lat = family.lattice
    out = {"lattice": lattice_ref or lat.to_dict(),
           "breakpoints": [[lam, lat.names[e]]
                           for lam, e in family.breakpoints]}
    if family.top != lat.one:
        out["top"] = lat.names[family.top]
    return out


# -- observable tables --------------------------------------------------------------

def split_ideal_key(key: str) -> list[str]:
    """Split a comma-joined member list, ignoring commas inside braces (the
    powerset lattices put commas in their element names)."""
    parts, depth, cur = [], 0, []
    for ch in key:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise InputError("unbalanced braces in ideal key",
                                 witness=key)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    out = [p.strip() for p in parts if p.strip()]
    if not out:
        raise InputError("empty ideal key", witness=key)
    return out


def ideal_key(lattice: FiniteOrthoLattice, generator: int) -> str:
    return ",".join(principal(lattice, generator).names())


def load_table(ref, referrer: Path | None = None) -> ObservableFunction:
    data, path = _dereference(ref, referrer)
    if not isinstance(data, dict) or "values" not in data:
        raise InputError("a table file needs 'lattice' and 'values'")
    lat = load_lattice(data.get("lattice"), path)
    vals: dict[int, float] = {}
    for key, v in _mapping(data["values"], "values").items():
        names = split_ideal_key(str(key))
        members = [lat.index(nm) for nm in names]
        gen = lat.meet_of(members)
        if gen == lat.zero:
            raise InputError("key meets down to bottom, no dual ideal there",
                             witness={"key": key})
        if len(names) > 1 and mask_from(members) != lat.upset_mask(gen):
            raise InputError("key does not list the members of a dual ideal",
                             witness={"key": key, "generator": lat.names[gen]})
        v = _real(v, f"values[{key}]")
        if gen in vals and vals[gen] != v:
            raise InputError("conflicting values for one ideal",
                             witness={"key": key})
        vals[gen] = v
    top = lat.index(str(data["top"])) if "top" in data else None
    return observable(lat, vals, top=top,
                      checked=_flag(data.get("checked", True), "checked"))


def table_to_json(f: ObservableFunction,
                  lattice_ref: str | None = None) -> dict:
    lat = f.lattice
    out = {"lattice": lattice_ref or lat.to_dict(),
           "values": {ideal_key(lat, a): f.values[a] for a in f.domain()}}
    if f.top != lat.one:
        out["top"] = lat.names[f.top]
    return out


# -- matrices ------------------------------------------------------------------------

def _entry(e, key: str) -> complex:
    if isinstance(e, (list, tuple)):
        if len(e) != 2:
            raise InputError("a complex entry is a [re, im] pair", witness=e)
        return complex(_real(e[0], key), _real(e[1], key))
    return complex(_real(e, key))


def load_matrix(ref, referrer: Path | None = None) -> np.ndarray:
    data, _ = _dereference(ref, referrer)
    if isinstance(data, dict):
        data = data.get("matrix")
    if not isinstance(data, list) or not data:
        raise InputError("a matrix file is a nonempty list of rows")
    width = len(_list(data[0], "matrix[0]"))
    rows = [[_entry(e, f"matrix[{i}][{j}]")
             for j, e in enumerate(_list(row, f"matrix[{i}]", width))]
            for i, row in enumerate(data)]
    return as_matrix(rows)


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


# -- finite topologies ----------------------------------------------------------------

def load_space(ref, referrer: Path | None = None) -> FiniteTopSpace:
    data, _ = _dereference(ref, referrer)
    if not isinstance(data, dict) or "points" not in data:
        raise InputError("a space file needs a 'points' list")
    points = [str(p) for p in _list(data["points"], "points")]
    index = {p: i for i, p in enumerate(points)}

    def mask(names, key: str) -> int:
        out = 0
        for nm in _list(names, key):
            nm = str(nm)
            if nm not in index:
                raise InputError("unknown point", witness=nm)
            out |= 1 << index[nm]
        return out

    if "opens" in data:
        return FiniteTopSpace(points, opens=[
            mask(u, f"opens[{k}]")
            for k, u in enumerate(_list(data["opens"], "opens"))])
    if "min_neighborhoods" in data:
        nb = [0] * len(points)
        key = "min_neighborhoods"
        for nm, u in _mapping(data[key], key).items():
            if str(nm) not in index:
                raise InputError("unknown point", witness=str(nm))
            nb[index[str(nm)]] = mask(u, f"{key}[{nm}]")
        return FiniteTopSpace(points, nb_masks=nb)
    raise InputError("a space file needs 'opens' or 'min_neighborhoods'")


def space_to_json(space: FiniteTopSpace) -> dict:
    """Prefer the opens list; fall back to minimal neighborhoods when the
    space has more than 1024 open sets."""
    out: dict = {"points": list(space.points)}
    try:
        out["opens"] = [space.set_names(u) for u in space.opens(cap=1024)]
    except ResourceError:
        out["min_neighborhoods"] = {
            p: space.set_names(space.nb_masks[i])
            for i, p in enumerate(space.points)}
    return out


def load_top_family(ref, referrer: Path | None = None):
    """A topological family file: {"space": ..., "breakpoints": [[lam,
    [points...]], ...], "base": [points...], "unbounded_above": bool}."""
    from .classical import top_spectral_family
    data, path = _dereference(ref, referrer)
    if not isinstance(data, dict) or "breakpoints" not in data:
        raise InputError("a family file needs 'space' and 'breakpoints'")
    space = load_space(data.get("space"), path)
    pairs = [(lam, space.mask_of(_list(names, f"breakpoints[{k}][1]")))
             for k, (lam, names) in enumerate(_breakpoints(data))]
    base = space.mask_of(_list(data.get("base", []), "base"))
    return top_spectral_family(
        space, pairs, base=base,
        unbounded_above=_flag(data.get("unbounded_above", False),
                              "unbounded_above"))


def top_family_to_json(family) -> dict:
    space = family.space
    out: dict = {"space": space_to_json(space),
                 "breakpoints": [[lam, space.set_names(mask)]
                                 for lam, mask in family.breakpoints]}
    if family.base:
        out["base"] = space.set_names(family.base)
    if family.unbounded_above:
        out["unbounded_above"] = True
    return out


def load_point_values(ref, referrer: Path | None = None) -> dict[str, float]:
    """A point-function file: {"values": {"point": v, ...}} or the bare
    mapping."""
    data, _ = _dereference(ref, referrer)
    if isinstance(data, dict) and "values" in data:
        data = data["values"]
    if not isinstance(data, dict):
        raise InputError("a function file maps point names to numbers")
    return {str(k): _real(v, f"values[{k}]") for k, v in data.items()}


# -- context diagrams and sections ------------------------------------------------------

def load_diagram(ref, referrer: Path | None = None,
                 tol: Tolerances = TOL) -> ContextDiagram:
    data, path = _dereference(ref, referrer)
    if not isinstance(data, dict) or "contexts" not in data:
        raise InputError("a diagram file needs a 'contexts' mapping")
    dim = _dimension(data.get("ambient_dim"), "ambient_dim")
    named = {}
    for name, gens in _mapping(data["contexts"], "contexts").items():
        named[str(name)] = [load_matrix(g, path)
                            for g in _list(gens, f"contexts[{name}]")]
    return diagram(named, dim=dim, tol=tol)


def load_generators(ref, referrer: Path | None = None
                    ) -> tuple[list[np.ndarray], int | None]:
    """An algebra file: either a list of matrices (or matrix refs) or a dict
    {"generators": [...], "dim": n}."""
    data, path = _dereference(ref, referrer)
    dim = None
    if isinstance(data, dict):
        dim = _dimension(data.get("dim"), "dim")
        data = data.get("generators")
    if not isinstance(data, list):
        raise InputError("an algebra file needs a 'generators' list")
    gens = [load_matrix(g, path) for g in data]
    return gens, dim


def load_section(ref, referrer: Path | None = None,
                 tol: Tolerances = TOL,
                 dia: ContextDiagram | None = None
                 ) -> tuple[ContextDiagram, dict]:
    data, path = _dereference(ref, referrer)
    if not isinstance(data, dict) or "values" not in data:
        raise InputError("a section file needs 'diagram' and 'values'")
    if dia is None:
        if "diagram" not in data:
            raise InputError("a section file needs 'diagram' and 'values'")
        dia = load_diagram(data.get("diagram"), path, tol=tol)
    section: dict[str, dict[int, float]] = {}
    for cname, table in _mapping(data["values"], "values").items():
        ctx = dia.context_named(str(cname))
        vals: dict[int, float] = {}
        for elem_name, v in _mapping(table, f"values[{cname}]").items():
            vals[ctx.lattice.index(str(elem_name))] = _real(
                v, f"values[{cname}][{elem_name}]")
        section[str(cname)] = vals
    return dia, section


def section_to_json(dia: ContextDiagram, section,
                    diagram_ref: str | None = None) -> dict:
    values = {}
    for c in dia.contexts:
        values[c.name] = {c.lattice.names[e]: v
                          for e, v in section[c.name].items()}
    out: dict = {"values": values}
    if diagram_ref is not None:
        out["diagram"] = diagram_ref
    return out


# -- presheaf descriptions ----------------------------------------------------------------

def load_presheaf(ref, referrer: Path | None = None
                  ) -> tuple[LatticePresheaf, dict]:
    """Returns the presheaf plus a meta dict describing what was built."""
    data, path = _dereference(ref, referrer)
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("a presheaf file needs a 'kind'")
    kind = str(data["kind"])
    if kind == "spectral":
        lat = load_lattice(data.get("lattice"), path)
        grid = _reals(data, "grid")
        ps = spectral_presheaf(lat, grid)
        return ps, {"kind": kind, "lattice": lat, "grid": grid}
    if kind == "functions":
        space = load_space(data.get("space"), path)
        values = _reals(data, "values")
        if not values:
            raise InputError("a function presheaf needs a 'values' list")
        ps, lat, opens = function_presheaf(space, values)
        return ps, {"kind": kind, "space": space, "lattice": lat,
                    "opens": opens, "values": values}
    raise InputError("unknown presheaf kind", witness=kind)
