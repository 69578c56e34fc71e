"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces every public function and method of the layer
modules with a wrapper that records one span per call: name, parent span,
start and end (``perf_counter_ns``) and, for a few functions, one extra
number (rows of a null-space system, pool size and hit of a pool lookup).
The replacement is made in every ``obslat`` module namespace that holds the
original, so calls from one module into another, and inside one module
(``core_projection`` -> ``null_space``), are recorded without editing the
package.  ``uninstall`` puts the originals back.

Spans stay in memory; ``Tracer.take`` hands them over when an operation
ends.  Self time is a span's duration minus the durations of its direct
children (one thread, so children never overlap).  Layer metrics attribute
each span's self time to a group: the span's own group when its name is
listed in ``GROUPS``, else the nearest ancestor's group, else
``<module>.other``.  The groups of one operation therefore add up, with the
benchmark's own root span, to the operation's traced time.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

LAYER_MODULES = ("lattice", "corpus", "stone", "spectral", "observables",
                 "vn", "classical", "presheaf", "context", "jsonio")

# Accessors called inside the pair scans hundreds of thousands of times per
# operation.  Wrapping them would measure the wrapper, not the package; their
# time stays in the caller's self time.
SKIP = frozenset({
    "lattice.FiniteOrthoLattice.index", "lattice.FiniteOrthoLattice.le",
    "lattice.FiniteOrthoLattice.meet", "lattice.FiniteOrthoLattice.join",
    "lattice.FiniteOrthoLattice.meet_of", "lattice.FiniteOrthoLattice.join_of",
    "lattice.FiniteOrthoLattice.upset_mask", "lattice.FiniteOrthoLattice.downset",
    "lattice.FiniteOrthoLattice.orthocomplement",
    "lattice.mask_from", "lattice.bits",
    "corpus.subset_name",
    "stone.DualIdeal.members", "stone.DualIdeal.names",
    "stone.DualIdeal.contains", "stone.DualIdeal.size",
    "observables.ObservableFunction.domain",
    "observables.ObservableFunction.at_element",
    "observables.ObservableFunction.at_ideal",
    "observables.ObservableFunction.image",
    "observables.CompletelyIncreasingFunction.domain",
    "observables.CompletelyIncreasingFunction.at",
    "spectral.SpectralFamily.elements", "spectral.SpectralFamily.spectrum",
    "spectral.SpectralFamily.value_at",
    "classical.FiniteTopSpace.is_open", "classical.FiniteTopSpace.interior",
    "classical.FiniteTopSpace.closure", "classical.FiniteTopSpace.mask_of",
    "classical.FiniteTopSpace.set_names",
    "presheaf.LatticePresheaf.values_at", "presheaf.LatticePresheaf.restrict",
    "presheaf.LatticePresheaf.section_repr",
    "vn.as_matrix", "vn.rank_of_projection",
    "vn.OperatorSpectralFamily.value_at",
    "context.Context.projection_of", "context.Context.nonzero_elements",
})

# Layer groups: metric stem -> span names whose self time (plus that of
# unlisted helpers they call) the metric reports.
GROUPS = {
    "lattice.build": ["lattice.FiniteOrthoLattice.__init__",
                      "lattice.FiniteOrthoLattice.from_relation",
                      "corpus.boolean_algebra", "corpus.chain", "corpus.mo",
                      "corpus.o6", "corpus.product",
                      "corpus.standard_lattices"],
    "lattice.checks": ["lattice.FiniteOrthoLattice.is_distributive",
                       "lattice.FiniteOrthoLattice.is_orthomodular",
                       "lattice.FiniteOrthoLattice.is_boolean",
                       "lattice.FiniteOrthoLattice.is_atomistic",
                       "lattice.FiniteOrthoLattice.center"],
    "jsonio.load": ["jsonio.load_lattice"],
    "stone.enumerate": ["stone.enumerate_dual_ideals",
                        "stone.enumerate_quasipoints", "stone.principal"],
    "stone.generator": ["stone.DualIdeal.generator"],
    "observables.table": ["observables.observable_table",
                          "observables.observable"],
    "observables.intersection": ["observables.check_intersection_condition"],
    "observables.usc": ["observables.check_upper_semicontinuous"],
    "observables.reconstruct": ["observables.reconstruct"],
    "spectral.family": ["spectral.spectral_family", "spectral.sample_family",
                        "spectral.restrict_family",
                        "spectral.constant_family"],
    "classical.lattice": ["classical.open_set_lattice",
                          "classical.lattice_family_of",
                          "classical.FiniteTopSpace.opens"],
    "classical.family": ["classical.sigma_from_function",
                         "classical.top_spectral_family"],
    "classical.continuity": ["classical.is_continuous_family"],
    "presheaf.build": ["presheaf.spectral_presheaf",
                       "presheaf.lattice_presheaf",
                       "presheaf.function_presheaf"],
    "presheaf.laws": ["presheaf.check_presheaf"],
    "presheaf.scan": ["presheaf.check_sheaf_condition"],
    "vn.null_space": ["vn.null_space"],
    "vn.subalgebra": ["vn.subalgebra", "vn.trivial_algebra",
                      "vn.commutant_basis", "vn.algebra_intersection"],
    "vn.core": ["vn.core_projection", "vn.support_projection"],
    "vn.rho": ["vn.rho_restrict"],
    "vn.sigma": ["vn.sigma_restrict"],
    "vn.eigen": ["vn.eigen_hermitian"],
    "vn.family": ["vn.spectral_family_of", "vn.family_from_steps",
                  "vn.OperatorSpectralFamily.synthesize"],
    "vn.join": ["vn.projection_join"],
    "context.diagram": ["context.diagram", "context.context_from_generators",
                        "context.context_from_algebra"],
    "context.glue": ["context.glue_section"],
    "context.section": ["context.section_from_operator",
                        "context.is_global_section", "context.pool_values"],
    "context.lookup": ["context.ContextDiagram.pool_index_of"],
}
GROUP_OF = {name: g for g, names in GROUPS.items() for name in names}

# Call counts reported per operation: metric -> span name.
CALL_COUNTS = {
    "lattice.build_calls": "lattice.FiniteOrthoLattice.__init__",
    "stone.generator_calls": "stone.DualIdeal.generator",
    "spectral.family_calls": "spectral.spectral_family",
    "vn.null_space_calls": "vn.null_space",
    "vn.eigen_calls": "vn.eigen_hermitian",
    "vn.join_calls": "vn.projection_join",
    "context.lookup_calls": "context.ContextDiagram.pool_index_of",
}

# Groups also reported for the traced set-up, as ``setup.<group>_ms``;
# ``context.diagram_ms`` is set-up only and keeps its plain name.
SETUP_GROUPS = ("lattice.build", "lattice.checks", "vn.subalgebra",
                "vn.null_space", "vn.family", "context.diagram")

ROOT = "bench.op"


def _null_space_rows(args, out):
    return int(args[0].shape[0]) if args and hasattr(args[0], "shape") else 0


def _pool_lookup(args, out):
    # pool size times two, plus one on a hit: one number per span
    return 2 * len(args[0].pool) + (out is not None)


EXTRA = {"vn.null_space": _null_space_rows,
         "context.ContextDiagram.pool_index_of": _pool_lookup}


class Tracer:
    """Records spans while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []     # [name_id, parent, t0, t1, extra]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.intern(name)
        extra = EXTRA.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, out)
            return out
        return wrapper

    def span(self, name: str):
        """Context manager for the benchmark's own root span."""
        return _Span(self, self.intern(name))

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "obslat" or k.startswith("obslat.")]
        replaced: dict[int, object] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"obslat.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name not in SKIP:
                        replaced[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_methods(short, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])

    def _install_methods(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            # dataclass __init__ runs per DualIdeal; only hand-written
            # constructors (the lattice and space builds) get a span
            if attr.startswith("_") and not (
                    attr == "__init__" and not dataclasses.is_dataclass(cls)):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            if isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.rec = [self.nid, t._stack[-1] if t._stack else -1,
                    time.perf_counter_ns(), 0, 0]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


# -- analysis -------------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Self time of each span in ns: duration minus its children's."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def group_of_spans(spans: list[list], names: list[str]) -> list[str]:
    """Group per span: its own, else its nearest grouped ancestor's, else
    ``<module>.other``; the root span is ``bench.glue``."""
    out: list[str] = []
    for s in spans:
        name = names[s[0]]
        g = GROUP_OF.get(name)
        if g is None:
            if name == ROOT:
                g = "bench.glue"
            elif s[1] >= 0 and out[s[1]] in GROUPS:
                g = out[s[1]]
            else:
                g = name.split(".", 1)[0] + ".other"
        out.append(g)
    return out


def summarize(spans: list[list], names: list[str]) -> dict:
    """Per-span-name and per-group self time (ms), call counts, extras."""
    st = self_times(spans)
    groups = group_of_spans(spans, names)
    by_name: dict[str, dict] = {}
    by_group: dict[str, float] = {}
    for s, t, g in zip(spans, st, groups):
        name = names[s[0]]
        row = by_name.setdefault(name, {"calls": 0, "self_ms": 0.0,
                                        "total_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += t / 1e6
        row["total_ms"] += (s[3] - s[2]) / 1e6
        by_group[g] = by_group.get(g, 0.0) + t / 1e6
    rows_max = max((s[4] for s in spans if names[s[0]] == "vn.null_space"),
                   default=0)
    lookups = [s[4] for s in spans
               if names[s[0]] == "context.ContextDiagram.pool_index_of"]
    core_rounds = sum(
        1 for s in spans
        if names[s[0]] == "vn.null_space" and s[1] >= 0
        and names[spans[s[1]][0]] == "vn.core_projection")
    return {"by_name": by_name, "by_group": by_group,
            "null_space_rows_max": rows_max,
            "lookup_calls": len(lookups),
            "lookup_hits": sum(v & 1 for v in lookups),
            "pool_size": max((v >> 1 for v in lookups), default=0),
            "core_rounds": core_rounds}
