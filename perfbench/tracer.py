"""Spans around the calls into each layer, recorded from outside the program.

``instrument`` replaces each traced public function wherever the program's
modules look it up (module globals, the builder table in ``experiments``, the
method on ``BlockEncodingUnitary``) with a wrapper that records a span: name,
op id, parent span, start, end and a few counts.  Spans stay in memory; the
worker returns them when its pass ends and the launcher writes them out.

This module imports only the standard library at load time, so the launcher
can use ``TRACED`` and ``aggregate`` without numpy.
"""

from __future__ import annotations

import functools
import sys
import time

#: Traced public functions, as layer.function.  Each gets `.calls` and
#: `.self_s` per-layer metrics.
TRACED = (
    "pade_core.pade_coefficients",
    "pade_core.reference_expm",
    "error_bounds.theta_max",
    "error_bounds.remainder_coeffs",
    "system_builder.build_pade_system",
    "system_builder.build_taylor_system",
    "system_builder.classical_reference_trajectory",
    "classical_solver.solve_block_forward",
    "analysis.extreme_singular_values",
    "analysis.inverse_norm_bounds",
    "analysis.propagator_drift",
    "circuit_sim.realize_dense",
    "circuit_sim.unitarity_defect",
    "circuit_sim.build_l_encoding",
    "circuit_sim.primitive_encodings",
    "circuit_sim.verify_block_encoding",
    "experiments.find_min_steps",
    "experiments.random_suite_m_star",
    "experiments.sweep_m",
    "cli.run_cli",
)

LANCZOS = "analysis.lanczos"
OP_SPAN = "bench.op"
BUILDERS = ("system_builder.build_pade_system", "system_builder.build_taylor_system")

# span fields: name, op id, parent index (-1 for none), start, end, counts
NAME, OP, PARENT, T0, T1, COUNTS = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None):
        self.spans[idx][T1] = time.perf_counter()
        self.spans[idx][COUNTS] = counts
        self.stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` inside a span; ``counts(args, kwargs, result)`` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, counts(args, kwargs, out) if counts else None)
            return out
        return traced


def _system_counts(args, kwargs, system):
    return {"nnz": int(system.matrix.nnz)}


def _solve_counts(args, kwargs, bundle):
    system = args[0] if args else kwargs["system"]
    return {"scheme": system.scheme, "m": system.layout.m}


def _gate_counts(args, kwargs, unitary):
    spec = args[0] if args else kwargs["spec"]
    # one dense application per gate; a uniformly controlled rotation applies
    # one rotation per selector value
    return {"gates": sum(len(g.angles) if g.kind == "UCRY" else 1 for g in spec.gates)}


_COUNTS = {
    "system_builder.build_pade_system": _system_counts,
    "system_builder.build_taylor_system": _system_counts,
    "classical_solver.solve_block_forward": _solve_counts,
    "circuit_sim.realize_dense": _gate_counts,
}


def instrument(tracer: Tracer):
    """Install span wrappers for every TRACED function and for scipy's eigsh."""
    import scipy.sparse.linalg as spla

    import pade_lab  # noqa: F401  (loads every layer module)

    modules = [m for name, m in sys.modules.items()
               if name == "pade_lab" or name.startswith("pade_lab.")]
    for qual in TRACED:
        layer, func = qual.split(".")
        if func == "unitarity_defect":
            cls = sys.modules["pade_lab.circuit_sim"].BlockEncodingUnitary
            cls.unitarity_defect = tracer.wrap(qual, cls.unitarity_defect)
            continue
        orig = getattr(sys.modules[f"pade_lab.{layer}"], func)
        traced = tracer.wrap(qual, orig, _COUNTS.get(qual))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, traced)
                elif isinstance(value, dict):  # e.g. the builder table in experiments
                    for key, entry in list(value.items()):
                        if entry is orig:
                            value[key] = traced

    eigsh = spla.eigsh

    def lanczos(op, *args, **kwargs):
        counter = {"matvecs": 0}
        inner = spla.aslinearoperator(op)

        def matvec(x):
            counter["matvecs"] += 1
            return inner.matvec(x)

        counted = spla.LinearOperator(inner.shape, matvec=matvec, dtype=inner.dtype)
        idx = tracer.open(LANCZOS)
        try:
            return eigsh(counted, *args, **kwargs)
        finally:
            tracer.close(idx, counter)

    spla.eigsh = lanczos


# ------------------------------------------------------------ aggregation ---

def per_layer_names() -> list[str]:
    """Every per-layer metric ``aggregate`` reports, in a fixed order."""
    names = []
    for qual in TRACED:
        names += [f"{qual}.calls", f"{qual}.self_s"]
    names += [
        "system_builder.nnz_built",
        "experiments.probes",
        "experiments.solve_reuse_ratio",
        "analysis.extreme_singular_values.dense_s",
        "analysis.extreme_singular_values.lanczos_s",
        f"{LANCZOS}.calls",
        f"{LANCZOS}.matvecs",
        "circuit_sim.gates_applied",
        "trace.layer_self_s",
    ]
    return names


#: counts that must repeat exactly between two traced passes
REPEATABLE = tuple(n for n in per_layer_names()
                   if n.endswith(".calls") or n in (
                       f"{LANCZOS}.matvecs", "circuit_sim.gates_applied",
                       "system_builder.nnz_built", "experiments.probes"))


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from the spans of one pass.

    Self time is a span's duration minus the durations of its child spans;
    spans of one process never overlap except by nesting.
    """
    out = {name: 0.0 for name in per_layer_names()}
    solves = 0
    distinct = set()
    child_time = [0.0] * len(spans)
    has_lanczos = [False] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[T1] - s[T0]
            if s[NAME] == LANCZOS:
                has_lanczos[s[PARENT]] = True
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[T1] - s[T0]
        counts = s[COUNTS] or {}
        if name == OP_SPAN:
            continue
        out["trace.layer_self_s"] += dur - child_time[i]
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += dur - child_time[i]
        if name in BUILDERS:
            out["system_builder.nnz_built"] += counts.get("nnz", 0)
            if _has_ancestor(spans, i, "experiments.find_min_steps"):
                out["experiments.probes"] += 1
        elif name == "classical_solver.solve_block_forward":
            solves += 1
            distinct.add((s[OP], counts.get("scheme"), counts.get("m")))
        elif name == "analysis.extreme_singular_values":
            path = "lanczos_s" if has_lanczos[i] else "dense_s"
            out[f"analysis.extreme_singular_values.{path}"] += dur
        elif name == LANCZOS:
            out[f"{LANCZOS}.matvecs"] += counts.get("matvecs", 0)
        elif name == "circuit_sim.realize_dense":
            out["circuit_sim.gates_applied"] += counts.get("gates", 0)
    out["experiments.solve_reuse_ratio"] = len(distinct) / solves if solves else 1.0
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
