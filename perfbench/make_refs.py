"""Regenerate the committed references under perfbench/refs.

The references are outputs of the program at the commit that introduced the
benchmark; a change that claims to keep results unchanged is checked against
them, so do not regenerate them in such a change.

    PYTHONPATH=src python3 perfbench/make_refs.py step-search
    PYTHONPATH=src python3 perfbench/make_refs.py condition-sweep
    PYTHONPATH=src python3 perfbench/make_refs.py theta-table

step-search: m* of both schemes for every (dims, matrix seed, T) of the pool
the workload draws from.  condition-sweep: kappa of every grid system on the
seed-0 problem by dense SVD (several GB-seconds at m = 117: dimension 5855).
theta-table: the tabulated step sizes of acceptance criterion C01.
"""

from __future__ import annotations

import json
import sys

import scipy.linalg as sla

import workloads as wl
from pade_lab import error_bounds, system_builder

POOL_SEEDS = {5: range(200), 16: range(48)}

C01_THETA = {5: 1.49, 6: 2.36, 7: 3.34, 8: 4.40, 9: 5.53, 10: 6.69, 11: 7.89,
             12: 9.11, 13: 10.35, 14: 11.61, 15: 12.88, 16: 14.16, 17: 15.45,
             18: 16.74}


def _dump(name: str, doc: dict):
    with open(wl.REFS / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def step_search():
    fields = ["dims", "seed", "T", "m_pade", "m_taylor"]
    rows = []
    for dims, seeds in POOL_SEEDS.items():
        for seed in seeds:
            for horizon in wl.STEP_HORIZONS:
                got = {r.scheme: r.steps for r in wl.step_search_op(dims, seed, horizon).rows}
                rows.append([dims, seed, horizon, got["pade"], got["taylor"]])
            print(f"dims={dims} seed={seed}", file=sys.stderr, flush=True)
    with open(wl.REFS / "step_search.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"eps": {wl.EPS!r}, "order": {wl.ORDER}, "fields": {json.dumps(fields)}, '
                 '"rows": [\n')
        fh.write(",\n".join(json.dumps(r) for r in rows))
        fh.write("\n]}\n")


def condition_sweep():
    """Dense-SVD kappa for every grid point; points already in the file are kept."""
    problem = wl.sweep_problem(0)
    path = wl.REFS / "condition_sweep.json"
    old = json.loads(path.read_text())["kappa"] if path.exists() else {}
    kappa: dict[str, dict[str, float]] = {"pade": {}, "taylor": {}}
    for scheme, build in (("pade", system_builder.build_pade_system),
                          ("taylor", system_builder.build_taylor_system)):
        for m in wl.SWEEP_GRID:
            if str(m) in old.get(scheme, {}):
                kappa[scheme][str(m)] = old[scheme][str(m)]
                continue
            params = error_bounds.make_params(m, wl.ORDER, 1, problem.horizon, scheme)
            dense = build(problem, params).matrix.toarray()
            svals = sla.svdvals(dense, overwrite_a=True, check_finite=False)
            del dense
            kappa[scheme][str(m)] = float(svals[0] / svals[-1])
            print(f"{scheme} m={m} kappa={kappa[scheme][str(m)]:.12e}",
                  file=sys.stderr, flush=True)
    _dump("condition_sweep", {"order": wl.ORDER, "eps": wl.EPS, "T": problem.horizon,
                              "method": "scipy.linalg.svdvals of the dense seed-0 system",
                              "kappa": kappa})


def theta_table():
    _dump("theta_table", {"delta": 1e-8, "tolerance": wl.THETA_TOL,
                          "theta": {str(k): v for k, v in C01_THETA.items()}})


if __name__ == "__main__":
    {"step-search": step_search, "condition-sweep": condition_sweep,
     "theta-table": theta_table}[sys.argv[1]]()
