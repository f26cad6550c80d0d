"""The four benchmark workloads: op sets generated from a seed, and their checks.

An op is the unit whose latency is recorded.  ``make_ops(workload, seed)``
returns the whole op set of one pass; the same seed always gives the same
inputs, and the program under test sees only those inputs.  Every op carries
a check that compares its output with a reference committed under
``perfbench/refs`` (produced by ``make_refs.py`` at the commit that introduced
the benchmark) or with a bound the program states.

All calls go through module attributes (``experiments.sweep_m``, not a name
imported at load time), so the wrappers that ``tracer.instrument`` installs
see every call.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pade_lab import analysis, circuit_sim, cli, error_bounds, experiments, pade_core
from pade_lab import system_builder

REFS = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("step-search", "condition-sweep", "circuit-verify", "bound-suites")

EPS = 1e-10
ORDER = 9

# step-search: ops per horizon and dimension in one pass.  Each (dims, T) cell
# of the reference pool is sorted by the work proxy m*_pade + m*_taylor; op i
# of a cell is drawn from a narrow window of ranks around the cell's
# (i + 1/2)/picks quantile, STEP_WINDOW of a stratum wide, so the matrices
# change with the seed while the search work of a pass hardly does.
STEP_HORIZONS = (1.0, 10.0, 25.0, 50.0)
STEP_PICKS = {5: 8, 16: 1}
STEP_WINDOW = 0.25

# condition-sweep: m = 5, 12, 19, 33, 47 from the stride-7 grid 5, 12, ...;
# m = 58 and 65 from the clustered band 58..65 at the top of the spectrum of
# L^H L; m = 117, the largest system.  m = 5 takes the dense-SVD path; m = 12
# is the Taylor op that raises on seed 0.  m = 60..62 are left out: their
# Lanczos count depends on the seeded start vector (5k to 8k matvecs at 60
# and 62, 15k to 31k at 61), which spreads the work of a pass across seeds.
SWEEP_GRID = (5, 12, 19, 33, 47, 58, 65, 117)
SWEEP_HORIZON = 30.0
KAPPA_RTOL = 1e-8
TAYLOR_KAPPA_CUTOFF = 1e12

# circuit-verify: the C09 grid once, with seeded Hermitian matrices (about 9 s
# with two BLAS threads, so three passes fit a 30 s run).
CIRCUIT_STEP = 1.0
RESIDUAL_TOL = 1e-10
UNITARITY_TOL = 1e-12

# bound-suites: samples per pass, half from each suite.
BOUND_SAMPLES = 900
THETA_DELTA = 1e-8
THETA_TOL = 0.01


@dataclass
class Op:
    """One unit of work: ``run`` calls the program, ``check`` returns None when
    the output is correct and a reason otherwise."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def load_ref(name: str) -> dict:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int, *extra: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([tag, int(seed), *extra])


# ------------------------------------------------------------ step-search ---

def step_search_op(dims: int, matrix_seed: int, horizon: float):
    return experiments.random_suite_m_star(dims, [matrix_seed], [horizon],
                                           eps=EPS, order=ORDER)


def _step_check(want: dict):
    def check(report) -> str | None:
        got = {row.scheme: row for row in report.rows}
        for scheme, m_star in want.items():
            row = got.get(scheme)
            if row is None:
                return f"no {scheme} row"
            if row.steps != m_star:
                return f"{scheme} m*={row.steps}, reference {m_star}"
            if not row.rel_error < EPS:
                return f"{scheme} rel_error={row.rel_error:.3e} >= eps"
        return None
    return check


def _step_ops(seed: int) -> list[Op]:
    ref = load_ref("step_search")
    pool = [dict(zip(ref["fields"], row)) for row in ref["rows"]]
    rng = _rng("step-search", seed)
    picked = []
    for dims, picks in STEP_PICKS.items():
        for horizon in STEP_HORIZONS:
            cell = sorted((e for e in pool if e["dims"] == dims and e["T"] == horizon),
                          key=lambda e: (e["m_pade"] + e["m_taylor"], e["seed"]))
            half = max(1, round(STEP_WINDOW * len(cell) / picks / 2))
            for i in range(picks):
                centre = int((i + 0.5) * len(cell) / picks)
                window = range(max(0, centre - half), min(len(cell), centre + half + 1))
                picked.append(cell[int(rng.choice(window))])
    order = rng.permutation(len(picked))
    ops = []
    for i in order:
        e = picked[i]
        want = {"pade": e["m_pade"], "taylor": e["m_taylor"]}
        ops.append(Op(f"d{e['dims']}-s{e['seed']}-T{e['T']:g}",
                      lambda e=e: step_search_op(e["dims"], e["seed"], e["T"]),
                      _step_check(want)))
    return ops


# -------------------------------------------------------- condition-sweep ---

def sweep_problem(seed: int) -> pade_core.OdeProblem:
    """Seed 0: the Experiment-1 tridiagonal problem.  Seed s > 0: the same
    problem under a seeded random unitary similarity Q_s, so every system L is
    unitarily similar to the seed-0 one and has the same singular values."""
    a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
    b = np.ones(5, dtype=complex)
    x0 = np.ones(5, dtype=complex)
    if seed:
        rng = _rng("condition-sweep", seed)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        a, b, x0 = q @ a @ q.conj().T, q @ b, q @ x0
    return pade_core.OdeProblem(matrix_a=a, vec_b=b, vec_x0=x0, horizon=SWEEP_HORIZON)


def sweep_op(problem, m: int, scheme: str):
    return experiments.sweep_m(problem, ORDER, EPS, [m], schemes=(scheme,),
                               with_kappa=True)


def _sweep_check(scheme: str, m: int, ref_kappa: float, norm_a: float):
    def check(report) -> str | None:
        kappa = report.rows[0].kappa
        if not math.isfinite(kappa):
            return f"kappa={kappa} not finite"
        if scheme == "pade":
            bound = analysis.kappa_bound(m, 1, ORDER, norm_a * SWEEP_HORIZON / m)
            if kappa > bound:
                return f"kappa={kappa:.6e} above the bound {bound:.6e}"
        if ref_kappa < TAYLOR_KAPPA_CUTOFF or scheme == "pade":
            if abs(kappa - ref_kappa) > KAPPA_RTOL * ref_kappa:
                return f"kappa={kappa:.12e}, dense-SVD reference {ref_kappa:.12e}"
        return None
    return check


def _sweep_ops(seed: int) -> list[Op]:
    ref = load_ref("condition_sweep")["kappa"]
    problem = sweep_problem(seed)
    norm_a = float(np.linalg.norm(problem.matrix_a, 2))
    ops = []
    for scheme in ("pade", "taylor"):
        for m in SWEEP_GRID:
            ops.append(Op(f"{scheme}-m{m}",
                          lambda m=m, scheme=scheme: sweep_op(problem, m, scheme),
                          _sweep_check(scheme, m, ref[scheme][str(m)], norm_a)))
    return ops


# --------------------------------------------------------- circuit-verify ---

def _w_target(a: np.ndarray, h: float, k: int) -> np.ndarray:
    """Dense one-step block W_k(A h): scaled summation row, identity
    sub-diagonal, beta_{k-i} A h on the diagonal."""
    n = a.shape[0]
    beta = pade_core.pade_coefficients(k, k).beta_floats
    w = np.zeros((n * (k + 1), n * (k + 1)), dtype=complex)
    eye = np.eye(n)
    for j in range(k + 1):
        w[:n, j * n:(j + 1) * n] = eye / math.sqrt(k + 1)
    for i in range(1, k + 1):
        w[i * n:(i + 1) * n, (i - 1) * n:i * n] = eye
        w[i * n:(i + 1) * n, i * n:(i + 1) * n] = beta[k - i] * a * h
    return w


def circuit_op(nq: int, m: int, k1: int, a: np.ndarray | None):
    """Every stage that ``pade-lab circuit-verify`` checks, for one case:
    {stage: (residual, unitarity defect)}."""
    n = 2**nq
    h = CIRCUIT_STEP
    k = k1 - 1
    if a is None:
        a = np.zeros((n, n), dtype=complex)
        enc = circuit_sim.zero_matrix_encoding(nq)
    else:
        enc = circuit_sim.hermitian_encoding(a)
    scale = max(enc.alpha * h, 1.0)
    prim_targets = circuit_sim.primitive_targets(k, m)
    stages = [(name, stage, prim_targets[name])
              for name, stage in circuit_sim.primitive_encodings(k, m).items()]
    stages.append(("w", circuit_sim.build_w_encoding(enc, h, k), _w_target(a, h, k)))
    stages.append(("b", circuit_sim.build_b_encoding(k, m, scale),
                   prim_targets["m4"] + prim_targets["m5"]))
    stages.append(("coupling", circuit_sim.build_coupling_encoding(k, m, scale),
                   circuit_sim.coupling_target(k, m)))
    problem = pade_core.OdeProblem(matrix_a=a, vec_b=np.zeros(n), vec_x0=np.zeros(n),
                                   horizon=h * m)
    params = error_bounds.make_params(m, k, m * k1, h * m, "pade")
    target = system_builder.build_pade_system(problem, params).dense()
    stages.append(("L", circuit_sim.build_l_encoding(enc, h, m, k), target))
    out = {}
    for name, stage, want in stages:
        residual, _ = circuit_sim.verify_block_encoding(stage, want, RESIDUAL_TOL)
        out[name] = (residual, stage.unitarity_defect())
    return out


def _circuit_check(result) -> str | None:
    for name, (residual, defect) in result.items():
        if not residual <= RESIDUAL_TOL:
            return f"stage {name}: residual {residual:.3e} > {RESIDUAL_TOL:g}"
        if not defect <= UNITARITY_TOL:
            return f"stage {name}: unitarity defect {defect:.3e} > {UNITARITY_TOL:g}"
    return None


def _circuit_ops(seed: int) -> list[Op]:
    ops = []
    for nq in (0, 1):
        n = 2**nq
        for m in (1, 2):
            for k1 in (2, 4):
                for kind in ("zero", "hermitian"):
                    a = None
                    if kind == "hermitian":
                        rng = _rng("circuit-verify", seed, len(ops))
                        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                        a = (raw + raw.conj().T) / 2
                        a /= 1.3 * np.linalg.norm(a, 2)
                    ops.append(Op(f"n{n}-m{m}-k1{k1}-{kind}",
                                  lambda nq=nq, m=m, k1=k1, a=a: circuit_op(nq, m, k1, a),
                                  _circuit_check))
    return ops


# ----------------------------------------------------------- bound-suites ---

def theta_table_op():
    buf = io.StringIO()
    code = cli.run_cli(["theta-table"], stdout=buf)
    return code, buf.getvalue()


def _theta_check(tabulated: dict):
    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        rows = dict(line.split(",") for line in text.strip().splitlines()[1:])
        for k, want in tabulated.items():
            if k not in rows:
                return f"no row for k={k}"
            if abs(float(rows[k]) - want) > THETA_TOL:
                return f"theta_{k}={rows[k]}, tabulated {want}"
        return None
    return check


def _nsd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    w = -rng.uniform(0.0, 1.0, size=n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * w) @ q.conj().T


def hermitian_op(a: np.ndarray, k: int, h: float):
    params = error_bounds.make_params(1, k, 1, h, "pade")
    return analysis.inverse_norm_bounds(params, a, "hermitian_nsd")


def thm36_op(a: np.ndarray, k: int):
    h = error_bounds.theta_max(k, THETA_DELTA) / max(1e-9, float(np.linalg.norm(a, 2)))
    drift = analysis.propagator_drift(a, h, k, 2)
    rep = analysis.inverse_norm_bounds(error_bounds.make_params(2, k, 2, 2 * h, "pade"),
                                       a, "hermitian_nsd")
    return drift, rep


def _hermitian_check(rep) -> str | None:
    if not rep.measured_w_inv <= rep.bound_w_inv:
        return f"||W^-1||={rep.measured_w_inv:.6e} > {rep.bound_w_inv:.6e}"
    if not rep.measured_signed_row <= rep.bound_signed_row:
        return f"signed row {rep.measured_signed_row:.6e} > {rep.bound_signed_row:.6e}"
    return None


def _thm36_check(result) -> str | None:
    drift, rep = result
    if not drift.hypothesis_ok:
        return f"drift {drift.drift_max:.6e} > 1"
    if not rep.norm_l_inv <= rep.bound_l_inv:
        return f"||L^-1||={rep.norm_l_inv:.6e} > {rep.bound_l_inv:.6e}"
    if not rep.kappa <= rep.bound_kappa:
        return f"kappa={rep.kappa:.6e} > {rep.bound_kappa:.6e}"
    return _hermitian_check(rep)


def _bound_ops(seed: int) -> list[Op]:
    tabulated = load_ref("theta_table")["theta"]
    samples = []
    for i in range(BOUND_SAMPLES):
        rng = _rng("bound-suites", seed, i)
        n = int(rng.integers(2, 9))
        k = int(rng.choice([3, 7, 15]))
        a = _nsd_matrix(rng, n)
        if i % 2 == 0:
            h = float(rng.uniform(0.0, 50.0) / max(1e-9, np.linalg.norm(a, 2)))
            samples.append(Op(f"hermitian-{i}-n{n}-k{k}",
                              lambda a=a, k=k, h=h: hermitian_op(a, k, h), _hermitian_check))
        else:
            samples.append(Op(f"thm36-{i}-n{n}-k{k}",
                              lambda a=a, k=k: thm36_op(a, k), _thm36_check))
    # shuffled, so that both suites and every k are spread over the pass
    order = _rng("bound-suites", seed).permutation(len(samples))
    return [Op("theta-table", theta_table_op, _theta_check(tabulated))] + [samples[i] for i in order]


_MAKERS = {
    "step-search": _step_ops,
    "condition-sweep": _sweep_ops,
    "circuit-verify": _circuit_ops,
    "bound-suites": _bound_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The whole op set of one pass of ``workload`` for ``seed``."""
    return _MAKERS[workload](seed)
