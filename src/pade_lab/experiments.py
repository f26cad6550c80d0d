"""Sweeps over step counts and approximation orders, with seeded random suites.

All randomness flows through ``numpy.random.default_rng(seed)`` so identical
invocations reproduce bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import extreme_singular_values
from .classical_solver import march_solution, march_terminal
from .errors import BoundsError, DegenerateTargetError, SearchError, SingularBlockError
from .error_bounds import SolverParams, make_params
from .pade_core import OdeProblem
from .system_builder import SCHEMES, classical_reference_trajectory

K_SEARCH_CAP = 64
M_SEARCH_CAP = 1 << 14


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    horizon: float
    steps: int
    order: int
    padding: int
    rel_error: float
    kappa: float
    p_succ: float

    def csv(self) -> str:
        return (f"{self.scheme},{self.horizon:.12g},{self.steps},{self.order},"
                f"{self.padding},{self.rel_error:.12e},{self.kappa:.12e},{self.p_succ:.12e}")


CSV_HEADER = "scheme,T,m,k,p,rel_error,kappa,p_succ"


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [r.csv() for r in self.rows]) + "\n"


def random_stable_matrix(dim: int, seed: int, unit_norm: bool = False) -> np.ndarray:
    """Random complex matrix whose eigenvalues all have negative real part.

    Sampler (recorded for reproducibility, no claim of any canonical
    distribution): eigenvalues with Re in [-2, -0.05] and Im in [-2, 2],
    conjugated by a random unitary pair with singular values log-spaced in
    [1, 8] (condition 8, well under the 50 cap).  With ``unit_norm`` the
    result is rescaled to spectral norm 1 up to 1e-10.
    """
    rng = np.random.default_rng(seed)
    eig = -rng.uniform(0.05, 2.0, size=dim) + 1j * rng.uniform(-2.0, 2.0, size=dim)
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    sim = q1 @ np.diag(np.logspace(0.0, np.log10(8.0), dim)) @ q2.conj().T
    a = sim @ np.diag(eig) @ np.linalg.inv(sim)
    if unit_norm:
        a = a / np.linalg.norm(a, 2)
    return a


def _rel_error(problem: OdeProblem, params, terminal: np.ndarray) -> float:
    """Relative distance of ``terminal`` from the exact state x(T)."""
    traj = classical_reference_trajectory(problem, params)
    if traj.degenerate:
        raise DegenerateTargetError("reference terminal state has zero norm")
    return float(np.linalg.norm(terminal - traj.states[-1]) / traj.terminal_norm)


def _row(problem: OdeProblem, params: SolverParams, with_kappa: bool) -> SweepRow:
    """One reported row: rel_error and p_succ from the march, which does not
    assemble L, and kappa from ``extreme_singular_values``."""
    bundle = march_solution(problem, params)
    err = _rel_error(problem, params, bundle.terminal)
    kappa = float("nan")
    if with_kappa:
        try:
            smax, smin = extreme_singular_values(problem, params)
        except SingularBlockError:
            pass  # an exactly singular system has no finite kappa
        else:
            kappa = smax / smin
    return SweepRow(params.scheme, problem.horizon, params.steps, params.order,
                    params.padding, err, kappa, bundle.p_succ)


def _reaches(problem: OdeProblem, scheme: str, m: int, k: int, eps: float) -> bool:
    """Search probe: does the terminal state at (m, k) reach eps?  The march
    skips the norms that only ``p_succ`` needs; the terminal state does not
    depend on the padding."""
    params = make_params(m, k, 1, problem.horizon, scheme)
    return _rel_error(problem, params, march_terminal(problem, params)) < eps


def _check_eps(eps: float):
    # rel_error < eps never holds for eps <= 0 or NaN: the search would run to its cap
    if not eps > 0:
        raise BoundsError(f"eps must be positive, got {eps}")


def find_min_steps(problem: OdeProblem, scheme: str, order: int, eps: float) -> int:
    """Smallest m reaching rel_error < eps: double until pass, then bisect back."""
    _check_eps(eps)
    def ok(m: int) -> bool:
        return _reaches(problem, scheme, m, order, eps)

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > M_SEARCH_CAP:
            raise SearchError(f"no m <= {M_SEARCH_CAP} reaches eps={eps} for {scheme}")
    lo = hi // 2  # lo fails (or hi == 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def find_min_order(problem: OdeProblem, scheme: str, eps: float) -> int:
    """Smallest k reaching rel_error < eps at m = p = 1."""
    _check_eps(eps)
    for k in range(1, K_SEARCH_CAP + 1):
        if _reaches(problem, scheme, 1, k, eps):
            return k
    raise SearchError(f"no order <= {K_SEARCH_CAP} reaches eps={eps} for {scheme}")


def sweep_m(problem: OdeProblem, order: int, eps: float, m_range,
            padding: int = 1, schemes=tuple(SCHEMES),
            with_kappa: bool = True) -> SweepReport:
    """Relative error, condition number and success probability over a step grid.

    kappa is NaN without ``with_kappa`` and for an exactly singular system.
    """
    _check_eps(eps)
    m_list = sorted(set(int(m) for m in m_range))
    if not m_list:
        raise SearchError("empty step range")
    report = SweepReport()
    m_star: dict[str, int | None] = {}
    for scheme in schemes:
        rows = [_row(problem, make_params(m, order, padding, problem.horizon, scheme), with_kappa)
                for m in m_list]
        report.rows += rows
        m_star[scheme] = next((r.steps for r in rows if r.rel_error < eps), None)
    report.aggregate = {"m_star": m_star}
    return report


def sweep_k(problem: OdeProblem, eps: float) -> SweepReport:
    """Smallest adequate order per scheme at m = p = 1, with its condition number."""
    k_star = {scheme: find_min_order(problem, scheme, eps) for scheme in SCHEMES}
    rows = [_row(problem, make_params(1, k, 1, problem.horizon, scheme), True)
            for scheme, k in k_star.items()]
    return SweepReport(rows, {"k_star": k_star})


def random_suite_m_star(dims: int, seeds, horizons, eps: float, order: int) -> SweepReport:
    """Experiment-3 style suite: minimal step count per seed, horizon and scheme.

    One row per (scheme, horizon, seed) at the found m*, with the achieved
    error and success probability; per-row condition numbers are skipped at
    suite scale and can be recomputed via the analyze subcommand.
    """
    if not seeds or not horizons:
        raise SearchError("empty seed or horizon list")
    report = SweepReport()
    ones = np.ones(dims)
    means: dict[str, dict[float, float]] = {scheme: {} for scheme in SCHEMES}
    stds: dict[str, dict[float, float]] = {scheme: {} for scheme in SCHEMES}
    for horizon in horizons:
        samples: dict[str, list[int]] = {scheme: [] for scheme in SCHEMES}
        for seed in seeds:
            a = random_stable_matrix(dims, seed)
            problem = OdeProblem(matrix_a=a, vec_b=ones, vec_x0=ones, horizon=float(horizon))
            for scheme in SCHEMES:
                m_star = find_min_steps(problem, scheme, order, eps)
                samples[scheme].append(m_star)
                report.rows.append(_row(
                    problem, make_params(m_star, order, 1, problem.horizon, scheme), False))
        for scheme in SCHEMES:
            arr = np.array(samples[scheme], dtype=float)
            means[scheme][horizon] = float(arr.mean())
            stds[scheme][horizon] = float(arr.std())
    report.aggregate = {"mean_m_star": means, "std_m_star": stds}
    return report
