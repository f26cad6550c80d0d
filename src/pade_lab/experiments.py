"""Sweeps over step counts and approximation orders, with seeded random suites.

All randomness flows through ``numpy.random.default_rng(seed)`` so identical
invocations reproduce bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import extreme_singular_values
from .classical_solver import march_solution, propagated_terminal
from .errors import BoundsError, DegenerateTargetError, SearchError, SingularBlockError
from .error_bounds import SolverParams, make_params
from .pade_core import OdeProblem
from .system_builder import SCHEMES, _norm, _pow2_scale, classical_reference_trajectory

K_SEARCH_CAP = 64
M_SEARCH_CAP = 1 << 14
#: Largest factor by which one growth step of ``find_min_steps`` raises m.
MAX_GROWTH = 64


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


def random_stable_matrix(dim: int, seed: int) -> np.ndarray:
    """Random complex matrix whose eigenvalues all have negative real part.

    Sampler (recorded for reproducibility, no claim of any canonical
    distribution): eigenvalues with Re in [-2, -0.05] and Im in [-2, 2],
    conjugated by a random unitary pair with singular values log-spaced in
    [1, 8] (condition 8, well under the 50 cap).
    """
    rng = np.random.default_rng(seed)
    eig = -rng.uniform(0.05, 2.0, size=dim) + 1j * rng.uniform(-2.0, 2.0, size=dim)
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    sim = q1 @ np.diag(np.logspace(0.0, np.log10(8.0), dim)) @ q2.conj().T
    return sim @ np.diag(eig) @ np.linalg.inv(sim)


def _target(problem: OdeProblem, params: SolverParams) -> tuple[np.ndarray, float]:
    """The exact state x(T) and its norm, from the reference trajectory on the
    step grid of ``params``; a zero x(T) has no relative error."""
    traj = classical_reference_trajectory(problem, params)
    if traj.degenerate:
        raise DegenerateTargetError("reference terminal state has zero norm")
    return traj.states[-1], traj.terminal_norm


def _rel_error(terminal: np.ndarray, target: tuple[np.ndarray, float]) -> float:
    """Relative distance of ``terminal`` from the exact state of ``target``;
    a difference beyond the double range is retaken at the ``_pow2_scale`` of
    both states, and a distance beyond it is inf."""
    state, norm = target
    with np.errstate(over="ignore", invalid="ignore"):
        err = _norm(terminal - state) / norm
    if not math.isfinite(err):
        # divided one factor at a time: norm * scale can round to 0
        scale = _pow2_scale(terminal, state)
        err = _norm(terminal * scale - state * scale) / scale / norm
    return err


def _row(problem: OdeProblem, params: SolverParams, with_kappa: bool) -> SweepRow:
    """One reported row: rel_error and p_succ from the march, which does not
    assemble L, and kappa from ``extreme_singular_values``."""
    bundle = march_solution(problem, params)
    err = _rel_error(bundle.terminal, _target(problem, params))
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


def _search_target(problem: OdeProblem, scheme: str, order: int) -> tuple[np.ndarray, float]:
    """The one reference of a search: x(T) does not depend on the probe, so it
    is the reference trajectory's terminal state at m = 1.  That trajectory
    reads only n, m and h, so the reference of either scheme serves both."""
    return _target(problem, make_params(1, order, 1, problem.horizon, scheme))


def _probe_error(problem: OdeProblem, scheme: str, m: int, k: int,
                 target: tuple[np.ndarray, float]) -> float:
    """Search probe: the relative error of the terminal state at (m, k).  The
    state is the m-th power of the step map applied to x0, which needs neither
    L nor the norms of ``p_succ``.  A singular or overflowing step has error inf."""
    params = make_params(m, k, 1, problem.horizon, scheme)
    try:
        terminal = propagated_terminal(problem, params)
    except SingularBlockError:
        return math.inf
    return _rel_error(terminal, target)


def _check_eps(eps: float):
    # rel_error < eps never holds for eps <= 0 or NaN: the search would run to its cap
    if not eps > 0:
        raise BoundsError(f"eps must be positive, got {eps}")


def _secant_step(lo: int, e_lo: float, hi: int, e_hi: float, eps: float) -> int | None:
    """Where the line through (log m, log e) at lo and hi crosses eps, rounded
    down and clamped strictly inside the bracket; None without two distinct
    finite logs.  Past the crossing the error flattens onto its rounding
    floor, so the line lies above the error and crosses eps late: rounding
    down makes up for part of that."""
    if not (math.isfinite(e_lo) and e_hi > 0):
        return None
    top = math.log(e_lo)
    drop = top - math.log(e_hi)
    if not drop > 0:
        return None
    guess = lo * (hi / lo) ** ((top - math.log(eps)) / drop)
    return min(max(math.floor(guess), lo + 1), hi - 1)


def find_min_steps(problem: OdeProblem, scheme: str, order: int, eps: float) -> int:
    """Smallest m reaching rel_error < eps, located from the measured errors.

    The error falls like m^-q, q = ``Scheme.error_order`` (2k Padé, k Taylor).
    Growth: from m = 1, a failing probe with error e jumps to m (e/eps)^(1/q)
    rounded up, at least m + 1, at most ``MAX_GROWTH`` m and never past
    ``M_SEARCH_CAP``; a non-finite e doubles m.  Shrink: secant steps on
    (log m, log e) narrow the bracket of a failing lo and a passing hi, and
    a step that does not halve it is followed by one bisection.  Where the
    passing m are upward-closed this is the smallest passing m; otherwise it
    is some passing m whose m - 1 fails.
    """
    _check_eps(eps)
    return _min_steps(problem, scheme, order, eps, _search_target(problem, scheme, order))


def _min_steps(problem: OdeProblem, scheme: str, order: int, eps: float,
               target: tuple[np.ndarray, float]) -> int:
    """``find_min_steps`` against the ``_search_target`` ``target`` of ``problem``."""
    q = SCHEMES[scheme](order).error_order

    def error(m: int) -> float:
        return _probe_error(problem, scheme, m, order, target)

    lo, e_lo = 0, math.inf  # m = 0 stands for a failing probe below m = 1
    hi, e_hi = 1, error(1)
    while not e_hi < eps:
        if hi >= M_SEARCH_CAP:
            raise SearchError(f"no m <= {M_SEARCH_CAP} reaches eps={eps} for {scheme}")
        lo, e_lo = hi, e_hi
        grow = min((e_lo / eps) ** (1.0 / q), MAX_GROWTH) if math.isfinite(e_lo) else 2.0
        hi = min(max(math.ceil(lo * grow), lo + 1), M_SEARCH_CAP)
        e_hi = error(hi)
    bisect = False
    while hi - lo > 1:
        width = hi - lo
        mid = None if bisect else _secant_step(lo, e_lo, hi, e_hi, eps)
        secant = mid is not None
        if not secant:
            mid = (lo + hi) // 2
        e_mid = error(mid)
        if e_mid < eps:
            hi, e_hi = mid, e_mid
        else:
            lo, e_lo = mid, e_mid
        bisect = secant and 2 * (hi - lo) > width
    return hi


def find_min_order(problem: OdeProblem, scheme: str, eps: float) -> int:
    """Smallest k reaching rel_error < eps at m = p = 1."""
    _check_eps(eps)
    target = _search_target(problem, scheme, 1)
    for k in range(1, K_SEARCH_CAP + 1):
        if _probe_error(problem, scheme, 1, k, target) < eps:
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
    suite scale and can be recomputed via the analyze subcommand.  A search
    that reaches ``M_SEARCH_CAP`` gives no row and is named in
    ``aggregate["capped"]``; the means and stds are over the searches that
    finished, NaN where none did.
    """
    if not seeds or not horizons:
        raise SearchError("empty seed or horizon list")
    _check_eps(eps)
    report = SweepReport()
    ones = np.ones(dims)
    means: dict[str, dict[float, float]] = {scheme: {} for scheme in SCHEMES}
    stds: dict[str, dict[float, float]] = {scheme: {} for scheme in SCHEMES}
    capped: list[str] = []
    for horizon in horizons:
        samples: dict[str, list[int]] = {scheme: [] for scheme in SCHEMES}
        for seed in seeds:
            a = random_stable_matrix(dims, seed)
            problem = OdeProblem(matrix_a=a, vec_b=ones, vec_x0=ones, horizon=float(horizon))
            target = _search_target(problem, "pade", order)  # for both schemes
            for scheme in SCHEMES:
                try:
                    m_star = _min_steps(problem, scheme, order, eps, target)
                except SearchError as exc:
                    capped.append(f"{exc} at T={horizon:g}, seed {seed}")
                    continue
                samples[scheme].append(m_star)
                report.rows.append(_row(
                    problem, make_params(m_star, order, 1, problem.horizon, scheme), False))
        for scheme in SCHEMES:
            arr = np.array(samples[scheme], dtype=float)
            means[scheme][horizon], stds[scheme][horizon] = (
                (float(arr.mean()), float(arr.std())) if arr.size else (float("nan"),) * 2)
    report.aggregate = {"mean_m_star": means, "std_m_star": stds, "capped": capped}
    return report
