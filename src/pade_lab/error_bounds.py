"""Remainder-series accuracy machinery and solver parameter selection.

The remainder of the diagonal order-k approximant,
``exp(-x) N(x)/D(x) - 1 = sum_{j>=2k+1} c_j x^j``, is computed in exact
rational arithmetic and then bounded term-wise.  The step-size table, the
minimal-order rule and the end-to-end parameter selection all sit on top of
that series.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import pade_core
from .errors import (
    AssumptionViolationError,
    BoundsError,
    ConsistencyError,
    DivergenceError,
    InfeasibilityError,
    SchemeError,
    StrategyError,
)

MAX_TRUNCATION = 512

#: Constant in the minimal-order rule  k!k!/((2k)!(2k+1)!) <= delta / 100.
ORDER_RULE_CONSTANT = 100

#: Tail-ratio inflation used to majorize the dropped series tail.
TAIL_INFLATION = 1.5


@dataclass(frozen=True)
class RemainderModel:
    """Remainder coefficients c_j for one approximation order.

    ``series[j]`` stores c_j and ``coeffs[j]`` stores |c_j| for
    j = 0..truncation_j; entries below the leading index 2k+1 are exactly
    zero.  ``radius_estimate`` is a lower bound
    on the convergence radius, derived from inflated coefficient ratios; the
    tail majorant is anchored at the envelope coefficient near the truncation
    (individual |c_j| can dip towards zero when the sign pattern flips, so the
    raw last-two ratio is not usable).
    """

    order: int
    series: np.ndarray
    coeffs: np.ndarray
    truncation_j: int
    radius_estimate: float
    tail_anchor_j: int
    tail_anchor_mag: float

    def __post_init__(self):
        k = self.order
        if self.truncation_j < 2 * k + 1:
            raise BoundsError("truncation index below the leading remainder term")
        if not np.isfinite(self.coeffs).all():
            raise ConsistencyError("remainder coefficients must be finite")
        if np.any(self.coeffs[: 2 * k + 1] != 0.0):
            raise ConsistencyError("coefficients below 2k+1 must vanish")


def _exact_sum(terms) -> Fraction:
    """The Fraction sum of integer ratios p/q, over their least common
    denominator and reduced once: the same Fraction as a term-by-term sum,
    without its gcd per operation."""
    lcm = math.lcm(*(q for _, q in terms))
    return Fraction(sum(p * (lcm // q) for p, q in terms), lcm)


def _exact_remainder_series(k: int, max_j: int) -> list[Fraction]:
    """Rational series c of exp(-x) N_kk(x) / D_kk(x) - 1 through x**max_j.

    c = F / D with F = exp(-x) N - D.  The Padé order conditions, F_j = 0 for
    j <= 2k, are checked on the exact coefficients of ``pade_core`` and raise
    ``ConsistencyError`` if one fails.  They make the remainder integral

        F(x) = (-1)^(k+1) x^(2k+1) / (2k)! int_0^1 exp(-t x) t^k (1 - t)^k dt

    hold, whose terms F_(2k+1+i) = (-1)^(k+1+i) k! (k+i)! / ((2k)! i! (2k+i+1)!)
    follow one another by the ratio -(k+i+1) / ((i+1) (2k+i+2)).  D(0) = 1, so
    c_j = F_j - sum_(1<=i<=min(j-2k-1, k)) D_i c_(j-i) from j = 2k+1 on, every
    c_j below vanishing; each c_j is one ``_exact_sum``.
    """
    coeffs = pade_core.pade_coefficients(k, k)
    num = [(c.numerator, c.denominator) for c in coeffs.num_coeffs]
    den = [((-1) ** i * d.numerator, d.denominator) for i, d in enumerate(coeffs.den_coeffs)]
    fact = list(itertools.accumulate(range(1, 2 * k + 1), operator.mul, initial=1))
    for j in range(2 * k + 1):
        terms = [((-1) ** (j - i) * a, b * fact[j - i]) for i, (a, b) in enumerate(num[:j + 1])]
        if j <= k:
            terms.append((-den[j][0], den[j][1]))
        if _exact_sum(terms):
            raise ConsistencyError(f"the order-{k} Padé coefficients miss the order "
                                   f"condition at x^{j}")
    series = [Fraction(0)] * (2 * k + 1)
    pairs = []  # (numerator, denominator) of c_(2k+1), c_(2k+2), ...
    lead = Fraction((-1) ** (k + 1) * fact[k] * fact[k], fact[2 * k] * fact[2 * k] * (2 * k + 1))
    for i in range(max_j - 2 * k):
        terms = [(lead.numerator, lead.denominator)]
        terms += [(-c * a, d * b) for (c, d), (a, b) in zip(den[1:], reversed(pairs[-k:]))]
        series.append(_exact_sum(terms))
        pairs.append((series[-1].numerator, series[-1].denominator))
        lead *= Fraction(-(k + i + 1), (i + 1) * (2 * k + i + 2))
    return series[:max_j + 1]


def remainder_coeffs(order: int, max_j: int) -> RemainderModel:
    """Power-series coefficients of the order-k remainder, exactly.

    The Padé order conditions behind the vanishing of c_j for j <= 2k are
    verified on the exact rationals, not in floating point.
    """
    k = int(order)
    if max_j < 2 * k + 1 or max_j > MAX_TRUNCATION:
        raise BoundsError(f"max_j={max_j} outside [2k+1, {MAX_TRUNCATION}]")
    exact = _exact_remainder_series(k, max_j)
    series = pade_core.read_only([float(c) for c in exact])
    mags = pade_core.read_only(np.abs(series))
    anchor, ratio = _tail_envelope(mags)
    radius = min(0.999 * _denominator_root_radius(k), 1.0 / (1.02 * ratio))
    return RemainderModel(order=k, series=series, coeffs=mags, truncation_j=max_j,
                          radius_estimate=radius, tail_anchor_j=anchor,
                          tail_anchor_mag=float(mags[anchor]))


def _denominator_root_radius(k: int) -> float:
    """Smallest |root| of the denominator polynomial (the true series radius)."""
    if k < 1:
        return np.inf
    den = pade_core.pade_coefficients(k, k).den_floats
    poly = np.array([den[j] * (-1.0) ** j for j in range(k + 1)])
    roots = np.roots(poly[::-1])
    return float(np.abs(roots).min())


def _tail_envelope(mags: np.ndarray) -> tuple[int, float]:
    """(anchor index, per-index growth ratio) of the late-coefficient envelope.

    Window maxima at both ends of the tail span avoid the near-zero dips the
    alternating sign pattern produces.
    """
    nz = np.flatnonzero(mags)
    if len(nz) < 2:
        return int(nz[-1]) if len(nz) else len(mags) - 1, 1e-12
    late = nz[-5:]
    anchor = int(late[np.argmax(mags[late])])
    early = nz[(nz >= anchor - 12) & (nz <= anchor - 5)]
    if len(early) == 0:
        early = nz[nz < anchor]
    if len(early) == 0:
        return anchor, 1e-12
    start = int(early[np.argmax(mags[early])])
    ratio = (mags[anchor] / mags[start]) ** (1.0 / (anchor - start))
    return anchor, max(ratio, 1e-12)


def remainder_bound(model: RemainderModel, theta: float) -> float:
    """f_k(theta) = sum_{j >= 2k+1} |c_j| theta^j with a geometric tail majorant."""
    if theta < 0:
        raise BoundsError("theta must be nonnegative")
    if theta == 0.0:
        return 0.0
    if theta >= model.radius_estimate:
        raise DivergenceError(
            f"theta={theta:.6g} at/above estimated radius {model.radius_estimate:.6g}"
        )
    k, jmax = model.order, model.truncation_j
    try:
        math.pow(theta, jmax)
    except OverflowError:
        return math.inf  # theta^j overflows in the head; inf is still an upper bound
    powers = theta ** np.arange(jmax + 1)
    head = float(np.dot(model.coeffs[2 * k + 1 :], powers[2 * k + 1 :]))
    # envelope majorant |c_j| <= 1.5 * anchor_mag * (1/radius)^{j - anchor_j}
    ratio = theta / model.radius_estimate
    lead = TAIL_INFLATION * model.tail_anchor_mag * theta**model.tail_anchor_j
    tail = lead * ratio ** (jmax + 1 - model.tail_anchor_j) / (1.0 - ratio)
    return head + tail


# pade_coefficients admits k <= 64 only, which bounds the keys.
@lru_cache(maxsize=None)
def cached_model(k: int) -> RemainderModel:
    """The ``remainder_coeffs`` model of order k through max(4k + 20, 2k + 60), once per k."""
    return remainder_coeffs(k, max(4 * k + 20, 2 * k + 60))


def theta_max(order: int, delta: float) -> float:
    """Largest theta with f_k(theta)/theta <= delta/(e-1), by bisection.

    Bracket [0, k+2], 60 fixed iterations (absolute error far below the 1e-4
    contract); the table values stay well below k.  The inputs are checked
    on every call; the bisection runs once per (k, delta).
    """
    if not 0 < delta < math.inf:
        raise BoundsError(f"delta must be positive and finite, got {delta}")
    k = int(order)
    if k < 1:
        raise InfeasibilityError("order must be >= 1 (order 0 has f/theta -> 1)")
    return _bisect_theta(k, float(delta))


# theta depends on (k, delta) alone, through the cached model; delta is a
# free float, so the cache is bounded.  A call that raises is not cached.
@lru_cache(maxsize=1024)
def _bisect_theta(k: int, delta: float) -> float:
    model = cached_model(k)
    target = delta / (math.e - 1.0)

    def ratio(theta: float) -> float:
        return remainder_bound(model, theta) / theta if theta > 0 else 0.0

    hi = min(k + 2.0, 0.999 * model.radius_estimate)
    if ratio(hi) <= target:
        return hi
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ratio(mid) <= target:
            lo = mid
        else:
            hi = mid
    if lo <= 0.0:
        raise InfeasibilityError(f"no feasible theta for k={k}, delta={delta}")
    return lo


def min_order(delta: float) -> int:
    """Smallest k with k!k!/((2k)!(2k+1)!) <= delta/100.

    The factorial ratio is updated incrementally in exact rationals; raw
    factorials are never formed.
    """
    if not 0 < delta < math.inf:
        raise BoundsError(f"delta must be positive and finite, got {delta}")
    threshold = Fraction(delta) / ORDER_RULE_CONSTANT
    ratio = Fraction(1, 12)  # k = 1
    k = 1
    while ratio > threshold:
        ratio *= Fraction((k + 1) ** 2, (2 * k + 1) * (2 * k + 2) ** 2 * (2 * k + 3))
        k += 1
        if k > 512:
            raise InfeasibilityError("order rule did not terminate")
    return k


@dataclass(frozen=True)
class SolverParams:
    """Discretization parameters for one encoded solve."""

    steps: int
    order: int
    padding: int
    step_size: float
    scheme: str
    delta: float

    def __post_init__(self):
        if self.scheme not in pade_core.SCHEME_NAMES:
            raise SchemeError(f"unknown scheme {self.scheme!r}")
        if self.steps < 1 or self.order < 1 or self.padding < 1:
            raise BoundsError("steps, order and padding must be >= 1")

    @property
    def horizon(self) -> float:
        return self.steps * self.step_size


def make_params(steps: int, order: int, padding: int, horizon: float,
                scheme: str = "pade") -> SolverParams:
    """SolverParams with step_size = horizon/steps (m*h = T by construction)."""
    if int(steps) < 1:
        raise BoundsError(f"steps must be >= 1, got {steps}")
    return SolverParams(steps=int(steps), order=int(order), padding=int(padding),
                        step_size=horizon / int(steps), scheme=scheme, delta=0.0)


def padding_rule(steps: int, step_size: float) -> int:
    """Success-probability padding p = ceil(6 m (1 + h^2))."""
    return int(math.ceil(6 * steps * (1.0 + step_size**2)))


def select_parameters(problem, eps: float, strategy: str = "unit-step",
                      order: int | None = None) -> SolverParams:
    """Choose (m, k, p, delta) for the Pade scheme.

    unit-step: m = ceil(||A T||), k = ceil(log M / log log M) with
    M = (401 T / eps)(||A|| + ||b||/||x(T)||); natural logarithms.
    fixed-order (Hermitian negative semi-definite only): keep the given k and
    minimize m subject to ||A h|| <= theta_max(k, delta).
    """
    if strategy not in ("unit-step", "fixed-order"):
        raise StrategyError(f"unknown strategy {strategy!r}")
    if not (0 < eps < 0.5):
        raise AssumptionViolationError("eps must lie in (0, 1/2)")
    a = problem.matrix_a
    t_final = problem.horizon
    norm_a = np.linalg.norm(a, 2)
    norm_at = norm_a * t_final
    if norm_at < 1.0:
        raise AssumptionViolationError(f"||A T||_2 = {norm_at:.4g} < 1")

    from .system_builder import classical_reference_trajectory  # deferred: avoids cycle

    m_unit = int(math.ceil(norm_at))
    traj = classical_reference_trajectory(
        problem, make_params(m_unit, 1, 1, t_final))
    terminal = traj.terminal_norm
    if terminal <= 0.0:
        raise AssumptionViolationError("terminal state has zero norm; M undefined")
    load = norm_a + np.linalg.norm(problem.vec_b) / terminal
    big_m = 401.0 * t_final / eps * load
    delta = eps / (4.0 * t_final * load)  # upper end of the admissible interval

    if strategy == "unit-step":
        m = m_unit
        k = int(math.ceil(math.log(big_m) / math.log(math.log(big_m))))
    else:
        if order is None:
            raise StrategyError("fixed-order strategy needs an explicit order")
        if not pade_core.is_hermitian_nsd(a):
            raise StrategyError("fixed-order strategy requires Hermitian negative semi-definite A")
        k = int(order)
        theta = theta_max(k, delta)
        m = max(1, int(math.ceil(norm_at / theta)))
    h = t_final / m
    return SolverParams(steps=m, order=k, padding=padding_rule(m, h),
                        step_size=h, scheme="pade", delta=delta)
