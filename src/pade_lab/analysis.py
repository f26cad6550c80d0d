"""Spectral quantities, every bound as a checkable inequality, and reports.

Measured norms are ground truth, never estimates, because the point is to
compare them against the closed-form bounds.  Every A is measured on the
diagonal blocks X_i of a unitary similarity V^H A V = diag(X_i), the distinct
eigenvalues of a normal A or else A itself: L has the singular values of the
block systems S (x) I_b + B (x) (X_i h), and ||W^-1|| and the signed row come
from the blocks S1 (x) I_b + B1 (x) (X_i h) of W, so L is never assembled.  Every
block system and block of W is expanded by ``system_builder``.  The drift of
a normal A comes from the scalars exp(-lam_i h) R(lam_i h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import error_bounds, pade_core
from .classical_solver import substitution_pair
from .errors import (
    ClassificationError,
    ConsistencyError,
    ConvergenceError,
    MagnitudeError,
    SingularBlockError,
    SingularDenominatorError,
    SizeError,
)
from .error_bounds import SolverParams
from .pade_core import (
    OdeProblem,
    is_nsd_spectrum,
    pade_coefficients,
    pade_propagator,
    reference_expm,
)
from .system_builder import (
    SCHEMES,
    BlockLayout,
    block_layout,
    classical_reference_trajectory,
    csr_systems,
    dense_patterns,
    kron_sum,
    scaled_by_step,
)

#: Largest system dimension that ``condition_report`` measures unless asked.
CONDITION_DIM_CAP = 4096
#: A counts as normal when ||A A^H - A^H A||_F <= NORMALITY_TOL ||A||_F^2
#: (docs/DECISIONS.md bounds the error this admits).
NORMALITY_TOL = 1e-12
#: Largest block-system dimension measured by dense LAPACK on the stack of
#: blocks; above it sigma_max takes a certified bracket per scalar block (Lanczos
#: on the one block of a non-normal A) and sigma_min one Lanczos over the direct
#: sum of the blocks.
SLICE_DENSE_CAP = 128
#: Relative width hi - lo <= BRACKET_RTOL hi of the bracket on lambda_max(M^H M)
#: whose upper end gives sigma_max (docs/DECISIONS.md "sigma_max from a
#: certified bracket"), above the rounding (kd + 2) eps = 4.7e-15 of a band
#: Cholesky factor at the bandwidth kd = 2k + 1 = 19 of a Padé scalar block at k = 9.
BRACKET_RTOL = 1e-14
#: Inverse-iteration solves per band Cholesky factor of the bracket.
INVERSE_STEPS = 2
#: Lanczos basis size for sigma_max of the one block of a non-normal A, the top
#: of its Gram matrix, whose leading eigenvalues cluster as m grows; at k = 9,
#: m = 13..120 it needs about half the matvecs of ARPACK's default basis of 20.
SLICE_NCV = 40
#: Seed of the Lanczos start vectors and of the inverse iteration's.
LANCZOS_SEED = 0
#: Points per step at which _transient_growth samples ||exp(A t)||_2.
GROWTH_REFINE = 10


def _largest_eigenvalue(op, v0, ncv=None) -> float:
    """Top eigenvalue of a Hermitian operator by Lanczos, to relative 1e-12."""
    try:
        return spla.eigsh(op, k=1, which="LA", v0=v0, ncv=ncv, tol=1e-12,
                          return_eigenvectors=False)[0]
    except spla.ArpackError as exc:  # ArpackNoConvergence among them
        raise ConvergenceError(f"Lanczos failed: {exc}") from exc


def _lanczos_start(dim: int, complex_: bool) -> np.ndarray:
    """The seeded Lanczos start vector, complex for a complex operator."""
    rng = np.random.default_rng(LANCZOS_SEED)
    v0 = rng.normal(size=dim)
    return v0 + 1j * rng.normal(size=dim) if complex_ else v0


def _largest_gram_eigenvalue(csr, v0, ncv=None) -> float:
    """Top eigenvalue of M^H M by Lanczos."""
    dim = csr.shape[1]
    adj = csr.conj().T.tocsr()
    op = spla.LinearOperator((dim, dim), matvec=lambda x: adj @ (csr @ x), dtype=v0.dtype)
    return _largest_eigenvalue(op, v0, ncv)


def _gram_band(mat) -> np.ndarray:
    """G = M^H M of a sparse M in LAPACK lower band storage, band[i - j, j] = G_ij.

    M is laid out as its general band, bands[u + i - j, j] = M_ij with u and l its
    upper and lower bandwidths, so G has bandwidth min(u + l, d - 1) and band[o, j]
    is the product of columns j + o and j over their u + l + 1 - o common band rows.
    """
    coo = mat.tocoo()
    rows, cols = coo.row, coo.col
    up, low = int(max(0, (cols - rows).max())), int(max(0, (rows - cols).max()))
    width, d = up + low + 1, mat.shape[1]
    bands = np.zeros((width, d), dtype=mat.dtype)
    bands[up + rows - cols, cols] = coo.data
    band = np.zeros((min(width, d), d), dtype=mat.dtype)
    for o in range(len(band)):
        band[o, :d - o] = np.einsum("tj,tj->j", bands[:width - o, o:].conj(), bands[o:, :d - o])
    return band


def _largest_singular_value(mat, floor: float = 0.0) -> float:
    """sigma_max of a sparse M, or ``floor`` once a factorization shows sigma_max <= floor.

    M is scaled by the power of two 2^-e that puts max |m_ij| in [1/2, 1), so no
    entry of G = M^H M overflows and lambda_max(G) >= 1/4.  lambda_max(G) is
    bracketed by lo <= lambda_max <= hi: lo is max diag G, a Rayleigh quotient or
    a shift at which shift I - G has no band Cholesky factor; hi is Gershgorin's
    max absolute row sum or a shift at which it has one (Sylvester's inertia).
    Each factor drives INVERSE_STEPS steps of inverse iteration, whose Rayleigh
    quotient rho raises lo and, with its residual r, proposes the next shift
    rho + r (some eigenvalue lies within r of rho), kept in
    [lo (1 + BRACKET_RTOL), (lo + hi) / 2]; a shift without a factor is followed by
    the midpoint.  Once hi - lo <= BRACKET_RTOL hi, sigma_max is 2^e sqrt(hi).
    """
    top = float(np.abs(mat.data).max())
    if not math.isfinite(top):
        raise MagnitudeError(f"a block system of L has the entry {top}")
    scale = math.frexp(top)[1]
    mat = mat * math.ldexp(1.0, -scale)
    band = _gram_band(mat)
    pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))

    def factor(shift):
        shifted = -band
        shifted[0] += shift
        chol, info = pbtrf(shifted, lower=1, overwrite_ab=1)
        return chol if info == 0 else None

    row_sums = np.abs(band).sum(axis=0)
    for o in range(1, len(band)):
        row_sums[o:] += np.abs(band[o, :-o])
    lo, hi = float(band[0].real.max()), float(row_sums.max())
    bar = math.ldexp(floor, -scale)
    bar *= bar
    if bar >= hi or (bar > lo and factor(bar) is not None):
        return floor
    lo = max(lo, bar)
    adj = mat.conj().T
    x = _lanczos_start(mat.shape[1], complex_=mat.dtype.kind == "c")
    shift = hi
    while hi - lo > BRACKET_RTOL * hi:
        chol = factor(shift)
        if chol is None:
            lo = shift
            shift = 0.5 * (lo + hi)
            continue
        hi = shift
        for _ in range(INVERSE_STEPS):
            x = pbtrs(chol, x, lower=1)[0]
            x /= np.linalg.norm(x)
            y = mat @ x
            rho = float(np.vdot(y, y).real)
        resid = float(np.linalg.norm(adj @ y - rho * x))
        lo = max(lo, rho)
        shift = min(max(rho + resid, lo * (1.0 + BRACKET_RTOL)), 0.5 * (lo + hi))
    return math.ldexp(math.sqrt(hi), scale)


def _is_normal(a: np.ndarray) -> bool:
    """||A A^H - A^H A||_F <= NORMALITY_TOL ||A||_F^2, on A times the power of two
    that puts max |a_ij| in [1/2, 1), so no product of its top entries under- or overflows."""
    a = a * math.ldexp(1.0, -math.frexp(float(np.abs(a).max()))[1])
    adj = a.conj().T
    scale = float(np.linalg.norm(a)) ** 2
    return bool(np.linalg.norm(a @ adj - adj @ a) <= NORMALITY_TOL * scale)


def _normal_spectrum(a: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """(eigenvalues, Hermitian flag) of a normal A; None for any other A."""
    if not _is_normal(a):
        return None
    if pade_core.is_hermitian(a):
        return np.linalg.eigvalsh(a), True
    return np.linalg.eigvals(a), False


def _diagonal_blocks(a: np.ndarray, spectrum) -> tuple[np.ndarray, bool]:
    """(X, real): the (r, b, b) stack of the distinct eigenvalues of a normal A
    in order (b = 1; ``real`` if A is Hermitian), or of the one block A."""
    if spectrum is None:
        return a[None], False
    return np.unique(spectrum[0])[:, None, None], spectrum[1]


def _inverse(stack: np.ndarray, what: str) -> np.ndarray:
    """Inverses of a dense stack of square blocks; a singular one is typed."""
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"{what} is singular: {exc}") from exc


def _top(stack: np.ndarray) -> float:
    """max_i ||M_i||_2 over a dense stack of blocks M_i."""
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())


def _block_singular_values(rec, lay: BlockLayout, blocks: np.ndarray,
                           real: bool) -> tuple[float, float]:
    """(sigma_max, sigma_min) over the block systems M_i = S (x) I_b + B (x) (X_i h)
    of the scheme ``rec`` on ``lay``, one per diagonal block X_i of ``blocks``.

    sigma_max is convex in X, so for ``real`` scalar blocks only the two end
    blocks are measured.  Above ``SLICE_DENSE_CAP`` it is the certified bracket
    of ``_largest_singular_value`` on each scalar block system; a b-wide block
    (b > 1) gives M^H M the bandwidth (2k + 2) b - 1, and one band factorization
    there costs more than a Lanczos run on M^H M, which it takes instead.
    sigma_min is 1/||M^-1||_2, never the last singular value of M, which floors
    at eps sigma_max; above ``SLICE_DENSE_CAP`` it comes from one Lanczos on the
    direct sum of the M_i, applied by the block substitution of
    ``classical_solver.substitution_pair``.
    """
    d, w = lay.block_rows, blocks.shape[-1]
    xh = scaled_by_step(blocks, lay.h)
    ends = [0, -1] if real else slice(None)
    if d * w <= SLICE_DENSE_CAP:
        # the stack is rebound to the inverses, freed before their SVD
        stack = kron_sum(*dense_patterns(rec, lay.m, lay.p), xh)
        smax, stack = _top(stack[ends]), _inverse(stack, "a block system of L")
        return smax, 1.0 / _top(stack)
    systems = csr_systems(rec, lay.m, lay.p, xh[ends])
    if w == 1:
        smax = 0.0
        for csr in systems:
            smax = _largest_singular_value(csr, smax)
    else:
        v0 = _lanczos_start(d * w, complex_=not real)
        smax = float(np.sqrt(max(_largest_gram_eigenvalue(csr, v0, SLICE_NCV) for csr in systems)))
    inv, inv_h = substitution_pair(rec.one_step(xh), rec, lay.m, lay.p)
    dim = len(xh) * d * w
    v0 = _lanczos_start(dim, complex_=not real)
    inv_op = spla.LinearOperator((dim, dim), matvec=lambda x: inv(inv_h(x)), dtype=v0.dtype)
    inv_sq = _largest_eigenvalue(inv_op, v0)
    return smax, float(1.0 / np.sqrt(inv_sq))


@dataclass(frozen=True)
class _Measure:
    """What both reports read of one A on one system L (see ``_measure``)."""

    spectrum: tuple[np.ndarray, bool] | None
    blocks: np.ndarray
    norm_a: float
    cases: tuple[str, ...]
    sigma: tuple[float, float]


#: The cases the bounds are stated for, in the order ``condition_report``
#: tries them, each with the error message for a matrix outside it.
_CASES = {"hermitian_nsd": "matrix is not Hermitian negative semi-definite",
         "unit_norm": "||A h||_2 exceeds 1"}


def _measure(a: np.ndarray, params: SolverParams) -> _Measure:
    """One ``_normal_spectrum``, ``_diagonal_blocks`` and sigma(L) of A on the
    system of ``params``, ||A||_2 (max |lam_i| for a normal A, else the 2-norm)
    and the ``_CASES`` that A h falls in: hermitian_nsd by its eigenvalues,
    unit_norm when h ||A||_2 <= 1 + 1e-12."""
    spectrum = _normal_spectrum(a)
    blocks, real = _diagonal_blocks(a, spectrum)
    lay = BlockLayout(a.shape[0], params.steps, params.order, params.padding, params.step_size)
    sigma = _block_singular_values(SCHEMES[params.scheme](lay.k), lay, blocks, real)
    norm_a = float(np.linalg.norm(a, 2)) if spectrum is None else float(np.abs(spectrum[0]).max())
    holds = (spectrum is not None and spectrum[1] and is_nsd_spectrum(spectrum[0]),
             lay.h * norm_a <= 1.0 + 1e-12)
    return _Measure(spectrum, blocks, norm_a,
                    tuple(case for case, ok in zip(_CASES, holds) if ok), sigma)


def extreme_singular_values(problem: OdeProblem, params: SolverParams) -> tuple[float, float]:
    """(sigma_max, sigma_min) of the system L of ``problem`` discretized by ``params``.

    With V^H A V = diag(X_i) unitary, (I (x) V)^H L (I (x) V) is, up to a
    permutation, the direct sum of the block systems S (x) I_b + B (x) (X_i h),
    so L has their singular values and is never assembled.
    """
    return _measure(problem.matrix_a, params).sigma


# ---------------------------------------------------------------- bounds ---

def w_inverse_bound(k: int, case: str) -> float:
    """Inverse-norm bound for the one-step block: sqrt((k+1)(4 log(k+1) + 1)),
    with the extra 2 sqrt(e)/(3-e) prefactor in the unit-norm case."""
    base = math.sqrt((k + 1) * (4.0 * math.log(k + 1) + 1.0))
    if case == "hermitian_nsd":
        return base
    if case == "unit_norm":
        return 2.0 * math.sqrt(math.e) / (3.0 - math.e) * base
    raise ClassificationError(f"unknown case {case!r}")


def signed_row_contraction_bound(k: int) -> float:
    """Bound sqrt(5k+1) on the alternating-sign row applied to the block inverse."""
    return math.sqrt(5.0 * k + 1.0)


def l_inverse_bound(m: int, p: int, k: int) -> float:
    """6 (m+p) sqrt(k log k), valid for Hermitian NSD inputs and k >= 3."""
    if k < 3:
        raise ClassificationError("the full-system bound needs k >= 3")
    return 6.0 * (m + p) * math.sqrt(k * math.log(k))


def kappa_bound(m: int, p: int, k: int, norm_ah: float) -> float:
    """3 (m+p) sqrt(k log k) (6 + ||A h||), Hermitian NSD case, k >= 3."""
    if k < 3:
        raise ClassificationError("the condition bound needs k >= 3")
    return 3.0 * (m + p) * math.sqrt(k * math.log(k)) * (6.0 + norm_ah)


def l_norm_bound(k: int, h: float, norm_a: float) -> float:
    """||L||_2 <= beta_1 h ||A|| + 3 with beta_1 = 1/2 for equal orders."""
    beta1 = float(pade_coefficients(k, k).ratio_beta[0])
    return beta1 * h * norm_a + 3.0


@dataclass(frozen=True)
class DriftReport:
    drift_max: float
    per_step: np.ndarray
    hypothesis_ok: bool


def _log1p(z: np.ndarray) -> np.ndarray:
    """log(1 + z) for |z| < 1; numpy's complex log1p is log(1 + z), which
    loses the real part of a small complex z, so that one is formed from
    log|1 + z| = log1p(2 Re z + |z|^2) / 2 and arg(1 + z)."""
    if not np.iscomplexobj(z):
        return np.log1p(z)
    re, im = z.real, z.imag
    return 0.5 * np.log1p(re * (2.0 + re) + im * im) + 1j * np.arctan2(im, 1.0 + re)


# pade_coefficients admits k <= 64 only, which bounds the keys.
@lru_cache(maxsize=None)
def _remainder_head(order: int) -> tuple[np.ndarray, int, float]:
    """(c_first, ..., c_last, first, reach): the nonzero span of the series of
    ``error_bounds.cached_model(order)`` and the |x| up to which its last term
    |c_last| |x|^last is at most eps."""
    series = error_bounds.cached_model(order).series
    first, last = np.flatnonzero(series)[[0, -1]]
    reach = (np.finfo(float).eps / abs(series[last])) ** (1.0 / last)
    return series[first:last + 1], int(first), float(reach)


def _scalar_drift(lam: np.ndarray, step: float, order: int, steps: int) -> np.ndarray:
    """max_j |g_j^i - 1| for i = 1..steps, g_j = exp(-lam_j h) N(lam_j h) / D(lam_j h):
    the drift of a normal A, whose exp(-A h) R(A h) has the eigenvalues g_j.

    g - 1 cancels where g is near 1.  So wherever |x| = |lam h| is within the
    reach of ``_remainder_head``, where the last term of the remainder series
    sum c_i x^i is below the rounding of g - 1, g - 1 is that series; and
    wherever |g - 1| < 1/2, g^i - 1 is expm1(i log1p(g - 1)) rather than the
    i-th power minus 1.
    """
    coeffs = pade_coefficients(order, order)
    x = lam * step
    num = np.polyval(coeffs.num_floats[::-1], x)
    den = np.polyval(coeffs.den_floats[::-1], -x)
    if not (np.isfinite(num).all() and np.isfinite(den).all() and den.all()):
        raise SingularDenominatorError(
            f"denominator of order {order} vanishes or overflows on the spectrum of A h",
            cond_estimate=np.inf)
    head, first, reach = _remainder_head(order)
    with np.errstate(over="ignore", invalid="ignore"):
        back = np.exp(-x)
        if not np.isfinite(back).all():
            raise MagnitudeError(f"exp(-A h) overflows for max |lam h| = {np.abs(x).max():.3e}")
        g = back * num / den
        gm1 = g - 1.0
        near = np.abs(x) <= reach
        if near.any():
            # x^first, x^(first + 1), ... by running products
            powers = np.repeat(x[near][None], len(head), axis=0)
            powers[0] **= first
            gm1[near] = head @ np.cumprod(powers, axis=0)
        small = np.abs(gm1) < 0.5
        i = np.arange(1.0, steps + 1.0)[:, None]
        powers = np.expm1(i * _log1p(np.where(small, gm1, 0.0)))
        if not small.all():
            powers = np.where(small, powers,
                              np.cumprod(np.broadcast_to(g, (steps, x.size)), axis=0) - 1.0)
        return np.abs(powers).max(axis=1)


def _drift(a: np.ndarray, spectrum, step: float, order: int, steps: int) -> DriftReport:
    """``propagator_drift`` of A, given its ``_normal_spectrum``."""
    if spectrum is not None:
        vals = _scalar_drift(spectrum[0], step, order, steps)
    else:
        r = pade_propagator(a, step, order)
        back = reference_expm(a, -step)
        gmat = back @ r  # exp(-Ah) and R commute, both functions of A
        eye = np.eye(a.shape[0])
        acc = np.eye(a.shape[0], dtype=complex)
        vals = np.empty(steps)
        for i in range(steps):
            acc = acc @ gmat
            vals[i] = np.linalg.norm(eye - acc, 2)
    dmax = float(vals.max())
    return DriftReport(drift_max=dmax, per_step=vals, hypothesis_ok=bool(dmax <= 1.0))


def propagator_drift(matrix_a, step: float, order: int, steps: int) -> DriftReport:
    """max_i ||I - exp(-i A h) R^i(A h)||_2 and the <=1 hypothesis flag."""
    a = np.asarray(matrix_a, dtype=complex)
    return _drift(a, _normal_spectrum(a), step, order, steps)


# ------------------------------------------------------------ reports ------

@dataclass(frozen=True)
class AnalysisReport:
    """Measured spectral quantities beside their theoretical bounds."""

    norm_l: float | None = None
    norm_l_inv: float | None = None
    kappa: float | None = None
    bound_l_inv: float | None = None
    bound_kappa: float | None = None
    bound_l_norm: float | None = None
    c_of_a: float | None = None
    g_ratio: float | None = None
    drift_max: float | None = None
    case: str | None = None
    measured_w_inv: float | None = None
    bound_w_inv: float | None = None
    measured_signed_row: float | None = None
    bound_signed_row: float | None = None
    satisfied: dict = field(default_factory=dict)


def _one_step_norms(rec, xh: np.ndarray) -> tuple[float, float]:
    """(||W^-1||_2, ||(signs (x) I_n) W^-1||_2) of the one-step block of ``rec``.

    The similarity of ``_diagonal_blocks`` takes W to the direct sum of the
    W_i = S1 (x) I_b + B1 (x) xh_i and the signed row to the block diagonal of
    (signs (x) I_b) W_i^-1, so both norms are the largest over the blocks.
    """
    r, w = xh.shape[:2]
    winv = _inverse(rec.one_step(xh), "a one-step block")
    rows = rec.signs @ winv.reshape(r, len(rec.signs), -1)  # (signs (x) I_b) W_i^-1
    return _top(winv), _top(rows.reshape(r, w, -1))


def _report(meas: _Measure, params: SolverParams, case: str | None, rows: dict,
            **fields) -> AnalysisReport:
    """The report of ``meas`` in ``case`` from one bound table, name ->
    (measured, bound): the caller's ``rows``, then ``l_norm`` for the Padé
    system and ``l_inv`` and ``kappa`` in the Hermitian NSD case with k >= 3."""
    k, m, p, h = params.order, params.steps, params.padding, params.step_size
    norm_l, norm_l_inv = meas.sigma[0], 1.0 / meas.sigma[1]
    kappa = norm_l * norm_l_inv
    table = dict(rows)
    if params.scheme == "pade":
        if case == "hermitian_nsd" and k >= 3:
            table["l_inv"] = (norm_l_inv, l_inverse_bound(m, p, k))
            table["kappa"] = (kappa, kappa_bound(m, p, k, h * meas.norm_a))
        table["l_norm"] = (norm_l, l_norm_bound(k, h, meas.norm_a))
    bound = {name: b for name, (_, b) in table.items()}
    return AnalysisReport(
        norm_l=norm_l, norm_l_inv=norm_l_inv, kappa=kappa,
        bound_l_inv=bound.get("l_inv"), bound_kappa=bound.get("kappa"),
        bound_l_norm=bound.get("l_norm"), case=case,
        satisfied={name: got <= b for name, (got, b) in table.items()}, **fields)


def inverse_norm_bounds(params: SolverParams, matrix_a, case: str) -> AnalysisReport:
    """Bounds and measured norms for one step block and the full system.

    ``case`` must be one that the matrix falls in (see ``_measure``).  Both
    are measured on the diagonal blocks of A; L is never assembled.
    """
    if params.scheme != "pade":
        raise ConsistencyError(f"the bounds are for the Padé system, got {params.scheme!r}")
    meas = _measure(np.asarray(matrix_a, dtype=complex), params)
    if case not in meas.cases:
        raise ClassificationError(_CASES.get(case, f"unknown case {case!r}"))
    k = params.order
    w, row = _one_step_norms(SCHEMES["pade"](k), meas.blocks * params.step_size)
    b_w, b_row = w_inverse_bound(k, case), signed_row_contraction_bound(k)
    rows = {"w_inv": (w, b_w)}
    if case == "hermitian_nsd":
        rows["signed_row"] = (row, b_row)
    return _report(meas, params, case, rows, measured_w_inv=w, bound_w_inv=b_w,
                   measured_signed_row=row, bound_signed_row=b_row)


def _transient_growth(a: np.ndarray, spectrum, horizon: float, steps: int) -> float:
    """c(A) = max over the refined step grid of ||exp(A t)||_2; for a normal A it
    is exp(max Re lam t), monotone in t, so it peaks at t = 0 or T."""
    if spectrum is not None:
        return max(1.0, float(np.exp(spectrum[0].real.max() * horizon)))
    ts = np.linspace(0.0, horizon, steps * GROWTH_REFINE + 1)
    return float(max(np.linalg.norm(reference_expm(a, t), 2) for t in ts))


def condition_report(problem: OdeProblem, params: SolverParams,
                     dim_cap: int = CONDITION_DIM_CAP) -> AnalysisReport:
    """Measured condition number of the system L and every bound that applies
    in the first of ``_CASES`` that A falls in.  ``dim_cap`` caps the dimension
    of L, and so the block systems measured, though L is never formed; raise
    it explicitly for larger sweeps.  sigma(L), the case, c(A) and the drift
    read one ``_normal_spectrum``."""
    lay = block_layout(problem, params)
    if lay.dim > dim_cap:
        raise SizeError(f"condition report capped at dimension {dim_cap}, got {lay.dim}")
    a = problem.matrix_a
    meas = _measure(a, params)
    traj = classical_reference_trajectory(problem, params)
    g = traj.g(float(np.linalg.norm(problem.vec_b))) if not traj.degenerate else None
    c_of_a = _transient_growth(a, meas.spectrum, params.horizon, lay.m)
    drift = (_drift(a, meas.spectrum, lay.h, lay.k, lay.m).drift_max
             if params.scheme == "pade" else None)
    return _report(meas, params, meas.cases[0] if meas.cases else None, {},
                   c_of_a=c_of_a, g_ratio=g, drift_max=drift)
