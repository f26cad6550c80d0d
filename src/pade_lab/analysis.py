"""Spectral quantities, every bound as a checkable inequality, and reports.

Measured norms are ground truth, never estimates, because the point is to
compare them against the closed-form bounds.  For normal A = V Lam V^H every
measured quantity is one of the eigenvalues: the singular values of L are
those of its n scalar slices S + lam_i h B, ||W^-1|| and the signed row come
from the (k+1)-square slices S1 + lam_i h B1 of the one-step block, and the
drift from the scalars exp(-lam_i h) R(lam_i h); nothing is assembled.  Any
other A assembles L once and takes dense SVD at desk scale and Lanczos with a
sparse factorization above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import pade_core
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
    is_hermitian_nsd,
    is_nsd_spectrum,
    pade_coefficients,
    pade_propagator,
    reference_expm,
)
from .system_builder import (
    BUILDERS,
    SCHEMES,
    BlockLayout,
    block_layout,
    classical_reference_trajectory,
    scalar_patterns,
)

#: Largest system dimension that ``condition_report`` measures unless asked.
CONDITION_DIM_CAP = 4096
#: A counts as normal when ||A A^H - A^H A||_F <= NORMALITY_TOL ||A||_F^2
#: (docs/DECISIONS.md bounds the error this admits).
NORMALITY_TOL = 1e-12
#: Largest scalar-slice dimension measured by dense LAPACK on the stack of
#: slices; larger slices take Lanczos one by one.
SLICE_DENSE_CAP = 128
#: Lanczos basis size for the top of a slice's Gram matrix, whose leading
#: eigenvalues cluster as m grows; at k = 9, m = 13..120 it needs about half
#: the matvecs of ARPACK's default basis of 20.
SLICE_NCV = 40
#: Seed of the Lanczos start vector, shared by the sigma_max and sigma_min runs.
LANCZOS_SEED = 0
#: Points per step at which transient_growth samples ||exp(A t)||_2.
GROWTH_REFINE = 10


def _largest_eigenvalue(op, v0, ncv=None) -> float:
    """Top eigenvalue of a Hermitian operator by Lanczos, to relative 1e-12."""
    try:
        return spla.eigsh(op, k=1, which="LA", v0=v0, ncv=ncv, tol=1e-12,
                          return_eigenvectors=False)[0]
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"Lanczos did not converge: {exc}") from exc


def _lanczos_start(dim: int, complex_: bool) -> np.ndarray:
    """The seeded Lanczos start vector, complex for a complex operator."""
    rng = np.random.default_rng(LANCZOS_SEED)
    v0 = rng.normal(size=dim)
    return v0 + 1j * rng.normal(size=dim) if complex_ else v0


def _largest_gram_eigenvalue(csr, v0, ncv=None) -> float:
    """Top eigenvalue of M^H M by Lanczos.  The adjoint is built once, here,
    so that it is freed before the caller factorizes M."""
    dim = csr.shape[1]
    adj = csr.conj().T.tocsr()
    op = spla.LinearOperator((dim, dim), matvec=lambda x: adj @ (csr @ x), dtype=v0.dtype)
    return _largest_eigenvalue(op, v0, ncv)


def _factorize(matrix):
    """Sparse LU of M.  When the default column ordering and partial pivoting
    stop on an exactly zero pivot, refactor in the natural order with diagonal
    pivots: L is block lower triangular, so its own order eliminates block by
    block.  Only a matrix that fails both is singular."""
    csc = matrix.tocsc()
    try:
        return spla.splu(csc)
    except RuntimeError:  # "Factor is exactly singular"
        pass
    try:
        return spla.splu(csc, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularBlockError(f"sparse LU failed in both orderings: {exc}") from exc


def _largest_inverse_gram_eigenvalue(matrix, v0) -> float:
    """Top eigenvalue of M^-H M^-1 by Lanczos on the sparse LU of M."""
    dim = matrix.shape[0]
    lu = _factorize(matrix)
    inv_op = spla.LinearOperator(
        (dim, dim), matvec=lambda x: lu.solve(lu.solve(x, trans="H"), trans="N"),
        dtype=v0.dtype)
    return _largest_eigenvalue(inv_op, v0)


def _operator_singular_values(matrix) -> tuple[float, float]:
    """(sigma_max, sigma_min) of any sparse operator.

    Dense SVD up to 512; above it, Lanczos on M^H M for the top and on the
    factorized inverse for the bottom.
    """
    dim = matrix.shape[0]
    if dim <= 512:
        svals = np.linalg.svd(matrix.toarray(), compute_uv=False)
        return float(svals[0]), float(svals[-1])
    csr = matrix.tocsr()
    v0 = _lanczos_start(dim, complex_=True)
    top = _largest_gram_eigenvalue(csr, v0)
    bottom = _largest_inverse_gram_eigenvalue(matrix, v0)
    return float(np.sqrt(top)), float(1.0 / np.sqrt(bottom))


def _is_normal(a: np.ndarray) -> bool:
    """||A A^H - A^H A||_F <= NORMALITY_TOL ||A||_F^2."""
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


def _slice_singular_values(scheme: str, lay: BlockLayout, lam: np.ndarray,
                           hermitian: bool) -> tuple[float, float]:
    """(sigma_max, sigma_min) over the scalar systems M(lam_i) = S + lam_i h B
    of ``scheme`` on ``lay``.

    sigma_max is convex in lam, so for real lam only the two end slices are
    measured.  sigma_min is 1/||M^-1||_2, never the last singular value of M,
    which floors at eps sigma_max.
    """
    d = lay.block_rows
    lam = np.unique(lam)
    ends = lam[[0, -1]] if hermitian else lam
    patterns = scalar_patterns(SCHEMES[scheme](lay.k), lay)
    if d <= SLICE_DENSE_CAP:
        s, b = np.zeros((2, d, d))
        for mat, (rows, cols, vals) in zip((s, b), patterns):
            np.add.at(mat, (rows, cols), vals)
        smax = np.linalg.svd(s + (ends * lay.h)[:, None, None] * b, compute_uv=False)[:, 0].max()
        try:
            inv = np.linalg.inv(s + (lam * lay.h)[:, None, None] * b)
        except np.linalg.LinAlgError as exc:
            raise SingularBlockError(f"a scalar slice is singular: {exc}") from exc
        inv_norm = np.linalg.svd(inv, compute_uv=False)[:, 0].max()
        return float(smax), float(1.0 / inv_norm)
    s, b = (sp.csr_matrix((vals, (rows, cols)), shape=(d, d)) for rows, cols, vals in patterns)
    v0 = _lanczos_start(d, complex_=not hermitian)
    smax_sq = max(_largest_gram_eigenvalue(s + (x * lay.h) * b, v0, SLICE_NCV) for x in ends)
    inv_sq = max(_largest_inverse_gram_eigenvalue(s + (x * lay.h) * b, v0) for x in lam)
    return float(np.sqrt(smax_sq)), float(1.0 / np.sqrt(inv_sq))


def _l_singular_values(a: np.ndarray, params: SolverParams,
                       spectrum: tuple[np.ndarray, bool] | None) -> tuple[float, float]:
    """(sigma_max, sigma_min) of L for A = ``a`` with ``_normal_spectrum``
    ``spectrum``; L does not depend on b or x0, so it is assembled with zeros."""
    n = a.shape[0]
    if spectrum is None:
        problem = OdeProblem(matrix_a=a, vec_b=np.zeros(n), vec_x0=np.zeros(n),
                             horizon=params.horizon)
        return _operator_singular_values(BUILDERS[params.scheme](problem, params).matrix)
    lay = BlockLayout(n, params.steps, params.order, params.padding, params.step_size)
    return _slice_singular_values(params.scheme, lay, *spectrum)


def extreme_singular_values(problem: OdeProblem, params: SolverParams) -> tuple[float, float]:
    """(sigma_max, sigma_min) of the system L of ``problem`` discretized by ``params``.

    For normal A = V Lam V^H, (I (x) V)^H L (I (x) V) is the direct sum of the
    scalar systems S + lam_i h B, so the singular values of L are those of
    its n slices, which are measured and L is never assembled.  Any other A
    assembles L once and takes the operator path.
    """
    return _l_singular_values(problem.matrix_a, params, _normal_spectrum(problem.matrix_a))


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


# ------------------------------------------------------------- W inverse ---

def explicit_w_inverse(matrix_a, step: float, order: int) -> np.ndarray:
    """Closed-form blocks of the one-step inverse: powers of -Ah, coefficient
    ratios, and a single denominator inverse as prefactor."""
    a = np.asarray(matrix_a, dtype=complex)
    n = a.shape[0]
    k = order
    d = pade_coefficients(k, k).den_floats
    x = a * step
    powers = [np.eye(n, dtype=complex)]
    for _ in range(k):
        powers.append(powers[-1] @ (-x))
    den = sum(d[j] * powers[j] for j in range(k + 1))
    lu = sla.lu_factor(den)
    out = np.zeros((n * (k + 1), n * (k + 1)), dtype=complex)
    blocks = out.reshape(k + 1, n, k + 1, n)
    root = math.sqrt(k + 1)
    for r in range(1, k + 2):
        lam = k + 1 - r
        for s in range(1, k + 2):
            if s == 1:
                b = root * d[lam] * powers[lam]
            else:
                t = k + 2 - s
                if lam >= t:
                    b = (d[lam] / d[t]) * sum(d[j] * powers[j + lam - t] for j in range(t))
                else:
                    b = -(d[lam] / d[t]) * sum(d[j] * powers[j + lam - t] for j in range(t, k + 1))
            blocks[r - 1, :, s - 1] = sla.lu_solve(lu, b)
    return out


def taylor_inverse_growth(matrix_a, step: float, order: int) -> tuple[float, float]:
    """(lower bound, measured) for the inverse norm of the truncated-series block.

    The lower bound is the norm of the first block column of the inverse,
    sqrt(sum_{j<=k} ||A h||^{2j} / (j!)^2).  By Cauchy-Schwarz it is at least
    T_k(||A h||)/sqrt(k+1), with T_k(x) = sum_{j<=k} x^j/j!.  That floor
    approaches exp(||A h||)/sqrt(k+1) only once k exceeds ||A h||: at
    ||A h|| = 10, k = 9 it is 3189.7, since T_9(10) is only 0.458 e^10.
    The rational block stays bounded instead.
    """
    a = np.asarray(matrix_a, dtype=complex)
    if not pade_core.is_hermitian(a):
        raise ClassificationError("growth bound derived for Hermitian input")
    k = order
    nah = float(np.linalg.norm(a * step, 2))
    bound = math.sqrt(sum(nah ** (2 * j) / math.factorial(j) ** 2 for j in range(k + 1)))
    w = SCHEMES["taylor"](k).one_step(a * step)
    measured = float(np.linalg.norm(np.linalg.inv(w), 2))
    return bound, measured


@dataclass(frozen=True)
class DriftReport:
    drift_max: float
    per_step: np.ndarray
    hypothesis_ok: bool


def _scalar_drift(lam: np.ndarray, step: float, order: int, steps: int) -> np.ndarray:
    """max_j |1 - g_j^i| for i = 1..steps, g_j = exp(-lam_j h) N(lam_j h) / D(lam_j h):
    the drift of a normal A, whose exp(-A h) R(A h) has the eigenvalues g_j."""
    coeffs = pade_coefficients(order, order)
    x = lam * step
    num = np.polyval(coeffs.num_floats[::-1], x)
    den = np.polyval(coeffs.den_floats[::-1], -x)
    if not (np.isfinite(num).all() and np.isfinite(den).all() and den.all()):
        raise SingularDenominatorError(
            f"denominator of order {order} vanishes or overflows on the spectrum of A h",
            cond_estimate=np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        back = np.exp(-x)
        if not np.isfinite(back).all():
            raise MagnitudeError(f"exp(-A h) overflows for max |lam h| = {np.abs(x).max():.3e}")
        powers = np.cumprod(np.broadcast_to(back * num / den, (steps, x.size)), axis=0)
        return np.abs(1.0 - powers).max(axis=1)


def propagator_drift(matrix_a, step: float, order: int, steps: int) -> DriftReport:
    """max_i ||I - exp(-i A h) R^i(A h)||_2 and the <=1 hypothesis flag."""
    a = np.asarray(matrix_a, dtype=complex)
    spectrum = _normal_spectrum(a)
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


def _slice_one_step_norms(rec, lam: np.ndarray, h: float) -> tuple[float, float]:
    """(||W^-1||_2, ||(signs (x) I_n) W^-1||_2) of the one-step block W of a
    normal A with eigenvalues ``lam``.

    (I (x) V)^H W (I (x) V) is the direct sum of the slices
    W(lam_i h) = S1 + lam_i h B1, and the signed row becomes the block
    diagonal of the 1 x (k+1) rows signs W(lam_i h)^-1: both norms are the
    largest over the slices.
    """
    x = np.unique(lam) * h
    try:
        winv = np.linalg.inv(rec.s1 + x[:, None, None] * rec.b1)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"a one-step slice is singular: {exc}") from exc
    return (float(np.linalg.svd(winv, compute_uv=False)[:, 0].max()),
            float(np.linalg.norm(rec.signs @ winv, axis=-1).max()))


def inverse_norm_bounds(params: SolverParams, matrix_a, case: str) -> AnalysisReport:
    """Bounds and measured inverse norms for one step block and the full system.

    ``case`` must match the matrix: hermitian_nsd (checked through the
    eigenvalues) or unit_norm (checked through ||A h||_2 <= 1).  A normal A is
    measured on its eigenvalues alone; L is assembled only for any other A.
    """
    if params.scheme != "pade":
        raise ConsistencyError(f"the bounds are for the Padé system, got {params.scheme!r}")
    a = np.asarray(matrix_a, dtype=complex)
    n = a.shape[0]
    k, m, p, h = params.order, params.steps, params.padding, params.step_size
    spectrum = _normal_spectrum(a)
    if spectrum is None:
        norm_a, nah = float(np.linalg.norm(a, 2)), float(np.linalg.norm(a * h, 2))
        nsd = is_hermitian_nsd(a)
    else:
        norm_a = float(np.abs(spectrum[0]).max())
        nah = h * norm_a
        nsd = spectrum[1] and is_nsd_spectrum(spectrum[0])
    if case == "hermitian_nsd":
        if not nsd:
            raise ClassificationError("matrix is not Hermitian negative semi-definite")
    elif case == "unit_norm":
        if nah > 1.0 + 1e-12:
            raise ClassificationError("||A h||_2 exceeds 1")
    else:
        raise ClassificationError(f"unknown case {case!r}")

    rec = SCHEMES["pade"](k)
    if spectrum is None:
        winv = np.linalg.inv(rec.one_step(a * h))
        measured_w = float(np.linalg.norm(winv, 2))
        measured_row = float(np.linalg.norm(np.kron(rec.signs, np.eye(n)) @ winv, 2))
    else:
        measured_w, measured_row = _slice_one_step_norms(rec, spectrum[0], h)
    smax, smin = _l_singular_values(a, params, spectrum)
    norm_l, norm_l_inv = smax, 1.0 / smin

    b_w = w_inverse_bound(k, case)
    b_row = signed_row_contraction_bound(k)
    b_linv = l_inverse_bound(m, p, k) if (case == "hermitian_nsd" and k >= 3) else None
    b_kappa = kappa_bound(m, p, k, nah) if (case == "hermitian_nsd" and k >= 3) else None
    sats = {"w_inv": measured_w <= b_w}
    if case == "hermitian_nsd":
        sats["signed_row"] = measured_row <= b_row
    if b_linv is not None:
        sats["l_inv"] = norm_l_inv <= b_linv
    if b_kappa is not None:
        sats["kappa"] = norm_l * norm_l_inv <= b_kappa
    return AnalysisReport(
        norm_l=norm_l, norm_l_inv=norm_l_inv, kappa=norm_l * norm_l_inv,
        bound_l_inv=b_linv, bound_kappa=b_kappa,
        bound_l_norm=l_norm_bound(k, h, norm_a),
        case=case, measured_w_inv=measured_w, bound_w_inv=b_w,
        measured_signed_row=measured_row, bound_signed_row=b_row,
        satisfied=sats,
    )


def transient_growth(matrix_a, horizon: float, steps: int) -> float:
    """max over the refined step grid of ||exp(A t)||_2."""
    a = np.asarray(matrix_a, dtype=complex)
    ts = np.linspace(0.0, horizon, steps * GROWTH_REFINE + 1)
    if pade_core.is_hermitian(a):
        w = np.linalg.eigvalsh(a)
        return float(max(np.exp(w.max() * t) for t in ts))
    return float(max(np.linalg.norm(reference_expm(a, t), 2) for t in ts))


def condition_report(problem: OdeProblem, params: SolverParams,
                     dim_cap: int = CONDITION_DIM_CAP) -> AnalysisReport:
    """Measured condition number of the system L plus every applicable bound.

    ``dim_cap`` guards the exact inverse-norm computation; raise it explicitly
    for larger sweeps (the Lanczos path handles them fine).
    """
    lay = block_layout(problem, params)
    if lay.dim > dim_cap:
        raise SizeError(f"condition report capped at dimension {dim_cap}, got {lay.dim}")
    smax, smin = extreme_singular_values(problem, params)
    norm_l, norm_l_inv = smax, 1.0 / smin
    kappa = norm_l * norm_l_inv
    a = problem.matrix_a
    k, m, p, h = lay.k, lay.m, lay.p, lay.h
    nah = float(np.linalg.norm(a * h, 2))
    na = float(np.linalg.norm(a, 2))

    hermitian_nsd = is_hermitian_nsd(a)
    case = "hermitian_nsd" if hermitian_nsd else ("unit_norm" if nah <= 1.0 + 1e-12 else None)
    b_linv = b_kappa = None
    if params.scheme == "pade" and hermitian_nsd and k >= 3:
        b_linv = l_inverse_bound(m, p, k)
        b_kappa = kappa_bound(m, p, k, nah)
    b_lnorm = l_norm_bound(k, h, na) if params.scheme == "pade" else None

    traj = classical_reference_trajectory(problem, params)
    g = traj.g(float(np.linalg.norm(problem.vec_b))) if not traj.degenerate else None
    c_of_a = transient_growth(a, params.horizon, m)
    drift = propagator_drift(a, h, k, m).drift_max if params.scheme == "pade" else None

    sats = {}
    if b_linv is not None:
        sats["l_inv"] = norm_l_inv <= b_linv
    if b_kappa is not None:
        sats["kappa"] = kappa <= b_kappa
    if b_lnorm is not None:
        sats["l_norm"] = norm_l <= b_lnorm
    return AnalysisReport(
        norm_l=norm_l, norm_l_inv=norm_l_inv, kappa=kappa,
        bound_l_inv=b_linv, bound_kappa=b_kappa, bound_l_norm=b_lnorm,
        c_of_a=c_of_a, g_ratio=g, drift_max=drift, case=case,
        satisfied=sats,
    )
