"""Spectral quantities, every bound as a checkable inequality, and reports.

Measured norms are ground truth (for normal A the singular values of the n
scalar slices S + lam_i h B of L, otherwise dense SVD at desk scale and
Lanczos with a sparse factorization above it), never estimates, because the
point is to compare them against the closed-form bounds.
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
    ConvergenceError,
    SingularBlockError,
    SizeError,
)
from .error_bounds import SolverParams, make_params
from .pade_core import (
    OdeProblem,
    is_hermitian_nsd,
    pade_coefficients,
    pade_propagator,
    reference_expm,
)
from .system_builder import (
    SCHEMES,
    BlockSystem,
    build_pade_system,
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


def _slice_singular_values(system: BlockSystem, lam: np.ndarray,
                           hermitian: bool) -> tuple[float, float]:
    """(sigma_max, sigma_min) over the scalar systems M(lam_i) = S + lam_i h B.

    sigma_max is convex in lam, so for real lam only the two end slices are
    measured.  sigma_min is 1/||M^-1||_2, never the last singular value of M,
    which floors at eps sigma_max.
    """
    lay = system.layout
    d = lay.block_rows
    lam = np.unique(lam)
    ends = lam[[0, -1]] if hermitian else lam
    patterns = scalar_patterns(SCHEMES[system.scheme](lay.k), lay)
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


def extreme_singular_values(system: BlockSystem, problem: OdeProblem) -> tuple[float, float]:
    """(sigma_max, sigma_min) of the assembled system L of ``problem``.

    For normal A = V Lam V^H, (I (x) V)^H L (I (x) V) is the direct sum of the
    scalar systems S + lam_i h B, so the singular values of L are those of
    its n slices, which are measured instead.  Any other A takes the operator
    path on ``system.matrix``.
    """
    a = np.asarray(problem.matrix_a, dtype=complex)
    if not _is_normal(a):
        return _operator_singular_values(system.matrix)
    if pade_core.is_hermitian(a):
        return _slice_singular_values(system, np.linalg.eigvalsh(a), hermitian=True)
    return _slice_singular_values(system, np.linalg.eigvals(a), hermitian=False)


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


def propagator_drift(matrix_a, step: float, order: int, steps: int) -> DriftReport:
    """max_i ||I - exp(-i A h) R^i(A h)||_2 and the <=1 hypothesis flag."""
    a = np.asarray(matrix_a, dtype=complex)
    n = a.shape[0]
    r = pade_propagator(a, step, order)
    back = reference_expm(a, -step)
    gmat = back @ r  # exp(-Ah) and R commute, both functions of A
    eye = np.eye(n)
    acc = np.eye(n, dtype=complex)
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


def inverse_norm_bounds(params: SolverParams, matrix_a, case: str) -> AnalysisReport:
    """Bounds and measured inverse norms for one step block and the full system.

    ``case`` must match the matrix: hermitian_nsd (checked through the
    eigenvalues) or unit_norm (checked through ||A h||_2 <= 1).
    """
    a = np.asarray(matrix_a, dtype=complex)
    n = a.shape[0]
    k, m, p, h = params.order, params.steps, params.padding, params.step_size
    if case == "hermitian_nsd":
        if not is_hermitian_nsd(a):
            raise ClassificationError("matrix is not Hermitian negative semi-definite")
    elif case == "unit_norm":
        if np.linalg.norm(a * h, 2) > 1.0 + 1e-12:
            raise ClassificationError("||A h||_2 exceeds 1")
    else:
        raise ClassificationError(f"unknown case {case!r}")

    rec = SCHEMES["pade"](k)
    winv = np.linalg.inv(rec.one_step(a * h))
    measured_w = float(np.linalg.norm(winv, 2))
    row = np.kron(rec.signs, np.eye(n))
    measured_row = float(np.linalg.norm(row @ winv, 2))

    problem = OdeProblem(matrix_a=a, vec_b=np.zeros(n), vec_x0=np.zeros(n),
                         horizon=params.horizon)
    system = build_pade_system(problem, params)
    smax, smin = extreme_singular_values(system, problem)
    norm_l, norm_l_inv = smax, 1.0 / smin

    b_w = w_inverse_bound(k, case)
    b_row = signed_row_contraction_bound(k)
    b_linv = l_inverse_bound(m, p, k) if (case == "hermitian_nsd" and k >= 3) else None
    nah = float(np.linalg.norm(a * h, 2))
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
        bound_l_norm=l_norm_bound(k, h, float(np.linalg.norm(a, 2))),
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


def condition_report(system: BlockSystem, problem: OdeProblem,
                     dim_cap: int = CONDITION_DIM_CAP) -> AnalysisReport:
    """Measured condition number of an assembled system plus every applicable bound.

    ``dim_cap`` guards the exact inverse-norm computation; raise it explicitly
    for larger sweeps (the Lanczos path handles them fine).
    """
    lay = system.layout
    if lay.dim > dim_cap:
        raise SizeError(f"condition report capped at dimension {dim_cap}, got {lay.dim}")
    smax, smin = extreme_singular_values(system, problem)
    norm_l, norm_l_inv = smax, 1.0 / smin
    kappa = norm_l * norm_l_inv
    a = problem.matrix_a
    k, m, p, h = lay.k, lay.m, lay.p, lay.h
    nah = float(np.linalg.norm(a * h, 2))
    na = float(np.linalg.norm(a, 2))

    hermitian_nsd = is_hermitian_nsd(a)
    case = "hermitian_nsd" if hermitian_nsd else ("unit_norm" if nah <= 1.0 + 1e-12 else None)
    b_linv = b_kappa = None
    if system.scheme == "pade" and hermitian_nsd and k >= 3:
        b_linv = l_inverse_bound(m, p, k)
        b_kappa = kappa_bound(m, p, k, nah)
    b_lnorm = l_norm_bound(k, h, na) if system.scheme == "pade" else None

    traj = classical_reference_trajectory(
        problem, make_params(m, k, p, lay.h * m, system.scheme))
    g = traj.g(float(np.linalg.norm(problem.vec_b))) if not traj.degenerate else None
    c_of_a = transient_growth(a, lay.h * m, m)
    drift = propagator_drift(a, h, k, m).drift_max if system.scheme == "pade" else None

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
