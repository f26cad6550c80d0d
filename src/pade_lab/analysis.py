"""Spectral quantities, every bound as a checkable inequality, and reports.

Measured norms are ground truth, never estimates, because the point is to
compare them against the closed-form bounds.  Every A is measured on the
diagonal blocks X_i of a unitary similarity V^H A V = diag(X_i), the distinct
eigenvalues of a normal A or else A itself: L has the singular values of the
block systems S (x) I_b + B (x) (X_i h) (one, L itself, for a non-normal A),
and ||W^-1|| and the signed row come from the blocks S1 (x) I_b + B1 (x) (X_i h)
of W.  Small block systems are measured by dense LAPACK; above that, the scalar
blocks of a normal A take band Cholesky brackets on M^H M at both ends of the
spectrum, and Lanczos serves the one block of a non-normal A (sigma_max on its
one CSR matrix) and a sigma_min too close to the rounding of M^H M to certify.
``system_builder`` expands them all, never through its assembler.  The drift
of a normal A comes from the scalars exp(-lam_i h) R(lam_i h), that of any
other A from the R(A h) that ``classical_solver`` reads off W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import error_bounds, pade_core
from .classical_solver import _step_rows, step_inverses, substitution_pair
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
    reference_expm,
)
from .system_builder import (
    SCHEMES,
    BlockLayout,
    _band_systems,
    _norm,
    _pow2_scale,
    block_layout,
    classical_reference_trajectory,
    csr_system,
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
#: blocks; above it sigma_max and sigma_min take a certified bracket per scalar
#: block (Lanczos on the one block of a non-normal A, and over the direct sum of
#: the blocks for a sigma_min the bracket cannot certify).  With the end-block
#: SVDs of ``_top_by_ends``, scalar blocks cost about the same on both paths at
#: dimension 71 and up to 1.6 times less on the operator path at 91, but the one
#: block of a non-normal A costs 2 to 2.8 times less on the dense path at 84 to
#: 93, so the one cap stays above both (docs/DECISIONS.md "One block path for
#: every A"; measured before the sigma_min bracket, and not measured again).
SLICE_DENSE_CAP = 96
#: Relative width hi - lo <= BRACKET_RTOL hi of the bracket on lambda_max(M^H M)
#: whose upper end gives sigma_max (docs/DECISIONS.md "sigma_max from a
#: certified bracket"), above the rounding (kd + 2) eps = 4.7e-15 of a band
#: Cholesky factor at the bandwidth kd = 2k + 1 = 19 of a Padé scalar block at k = 9.
BRACKET_RTOL = 1e-14
#: Relative margin t^2 (1 - CERTIFICATE_RTOL) below the square of the end blocks'
#: top SVD value t at which ``_top_by_ends`` certifies an interior block X by a
#: Cholesky factor: 30 times the rounding n (2 gamma_(l+2) + gamma_(n+1)) +
#: (2 p(n) + 3) u = 3.3e-12 of forming (complex) and factoring the n x n Gram
#: matrix of inner products of length l and of the SVD value of X (unit roundoff u,
#: gamma_j = j u / (1 - j u), p(n) = 10 n) at the largest blocks it meets,
#: n = l = SLICE_DENSE_CAP = 96 (docs/DECISIONS.md "Inverse norms from the end blocks").
CERTIFICATE_RTOL = 1e-10
#: Largest rounding delta = (kd + 2) eps ||M^H M|| of the bracket, relative to
#: lambda_min(M^H M), at which sigma_min takes the bracket rather than Lanczos:
#: delta / lambda_min is (kd + 2) eps kappa^2, so kappa up to about 1.5e3 at the
#: bandwidth kd = 19 (docs/DECISIONS.md "sigma_min from a certified bracket").
BRACKET_MAX_DELTA = 1e-8
#: Multiple of delta by which the sigma_min bracket's last shift stays below
#: its Rayleigh quotient, so that the factorization there certifies it.
SHIFT_GAP = 2.0
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


def _largest_eigenvalue(apply, v0, name: str, ncv=None) -> float:
    """Top eigenvalue of the Hermitian operator x -> ``apply``(x) by Lanczos, to
    relative 1e-12.  An application that is not finite raises ``MagnitudeError``,
    naming the operator ``name``, before ARPACK reads it."""
    def matvec(x):
        y = apply(x)
        if not np.isfinite(y).all():
            raise MagnitudeError(f"{name} of a block system overflows the double range")
        return y

    op = spla.LinearOperator((len(v0), len(v0)), matvec=matvec, dtype=v0.dtype)
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


def _gram_band(bands: np.ndarray, up: int) -> np.ndarray:
    """G = M^H M in LAPACK lower band storage, band[i - j, j] = G_ij, of the M
    whose general band is ``bands``, bands[up + i - j, j] = M_ij.

    With u = ``up`` and l the upper and lower bandwidths of M, G has bandwidth
    min(u + l, d - 1), and band[o, j] is the product of columns j + o and j over
    their u + l + 1 - o common band rows.
    """
    width, d = bands.shape
    band = np.zeros((min(width, d), d), dtype=bands.dtype)
    for o in range(len(band)):
        band[o, :d - o] = np.einsum("tj,tj->j", bands[:width - o, o:].conj(), bands[o:, :d - o])
    return band


def _gram_min_ceiling(bands: np.ndarray, frob: float, gbmv, dims) -> float:
    """An upper bound on lambda_min(M^H M) of the lower triangular M whose band,
    with no superdiagonal, is ``bands`` and whose Frobenius norm is at most
    ``frob``: the Rayleigh quotient ||M v||^2 / ||v||^2 of v = M^-1 M^-H x, one
    step of inverse iteration on M^H M from the seeded start x by two BLAS
    ``?tbsv`` triangular band solves, so no factorization.  M v comes from
    ``?gbmv`` on ``dims`` and is enlarged by its rounding gamma_w ||M||_F ||v||
    (w the band's rows; ||M||_F >= || |M| ||_2), the norms and the quotient by
    the relative 8 (d w + 4) eps; inf where v is not finite (past the double
    range, or a zero on the diagonal).  M^-H x is divided by its norm, which
    is at least ||x|| / ||M||_F: no entry of M exceeds 1, so it is not tiny."""
    width, d = bands.shape
    tbsv, nrm2 = sla.get_blas_funcs(("tbsv", "nrm2"), (bands,))
    v = tbsv(width - 1, bands, _lanczos_start(d, complex_=bands.dtype.kind == "c"),
             lower=1, trans=2)
    norm_v = nrm2(v)
    if not norm_v < math.inf:
        return math.inf
    v = tbsv(width - 1, bands, v / norm_v, lower=1, overwrite_x=1)
    norm_v = nrm2(v)
    if not 0.0 < norm_v < math.inf:
        return math.inf
    eps = float(np.finfo(float).eps)
    quotient = nrm2(gbmv(*dims, 1.0, bands, v)) / norm_v + width * eps / (1.0 - width * eps) * frob
    return quotient * quotient * (1.0 + 8 * (d * width + 4) * eps)


def _singular_bracket(bands: np.ndarray, up: int, bound: float,
                      sign: int) -> tuple[float, float] | None:
    """(certified, value) of sigma_max (``sign`` 1) or sigma_min (``sign`` -1)
    of the M whose general band is ``bands`` (see ``_gram_band``): ``value`` is
    the singular value and ``certified`` the end of its bracket that a band
    Cholesky factor shows.  ``bound`` is a floor on sigma_max or a ceiling on
    sigma_min, returned as both once a factorization shows sigma_max <= floor or
    sigma_min >= ceiling.  None when sigma_min is too close to the rounding of
    M^H M to certify (``BRACKET_MAX_DELTA``).

    M is scaled by the power of two 2^-e that puts max |m_ij| in [1/2, 1), so no
    entry of G = M^H M overflows and lambda_max(G) >= 1/4.  The bracket is on the
    top eigenvalue of T = sign G, lo <= lambda_max(T) <= hi: hi is a shift at
    which shift I - T has a band Cholesky factor (Sylvester's inertia), and at
    the start Gershgorin's bound (sigma_max) or 0 (sigma_min); lo is a Rayleigh
    quotient sign ||M x||^2, a diagonal entry of T at the start, or a shift
    without a factor.  Each factor drives INVERSE_STEPS steps of inverse
    iteration, whose Rayleigh quotient rho raises lo and, with its residual r,
    proposes the next shift rho + r (some eigenvalue lies within r of rho), kept
    in [lo (1 + sign BRACKET_RTOL) + gap, (lo + hi) / 2]; a shift without a
    factor is followed by the midpoint.  The loop ends at hi - lo <=
    BRACKET_RTOL max(|lo|, |hi|) + gap.  sigma_max is 2^e sqrt(hi), its
    certified end.  sigma_min is 2^e sqrt(-rho) of the largest rho_T, the
    Rayleigh quotient of M and not of G, and its certified end 2^e sqrt(-hi).

    A factor of shift I - T shows the bracket up to the rounding delta =
    (kd + 2) eps ||G|| of forming and factoring G of bandwidth kd, ||G|| taken
    as the Gershgorin bound.  For sigma_max that is below BRACKET_RTOL hi, and
    gap is 0; for sigma_min delta / lambda_min is (kd + 2) eps kappa^2, so gap
    is SHIFT_GAP delta, and once delta exceeds BRACKET_MAX_DELTA |lo| (lambda_min
    <= |lo| for sigma_min, lambda_max >= lo for sigma_max, which never fails)
    the result is None (docs/DECISIONS.md "sigma_min from a certified bracket").
    For sigma_min of a lower triangular M (``up`` 0) the result is None before
    any factorization where the probe rho of ``_gram_min_ceiling`` is at most
    delta / (2 BRACKET_MAX_DELTA) and rho + delta is below the squared
    ceiling: the loop could then only return None (docs/DECISIONS.md
    "Hand-off before factorizing").  M x and M^H y are BLAS ``?gbmv`` on the band, whose scipy wrapper wants at
    least u + l + 1 rows: M is read as that many rows when the band is deeper
    than M is wide, the rows past M being zero.
    """
    top = float(np.abs(bands).max())
    if not math.isfinite(top):
        raise MagnitudeError(f"a block system of L has the entry {top}")
    scale = math.frexp(top)[1]
    bands = bands * math.ldexp(1.0, -scale)
    band = _gram_band(bands, up)
    pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
    gbmv, = sla.get_blas_funcs(("gbmv",), (bands,))
    width, d = bands.shape
    dims = (max(width, d), d, width - up - 1, up)  # rows, columns, l, u of ?gbmv

    def factor(shift):
        shifted = band * -sign
        shifted[0] += shift
        chol, info = pbtrf(shifted, lower=1, overwrite_ab=1)
        return chol if info == 0 else None

    diag = band[0].real
    row_sums = np.abs(band).sum(axis=0)
    for o in range(1, len(band)):
        row_sums[o:] += np.abs(band[o, :-o])
    delta = (len(band) + 1) * np.finfo(float).eps * float(row_sums.max())
    if sign > 0:
        lo, hi, gap = float(diag.max()), float(row_sums.max()), 0.0
    else:
        lo, hi, gap = -float(diag.min()), 0.0, SHIFT_GAP * delta
    bar = math.ldexp(bound, -scale)
    bar *= sign * bar
    if sign < 0 and up == 0 and bar < hi:
        # ||M||_F^2 is the trace of G; doubled for the rounding of diag and its sum
        probe = _gram_min_ceiling(bands, 2.0 * math.sqrt(float(diag.sum())), gbmv, dims)
        if probe <= 0.5 * delta / BRACKET_MAX_DELTA and probe + delta < -bar:
            return None
    if bar >= hi or (bar > lo and factor(bar) is not None):
        return bound, bound
    rayleigh, lo = lo, max(lo, bar)
    x = _lanczos_start(d, complex_=bands.dtype.kind == "c")
    shift = hi
    while True:
        if delta > BRACKET_MAX_DELTA * abs(lo):
            return None
        if hi - lo <= BRACKET_RTOL * max(abs(lo), abs(hi)) + gap:
            break
        chol = factor(shift)
        if chol is None:
            lo = shift
            shift = 0.5 * (lo + hi)
            continue
        hi = shift
        for _ in range(INVERSE_STEPS):
            x = pbtrs(chol, x, lower=1)[0]
            x /= np.linalg.norm(x)
            y = gbmv(*dims, 1.0, bands, x)
            rho = float(np.vdot(y, y).real)
        resid = float(np.linalg.norm(gbmv(*dims, 1.0, bands, y, trans=2) - rho * x))
        rayleigh = max(rayleigh, sign * rho)
        lo = max(lo, sign * rho)
        shift = min(max(sign * rho + resid, lo * (1.0 + sign * BRACKET_RTOL) + gap),
                    0.5 * (lo + hi))
    if sign > 0:
        value = math.ldexp(math.sqrt(hi), scale)
        return value, value
    if rayleigh <= bar:
        return bound, bound
    return math.ldexp(math.sqrt(-hi), scale), math.ldexp(math.sqrt(-rayleigh), scale)


def _largest_singular_value(bands: np.ndarray, up: int, floor: float = 0.0) -> float:
    """sigma_max of the M whose general band is ``bands``, or ``floor`` once a
    factorization shows sigma_max <= floor (see ``_singular_bracket``)."""
    return _singular_bracket(bands, up, floor, 1)[1]


def _smallest_singular_value(bands: np.ndarray, up: int,
                             ceiling: float = math.inf) -> tuple[float, float] | None:
    """(certified lower end, value) of sigma_min of the M whose general band is
    ``bands``, (ceiling, ceiling) once a factorization shows sigma_min >= ceiling,
    or None where the bracket cannot certify it (see ``_singular_bracket``)."""
    return _singular_bracket(bands, up, ceiling, -1)


def _is_normal(a: np.ndarray) -> bool:
    """||A A^H - A^H A||_F <= NORMALITY_TOL ||A||_F^2, on A times the power of two
    that puts max |a_ij| in [1/2, 1) (at most 2^1000, which takes a subnormal max to a
    normal one), so no product of its top entries under- or overflows."""
    a = a * math.ldexp(1.0, -max(math.frexp(float(np.abs(a).max()))[1], -1000))
    adj = a.conj().T
    scale = float(np.linalg.norm(a)) ** 2
    return bool(np.linalg.norm(a @ adj - adj @ a) <= NORMALITY_TOL * scale)


def _normal_spectrum(a: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """(eigenvalues, Hermitian flag) of a normal A; None for any other A.  A
    Hermitian A (``pade_core.is_hermitian``) skips the commutator test of
    ``_is_normal``: ``eigvalsh`` reads it within a tighter error (docs/DECISIONS.md)."""
    if pade_core.is_hermitian(a):
        return np.linalg.eigvalsh(a), True
    if not _is_normal(a):
        return None
    return np.linalg.eigvals(a), False


def _diagonal_blocks(a: np.ndarray, spectrum) -> tuple[np.ndarray, bool]:
    """(X, real): the (r, b, b) stack of the distinct eigenvalues of a normal A
    in order (b = 1; ``real`` if A is Hermitian), or of the one block A."""
    if spectrum is None:
        return a[None], False
    return np.unique(spectrum[0])[:, None, None], spectrum[1]


def _inverse(stack: np.ndarray) -> np.ndarray:
    """Inverses of a dense stack of block systems; a singular one is typed."""
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"a block system of L is singular: {exc}") from exc


def _top(stack: np.ndarray) -> float:
    """max_i ||M_i||_2 over a dense stack of blocks M_i; an SVD that does not
    converge (a NaN entry among them) is typed, and so is a norm that is not
    finite (an infinite entry, or a norm past the double range)."""
    try:
        top = float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD of a block stack failed: {exc}") from exc
    if not math.isfinite(top):
        raise MagnitudeError(f"a block of a stack is not finite or past the double range: "
                             f"its SVD reads {top}")
    return top


@np.errstate(over="ignore", invalid="ignore")
def _top_by_ends(stack: np.ndarray) -> float:
    """``_top(stack)`` bit for bit, with the SVD of the two end blocks only
    wherever a Cholesky factor certifies that no interior block is larger.

    With t the ends' ``_top`` and each block X scaled by the power of two
    that puts t in [1/2, 1), X is certified when t^2 (1 - CERTIFICATE_RTOL) I
    - G, G the Gram matrix of X on its smaller side, has a Cholesky factor:
    then the SVD value of X is below t (docs/DECISIONS.md "Inverse norms from
    the end blocks").  One batched factorization serves the interior; if it
    fails, or G is not finite, the interior takes its SVD.  So the result is
    always a per-block SVD value.  A stack of one or two blocks is ``_top``.
    """
    if len(stack) < 3:
        return _top(stack)
    top, inner = _top(stack[[0, -1]]), stack[1:-1]
    mant, scale = math.frexp(top)
    side = inner * math.ldexp(1.0, -scale)
    if side.shape[1] < side.shape[2]:
        side = side.swapaxes(1, 2)
    gram = side.conj().swapaxes(1, 2) @ side
    bar = mant * mant * (1.0 - CERTIFICATE_RTOL)
    if np.isfinite(gram).all():
        try:
            np.linalg.cholesky(bar * np.eye(gram.shape[-1]) - gram)
            return top
        except np.linalg.LinAlgError:
            pass
    return max(top, _top(inner))


def _block_singular_values(rec, lay: BlockLayout, blocks: np.ndarray,
                           real: bool) -> tuple[float, float, np.ndarray]:
    """(sigma_max, sigma_min, W^-1) over the block systems M_i = S (x) I_b + B (x) (X_i h)
    of the scheme ``rec`` on ``lay``, one per diagonal block X_i of ``blocks``.

    sigma_max is convex in X, so for ``real`` scalar blocks only the two end
    blocks are measured.  sigma_min is 1/||M^-1||_2, never the last singular
    value of M from an SVD, which floors at eps sigma_max.  On the dense path
    sigma_min is ``_top_by_ends`` of the M_i^-1, which takes the SVD of the two
    end blocks and certifies the others by one Cholesky factorization.  Above
    ``SLICE_DENSE_CAP`` scalar blocks (b = 1) take the certified brackets of
    ``_singular_bracket`` on their bands from ``system_builder._band_systems``,
    built once, so no sparse matrix is built: sigma_max over the end blocks
    with a running maximum, sigma_min over every block with a running
    minimum, the end blocks of a real spectrum first.  A block whose sigma_min
    the bracket cannot certify hands the whole sigma_min to one Lanczos on the
    direct sum of the M_i, applied by the block substitution of
    ``classical_solver.substitution_pair``, whose first application of
    L^-1 L^-H that is not finite raises ``MagnitudeError`` before ARPACK reads
    it (see ``_largest_eigenvalue``).  A b-wide block (b > 1) is the one block
    of a non-normal A; it gives M^H M the bandwidth (2k + 2) b - 1, where one
    band factorization costs more than a Lanczos run, so its sigma_max is
    Lanczos on M^H M applied through the CSR matrix of
    ``system_builder.csr_system`` and its adjoint, and its sigma_min that
    Lanczos on the substitution.  M_i is block lower triangular with the
    one-step block W_i = S1 (x) I_b + B1 (x) (X_i h) leading, so the dense path
    returns the stack of the W_i^-1 as a copy of the leading (k+1) b square of
    each M_i^-1, the others as ``classical_solver.step_inverses`` forms it.
    """
    d, w = lay.block_rows, blocks.shape[-1]
    xh = scaled_by_step(blocks, lay.h)
    ends = [0, -1] if real else slice(None)
    if d * w <= SLICE_DENSE_CAP:
        # the stack is rebound to the inverses, freed before their SVD; the
        # W_i^-1 are copied out, so no view keeps the inverses alive
        stack = kron_sum(*dense_patterns(rec, lay.m, lay.p), xh)
        smax, stack = _top(stack[ends]), _inverse(stack)
        lead = len(rec.s1) * w
        return smax, 1.0 / _top_by_ends(stack), stack[:, :lead, :lead].copy()
    if w == 1:
        up, bands = _band_systems(rec, lay.m, lay.p, xh[ends])
        smax = 0.0
        for band in bands:
            smax = _largest_singular_value(band, up, smax)
        if real:  # the end blocks again, the last one first, then each interior band as built
            bands = itertools.chain(bands[::-1], (_band_systems(rec, lay.m, lay.p, x[None])[1][0]
                                                  for x in xh[1:-1]))
        smin = math.inf
        for band in bands:
            bracket = _smallest_singular_value(band, up, smin)
            if bracket is None:
                break
            smin = bracket[1]
        else:
            return smax, smin, step_inverses(rec.one_step(xh))
    else:
        block, = xh  # a b-wide block is the one block of a non-normal A
        csr = csr_system(rec, lay.m, lay.p, block)
        adj = csr.conj().T.tocsr()
        v0 = _lanczos_start(d * w, complex_=not real)
        smax = float(np.sqrt(_largest_eigenvalue(lambda x: adj @ (csr @ x), v0, "M^H M",
                                                 SLICE_NCV)))
    inv, inv_h, w_inverse = substitution_pair(rec.one_step(xh), rec, lay.m, lay.p)
    dim = len(xh) * d * w
    v0 = _lanczos_start(dim, complex_=not real)
    inv_sq = _largest_eigenvalue(lambda x: inv(inv_h(x)), v0, "L^-1 L^-H")
    return smax, float(1.0 / np.sqrt(inv_sq)), w_inverse


@dataclass(frozen=True)
class _Measure:
    """What both reports read of one A on one system L (see ``_measure``)."""

    spectrum: tuple[np.ndarray, bool] | None
    norm_ah: float
    cases: tuple[str, ...]
    sigma: tuple[float, float]
    w_inverse: np.ndarray


#: The cases the bounds are stated for, in the order ``condition_report``
#: tries them, each with the error message for a matrix outside it.
_CASES = {"hermitian_nsd": "matrix is not Hermitian negative semi-definite",
         "unit_norm": "||A h||_2 exceeds 1"}


def _measure(a: np.ndarray, params: SolverParams) -> _Measure:
    """One ``_normal_spectrum``, ``_diagonal_blocks``, sigma(L) and W^-1 (see
    ``_block_singular_values``) of A on the system of ``params``, h ||A||_2
    (max |lam_i| for a normal A, else the 2-norm of A at its ``_pow2_scale``,
    whose scale comes off only after the product with h) and the ``_CASES``
    that A h falls in: hermitian_nsd by its eigenvalues, unit_norm when
    h ||A||_2 <= 1 + 1e-12."""
    spectrum = _normal_spectrum(a)
    blocks, real = _diagonal_blocks(a, spectrum)
    lay = block_layout(a.shape[0], params)
    smax, smin, w_inverse = _block_singular_values(SCHEMES[params.scheme](lay.k), lay, blocks, real)
    if spectrum is None:
        scale = _pow2_scale(a)
        norm_ah = lay.h * float(np.linalg.norm(a * scale, 2)) / scale
    else:
        norm_ah = lay.h * float(np.abs(spectrum[0]).max())
    holds = (spectrum is not None and spectrum[1] and is_nsd_spectrum(spectrum[0]),
             norm_ah <= 1.0 + 1e-12)
    return _Measure(spectrum, norm_ah, tuple(case for case, ok in zip(_CASES, holds) if ok),
                    (smax, smin), w_inverse)


def extreme_singular_values(problem: OdeProblem, params: SolverParams) -> tuple[float, float]:
    """(sigma_max, sigma_min) of the system L of ``problem`` discretized by ``params``.

    With V^H A V = diag(X_i) unitary, (I (x) V)^H L (I (x) V) is, up to a
    permutation, the direct sum of the block systems S (x) I_b + B (x) (X_i h),
    so L has their singular values (a non-normal A has one block system, L itself).
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


def l_norm_bound(k: int, norm_ah: float) -> float:
    """||L||_2 <= beta_1 ||A h|| + 3 with beta_1 = 1/2 for equal orders."""
    beta1 = float(pade_coefficients(k, k).ratio_beta[0])
    return beta1 * norm_ah + 3.0


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
    sum c_i x^i is below the rounding of g - 1, g - 1 is that series.  Past
    the reach it is the series where that last term is below the rounding of
    the direct g - 1, about eps |g| (sum |n_i| |x|^i / |N| + sum |d_i| |x|^i / |D|),
    and the direct value elsewhere.  Wherever |g - 1| < 1/2, g^i - 1 is
    expm1(i log1p(g - 1)) rather than the i-th power minus 1.
    """
    coeffs = pade_coefficients(order, order)
    x = lam * step
    head, first, reach = _remainder_head(order)
    with np.errstate(over="ignore", invalid="ignore"):
        # N(x) and D(-x) by one Horner loop, each lane the operations of np.polyval
        lanes = np.stack((x, -x))
        parts = np.zeros_like(lanes)
        for c in np.stack((coeffs.num_floats, coeffs.den_floats), axis=1)[::-1, :, None]:
            parts = parts * lanes + c
        num, den = parts
        if not (np.isfinite(num).all() and np.isfinite(den).all() and den.all()):
            raise SingularDenominatorError(
                f"denominator of order {order} vanishes or overflows on the spectrum of A h")
        back = np.exp(-x)
        if not np.isfinite(back).all():
            raise MagnitudeError(f"exp(-A h) overflows for max |lam h| = {np.abs(x).max():.3e}")
        g = back * num / den
        gm1 = g - 1.0
        series = np.abs(x) <= reach
        if not series.all():
            far, ax = ~series, np.abs(x[~series])
            rounding = np.finfo(float).eps * np.abs(g[far]) * (
                np.polyval(coeffs.num_floats[::-1], ax) / np.abs(num[far])
                + np.polyval(coeffs.den_floats[::-1], ax) / np.abs(den[far]))
            series[far] = abs(head[-1]) * ax ** (first + len(head) - 1) < rounding
        if series.any():
            # x^first, x^(first + 1), ... by running products
            powers = np.repeat(x[series][None], len(head), axis=0)
            powers[0] **= first
            gm1[series] = head @ np.cumprod(powers, axis=0)
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
        try:  # R(A h), the P of the Padé step map
            r = _step_rows(SCHEMES["pade"](order), scaled_by_step(a, step),
                           np.zeros(a.shape[0]))[:, :-1]
        except SingularBlockError as exc:
            raise SingularDenominatorError(
                f"denominator of order {order} is singular at A h: {exc}") from exc
        back = reference_expm(a, -step)
        eye = np.eye(a.shape[0])
        acc = np.eye(a.shape[0], dtype=complex)
        vals = np.full(steps, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            gmat = back @ r  # exp(-Ah) and R commute, both functions of A
            for i in range(steps):
                acc = acc @ gmat
                if not np.isfinite(acc).all():
                    break
                vals[i] = np.linalg.norm(eye - acc, 2)
    if not np.isfinite(vals).all():
        raise MagnitudeError(f"the drift ||I - exp(-i A h) R^i(A h)|| overflows at h = {step:.6g}")
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


def _one_step_norms(rec, winv: np.ndarray) -> tuple[float, float]:
    """(||W^-1||_2, ||(signs (x) I_n) W^-1||_2) of the one-step block of ``rec``
    from the (r, (k+1)b, (k+1)b) stack ``winv`` of the W_i^-1.

    The similarity of ``_diagonal_blocks`` takes W to the direct sum of the
    W_i = S1 (x) I_b + B1 (x) (X_i h) and the signed row to the block diagonal
    of (signs (x) I_b) W_i^-1, so both norms are the largest over the blocks,
    each taken by ``_top_by_ends``: the SVD of the two end blocks, the others
    certified below them by one Cholesky factorization, or else their SVD too.
    A scalar block (b = 1) has a 1 x (k+1) signed row, whose 2-norm is its
    Euclidean norm.
    """
    r, w = len(winv), winv.shape[1] // len(rec.signs)
    rows = rec.signs @ winv.reshape(r, len(rec.signs), -1)  # (signs (x) I_b) W_i^-1
    if w == 1:
        row = np.linalg.norm(rows, axis=-1).max()
    else:
        row = _top_by_ends(rows.reshape(r, w, -1))
    return _top_by_ends(winv), float(row)


def _report(meas: _Measure, params: SolverParams, case: str | None, rows: dict,
            **fields) -> AnalysisReport:
    """The report of ``meas`` in ``case`` from one bound table, name ->
    (measured, bound): the caller's ``rows``, then ``l_norm`` for the Padé
    system and ``l_inv`` and ``kappa`` in the Hermitian NSD case with k >= 3.
    An h ||A||_2 beyond the double range, which would make the Padé bounds
    infinite, raises ``MagnitudeError``."""
    k, m, p = params.order, params.steps, params.padding
    norm_l, norm_l_inv = meas.sigma[0], 1.0 / meas.sigma[1]
    kappa = norm_l * norm_l_inv
    table = dict(rows)
    if params.scheme == "pade":
        if not math.isfinite(meas.norm_ah):
            raise MagnitudeError(f"h ||A||_2 overflows at h = {params.step_size:.6g}")
        if case == "hermitian_nsd" and k >= 3:
            table["l_inv"] = (norm_l_inv, l_inverse_bound(m, p, k))
            table["kappa"] = (kappa, kappa_bound(m, p, k, meas.norm_ah))
        table["l_norm"] = (norm_l, l_norm_bound(k, meas.norm_ah))
    bound = {name: b for name, (_, b) in table.items()}
    return AnalysisReport(
        norm_l=norm_l, norm_l_inv=norm_l_inv, kappa=kappa,
        bound_l_inv=bound.get("l_inv"), bound_kappa=bound.get("kappa"),
        bound_l_norm=bound.get("l_norm"), case=case,
        satisfied={name: got <= b for name, (got, b) in table.items()}, **fields)


def inverse_norm_bounds(params: SolverParams, matrix_a, case: str) -> AnalysisReport:
    """Bounds and measured norms for one step block and the full system.

    ``case`` must be one that the matrix falls in (see ``_measure``).  Both
    are measured on the diagonal blocks of A, without the assembler.
    """
    if params.scheme != "pade":
        raise ConsistencyError(f"the bounds are for the Padé system, got {params.scheme!r}")
    meas = _measure(np.asarray(matrix_a, dtype=complex), params)
    if case not in meas.cases:
        raise ClassificationError(_CASES.get(case, f"unknown case {case!r}"))
    k = params.order
    w, row = _one_step_norms(SCHEMES["pade"](k), meas.w_inverse)
    b_w, b_row = w_inverse_bound(k, case), signed_row_contraction_bound(k)
    rows = {"w_inv": (w, b_w)}
    if case == "hermitian_nsd":
        rows["signed_row"] = (row, b_row)
    return _report(meas, params, case, rows, measured_w_inv=w, bound_w_inv=b_w,
                   measured_signed_row=row, bound_signed_row=b_row)


def _transient_growth(a: np.ndarray, spectrum, horizon: float, steps: int) -> float:
    """c(A) = max over the refined step grid of ||exp(A t)||_2; for a normal A it
    is exp(max Re lam t), monotone in t, so it peaks at t = 0 or T.  max Re lam
    of a normal non-Hermitian A is the top eigenvalue of its Hermitian part
    A/2 + A^H/2, whose error scales with ||A + A^H||, not with ||A|| as the
    real parts of its eigenvalues do.  A c(A) that overflows raises
    ``MagnitudeError``, as ``reference_expm`` does."""
    if spectrum is not None:
        vals, hermitian = spectrum
        top = vals.max() if hermitian else np.linalg.eigvalsh(a / 2 + a.conj().T / 2)[-1]
        with np.errstate(over="ignore"):
            growth = np.exp(top * horizon)
        if not np.isfinite(growth):
            raise MagnitudeError(f"exp(max Re lam T) overflows at T = {horizon:.6g}")
        return max(1.0, float(growth))
    ts = np.linspace(0.0, horizon, steps * GROWTH_REFINE + 1)
    return float(max(np.linalg.norm(reference_expm(a, t), 2) for t in ts))


def condition_report(problem: OdeProblem, params: SolverParams,
                     dim_cap: int = CONDITION_DIM_CAP) -> AnalysisReport:
    """Measured condition number of the system L and every bound that applies
    in the first of ``_CASES`` that A falls in.  ``dim_cap`` caps the dimension
    of L, and so the block systems measured, though only a non-normal A forms L; raise
    it explicitly for larger sweeps.  sigma(L), the case, c(A) and the drift
    read one ``_normal_spectrum``."""
    lay = block_layout(problem.dim, params)
    if lay.dim > dim_cap:
        raise SizeError(f"condition report capped at dimension {dim_cap}, got {lay.dim}")
    a = problem.matrix_a
    meas = _measure(a, params)
    traj = classical_reference_trajectory(problem, params)
    g = traj.g(_norm(problem.vec_b)) if not traj.degenerate else None
    c_of_a = _transient_growth(a, meas.spectrum, params.horizon, lay.m)
    drift = (_drift(a, meas.spectrum, lay.h, lay.k, lay.m).drift_max
             if params.scheme == "pade" else None)
    return _report(meas, params, meas.cases[0] if meas.cases else None, {},
                   c_of_a=c_of_a, g_ratio=g, drift_max=drift)
