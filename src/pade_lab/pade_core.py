"""Diagonal Pade machinery and a trusted matrix-exponential oracle.

Everything here works on plain numpy arrays.  Coefficients are generated in
exact rational arithmetic (factorial ratios cancel exactly, so orders up to 64
never overflow) and converted to floating point once, at the edge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

import numpy as np
import scipy.linalg as sla

from .errors import (
    MagnitudeError,
    OrderRangeError,
    ShapeError,
    SingularDenominatorError,
)

MAX_ORDER = 64

#: The discretization schemes by name: the diagonal Padé one and the truncated
#: Taylor one.  ``SolverParams``, ``system_builder.SCHEMES`` and the CLI read them.
SCHEME_NAMES = ("pade", "taylor")

#: Relative max-norm tolerance for treating a matrix as Hermitian.
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class OdeProblem:
    """The autonomous initial-value problem dx/dt = A x + b, x(0) = x0, on [0, T]."""

    matrix_a: np.ndarray
    vec_b: np.ndarray
    vec_x0: np.ndarray
    horizon: float

    def __post_init__(self):
        a = np.asarray(self.matrix_a, dtype=complex)
        b = np.asarray(self.vec_b, dtype=complex).ravel()
        x0 = np.asarray(self.vec_x0, dtype=complex).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"matrix_a must be square, got shape {a.shape}")
        n = a.shape[0]
        if n < 1:
            raise ShapeError("dimension must be at least 1")
        if b.shape != (n,) or x0.shape != (n,):
            raise ShapeError("vec_b and vec_x0 must have length n")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(x0).all()):
            raise ShapeError("all entries must be finite")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ShapeError("horizon must be positive and finite")
        object.__setattr__(self, "matrix_a", a)
        object.__setattr__(self, "vec_b", b)
        object.__setattr__(self, "vec_x0", x0)

    @property
    def dim(self) -> int:
        return self.matrix_a.shape[0]


@dataclass(frozen=True)
class PadeCoefficients:
    """Exact coefficients of the (p, q) Pade approximant to exp.

    ``num_coeffs[j]`` multiplies ``X**j`` in the numerator, ``den_coeffs[j]``
    multiplies ``(-X)**j`` in the denominator.  ``ratio_alpha[j]`` /
    ``ratio_beta[j]`` are the consecutive coefficient ratios
    ``n_{j+1}/n_j`` and ``d_{j+1}/d_j`` (1-based: entry 0 is ratio index 1).
    """

    order_p: int
    order_q: int
    num_coeffs: tuple[Fraction, ...]
    den_coeffs: tuple[Fraction, ...]
    ratio_alpha: tuple[Fraction, ...]
    ratio_beta: tuple[Fraction, ...]

    def __post_init__(self):
        if self.num_coeffs[0] != 1 or self.den_coeffs[0] != 1:
            raise ValueError("leading coefficients must equal 1")
        if any(c <= 0 for c in self.num_coeffs + self.den_coeffs):
            raise ValueError("all coefficients must be positive")
        for j, a in enumerate(self.ratio_alpha):
            if a * self.num_coeffs[j] != self.num_coeffs[j + 1]:
                raise ValueError("alpha ratios inconsistent with numerator")
        for j, b in enumerate(self.ratio_beta):
            if b * self.den_coeffs[j] != self.den_coeffs[j + 1]:
                raise ValueError("beta ratios inconsistent with denominator")
        # strict monotone decay of the ratio sequence, beta_1 > beta_2 > ...
        for j in range(1, len(self.ratio_beta)):
            if not self.ratio_beta[j] < self.ratio_beta[j - 1]:
                raise ValueError("beta ratios must decrease strictly")

    @cached_property
    def num_floats(self) -> np.ndarray:
        return read_only([float(c) for c in self.num_coeffs])

    @cached_property
    def den_floats(self) -> np.ndarray:
        return read_only([float(c) for c in self.den_coeffs])

    @cached_property
    def beta_floats(self) -> np.ndarray:
        """beta_1 .. beta_q as floats."""
        return read_only([float(b) for b in self.ratio_beta])


def read_only(values) -> np.ndarray:
    """A float array of ``values`` that raises ValueError on writes, for the
    arrays one shared record hands to every caller."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def pade_coefficients(p: int, q: int) -> PadeCoefficients:
    """Exact numerator/denominator coefficients of the (p, q) Pade approximant.

    n_j = (p+q-j)! p! / ((p+q)! j! (p-j)!) and the mirrored formula for d_j.
    Orders up to 64 are supported; order 0 yields the constant approximant.
    """
    for name, v in (("p", p), ("q", q)):
        if not isinstance(v, (int, np.integer)) or v < 0 or v > MAX_ORDER:
            raise OrderRangeError(f"order {name}={v} outside [0, {MAX_ORDER}]")
    return _exact_pade_coefficients(int(p), int(q))


# The range check above bounds the keys to (MAX_ORDER + 1)**2 pairs, and the
# frozen record holds only tuples and read-only arrays, so one shared instance
# per pair is safe.
@lru_cache(maxsize=None)
def _exact_pade_coefficients(p: int, q: int) -> PadeCoefficients:
    num = tuple(
        Fraction(factorial(p + q - j) * factorial(p), factorial(p + q) * factorial(j) * factorial(p - j))
        for j in range(p + 1)
    )
    den = tuple(
        Fraction(factorial(p + q - j) * factorial(q), factorial(p + q) * factorial(j) * factorial(q - j))
        for j in range(q + 1)
    )
    alpha = tuple(num[j + 1] / num[j] for j in range(p))
    beta = tuple(den[j + 1] / den[j] for j in range(q))
    return PadeCoefficients(p, q, num, den, alpha, beta)


def _as_square(x) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def eval_pade_parts(scaled_matrix, coeffs: PadeCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate numerator N(X) and denominator D(X) by Horner recursion.

    Exact for nilpotent X since only finitely many powers contribute.
    """
    x = _as_square(scaled_matrix)
    n = x.shape[0]
    eye = np.eye(n)
    nc = coeffs.num_floats
    num = nc[-1] * eye
    for c in nc[-2::-1]:
        num = num @ x + c * eye
    dc = coeffs.den_floats
    y = -x
    den = dc[-1] * eye
    for c in dc[-2::-1]:
        den = den @ y + c * eye
    return num, den


def pade_propagator(matrix_a, step: float, order: int) -> np.ndarray:
    """One-step diagonal Pade propagator R_kk(A h) = D^{-1} N.

    Solved by partial-pivoted LU with one step of iterative refinement; the
    backward error ||N - D R||_2 / (||D||_2 ||R||_2) must stay below 1e-12 or
    the denominator is reported singular together with a condition estimate.
    """
    a = _as_square(matrix_a)
    coeffs = pade_coefficients(order, order)
    num, den = eval_pade_parts(a * step, coeffs)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(den)
        prop = sla.lu_solve((lu, piv), num)
        prop += sla.lu_solve((lu, piv), num - den @ prop)
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularDenominatorError(
            f"denominator of order {order} is singular: {exc}", cond_estimate=np.inf
        ) from exc
    residual = np.linalg.norm(num - den @ prop, 2)
    scale = np.linalg.norm(den, 2) * np.linalg.norm(prop, 2) if np.isfinite(residual) else 0.0
    if not residual <= 1e-12 * scale:
        cond = np.linalg.cond(den)
        raise SingularDenominatorError(
            f"denominator solve residual {residual:.3e} exceeds 1e-12*||D||*||R||; "
            f"cond(D)~{cond:.3e}", cond_estimate=cond,
        )
    return prop


def is_hermitian(matrix_a) -> bool:
    a = _as_square(matrix_a)
    scale = np.abs(a).max()
    if scale == 0:
        return True
    return np.abs(a - a.conj().T).max() <= HERMITIAN_TOL * scale


def is_nsd_spectrum(eigenvalues) -> bool:
    """Every (real) eigenvalue at most 1e-10 * max(1, max |eigenvalue|)."""
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    return bool(eigenvalues.max() <= 1e-10 * scale)


def is_hermitian_nsd(matrix_a) -> bool:
    """Hermitian with a negative semi-definite spectrum (``is_nsd_spectrum``)."""
    if not is_hermitian(matrix_a):
        return False
    return is_nsd_spectrum(np.linalg.eigvalsh(_as_square(matrix_a)))


_TAYLOR_ORDER = 30
_SCALE_TARGET = 0.25


def reference_expm(matrix_a, time: float) -> np.ndarray:
    """Trusted oracle for exp(A t), independent of the Pade code paths.

    Hermitian inputs go through an eigendecomposition; everything else uses
    scaling-and-squaring with a fixed order-30 Taylor evaluation, accurate to
    near machine precision at the scaled norm <= 1/4.
    """
    a = _as_square(matrix_a)
    if not np.isfinite(a).all():
        raise ShapeError("matrix entries must be finite")
    if is_hermitian(a):
        w, v = np.linalg.eigh(a)
        with np.errstate(over="raise"):
            try:
                ew = np.exp(w * time)
            except FloatingPointError as exc:
                raise MagnitudeError(f"exp overflow for eigenvalue range {w.min()}..{w.max()}") from exc
        return (v * ew) @ v.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        at = a * time
        norm = np.linalg.norm(at, 2) if np.isfinite(at).all() else np.inf
        scaled = norm / _SCALE_TARGET
    if not np.isfinite(scaled):
        raise MagnitudeError(f"||A t||_2 = {norm:.3e} is out of range at t = {time:.6g}")
    squarings = max(0, int(np.ceil(np.log2(scaled)))) if norm > _SCALE_TARGET else 0
    x = at / (2.0**squarings)
    n = a.shape[0]
    term = np.eye(n, dtype=complex)
    acc = np.eye(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, _TAYLOR_ORDER + 1):
            term = term @ x / j
            acc += term
        for _ in range(squarings):
            acc = acc @ acc
    if not np.isfinite(acc).all():
        raise MagnitudeError(f"exp(A t) overflowed for ||A t||_2 = {norm:.3e}")
    return acc
