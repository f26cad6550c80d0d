"""Oracles the tests check the package against, kept out of the package.

Each one reaches a result the package's structured paths reach, by a longer
and plainer route: a dense LU of the assembled L (``solve_dense``), the
unreduced two-half step system (``build_unreduced_pair``), the closed-form
one-step inverse (``explicit_w_inverse``), the first block column of the
truncated-series inverse (``taylor_inverse_growth``), or the raw solution
vector read back into a bundle (``bundle_from_vector``, ``step_iterates``).
"""

import math

import numpy as np
import scipy.linalg as sla

from pade_lab import pade_core
from pade_lab.classical_solver import SolutionBundle, _norm, _norms
from pade_lab.error_bounds import SolverParams
from pade_lab.errors import ClassificationError, ConsistencyError, SizeError, SolveResidualError
from pade_lab.pade_core import OdeProblem, pade_coefficients
from pade_lab.system_builder import SCHEMES, BlockSystem, kron_sum

DENSE_DIM_CAP = 4096
#: Residual gate of the dense oracle, relative to ||rhs||.
DENSE_RESIDUAL_TOL = 1e-12


def solve_dense(system: BlockSystem) -> np.ndarray:
    """Ground-truth oracle: partial-pivoted LU on the densified matrix."""
    lay = system.layout
    if lay.dim > DENSE_DIM_CAP:
        raise SizeError(f"dense oracle capped at dimension {DENSE_DIM_CAP}, got {lay.dim}")
    dense = system.matrix.toarray()
    lu = sla.lu_factor(dense)
    sol = sla.lu_solve(lu, system.rhs)
    sol += sla.lu_solve(lu, system.rhs - dense @ sol)
    residual = float(np.linalg.norm(dense @ sol - system.rhs))
    if residual > DENSE_RESIDUAL_TOL * max(float(np.linalg.norm(system.rhs)), 1e-300):
        raise SolveResidualError(f"dense residual {residual:.3e} exceeds contract")
    return sol


def bundle_from_vector(system: BlockSystem, solution: np.ndarray) -> SolutionBundle:
    """Interpret a raw solution vector of the full system as a SolutionBundle."""
    lay = system.layout
    n, m, k, p = lay.n, lay.m, lay.k, lay.p
    rec = SCHEMES[system.scheme](k)
    z = rec.stacked(solution[:m * (k + 1) * n].reshape(m, k + 1, n)).astype(complex)
    terminal = solution[lay.terminal_row() * n:(lay.terminal_row() + 1) * n]
    residual = _norm(system.matrix @ solution - system.rhs)
    return SolutionBundle(system.scheme, z, terminal, p, *_norms(z, terminal, p), residual)


def step_iterates(bundle: SolutionBundle) -> np.ndarray:
    """Output iterate of every step: the scheme's signed readout sum of its z blocks."""
    rec = SCHEMES[bundle.scheme](bundle.z_blocks.shape[1] - 1)
    return rec.output(rec.stacked(bundle.z_blocks))


def build_unreduced_pair(problem: OdeProblem, params: SolverParams,
                         prev_state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One unreduced step system (backward + forward halves) and its rhs.

    Unknown stacking: z_k, ..., z_0, then zt_1, ..., zt_k, then the step
    output.  Exists only to check the sign-parity identity between the two
    halves; the production encoding eliminates the forward half.
    """
    if params.scheme != "pade":
        raise ConsistencyError(f"params.scheme={params.scheme!r}, builder wants 'pade'")
    n, k, h = problem.dim, params.order, params.step_size
    eye = np.eye(n)
    ah = problem.matrix_a * h
    rec = SCHEMES["pade"](k)
    coeffs = pade_core.pade_coefficients(k, k)
    beta = coeffs.beta_floats
    rows = 2 * k + 2
    mat = np.zeros((rows * n, rows * n), dtype=complex)
    # backward half: the one-step block with an unscaled summation row
    unscaled = rec.s1.copy()
    unscaled[0] = 1.0
    mat[:(k + 1) * n, :(k + 1) * n] = kron_sum(unscaled, rec.b1, ah)
    blocks = mat.reshape(rows, n, rows, n)
    for j in range(1, k + 1):
        # forward half: alpha_j = beta_j for equal orders
        blocks[k + j, :, k + j - 1 if j > 1 else k] = -beta[j - 1] * ah
        blocks[k + j, :, k + j] = eye
    blocks[rows - 1, :, k:2 * k + 1] = -eye[:, None, :]
    blocks[rows - 1, :, rows - 1] = eye

    rhs = np.zeros(rows * n, dtype=complex)
    rhs[:n] = prev_state
    rhs[k * n:(k + 1) * n] = rec.b_coef * h * problem.vec_b
    rhs[(k + 1) * n:(k + 2) * n] = float(coeffs.num_coeffs[1]) * h * problem.vec_b
    return mat, rhs


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
