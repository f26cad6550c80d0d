"""Exact solvers for the block systems and the solution-quality quantities.

``solve_block_forward`` walks the block-lower-triangular structure one step at
a time, factoring the (identical) diagonal block once; ``march_terminal`` runs
the same march from the one-step block alone, without assembling L.
``solve_dense`` is the deliberately-naive oracle the structured path is tested
against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DegenerateTargetError,
    SingularBlockError,
    SizeError,
    SolveResidualError,
)
from .error_bounds import SolverParams
from .pade_core import OdeProblem
from .system_builder import SCHEMES, BlockLayout, BlockSystem, Scheme, block_layout, build_rhs

DENSE_DIM_CAP = 4096
#: Residual gates, relative to ||rhs||, of the structured solver and the dense oracle.
FORWARD_RESIDUAL_TOL = 1e-10
DENSE_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class SolutionBundle:
    """Per-step auxiliary blocks, terminal state, and measurement quantities.

    ``z_blocks[s, j]`` holds the auxiliary vector with subscript j of step
    s+1 (subscript order, not stack order).  ``norm_c`` is the global
    normalization C with C^2 = sum ||z||^2 + p ||terminal||^2.
    """

    scheme: str
    z_blocks: np.ndarray
    terminal: np.ndarray
    padding_count: int
    norm_c: float
    p_succ: float
    residual: float

    def step_iterates(self) -> np.ndarray:
        """Output iterate of every step: the scheme's signed readout sum of its z blocks."""
        rec = SCHEMES[self.scheme](self.z_blocks.shape[1] - 1)
        return rec.output(rec.stacked(self.z_blocks))


def _pow2_scale(*arrays: np.ndarray) -> float:
    """2**-e when the largest real or imaginary part in ``arrays`` has a
    binary exponent e > 500, whose square could overflow; else 1.  Scaling by
    a power of two is exact, so results that did not overflow are unchanged."""
    big = max(max(float(np.abs(x.real).max()), float(np.abs(x.imag).max())) for x in arrays)
    exponent = math.frexp(big)[1]
    return math.ldexp(1.0, -exponent) if exponent > 500 else 1.0


def _norm(vec: np.ndarray) -> float:
    """||vec||_2, squared only after ``_pow2_scale``."""
    scale = _pow2_scale(vec)
    return float(np.linalg.norm(vec * scale)) / scale


def _norms(z_blocks: np.ndarray, terminal: np.ndarray, padding: int) -> tuple[float, float]:
    scale = _pow2_scale(z_blocks, terminal)
    total_z = float(np.sum(np.abs(z_blocks * scale) ** 2))
    term = float(np.sum(np.abs(terminal * scale) ** 2))
    c2 = total_z + padding * term
    if c2 <= 0.0:
        raise DegenerateTargetError("solution vector has zero norm")
    return np.sqrt(c2) / scale, padding * term / c2


def _factor_step_block(block: np.ndarray):
    """LU factors (lu, piv) of the one-step block every step of L shares.

    Extreme step norms produce wildly scaled yet nonsingular pivots, so only
    an essentially exact zero pivot flags singularity; near-singular damage
    is caught by the march's non-finite check and the residual gate.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(block)
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularBlockError(f"diagonal block is singular: {exc}", step_index=1) from exc
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= 1e-20 * max(pivots.max(), 1e-300):
        raise SingularBlockError(
            f"diagonal block pivot ratio {pivots.min() / max(pivots.max(), 1e-300):.2e}",
            step_index=1)
    return lu, piv


def _march(step_block: np.ndarray, rhs: np.ndarray, rec: Scheme,
           lay: BlockLayout) -> tuple[np.ndarray, np.ndarray]:
    """Forward substitution over the m step rows of L: the (m, k+1, n) step
    stacks and the terminal state, the last step's readout.

    ``step_block`` (the diagonal block of L) is factored once; each step
    solves with it after its first row subtracts the coupling to the previous
    stack's signed sum.  A singular block raises ``SingularBlockError`` at
    step 1, and an overflow at the first step whose solution or readout
    ``rec.output`` is not finite.
    """
    lu, piv = _factor_step_block(step_block)
    n, m, width = lay.n, lay.m, lay.step_width
    blocks = rhs[:m * width * n].reshape(m, width * n)
    stacks = np.empty((m, width * n), dtype=complex)
    getrs, = sla.get_lapack_funcs(("getrs",), (lu, blocks))
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(m):
            block = blocks[step].copy()
            if step > 0:
                block[:n] -= rec.couple * rec.signed_sum(stacks[step - 1].reshape(width, n))
            stacks[step] = getrs(lu, piv, block, overwrite_b=True)[0]
        finite = np.isfinite(stacks).all(axis=1)
        bad = m if finite.all() else int(np.argmin(finite))
        # a non-finite readout makes the next step's rhs, hence its solution,
        # non-finite: only the step before the first non-finite solution (or
        # the last step) can have a finite solution but a non-finite readout
        if bad > 0:
            readout = rec.output(stacks[bad - 1].reshape(width, n))
            if not np.isfinite(readout).all():
                bad -= 1
    if bad < m:
        raise SingularBlockError(f"non-finite solution at step {bad + 1} of {m}",
                                 step_index=bad + 1)
    return stacks.reshape(m, width, n), readout


def march_terminal(problem: OdeProblem, params: SolverParams) -> np.ndarray:
    """Terminal state of the scheme's m steps, without assembling L.

    Factors W = S1 (x) I_n + B1 (x) (A h), the diagonal block of L, and
    marches the rhs through it: bit for bit the ``terminal`` of
    ``solve_block_forward`` on the assembled system.
    """
    lay = block_layout(problem, params)
    rec = SCHEMES[params.scheme](lay.k)
    step_block = rec.one_step(problem.matrix_a * lay.h)
    return _march(step_block, build_rhs(rec, lay, problem), rec, lay)[1]


def solve_block_forward(system: BlockSystem, check_residual: bool = True) -> SolutionBundle:
    """Forward substitution over block rows with a single diagonal-block LU.

    The residual against the assembled sparse operator is always computed
    and recorded; with ``check_residual`` it must stay within
    ``FORWARD_RESIDUAL_TOL * ||rhs||`` (meaningful for reasonably conditioned
    systems; sweeps over unstable regimes may disable the gate).
    """
    lay = system.layout
    n, width, p = lay.n, lay.step_width, lay.p
    rec = SCHEMES[system.scheme](lay.k)
    step_block = system.matrix[: n * width, : n * width].toarray()
    stacks, terminal = _march(step_block, system.rhs, rec, lay)
    z_blocks = rec.stacked(stacks)

    full = np.concatenate([stacks.ravel(), np.tile(terminal, p)])
    rhs = system.rhs
    residual = _norm(system.matrix @ full - rhs)
    rhs_norm = _norm(rhs)
    if check_residual and residual > FORWARD_RESIDUAL_TOL * max(rhs_norm, 1e-300):
        raise SolveResidualError(f"forward-substitution residual {residual:.3e} exceeds "
                                 f"{FORWARD_RESIDUAL_TOL:.1e}*||rhs||")
    norm_c, p_succ = _norms(z_blocks, terminal, p)
    return SolutionBundle(system.scheme, z_blocks, terminal, p, norm_c, p_succ, residual)


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
    norm_c, p_succ = _norms(z, terminal, p)
    return SolutionBundle(system.scheme, z, terminal, p, norm_c, p_succ, residual)


def state_distance(u, v) -> float:
    """L2 distance between the normalized versions of two vectors."""
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise DegenerateTargetError("cannot normalize a zero vector")
    return float(np.linalg.norm(u / nu - v / nv))
