"""Exact solvers for the block systems and the solution-quality quantities.

``solve_block_forward`` walks the block-lower-triangular structure one step at
a time, factoring the (identical) diagonal block once; ``march_solution`` and
``march_terminal`` run the same march without assembling L,
``propagated_terminal`` reaches the terminal state by powering the one-step
map of ``step_map``, and ``substitution_pair`` applies L^-1 and L^-H by the
same elimination.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateTargetError, SingularBlockError, SolveResidualError
from .error_bounds import SolverParams
from .pade_core import OdeProblem
from .system_builder import (
    SCHEMES,
    BlockLayout,
    BlockSystem,
    Scheme,
    block_layout,
    build_rhs,
    scaled_by_step,
)

#: Residual gate, relative to ||rhs||, of the structured solver.
FORWARD_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SolutionBundle:
    """Per-step auxiliary blocks, terminal state, and measurement quantities.

    ``z_blocks[s, j]`` holds the auxiliary vector with subscript j of step
    s+1 (subscript order, not stack order).  ``norm_c`` is the global
    normalization C with C^2 = sum ||z||^2 + p ||terminal||^2.  ``residual``
    is ||L z - rhs||_2, NaN when L was never assembled (``march_solution``).
    """

    scheme: str
    z_blocks: np.ndarray
    terminal: np.ndarray
    padding_count: int
    norm_c: float
    p_succ: float
    residual: float


def _pow2_scale(*arrays: np.ndarray) -> float:
    """2**-e when the largest real or imaginary part in ``arrays`` has a
    binary exponent e > 500, whose square could overflow; else 1.  Scaling by
    a power of two is exact, so results that did not overflow are unchanged.

    A NaN real part makes its array's largest part NaN (scale 1); a NaN only
    among the imaginary parts is passed over, and so is an array after the
    first whose largest part is NaN (Python's ``max`` keeps its first
    argument against a NaN)."""
    big = max(map(_largest_part, arrays))
    exponent = math.frexp(big)[1]
    return math.ldexp(1.0, -exponent) if exponent > 500 else 1.0


def _largest_part(x: np.ndarray) -> float:
    """max |x.real| and |x.imag| over ``x`` in one reduction, over the real
    view of the complex entries in memory order."""
    if x.dtype.kind != "c":
        return float(np.abs(x).max())
    big = float(np.abs(x.ravel("K").view(x.real.dtype)).max())
    return float(np.abs(x.real).max()) if math.isnan(big) else big


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


def _bundle(scheme: str, rec: Scheme, stacks: np.ndarray, terminal: np.ndarray,
            padding: int, residual: float = math.nan) -> SolutionBundle:
    """The bundle of the march's (m, k+1, n) step ``stacks`` and ``terminal`` state."""
    z = rec.stacked(stacks)
    return SolutionBundle(scheme, z, terminal, padding, *_norms(z, terminal, padding), residual)


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


def substitution_pair(step_blocks: np.ndarray, rec: Scheme, m: int, p: int):
    """(apply L^-1, apply L^-H) by block substitution, for the direct sum of
    the systems L_i of m steps and p padding rows of the scheme ``rec`` whose
    diagonal blocks are the one-step blocks W_i of the (r, (k+1)b, (k+1)b)
    stack ``step_blocks``.  A vector, of the stack's dtype, holds the L_i one
    after another, each in L's own block-row order.

    Each W_i is factored once by ``_factor_step_block``, so a singular one
    raises ``SingularBlockError``.  With E = e_0 (x) I_b, Sg = signs (x) I_b,
    C = W^-1 E, D = W^-H Sg and R = Sg^T C, the rows y_s of step s give

        z_s = W^-1 y_s - couple C sigma_{s-1},
        sigma_s = Sg^T z_s = D^H y_s - couple R sigma_{s-1},

    one getrs over all steps and a recurrence on the b-wide step outputs,
    which ``chain`` solves by doubling.  The terminal row reads sigma_{m-1}
    and the padding chain is a cumulative sum.  L^-H runs backward: the
    padding chain is a reversed cumulative sum whose first entry is tau_m, and

        u_s = W^-H v_s - couple D tau_{s+1},
        tau_s = E^T u_s = C^H v_s - couple R^H tau_{s+1}.

    The recurrences raise R to the m-th power, so C and D get one step of
    iterative refinement: a pivoted LU of an ill-conditioned W loses digits
    that a triangular W keeps (6e-11 relative in ||L^-1|| of the tridiagonal
    C10 system, Taylor, m = 8, without it).
    """
    r, wb = step_blocks.shape[:2]
    b, rows = wb // len(rec.signs), m * len(rec.signs)
    factors = [_factor_step_block(w) for w in step_blocks]
    getrs, = sla.get_lapack_funcs(("getrs",), (step_blocks,))

    def solve(stacks, trans):  # W_i^-1 (trans 0) or W_i^-H (trans 2) on the rows of stacks[i]
        out = np.empty_like(stacks)
        for i, (lu, piv) in enumerate(factors):
            out[i] = getrs(lu, piv, stacks[i].T, trans=trans)[0].T
        return out

    def refined(thin, trans):
        rhs = np.broadcast_to(thin.T.astype(step_blocks.dtype), (r, b, wb))
        x = solve(rhs, trans)
        # the rows of x times W^T, or times conj(W) = (W^H)^T
        ops = np.swapaxes(step_blocks, 1, 2) if trans == 0 else step_blocks.conj()
        return np.swapaxes(x + solve(rhs - x @ ops, trans), 1, 2)

    signed = np.kron(rec.signs[:, None], np.eye(b))
    col, dual = refined(np.eye(wb, b), 0), refined(signed, 2)  # C and D, (r, wb, b)
    coupled = rec.couple * (signed.T @ col)  # couple R

    def chain(x, mat):
        """x_j <- x_j - mat x_{j-1} for j = 1, 2, ... along axis 1 of the
        (r, m, b, 1) stack x: the recurrence solved by doubling, in about
        log2(m) batched products rather than m small ones."""
        power, shift = -mat[:, None], 1
        while shift < x.shape[1]:
            x[:, shift:] += power @ x[:, :-shift]
            shift *= 2
            if shift < x.shape[1]:
                power = power @ power
        return x[..., 0]

    def inv(vec):
        vec = vec.reshape(r, -1, b)
        ys = vec[:, :rows].reshape(r, m, wb)
        sig = chain((ys @ dual.conj())[..., None], coupled)
        z = solve(ys, 0)
        z[:, 1:] -= rec.couple * sig[:, :-1] @ np.swapaxes(col, 1, 2)
        tail = vec[:, rows:].copy()
        tail[:, 0] = (tail[:, 0] - rec.couple * sig[:, -1]) / rec.row_scale
        return np.concatenate([z.reshape(r, rows, b), np.cumsum(tail, axis=1)], axis=1).ravel()

    def inv_h(vec):
        vec = vec.reshape(r, -1, b)
        vs = vec[:, :rows].reshape(r, m, wb)
        tail = np.cumsum(vec[:, :rows - 1:-1], axis=1)[:, ::-1]
        tail[:, 0] /= rec.row_scale
        # tau_m = the terminal entry, then tau_{m-1}, ..., tau_1, reversed
        tau = np.concatenate([tail[:, :1], (vs @ col.conj())[:, :0:-1]], axis=1)
        tau = chain(tau[..., None], np.swapaxes(coupled, 1, 2).conj())[:, ::-1]
        u = solve(vs, 2) - rec.couple * tau @ np.swapaxes(dual, 1, 2)
        return np.concatenate([u.reshape(r, rows, b), tail], axis=1).ravel()

    return inv, inv_h


def _march_problem(problem: OdeProblem, params: SolverParams):
    """(record, step stacks, terminal state) of the scheme's m steps, marched
    through W = S1 (x) I_n + B1 (x) (A h), the diagonal block of L: bit for
    bit the stacks and terminal state of ``solve_block_forward``."""
    lay = block_layout(problem, params)
    rec = SCHEMES[params.scheme](lay.k)
    step_block = rec.one_step(scaled_by_step(problem.matrix_a, lay.h))
    return (rec, *_march(step_block, build_rhs(rec, lay, problem), rec, lay))


def march_terminal(problem: OdeProblem, params: SolverParams) -> np.ndarray:
    """Terminal state of the scheme's m steps, without assembling L."""
    return _march_problem(problem, params)[2]


def step_map(problem: OdeProblem, params: SolverParams) -> np.ndarray:
    """The (n+1)x(n+1) matrix M = [[P, q], [0, 1]] of one step x -> P x + q
    of the scheme, so that m steps carry [x0; 1] to M^m [x0; 1].

    A step solves W z = row_scale e_0 (x) x + b_coef h e_{b_row} (x) b, as the
    march does, and reads x' = ``rec.output(z)``: one factorization of W and
    one ``getrs`` over the n + 1 columns of that rhs give P and q.  A singular
    W raises ``SingularBlockError`` at step 1.
    """
    lay = block_layout(problem, params)
    rec = SCHEMES[params.scheme](lay.k)
    n, width = lay.n, lay.step_width
    lu, piv = _factor_step_block(rec.one_step(scaled_by_step(problem.matrix_a, lay.h)))
    cols = np.zeros((width, n, n + 1), dtype=complex)
    cols[0, :, :n] = rec.row_scale * np.eye(n)
    cols[rec.b_row, :, n] = rec.b_coef * lay.h * problem.vec_b
    getrs, = sla.get_lapack_funcs(("getrs",), (lu, cols))
    sol = getrs(lu, piv, cols.reshape(width * n, n + 1), overwrite_b=True)[0]
    step = np.zeros((n + 1, n + 1), dtype=complex)
    step[:n] = rec.output(np.moveaxis(sol.reshape(width, n, n + 1), 2, 0)).T
    step[n, n] = 1.0
    return step


def propagated_terminal(problem: OdeProblem, params: SolverParams) -> np.ndarray:
    """Terminal state of the scheme's m steps as M^m [x0; 1] with M =
    ``step_map``, by binary powering: about 2 log2(m) products of
    (n+1)x(n+1) matrices instead of m block solves.

    The powers round differently from the march, so the result agrees with
    ``march_terminal`` to rounding, not bit for bit.  A result that is not
    finite falls back to ``march_terminal``, which returns the finite
    terminal state or raises its step-indexed ``SingularBlockError``.
    """
    state = np.append(problem.vec_x0, 1.0).astype(complex)
    m = params.steps
    with np.errstate(over="ignore", invalid="ignore"):
        power = step_map(problem, params)
        while True:
            if m & 1:
                state = power @ state
            m >>= 1
            if not m:
                break
            power = power @ power
    if not np.isfinite(state).all():
        return march_terminal(problem, params)
    return state[:-1]


def march_solution(problem: OdeProblem, params: SolverParams) -> SolutionBundle:
    """The ``solve_block_forward`` bundle without assembling L: the same bytes
    in every field but ``residual``, which is NaN."""
    rec, stacks, terminal = _march_problem(problem, params)
    return _bundle(params.scheme, rec, stacks, terminal, params.padding)


def solve_block_forward(system: BlockSystem, check_residual: bool = True) -> SolutionBundle:
    """Forward substitution over block rows with a single diagonal-block LU.

    The residual against the assembled sparse operator is always computed
    and recorded; with ``check_residual`` it must stay within
    ``FORWARD_RESIDUAL_TOL * ||rhs||`` (meaningful for reasonably conditioned
    systems; sweeps over unstable regimes may disable the gate).
    """
    lay = system.layout
    n, width = lay.n, lay.step_width
    rec = SCHEMES[system.scheme](lay.k)
    step_block = system.matrix[: n * width, : n * width].toarray()
    stacks, terminal = _march(step_block, system.rhs, rec, lay)
    solution = np.concatenate([stacks.ravel(), np.tile(terminal, lay.p)])
    bundle = _bundle(system.scheme, rec, stacks, terminal, lay.p,
                     _norm(system.matrix @ solution - system.rhs))
    if check_residual and bundle.residual > FORWARD_RESIDUAL_TOL * max(_norm(system.rhs), 1e-300):
        raise SolveResidualError(f"forward-substitution residual {bundle.residual:.3e} exceeds "
                                 f"{FORWARD_RESIDUAL_TOL:.1e}*||rhs||")
    return bundle


def state_distance(u, v) -> float:
    """L2 distance between the normalized versions of two vectors."""
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise DegenerateTargetError("cannot normalize a zero vector")
    return float(np.linalg.norm(u / nu - v / nv))
