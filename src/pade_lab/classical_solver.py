"""Exact solvers for the block systems and the solution-quality quantities.

Every step of L after the first solves the one-step block W against the
previous state x and b alone, so one solve of W gives the step solution
z = C x + g.  ``_eliminate`` is the one elimination of W: a forward
substitution on b x b blocks where W is unit block lower bidiagonal (the
Taylor step), else one LU of W and one getrs.  ``march_solution`` and
``march_terminal`` march on it, the first step's rows being one more column,
and ``solve_block_forward`` adds the residual ||L z - rhs|| from the scalar
patterns, so no solve assembles L; ``step_map`` reads its readout [P | q] and
``propagated_terminal`` powers that; ``step_inverses`` is the same elimination
of a stack of blocks on the identity, and ``substitution_pair`` applies L^-1
and L^-H by block substitution on those W_i^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateTargetError, MagnitudeError, SingularBlockError, SolveResidualError
from .error_bounds import SolverParams
from .pade_core import OdeProblem
from .system_builder import (
    SCHEMES,
    Scheme,
    _norm,
    _pow2_scale,
    b_term,
    block_layout,
    build_rhs,
    scaled_by_step,
    system_product,
)

#: Residual gate, relative to ||rhs||, of the structured solver.
FORWARD_RESIDUAL_TOL = 1e-10
#: Entries of the largest transfer stack that ``substitution_pair`` holds (1 MB
#: real, 2 MB complex), about where one product by it costs as much as the
#: doubling that serves larger stacks (docs/DECISIONS.md "sigma_min by
#: step-block substitution").
_TRANSFER_ENTRIES = 2**17


@dataclass(frozen=True)
class SolutionBundle:
    """Per-step auxiliary blocks, terminal state, and measurement quantities.

    ``z_blocks[s, j]`` holds the auxiliary vector with subscript j of step
    s+1 (subscript order, not stack order).  ``norm_c`` is the global
    normalization C with C^2 = sum ||z||^2 + p ||terminal||^2.  ``residual``
    is ||L z - rhs||_2 (``solve_block_forward``), NaN from ``march_solution``.
    """

    scheme: str
    z_blocks: np.ndarray
    terminal: np.ndarray
    padding_count: int
    norm_c: float
    p_succ: float
    residual: float


def _norms(z_blocks: np.ndarray, terminal: np.ndarray, padding: int) -> tuple[float, float]:
    """(C, p_succ); a C beyond the double range raises ``MagnitudeError``."""
    scale = _pow2_scale(z_blocks, terminal)
    total_z = float(np.sum(np.abs(z_blocks * scale) ** 2))
    term = float(np.sum(np.abs(terminal * scale) ** 2))
    c2 = total_z + padding * term
    if c2 <= 0.0:
        raise DegenerateTargetError("solution vector has zero norm")
    with np.errstate(over="ignore"):
        norm_c = np.sqrt(c2) / scale
    if not np.isfinite(norm_c):
        raise MagnitudeError("the normalization C of the solution overflows")
    return norm_c, padding * term / c2


def _bundle(scheme: str, rec: Scheme, stacks: np.ndarray, terminal: np.ndarray,
            padding: int, residual: float = math.nan) -> SolutionBundle:
    """The bundle of the march's (m, k+1, n) step ``stacks`` and ``terminal`` state."""
    z = rec.stacked(stacks)
    return SolutionBundle(scheme, z, terminal, padding, *_norms(z, terminal, padding), residual)


def _factor_step_block(block: np.ndarray):
    """LU factors (lu, piv) of the one-step block every step of L shares, by
    LAPACK ``getrf`` on a copy of ``block``.

    Extreme step norms produce wildly scaled yet nonsingular pivots, so only
    an essentially exact zero pivot (or a non-finite entry) flags
    singularity; near-singular damage is caught by the march's non-finite
    check and the residual gate.
    """
    if not np.isfinite(block).all():
        raise SingularBlockError("diagonal block has a non-finite entry", step_index=1)
    getrf, = sla.get_lapack_funcs(("getrf",), (block,))
    lu, piv, info = getrf(block)
    pivots = np.abs(np.diag(lu))
    if info > 0 or pivots.min() <= 1e-20 * max(pivots.max(), 1e-300):
        raise SingularBlockError(
            f"diagonal block pivot ratio {pivots.min() / max(pivots.max(), 1e-300):.2e}",
            step_index=1)
    return lu, piv


def _eliminate(rec: Scheme, ah: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """W^-1 cols for the one-step block W = S1 (x) I_b + B1 (x) ``ah`` of the
    scheme ``rec``, ``ah`` one b x b block or an (r, b, b) stack and ``cols``
    its (k+1, b, c) or (r, k+1, b, c) columns, returned as (k+1) b rows.

    A ``rec.unit_bidiagonal`` W is never built: the columns R_0, ..., R_k of
    its k+1 block rows give y_0 = R_0 and y_i = R_i - B1[i, i-1] (A h y_{i-1}),
    a forward substitution in place, batched over the stack, which is backward
    stable and needs no pivot.  Any other W is built by ``rec.one_step`` and
    solved block by block by one ``_factor_step_block`` LU and one ``getrs``
    over all columns; a singular one raises ``SingularBlockError`` at step 1.
    Entries past the double range come out non-finite, not as a warning.
    """
    rows = cols.reshape(*cols.shape[:-3], -1, cols.shape[-1])  # a view of cols
    if rec.unit_bidiagonal:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, len(rec.signs)):
                cols[..., i, :, :] -= rec.b1[i, i - 1] * (ah @ cols[..., i - 1, :, :])
        return rows
    blocks = rec.one_step(ah)
    getrs, = sla.get_lapack_funcs(("getrs",), (blocks, rows))
    if blocks.ndim == 2:
        return getrs(*_factor_step_block(blocks), rows)[0]
    return np.stack([getrs(*_factor_step_block(w), y)[0] for w, y in zip(blocks, rows)])


def _step_solve(rec: Scheme, ah: np.ndarray, b_rhs: np.ndarray,
                first: np.ndarray | None = None) -> np.ndarray:
    """W^-1 [row_scale e_0 (x) I_n | e_{b_row} (x) b_rhs | first] for the
    one-step block W = S1 (x) I_n + B1 (x) ``ah`` of the scheme ``rec``,
    ``first`` being an optional last column, by ``_eliminate``.
    """
    n, width = len(b_rhs), len(rec.signs)
    cols = np.zeros((width, n, n + 1 + (first is not None)), dtype=complex)
    cols[0, :, :n] = rec.row_scale * np.eye(n)
    cols[rec.b_row, :, n] = b_rhs
    if first is not None:
        cols[..., -1] = first.reshape(width, n)
    return _eliminate(rec, ah, cols)


def _march(problem: OdeProblem, params: SolverParams):
    """(record, A h, rhs, step stacks, terminal state) of the scheme's m steps:
    forward substitution over the m step rows of L through its diagonal block
    W = S1 (x) I_n + B1 (x) (A h), giving the (m, k+1, n) step stacks and the
    last step's readout.

    Rows 2..k+1 of every step read only the b entry of the rhs, and the first
    row of step s+1 reads -couple sigma_s = row_scale x_{s+1}, so each later
    stack is C x + g with [C | g] from ``_step_solve``, the first step's own
    rows being its last column.  A singular block (on the LU path) raises
    ``SingularBlockError`` at step 1, and an overflow at the first step whose
    solution or readout ``rec.output`` is not finite.
    """
    lay = block_layout(problem.dim, params)
    n, m, width = lay.n, lay.m, lay.step_width
    rec = SCHEMES[params.scheme](lay.k)
    xh = scaled_by_step(problem.matrix_a, lay.h)
    rhs = build_rhs(rec, lay, problem)
    sol = _step_solve(rec, xh, rhs[rec.b_row * n:(rec.b_row + 1) * n], rhs[:width * n])
    stacks = np.empty((m, width * n), dtype=complex)
    states = np.empty((m, n), dtype=complex)
    stacks[0] = sol[:, n + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(m):
            if step:
                stacks[step] = sol[:, :n] @ states[step - 1] + sol[:, n]
            states[step] = rec.output(stacks[step].reshape(width, n))
        finite = np.isfinite(stacks).all(axis=1) & np.isfinite(states).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        raise SingularBlockError(f"non-finite solution at step {step} of {m}", step_index=step)
    return rec, xh, rhs, stacks.reshape(m, width, n), states[-1]


@np.errstate(over="ignore", invalid="ignore")
def _transfer(mat: np.ndarray, m: int) -> np.ndarray:
    """The read-only (r, m b, m b) stack of the lower block-triangular Toeplitz
    T_i with blocks mat_i^(s - j) at s >= j, for the (r, b, b) stack ``mat``:
    sigma = T_i x solves sigma_s = x_s + mat_i sigma_{s-1}, s = 0..m-1.  The
    powers I, mat, ..., mat^(m-1) take ceil(log2 m) rounds of one batched
    product, each doubling the powers formed, and one squaring; powers past the
    double range are not finite."""
    r, b = mat.shape[:2]
    # the power m stays zero: the blocks above the diagonal read it
    powers = np.zeros((r, m + 1, b, b), dtype=mat.dtype)
    powers[:, 0] = np.eye(b)
    step, done = mat, 1  # step = mat^done
    while done < m:
        count = min(done, m - done)
        powers[:, done:done + count] = step[:, None] @ powers[:, :count]
        done += count
        if done < m:
            step = step @ step
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    lag[lag < 0] = m
    out = np.ascontiguousarray(np.take(powers, lag, axis=1).transpose(0, 1, 3, 2, 4))
    out = out.reshape(r, m * b, m * b)
    out.flags.writeable = False
    return out


def _coupling_chains(mat: np.ndarray, m: int):
    """(chain, chain_h) for the (r, b, b) stack ``mat``: chain maps an (r, m, b)
    stack x to sigma with sigma_s = x_s + mat sigma_{s-1}, chain_h to tau with
    tau_s = x_s + mat^H tau_{s+1}.

    Up to ``_TRANSFER_ENTRIES`` both are one batched product by the
    ``_transfer`` stack T, chain_h by T^H as conj(conj(x)^T T), so only T is
    held.  A larger T is not formed: both chains then run by doubling, one
    (r, b, b) @ (r, b, m - shift) product per shift 1, 2, 4, ... below m by
    the held powers mat, mat^2, mat^4, ... and their adjoints.
    """
    r, b = mat.shape[:2]
    if r * (m * b) ** 2 <= _TRANSFER_ENTRIES:
        transfer = _transfer(mat, m)
        return ((lambda x: (transfer @ x.reshape(r, -1, 1)).reshape(x.shape)),
                (lambda x: (x.reshape(r, 1, -1).conj() @ transfer).conj().reshape(x.shape)))
    powers, powers_h = [mat][:m - 1], [np.swapaxes(mat, 1, 2).conj()][:m - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        while 2 ** len(powers) < m:
            powers.append(powers[-1] @ powers[-1])
            powers_h.append(powers_h[-1] @ powers_h[-1])
    for held in (*powers, *powers_h):
        held.flags.writeable = False

    def doubled(x, powers):
        """x_j <- x_j + mat x_{j-1} for j = 1, 2, ... along the last axis of
        the (r, b, m) stack x, in place, returned as (r, m, b)."""
        for j, power in enumerate(powers):
            x[..., 2**j:] += power @ x[..., :-2**j]
        return np.swapaxes(x, 1, 2)

    return ((lambda x: doubled(np.swapaxes(x, 1, 2), powers)),
            (lambda x: doubled(np.swapaxes(x[:, ::-1], 1, 2), powers_h)[:, ::-1]))


def step_inverses(rec: Scheme, xh: np.ndarray) -> np.ndarray:
    """The read-only (r, (k+1) b, (k+1) b) stack of the W_i^-1 of the one-step
    blocks W_i = S1 (x) I_b + B1 (x) X_i of the scheme ``rec``, for the (r, b, b)
    stack ``xh`` of the X_i = A_i h: ``_eliminate`` on the identity, in the
    dtype of ``xh``, so a singular W_i raises ``SingularBlockError``."""
    width, (r, b) = len(rec.signs), xh.shape[:2]
    eye = np.tile(np.eye(width * b, dtype=xh.dtype), (r, 1, 1))
    inverses = _eliminate(rec, xh, eye.reshape(r, width, b, -1))
    inverses.flags.writeable = False
    return inverses


def substitution_pair(inverses: np.ndarray, rec: Scheme, m: int, p: int):
    """(apply L^-1, apply L^-H) by block substitution, for the direct sum of
    the systems L_i of m steps and p padding rows of the scheme ``rec`` whose
    diagonal blocks are the one-step blocks W_i, from the read-only
    (r, (k+1)b, (k+1)b) stack ``inverses`` of the W_i^-1 that ``step_inverses``
    forms.  A vector, of the stack's dtype, holds the L_i one after another,
    each in L's own block-row order.

    An application of L^-1 or L^-H makes no LAPACK call per block, only
    batched products by X = ``inverses``.  With E = e_0 (x) I_b,
    Sg = signs (x) I_b, C = X E, D = (Sg^T X)^H and R = Sg^T C, the rows y_s
    of step s give

        z_s = W^-1 y_s - couple C sigma_{s-1},
        sigma_s = Sg^T z_s = D^H y_s - couple R sigma_{s-1},

    one product by X over all steps and a recurrence on the b-wide step
    outputs, which ``_coupling_chains`` solves by one product by the transfer
    stack of the powers of -couple R, formed once.  The terminal row reads
    sigma_{m-1} and the padding chain is a cumulative sum.  L^-H runs
    backward: the padding chain is a reversed cumulative sum whose first
    entry is tau_m, and

        u_s = W^-H v_s - couple D tau_{s+1},
        tau_s = E^T u_s = C^H v_s - couple R^H tau_{s+1}.
    """
    r, wb = inverses.shape[:2]
    b, rows = wb // len(rec.signs), m * len(rec.signs)
    # the rows of a stack times x_t = X^T are W^-1 on them, times x_c = conj(X) W^-H
    x_t, x_c = np.swapaxes(inverses, 1, 2).copy(), inverses.conj()
    col = inverses[..., :b]  # C = X E, (r, wb, b)
    dual_h = np.kron(rec.signs, np.eye(b)) @ inverses  # D^H = Sg^T X, (r, b, wb)
    chain, chain_h = _coupling_chains(-rec.couple * dual_h[..., :b], m)  # R = Sg^T C

    # conj(D) = (D^H)^T, D^T and conj(C), formed once; all held operands are read-only
    dual_c, dual_t, col_c = np.swapaxes(dual_h, 1, 2), dual_h.conj(), col.conj()
    for held in (x_t, x_c, dual_c, dual_t, col_c):
        held.flags.writeable = False

    # an L_i^-1 beyond the double range gives a non-finite vector, not a warning
    @np.errstate(over="ignore", invalid="ignore")
    def inv(vec):
        vec = vec.reshape(r, -1, b)
        ys = vec[:, :rows].reshape(r, m, wb)
        sig = chain(ys @ dual_c)
        z = ys @ x_t
        z[:, 1:] -= rec.couple * sig[:, :-1] @ np.swapaxes(col, 1, 2)
        tail = vec[:, rows:].copy()
        tail[:, 0] = (tail[:, 0] - rec.couple * sig[:, -1]) / rec.row_scale
        return np.concatenate([z.reshape(r, rows, b), np.cumsum(tail, axis=1)], axis=1).ravel()

    @np.errstate(over="ignore", invalid="ignore")
    def inv_h(vec):
        vec = vec.reshape(r, -1, b)
        vs = vec[:, :rows].reshape(r, m, wb)
        tail = np.cumsum(vec[:, :rows - 1:-1], axis=1)[:, ::-1]
        tail[:, 0] /= rec.row_scale
        # tau_1, ..., tau_{m-1} from the rows of steps 2..m, then tau_m = the terminal entry
        tau = chain_h(np.concatenate([(vs @ col_c)[:, 1:], tail[:, :1]], axis=1))
        u = vs @ x_c - rec.couple * tau @ dual_t
        return np.concatenate([u.reshape(r, rows, b), tail], axis=1).ravel()

    return inv, inv_h


def march_terminal(problem: OdeProblem, params: SolverParams) -> np.ndarray:
    """Terminal state of the scheme's m steps, without assembling L."""
    return _march(problem, params)[-1]


def step_map(problem: OdeProblem, params: SolverParams) -> np.ndarray:
    """The (n+1)x(n+1) matrix M = [[P, q], [0, 1]] of one step x -> P x + q
    of the scheme, so that m steps carry [x0; 1] to M^m [x0; 1]: P and q
    from ``_step_rows`` at A h and ``b_term``.  A singular W raises
    ``SingularBlockError`` at step 1; a unit lower bidiagonal W is never
    singular, and its entries past the double range come out non-finite.
    """
    lay = block_layout(problem.dim, params)
    rec = SCHEMES[params.scheme](lay.k)
    n = lay.n
    step = np.zeros((n + 1, n + 1), dtype=complex)
    step[:n] = _step_rows(rec, scaled_by_step(problem.matrix_a, lay.h),
                          b_term(rec, lay, problem))
    step[n, n] = 1.0
    return step


def _step_rows(rec: Scheme, ah: np.ndarray, b_rhs: np.ndarray) -> np.ndarray:
    """[P | q], the n x (n+1) map x -> P x + q of one step of the scheme
    ``rec`` at the step matrix ``ah`` = A h, with ``b_rhs`` the b entry of
    every step's rhs: ``rec.output`` of ``_step_solve`` at A h, as the march
    reads it.  For the Padé scheme P is R_kk(A h) = D(A h)^-1 N(A h), for the
    Taylor scheme the degree-k Taylor polynomial of exp(A h).  A singular W
    raises ``SingularBlockError``.
    """
    sol = _step_solve(rec, ah, b_rhs).reshape(len(rec.signs), len(b_rhs), -1)
    return rec.output(np.moveaxis(sol, 2, 0)).T


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
    """The bundle of the scheme's m steps without assembling L, ``residual`` NaN."""
    rec, _, _, stacks, terminal = _march(problem, params)
    return _bundle(params.scheme, rec, stacks, terminal, params.padding)


def solve_block_forward(problem: OdeProblem, params: SolverParams,
                        check_residual: bool = True) -> SolutionBundle:
    """``march_solution`` with its residual ||L z - rhs||_2, L z from the scalar
    patterns by ``system_builder.system_product``, so L is not assembled; with
    ``check_residual`` it must stay within ``FORWARD_RESIDUAL_TOL * ||rhs||``
    (meaningful for reasonably conditioned systems).  A product beyond the
    double range gives a non-finite residual, not a warning."""
    rec, xh, rhs, stacks, terminal = _march(problem, params)
    p = params.padding
    solution = np.concatenate([stacks.ravel(), np.tile(terminal, p)])
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _norm(system_product(rec, params.steps, p, xh, solution) - rhs)
    bundle = _bundle(params.scheme, rec, stacks, terminal, p, residual)
    if check_residual and not residual <= FORWARD_RESIDUAL_TOL * max(_norm(rhs), 1e-300):
        raise SolveResidualError(f"forward-substitution residual {residual:.3e} exceeds "
                                 f"{FORWARD_RESIDUAL_TOL:.1e}*||rhs||")
    return bundle


def state_distance(u, v) -> float:
    """L2 distance between the normalized versions of two vectors, each
    scaled by its ``_pow2_scale`` before it is divided by its norm."""
    units = []
    for vec in (u, v):
        vec = np.asarray(vec, dtype=complex).ravel()
        vec = vec * _pow2_scale(vec)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise DegenerateTargetError("cannot normalize a zero vector")
        units.append(vec / norm)
    return float(np.linalg.norm(units[0] - units[1]))
