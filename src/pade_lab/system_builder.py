"""Assembly of the block-sparse time-stepping systems and the exact reference.

Two rival encodings of the m-step propagation are built over the same block
layout: the rational one couples each step through an upper-Hessenberg block
with a summation row, the polynomial (truncated-series) one through a lower
bidiagonal block.  Both append p trailing copies of the terminal state behind
an identity-bidiagonal chain.  Each scheme is a ``Scheme`` record in
``SCHEMES``, and only this module expands it: densely by ``Scheme.one_step``
and ``kron_sum`` (also on ``dense_patterns``), sparsely by ``csr_systems``,
which builds L, the sigma_max systems of ``analysis`` and the L circuit target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import pade_core
from .errors import (
    ConsistencyError,
    DegenerateTargetError,
    MagnitudeError,
    OrderRangeError,
    ProblemFormatError,
    ShapeError,
)
from .error_bounds import SolverParams
from .pade_core import OdeProblem, reference_expm


@dataclass(frozen=True)
class BlockLayout:
    """Block geometry shared by both schemes."""

    n: int
    m: int
    k: int
    p: int
    h: float

    @property
    def step_width(self) -> int:
        return self.k + 1

    @property
    def block_rows(self) -> int:
        return self.m * (self.k + 1) + self.p

    @property
    def dim(self) -> int:
        return self.n * self.block_rows

    @property
    def nnz_cap(self) -> int:
        # a coupled summation row touches 2(k+1) identity-type blocks; interior
        # rows one identity block plus one dense n-wide block
        return self.dim * max(2 * (self.k + 1), self.n + 1) + self.dim

    def terminal_row(self) -> int:
        return self.m * (self.k + 1)


@dataclass(frozen=True)
class BlockSystem:
    """An assembled sparse system together with its block metadata."""

    scheme: str
    matrix: sp.csr_matrix
    rhs: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        if self.matrix.shape != (self.layout.dim, self.layout.dim):
            raise ConsistencyError("matrix dimension disagrees with layout")
        if self.rhs.shape != (self.layout.dim,):
            raise ConsistencyError("rhs dimension disagrees with layout")
        if self.matrix.nnz > self.layout.nnz_cap:
            raise ConsistencyError("nonzero count exceeds the block-sparsity cap")

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def alternating_signs(k: int) -> np.ndarray:
    """Signs (-1)^{k+1}, (-1)^k, ..., -1 along the stacked step positions."""
    return np.array([(-1.0) ** (k + 1 - j) for j in range(k + 1)])


@dataclass(frozen=True, eq=False)
class Scheme:
    """Block structure of one scheme at order k: L = S (x) I_n + B (x) (A h).

    ``s1`` and ``b1`` are the (k+1)x(k+1) scalar patterns of one step's
    I_n part and A h part, in stack order; ``reverse`` stacks a step as
    z_k, ..., z_0 instead of z_0, ..., z_k.  The first row of every later
    step, and the terminal row, couple to the previous step through
    ``couple * signs``; the terminal diagonal is ``row_scale``, and p - 1
    padding rows copy the terminal state.  x0 enters the first row times
    ``row_scale``; b enters row ``b_row`` of every step times ``b_coef * h``.
    The global error of m steps falls like m^-``error_order``.
    The record keeps read-only copies of the arrays: ``SCHEMES`` hands one
    shared record per order to every caller.  Records compare and hash by
    identity, so a cache keyed on the record is keyed on (scheme, order).
    """

    s1: np.ndarray
    b1: np.ndarray
    signs: np.ndarray
    couple: float
    row_scale: float
    b_row: int
    b_coef: float
    reverse: bool
    error_order: int
    plain_sum: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if abs(self.couple) != abs(self.row_scale):
            raise ConsistencyError("the terminal row must read the step output with sign +-1")
        for name in ("s1", "b1", "signs"):
            object.__setattr__(self, name, pade_core.read_only(getattr(self, name)))
        object.__setattr__(self, "plain_sum", bool((self.signs > 0).all()))

    @property
    def coupling(self) -> np.ndarray:
        """The inter-step coupling row, over the previous step's stack positions."""
        return self.couple * self.signs

    @property
    def readout(self) -> float:
        """Factor r with step output r * sum_j signs_j z_j, from the terminal row."""
        return -self.couple / self.row_scale

    def signed_sum(self, stack: np.ndarray) -> np.ndarray:
        """sum_j signs_j z_j over the stack axis -2.

        An all-plus row (``plain_sum``) is a plain sum: numpy's add reduction
        and einsum round a contiguous sum (n = 1) differently.
        """
        if self.plain_sum:
            return stack.sum(axis=-2)
        return np.einsum("j,...jn->...n", self.signs, stack)

    def output(self, stack: np.ndarray) -> np.ndarray:
        """Step output readout * sum_j signs_j z_j, with the +-1 readout as an exact sign."""
        total = self.signed_sum(stack)
        return -total if self.readout < 0 else total

    def stacked(self, blocks: np.ndarray) -> np.ndarray:
        """Swap subscript and stack order along axis -2 (its own inverse)."""
        return blocks[..., ::-1, :] if self.reverse else blocks

    def one_step(self, xh: np.ndarray) -> np.ndarray:
        """Dense W = S1 (x) I_b + B1 (x) X for a b x b block X = A h or an (r, b, b) stack."""
        return kron_sum(self.s1, self.b1, xh)


def kron_sum(s: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S (x) I_b + B (x) X for one b x b block X or each X of an (r, b, b) stack,
    bit for bit ``np.kron(S, I_b) + np.kron(B, X)``: S (x) I_b (S itself for b = 1)
    is added in full, as its zeros turn -0.0 products into +0.0."""
    d, w = len(s), x.shape[-1]
    out = b[:, None, :, None] * x[..., None, :, None, :]
    out += s[:, None, :, None] * np.eye(w)[:, None, :] if w > 1 else s[:, None, :, None]
    return out.reshape(*x.shape[:-2], d * w, d * w)


# Records are read-only, so one instance per order serves every caller.  The
# Taylor order has no upper limit, so the caches are bounded.
@lru_cache(maxsize=128)
def _pade_scheme(k: int) -> Scheme:
    """Upper-Hessenberg step: a 1/sqrt(k+1) summation row, identity shifts
    below it and beta_{k-i+1} A h on the diagonal of row i."""
    if k < 1:
        # the rhs placement reads the denominator coefficient d_1
        raise OrderRangeError(f"the Padé scheme needs order k >= 1, got {k}")
    coeffs = pade_core.pade_coefficients(k, k)
    s = 1.0 / np.sqrt(k + 1)
    s1 = np.eye(k + 1, k=-1)
    s1[0] = s
    b1 = np.diag(np.concatenate([[0.0], coeffs.beta_floats[::-1]]))
    return Scheme(s1, b1, alternating_signs(k), couple=s, row_scale=s,
                  b_row=k, b_coef=-float(coeffs.den_coeffs[1]), reverse=True,
                  error_order=2 * k)


@lru_cache(maxsize=128)
def _taylor_scheme(k: int) -> Scheme:
    """Lower-bidiagonal step: identity diagonal, -(A h)/i below it."""
    b1 = np.zeros((k + 1, k + 1))
    i = np.arange(1, k + 1)
    # numpy divides a complex by a real through its reciprocal, so this
    # coefficient reproduces -(A h)/i bit for bit
    b1[i, i - 1] = -1.0 / i
    return Scheme(np.eye(k + 1), b1, np.ones(k + 1), couple=-1.0, row_scale=1.0,
                  b_row=1, b_coef=1.0, reverse=False, error_order=k)


#: Scheme name -> record factory of the order k, over ``pade_core.SCHEME_NAMES``.
SCHEMES = dict(zip(pade_core.SCHEME_NAMES, (_pade_scheme, _taylor_scheme)))


@lru_cache(maxsize=256)
def scalar_patterns(rec: Scheme, m: int, p: int):
    """The scalar patterns S and B of L = S (x) I_n + B (x) (A h), as
    (rows, cols, vals) triplets over the m(k+1)+p block rows of m steps of
    the scheme ``rec`` at order k and p padding rows.

    S holds the one-step patterns, the coupling rows of steps 2..m and of the
    terminal row, the terminal diagonal and the padding chain; B holds the
    one-step A h patterns.  For A = [[lam]] they are L itself, so
    S + lam h B is the scalar system of one eigenvalue.  The triplets are
    read-only and built once per (scheme, k, m, p).
    """
    width = len(rec.s1)
    starts = np.arange(m) * width
    term = m * width
    sr, sc = np.nonzero(rec.s1)
    pad = np.arange(term + 1, term + p)
    s_rows = [(starts[:, None] + sr).ravel(), np.repeat(starts + width, width), [term], pad, pad]
    s_cols = [(starts[:, None] + sc).ravel(), (starts[:, None] + np.arange(width)).ravel(),
              [term], pad - 1, pad]
    s_vals = [np.tile(rec.s1[sr, sc], m), np.tile(rec.coupling, m), [rec.row_scale],
              -np.ones(p - 1), np.ones(p - 1)]
    br, bc = np.nonzero(rec.b1)
    b_pattern = ((starts[:, None] + br).ravel(), (starts[:, None] + bc).ravel(),
                 np.tile(rec.b1[br, bc], m))
    patterns = tuple(map(np.concatenate, (s_rows, s_cols, s_vals))), b_pattern
    for triplet in patterns:
        for arr in triplet:
            arr.flags.writeable = False
    return patterns


@lru_cache(maxsize=256)
def dense_patterns(rec: Scheme, m: int, p: int) -> np.ndarray:
    """The stack [S, B] of ``scalar_patterns(rec, m, p)`` as dense matrices for
    ``kron_sum``, read-only, built once per (scheme, k, m, p)."""
    d = m * len(rec.s1) + p
    out = np.zeros((2, d, d))
    for mat, (rows, cols, vals) in zip(out, scalar_patterns(rec, m, p)):
        np.add.at(mat, (rows, cols), vals)
    out.flags.writeable = False
    return out


def csr_systems(rec: Scheme, m: int, p: int, xs: np.ndarray) -> list[sp.csr_matrix]:
    """The CSR matrices of S (x) I_w + B (x) X over ``scalar_patterns(rec, m, p)``, one per
    w x w block X of the (r, w, w) stack ``xs``, of its dtype (at least float).

    One sorted pattern serves every block; zeros and products that underflow drop out.
    """
    (sr, sc, sv), (br, bc, bv) = scalar_patterns(rec, m, p)
    w = xs.shape[-1]
    # S (x) I_w fills the positions i w + j with i = j of its w x w blocks, B (x) X
    # those where some X is nonzero
    at = (np.arange(w) * (w + 1), np.flatnonzero((xs != 0).any(axis=0)))
    rows = np.concatenate([(r[:, None] * w + a // w).ravel() for r, a in zip((sr, br), at)])
    cols = np.concatenate([(c[:, None] * w + a % w).ravel() for c, a in zip((sc, bc), at)])
    dim = (m * len(rec.s1) + p) * w
    # entries labelled 1, 2, ... in that order, so the labels show the CSR order
    labels = sp.csr_matrix((np.arange(1.0, len(rows) + 1), (rows, cols)), shape=(dim, dim))
    if labels.nnz != len(rows):
        raise ConsistencyError("the patterns S and B overlap")
    order = labels.data.astype(int) - 1
    vals = np.concatenate([np.repeat(sv, w), np.repeat(bv, len(at[1]))])[order]
    # each entry is vals times x_ij, read from (X.ravel(), 1): S reads the 1
    reads = np.concatenate([np.full(len(sv) * w, w * w), np.tile(at[1], len(bv))])[order]
    matrices = [sp.csr_matrix((vals * np.append(x.ravel(), 1.0)[reads], labels.indices.copy(),
                               labels.indptr.copy()), shape=(dim, dim)) for x in xs]
    for matrix in matrices:
        matrix.eliminate_zeros()
    return matrices


def scaled_by_step(x: np.ndarray, h: float) -> np.ndarray:
    """X h for a matrix or stack X, the A h part of every block of L; an entry
    that overflows raises ``MagnitudeError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        xh = x * h
    if not np.isfinite(xh).all():
        raise MagnitudeError(f"A h overflows at h = {h:.6g}")
    return xh


def block_layout(problem: OdeProblem, params: SolverParams) -> BlockLayout:
    """The block geometry of ``problem`` discretized by ``params``."""
    return BlockLayout(n=problem.dim, m=params.steps, k=params.order,
                       p=params.padding, h=params.step_size)


def build_rhs(rec: Scheme, lay: BlockLayout, problem: OdeProblem) -> np.ndarray:
    """Right-hand side of L: ``row_scale * x0`` in the first row and
    ``b_coef * h * b`` in row ``b_row`` of every step."""
    n = lay.n
    rhs = np.zeros(lay.dim, dtype=complex)
    rhs[:n] = rec.row_scale * problem.vec_x0
    rhs.reshape(-1, n)[np.arange(lay.m) * lay.step_width + rec.b_row] = \
        rec.b_coef * lay.h * problem.vec_b
    return rhs


def _assemble(problem: OdeProblem, params: SolverParams, scheme: str) -> BlockSystem:
    """Expand the scheme record into L = S (x) I_n + B (x) (A h) and its rhs."""
    if params.scheme != scheme:
        raise ConsistencyError(f"params.scheme={params.scheme!r}, builder wants {scheme!r}")
    lay = block_layout(problem, params)
    rec = SCHEMES[scheme](lay.k)
    matrix, = csr_systems(rec, lay.m, lay.p, scaled_by_step(problem.matrix_a, lay.h)[None])
    return BlockSystem(scheme, matrix, build_rhs(rec, lay, problem), lay)


def build_pade_system(problem: OdeProblem, params: SolverParams) -> BlockSystem:
    """Assemble the rational-scheme system and right-hand side (``SCHEMES["pade"]``)."""
    return _assemble(problem, params, "pade")


def build_taylor_system(problem: OdeProblem, params: SolverParams) -> BlockSystem:
    """Assemble the truncated-series system and right-hand side (``SCHEMES["taylor"]``)."""
    return _assemble(problem, params, "taylor")


#: Scheme name -> builder, for the callers that read the entries of L: the
#: exported matrix and a reported residual.
BUILDERS = {"pade": build_pade_system, "taylor": build_taylor_system}


@dataclass(frozen=True)
class TrajectoryReference:
    """Exact states on the step grid, via the augmented-generator exponential."""

    times: np.ndarray
    states: np.ndarray
    terminal_norm: float
    max_norm: float

    @property
    def degenerate(self) -> bool:
        return self.terminal_norm <= 1e-300

    def g(self, b_norm: float) -> float:
        """max{max_t ||x(t)||, ||b||} / ||x(T)||."""
        if self.degenerate:
            raise DegenerateTargetError("terminal norm is zero; g is undefined")
        return max(self.max_norm, b_norm) / self.terminal_norm


def classical_reference_trajectory(problem: OdeProblem, params: SolverParams) -> TrajectoryReference:
    """States x(0), x(h), ..., x(mh) without ever forming A^{-1}.

    One extra generator column carries b, so singular A is handled uniformly.
    A state or state norm that overflows raises ``MagnitudeError``, as an
    overflowing exp(A h) does.
    """
    n, m, h = problem.dim, params.steps, params.step_size
    aug = np.zeros((n + 1, n + 1), dtype=complex)
    aug[:n, :n] = problem.matrix_a
    aug[:n, n] = problem.vec_b
    prop = reference_expm(aug, h)
    state = np.concatenate([problem.vec_x0, [1.0]])
    states = np.empty((m + 1, n), dtype=complex)
    states[0] = state[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, m + 1):
            state = prop @ state
            states[i] = state[:n]
        norms = np.linalg.norm(states, axis=1)
    finite = np.isfinite(norms)
    if not finite.all():
        step = int(np.argmin(finite))
        raise MagnitudeError(f"reference trajectory overflows at step {step} of {m} "
                             f"(t = {step * h:.6g})")
    return TrajectoryReference(
        times=np.arange(m + 1) * h,
        states=states,
        terminal_norm=float(norms[-1]),
        max_norm=float(norms.max()),
    )


# --------------------------------------------------------------------------
# external formats

def problem_to_json(problem: OdeProblem) -> dict:
    def c(z):
        return {"re": float(np.real(z)), "im": float(np.imag(z))}

    return {
        "n": problem.dim,
        "a": [[c(z) for z in row] for row in problem.matrix_a],
        "b": [c(z) for z in problem.vec_b],
        "x0": [c(z) for z in problem.vec_x0],
        "T": float(problem.horizon),
    }


def _from_entry(e) -> complex:
    if isinstance(e, dict):
        return complex(e.get("re", 0.0), e.get("im", 0.0))
    return complex(e)


def problem_from_json(doc: dict) -> OdeProblem:
    try:
        n = int(doc["n"])
        a = np.array([[_from_entry(e) for e in row] for row in doc["a"]], dtype=complex)
        b = np.array([_from_entry(e) for e in doc["b"]], dtype=complex)
        x0 = np.array([_from_entry(e) for e in doc["x0"]], dtype=complex)
        horizon = float(doc["T"])
    except KeyError as exc:
        raise ProblemFormatError(f"problem document lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed problem document: {exc}") from exc
    if a.shape != (n, n):
        raise ShapeError(f"matrix shape {a.shape} disagrees with n={n}")
    return OdeProblem(matrix_a=a, vec_b=b, vec_x0=x0, horizon=horizon)


def load_problem(path) -> OdeProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ProblemFormatError(f"{path}: not a JSON problem document: {exc}") from exc
    return problem_from_json(doc)


def save_problem(problem: OdeProblem, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_json(problem), fh, indent=1)


def export_coordinate(system: BlockSystem, path):
    """Text export: header `dim nnz scheme n m k p h`, then `row col re im` lines."""
    coo = system.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lay = system.layout
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{lay.dim} {coo.nnz} {system.scheme} {lay.n} {lay.m} {lay.k} {lay.p} {lay.h:.17g}\n")
        for i in order:
            v = coo.data[i]
            fh.write(f"{coo.row[i]} {coo.col[i]} {v.real:.17g} {v.imag:.17g}\n")
