"""Oracles the tests check the package against, kept out of the package.

Each one reaches a result the package's structured paths reach, by a longer
and plainer route: a dense LU of the assembled L (``solve_dense``), the
unreduced two-half step system (``build_unreduced_pair``), the closed-form
one-step inverse (``explicit_w_inverse``), the first block column of the
truncated-series inverse (``taylor_inverse_growth``), the raw solution
vector read back into a bundle (``bundle_from_vector``, ``step_iterates``),
the one-step propagator R_kk(A h) = D^-1 N from Horner polynomials of the
matrix (``eval_pade_parts``, ``pade_propagator``), where the package reads
it off the one-step block W, or the unitarity certificate of a circuit
stage's whole U (``whole_unitary_defect``), where the package bounds it from
the stage's gates, or that bound and the stage's columns from gate matrices
and wire bookkeeping built anew for every gate (``fresh_unitarity_defect``,
``fresh_columns``), where the package computes them once per distinct gate.
The remainder series exp(-x) N(x) / D(x) - 1 comes from the quotient
recurrence over all of its terms (``remainder_product_series``), where the
package starts it from the Padé remainder integral at x^(2k+1).  sigma_min of
a banded block system comes from inverse iteration in extended precision
(``sigma_min_mp``), where the package brackets it in double precision, and
the terminal state of a march from the same step system solved in extended
precision (``march_mp``), where the package marches in double precision.
"""

import itertools
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import scipy.linalg as sla

from pade_lab import pade_core
from pade_lab.circuit_sim import (
    _FIXED_GATES as FIXED_GATES,
    UNITARITY_TOL,
    BlockEncodingUnitary,
    _gram_defect,
    add_matrix,
    ry_matrix,
    ucry_matrix,
)
from pade_lab.classical_solver import SolutionBundle, _norms
from pade_lab.error_bounds import SolverParams
from pade_lab.errors import (
    ClassificationError,
    ConsistencyError,
    SingularDenominatorError,
    SizeError,
    SolveResidualError,
)
from pade_lab.pade_core import OdeProblem, PadeCoefficients, _as_square, pade_coefficients
from pade_lab.system_builder import (
    SCHEMES,
    BlockSystem,
    _norm,
    block_layout,
    build_rhs,
    kron_sum,
    scalar_patterns,
    scaled_by_step,
)

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


def remainder_product_series(k: int, max_j: int) -> list[Fraction]:
    """Rational series of exp(-x) N_kk(x) / D_kk(x) - 1 through x**max_j from
    the quotient recurrence q_j = sum_{i<=l} n_i e_{j-i} - sum_{1<=i<=l} (-1)^i d_i q_{j-i},
    l = min(j, k), e_j = (-1)^j / j!: the at most 2k + 1 terms of each q_j summed
    in integers over their least common denominator and reduced once."""
    coeffs = pade_coefficients(k, k)
    num = [(c.numerator, c.denominator) for c in coeffs.num_coeffs]
    den = [((-1) ** i * d.numerator, d.denominator) for i, d in enumerate(coeffs.den_coeffs)]
    fact = list(itertools.accumulate(range(1, max_j + 1), operator.mul, initial=1))
    quot: list[Fraction] = []
    for j in range(max_j + 1):
        low = min(j, k)
        terms = [((-1) ** (j - i) * a, b * fact[j - i]) for i, (a, b) in enumerate(num[:low + 1])]
        terms += [(-c * quot[j - i].numerator, d * quot[j - i].denominator)
                  for i, (c, d) in enumerate(den[1:low + 1], start=1)]
        lcm = math.lcm(*(q for _, q in terms))
        quot.append(Fraction(sum(p * (lcm // q) for p, q in terms), lcm))
    quot[0] -= 1
    return quot


def bundle_from_vector(system: BlockSystem, solution: np.ndarray) -> SolutionBundle:
    """Interpret a raw solution vector of the full system as a SolutionBundle."""
    lay = system.layout
    n, m, k, p = lay.n, lay.m, lay.k, lay.p
    rec = SCHEMES[system.scheme](k)
    z = rec.stacked(solution[:m * (k + 1) * n].reshape(m, k + 1, n)).astype(complex)
    terminal = solution[m * (k + 1) * n:(m * (k + 1) + 1) * n]
    residual = _norm(system.matrix @ solution - system.rhs)
    return SolutionBundle(system.scheme, z, terminal, p, *_norms(z, terminal, p), residual)


def gamma(j: int) -> float:
    """gamma_j = j u / (1 - j u) with u = 2^-53, the relative rounding of j
    floating-point operations."""
    return j * 2.0**-53 / (1 - j * 2.0**-53)


def product_row_terms(rec, m: int, p: int, n: int) -> int:
    """t, the most nonzeros in a row of S (x) I_n + B (x) ones(n, n) over
    ``scalar_patterns(rec, m, p)``, so at least as many as in a row of L.

    Every entry of L z computed from the CSR L (each entry a pattern value
    times an entry of A h, rounded by u) or by ``system_product`` (which sums
    the n terms of Z X^T in place of the t_B n of a row, and t_S + t_B + n - 1
    <= t) is within gamma_{t+4} (|L| |z|) of the exact one, and so is an entry
    of L z - rhs within gamma_{t+4} (|L| |z| + |rhs|): a complex product rounds
    by at most sqrt(2) gamma_2 < gamma_3 and a sum of j terms by gamma_{j-1}
    in any order.  Gradual underflow adds at most 2^-1070 (t + n + 4)(1 + max |z|).
    """
    (s_rows, _, _), (b_rows, _, _) = scalar_patterns(rec, m, p)
    d = m * len(rec.s1) + p
    return int((np.bincount(s_rows, minlength=d) + n * np.bincount(b_rows, minlength=d)).max())


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
        raise SingularDenominatorError(f"denominator of order {order} is singular: {exc}") from exc
    residual = np.linalg.norm(num - den @ prop, 2)
    scale = np.linalg.norm(den, 2) * np.linalg.norm(prop, 2) if np.isfinite(residual) else 0.0
    if not residual <= 1e-12 * scale:
        cond = np.linalg.cond(den)
        raise SingularDenominatorError(
            f"denominator solve residual {residual:.3e} exceeds 1e-12*||D||*||R||; "
            f"cond(D)~{cond:.3e}")
    return prop


def fresh_gate_ops(spec) -> list:
    """(matrix, wires, controls) of each gate of ``spec``, every matrix built
    anew by the package's gate builders, never taken from a cache."""
    ops = []
    for g in spec.gates:
        if g.kind in FIXED_GATES:
            gate = FIXED_GATES[g.kind].copy()
        elif g.kind == "RY":
            gate = ry_matrix(g.angle)
        elif g.kind == "ADD":
            gate = add_matrix(len(g.targets))
        elif g.kind == "UCRY":
            gate = ucry_matrix(g.angles)
        else:
            gate = spec.opaques[g.label]
        ops.append((gate, g.selector + g.targets if g.kind == "UCRY" else g.targets,
                    g.controls))
    return ops


def apply_gate(op, gate, targets, nq, controls=()):
    """Left-multiply a gate on ``targets`` under ``controls`` into the columns
    ``op``, its wire bookkeeping worked out anew on every call."""
    cols = op.shape[1]
    tensor = op.reshape((2,) * nq + (cols,))
    index = [slice(None)] * (nq + 1)
    for wire, val in controls:
        index[wire] = val
    sub = tensor[tuple(index)]
    ctrl_wires = sorted(w for w, _ in controls)
    axes = [w - sum(1 for c in ctrl_wires if c < w) for w in targets]
    rest = [a for a in range(sub.ndim) if a not in axes]
    moved = np.transpose(sub, axes + rest)
    flat = gate @ moved.reshape(2 ** len(targets), -1)
    tensor[tuple(index)] = np.transpose(flat.reshape(moved.shape), np.argsort(axes + rest))
    return tensor.reshape(2**nq, cols)


def fresh_columns(spec, cols: int):
    """The first ``cols`` columns of the product of the gates of ``spec``, from
    ``fresh_gate_ops`` and ``apply_gate``."""
    nq = spec.total_qubits
    op = np.eye(2**nq, cols, dtype=complex)
    for gate, targets, controls in fresh_gate_ops(spec):
        op = apply_gate(op, gate, targets, nq, controls)
    return op


def fresh_unitarity_defect(enc: BlockEncodingUnitary) -> float:
    """The gate bound of a realized stage's ``unitarity_defect`` folded
    afresh: the ``_gram_defect`` of every gate matrix of ``fresh_gate_ops``,
    eps <- eps + delta + eps delta in gate order."""
    eps = 0.0
    for gate, _, _ in fresh_gate_ops(enc.circuit):
        delta = _gram_defect(gate)
        eps = eps + delta + eps * delta
    return eps


def whole_unitary_defect(enc: BlockEncodingUnitary) -> float:
    """Gram certificate of ||U^H U - I||_2 for the whole U of an encoding:
    an explicit U as held, a realized stage's U with all 2^nq columns
    multiplied out from its gates by ``fresh_columns``.  ||E||_F of
    E = U^H U - I when that meets UNITARITY_TOL, else the exact 2-norm of E."""
    u = enc.unitary
    if enc.circuit is not None:
        u = fresh_columns(enc.circuit, u.shape[0])
    defect = u.conj().T @ u - np.eye(u.shape[0])
    frobenius = float(np.linalg.norm(defect))
    return frobenius if frobenius <= UNITARITY_TOL else float(np.linalg.norm(defect, 2))


def sigma_min_mp(matrix, dps: int = 40, steps: int = 8, largest: bool = False) -> float:
    """sigma_min (sigma_max with ``largest``) of a banded square M by inverse
    iteration in ``dps`` digits.

    G = M^H M is formed exactly from the float entries of M, then shifted by
    s = (1 -+ 1e-6) sigma^2 with sigma the double-precision SVD value, which
    keeps +-(G - s I) positive definite, so its banded LU needs no pivoting (a
    pivot that is not positive raises).  Each of ``steps`` solves gains about
    six digits; the value is sqrt(||M x||^2 / ||x||^2) of the last iterate.
    """
    import mpmath as mp

    m = np.asarray(matrix, dtype=complex)
    d = len(m)
    rows, cols = np.nonzero(m)
    width = int(np.abs(rows - cols).max()) if len(rows) else 0
    reach = 2 * width  # the bandwidth of G
    with mp.workdps(dps):
        col = [{int(i): mp.mpc(complex(m[i, j])) for i in rows[cols == j]} for j in range(d)]
        sign = -1 if largest else 1
        sigma = np.linalg.svd(m, compute_uv=False)[0 if largest else -1]
        shift = mp.mpf(float(sigma)) ** 2 * (1 - sign * mp.mpf("1e-6"))
        band = []  # band[i][j] = sign (G - s I)_ij for |i - j| <= reach
        for i in range(d):
            row = {}
            for j in range(max(0, i - reach), min(d, i + reach + 1)):
                row[j] = sign * mp.fsum(mp.conj(v) * col[j][t]
                                        for t, v in col[i].items() if t in col[j])
            row[i] -= sign * shift
            band.append(row)
        for k in range(d):  # banded LU without pivoting, L below the diagonal
            pivot = band[k][k]
            if not mp.re(pivot) > 0:
                raise ValueError(f"+-(G - s I) has the pivot {pivot} at {k}")
            for i in range(k + 1, min(d, k + reach + 1)):
                band[i][k] = factor = band[i][k] / pivot
                for j in range(k + 1, min(d, k + reach + 1)):
                    band[i][j] -= factor * band[k][j]
        x = [mp.mpc(1)] * d
        for _ in range(steps):
            for i in range(d):
                x[i] -= mp.fsum(band[i][j] * x[j] for j in range(max(0, i - reach), i))
            for i in reversed(range(d)):
                x[i] = (x[i] - mp.fsum(band[i][j] * x[j]
                                       for j in range(i + 1, min(d, i + reach + 1)))) / band[i][i]
            norm = mp.sqrt(mp.fsum(abs(v) ** 2 for v in x))
            x = [v / norm for v in x]
        image = [mp.mpc(0)] * d
        for j in range(d):
            for i, v in col[j].items():
                image[i] += v * x[j]
        return float(mp.sqrt(mp.fsum(abs(v) ** 2 for v in image)))


def march_mp(problem: OdeProblem, params: SolverParams, dps: int = 40) -> np.ndarray:
    """Terminal state of the scheme's m steps marched in ``dps`` digits on the
    float step system: W = S1 (x) I_n + B1 (x) (A h) and the rhs of L formed
    exactly from the package's float patterns, A h and rhs entries, each step
    solving W z = [row_scale x; ...; b entry; ...] (the first step the first
    step's rows of the rhs) by mpmath's LU and reading x = readout sum_j signs_j z_j.
    """
    import mpmath as mp

    lay = block_layout(problem.dim, params)
    rec = SCHEMES[params.scheme](lay.k)
    n, width = lay.n, lay.step_width
    xh = scaled_by_step(problem.matrix_a, lay.h)
    rhs = build_rhs(rec, lay, problem)
    with mp.workdps(dps):
        w = mp.matrix(width * n, width * n)
        for i, j in zip(*np.nonzero(rec.s1)):
            for r in range(n):
                w[i * n + r, j * n + r] += mp.mpf(rec.s1[i, j])
        for i, j in zip(*np.nonzero(rec.b1)):
            for r, c in itertools.product(range(n), repeat=2):
                w[i * n + r, j * n + c] += mp.mpf(rec.b1[i, j]) * mp.mpc(complex(xh[r, c]))
        b_rhs = [mp.mpc(complex(v)) for v in rhs[rec.b_row * n:(rec.b_row + 1) * n]]
        col = mp.matrix([mp.mpc(complex(v)) for v in rhs[:width * n]])
        lu, piv = mp.mp.LU_decomp(w)
        for step in range(lay.m):
            if step:
                col = mp.matrix(width * n, 1)
                for r in range(n):
                    col[r] = mp.mpf(rec.row_scale) * state[r]
                    col[rec.b_row * n + r] += b_rhs[r]
            z = mp.mp.U_solve(lu, mp.mp.L_solve(lu, col, piv))
            state = [mp.mpf(rec.readout) * mp.fsum(mp.mpf(rec.signs[j]) * z[j * n + r]
                                                   for j in range(width)) for r in range(n)]
        return np.array([complex(v) for v in state])
