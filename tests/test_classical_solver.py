import math
import types
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pade_lab import classical_solver
from pade_lab.classical_solver import (
    FORWARD_RESIDUAL_TOL,
    SolutionBundle,
    _norms,
    march_solution,
    march_terminal,
    propagated_terminal,
    solve_block_forward,
    state_distance,
    step_inverses,
    step_map,
    substitution_pair,
)
from pade_lab.analysis import extreme_singular_values
from pade_lab.errors import (
    DegenerateTargetError,
    MagnitudeError,
    PadeLabError,
    SingularBlockError,
    SizeError,
    SolveResidualError,
)
from pade_lab.error_bounds import make_params, padding_rule
from pade_lab.experiments import random_stable_matrix
from pade_lab.pade_core import OdeProblem
from pade_lab.system_builder import (
    SCHEMES,
    BlockLayout,
    BlockSystem,
    _norm,
    _pow2_scale,
    assemble,
    classical_reference_trajectory,
)

from conftest import random_contraction, random_hermitian_nsd
from oracles import (
    bundle_from_vector,
    gamma,
    march_mp,
    pade_propagator,
    product_row_terms,
    solve_dense,
    step_iterates,
)


class TestForwardSolve:
    def test_zero_matrix_basis_state(self):
        problem = OdeProblem(matrix_a=np.zeros((3, 3)), vec_b=np.zeros(3),
                             vec_x0=np.eye(3)[0], horizon=1.0)
        bundle = solve_block_forward(problem, make_params(1, 4, 2, 1.0, "pade"))
        assert np.allclose(bundle.terminal, problem.vec_x0, atol=1e-14)
        assert np.allclose(bundle.z_blocks[0, 0], problem.vec_x0, atol=1e-14)
        assert np.abs(bundle.z_blocks[0, 1:]).max() <= 1e-14

    def test_taylor_zero_matrix(self):
        problem = OdeProblem(matrix_a=np.zeros((2, 2)), vec_b=np.zeros(2),
                             vec_x0=np.array([0.3, -0.7]), horizon=1.0)
        bundle = solve_block_forward(problem, make_params(2, 3, 1, 1.0, "taylor"))
        assert np.array_equal(bundle.terminal, problem.vec_x0)

    def test_matches_dense_oracle(self, rng):
        a = random_contraction(rng, 4, norm=0.9)
        problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=4),
                             vec_x0=rng.normal(size=4), horizon=1.5)
        params = make_params(3, 5, 2, 1.5, "pade")
        system = assemble(problem, params)
        bundle = solve_block_forward(problem, params)
        oracle = bundle_from_vector(system, solve_dense(system))
        assert np.linalg.norm(bundle.terminal - oracle.terminal) <= 1e-10
        assert np.abs(bundle.z_blocks - oracle.z_blocks).max() <= 1e-10

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_oracle_equivalence_grid(self, scheme):
        # reduced copy of the acceptance grid, both matrix classes
        count = 0
        for kind in ("nsd", "unit"):
            for k in (1, 3, 7):
                for m in (1, 2, 4):
                    for p in (1, 3):
                        local = np.random.default_rng(hash((scheme, kind, k, m, p)) % 2**32)
                        n = int(local.integers(2, 5))
                        if kind == "nsd":
                            a = random_hermitian_nsd(local, n, scale=2.0)
                            h = float(local.uniform(0.1, 1.5))
                        else:
                            a = random_contraction(local, n, norm=1.0)
                            h = float(local.uniform(0.1, 1.0))
                        problem = OdeProblem(matrix_a=a, vec_b=local.normal(size=n),
                                             vec_x0=local.normal(size=n), horizon=m * h)
                        params = make_params(m, k, p, m * h, scheme)
                        system = assemble(problem, params)
                        got = solve_block_forward(problem, params)
                        want = bundle_from_vector(system, solve_dense(system))
                        scale = max(1.0, float(np.abs(want.z_blocks).max()))
                        assert np.abs(got.z_blocks - want.z_blocks).max() <= 1e-10 * scale
                        assert np.linalg.norm(got.terminal - want.terminal) <= 1e-10 * scale
                        count += 1
        assert count == 36

    def test_step_iterates_match_recurrence(self, rng):
        a = random_contraction(rng, 3, norm=0.8)
        problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=3),
                             vec_x0=rng.normal(size=3), horizon=2.0)
        m, k = 4, 5
        bundle = solve_block_forward(problem, make_params(m, k, 1, 2.0, "pade"))
        iterates = step_iterates(bundle)
        prop = pade_propagator(a, 0.5, k)
        shift = np.linalg.solve(a, problem.vec_b)
        state = problem.vec_x0.astype(complex)
        for i in range(m):
            state = prop @ state + (prop - np.eye(3)) @ shift
            assert np.linalg.norm(iterates[i] - state) <= 1e-10

    def test_singular_block(self):
        # order-1 denominator vanishes at A h = 2, making the step block singular
        problem = OdeProblem(matrix_a=np.array([[2.0]]), vec_b=np.ones(1),
                             vec_x0=np.ones(1), horizon=1.0)
        with pytest.raises(SingularBlockError) as info:
            solve_block_forward(problem, make_params(1, 1, 1, 1.0, "pade"))
        assert info.value.step_index == 1

    def test_residual_recorded(self, rng):
        a = random_hermitian_nsd(rng, 3)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(3), vec_x0=np.ones(3), horizon=1.0)
        bundle = solve_block_forward(problem, make_params(2, 3, 2, 1.0, "pade"))
        assert bundle.residual <= 1e-12


def _outcome(solve):
    """Bytes of what ``solve`` returns (a terminal state, or a bundle's z_blocks,
    terminal, norm_c and p_succ), or the type and step index of the typed error."""
    try:
        out = solve()
    except PadeLabError as exc:
        return type(exc), getattr(exc, "step_index", None)
    if isinstance(out, SolutionBundle):
        return tuple(np.asarray(x).tobytes()
                     for x in (out.z_blocks, out.terminal, out.norm_c, out.p_succ))
    return out.tobytes()


#: The march grid: real, complex and subnormal A over both schemes.
GRID = dict(n=st.integers(1, 5), m=st.integers(1, 40), k=st.integers(1, 11),
            p=st.integers(1, 3), scheme=st.sampled_from(["pade", "taylor"]),
            kind=st.sampled_from(["real", "complex", "tiny"]),
            scale=st.floats(0.01, 20.0), horizon=st.floats(0.05, 40.0),
            seed=st.integers(0, 2**32 - 1))
#: The singular [1/1] Padé step at A h = 2.
SINGULAR = dict(n=1, m=1, k=1, p=1, scheme="pade", kind="singular", scale=2.0, horizon=1.0,
                seed=0)


def _grid_problem(n, m, k, p, scheme, kind, scale, horizon, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(n, n))
    elif kind == "tiny":
        # products with A h underflow to subnormals and to zero
        a = a * 10.0 ** rng.uniform(-325.0, -300.0, size=(n, n))
    elif kind == "singular":
        a = np.eye(n)  # the [1/1] Padé step is singular at A h = 2
    a = a * scale
    problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=n) * rng.integers(0, 2),
                         vec_x0=rng.normal(size=n), horizon=horizon)
    return problem, make_params(m, k, p, horizon, scheme)


class TestMarchTerminal:
    """The march from the one-step block against the assembled solve."""

    @settings(max_examples=300, deadline=None)
    @given(**GRID)
    @example(**SINGULAR)
    def test_matches_assembled_solve(self, n, m, k, p, scheme, kind, scale, horizon, seed):
        problem, params = _grid_problem(n, m, k, p, scheme, kind, scale, horizon, seed)
        solved = _outcome(lambda: solve_block_forward(problem, params, check_residual=False))
        assert _outcome(lambda: march_solution(problem, params)) == solved
        probe = _outcome(lambda: march_terminal(problem, params))
        assert probe == (solved[1] if isinstance(solved[0], bytes) else solved)
        if kind == "singular":
            assert solved == probe == (SingularBlockError, 1)
        if not isinstance(solved[0], bytes):
            return
        # the residual of the marched z against the assembled L, within twice
        # the rounding of either (see product_row_terms), the computed
        # || |L| |z| + |rhs| || being within gamma_{t+N+7} of the exact one, and
        # each residual norm of N = dim entries rounding by gamma_{N+3}
        bundle = solve_block_forward(problem, params, check_residual=False)
        system = assemble(problem, params)
        rec = SCHEMES[scheme](k)
        z = np.concatenate([rec.stacked(bundle.z_blocks).ravel(), np.tile(bundle.terminal, p)])
        with np.errstate(over="ignore", invalid="ignore"):
            assembled = _norm(system.matrix @ z - system.rhs)
            size = _norm(abs(system.matrix) @ abs(z) + abs(system.rhs))
        t, dim = product_row_terms(rec, m, p, n), len(z)
        under = 2.0**-1070 * (t + n + 4) * (1.0 + float(np.abs(z).max())) * math.sqrt(dim)
        bound = (2 * gamma(t + 4) * (1 + gamma(t + dim + 7)) * size + 2 * under
                 + gamma(dim + 3) * (bundle.residual + assembled))
        assert bundle.residual == assembled or abs(bundle.residual - assembled) <= bound
        # the gate passes wherever the assembled residual passed it, and only there
        gate = FORWARD_RESIDUAL_TOL * max(_norm(system.rhs), 1e-300)
        gated = _outcome(lambda: solve_block_forward(problem, params))
        if not abs(assembled - gate) <= bound:
            assert (gated == solved) == (assembled <= gate)
            assert gated in (solved, (SolveResidualError, None))

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_one_factorization_and_one_solve_at_any_m(self, scheme, monkeypatch):
        # the march iterates the solved step map: the LAPACK work of W does
        # not grow with the number of steps, and the unit lower bidiagonal
        # Taylor W is solved by forward substitution, with no LAPACK call
        calls = []

        def factor(block, fn=classical_solver._factor_step_block):
            calls.append("factor")
            return fn(block)

        def lapack(names, *args, fn=classical_solver.sla.get_lapack_funcs):
            def counted(name, func):
                def call(*a, **kw):
                    calls.append(name)
                    return func(*a, **kw)
                return call
            return [counted(name, func) if name == "getrs" else func
                    for name, func in zip(names, fn(names, *args))]

        monkeypatch.setattr(classical_solver, "_factor_step_block", factor)
        monkeypatch.setattr(classical_solver.sla, "get_lapack_funcs", lapack)
        problem = OdeProblem(matrix_a=random_stable_matrix(3, 0), vec_b=np.ones(3),
                             vec_x0=np.ones(3), horizon=10.0)
        for m in (1, 300):
            calls.clear()
            march_solution(problem, make_params(m, 9, 1, 10.0, scheme))
            assert calls == ([] if scheme == "taylor" else ["factor", "getrs"]), m

    def test_overflow_names_the_first_non_finite_step(self):
        problem = OdeProblem(matrix_a=np.array([[30.0]]), vec_b=np.zeros(1),
                             vec_x0=np.ones(1), horizon=300.0)
        params = make_params(300, 9, 1, 300.0, "pade")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularBlockError) as info:
                solve_block_forward(problem, params, check_residual=False)
            step = info.value.step_index
            with pytest.raises(SingularBlockError) as info:
                march_terminal(problem, params)
            assert info.value.step_index == step
            # h = 1 at every m = T: the march stops at m = step, not before
            for m in (step - 1, step):
                shorter = OdeProblem(matrix_a=problem.matrix_a, vec_b=problem.vec_b,
                                     vec_x0=problem.vec_x0, horizon=float(m))
                if m < step:
                    march_terminal(shorter, make_params(m, 9, 1, m, "pade"))
                else:
                    with pytest.raises(SingularBlockError) as info:
                        march_terminal(shorter, make_params(m, 9, 1, m, "pade"))
                    assert info.value.step_index == step
        assert 1 < step < 300

    def test_overflowing_readout_is_the_failing_step(self, capfd):
        # at m = 122 every step solution is finite but the terminal readout is not
        problem = OdeProblem(matrix_a=np.array([[30.0]]), vec_b=np.zeros(1),
                             vec_x0=np.ones(1), horizon=122.0)
        params = make_params(122, 9, 1, 122.0, "pade")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularBlockError) as info:
                solve_block_forward(problem, params, check_residual=False)
            assert info.value.step_index == 122
            with pytest.raises(SingularBlockError) as info:
                march_terminal(problem, params)
            assert info.value.step_index == 122
        assert capfd.readouterr().err == ""

    def test_huge_finite_states_keep_finite_norms(self):
        # at m = 121 every state is finite (up to about 2e306) but its square
        # is not; the same march from x0 = 2^-600 stays far from overflow, and
        # scaling by a power of two is exact, so both must agree bit for bit
        def solve(x0):
            problem = OdeProblem(matrix_a=np.array([[30.0]]), vec_b=np.zeros(1),
                                 vec_x0=np.array([x0]), horizon=121.0)
            return solve_block_forward(problem, make_params(121, 9, 1, 121.0, "pade"),
                                       check_residual=False)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big, small = solve(1.0), solve(2.0 ** -600)
        assert np.abs(big.terminal).max() > 1e306
        assert np.isfinite([big.norm_c, big.p_succ, big.residual]).all()
        assert big.norm_c == small.norm_c * 2.0 ** 600
        assert big.residual == small.residual * 2.0 ** 600
        assert big.p_succ == small.p_succ
        assert 0.0 < big.p_succ <= 1.0

    def test_tiny_finite_states_keep_their_norms(self):
        # from x0 = 2^-600 every square underflows (C read as zero before
        # _pow2_scale scaled up); scaling by a power of two is exact
        def solve(x0):
            problem = OdeProblem(matrix_a=np.array([[-1.0]]), vec_b=np.zeros(1),
                                 vec_x0=np.array([x0]), horizon=2.0)
            return march_solution(problem, make_params(2, 3, 1, 2.0, "pade"))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one, tiny = solve(1.0), solve(2.0 ** -600)
        assert tiny.norm_c == one.norm_c * 2.0 ** -600
        assert tiny.p_succ == one.p_succ


class TestPropagatedTerminal:
    """M^m [x0; 1] by powering the step map against the march."""

    @settings(max_examples=300, deadline=None)
    @given(**GRID)
    @example(**SINGULAR)
    def test_matches_march(self, n, m, k, p, scheme, kind, scale, horizon, seed):
        problem, params = _grid_problem(n, m, k, p, scheme, kind, scale, horizon, seed)
        try:
            marched = march_solution(problem, params)
        except SingularBlockError as exc:
            with pytest.raises(SingularBlockError) as info:
                propagated_terminal(problem, params)
            assert info.value.step_index == exc.step_index
            if kind == "singular":
                assert exc.step_index == 1
            return
        got = propagated_terminal(problem, params)
        # Both round differently, and a readout can cancel: the Padé output
        # r(z) x at z = -10 is 1e5 times smaller than the stack it sums.  So
        # the difference is measured against m times the largest unsigned sum
        # of a step stack (norms by the scaled _norm, as states near the
        # overflow threshold occur)
        unsigned = max(_norm(np.abs(stack).sum(axis=0)) for stack in marched.z_blocks)
        assert _norm(got - marched.terminal) <= 1e-12 * m * unsigned

    def test_step_map_is_one_step(self, rng):
        # M [x; 1] is the terminal state of one step from x, for both schemes
        a = random_contraction(rng, 3, norm=2.0)
        problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=3),
                             vec_x0=rng.normal(size=3), horizon=0.7)
        for scheme in ("pade", "taylor"):
            params = make_params(1, 6, 1, 0.7, scheme)
            step = step_map(problem, params)
            assert np.array_equal(step[3], [0, 0, 0, 1])
            got = step @ np.append(problem.vec_x0, 1.0)
            want = march_terminal(problem, params)
            assert np.linalg.norm(got[:3] - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("m", [122, 300])
    def test_overflow_raises_the_march_step(self, m, capfd):
        # the powers overflow; the march names the first non-finite step
        problem = OdeProblem(matrix_a=np.array([[30.0]]), vec_b=np.zeros(1),
                             vec_x0=np.ones(1), horizon=float(m))
        params = make_params(m, 9, 1, float(m), "pade")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularBlockError) as marched:
                march_terminal(problem, params)
            with pytest.raises(SingularBlockError) as info:
                propagated_terminal(problem, params)
        assert info.value.step_index == marched.value.step_index
        assert capfd.readouterr().err == ""


class TestTaylorForwardSubstitution:
    """The unit lower bidiagonal Taylor step block solved by its forward recurrence."""

    @pytest.mark.parametrize("m", [5, 8])
    def test_tridiagonal_march_matches_the_40_digit_march(self, m):
        # tridiag(1, -2, 1), b = 1, x0 = 0, T = 30 at k = 9: a pivoted LU of W
        # was 5.7e-12 (m = 5) and 6.3e-11 (m = 8) off the extended march
        a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(5), vec_x0=np.zeros(5), horizon=30.0)
        params = make_params(m, 9, 1, 30.0, "taylor")
        want = march_mp(problem, params)
        got = march_terminal(problem, params)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), k=st.integers(1, 12), complex_=st.booleans(),
           with_first=st.booleans(), log_scale=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_meets_the_triangular_solve_backward_error(self, n, k, complex_, with_first,
                                                       log_scale, seed):
        # every entry of the residual R - W Y of the computed Y = W^-1 R is
        # within gamma_(2n+8) (|W| |Y|) of zero, W formed exactly in 40 digits:
        # per entry one complex n-term product by A h, one scaling and one
        # subtraction, as a triangular solve with n + 1 nonzeros per row
        import mpmath as mp

        rng = np.random.default_rng(seed)
        ah = rng.normal(size=(n, n)) * 10.0 ** log_scale
        if complex_:
            ah = ah + 1j * rng.normal(size=(n, n)) * 10.0 ** log_scale
        b_rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
        rec = SCHEMES["taylor"](k)
        first = rng.normal(size=(k + 1) * n) if with_first else None
        got = classical_solver._step_solve(rec, ah, b_rhs, first).reshape(k + 1, n, -1)
        rhs = np.zeros(got.shape, dtype=complex)
        rhs[0, :, :n] = rec.row_scale * np.eye(n)
        rhs[rec.b_row, :, n] = b_rhs
        if with_first:
            rhs[..., -1] = first.reshape(k + 1, n)
        assert np.array_equal(got[0], rhs[0])
        bound = gamma(2 * n + 8)
        with mp.workdps(40):
            mpc = np.vectorize(lambda v: mp.mpc(complex(v)), otypes=[object])
            y, r, x = mpc(got), mpc(rhs), mpc(ah)
            for i in range(1, k + 1):
                coef = mp.mpf(rec.b1[i, i - 1])
                resid = r[i] - y[i] - coef * (x @ y[i - 1])
                size = abs(y[i]) + abs(coef) * (abs(x) @ abs(y[i - 1]))
                assert all(abs(e) <= bound * s for e, s in zip(resid.ravel(), size.ravel())), i


class TestSubstitutionPair:
    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("kind", ["diagonal", "non_normal", "non_normal-m33", "c10-m5",
                                      "c10-m8"])
    def test_matches_dense_solves(self, rng, scheme, p, kind):
        # a diagonal stack with lam = 0, where the Padé diagonal beta lam h of
        # W is zero and an unpivoted elimination divides by it, and the one
        # block of a non-normal A, also at m = 33, where the doubling of the
        # b = 4 recurrence runs six shifts; L_i^-1 y and L_i^-H y against
        # dense solves.  The C10 tridiagonal A as one block over T = 30 gives
        # the Taylor W the condition numbers 9.5e7 (m = 5) and 1.0e6 (m = 8)
        # and ||L^-1|| beyond 1e14: the Taylor L is lower triangular, and
        # forward substitution is the oracle
        m, k, horizon = 6, 9, 3.0
        if kind == "diagonal":
            mats = [np.array([[lam]]) for lam in (0.0, -0.4, -2.5 + 1.0j, 0.8)]
        elif kind.startswith("c10"):
            mats = [np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)]
            m, horizon = int(kind[5:]), 30.0
        else:
            mats = [random_stable_matrix(4, 7)]
            m = 33 if kind.endswith("m33") else m
        triangular = kind.startswith("c10") and scheme == "taylor"
        params = make_params(m, k, p, horizon, scheme)
        rec = SCHEMES[scheme](k)
        xh = np.stack([np.asarray(a, dtype=complex) * params.step_size for a in mats])
        inv, inv_h = substitution_pair(step_inverses(rec, xh), rec, m, p)
        dense = [assemble(OdeProblem(matrix_a=a, vec_b=np.ones(len(a)), vec_x0=np.ones(len(a)),
                                     horizon=horizon), params).dense() for a in mats]
        cuts = np.cumsum([len(d) for d in dense])
        y = rng.normal(size=cuts[-1]) + 1j * rng.normal(size=cuts[-1])
        for apply, adjoint in ((inv, False), (inv_h, True)):
            ops = [d.conj().T if adjoint else d for d in dense]
            got = np.split(apply(y), cuts[:-1])
            for d, op, part, x in zip(dense, ops, np.split(y, cuts[:-1]), got):
                if triangular:
                    want = sla.solve_triangular(d, part, lower=True, trans="C" if adjoint else "N")
                    assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)
                    continue
                want = np.linalg.solve(op, part)
                assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
                assert np.linalg.norm(op @ x - part) <= 1e-12 * np.linalg.norm(part)

    @staticmethod
    def _closure_operands(*fns):
        """(arrays, lists): the arrays, each once, and the lists that the closures
        of ``fns`` and of the functions they hold read."""
        arrays, lists, seen, todo = {}, [], set(), list(fns)
        while todo:
            for value in (c.cell_contents for c in todo.pop().__closure__ or ()):
                if isinstance(value, types.FunctionType) and id(value) not in seen:
                    seen.add(id(value))
                    todo.append(value)
                elif isinstance(value, list):
                    lists.append(value)
                elif isinstance(value, np.ndarray):
                    arrays[id(value)] = value
        return list(arrays.values()), lists

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_applications_keep_the_held_operands(self, rng, scheme):
        # the transfer stack of -couple R (m = 11) or, for a stack past the
        # held-entry bound (m = 86: 2 (3 m)^2 > 2^17), the doubling powers of
        # -couple R and its adjoint, seven shifts, and the conjugated C and D
        # are formed once per pair
        k, p, n = 3, 2, 3
        rec = SCHEMES[scheme](k)
        xh = np.stack([np.asarray(random_stable_matrix(n, s), dtype=complex) * 0.2
                       for s in (5, 6)])
        for m in (11, 86):
            inv, inv_h = substitution_pair(step_inverses(rec, xh), rec, m, p)
            arrays, powers = self._closure_operands(inv, inv_h)
            transfer = [a for a in arrays if a.shape == (2, m * n, m * n)]
            if m == 11:
                assert 2 * (m * n) ** 2 <= classical_solver._TRANSFER_ENTRIES
                assert len(transfer) == 1 and not powers
                fixed = transfer
            else:
                assert 2 * (m * n) ** 2 > classical_solver._TRANSFER_ENTRIES
                assert not transfer
                assert len(powers) == 2 and all(len(held) == 7 for held in powers)
                fixed = [a for v in powers for a in v]
            held = arrays + fixed
            before = [a.copy() for a in held]
            size = 2 * (m * (k + 1) + p) * n
            y = rng.normal(size=size) + 1j * rng.normal(size=size)
            first, second = inv(inv_h(y)), inv(inv_h(y))
            assert first.tobytes() == second.tobytes()
            for a, copy in zip(held, before):
                assert a.tobytes() == copy.tobytes()
            for a in fixed:
                assert not a.flags.writeable

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    @pytest.mark.parametrize("b", [1, 2])
    def test_transfer_and_doubling_match_dense_solves(self, monkeypatch, rng, scheme, b):
        # L_i^-1 y and L_i^-H y against dense solves on both sides of the
        # held-entry bound: one transfer stack at m = 1 and m = 2, doubling for
        # the smallest m whose stack r (m b)^2 is past the bound
        r, k, p, horizon = 2, 1, 2, 3.0
        over = math.isqrt(classical_solver._TRANSFER_ENTRIES // r) // b + 1
        assert r * ((over - 1) * b) ** 2 <= classical_solver._TRANSFER_ENTRIES
        assert r * (over * b) ** 2 > classical_solver._TRANSFER_ENTRIES
        if b == 1:
            mats = [np.array([[-0.4]]), np.array([[-2.5 + 1.0j]])]
        else:
            mats = [random_stable_matrix(b, s) for s in (5, 6)]
        transfers = []
        build = classical_solver._transfer
        monkeypatch.setattr(classical_solver, "_transfer",
                            lambda *args: transfers.append(args) or build(*args))
        rec = SCHEMES[scheme](k)
        for m in (1, 2, over):
            params = make_params(m, k, p, horizon, scheme)
            xh = np.stack([np.asarray(a, dtype=complex) * params.step_size for a in mats])
            del transfers[:]
            inv, inv_h = substitution_pair(step_inverses(rec, xh), rec, m, p)
            assert len(transfers) == (m < over)
            dense = [assemble(OdeProblem(matrix_a=a, vec_b=np.ones(b), vec_x0=np.ones(b),
                                         horizon=horizon), params).dense() for a in mats]
            cuts = np.cumsum([len(d) for d in dense])
            y = rng.normal(size=cuts[-1]) + 1j * rng.normal(size=cuts[-1])
            for apply, adjoint in ((inv, False), (inv_h, True)):
                got = np.split(apply(y), cuts[:-1])
                for d, part, x in zip(dense, np.split(y, cuts[:-1]), got):
                    op = d.conj().T if adjoint else d
                    want = np.linalg.solve(op, part)
                    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want), (m, adjoint)

    @pytest.mark.parametrize("m", [200, 400])
    def test_overflowing_powers_raise_no_warning(self, m):
        # A = [[30]] over T = 30 (Taylor): the powers of the step pass the
        # double range, on the transfer path (m = 200) and by doubling (m = 400),
        # and the first application of L^-1 L^-H raises a typed MagnitudeError,
        # neither an overflow warning nor an ARPACK failure on non-finite vectors
        assert (m * m <= classical_solver._TRANSFER_ENTRIES) == (m == 200)
        problem = OdeProblem(matrix_a=np.array([[30.0]]), vec_b=np.zeros(1),
                             vec_x0=np.ones(1), horizon=30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MagnitudeError, match="L\\^-1 L\\^-H .* overflows"):
                extreme_singular_values(problem, make_params(m, 9, 1, 30.0, "taylor"))


class TestStepInverses:
    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_inverse_stack_is_read_only(self, scheme):
        # the (r, (k+1) n, (k+1) n) stack of the W_i^-1, which substitution_pair
        # and the one-step norms of analysis read
        k, n = 3, 2
        rec = SCHEMES[scheme](k)
        xh = np.stack([np.asarray(random_stable_matrix(n, s), dtype=complex) * 0.2
                       for s in (5, 6)])
        inverses = step_inverses(rec, xh)
        assert inverses.shape == (2, (k + 1) * n, (k + 1) * n) and not inverses.flags.writeable
        with pytest.raises(ValueError):
            inverses[0, 0, 0] = 2.0
        assert np.allclose(inverses @ rec.one_step(xh), np.eye((k + 1) * n), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("m", [5, 8])
    def test_taylor_stack_is_forward_substitution(self, m, monkeypatch):
        # the C10 tridiagonal A over T = 30 gives the Taylor W the condition
        # numbers 9.5e7 (m = 5) and 1.0e6 (m = 8); stacked with -A h, its
        # inverse takes no LU and keeps the digits of a triangular solve
        def refuse(block):
            raise AssertionError("a unit lower bidiagonal W was factored")

        monkeypatch.setattr(classical_solver, "_factor_step_block", refuse)
        a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
        rec = SCHEMES["taylor"](9)
        xh = np.stack([a * (30.0 / m), -a * (30.0 / m)])
        inverses = step_inverses(rec, xh)
        for x, w in zip(inverses, rec.one_step(xh)):
            want = sla.solve_triangular(w, np.eye(len(w)), lower=True)
            assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_keeps_the_stack_dtype(self, scheme, dtype):
        # a real stack gives real inverses, which ARPACK reads without a
        # ComplexWarning, and a complex stack complex ones
        rec = SCHEMES[scheme](4)
        xh = np.array([[[-0.3]], [[0.0]], [[-2.5]]], dtype=dtype)
        inverses = step_inverses(rec, xh)
        assert inverses.dtype == np.dtype(dtype)
        assert np.allclose(inverses @ rec.one_step(xh), np.eye(5), rtol=0.0, atol=1e-13)


class TestDenseOracle:
    def test_identity_system(self):
        layout = BlockLayout(n=1, m=1, k=1, p=1, h=1.0)
        rhs = np.array([1.0, 2.0, 3.0], dtype=complex)
        system = BlockSystem("taylor", sp.identity(3, format="csr", dtype=complex),
                             rhs, layout)
        assert np.array_equal(solve_dense(system), rhs)

    def test_residual_contract(self, rng):
        a = random_hermitian_nsd(rng, 4)
        problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=4),
                             vec_x0=rng.normal(size=4), horizon=2.0)
        system = assemble(problem, make_params(3, 4, 2, 2.0, "pade"))
        sol = solve_dense(system)
        res = np.linalg.norm(system.matrix @ sol - system.rhs)
        assert res <= 1e-12 * np.linalg.norm(system.rhs)

    def test_size_cap(self):
        problem = OdeProblem(matrix_a=np.zeros((1, 1)), vec_b=np.ones(1),
                             vec_x0=np.ones(1), horizon=1.0)
        system = assemble(problem, make_params(2048, 1, 3, 1.0, "taylor"))
        assert system.layout.dim == 4099
        with pytest.raises(SizeError):
            solve_dense(system)


class TestSuccessProbability:
    @staticmethod
    def synthetic(z_scale, terminal, padding):
        m, width, n = 1, 2, len(terminal)
        z = np.full((m, width, n), z_scale, dtype=complex)
        terminal = np.asarray(terminal, dtype=complex)
        norm_c, p_succ = _norms(z, terminal, padding)
        return SolutionBundle("pade", z, terminal, padding, norm_c, p_succ, 0.0)

    def test_all_z_zero(self):
        bundle = self.synthetic(0.0, [1.0, 0.0], 3)
        assert bundle.p_succ == pytest.approx(1.0, abs=1e-15)

    def test_balanced_half(self):
        # total z mass 2 equals p ||terminal||^2 = 2
        bundle = self.synthetic(1.0, [1.0], 2)
        assert bundle.p_succ == pytest.approx(0.5, abs=1e-15)

    def test_definition_consistency(self, rng):
        a = random_hermitian_nsd(rng, 3)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(3), vec_x0=np.ones(3), horizon=1.0)
        bundle = solve_block_forward(problem, make_params(2, 3, 4, 1.0, "pade"))
        raw = bundle.padding_count * np.sum(np.abs(bundle.terminal) ** 2) / bundle.norm_c**2
        assert bundle.p_succ == pytest.approx(raw, abs=1e-14)

    def test_norm_invariant(self, rng):
        a = random_hermitian_nsd(rng, 4)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(4), vec_x0=np.ones(4), horizon=2.0)
        bundle = solve_block_forward(problem, make_params(3, 2, 3, 2.0, "pade"))
        c2 = np.sum(np.abs(bundle.z_blocks) ** 2) + bundle.padding_count * np.sum(
            np.abs(bundle.terminal) ** 2)
        assert bundle.norm_c**2 == pytest.approx(c2, rel=1e-12)

    def test_padding_rule_bound(self):
        # hermitian NSD suite satisfies the two-sided success-probability bound
        for seed in range(6):
            local = np.random.default_rng(3000 + seed)
            n = 4
            a = random_hermitian_nsd(local, n, scale=1.5)
            horizon = 2.0
            m = 4
            h = horizon / m
            p = padding_rule(m, h)
            problem = OdeProblem(matrix_a=a, vec_b=local.normal(size=n),
                                 vec_x0=local.normal(size=n), horizon=horizon)
            params = make_params(m, 9, p, horizon, "pade")
            bundle = solve_block_forward(problem, params)
            traj = classical_reference_trajectory(problem, params)
            g = traj.g(float(np.linalg.norm(problem.vec_b)))
            floor = 0.5 * p / (6 * m * g**2 * (h**2 + 1) + p)
            assert bundle.p_succ >= floor - 1e-12


def _reference_pow2_scale(*arrays):
    """The two-reduction formula ``_pow2_scale`` must agree with: the larger
    of max |real| and max |imag| per array, folded by Python's ``max``."""
    big = max(max(float(np.abs(x.real).max()), float(np.abs(x.imag).max())) for x in arrays)
    exponent = math.frexp(big)[1]
    return math.ldexp(1.0, -max(exponent, -1000)) if abs(exponent) > 500 else 1.0


class TestPow2Scale:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))
        near = 2.0 ** 500
        for x in (z, z.real.copy(), z[..., ::-1, :], z[::-1, ::2, ::-1], z.T, z.real[::-1],
                  z[0, 0] * 1e-310, np.array([near * (1 - 2 ** -53), 1.0]),
                  np.array([near, -1.0]), np.array([1.0 - 1j * near]), np.array([-near]),
                  np.array([2.0 ** 600 + 1j]), np.array([1e-320 + 0j, 0.0]),
                  np.zeros(3, dtype=complex), np.array([np.inf + 0j]), np.array([1j * np.inf]),
                  np.array([-np.inf, 1.0]), np.array([2.0 ** -501, 1e-300j]),
                  np.array([2.0 ** -501 * (1 - 2 ** -53)]), np.array([5e-324j, 0.0])):
            yield (x,)
        for real, imag in ((np.nan, 2.0 ** 600), (2.0 ** 600, np.nan), (np.nan, np.nan),
                           (np.inf, np.nan), (np.nan, np.inf), (1.0, np.nan)):
            pair = np.array([complex(real, imag), 2.0 ** 700])
            yield (pair,)
            yield (pair[::-1],)
            yield (pair, z)
            yield (z * 2.0 ** 600, pair)
        yield (np.array([np.nan, 2.0 ** 600]),)
        yield (np.array([2.0 ** 600, np.nan]), z)
        yield (z, np.array([2.0 ** 600]))
        yield (np.array([2.0 ** 600]), z)

    def test_matches_two_reductions(self):
        for arrays in self.inputs():
            assert _pow2_scale(*arrays) == _reference_pow2_scale(*arrays), arrays

    def test_norm_of_subnormal_parts(self):
        # a subnormal largest part scales by 2^1000, not 2^-e > 2^1023
        tiny = 2.0 ** -1074
        assert _pow2_scale(np.array([tiny])) == 2.0 ** 1000
        assert _norm(np.array([3 * tiny, 4j * tiny])) == 5 * tiny


class TestStateDistance:
    def test_equal(self, rng):
        u = rng.normal(size=4)
        assert state_distance(u, 3.0 * u) == pytest.approx(0.0, abs=1e-15)

    def test_orthonormal(self):
        assert state_distance([1, 0], [0, 1]) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_zero_vector(self):
        with pytest.raises(DegenerateTargetError):
            state_distance(np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("scale", [1.7e308, 5e-324])
    def test_scale_free_at_both_ends(self, scale):
        # the square of 1.7e308 overflows, and the reciprocal of a subnormal
        # norm, through which numpy divides a complex vector, overflows too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state_distance([scale, 0.0], [0.0, 1.0]) == math.sqrt(2)
            assert state_distance([scale], [2.0]) == 0.0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_normalized_distance_bound_property(self, seed):
        local = np.random.default_rng(seed)
        u = local.normal(size=5) + 1j * local.normal(size=5)
        v = u + (local.normal(size=5) + 1j * local.normal(size=5)) * local.uniform(0, 0.5)
        alpha = np.linalg.norm(u)
        beta = np.linalg.norm(u - v)
        if np.linalg.norm(v) == 0:
            return
        # ||u|| >= alpha and ||u - v|| <= beta bound the normalized distance by 2 beta/alpha
        assert state_distance(u, v) <= 2.0 * beta / alpha + 1e-12
