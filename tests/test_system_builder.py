import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pade_lab.circuit_sim import primitive_targets
from pade_lab.errors import (
    ConsistencyError,
    DegenerateTargetError,
    MagnitudeError,
    OrderRangeError,
)
from pade_lab.error_bounds import make_params
from pade_lab.pade_core import OdeProblem, pade_coefficients, pade_propagator, reference_expm
from pade_lab.system_builder import (
    SCHEMES,
    build_pade_system,
    build_taylor_system,
    classical_reference_trajectory,
    csr_systems,
    dense_patterns,
    export_coordinate,
    kron_sum,
    load_problem,
    problem_from_json,
    save_problem,
    scalar_patterns,
)

from conftest import random_contraction, random_hermitian_nsd
from oracles import build_unreduced_pair, solve_dense


def small_problem(n=2, horizon=1.0, a=None, b=None, x0=None):
    a = np.zeros((n, n)) if a is None else a
    b = np.ones(n) if b is None else b
    x0 = np.arange(1.0, n + 1) if x0 is None else x0
    return OdeProblem(matrix_a=a, vec_b=b, vec_x0=x0, horizon=horizon)


def reference_system(problem, params):
    """Dense block-loop assembly written straight from the block definitions."""
    n, m, k, p, h = problem.dim, params.steps, params.order, params.padding, params.step_size
    eye, ah = np.eye(n), problem.matrix_a * h
    width, term = k + 1, m * (k + 1)
    dim = n * (term + p)
    mat = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros(dim, dtype=complex)

    def put(i, j, block):
        mat[i * n:(i + 1) * n, j * n:(j + 1) * n] = block

    if params.scheme == "pade":
        coeffs = pade_coefficients(k, k)
        beta = coeffs.beta_floats
        s = 1.0 / np.sqrt(k + 1)
        coupling = [s * (-1.0) ** (k + 1 - j) for j in range(width)]
        for step in range(m):
            off = step * width
            for j in range(width):
                put(off, off + j, s * eye)
            for i in range(1, width):
                put(off + i, off + i - 1, eye)
                put(off + i, off + i, beta[k - i] * ah)
            rhs[(off + k) * n:(off + k + 1) * n] = -float(coeffs.den_coeffs[1]) * h * problem.vec_b
        put(term, term, s * eye)
        rhs[:n] = s * problem.vec_x0
    else:
        coupling = [-1.0] * width
        for step in range(m):
            off = step * width
            for i in range(width):
                put(off + i, off + i, eye)
                if i >= 1:
                    put(off + i, off + i - 1, -ah / i)
            rhs[(off + 1) * n:(off + 2) * n] = h * problem.vec_b
        put(term, term, eye)
        rhs[:n] = problem.vec_x0
    for step in range(1, m + 1):  # step m couples into the terminal row
        for j in range(width):
            put(step * width, (step - 1) * width + j, coupling[j] * eye)
    for u in range(1, p):
        put(term + u, term + u - 1, -eye)
        put(term + u, term + u, eye)
    return mat, rhs


@given(n=st.integers(1, 4), m=st.integers(1, 5), k=st.integers(1, 11), p=st.integers(1, 4),
       scheme=st.sampled_from(["pade", "taylor"]),
       kind=st.sampled_from(["real", "complex", "zero_row", "zero"]),
       seed=st.integers(0, 2**32 - 1), horizon=st.floats(0.05, 60.0))
@settings(max_examples=150, deadline=None)
def test_assembler_matches_block_loop_reference(n, m, k, p, scheme, kind, seed, horizon):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if kind != "real":
        a = a + 1j * rng.normal(size=(n, n))
    if kind == "zero_row":
        a[rng.integers(n)] = 0.0
    if kind == "zero":
        a = np.zeros((n, n))
    problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=n) + 1j * rng.normal(size=n),
                         vec_x0=rng.normal(size=n), horizon=horizon)
    params = make_params(m, k, p, horizon, scheme)
    builder = build_pade_system if scheme == "pade" else build_taylor_system
    system = builder(problem, params)
    dense, rhs = reference_system(problem, params)
    want = sp.csr_matrix(dense)
    assert np.array_equal(system.matrix.indptr, want.indptr)
    assert np.array_equal(system.matrix.indices, want.indices)
    assert np.array_equal(system.matrix.data, want.data)
    assert np.array_equal(system.rhs, rhs)


class TestPadeAssembly:
    def test_dimension_arithmetic(self):
        problem = small_problem(n=2, horizon=2.0)
        system = build_pade_system(problem, make_params(2, 3, 8, 2.0, "pade"))
        assert system.layout.dim == 2 * (2 * 4 + 8) == 32
        assert system.matrix.shape == (32, 32)

    def test_rhs_last_block_k1(self):
        problem = small_problem(n=2, horizon=3.0, b=np.array([2.0, -1.0]))
        params = make_params(3, 1, 1, 3.0, "pade")
        system = build_pade_system(problem, params)
        h = params.step_size
        n, width = 2, 2
        for step in range(3):
            row = step * width + 1
            block = system.rhs[row * n:(row + 1) * n]
            assert np.allclose(block, -0.5 * h * problem.vec_b, atol=1e-15)

    def test_one_step_zero_matrix(self):
        problem = small_problem(n=3, horizon=0.7, b=np.array([1.0, 2.0, 3.0]))
        params = make_params(1, 4, 2, 0.7, "pade")
        system = build_pade_system(problem, params)
        sol = solve_dense(system)
        xhat = sol[-3:]
        assert np.allclose(xhat, problem.vec_x0 + 0.7 * problem.vec_b, atol=1e-13)

    def test_scale_row_factor(self):
        problem = small_problem()
        system = build_pade_system(problem, make_params(1, 3, 1, 1.0, "pade"))
        term = system.layout.terminal_row() * problem.dim
        assert SCHEMES["pade"](3).row_scale == pytest.approx(0.5)
        assert system.matrix[term, term] == SCHEMES["pade"](3).row_scale

    def test_recurrence_reproduction(self, rng):
        # terminal block equals the propagator recurrence on random instances
        for seed in range(6):
            local = np.random.default_rng(700 + seed)
            n, k, m = 3, int(local.integers(1, 10)), int(local.integers(1, 9))
            a = random_contraction(local, n, norm=1.0)
            h = 1.0 / m
            x0 = local.normal(size=n) + 1j * local.normal(size=n)
            b = local.normal(size=n) + 1j * local.normal(size=n)
            problem = OdeProblem(matrix_a=a, vec_b=b, vec_x0=x0, horizon=1.0)
            system = build_pade_system(problem, make_params(m, k, 2, 1.0, "pade"))
            xhat = solve_dense(system)[-n:]
            prop = pade_propagator(a, h, k)
            shift = np.linalg.solve(a, b)
            state = x0.copy()
            for _ in range(m):
                state = prop @ state + (prop - np.eye(n)) @ shift
            assert np.linalg.norm(xhat - state) <= 1e-10 * max(1.0, np.linalg.norm(state))

    def test_padding_chain_copies(self, rng):
        a = random_hermitian_nsd(rng, 3)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(3), vec_x0=np.ones(3), horizon=2.0)
        system = build_pade_system(problem, make_params(2, 3, 5, 2.0, "pade"))
        sol = solve_dense(system)
        n = 3
        tail = sol[-5 * n:].reshape(5, n)
        for row in tail[1:]:
            assert np.linalg.norm(row - tail[0]) <= 1e-12 * max(1.0, np.linalg.norm(tail[0]))

    def test_scheme_mismatch(self):
        with pytest.raises(ConsistencyError):
            build_pade_system(small_problem(), make_params(1, 1, 1, 1.0, "taylor"))

    def test_order_zero_is_typed(self):
        # the record's rhs coefficient is d_1, which order 0 lacks
        with pytest.raises(OrderRangeError):
            SCHEMES["pade"](0)
        with pytest.raises(OrderRangeError):
            primitive_targets(0, 1)


class TestSchemeRecords:
    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_one_shared_read_only_record_per_order(self, scheme):
        rec = SCHEMES[scheme](4)
        assert SCHEMES[scheme](4) is rec
        for name in ("s1", "b1", "signs"):
            with pytest.raises(ValueError):
                getattr(rec, name)[0] = 7.0
        assert rec.plain_sum == (scheme == "taylor")

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_scalar_patterns_built_once_read_only(self, scheme):
        rec = SCHEMES[scheme](3)
        patterns = scalar_patterns(rec, 2, 5)
        assert scalar_patterns(SCHEMES[scheme](3), 2, 5) is patterns
        for arr in (*patterns[0], *patterns[1]):
            with pytest.raises(ValueError):
                arr[0] = 7

    def test_record_copies_its_arrays(self):
        s1 = np.eye(2)
        rec = replace(SCHEMES["taylor"](1), s1=s1)
        assert s1.flags.writeable and not rec.s1.flags.writeable
        s1[0, 0] = 5.0
        assert rec.s1[0, 0] == 1.0


def _bits(arr):
    """The IEEE bits of a float or complex array, signed zeros included."""
    return np.ascontiguousarray(arr).view(np.uint64)


def _x_stack(rng, r, w, kind):
    """An (r, w, w) stack with exact zeros of both signs, real or complex,
    of unit or subnormal scale."""
    parts = []
    for _ in range(2 if kind == "complex" else 1):
        part = rng.normal(size=(r, w, w))
        zeros = rng.random((r, w, w)) < 0.4
        part[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        parts.append(part * 10.0 ** rng.uniform(-322.0, -300.0) if kind == "subnormal" else part)
    return parts[0] + 1j * parts[1] if kind == "complex" else parts[0]


class TestExpansion:
    """Both expansions of L = S (x) I + B (x) X against np.kron and the assembler."""

    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(["pade", "taylor"]), k=st.integers(1, 6),
           r=st.integers(1, 3), w=st.integers(1, 4),
           kind=st.sampled_from(["real", "complex", "subnormal"]),
           seed=st.integers(0, 2**32 - 1))
    def test_one_step_is_the_kron_sum_bit_for_bit(self, scheme, k, r, w, kind, seed):
        rng = np.random.default_rng(seed)
        rec = SCHEMES[scheme](k)
        xs = _x_stack(rng, r, w, kind)
        stack = rec.one_step(xs)
        for x, got in zip(xs, stack):
            want = np.kron(rec.s1, np.eye(w)) + np.kron(rec.b1, x)
            assert got.dtype == want.dtype
            assert np.array_equal(_bits(got), _bits(want))
            assert np.array_equal(_bits(rec.one_step(x)), _bits(want))
        m, p = rng.integers(1, 3, size=2)
        s, b = dense_patterns(rec, int(m), int(p))
        assert s.shape == (m * (k + 1) + p,) * 2
        for x, got in zip(xs, kron_sum(s, b, xs)):
            assert np.array_equal(_bits(got), _bits(np.kron(s, np.eye(w)) + np.kron(b, x)))

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_one_step_of_the_tridiagonal_is_the_kron_sum(self, scheme):
        # tridiag(1, -2, 1) has exact zeros off its band, and the negative
        # Taylor pattern turns their products into -0.0
        a = (np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)) * (1 + 0j)
        rec = SCHEMES[scheme](9)
        want = np.kron(rec.s1, np.eye(5)) + np.kron(rec.b1, a * (30.0 / 19))
        assert np.array_equal(_bits(rec.one_step(a * (30.0 / 19))), _bits(want))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 5), k=st.integers(1, 9), p=st.integers(1, 4),
           scheme=st.sampled_from(["pade", "taylor"]),
           kind=st.sampled_from(["real", "complex", "tiny", "zero"]),
           seed=st.integers(0, 2**32 - 1))
    def test_sparse_expansion_is_the_assembled_matrix(self, n, m, k, p, scheme, kind, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        if kind == "complex":
            a = a + 1j * rng.normal(size=(n, n))
        elif kind == "tiny":
            # products with A h underflow to subnormals and to zero
            a = a * 10.0 ** rng.uniform(-325.0, -300.0, size=(n, n))
        elif kind == "zero":
            a = np.zeros((n, n))
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(n), vec_x0=np.ones(n), horizon=2.0)
        params = make_params(m, k, p, 2.0, scheme)
        rec, xh = SCHEMES[scheme](k), problem.matrix_a * params.step_size
        got, = csr_systems(rec, m, p, xh[None])
        want = (build_pade_system if scheme == "pade" else build_taylor_system)(problem, params)
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(got, name), getattr(want.matrix, name))
        assert np.array_equal(_bits(got.data), _bits(want.matrix.data))
        # the block-loop oracle, whose zeros (underflowed products too) drop out
        oracle = sp.csr_matrix(reference_system(problem, params)[0])
        assert np.array_equal(got.indptr, oracle.indptr)
        assert np.array_equal(got.indices, oracle.indices)
        assert np.array_equal(got.data, oracle.data)
        # in a stack, a block with zeros where another has none keeps its own pattern
        thinned = np.where(rng.random((n, n)) < 0.5, 0.0, xh)
        for one, block in zip(csr_systems(rec, m, p, np.stack([thinned, xh, thinned])),
                              (*csr_systems(rec, m, p, thinned[None]), got) * 2):
            assert np.array_equal(one.indptr, block.indptr)
            assert np.array_equal(one.indices, block.indices)
            assert np.array_equal(_bits(one.data), _bits(block.data))

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_sparse_expansion_keeps_a_real_block_real(self, scheme):
        x = np.array([[-0.5, 0.0], [0.25, -1.0]])
        rec = SCHEMES[scheme](3)
        got, = csr_systems(rec, 2, 2, x[None])
        assert got.dtype == np.float64
        s, b = dense_patterns(rec, 2, 2)
        assert np.array_equal(got.toarray(), np.kron(s, np.eye(2)) + np.kron(b, x))


class TestTaylorAssembly:
    def test_subdiagonal_blocks(self):
        problem = small_problem(n=2, horizon=1.0, a=np.eye(2))
        system = build_taylor_system(problem, make_params(1, 2, 1, 1.0, "taylor"))
        dense = system.dense()
        n = 2
        assert np.allclose(dense[n:2 * n, 0:n], -np.eye(2), atol=1e-15)
        assert np.allclose(dense[2 * n:3 * n, n:2 * n], -np.eye(2) / 2, atol=1e-15)

    def test_minimal_dimension(self):
        problem = small_problem(n=1)
        system = build_taylor_system(problem, make_params(1, 1, 1, 1.0, "taylor"))
        assert system.layout.dim == 3

    def test_one_step_zero_matrix(self):
        problem = small_problem(n=2, horizon=0.5)
        system = build_taylor_system(problem, make_params(1, 3, 2, 0.5, "taylor"))
        xhat = solve_dense(system)[-2:]
        assert np.allclose(xhat, problem.vec_x0 + 0.5 * problem.vec_b, atol=1e-14)

    def test_layout_shared_between_schemes(self):
        problem = small_problem(n=2, horizon=2.0)
        pade = build_pade_system(problem, make_params(3, 4, 2, 2.0, "pade"))
        taylor = build_taylor_system(problem, make_params(3, 4, 2, 2.0, "taylor"))
        assert pade.layout == taylor.layout
        assert pade.matrix.shape == taylor.matrix.shape
        for system in (pade, taylor):
            assert system.matrix.nnz <= system.layout.nnz_cap


class TestUnreducedPair:
    def test_sign_parity(self, rng):
        # both halves solve to the same blocks up to alternating signs
        for seed in range(20):
            local = np.random.default_rng(1000 + seed)
            n, k = 2, int(local.choice([1, 2, 3, 5, 8]))
            a = random_contraction(local, n, norm=1.0)
            problem = OdeProblem(matrix_a=a, vec_b=local.normal(size=n),
                                 vec_x0=local.normal(size=n), horizon=1.0)
            prev = local.normal(size=n) + 1j * local.normal(size=n)
            mat, rhs = build_unreduced_pair(problem, make_params(1, k, 1, 1.0, "pade"), prev)
            sol = np.linalg.solve(mat, rhs)
            stacked = sol[: (k + 1) * n].reshape(k + 1, n)       # z_k .. z_0
            forward = sol[(k + 1) * n: (2 * k + 1) * n].reshape(k, n)  # zt_1 .. zt_k
            scale = max(1.0, np.abs(sol).max())
            for j in range(1, k + 1):
                z_j = stacked[k - j]
                zt_j = forward[j - 1]
                assert np.linalg.norm(z_j - (-1.0) ** j * zt_j) <= 1e-12 * scale

    def test_matches_reduced_terminal(self, rng):
        a = random_contraction(rng, 3, norm=0.8)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(3), vec_x0=np.ones(3), horizon=1.0)
        params = make_params(1, 4, 1, 1.0, "pade")
        mat, rhs = build_unreduced_pair(problem, params, problem.vec_x0)
        xhat_unreduced = np.linalg.solve(mat, rhs)[-3:]
        xhat_reduced = solve_dense(build_pade_system(problem, params))[-3:]
        assert np.linalg.norm(xhat_unreduced - xhat_reduced) <= 1e-11


class TestTrajectory:
    def test_pure_integration(self):
        problem = OdeProblem(matrix_a=np.zeros((1, 1)), vec_b=np.ones(1),
                             vec_x0=np.zeros(1), horizon=1.0)
        traj = classical_reference_trajectory(problem, make_params(4, 1, 1, 1.0, "pade"))
        assert traj.states[-1][0] == pytest.approx(1.0, abs=1e-14)

    def test_scalar_decay(self):
        problem = OdeProblem(matrix_a=np.array([[-1.0]]), vec_b=np.zeros(1),
                             vec_x0=np.ones(1), horizon=1.0)
        traj = classical_reference_trajectory(problem, make_params(2, 1, 1, 1.0, "pade"))
        assert traj.terminal_norm == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_step_doubling_oracle(self):
        a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(5), vec_x0=np.ones(5), horizon=30.0)
        coarse = classical_reference_trajectory(problem, make_params(10, 1, 1, 30.0, "pade"))
        fine = classical_reference_trajectory(problem, make_params(20, 1, 1, 30.0, "pade"))
        assert np.linalg.norm(coarse.states[-1] - fine.states[-1]) <= 1e-10

    def test_one_step_recurrence_invariant(self, rng):
        # x((i+1)h) = e^{Ah} x(ih) + (int_0^h e^{As} ds) b, integral by Simpson oracle
        a = random_contraction(rng, 4, norm=1.5)
        b = rng.normal(size=4)
        problem = OdeProblem(matrix_a=a, vec_b=b, vec_x0=rng.normal(size=4), horizon=2.0)
        m = 4
        traj = classical_reference_trajectory(problem, make_params(m, 1, 1, 2.0, "pade"))
        h = 0.5
        grid = np.linspace(0.0, h, 257)
        vals = np.stack([reference_expm(a, s) @ b for s in grid])
        integral = np.zeros(4, dtype=complex)
        for i in range(0, 256, 2):
            integral += (grid[2] - grid[0]) / 6 * (vals[i] + 4 * vals[i + 1] + vals[i + 2])
        prop = reference_expm(a, h)
        for i in range(m):
            want = prop @ traj.states[i] + integral
            assert np.linalg.norm(traj.states[i + 1] - want) <= 1e-10

    def test_degenerate_flag(self):
        problem = OdeProblem(matrix_a=np.array([[-1.0]]), vec_b=np.zeros(1),
                             vec_x0=np.zeros(1), horizon=1.0)
        traj = classical_reference_trajectory(problem, make_params(1, 1, 1, 1.0, "pade"))
        assert traj.degenerate
        with pytest.raises(DegenerateTargetError):
            traj.g(0.0)

    def test_singular_matrix_allowed(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(2), vec_x0=np.ones(2), horizon=1.0)
        traj = classical_reference_trajectory(problem, make_params(2, 1, 1, 1.0, "pade"))
        # closed form: x(t) = [1 + 2t + t^2/2, 1 + t]
        assert np.allclose(traj.states[-1], [3.5, 2.0], atol=1e-12)

    def test_overflow_is_typed(self, capfd):
        # exp(30 * 3) is finite, its repeated products are not
        problem = OdeProblem(matrix_a=np.array([[30.0]]), vec_b=np.zeros(1),
                             vec_x0=np.ones(1), horizon=300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MagnitudeError, match="overflows at step"):
                classical_reference_trajectory(problem, make_params(100, 9, 1, 300.0, "pade"))
        assert capfd.readouterr().err == ""


class TestExternalFormats:
    def test_json_round_trip(self, tmp_path, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=3),
                             vec_x0=rng.normal(size=3), horizon=2.5)
        path = tmp_path / "problem.json"
        save_problem(problem, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"n", "a", "b", "x0", "T"}
        assert {"re", "im"} == set(doc["a"][0][0])
        back = load_problem(path)
        assert np.allclose(back.matrix_a, problem.matrix_a)
        assert back.horizon == problem.horizon

    def test_plain_number_entries_accepted(self):
        doc = {"n": 1, "a": [[-1.0]], "b": [0.5], "x0": [1], "T": 2.0}
        problem = problem_from_json(doc)
        assert problem.matrix_a[0, 0] == -1.0

    def test_coordinate_export(self, tmp_path, rng):
        problem = small_problem(n=2, horizon=1.0, a=random_hermitian_nsd(rng, 2))
        system = build_pade_system(problem, make_params(2, 2, 2, 1.0, "pade"))
        path = tmp_path / "system.txt"
        export_coordinate(system, path)
        lines = path.read_text().splitlines()
        dim, nnz, scheme, n, m, k, p, h = lines[0].split()
        assert (int(dim), scheme) == (system.layout.dim, "pade")
        assert int(nnz) == system.matrix.nnz == len(lines) - 1
        rebuilt = np.zeros((int(dim), int(dim)), dtype=complex)
        for line in lines[1:]:
            r, c, re, im = line.split()
            rebuilt[int(r), int(c)] = float(re) + 1j * float(im)
        assert np.allclose(rebuilt, system.dense(), atol=0)
