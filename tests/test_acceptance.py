"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 3 and 10 check the growth and step-count contrasts against floors
and references derived independently of the package; docs/DECISIONS.md gives
the derivations and why the literal thresholds first written for them
(e^10/sqrt(10) and "taylor m* >= 100") are not what the method promises.
"""

import math
import time

import numpy as np
import pytest

from pade_lab.analysis import (
    extreme_singular_values,
    inverse_norm_bounds,
    kappa_bound,
    propagator_drift,
)
from pade_lab.classical_solver import solve_block_forward
from pade_lab.cli import run_cli
from pade_lab.error_bounds import make_params, padding_rule, select_parameters, theta_max
from pade_lab.circuit_sim import (
    build_l_encoding,
    hermitian_encoding,
    primitive_encodings,
    verify_block_encoding,
    zero_matrix_encoding,
)
from pade_lab.experiments import find_min_order, find_min_steps, random_stable_matrix
from pade_lab.pade_core import OdeProblem
from pade_lab.system_builder import (
    assemble,
    build_pade_system,
    classical_reference_trajectory,
)

import io

from oracles import (
    build_unreduced_pair,
    bundle_from_vector,
    pade_propagator,
    solve_dense,
    step_iterates,
    taylor_inverse_growth,
)

TABULATED_THETA = {5: 1.49, 6: 2.36, 7: 3.34, 8: 4.40, 9: 5.53, 10: 6.69, 11: 7.89,
               12: 9.11, 13: 10.35, 14: 11.61, 15: 12.88, 16: 14.16, 17: 15.45,
               18: 16.74}


def report(number, ok, detail=""):
    print(f"ACCEPTANCE C{number:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def nsd_matrix(rng, n, low=0.05, high=2.0):
    w = -rng.uniform(low, high, size=n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * w) @ q.conj().T


def tridiag_problem():
    a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
    return OdeProblem(matrix_a=a, vec_b=np.ones(5), vec_x0=np.ones(5), horizon=30.0)


def tridiag_min_steps(problem, growth, eps, m_cap=200):
    """Smallest m with rel_error < eps, from the closed-form spectrum alone.

    Both schemes step x_{i+1} - x_ss = f(Ah)(x_i - x_ss) about the steady
    state x_ss = -A^{-1} b, so in the eigenbasis of tridiag(1, -2, 1)
    (lambda_j = -2 + 2 cos(j pi/(n+1)), v_j ~ sin(i j pi/(n+1))) the error at
    T is sum_j (f(lambda_j h)^m - exp(lambda_j T)) c_j v_j.
    """
    n, horizon = problem.dim, problem.horizon
    j = np.arange(1, n + 1)
    lam = -2.0 + 2.0 * np.cos(j * np.pi / (n + 1))
    vecs = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
    assert np.allclose((vecs * lam) @ vecs.T, problem.matrix_a)
    steady = -vecs @ ((vecs.T @ problem.vec_b) / lam)
    coef = vecs.T @ (problem.vec_x0 - steady)
    exact = steady + vecs @ (np.exp(lam * horizon) * coef)
    for m in range(1, m_cap + 1):
        gap = growth(lam * horizon / m) ** m - np.exp(lam * horizon)
        if np.linalg.norm(vecs @ (gap * coef)) / np.linalg.norm(exact) < eps:
            return m
    raise AssertionError(f"no m <= {m_cap} reaches eps={eps}")


def scalar_pade(k):
    """r_k(z) = N(z)/N(-z), n_j = (2k-j)! k! / ((2k)! j! (k-j)!)."""
    f = math.factorial
    num = [f(2 * k - j) * f(k) / (f(2 * k) * f(j) * f(k - j)) for j in range(k + 1)]
    return lambda z: (sum(c * z ** j for j, c in enumerate(num))
                      / sum(c * (-z) ** j for j, c in enumerate(num)))


def scalar_taylor(k):
    """T_k(z) = sum_{j<=k} z^j / j!."""
    return lambda z: sum(z ** j / math.factorial(j) for j in range(k + 1))


def test_c01_theta_table():
    start = time.perf_counter()
    buf = io.StringIO()
    code = run_cli(["theta-table", "--delta", "1e-8", "--kmin", "5", "--kmax", "18"],
                   stdout=buf)
    elapsed = time.perf_counter() - start
    rows = dict(line.split(",") for line in buf.getvalue().strip().splitlines()[1:])
    deviations = {k: abs(float(rows[str(k)]) - want) for k, want in TABULATED_THETA.items()}
    ok = code == 0 and all(d <= 0.01 for d in deviations.values()) and elapsed < 60.0
    assert report(1, ok, f"max dev {max(deviations.values()):.4f}, {elapsed:.1f}s")


def test_c02_one_step_inverse_bound_suite():
    start = time.perf_counter()
    hits = 0
    for sample in range(50):
        rng = np.random.default_rng(20_000 + sample)
        n = int(rng.integers(1, 9))
        k = int(rng.choice([3, 7, 15]))
        a = nsd_matrix(rng, n)
        h = float(rng.uniform(0.0, 50.0)) / max(np.linalg.norm(a, 2), 1e-9)
        rep = inverse_norm_bounds(make_params(1, k, 1, h, "pade"), a, "hermitian_nsd")
        if rep.measured_w_inv <= rep.bound_w_inv:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits == 50 and elapsed < 120.0
    assert report(2, ok, f"{hits}/50 within bound, {elapsed:.1f}s")


def test_c03_growth_contrast():
    a, h, k = np.array([[-10.0]]), 1.0, 9
    taylor_bound, taylor_measured = taylor_inverse_growth(a, h, k)
    rep = inverse_norm_bounds(make_params(1, k, 1, h, "pade"), a, "hermitian_nsd")
    # The first column of the inverse holds (Ah)^j/j!, so Cauchy-Schwarz gives
    # ||M^{-1}|| >= sqrt(sum x^{2j}/(j!)^2) >= T_k(x)/sqrt(k+1) with x = ||Ah||.
    x = float(np.linalg.norm(a * h, 2))
    floor = scalar_taylor(k)(x) / math.sqrt(k + 1)
    ok = taylor_measured >= taylor_bound >= floor and rep.measured_w_inv <= 10.2
    report(3, ok, f"measured {taylor_measured:.1f} >= bound {taylor_bound:.1f} "
                  f">= T_k(x)/sqrt(k+1) {floor:.1f}; "
                  f"rational side {rep.measured_w_inv:.3f} <= 10.2")
    assert taylor_measured >= taylor_bound
    assert taylor_bound >= floor
    assert rep.measured_w_inv <= 10.2


def test_c04_full_system_bound_suite():
    hits = 0
    for sample in range(50):
        rng = np.random.default_rng(30_000 + sample)
        n = int(rng.integers(2, 7))
        k = int(rng.choice([3, 5, 9]))
        a = nsd_matrix(rng, n)
        norm_a = np.linalg.norm(a, 2)
        h = float(rng.uniform(0.2, 0.9)) * theta_max(k, 1e-8) / norm_a
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        drift = propagator_drift(a, h, k, m)
        if not drift.hypothesis_ok:
            continue
        rep = inverse_norm_bounds(make_params(m, k, p, m * h, "pade"), a, "hermitian_nsd")
        kappa = rep.norm_l * rep.norm_l_inv
        if rep.norm_l_inv <= rep.bound_l_inv and kappa <= rep.bound_kappa:
            hits += 1
    ok = hits == 50
    assert report(4, ok, f"{hits}/50 samples within both bounds")


def test_c05_unreduced_sign_parity():
    worst = 0.0
    for sample in range(20):
        rng = np.random.default_rng(40_000 + sample)
        n = int(rng.integers(1, 4))
        k = int(rng.choice([1, 2, 4, 7]))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a /= np.linalg.norm(a, 2)
        problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=n),
                             vec_x0=rng.normal(size=n), horizon=1.0)
        prev = rng.normal(size=n) + 1j * rng.normal(size=n)
        mat, rhs = build_unreduced_pair(problem, make_params(1, k, 1, 1.0, "pade"), prev)
        sol = np.linalg.solve(mat, rhs)
        stacked = sol[: (k + 1) * n].reshape(k + 1, n)
        forward = sol[(k + 1) * n: (2 * k + 1) * n].reshape(k, n)
        scale = max(1.0, float(np.abs(sol).max()))
        for j in range(1, k + 1):
            worst = max(worst, float(
                np.linalg.norm(stacked[k - j] - (-1.0) ** j * forward[j - 1])) / scale)
    ok = worst <= 1e-12
    assert report(5, ok, f"worst parity defect {worst:.2e}")


def test_c06_solver_oracle_equivalence():
    checked = 0
    worst = 0.0
    worst_rec = 0.0
    for scheme in ("pade", "taylor"):
        for kind in ("nsd", "unit"):
            for k in (1, 3, 7):
                for m in (1, 2, 4):
                    for p in (1, 3):
                        for seed in range(3):
                            if checked >= 200:
                                break
                            rng = np.random.default_rng(
                                50_000 + checked * 13 + seed)
                            n = int(rng.integers(2, 5))
                            if kind == "nsd":
                                a = nsd_matrix(rng, n)
                                h = float(rng.uniform(0.1, 1.2))
                            else:
                                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                                a /= np.linalg.norm(a, 2)
                                h = float(rng.uniform(0.1, 1.0))
                            problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=n),
                                                 vec_x0=rng.normal(size=n), horizon=m * h)
                            params = make_params(m, k, p, m * h, scheme)
                            system = assemble(problem, params)
                            got = solve_block_forward(problem, params)
                            want = bundle_from_vector(system, solve_dense(system))
                            scale = max(1.0, float(np.abs(want.z_blocks).max()))
                            worst = max(worst,
                                        float(np.abs(got.z_blocks - want.z_blocks).max()) / scale,
                                        float(np.linalg.norm(got.terminal - want.terminal)) / scale)
                            # terminal block against the propagator recurrence
                            prop = pade_propagator(a, h, k) if scheme == "pade" else None
                            if scheme == "pade":
                                shift = np.linalg.solve(a, problem.vec_b)
                                state = problem.vec_x0.astype(complex)
                                for _ in range(m):
                                    state = prop @ state + (prop - np.eye(n)) @ shift
                                worst_rec = max(worst_rec, float(
                                    np.linalg.norm(got.terminal - state))
                                    / max(1.0, float(np.linalg.norm(state))))
                            checked += 1
    ok = checked == 200 and worst <= 1e-10 and worst_rec <= 1e-10
    assert report(6, ok, f"{checked} instances, worst {worst:.2e}, recurrence {worst_rec:.2e}")


def test_c07_accuracy_chain():
    failures = 0
    for sample in range(20):
        rng = np.random.default_rng(60_000 + sample)
        n = 5
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a /= float(rng.uniform(1.0, 1.3)) * np.linalg.norm(a, 2)  # ||A|| <= 1
        horizon = float(rng.uniform(1.5, 4.0))
        problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=n),
                             vec_x0=rng.normal(size=n), horizon=horizon)
        params = select_parameters(problem, 1e-6, "unit-step")
        bundle = solve_block_forward(problem, params)
        traj = classical_reference_trajectory(problem, params)
        iterates = step_iterates(bundle)
        norm_a = np.linalg.norm(a, 2)
        norm_b = np.linalg.norm(problem.vec_b)
        for i in range(params.steps):
            lhs = np.linalg.norm(iterates[i] - traj.states[i + 1])
            rhs = params.delta * horizon * (
                norm_a * np.linalg.norm(traj.states[i + 1]) + norm_b)
            if lhs > rhs:
                failures += 1
    ok = failures == 0
    assert report(7, ok, f"{failures} step-bound violations over 20 instances")


def test_c08_success_probability_floor():
    hits = 0
    for sample in range(25):
        rng = np.random.default_rng(70_000 + sample)
        n = 4
        a = nsd_matrix(rng, n, low=0.1, high=1.5)
        horizon = 2.0
        m = 4
        h = horizon / m
        p = padding_rule(m, h)
        problem = OdeProblem(matrix_a=a, vec_b=rng.normal(size=n),
                             vec_x0=rng.normal(size=n), horizon=horizon)
        params = make_params(m, 9, p, horizon, "pade")
        bundle = solve_block_forward(problem, params)
        traj = classical_reference_trajectory(problem, params)
        g = traj.g(float(np.linalg.norm(problem.vec_b)))
        if bundle.p_succ >= 1.0 / (70.0 * g * g):
            hits += 1
    ok = hits == 25
    assert report(8, ok, f"{hits}/25 at or above the success floor")


def test_c09_circuit_grid():
    start = time.perf_counter()
    worst_residual = 0.0
    worst_unitarity = 0.0
    cases = 0
    for nq in (0, 1):
        n = 2**nq
        for m in (1, 2):
            for k1 in (2, 4):
                k = k1 - 1
                for kind in ("zero", "hermitian"):
                    if kind == "zero":
                        a = np.zeros((n, n), dtype=complex)
                        enc = zero_matrix_encoding(nq)
                    else:
                        rng = np.random.default_rng(80_000 + cases)
                        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                        a = (raw + raw.conj().T) / 2
                        a /= 1.4 * np.linalg.norm(a, 2)
                        enc = hermitian_encoding(a)
                    problem = OdeProblem(matrix_a=a, vec_b=np.zeros(n),
                                         vec_x0=np.zeros(n), horizon=float(m))
                    params = make_params(m, k, m * k1, float(m), "pade")
                    target = build_pade_system(problem, params).dense()
                    full = build_l_encoding(enc, 1.0, m, k)
                    residual, _ = verify_block_encoding(full, target, 1e-10)
                    worst_residual = max(worst_residual, residual)
                    worst_unitarity = max(worst_unitarity, full.unitarity_defect())
                    for prim in primitive_encodings(k, m).values():
                        worst_unitarity = max(worst_unitarity, prim.unitarity_defect())
                    cases += 1
    elapsed = time.perf_counter() - start
    ok = (cases == 16 and worst_residual <= 1e-10
          and worst_unitarity <= 1e-12 and elapsed < 300.0)
    assert report(9, ok, f"{cases} cases, residual {worst_residual:.2e}, "
                         f"unitarity {worst_unitarity:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_c10_experiment1_reproduction():
    problem = tridiag_problem()
    k = 9
    pade_star = find_min_steps(problem, "pade", k, 1e-10)
    taylor_star = find_min_steps(problem, "taylor", k, 1e-10)

    kappa_ok = True
    worst_margin = np.inf
    norm_a = np.linalg.norm(problem.matrix_a, 2)
    for m in range(1, 121):
        params = make_params(m, k, 1, 30.0, "pade")
        smax, smin = extreme_singular_values(problem, params)
        kappa = smax / smin
        bound = kappa_bound(m, 1, k, norm_a * params.step_size)
        kappa_ok = kappa_ok and kappa <= bound
        worst_margin = min(worst_margin, bound - kappa)

    pade_ref = tridiag_min_steps(problem, scalar_pade(k), 1e-10)
    taylor_ref = tridiag_min_steps(problem, scalar_taylor(k), 1e-10)

    ok = (pade_star <= 20 and pade_star == pade_ref and taylor_star == taylor_ref
          and pade_star < taylor_star and kappa_ok)
    report(10, ok, f"pade m*={pade_star} (<=20, spectral {pade_ref}), "
                   f"taylor m*={taylor_star} (spectral {taylor_ref}), "
                   f"kappa within bound for all m: {kappa_ok} "
                   f"(worst margin bound - kappa {worst_margin:.3e})")
    assert pade_star <= 20
    assert pade_star == pade_ref
    assert taylor_star == taylor_ref
    assert pade_star < taylor_star
    assert kappa_ok, "condition number exceeded the theorem bound somewhere in 1..120"


def test_c11_order_trend():
    ratios = []
    pade_orders = []
    taylor_orders = []
    for seed in range(30):
        a = random_stable_matrix(5, 90_000 + seed)
        a = a / np.linalg.norm(a, 2)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(5), vec_x0=np.ones(5), horizon=1.0)
        pade_orders.append(find_min_order(problem, "pade", 1e-10))
        taylor_orders.append(find_min_order(problem, "taylor", 1e-10))
    mean_pade = float(np.mean(pade_orders))
    mean_taylor = float(np.mean(taylor_orders))
    ok = mean_pade <= 0.65 * mean_taylor
    assert report(11, ok, f"mean k*: pade {mean_pade:.2f}, taylor {mean_taylor:.2f}, "
                          f"ratio {mean_pade / mean_taylor:.3f} (<= 0.65)")
