import math
import types
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pade_lab import error_bounds
from pade_lab.errors import (
    AssumptionViolationError,
    BoundsError,
    ConsistencyError,
    DivergenceError,
    InfeasibilityError,
    StrategyError,
)
from pade_lab.error_bounds import (
    MAX_TRUNCATION,
    _exact_remainder_series,
    min_order,
    padding_rule,
    remainder_bound,
    remainder_coeffs,
    select_parameters,
    theta_max,
)
from pade_lab.pade_core import OdeProblem, pade_coefficients, reference_expm

from conftest import random_contraction, random_hermitian_nsd
from oracles import pade_propagator, remainder_product_series, step_iterates

TABULATED_THETA = {5: 1.49, 6: 2.36, 7: 3.34, 8: 4.40, 9: 5.53, 10: 6.69, 11: 7.89,
               12: 9.11, 13: 10.35, 14: 11.61, 15: 12.88, 16: 14.16, 17: 15.45,
               18: 16.74}


def remainder_series_oracle(k, top):
    """Independent route: geometric expansion of 1/D times exp and numerator."""
    den = [Fraction(factorial(2 * k - j) * factorial(k),
                    factorial(2 * k) * factorial(j) * factorial(k - j)) * (-1) ** j
           for j in range(k + 1)]
    num = [abs(d) for d in den]
    # invert D by Neumann series: D = 1 + E, 1/D = sum (-E)^i
    inv = [Fraction(0)] * (top + 1)
    inv[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * top   # (-E)^i accumulated
    for _ in range(top):
        nxt = [Fraction(0)] * (top + 1)
        for a in range(top + 1):
            if power[a] == 0:
                continue
            for b in range(1, min(k, top - a) + 1):
                nxt[a + b] -= power[a] * den[b]
        power = nxt
        for j in range(top + 1):
            inv[j] += power[j]
        if all(c == 0 for c in power):
            break

    def mul(x, y):
        out = [Fraction(0)] * (top + 1)
        for a in range(top + 1):
            if x[a] == 0:
                continue
            for b in range(top + 1 - a):
                out[a + b] += x[a] * y[b]
        return out

    expo = [Fraction((-1) ** j, factorial(j)) for j in range(top + 1)]
    num_padded = num + [Fraction(0)] * (top - k)
    series = mul(mul(expo, num_padded), inv)
    series[0] -= 1
    return series


def remainder_recursion_oracle(k, top):
    """The term-by-term Fraction recursion for exp(-x) N(x) / D(x) - 1."""
    coeffs = pade_coefficients(k, k)
    num = coeffs.num_coeffs
    den = [d * (-1) ** j for j, d in enumerate(coeffs.den_coeffs)]
    expo = [Fraction((-1) ** j, factorial(j)) for j in range(top + 1)]
    quot = []
    for j in range(top + 1):
        low = min(j, k)
        quot.append(sum(num[i] * expo[j - i] for i in range(low + 1))
                    - sum(den[i] * quot[j - i] for i in range(1, low + 1)))
    quot[0] -= 1
    return quot


class TestRemainderCoeffs:
    def test_k1_c3(self):
        oracle = remainder_series_oracle(1, 6)
        assert oracle[3] == Fraction(1, 12)
        model = remainder_coeffs(1, 6)
        assert model.coeffs[3] == pytest.approx(1 / 12, rel=1e-15)

    def test_k1_zero_prefix(self):
        model = remainder_coeffs(1, 4)
        assert model.coeffs[1] == 0.0 and model.coeffs[2] == 0.0

    def test_k0_exp_series(self):
        model = remainder_coeffs(0, 3)
        assert model.coeffs[1] == pytest.approx(1.0)  # |c_1| of exp(-x) - 1

    def test_matches_independent_oracle(self):
        for k in (2, 3):
            top = 2 * k + 8
            oracle = remainder_series_oracle(k, top)
            model = remainder_coeffs(k, top)
            for j in range(top + 1):
                assert model.coeffs[j] == pytest.approx(abs(float(oracle[j])), abs=1e-18)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_leading_index_shift(self, k):
        lo = remainder_coeffs(k, 2 * k + 6)
        hi = remainder_coeffs(k + 1, 2 * k + 8)
        assert lo.coeffs[2 * k + 1] != 0.0
        assert np.all(lo.coeffs[: 2 * k + 1] == 0.0)
        assert np.all(hi.coeffs[: 2 * k + 3] == 0.0)
        assert hi.coeffs[2 * k + 3] != 0.0

    @pytest.mark.parametrize("k", range(1, 65))
    def test_common_denominator_sum_is_exact(self, k):
        # the truncation of the cached theta model
        top = max(4 * k + 20, 2 * k + 60)
        assert _exact_remainder_series(k, top) == remainder_recursion_oracle(k, top)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_common_denominator_sum_is_exact_to_max_truncation(self, k):
        oracle = remainder_recursion_oracle(k, MAX_TRUNCATION)
        for top in (2 * k + 1, 97, MAX_TRUNCATION):
            assert _exact_remainder_series(k, top) == oracle[:top + 1]

    @pytest.mark.parametrize("k", range(0, 65))
    def test_remainder_integral_matches_the_product_recurrence(self, k):
        top = max(4 * k + 20, 2 * k + 60)
        assert _exact_remainder_series(k, top) == remainder_product_series(k, top)

    def test_missed_order_condition_is_typed(self, monkeypatch):
        # the series starts from the remainder integral, which holds only for
        # the Padé coefficients: a denominator one unit off in d_2 is caught
        # by the exact order conditions, not passed on as a wrong series
        coeffs = pade_coefficients(5, 5)
        wrong = coeffs.den_coeffs[:2] + (coeffs.den_coeffs[2] + 1,) + coeffs.den_coeffs[3:]
        monkeypatch.setattr(error_bounds.pade_core, "pade_coefficients",
                            lambda p, q: types.SimpleNamespace(num_coeffs=coeffs.num_coeffs,
                                                               den_coeffs=wrong))
        with pytest.raises(ConsistencyError, match="order condition at x\\^2$"):
            remainder_coeffs(5, 30)

    def test_bounds_errors(self):
        with pytest.raises(BoundsError):
            remainder_coeffs(3, 6)
        with pytest.raises(BoundsError):
            remainder_coeffs(3, 600)


class TestRemainderBound:
    def test_zero(self):
        assert remainder_bound(remainder_coeffs(2, 20), 0.0) == 0.0

    def test_k1_leading_order(self):
        model = remainder_coeffs(1, 62)
        got = remainder_bound(model, 0.1)
        assert got >= (1 / 12) * 1e-3
        assert got == pytest.approx((1 / 12) * 1e-3, abs=2e-7)

    def test_monotone(self):
        model = remainder_coeffs(4, 36)
        grid = np.linspace(0.0, 2.0, 21)
        vals = [remainder_bound(model, t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_divergence(self):
        model = remainder_coeffs(2, 20)
        with pytest.raises(DivergenceError):
            remainder_bound(model, model.radius_estimate * 1.01)


class TestThetaMax:
    @pytest.mark.parametrize("k", [5, 9, 18])
    def test_tabulated_values(self, k):
        assert theta_max(k, 1e-8) == pytest.approx(TABULATED_THETA[k], abs=0.01)

    def test_k9_sits_at_equality(self):
        k, delta = 9, 1e-8
        theta = theta_max(k, delta)
        model = remainder_coeffs(k, max(4 * k + 20, 2 * k + 60))
        target = delta / (math.e - 1)
        assert remainder_bound(model, theta) / theta <= target
        assert remainder_bound(model, theta + 0.02) / (theta + 0.02) > target

    def test_monotone_in_order(self):
        vals = [theta_max(k, 1e-8) for k in range(5, 19)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_orders_are_quiet(self):
        # the exact head theta^j overflows for k >= 45 near the bracket end:
        # remainder_bound returns inf there, without numpy's warnings
        vals = [theta_max(k, 1e-8) for k in range(45, 65)]
        assert all(0.0 < v < math.inf for v in vals)
        model = remainder_coeffs(64, max(4 * 64 + 20, 2 * 64 + 60))
        assert 13.5 < model.radius_estimate
        assert remainder_bound(model, 13.5) == math.inf

    def test_infeasible_order(self):
        # at order 0 the ratio tends to |c_1| = 1, never below a small target
        with pytest.raises(InfeasibilityError):
            theta_max(0, 1e-8)
        with pytest.raises(BoundsError):
            theta_max(5, -1.0)

    def test_memoized_per_order_and_delta(self):
        cache = error_bounds._bisect_theta
        cache.cache_clear()
        cold = theta_max(7, 1e-8)
        assert cache.cache_info().misses == 1
        assert theta_max(7, 1e-8) == cold
        assert theta_max(np.int64(7), np.float64(1e-8)) == cold
        assert cache.cache_info().hits == 2
        assert theta_max(7, 1e-6) > cold

    def test_invalid_input_raises_on_every_call(self):
        cache = error_bounds._bisect_theta
        cache.cache_clear()
        for _ in range(3):
            with pytest.raises(InfeasibilityError):
                theta_max(0, 1e-8)
            with pytest.raises(BoundsError):
                theta_max(5, -1.0)
            with pytest.raises(BoundsError):
                theta_max(5, math.nan)
        assert cache.cache_info().currsize == 0


class TestMinOrder:
    @staticmethod
    def order_oracle(delta):
        k = 1
        while Fraction(factorial(k) ** 2, factorial(2 * k) * factorial(2 * k + 1)) \
                > Fraction(delta) / 100:
            k += 1
        return k

    def test_1e8(self):
        assert min_order(1e-8) == 5 == self.order_oracle(1e-8)
        r4 = factorial(4) ** 2 / (factorial(8) * factorial(9))
        assert r4 == pytest.approx(3.936e-8, rel=1e-3)  # k=4 misses the cut

    def test_loose(self):
        assert min_order(100.0) == 1

    def test_1e16(self):
        # exact-rational oracle; the tabulated spec example (7) is off by one
        assert self.order_oracle(1e-16) == 8
        assert min_order(1e-16) == 8

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_bad_delta_is_typed(self, delta):
        # Fraction(inf) raised OverflowError, Fraction(nan) ValueError
        with pytest.raises(BoundsError, match="positive and finite"):
            min_order(delta)


class TestSelectParameters:
    @staticmethod
    def tridiag_problem():
        a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
        return OdeProblem(matrix_a=a, vec_b=np.ones(5), vec_x0=np.ones(5), horizon=30.0)

    def test_unit_step_m(self):
        # eigenvalues -2 + 2 cos(j pi / 6): norm = 2 + 2 cos(pi/6)
        evs = np.linalg.eigvalsh(self.tridiag_problem().matrix_a)
        norm = max(abs(evs))
        assert norm == pytest.approx(2 + 2 * math.cos(math.pi / 6), abs=1e-12)
        params = select_parameters(self.tridiag_problem(), 1e-8, "unit-step")
        assert params.steps == 112 == math.ceil(norm * 30)

    def test_order_formula(self):
        problem = self.tridiag_problem()
        params = select_parameters(problem, 1e-8, "unit-step")
        from pade_lab.system_builder import classical_reference_trajectory

        traj = classical_reference_trajectory(problem, params)
        norm_a = np.linalg.norm(problem.matrix_a, 2)
        big_m = 401 * 30 / 1e-8 * (norm_a + np.linalg.norm(problem.vec_b) / traj.terminal_norm)
        assert params.order == math.ceil(math.log(big_m) / math.log(math.log(big_m)))
        # frozen instance of the formula: M = 1e10 gives ceil(23.03/3.137) = 8
        assert math.ceil(math.log(1e10) / math.log(math.log(1e10))) == 8

    def test_padding_rule(self):
        assert padding_rule(10, 3.0) == 600

    def test_delta_interval(self):
        params = select_parameters(self.tridiag_problem(), 1e-8, "unit-step")
        assert 0 < params.delta < 1.0 / params.steps

    def test_fixed_order(self, rng):
        a = random_hermitian_nsd(rng, 4, scale=2.0)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(4), vec_x0=np.ones(4), horizon=20.0)
        params = select_parameters(problem, 1e-8, "fixed-order", order=9)
        theta = theta_max(9, params.delta)
        norm_at = np.linalg.norm(a, 2) * 20.0
        assert np.linalg.norm(a * params.step_size, 2) <= theta + 1e-12
        if params.steps > 1:
            assert norm_at / (params.steps - 1) > theta

    def test_errors(self):
        tiny = OdeProblem(matrix_a=-0.01 * np.eye(2), vec_b=np.ones(2),
                          vec_x0=np.ones(2), horizon=1.0)
        with pytest.raises(AssumptionViolationError):
            select_parameters(tiny, 1e-8, "unit-step")
        prob = self.tridiag_problem()
        with pytest.raises(AssumptionViolationError):
            select_parameters(prob, 0.7, "unit-step")
        skew = OdeProblem(matrix_a=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                          vec_b=np.ones(2), vec_x0=np.ones(2), horizon=5.0)
        with pytest.raises(StrategyError):
            select_parameters(skew, 1e-8, "fixed-order", order=7)


class TestChains:
    def test_cond_high_chain(self, rng):
        # measured ||exp(-Ah) R - I|| <= f_k(||Ah||) <= ||Ah|| delta/(e-1)
        delta = 1e-8
        for k in (5, 9):
            theta_k = theta_max(k, delta)
            model = remainder_coeffs(k, max(4 * k + 20, 2 * k + 60))
            for seed in range(4):
                local = np.random.default_rng(seed)
                a = random_hermitian_nsd(local, 6)
                h = 0.95 * theta_k / np.linalg.norm(a, 2)
                nah = float(np.linalg.norm(a * h, 2))
                gmat = reference_expm(a, -h) @ pade_propagator(a, h, k) - np.eye(6)
                measured = np.linalg.norm(gmat, 2)
                fk = remainder_bound(model, nah)
                # the extreme eigenvalue saturates f_k exactly, so leave room
                # for float noise of the exp(+theta)-sized intermediate products
                assert measured <= fk * (1 + 1e-6) + 1e-13
                assert fk <= nah * delta / (math.e - 1)

    def test_lemma_drift_form(self):
        # with m = ceil(||A T||) and k from the order rule, drift <= delta ||A T||
        from pade_lab.analysis import propagator_drift

        delta = 1e-6
        k = min_order(delta)
        for seed in range(5):
            local = np.random.default_rng(40 + seed)
            a = random_contraction(local, 6, norm=1.0)
            horizon = 3.0
            norm_at = np.linalg.norm(a, 2) * horizon
            m = math.ceil(norm_at)
            assert delta < 1.0 / m
            report = propagator_drift(a, horizon / m, k, m)
            assert report.drift_max <= delta * norm_at

    def test_fixed_order_terminal_accuracy(self):
        # the per-step accuracy inequality also holds with the reduced
        # fixed-order step count on Hermitian negative semi-definite input
        from pade_lab.classical_solver import solve_block_forward
        from pade_lab.system_builder import classical_reference_trajectory

        for seed in range(4):
            local = np.random.default_rng(80 + seed)
            a = random_hermitian_nsd(local, 5, scale=2.0)
            problem = OdeProblem(matrix_a=a, vec_b=local.normal(size=5),
                                 vec_x0=local.normal(size=5), horizon=12.0)
            params = select_parameters(problem, 1e-6, "fixed-order", order=9)
            assert params.steps <= math.ceil(np.linalg.norm(a, 2) * 12.0)
            bundle = solve_block_forward(problem, params)
            traj = classical_reference_trajectory(problem, params)
            iterates = step_iterates(bundle)
            norm_a = np.linalg.norm(a, 2)
            norm_b = np.linalg.norm(problem.vec_b)
            for i in range(params.steps):
                lhs = np.linalg.norm(iterates[i] - traj.states[i + 1])
                rhs = params.delta * 12.0 * (
                    norm_a * np.linalg.norm(traj.states[i + 1]) + norm_b)
                assert lhs <= rhs
