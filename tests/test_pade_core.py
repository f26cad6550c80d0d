import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from pade_lab.errors import MagnitudeError, OrderRangeError, ShapeError, SingularDenominatorError
from pade_lab.pade_core import (
    OdeProblem,
    is_hermitian,
    pade_coefficients,
    reference_expm,
)

from conftest import random_hermitian_nsd
from oracles import eval_pade_parts, pade_propagator


def exact_coefficient(p, q, j, which):
    """Independent factorial-formula oracle."""
    if which == "num":
        return Fraction(factorial(p + q - j) * factorial(p),
                        factorial(p + q) * factorial(j) * factorial(p - j))
    return Fraction(factorial(p + q - j) * factorial(q),
                    factorial(p + q) * factorial(j) * factorial(q - j))


class TestCoefficients:
    def test_order_1_1(self):
        c = pade_coefficients(1, 1)
        assert c.den_coeffs == (Fraction(1), Fraction(1, 2))
        assert c.num_coeffs == (Fraction(1), Fraction(1, 2))

    def test_order_0_0(self):
        c = pade_coefficients(0, 0)
        assert c.num_coeffs == (Fraction(1),)
        assert c.den_coeffs == (Fraction(1),)

    def test_order_2_2_derived(self):
        want = tuple(exact_coefficient(2, 2, j, "den") for j in range(3))
        assert want == (Fraction(1), Fraction(1, 2), Fraction(1, 12))
        assert pade_coefficients(2, 2).den_coeffs == want

    @pytest.mark.parametrize("p,q", [(-1, 1), (1, 65), (70, 2)])
    def test_order_range(self, p, q):
        with pytest.raises(OrderRangeError):
            pade_coefficients(p, q)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_beta_closed_form_equal_orders(self, k):
        # beta_{j+1} = (k-j)/((j+1)(2k-j)) exactly when both orders equal k
        c = pade_coefficients(k, k)
        for j in range(k):
            assert c.ratio_beta[j] == Fraction(k - j, (j + 1) * (2 * k - j))
        assert c.ratio_alpha == c.ratio_beta

    def test_denominator_at_minus_one_below_sqrt_e(self):
        for k in range(1, 65):
            total = sum(pade_coefficients(k, k).den_coeffs)
            assert float(total) <= math.sqrt(math.e)

    def test_float_arrays_are_built_once_and_read_only(self):
        c = pade_coefficients(7, 7)
        for name, exact in (("num_floats", c.num_coeffs), ("den_floats", c.den_coeffs),
                            ("beta_floats", c.ratio_beta)):
            values = getattr(c, name)
            assert values is getattr(pade_coefficients(7, 7), name)
            assert values.tolist() == [float(v) for v in exact]
            with pytest.raises(ValueError):
                values[0] = 2.0

    def test_ratios_match_factorial_formula(self):
        for p, q in [(3, 5), (8, 8), (13, 2)]:
            c = pade_coefficients(p, q)
            for j in range(p + 1):
                assert c.num_coeffs[j] == exact_coefficient(p, q, j, "num")
            for j in range(q + 1):
                assert c.den_coeffs[j] == exact_coefficient(p, q, j, "den")


class TestEvalParts:
    def test_zero_matrix(self):
        num, den = eval_pade_parts(np.zeros((3, 3)), pade_coefficients(4, 4))
        assert np.array_equal(num, np.eye(3))
        assert np.array_equal(den, np.eye(3))

    def test_scalar_minus_one_k1(self):
        num, den = eval_pade_parts(np.array([[-1.0]]), pade_coefficients(1, 1))
        assert num[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert den[0, 0] == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 9, 20])
    def test_denominator_at_minus_one(self, k):
        coeffs = pade_coefficients(k, k)
        _, den = eval_pade_parts(np.array([[-1.0]]), coeffs)
        assert den[0, 0] <= math.sqrt(math.e) + 1e-15
        assert den[0, 0] == pytest.approx(float(sum(coeffs.den_coeffs)), rel=1e-14)

    def test_nilpotent_exact(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = pade_coefficients(3, 3)
        num, den = eval_pade_parts(x, c)
        assert np.array_equal(num, np.eye(2) + float(c.num_coeffs[1]) * x)
        assert np.array_equal(den, np.eye(2) - float(c.den_coeffs[1]) * x)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            eval_pade_parts(np.zeros((2, 3)), pade_coefficients(1, 1))


class TestPropagator:
    def test_zero_matrix(self):
        for k in (1, 5):
            assert np.allclose(pade_propagator(np.zeros((4, 4)), 0.7, k), np.eye(4),
                               atol=1e-15)

    def test_scalar_formula(self):
        r = pade_propagator(np.array([[-1.0]]), 1.0, 1)
        assert r[0, 0] == pytest.approx((1 - 0.5) / (1 + 0.5), abs=1e-15)

    def test_against_reference_expm(self):
        a = np.diag([-1.0, -2.0])
        r = pade_propagator(a, 0.1, 9)
        e = reference_expm(a, 0.1)
        assert np.abs(r - e).max() <= 1e-14

    def test_commuting_factorization(self, rng):
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a /= np.linalg.norm(a, 2)
            num, den = eval_pade_parts(a * 0.8, pade_coefficients(6, 6))
            left = np.linalg.solve(den, num)
            right = num @ np.linalg.inv(den)
            assert np.linalg.norm(left - right, 2) <= 1e-12
            assert np.linalg.norm(pade_propagator(a, 0.8, 6) - left, 2) <= 1e-12

    def test_singular_denominator(self):
        # order 1 denominator 1 - x/2 vanishes at A h = 2
        with pytest.raises(SingularDenominatorError):
            pade_propagator(np.array([[2.0]]), 1.0, 1)
        with pytest.raises(SingularDenominatorError):
            pade_propagator(np.array([[2.0, 1.0], [0.0, 0.5]]), 1.0, 1)

    def test_well_conditioned_denominator_is_accepted(self):
        # Hermitian A h with spectrum -33.9, -29.2, -21.2, -1.25 at k = 15:
        # cond(D) is about 1.6e5 and the backward error about 1e-17, but N(A h)
        # is so small beside ||D|| ||R|| that a residual gate of 1e-12 ||N||
        # called D singular
        lam = np.array([-33.9, -29.2, -21.2, -1.25])
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        a = (q * lam) @ q.conj().T
        c = pade_coefficients(15, 15)
        num, den = eval_pade_parts(a, c)
        assert np.linalg.cond(den) == pytest.approx(1.6e5, rel=0.05)
        r = pade_propagator(a, 1.0, 15)
        assert np.linalg.norm(num - den @ r, 2) > 1e-12 * np.linalg.norm(num, 2)
        scalar = np.polyval(c.num_floats[::-1], lam) / np.polyval(c.den_floats[::-1], -lam)
        want = (q * scalar) @ q.conj().T
        assert np.linalg.norm(r - want, 2) <= 1e-9 * np.linalg.norm(want, 2)


class TestReferenceExpm:
    def test_zero(self):
        assert np.array_equal(reference_expm(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_nilpotent(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(reference_expm(a, 1.0), [[1, 1], [0, 1]], atol=1e-15)

    def test_scalar(self):
        assert reference_expm(np.array([[-1.0]]), 1.0)[0, 0] == pytest.approx(
            0.3678794412, abs=1e-10)

    def test_self_consistency(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        full = reference_expm(a, 1.0)
        half = reference_expm(a, 0.5)
        assert np.linalg.norm(full - half @ half, 2) <= 1e-12 * np.linalg.norm(full, 2)

    def test_against_scipy(self, rng):
        for n in (3, 6):
            a = rng.normal(size=(n, n))
            want = sla.expm(a * 1.3)
            got = reference_expm(a, 1.3)
            assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)

    def test_hermitian_branch_matches_series_branch(self, rng):
        a = random_hermitian_nsd(rng, 4, scale=3.0)
        # (q w) q^H rounds its two triangles apart; only an exactly Hermitian
        # matrix takes the eigendecomposition
        a = (a + a.conj().T) / 2
        assert np.array_equal(a, a.conj().T)
        got = reference_expm(a, 2.0)
        # force the series path by adding an invisible non-Hermitian epsilon
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 1e-9
        series = reference_expm(a + skew, 2.0)
        assert np.linalg.norm(got - series, 2) <= 1e-8

    def test_tiny_b_column_is_kept(self):
        # the augmented generator [[A, b], [0, 0]] of a trajectory, with b
        # within HERMITIAN_TOL of the zero row below it: an eigendecomposition
        # reads one triangle and would drop b, which carries all of x(T) once
        # x0 has decayed
        aug = np.array([[-2.905684, 1e-160], [0.0, 0.0]], dtype=complex)
        assert is_hermitian(aug)
        got, want = reference_expm(aug, 3.0), sla.expm(aug * 3.0)
        assert want[0, 1].real == pytest.approx(3.441e-161, rel=1e-3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_overflow(self):
        with pytest.raises(MagnitudeError):
            reference_expm(np.array([[1000.0]]), 1.0)
        with pytest.raises(MagnitudeError):
            reference_expm(np.array([[900.0, 1.0], [0.0, 899.0]]), 1.0)


class TestOdeProblem:
    def test_validation(self):
        with pytest.raises(ShapeError):
            OdeProblem(matrix_a=np.zeros((2, 3)), vec_b=np.zeros(2), vec_x0=np.zeros(2),
                       horizon=1.0)
        with pytest.raises(ShapeError):
            OdeProblem(matrix_a=np.zeros((2, 2)), vec_b=np.zeros(3), vec_x0=np.zeros(2),
                       horizon=1.0)
        with pytest.raises(ShapeError):
            OdeProblem(matrix_a=np.zeros((2, 2)), vec_b=np.zeros(2), vec_x0=np.zeros(2),
                       horizon=-1.0)

    def test_dim(self):
        p = OdeProblem(matrix_a=-np.eye(3), vec_b=np.ones(3), vec_x0=np.ones(3), horizon=2.0)
        assert p.dim == 3


def test_propagator_error_within_remainder_bound(rng):
    # pade vs oracle stays below f_k(||A h||) on Hermitian NSD inputs
    from pade_lab.error_bounds import remainder_bound, remainder_coeffs, theta_max

    for k in (5, 9, 13, 20):
        theta_k = theta_max(k, 1e-8)
        model = remainder_coeffs(k, max(4 * k + 20, 2 * k + 60))
        for seed in range(3):
            local = np.random.default_rng(100 * k + seed)
            a = random_hermitian_nsd(local, 5, scale=1.0)
            h = 0.9 * theta_k / np.linalg.norm(a, 2)
            gap = np.linalg.norm(
                pade_propagator(a, h, k) - reference_expm(a, h), 2)
            assert gap <= remainder_bound(model, float(np.linalg.norm(a * h, 2))) + 1e-15
