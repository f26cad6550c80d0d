import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pade_lab import system_builder
from pade_lab.analysis import (
    SLICE_DENSE_CAP,
    _block_singular_values,
    _diagonal_blocks,
    _gram_band,
    _largest_singular_value,
    _normal_spectrum,
    _one_step_norms,
    condition_report,
    extreme_singular_values,
    inverse_norm_bounds,
    propagator_drift,
    w_inverse_bound,
)
from pade_lab.errors import (
    ClassificationError,
    ConsistencyError,
    ConvergenceError,
    MagnitudeError,
    SingularBlockError,
    SingularDenominatorError,
    SizeError,
)
from pade_lab.error_bounds import make_params, theta_max
from pade_lab.experiments import random_stable_matrix
from pade_lab.pade_core import (
    OdeProblem,
    eval_pade_parts,
    pade_coefficients,
    pade_propagator,
    reference_expm,
)
from pade_lab.system_builder import (
    SCHEMES,
    BlockLayout,
    alternating_signs,
    build_pade_system,
    build_taylor_system,
    csr_systems,
)

from conftest import random_contraction, random_hermitian_nsd
from oracles import explicit_w_inverse, taylor_inverse_growth


def _tridiag_problem(seed=0):
    """tridiag(1, -2, 1) of size 5 over T = 30; seed s > 0 conjugates it by the
    seeded random unitary of the condition-sweep benchmark."""
    a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
    b = np.ones(5, dtype=complex)
    x0 = np.ones(5, dtype=complex)
    if seed:
        rng = np.random.default_rng([1, seed])
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        a, b, x0 = q @ a @ q.conj().T, q @ b, q @ x0
    return OdeProblem(matrix_a=a, vec_b=b, vec_x0=x0, horizon=30.0)


def _taylor_floor(m):
    """max_i |T_9(lam_i h)|^m over the closed-form spectrum -2 + 2 cos(j pi / 6)
    of tridiag(1, -2, 1), h = 30 / m.  The last block row of L^-1 holds the
    propagator T_9(A h)^m, so 1/sigma_min of the Taylor system is at least this."""
    h = 30.0 / m
    return max(abs(sum((lam * h) ** j / math.factorial(j) for j in range(10))) ** m
               for lam in (-2.0 + 2.0 * math.cos(j * math.pi / 6) for j in range(1, 6)))


_BUILD = {"pade": build_pade_system, "taylor": build_taylor_system}

#: kappa of the seed-0 condition-sweep systems by dense SVD, committed with the
#: benchmark (read only)
_SWEEP_REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs"
                          / "condition_sweep.json").read_text())["kappa"]


def _non_normal_problem():
    a = random_stable_matrix(4, 7)
    return OdeProblem(matrix_a=a, vec_b=np.ones(4), vec_x0=np.ones(4), horizon=5.0)


def _assert_dense_oracle(got, dense):
    """sigma_max against the dense SVD of L, sigma_min against 1/||L^-1||_2."""
    smax, smin = got
    assert smax == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0], rel=1e-10, abs=0.0)
    assert smin == pytest.approx(1.0 / np.linalg.norm(np.linalg.inv(dense), 2),
                                 rel=1e-10, abs=0.0)


class TestSpectralNorm:
    def test_extreme_singular_values_oracle(self):
        # a non-normal A is one block, L itself; at m = 3 (dimension 124) it
        # is measured by dense LAPACK
        problem = _non_normal_problem()
        for scheme in ("pade", "taylor"):
            params = make_params(3, 9, 1, 5.0, scheme)
            dense = _BUILD[scheme](problem, params).dense()
            assert dense.shape[0] <= SLICE_DENSE_CAP
            _assert_dense_oracle(extreme_singular_values(problem, params), dense)

    def test_extreme_singular_values_lanczos(self, rng):
        a = random_hermitian_nsd(rng, 2)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(2), vec_x0=np.ones(2), horizon=8.0)
        params = make_params(32, 9, 4, 8.0, "pade")
        system = build_pade_system(problem, params)
        assert system.layout.block_rows > SLICE_DENSE_CAP
        smax, smin = extreme_singular_values(problem, params)
        svals = np.linalg.svd(system.dense(), compute_uv=False)
        assert smax == pytest.approx(svals[0], rel=1e-8)
        assert smin == pytest.approx(svals[-1], rel=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slices_match_operator_path_on_sweep_grid(self, seed):
        # the dense-SVD kappa of the seed-0 operator is the oracle; seeds 1
        # and 2 are unitary similarities of it, with the same singular values
        problem = _tridiag_problem(seed)
        for scheme in ("pade", "taylor"):
            for m in (5, 12, 19, 33, 47, 58, 65, 117):
                ref = _SWEEP_REFS[scheme][str(m)]
                if ref >= 1e12:
                    continue
                got_max, got_min = extreme_singular_values(problem, make_params(m, 9, 1, 30.0,
                                                                                scheme))
                assert got_max / got_min == pytest.approx(ref, rel=1e-8), (scheme, m)

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    @pytest.mark.parametrize("m", [3, 14])
    def test_normal_complex_spectrum_matches_dense_svd(self, rng, scheme, m):
        # a unitary similarity of a complex diagonal: normal, not Hermitian;
        # m = 14 takes the Lanczos path on complex slices
        lam = np.array([-1.0 + 2.0j, -0.5 - 1.0j, -2.0 + 0.3j])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        a = (q * lam) @ q.conj().T
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(3), vec_x0=np.ones(3), horizon=2.0)
        params = make_params(m, 9, 1, 2.0, scheme)
        system = _BUILD[scheme](problem, params)
        assert (system.layout.block_rows > SLICE_DENSE_CAP) == (m == 14)
        smax, smin = extreme_singular_values(problem, params)
        svals = np.linalg.svd(system.dense(), compute_uv=False)
        assert smax == pytest.approx(svals[0], rel=1e-10)
        assert smin == pytest.approx(svals[-1], rel=1e-8)

    @pytest.mark.parametrize("m", [4, 16, pytest.param(40, marks=pytest.mark.slow)])
    def test_non_normal_takes_the_operator_path(self, m):
        # the one block of a non-normal A is L itself, above the dense cap
        # measured by Lanczos on L^H L and on the block substitution of L^-1;
        # m = 40 has dimension 1604
        problem = _non_normal_problem()
        for scheme in ("pade", "taylor"):
            params = make_params(m, 9, 1, 5.0, scheme)
            dense = _BUILD[scheme](problem, params).dense()
            assert dense.shape[0] > SLICE_DENSE_CAP
            _assert_dense_oracle(extreme_singular_values(problem, params), dense)

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    @pytest.mark.parametrize("m", [3, 5, 14])
    def test_eigenvalue_blocks_match_one_block(self, rng, scheme, m):
        # a normal A measured on its eigenvalues and as the one block A: both
        # dense at m = 3, the one block (dimension 153) by Lanczos at m = 5,
        # both by Lanczos at m = 14
        h = 2.0 / m
        lay = BlockLayout(3, m, 9, 1, h)
        assert (lay.block_rows > SLICE_DENSE_CAP, lay.dim > SLICE_DENSE_CAP) == (m == 14, m > 3)
        rec = SCHEMES[scheme](9)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        # real spectra whose largest |lam| sits at either end of the order
        for lam in (-rng.uniform(0.0, 2.0, 3) + 2j * rng.normal(size=3),
                    np.array([-1.7, -0.3, 0.5]), np.array([-0.5, 0.3, 1.7])):
            a = (q * lam) @ q.conj().T
            blocks, real = _diagonal_blocks(a, _normal_spectrum(a))
            assert blocks.shape == (3, 1, 1) and real == np.isrealobj(lam)
            smax, smin = _block_singular_values(rec, lay, a[None], False)
            assert smax / smin < 1e8
            assert _block_singular_values(rec, lay, blocks, real) == pytest.approx(
                (smax, smin), rel=1e-10, abs=0.0)
            assert _one_step_norms(rec, blocks * h) == pytest.approx(
                _one_step_norms(rec, a[None] * h), rel=1e-10, abs=0.0)

    def test_taylor_floor_at_m5(self):
        # dim 255: a dense SVD of L, whose last singular value floors at
        # eps sigma_max, gave 1/sigma_min = 1.07e17
        problem = _tridiag_problem()
        params = make_params(5, 9, 1, 30.0, "taylor")
        assert build_taylor_system(problem, params).layout.dim == 255
        _, smin = extreme_singular_values(problem, params)
        floor = _taylor_floor(5)
        assert floor > 1e32
        assert 1.0 / smin >= floor

    def test_exactly_singular_lu_is_typed(self):
        # T = 30 over 12 Taylor steps of tridiag(1, -2, 1): the 121-dimensional
        # slices are unit lower triangular, so det L = 1 and sigma_min is finite
        problem = _tridiag_problem()
        params = make_params(12, 9, 1, 30.0, "taylor")
        _, smin = extreme_singular_values(problem, params)
        floor = _taylor_floor(12)
        assert floor > 1e34
        assert 1.0 / smin >= floor
        # the [1/1] Padé step 1 - x/2 vanishes at the eigenvalue 2 of the
        # non-normal A h: its one block takes the Lanczos branch, where the
        # solver's LU of the step block types it
        m = 40
        problem = OdeProblem(matrix_a=np.array([[2.0 * m, 1.0], [0.0, -1.0]]),
                             vec_b=np.ones(2), vec_x0=np.ones(2), horizon=1.0)
        params = make_params(m, 1, 1, 1.0, "pade")
        assert _normal_spectrum(problem.matrix_a) is None
        assert build_pade_system(problem, params).layout.dim > SLICE_DENSE_CAP
        with pytest.raises(SingularBlockError) as info:
            extreme_singular_values(problem, params)
        assert info.value.step_index == 1

    @pytest.mark.parametrize("m", [5, 8, 11, 14, 18, 19])
    def test_one_block_matches_eigenvalue_blocks_on_c10(self, m):
        # the C10 A passed as its one block, L itself (Lanczos on the block
        # substitution), against its eigenvalue blocks (dense up to m = 11);
        # a sparse LU in COLAMD order was off by a factor 3.5e9 at m = 11
        a = _tridiag_problem().matrix_a
        lay = BlockLayout(5, m, 9, 1, 30.0 / m)
        assert lay.dim > SLICE_DENSE_CAP
        rec = SCHEMES["taylor"](9)
        blocks, real = _diagonal_blocks(a, _normal_spectrum(a))
        assert _block_singular_values(rec, lay, a[None], False) == pytest.approx(
            _block_singular_values(rec, lay, blocks, real), rel=1e-12, abs=0.0)

    def test_sparse_lu_is_never_called(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def factored(*args, **kwargs):
            raise AssertionError("sparse LU called")

        monkeypatch.setattr(spla, "splu", factored)
        problem = _tridiag_problem()
        for scheme in ("pade", "taylor"):
            for m in (19, 33, 47, 58, 65, 117):
                extreme_singular_values(problem, make_params(m, 9, 1, 30.0, scheme))
            extreme_singular_values(_non_normal_problem(), make_params(16, 9, 1, 5.0, scheme))

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    @pytest.mark.parametrize("a", [[[-1.0, 1.0], [0.0, -2.0]], [[-1.0, 0.0], [0.0, -2.0]],
                                   [[-1.0, 2.0], [-2.0, -1.0]]],
                             ids=["non-normal", "diagonal", "normal"])
    def test_classification_is_scale_free(self, a, scale):
        # A s over T / s has the A h of A over T: its products must neither
        # underflow (s = 1e-170 made a non-normal A pass as normal) nor overflow
        a = np.array(a)
        assert (_normal_spectrum(a * scale) is None) == (_normal_spectrum(a) is None)
        for scheme in ("pade", "taylor"):
            want = extreme_singular_values(OdeProblem(a, np.ones(2), np.ones(2), 1.0),
                                           make_params(4, 3, 1, 1.0, scheme))
            got = extreme_singular_values(OdeProblem(a * scale, np.ones(2), np.ones(2),
                                                     1.0 / scale),
                                          make_params(4, 3, 1, 1.0 / scale, scheme))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [1, 70])
    def test_singular_slice_is_typed(self, m):
        # the [1/1] Padé step 1 - x/2 vanishes at x = A h = 2: that slice is
        # exactly singular, in the dense (m = 1) and the Lanczos (m = 70) range
        problem = OdeProblem(matrix_a=np.array([[-1.0, 0.0], [0.0, 2.0 * m]]),
                             vec_b=np.ones(2), vec_x0=np.ones(2), horizon=1.0)
        with pytest.raises(SingularBlockError):
            extreme_singular_values(problem, make_params(m, 1, 1, 1.0, "pade"))

    def test_lanczos_no_convergence_is_typed(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        monkeypatch.setattr(spla, "eigsh", stalled)
        with pytest.raises(ConvergenceError):
            extreme_singular_values(_non_normal_problem(), make_params(4, 9, 1, 5.0, "pade"))
        problem = _tridiag_problem()
        with pytest.raises(ConvergenceError):
            extreme_singular_values(problem, make_params(19, 9, 1, 30.0, "pade"))


class TestCertifiedBracket:
    """sigma_max of one block system from the band Cholesky bracket on M^H M."""

    @staticmethod
    def _assert_certified(csr, got):
        # the dense SVD is the oracle; got^2 I - M^H M has a band Cholesky
        # factor, and (1 - 1e-12) got^2 I - M^H M has none
        dense = csr.toarray()
        assert got == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0], rel=1e-12, abs=0.0)
        band = _gram_band(csr)

        def shifted(shift):
            out = -band
            out[0] += shift
            return out

        sla.cholesky_banded(shifted(got**2), lower=True)
        with pytest.raises(np.linalg.LinAlgError):
            sla.cholesky_banded(shifted((1.0 - 1e-12) * got**2), lower=True)

    @settings(max_examples=30, deadline=None)
    @given(scheme=st.sampled_from(["pade", "taylor"]), k=st.integers(1, 12),
           m=st.integers(1, 30), re=st.floats(-20.0, 2.0), im=st.floats(-20.0, 20.0),
           complex_=st.booleans())
    # one step: M^H M is banded wider than its dimension
    @example(scheme="pade", k=12, m=1, re=-3.0, im=1.0, complex_=True)
    def test_scalar_blocks_match_dense_svd(self, scheme, k, m, re, im, complex_):
        x = complex(re, im) if complex_ else re
        csr, = csr_systems(SCHEMES[scheme](k), m, 2, np.array([[[x]]]))
        assert csr.dtype.kind == ("c" if complex_ else "f")
        self._assert_certified(csr, _largest_singular_value(csr))

    def test_non_normal_block_above_the_cap(self):
        a = _non_normal_problem().matrix_a
        for scheme in ("pade", "taylor"):
            csr, = csr_systems(SCHEMES[scheme](9), 16, 1, a[None] * (5.0 / 16))
            assert csr.shape[0] > SLICE_DENSE_CAP
            self._assert_certified(csr, _largest_singular_value(csr))

    def test_floor(self):
        csr, = csr_systems(SCHEMES["pade"](9), 40, 1, np.array([[[-3.0]]]))
        smax = _largest_singular_value(csr)
        # a floor above sigma_max comes back as it is; one below it does not
        assert _largest_singular_value(csr, 1.5 * smax) == 1.5 * smax
        assert _largest_singular_value(csr, smax * (1 + 1e-9)) == smax * (1 + 1e-9)
        assert _largest_singular_value(csr, 0.999 * smax) == pytest.approx(smax, rel=1e-13)

    def test_huge_block_is_scaled_by_a_power_of_two(self):
        # ||A h|| = 1e200: the entries of M^H M would overflow unscaled
        xh = np.array([[-1.0, 1.0], [0.0, -2.0]]) * 1e200
        csr, = csr_systems(SCHEMES["pade"](5), 20, 1, xh[None])
        got = _largest_singular_value(csr)
        assert math.isfinite(got)
        assert got == 2.0**600 * _largest_singular_value(csr * 2.0**-600)
        self._assert_certified(csr * 2.0**-665, got * 2.0**-665)

    def test_overflowing_block_is_typed(self):
        # an A h that overflowed to -inf (ARPACK raised an untyped ArpackError)
        csr, = csr_systems(SCHEMES["pade"](9), 20, 1, np.array([[[-np.inf]]]))
        with pytest.raises(MagnitudeError):
            _largest_singular_value(csr)

    def test_overflowing_step_is_typed(self):
        # A = [[-1e308]] at h = 50: A h overflows before any block system is formed
        problem = OdeProblem(matrix_a=[[-1e308]], vec_b=[0.0], vec_x0=[1.0], horizon=1000.0)
        with pytest.raises(MagnitudeError, match="A h overflows"):
            extreme_singular_values(problem, make_params(20, 9, 1, 1000.0, "pade"))


class TestInverseNormBounds:
    def test_bound_values(self):
        assert w_inverse_bound(9, "hermitian_nsd") == pytest.approx(
            math.sqrt(10 * (4 * math.log(10) + 1)), abs=1e-12)
        assert w_inverse_bound(9, "hermitian_nsd") == pytest.approx(10.105, abs=1e-3)
        # unit-norm prefactor 2 sqrt(e) / (3 - e)
        ratio = w_inverse_bound(9, "unit_norm") / w_inverse_bound(9, "hermitian_nsd")
        assert ratio == pytest.approx(2 * math.sqrt(math.e) / (3 - math.e), abs=1e-12)
        assert ratio == pytest.approx(11.7047, abs=1e-3)

    def test_hermitian_nsd_suite(self):
        for seed in range(8):
            local = np.random.default_rng(500 + seed)
            n = int(local.integers(2, 9))
            k = int(local.choice([3, 7, 15]))
            a = random_hermitian_nsd(local, n)
            h = float(local.uniform(0.0, 50.0)) / max(np.linalg.norm(a, 2), 1e-9)
            rep = inverse_norm_bounds(make_params(1, k, 1, h, "pade"), a, "hermitian_nsd")
            assert rep.measured_w_inv <= rep.bound_w_inv
            assert rep.measured_signed_row <= rep.bound_signed_row

    def test_thm_case1_example(self, rng):
        a = random_hermitian_nsd(rng, 3)
        # k=3, m=1, p=1: full-system inverse bound 6*2*sqrt(3 log 3) ~ 21.79
        params = make_params(1, 3, 1, 0.5 / np.linalg.norm(a, 2), "pade")
        rep = inverse_norm_bounds(params, a, "hermitian_nsd")
        assert rep.bound_l_inv == pytest.approx(12 * math.sqrt(3 * math.log(3.0)), abs=1e-12)
        assert rep.bound_l_inv == pytest.approx(21.79, abs=0.01)
        assert rep.norm_l_inv <= rep.bound_l_inv

    def test_unit_norm_suite(self, rng):
        for seed in range(5):
            local = np.random.default_rng(900 + seed)
            a = random_contraction(local, 4, norm=1.0)
            rep = inverse_norm_bounds(make_params(1, 5, 1, 1.0, "pade"), a, "unit_norm")
            assert rep.measured_w_inv <= rep.bound_w_inv

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), k=st.integers(1, 15), scale=st.floats(1e-3, 50.0),
           steps=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_eigenvalue_path_matches_dense_formulas(self, n, k, scale, steps, seed):
        # the dense one-step inverse, signed row and propagator product are
        # the oracle for the slice and scalar formulas of a normal A; the
        # i-th power of exp(-A h) R(A h) has norm at most exp(i ||A h||).
        # R = D^-1 N is solved without pade_propagator's residual gate, which
        # rejects some of these denominators (cond(D) ~ 1e5) as singular.
        a = random_hermitian_nsd(np.random.default_rng(seed), n)
        norm_a = float(np.linalg.norm(a, 2))
        h = scale / max(norm_a, 1e-9)
        rep = inverse_norm_bounds(make_params(1, k, 1, h, "pade"), a, "hermitian_nsd")
        rec = SCHEMES["pade"](k)
        winv = np.linalg.inv(rec.one_step(a * h))
        signed = np.kron(rec.signs, np.eye(n)) @ winv
        assert rep.measured_w_inv == pytest.approx(np.linalg.norm(winv, 2), rel=1e-12, abs=0.0)
        assert rep.measured_signed_row == pytest.approx(np.linalg.norm(signed, 2),
                                                        rel=1e-12, abs=0.0)

        num, den = eval_pade_parts(a * h, pade_coefficients(k, k))
        gmat = reference_expm(a, -h) @ np.linalg.solve(den, num)
        acc = np.eye(n, dtype=complex)
        dense = []
        for _ in range(steps):
            acc = acc @ gmat
            dense.append(np.linalg.norm(np.eye(n) - acc, 2))
        drift = propagator_drift(a, h, k, steps).per_step
        assert (np.abs(drift - dense) <= 1e-12 * np.exp(norm_a * h * np.arange(1, steps + 1))).all()

    def test_normal_a_is_never_assembled(self, rng, monkeypatch):
        def assembled(*args, **kwargs):
            raise AssertionError("L assembled")

        # both builders assemble through _assemble
        monkeypatch.setattr(system_builder, "_assemble", assembled)
        a = random_hermitian_nsd(rng, 5)
        rep = inverse_norm_bounds(make_params(3, 7, 2, 1.5, "pade"), a, "hermitian_nsd")
        assert all(rep.satisfied.values())
        # nor is a non-normal A, the one block A: its W^-1 and signed row
        # match the dense one-step inverse
        a = random_contraction(rng, 4, norm=1.0)
        rep = inverse_norm_bounds(make_params(1, 5, 1, 1.0, "pade"), a, "unit_norm")
        rec = SCHEMES["pade"](5)
        winv = np.linalg.inv(rec.one_step(a))
        assert rep.measured_w_inv == pytest.approx(np.linalg.norm(winv, 2), rel=1e-12, abs=0.0)
        assert rep.measured_signed_row == pytest.approx(
            np.linalg.norm(np.kron(rec.signs, np.eye(4)) @ winv, 2), rel=1e-12, abs=0.0)

    def test_reports_agree(self):
        """The bound suites and ``analyze`` read one ||A||_2, so for the same
        Hermitian NSD A and step they print the same numbers."""
        keys = ("norm_l", "norm_l_inv", "kappa", "bound_l_inv", "bound_kappa", "bound_l_norm")
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            a = random_hermitian_nsd(rng, n)
            params = make_params(2, int(rng.choice([3, 7, 15])), 2, 3.0, "pade")
            problem = OdeProblem(matrix_a=a, vec_b=np.ones(n), vec_x0=np.ones(n), horizon=3.0)
            suite, report = inverse_norm_bounds(params, a, "hermitian_nsd"), condition_report(problem, params)
            assert [getattr(suite, key) for key in keys] == [getattr(report, key) for key in keys]
            assert list(suite.satisfied) == ["w_inv", "signed_row", "l_inv", "kappa", "l_norm"]
            assert list(report.satisfied) == ["l_inv", "kappa", "l_norm"]
            assert all(suite.satisfied.values()) and all(report.satisfied.values())

    def test_case_mismatch(self, rng):
        a = random_contraction(rng, 3, norm=2.0)
        with pytest.raises(ClassificationError):
            inverse_norm_bounds(make_params(1, 3, 1, 1.0, "pade"), a, "hermitian_nsd")
        with pytest.raises(ClassificationError):
            inverse_norm_bounds(make_params(1, 3, 1, 1.0, "pade"), a, "unit_norm")
        with pytest.raises(ClassificationError, match="unknown case 'normal'"):
            inverse_norm_bounds(make_params(1, 3, 1, 1.0, "pade"), a / 2.0, "normal")
        # the bounds are stated for the Padé system
        with pytest.raises(ConsistencyError):
            inverse_norm_bounds(make_params(1, 3, 1, 1.0, "taylor"), a / 2.0, "unit_norm")


class TestTaylorGrowth:
    def test_zero(self):
        bound, measured = taylor_inverse_growth(np.zeros((2, 2)), 1.0, 4)
        assert bound == pytest.approx(1.0)
        assert measured == pytest.approx(1.0)

    def test_scalar_contrast(self):
        bound, measured = taylor_inverse_growth(np.array([[-10.0]]), 1.0, 9)
        explicit = math.sqrt(sum(10.0 ** (2 * j) / math.factorial(j) ** 2 for j in range(10)))
        assert bound == pytest.approx(explicit, rel=1e-12)
        assert measured >= bound
        # rational side stays bounded by the order-9 inverse bound
        rep = inverse_norm_bounds(make_params(1, 9, 1, 1.0, "pade"),
                                  np.array([[-10.0]]), "hermitian_nsd")
        assert rep.measured_w_inv <= 10.2

    def test_requires_hermitian(self):
        with pytest.raises(ClassificationError):
            taylor_inverse_growth(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 3)


class TestExplicitInverse:
    def test_zero_matrix(self):
        w = SCHEMES["pade"](1).one_step(np.zeros((2, 2)))
        winv = explicit_w_inverse(np.zeros((2, 2)), 1.0, 1)
        assert np.linalg.norm(w @ winv - np.eye(4), 2) <= 1e-15

    def test_scalar_vs_dense(self):
        a = np.array([[-1.0]])
        winv = explicit_w_inverse(a, 1.0, 2)
        dense = np.linalg.inv(SCHEMES["pade"](2).one_step(a))
        assert np.linalg.norm(winv - dense, 2) <= 1e-12

    def test_random_vs_dense(self, rng):
        for k in (1, 3, 5):
            a = random_contraction(rng, 3, norm=1.4)
            winv = explicit_w_inverse(a, 0.9, k)
            dense = np.linalg.inv(SCHEMES["pade"](k).one_step(a * 0.9))
            assert np.linalg.norm(winv - dense, 2) <= 1e-10 * np.linalg.norm(dense, 2)

    def test_signed_contraction_is_propagator(self, rng):
        # contracting the alternating-sign row against the scaled first block
        # column reproduces the one-step propagator
        a = random_contraction(rng, 2, norm=1.0)
        k = 4
        winv = explicit_w_inverse(a, 1.0, k)
        n = 2
        first_col = winv[:, :n]
        signs = alternating_signs(k)
        contraction = -(1.0 / math.sqrt(k + 1)) * np.kron(signs, np.eye(n)) @ first_col
        assert np.linalg.norm(contraction - pade_propagator(a, 1.0, k), 2) <= 1e-11


class TestDrift:
    def test_zero_matrix(self):
        report = propagator_drift(np.zeros((2, 2)), 1.0, 3, 4)
        assert report.drift_max == 0.0
        assert report.hypothesis_ok

    def test_within_theta(self, rng):
        delta = 1e-8
        k = 9
        theta = theta_max(k, delta)
        a = random_hermitian_nsd(rng, 4)
        h = 0.9 * theta / np.linalg.norm(a, 2)
        m = 4
        report = propagator_drift(a, h, k, m)
        assert report.drift_max <= delta * np.linalg.norm(a, 2) * m * h

    def test_vanishing_denominator_is_typed(self):
        # the [1/1] denominator 1 - x/2 vanishes at x = A h = 2
        with pytest.raises(SingularDenominatorError):
            propagator_drift(np.array([[2.0]]), 1.0, 1, 3)

    def test_large_step_violates(self):
        report = propagator_drift(np.array([[-5.0]]), 1.0, 1, 3)
        assert report.drift_max > 1.0
        assert not report.hypothesis_ok

    def test_matches_60_digit_reference(self):
        # samples of the thm36 bound suite (h ||A|| = theta_max(k, 1e-8)), whose
        # g_j lie within 1e-6 of 1, and a normal A whose eigenvalues are theirs
        # turned off the real axis; the reference is |g_j^i - 1| from the same
        # eigenvalues in 60 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60

        def reference(lam, h, k, steps):
            coeffs = pade_coefficients(k, k)
            gs = []
            for x in (mp.mpc(complex(v)) * mp.mpf(h) for v in lam):
                num = sum(mp.mpf(c.numerator) / c.denominator * x**j
                          for j, c in enumerate(coeffs.num_coeffs))
                den = sum(mp.mpf(c.numerator) / c.denominator * (-x)**j
                          for j, c in enumerate(coeffs.den_coeffs))
                gs.append(mp.exp(-x) * num / den)
            return np.array([float(max(abs(g**i - 1) for g in gs)) for i in range(1, steps + 1)])

        for seed in range(24):
            local = np.random.default_rng(9000 + seed)
            n, k = int(local.integers(2, 9)), int(local.choice([3, 7, 15]))
            a = random_hermitian_nsd(local, n)
            h = theta_max(k, 1e-8) / np.linalg.norm(a, 2)
            q, _ = np.linalg.qr(local.normal(size=(n, n)) + 1j * local.normal(size=(n, n)))
            lam = np.linalg.eigvalsh(a) * np.exp(1j * local.uniform(-1.5, 1.5, n))
            for mat in (a, (q * lam) @ q.conj().T):
                got = propagator_drift(mat, h, k, 4).per_step
                want = reference(_normal_spectrum(mat)[0], h, k, 4)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                assert mat is not a or want[0] < 1e-6


class TestLuIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_factorization(self, k):
        # the unscaled one-step block factors into the two displayed matrices,
        # whose corner reproduces the denominator polynomial
        for aval in (-0.7, -2.5, 0.4):
            beta = pade_coefficients(k, k).beta_floats
            den = pade_coefficients(k, k).den_floats
            size = k + 1
            w = np.zeros((size, size))
            w[0, :] = 1.0
            for i in range(1, size):
                w[i, i - 1] = 1.0
                w[i, i] = beta[k - i] * aval
            upper = np.eye(size)
            val = 1.0
            for j in range(1, size):
                upper[0, j] = val
                val = 1.0 - beta[k - j] * aval * val
            lower = np.zeros((size, size))
            corner = sum(den[j] * (-aval) ** j for j in range(k + 1))
            lower[0, k] = corner
            for i in range(1, size):
                lower[i, i - 1] = 1.0
                lower[i, i] = beta[k - i] * aval
            assert corner == pytest.approx(
                1.0 + sum(np.prod(beta[:j]) * (-aval) ** j for j in range(1, k + 1)),
                rel=1e-12)
            assert np.allclose(upper @ lower, w, atol=1e-12)


class TestConditionReport:
    def test_trivial_instance_vs_svd(self):
        problem = OdeProblem(matrix_a=np.zeros((1, 1)), vec_b=np.ones(1),
                             vec_x0=np.ones(1), horizon=1.0)
        params = make_params(1, 1, 1, 1.0, "pade")
        report = condition_report(problem, params)
        svals = np.linalg.svd(build_pade_system(problem, params).dense(), compute_uv=False)
        assert report.kappa == pytest.approx(svals[0] / svals[-1], rel=1e-8)

    def test_norm_bound_and_flags(self, rng):
        a = random_hermitian_nsd(rng, 3)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(3), vec_x0=np.ones(3), horizon=2.0)
        report = condition_report(problem, make_params(2, 4, 2, 2.0, "pade"))
        assert report.norm_l <= report.bound_l_norm
        assert report.case == "hermitian_nsd"
        assert report.satisfied["l_norm"]
        assert report.c_of_a == pytest.approx(1.0, abs=1e-12)
        assert report.g_ratio >= 1.0

    def test_size_cap(self):
        problem = OdeProblem(matrix_a=np.zeros((1, 1)), vec_b=np.ones(1),
                             vec_x0=np.ones(1), horizon=1.0)
        with pytest.raises(SizeError):
            condition_report(problem, make_params(2048, 1, 3, 1.0, "taylor"))

    def test_transient_growth_hermitian(self, rng):
        def c_of_a(a):
            n = a.shape[0]
            problem = OdeProblem(matrix_a=a, vec_b=np.ones(n), vec_x0=np.ones(n), horizon=2.0)
            return condition_report(problem, make_params(4, 3, 1, 2.0, "pade")).c_of_a

        assert c_of_a(random_hermitian_nsd(rng, 3)) == pytest.approx(1.0, abs=1e-12)
        assert c_of_a(np.array([[0.5]])) == pytest.approx(math.exp(1.0), rel=1e-10)
        # a normal A with a complex spectrum grows as exp(max Re lam t)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        a = (q * np.array([0.3 + 2.0j, -1.0 - 1.0j, 0.1])) @ q.conj().T
        grid = max(np.linalg.norm(reference_expm(a, t), 2) for t in np.linspace(0.0, 2.0, 41))
        assert c_of_a(a) == pytest.approx(grid, rel=1e-12, abs=0.0)
        assert c_of_a(a) == pytest.approx(math.exp(0.6), rel=1e-15, abs=0.0)
