import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pade_lab import analysis, classical_solver, cli, system_builder
from pade_lab.analysis import (
    NORMALITY_TOL,
    SLICE_DENSE_CAP,
    _block_singular_values,
    _diagonal_blocks,
    _gram_band,
    _is_normal,
    _largest_singular_value,
    _normal_spectrum,
    _one_step_norms,
    _smallest_singular_value,
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
    HERMITIAN_TOL,
    OdeProblem,
    is_hermitian,
    pade_coefficients,
    reference_expm,
)
from pade_lab.system_builder import (
    SCHEMES,
    BlockLayout,
    alternating_signs,
    assemble,
    block_layout,
    csr_system,
    dense_patterns,
)

from conftest import random_contraction, random_hermitian_nsd
from oracles import (
    eval_pade_parts,
    explicit_w_inverse,
    pade_propagator,
    sigma_min_mp,
    taylor_inverse_growth,
)


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


#: kappa of the seed-0 condition-sweep systems by dense SVD, committed with the
#: benchmark (read only)
_SWEEP_REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs"
                          / "condition_sweep.json").read_text())["kappa"]


def _non_normal_problem():
    a = random_stable_matrix(4, 7)
    return OdeProblem(matrix_a=a, vec_b=np.ones(4), vec_x0=np.ones(4), horizon=5.0)


def _drift_60_digits(lam, h, k, steps):
    """max_j |g_j^i - 1|, i = 1..steps, from the eigenvalues lam_j in 60 digits."""
    mp = pytest.importorskip("mpmath")
    coeffs = pade_coefficients(k, k)
    with mp.workdps(60):
        gs = []
        for x in (mp.mpc(complex(v)) * mp.mpf(h) for v in lam):
            num = sum(mp.mpf(c.numerator) / c.denominator * x**j
                      for j, c in enumerate(coeffs.num_coeffs))
            den = sum(mp.mpf(c.numerator) / c.denominator * (-x)**j
                      for j, c in enumerate(coeffs.den_coeffs))
            gs.append(mp.exp(-x) * num / den)
        return np.array([float(max(abs(g**i - 1) for g in gs)) for i in range(1, steps + 1)])


def _assert_dense_oracle(got, dense):
    """sigma_max against the dense SVD of L, sigma_min against 1/||L^-1||_2."""
    smax, smin = got
    assert smax == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0], rel=1e-10, abs=0.0)
    assert smin == pytest.approx(1.0 / np.linalg.norm(np.linalg.inv(dense), 2),
                                 rel=1e-10, abs=0.0)


class TestSpectralNorm:
    def test_extreme_singular_values_oracle(self):
        # a non-normal A is one block, L itself; at m = 2 (dimension 84) it
        # is measured by dense LAPACK
        problem = _non_normal_problem()
        for scheme in ("pade", "taylor"):
            params = make_params(2, 9, 1, 5.0, scheme)
            dense = assemble(problem, params).dense()
            assert dense.shape[0] <= SLICE_DENSE_CAP
            _assert_dense_oracle(extreme_singular_values(problem, params), dense)

    def test_extreme_singular_values_lanczos(self, rng):
        a = random_hermitian_nsd(rng, 2)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(2), vec_x0=np.ones(2), horizon=8.0)
        params = make_params(32, 9, 4, 8.0, "pade")
        system = assemble(problem, params)
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
        system = assemble(problem, params)
        assert (system.layout.block_rows > SLICE_DENSE_CAP) == (m == 14)
        smax, smin = extreme_singular_values(problem, params)
        svals = np.linalg.svd(system.dense(), compute_uv=False)
        assert smax == pytest.approx(svals[0], rel=1e-10)
        assert smin == pytest.approx(svals[-1], rel=1e-8)

    @pytest.mark.parametrize("m", [3, 4, 16, pytest.param(40, marks=pytest.mark.slow)])
    def test_non_normal_takes_the_operator_path(self, m):
        # the one block of a non-normal A is L itself, above the dense cap
        # measured by Lanczos on L^H L and on the block substitution of L^-1;
        # m = 3 has dimension 124, m = 40 dimension 1604
        problem = _non_normal_problem()
        for scheme in ("pade", "taylor"):
            params = make_params(m, 9, 1, 5.0, scheme)
            dense = assemble(problem, params).dense()
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
            smax, smin = _block_singular_values(rec, lay, a[None], False)[:2]
            assert smax / smin < 1e8
            assert _block_singular_values(rec, lay, blocks, real)[:2] == pytest.approx(
                (smax, smin), rel=1e-10, abs=0.0)
            assert _one_step_norms(rec, np.linalg.inv(rec.one_step(blocks * h))) == pytest.approx(
                _one_step_norms(rec, np.linalg.inv(rec.one_step(a[None] * h))), rel=1e-10, abs=0.0)

    def test_taylor_floor_at_m5(self):
        # dim 255: a dense SVD of L, whose last singular value floors at
        # eps sigma_max, gave 1/sigma_min = 1.07e17
        problem = _tridiag_problem()
        params = make_params(5, 9, 1, 30.0, "taylor")
        assert block_layout(problem.dim, params).dim == 255
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
        assert block_layout(problem.dim, params).dim > SLICE_DENSE_CAP
        with pytest.raises(SingularBlockError) as info:
            extreme_singular_values(problem, params)
        assert info.value.step_index == 1

    @pytest.mark.parametrize("m", [5, 8, 11, 14, 18, 19])
    def test_one_block_matches_eigenvalue_blocks_on_c10(self, m):
        # the C10 A passed as its one block, L itself (Lanczos on the block
        # substitution), against its eigenvalue blocks (dense up to m = 9);
        # a sparse LU in COLAMD order was off by a factor 3.5e9 at m = 11
        a = _tridiag_problem().matrix_a
        lay = BlockLayout(5, m, 9, 1, 30.0 / m)
        assert lay.dim > SLICE_DENSE_CAP
        rec = SCHEMES["taylor"](9)
        blocks, real = _diagonal_blocks(a, _normal_spectrum(a))
        assert _block_singular_values(rec, lay, a[None], False)[:2] == pytest.approx(
            _block_singular_values(rec, lay, blocks, real)[:2], rel=1e-12, abs=0.0)

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

    def test_scalar_blocks_build_no_sparse_matrix(self, monkeypatch):
        # a normal A above the dense cap: sigma_max reads the band of each
        # scalar block system, sigma_min runs on the block substitution, so no
        # CSR block system is built; the one block of a non-normal A still is
        built = []
        original = system_builder.csr_system

        def counted(*args, **kwargs):
            built.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(system_builder, "csr_system", counted)
        monkeypatch.setattr(analysis, "csr_system", counted)
        lam = np.array([-2.0 + 1.0j, -0.5 - 0.3j, -1.0])
        vecs, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        problems = [_tridiag_problem(), _tridiag_problem(seed=1),
                    OdeProblem(matrix_a=vecs @ np.diag(lam) @ vecs.T, vec_b=np.ones(3),
                               vec_x0=np.ones(3), horizon=5.0)]
        for problem in problems:
            assert _normal_spectrum(problem.matrix_a) is not None
            for scheme in ("pade", "taylor"):
                for m in (12, 117):
                    params = make_params(m, 9, 1, problem.horizon, scheme)
                    assert m * 10 + 1 > SLICE_DENSE_CAP
                    extreme_singular_values(problem, params)
        assert built == []
        extreme_singular_values(_non_normal_problem(), make_params(16, 9, 1, 5.0, "pade"))
        assert built == [(16, 1)]

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

    def test_hermitian_within_tolerance_takes_the_eigenvalues(self):
        # Hermitian within HERMITIAN_TOL but not normal within NORMALITY_TOL:
        # ||A A^H - A^H A||_F = 4 sqrt(2) eps > 1e-12 ||A||_F^2.  eigvalsh reads
        # the Hermitian H of one triangle, ||A - H||_2 <= n 1e-12 max |a_ij|,
        # so sigma(L) moves by at most h ||B||_2 times that (Weyl)
        eps = 4e-13
        a = np.diag([1.0, -1.0]) + np.array([[0.0, eps], [-eps, 0.0]])
        assert is_hermitian(a) and not _is_normal(a)
        assert np.abs(a - a.T).max() <= HERMITIAN_TOL
        assert np.linalg.norm(a @ a.T - a.T @ a) > NORMALITY_TOL * np.linalg.norm(a) ** 2
        blocks, real = _diagonal_blocks(a, _normal_spectrum(a))
        assert blocks.shape == (2, 1, 1) and real
        for scheme in ("pade", "taylor"):
            lay = BlockLayout(2, 4, 3, 1, 0.25)
            rec = SCHEMES[scheme](3)
            norm_b = np.linalg.norm(dense_patterns(rec, 4, 1)[1], 2)
            weyl = lay.h * norm_b * 2 * 1e-12 * np.abs(a).max()
            got = np.array(_block_singular_values(rec, lay, blocks, real)[:2])
            want = np.array(_block_singular_values(rec, lay, a[None], False)[:2])
            assert (np.abs(got - want) <= weyl).all()

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
        # C10 Taylor m = 12 (kappa about 8e35): sigma_min is past the bracket
        problem = _tridiag_problem()
        with pytest.raises(ConvergenceError):
            extreme_singular_values(problem, make_params(12, 9, 1, 30.0, "taylor"))


def _general_band(csr):
    """(u, bands): a sparse M in LAPACK general band storage, bands[u + i - j, j] = M_ij."""
    coo = csr.tocoo()
    up, low = int(max(0, (coo.col - coo.row).max())), int(max(0, (coo.row - coo.col).max()))
    bands = np.zeros((up + low + 1, csr.shape[1]), dtype=csr.dtype)
    bands[up + coo.row - coo.col, coo.col] = coo.data
    return up, bands


class TestCertifiedBracket:
    """sigma_max of one block system from the band Cholesky bracket on M^H M."""

    @staticmethod
    def _assert_certified(dense, up, bands, got):
        # the dense SVD is the oracle; got^2 I - M^H M has a band Cholesky
        # factor, and (1 - 1e-12) got^2 I - M^H M has none
        assert got == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0], rel=1e-12, abs=0.0)
        band = _gram_band(bands, up)

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
    # one step: M^H M is banded wider than its dimension, and the band is
    # deeper than M is wide
    @example(scheme="pade", k=12, m=1, re=-3.0, im=1.0, complex_=True)
    def test_scalar_blocks_match_dense_svd(self, scheme, k, m, re, im, complex_):
        x = complex(re, im) if complex_ else re
        xs = np.array([[[x]]])
        up, (bands,) = system_builder._band_systems(SCHEMES[scheme](k), m, 2, xs)
        assert bands.dtype.kind == ("c" if complex_ else "f")
        csr = csr_system(SCHEMES[scheme](k), m, 2, xs[0])
        self._assert_certified(csr.toarray(), up, bands, _largest_singular_value(bands, up))

    def test_non_normal_block_above_the_cap(self):
        a = _non_normal_problem().matrix_a
        for scheme in ("pade", "taylor"):
            csr = csr_system(SCHEMES[scheme](9), 16, 1, a * (5.0 / 16))
            assert csr.shape[0] > SLICE_DENSE_CAP
            up, bands = _general_band(csr)
            self._assert_certified(csr.toarray(), up, bands, _largest_singular_value(bands, up))

    def test_floor(self):
        up, (bands,) = system_builder._band_systems(SCHEMES["pade"](9), 40, 1,
                                                    np.array([[[-3.0]]]))
        smax = _largest_singular_value(bands, up)
        # a floor above sigma_max comes back as it is; one below it does not
        assert _largest_singular_value(bands, up, 1.5 * smax) == 1.5 * smax
        assert _largest_singular_value(bands, up, smax * (1 + 1e-9)) == smax * (1 + 1e-9)
        assert _largest_singular_value(bands, up, 0.999 * smax) == pytest.approx(smax, rel=1e-13)

    def test_huge_block_is_scaled_by_a_power_of_two(self):
        # ||A h|| = 1e200: the entries of M^H M would overflow unscaled
        xh = np.array([[-1.0, 1.0], [0.0, -2.0]]) * 1e200
        csr = csr_system(SCHEMES["pade"](5), 20, 1, xh)
        up, bands = _general_band(csr)
        got = _largest_singular_value(bands, up)
        assert math.isfinite(got)
        assert got == 2.0**600 * _largest_singular_value(bands * 2.0**-600, up)
        self._assert_certified(csr.toarray() * 2.0**-665, up, bands * 2.0**-665, got * 2.0**-665)

    def test_overflowing_block_is_typed(self):
        # an A h that overflowed to -inf (ARPACK raised an untyped ArpackError)
        up, (bands,) = system_builder._band_systems(SCHEMES["pade"](9), 20, 1,
                                                    np.array([[[-np.inf]]]))
        with pytest.raises(MagnitudeError):
            _largest_singular_value(bands, up)

    def test_overflowing_step_is_typed(self):
        # A = [[-1e308]] at h = 50: A h overflows before any block system is formed
        problem = OdeProblem(matrix_a=[[-1e308]], vec_b=[0.0], vec_x0=[1.0], horizon=1000.0)
        with pytest.raises(MagnitudeError, match="A h overflows"):
            extreme_singular_values(problem, make_params(20, 9, 1, 1000.0, "pade"))


class TestSigmaMinBracket:
    """sigma_min of one block system from the band Cholesky bracket on M^H M:
    a shift s at which M^H M - s I factors below the Rayleigh quotient ||M x||^2
    of the inverse iteration, the value."""

    @staticmethod
    def _gram_shifted(up, bands):
        band = _gram_band(bands, up)

        def shifted(shift):
            out = band.copy()
            out[0] -= shift
            return out

        # delta = (kd + 2) eps ||G||, by Gershgorin, for G of bandwidth kd
        row_sums = np.abs(band).sum(axis=0)
        for o in range(1, len(band)):
            row_sums[o:] += np.abs(band[o, :-o])
        return shifted, (len(band) + 1) * np.finfo(float).eps * row_sums.max()

    def _assert_certified(self, dense, up, bands, got):
        # 1 / ||M^-1||_2 of the dense inverse is the oracle; M^H M - lower^2 I
        # has a band Cholesky factor.  The value is a Rayleigh quotient on M,
        # and the computed M^H M holds lambda_min only to its rounding delta,
        # so (1 + 1e-12) value^2 + delta is past it: that shift has no factor
        lower, value = got
        assert value == pytest.approx(1.0 / np.linalg.norm(np.linalg.inv(dense), 2),
                                      rel=1e-12, abs=0.0)
        assert lower <= value
        shifted, delta = self._gram_shifted(up, bands)
        sla.cholesky_banded(shifted(lower**2), lower=True)
        with pytest.raises(np.linalg.LinAlgError):
            sla.cholesky_banded(shifted((1.0 + 1e-12) * value**2 + delta), lower=True)

    @settings(max_examples=40, deadline=None)
    @given(scheme=st.sampled_from(["pade", "taylor"]), k=st.integers(1, 12),
           m=st.integers(1, 30), re=st.floats(-20.0, 2.0), im=st.floats(-20.0, 20.0),
           complex_=st.booleans())
    # one step: the band is deeper than M is wide
    @example(scheme="pade", k=12, m=1, re=-3.0, im=1.0, complex_=True)
    @example(scheme="taylor", k=9, m=30, re=-2.0, im=0.0, complex_=False)
    def test_scalar_blocks_match_dense_inverse(self, scheme, k, m, re, im, complex_):
        x = complex(re, im) if complex_ else re
        xs = np.array([[[x]]])
        up, (bands,) = system_builder._band_systems(SCHEMES[scheme](k), m, 2, xs)
        dense = csr_system(SCHEMES[scheme](k), m, 2, xs[0]).toarray()
        got = _smallest_singular_value(bands, up)
        if got is None:
            # handed to Lanczos only where (kd + 2) eps kappa^2 is not small
            kd = len(bands) - 1
            assert (kd + 2) * np.finfo(float).eps * np.linalg.cond(dense) ** 2 > 1e-10
        else:
            self._assert_certified(dense, up, bands, got)

    def test_matches_extended_precision(self):
        # Padé k = 3, m = 12 at x = -2.5: 50 rows, against inverse iteration in 40 digits
        xs = np.array([[[-2.5]]])
        up, (bands,) = system_builder._band_systems(SCHEMES["pade"](3), 12, 2, xs)
        dense = csr_system(SCHEMES["pade"](3), 12, 2, xs[0]).toarray()
        _, value = _smallest_singular_value(bands, up)
        assert value == pytest.approx(sigma_min_mp(dense), rel=1e-14, abs=0.0)

    def test_ceiling(self):
        up, (bands,) = system_builder._band_systems(SCHEMES["pade"](9), 40, 1,
                                                    np.array([[[-3.0]]]))
        _, smin = _smallest_singular_value(bands, up)
        # a ceiling below sigma_min comes back as it is; one above it does not
        assert _smallest_singular_value(bands, up, 0.5 * smin) == (0.5 * smin, 0.5 * smin)
        ceiling = smin * (1 - 1e-9)
        assert _smallest_singular_value(bands, up, ceiling) == (ceiling, ceiling)
        lower, value = _smallest_singular_value(bands, up, 1.001 * smin)
        assert value == pytest.approx(smin, rel=1e-13)
        assert lower <= value

    def test_hands_off_to_lanczos(self):
        # a Taylor block of C10 at m = 20 (x = lam h, kappa 2.2e16): delta /
        # lambda_min is past BRACKET_MAX_DELTA, and the row takes Lanczos
        x = (-2.0 - math.sqrt(3.0)) * 30.0 / 20
        up, bands = system_builder._band_systems(SCHEMES["taylor"](9), 20, 1,
                                                 np.array([[[x]]]))
        dense = csr_system(SCHEMES["taylor"](9), 20, 1, np.array([[x]])).toarray()
        assert np.linalg.cond(dense) > 1e16
        assert _smallest_singular_value(bands[0], up) is None
        import scipy.sparse.linalg as spla

        eigsh = []

        def lanczos(*args, fn=spla.eigsh, **kwargs):
            eigsh.append(1)
            return fn(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spla, "eigsh", lanczos)
            smax, smin = extreme_singular_values(_tridiag_problem(),
                                                 make_params(20, 9, 1, 30.0, "taylor"))
        assert eigsh == [1]  # one Lanczos over the direct sum of the five blocks
        assert 0.0 < smin < smax < math.inf

    @pytest.mark.parametrize("m", [12, 19])
    def test_hands_off_before_factorizing(self, m):
        # the C10 Taylor rows whose sigma_min takes Lanczos: the block of
        # x = lam h at the largest |lam| hands off on the Rayleigh quotient of
        # one inverse iteration by triangular solves, with no band Cholesky
        # factorization at the ceiling of the other end block or at none
        calls = []

        def lapack(names, *args, fn=sla.get_lapack_funcs):
            return [(lambda *a, f=f, **kw: calls.append(1) or f(*a, **kw))
                    if name == "pbtrf" else f for name, f in zip(names, fn(names, *args))]

        lam = np.array([-2.0 - math.sqrt(3.0), -2.0 + math.sqrt(3.0)])
        up, bands = system_builder._band_systems(SCHEMES["taylor"](9), m, 1,
                                                 (lam * 30.0 / m)[:, None, None])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sla, "get_lapack_funcs", lapack)
            _, ceiling = _smallest_singular_value(bands[1], up)
            assert calls  # the well-conditioned end block is bracketed
            calls.clear()
            assert _smallest_singular_value(bands[0], up, ceiling) is None
            assert _smallest_singular_value(bands[0], up) is None
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 12), m=st.integers(1, 30), re=st.floats(-20.0, 2.0),
           im=st.floats(-20.0, 20.0), complex_=st.booleans(),
           ceiling=st.sampled_from([math.inf, 1.0, 1e-3, 1e-8]))
    @example(k=9, m=12, re=(-2.0 - math.sqrt(3.0)) * 2.5, im=0.0, complex_=False,
             ceiling=math.inf)
    def test_early_hand_off_is_the_loops(self, k, m, re, im, complex_, ceiling):
        # the probe bounds lambda_min(M^H M) of the scaled lower triangular
        # Taylor band from above, and wherever it hands off the bracket's own
        # loop, without it, returns None too
        x = complex(re, im) if complex_ else re
        up, (bands,) = system_builder._band_systems(SCHEMES["taylor"](k), m, 2,
                                                    np.array([[[x]]]))
        assert up == 0
        dense = csr_system(SCHEMES["taylor"](k), m, 2, np.array([[x]])).toarray()
        scale = 2.0 ** -math.frexp(float(np.abs(bands).max()))[1]
        smin = np.linalg.svd(dense * scale, compute_uv=False)[-1]
        gbmv, = sla.get_blas_funcs(("gbmv",), (bands,))
        width, d = bands.shape
        probe = analysis._gram_min_ceiling(bands * scale, np.linalg.norm(bands * scale), gbmv,
                                           (max(width, d), d, width - 1, 0))
        assert smin**2 <= probe * (1 + 1e-10)  # the dense SVD value's own rounding
        got = _smallest_singular_value(bands, up, ceiling)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_gram_min_ceiling", lambda *args: math.inf)
            assert _smallest_singular_value(bands, up, ceiling) == got

    def test_singular_step_block_is_typed(self):
        # the [1/1] Padé step 1 - x/2 vanishes at x = a h = 2, m = 70: the
        # bracket cannot certify the singular block, and the substitution's LU
        # of its W_i raises the step-indexed error
        m = 70
        xs = np.array([[[2.0]]])
        up, (bands,) = system_builder._band_systems(SCHEMES["pade"](1), m, 1, xs)
        assert _smallest_singular_value(bands, up) is None
        problem = OdeProblem(matrix_a=np.diag([-1.0, 2.0 * m]), vec_b=np.ones(2),
                             vec_x0=np.ones(2), horizon=1.0)
        with pytest.raises(SingularBlockError) as info:
            extreme_singular_values(problem, make_params(m, 1, 1, 1.0, "pade"))
        assert info.value.step_index == 1

    @staticmethod
    def _no_lanczos(monkeypatch):
        import scipy.sparse.linalg as spla

        def refused(*args, **kwargs):
            raise AssertionError("sigma_min took Lanczos")

        monkeypatch.setattr(spla, "eigsh", refused)

    def test_sweep_rows_take_no_lanczos(self, monkeypatch):
        # C10, Padé m = 12..117 and Taylor m = 33..117: every block system above
        # the dense cap is bracketed, sigma_max and sigma_min alike
        self._no_lanczos(monkeypatch)
        problem = _tridiag_problem()
        for scheme, first in (("pade", 12), ("taylor", 33)):
            for m in range(first, 118):
                smax, smin = extreme_singular_values(problem, make_params(m, 9, 1, 30.0, scheme))
                assert 0.0 < smin < smax < math.inf, (scheme, m)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_refs_within_1e_12(self, seed, monkeypatch):
        # every bracket row of the condition-sweep references above the dense
        # cap, against the dense-SVD kappa of the seed-0 operator
        self._no_lanczos(monkeypatch)
        problem = _tridiag_problem(seed)
        rows = [(scheme, int(m), ref) for scheme, refs in _SWEEP_REFS.items()
                for m, ref in refs.items() if int(m) >= 12 and ref < 1e12]
        assert len(rows) == 32
        for scheme, m, ref in rows:
            smax, smin = extreme_singular_values(problem, make_params(m, 9, 1, 30.0, scheme))
            assert smax / smin == pytest.approx(ref, rel=1e-12, abs=0.0), (scheme, m)


class TestTopByEnds:
    """max_i ||X_i||_2 by the SVD of the end blocks and a Cholesky certificate
    for the interior ones: ``_top`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(r=st.integers(1, 9), rows=st.integers(1, 12), cols=st.integers(1, 12),
           complex_=st.booleans(), seed=st.integers(0, 2**32 - 1),
           weights=st.lists(st.sampled_from([1.0, 1.0, 0.5, 2.0, 0.0, 1e-300, 1e300]),
                            min_size=9, max_size=9),
           copy=st.sampled_from([None, 1.0, 1.0 - 2.0**-40, 1.0 - 1e-6, 0.5]),
           at=st.integers(1, 7), scale=st.sampled_from([1.0, 2.0**-1000, 2.0**600, 3e-200]))
    # an interior maximum, which only the fallback SVD finds
    @example(r=5, rows=6, cols=6, complex_=False, seed=1, weights=[1, 1, 4, 1, 1] + [1] * 4,
             copy=None, at=1, scale=1.0)
    # an exact tie with an end block, and a copy just under it
    @example(r=4, rows=5, cols=3, complex_=True, seed=2, weights=[1.0] * 9, copy=1.0, at=2,
             scale=1.0)
    @example(r=4, rows=3, cols=5, complex_=True, seed=2, weights=[1.0] * 9,
             copy=1.0 - 2.0**-40, at=1, scale=1.0)
    # zero blocks, at the ends too
    @example(r=6, rows=4, cols=4, complex_=False, seed=3, weights=[0, 1, 0, 0, 1, 0] + [1] * 3,
             copy=None, at=1, scale=1.0)
    @example(r=3, rows=2, cols=2, complex_=False, seed=3, weights=[0.0] * 9, copy=None, at=1,
             scale=1.0)
    def test_is_top_bit_for_bit(self, r, rows, cols, complex_, seed, weights, copy, at, scale):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(r, rows, cols))
        if complex_:
            stack = stack + 1j * rng.normal(size=(r, rows, cols))
        with np.errstate(over="ignore", invalid="ignore"):
            stack *= np.array(weights[:r])[:, None, None] * scale
            if copy is not None and at < r - 1:
                stack[at] = stack[-1] * copy  # a scaled copy of an end block
        try:
            want = analysis._top(stack)
        except (ConvergenceError, MagnitudeError) as exc:
            with pytest.raises(type(exc)):
                analysis._top_by_ends(stack)
        else:
            assert analysis._top_by_ends(stack) == want

    def test_non_finite_interior_block_is_typed(self):
        # the Gram of the block is not finite, so the interior takes its SVD:
        # a NaN fails it, an infinite entry reads a norm that is not finite
        stack = np.random.default_rng(4).normal(size=(5, 4, 4))
        for value, error in ((np.nan, ConvergenceError), (np.inf, MagnitudeError),
                             (-np.inf, MagnitudeError)):
            bad = stack.copy()
            bad[2, 1, 3] = value
            with pytest.raises(error):
                analysis._top_by_ends(bad)

    def test_end_blocks_are_the_only_svds(self, monkeypatch):
        # a Hermitian NSD A with 8 distinct eigenvalues at k = 15, m = 2 (a
        # thm36 sample of the bound suites): sigma_max, ||L^-1|| and ||W^-1||
        # each take the SVD of the two end blocks of their stack, and the
        # report is the one of every block's SVD
        a = random_hermitian_nsd(np.random.default_rng(36), 8)
        params = make_params(2, 15, 2, 2 * theta_max(15, 1e-8) / np.linalg.norm(a, 2), "pade")
        shapes = []

        def svd(stack, *args, fn=np.linalg.svd, **kwargs):
            shapes.append(np.shape(stack))
            return fn(stack, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", svd)
            got = inverse_norm_bounds(params, a, "hermitian_nsd")
        d = 2 * 16 + 2
        assert shapes == [(2, d, d), (2, d, d), (2, 16, 16)]
        monkeypatch.setattr(analysis, "_top_by_ends", analysis._top)
        assert got == inverse_norm_bounds(params, a, "hermitian_nsd")


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

        # the one assembler, wherever the builders and the command line look it up
        for module in (system_builder, cli):
            monkeypatch.setattr(module, "assemble", assembled)
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

    @pytest.mark.parametrize("path", ["dense-slices", "dense-one-block", "lanczos"])
    def test_one_step_norms_match_explicit_inverse(self, path, monkeypatch):
        # ||W^-1|| and the signed row against inv(W_i) of the same diagonal
        # blocks: read off the inverses of the block systems on the dense
        # paths (a normal A's scalar slices; a non-normal A's one block, as
        # verify-bounds --suite unit has it), and on the Lanczos path off the
        # W_i^-1 stack that substitution_pair forms from the one
        # _factor_step_block LU of each block; no path inverts a one-step stack
        rng = np.random.default_rng(31)
        k, m = 7, (20 if path == "lanczos" else 2)
        if path == "dense-one-block":
            a, case = random_contraction(rng, 4, norm=1.0), "unit_norm"
        else:
            a, case = random_hermitian_nsd(rng, 5), "hermitian_nsd"
        h = 1.0 / np.linalg.norm(a, 2)
        blocks, _ = _diagonal_blocks(a, _normal_spectrum(a))
        w = blocks.shape[-1]
        assert w == (4 if path == "dense-one-block" else 1)
        lay = BlockLayout(a.shape[0], m, k, 1, h)
        assert (lay.block_rows * w > SLICE_DENSE_CAP) == (path == "lanczos")
        factored, inverted = [], []

        def factor(block, fn=classical_solver._factor_step_block):
            factored.append(block.shape)
            return fn(block)

        def inv(stack, fn=np.linalg.inv):
            inverted.append(np.shape(stack)[-1])
            return fn(stack)

        with monkeypatch.context() as patch:
            patch.setattr(classical_solver, "_factor_step_block", factor)
            patch.setattr(np.linalg, "inv", inv)
            rep = inverse_norm_bounds(make_params(m, k, 1, m * h, "pade"), a, case)
        assert factored == ([(k + 1, k + 1)] * 5 if path == "lanczos" else [])
        assert (k + 1) * w not in inverted
        rec = SCHEMES["pade"](k)
        winv = np.linalg.inv(rec.one_step(blocks * h))
        rows = np.kron(rec.signs, np.eye(w)) @ winv
        assert rep.measured_w_inv == pytest.approx(
            max(np.linalg.norm(x, 2) for x in winv), rel=1e-14, abs=0.0)
        assert rep.measured_signed_row == pytest.approx(
            max(np.linalg.norm(x, 2) for x in rows), rel=1e-14, abs=0.0)

    def test_work_guard(self, rng, monkeypatch):
        # a normal A below the cap: one inverse (the block systems', which
        # hold W^-1), and no commutator test for a Hermitian A
        calls = []
        for name in ("_inverse", "_is_normal"):
            def counted(*args, fn=getattr(analysis, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(analysis, name, counted)
        a = random_hermitian_nsd(rng, 5)
        inverse_norm_bounds(make_params(2, 7, 2, 1.5, "pade"), a, "hermitian_nsd")
        propagator_drift(a, 0.75, 7, 2)
        assert calls == ["_inverse"]
        # a normal non-Hermitian A pays one commutator test and one inverse
        calls.clear()
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        a = (q * np.array([-0.6 + 0.5j, -0.2 - 0.7j, 0.3j])) @ q.conj().T
        inverse_norm_bounds(make_params(1, 5, 1, 1.0, "pade"), a, "unit_norm")
        assert calls == ["_is_normal", "_inverse"]

    def test_singular_block_above_the_cap_is_typed(self):
        # the [1/1] Padé step 1 - x/2 vanishes at the eigenvalue lam h = 2 of
        # a Hermitian A: its scalar block system (dimension 129) takes the
        # Lanczos branch, where the substitution's LU of W_i types it
        m = 64
        problem = OdeProblem(matrix_a=np.diag([2.0 * m, -1.0]), vec_b=np.ones(2),
                             vec_x0=np.ones(2), horizon=1.0)
        params = make_params(m, 1, 1, 1.0, "pade")
        assert BlockLayout(2, m, 1, 1, params.step_size).block_rows > SLICE_DENSE_CAP
        with pytest.raises(SingularBlockError) as info:
            extreme_singular_values(problem, params)
        assert info.value.step_index == 1

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
        # the [1/1] denominator 1 - x/2 vanishes at x = A h = 2; for the
        # non-normal A h = [[2, 1], [0, 2]], D_1(A h) = I - A h / 2 is singular,
        # and so is the one-step block W the drift reads R(A h) from
        with pytest.raises(SingularDenominatorError):
            propagator_drift(np.array([[2.0]]), 1.0, 1, 3)
        with pytest.raises(SingularDenominatorError):
            propagator_drift(np.array([[2.0, 1.0], [0.0, 2.0]]), 1.0, 1, 3)

    def test_non_normal_drift_matches_oracle(self):
        # the drift of a non-normal A reads R(A h) off the one-step block W; the
        # oracle is the Horner D^-1 N of tests/oracles.py behind exp(-A h), and
        # the i-th power of exp(-A h) R(A h) has norm at most exp(i ||A h||)
        for seed in range(60):
            local = np.random.default_rng(7000 + seed)
            n, k = int(local.integers(2, 9)), int(local.choice([3, 7, 15]))
            norm_ah, steps = float(local.uniform(0.1, 10.0)), int(local.integers(1, 5))
            h = float(local.uniform(0.5, 2.0))
            a = random_contraction(local, n, norm=norm_ah / h)
            assert _normal_spectrum(a) is None
            gmat = reference_expm(a, -h) @ pade_propagator(a, h, k)
            acc = np.eye(n, dtype=complex)
            oracle = []
            for _ in range(steps):
                acc = acc @ gmat
                oracle.append(np.linalg.norm(np.eye(n) - acc, 2))
            drift = propagator_drift(a, h, k, steps).per_step
            tol = 1e-12 * np.exp(norm_ah * np.arange(1, steps + 1))
            assert (np.abs(drift - oracle) <= tol).all()

    def test_large_step_violates(self):
        report = propagator_drift(np.array([[-5.0]]), 1.0, 1, 3)
        assert report.drift_max > 1.0
        assert not report.hypothesis_ok

    def test_matches_60_digit_reference(self):
        # samples of the thm36 bound suite (h ||A|| = theta_max(k, 1e-8)), whose
        # g_j lie within 1e-6 of 1, and a normal A whose eigenvalues are theirs
        # turned off the real axis; the reference is |g_j^i - 1| from the same
        # eigenvalues in 60 digits
        for seed in range(24):
            local = np.random.default_rng(9000 + seed)
            n, k = int(local.integers(2, 9)), int(local.choice([3, 7, 15]))
            a = random_hermitian_nsd(local, n)
            h = theta_max(k, 1e-8) / np.linalg.norm(a, 2)
            q, _ = np.linalg.qr(local.normal(size=(n, n)) + 1j * local.normal(size=(n, n)))
            lam = np.linalg.eigvalsh(a) * np.exp(1j * local.uniform(-1.5, 1.5, n))
            for mat in (a, (q * lam) @ q.conj().T):
                got = propagator_drift(mat, h, k, 4).per_step
                want = _drift_60_digits(_normal_spectrum(mat)[0], h, k, 4)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                assert mat is not a or want[0] < 1e-6

    def test_beyond_the_series_reach(self):
        # |x| = 15.2 lies past the reach 14.86 of the k = 15 series, where the
        # series' last term (about 1.5e-15) is far below the rounding of the
        # direct g - 1 at this complex x, off by 1e-7 relative
        k, x = 15, -12.88 - 8.04j
        got = propagator_drift(np.array([[x]]), 1.0, k, 1).per_step
        assert got == pytest.approx(_drift_60_digits([x], 1.0, k, 1), rel=1e-10, abs=0.0)


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
    def test_norm_of_a_huge_non_normal_a(self):
        # ||A||_2 = 1.7e308 sqrt(2) is past the double range, h ||A||_2 is not
        a = np.array([[0.0, 1.7e308], [0.0, -1.7e308]], dtype=complex)
        params = make_params(2, 3, 1, 1e-300, "pade")
        meas = analysis._measure(a, params)
        assert meas.spectrum is None
        assert meas.norm_ah == pytest.approx(5e-301 * 1.7e308 * math.sqrt(2), rel=1e-14)
        assert analysis._report(meas, params, None, {}).bound_l_norm == pytest.approx(
            0.5 * meas.norm_ah + 3.0, rel=1e-15)
        # an h ||A||_2 truly beyond the double range makes no infinite bound
        with pytest.raises(MagnitudeError, match="overflows"):
            analysis._report(replace(meas, norm_ah=math.inf), params, None, {})

    def test_trivial_instance_vs_svd(self):
        problem = OdeProblem(matrix_a=np.zeros((1, 1)), vec_b=np.ones(1),
                             vec_x0=np.ones(1), horizon=1.0)
        params = make_params(1, 1, 1, 1.0, "pade")
        report = condition_report(problem, params)
        svals = np.linalg.svd(assemble(problem, params).dense(), compute_uv=False)
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

    def test_transient_growth_skew_hermitian(self):
        # exp(A t) of a skew-Hermitian A is unitary; the real parts of eigvals
        # carry about eps ||A|| = 2e-10 here, which read c(A) = 1.00000015
        rng = np.random.default_rng(0)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = (b - b.conj().T) / 2
        a *= 1e6 / np.linalg.norm(a, 2)
        assert _normal_spectrum(a) is not None and not _normal_spectrum(a)[1]
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(4), vec_x0=np.ones(4), horizon=1e3)
        assert condition_report(problem, make_params(4, 3, 1, 1e3, "pade")).c_of_a == 1.0
