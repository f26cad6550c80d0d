import numpy as np
import pytest

from pade_lab import analysis, experiments, system_builder
from pade_lab.errors import PadeLabError, SchemeError, SearchError, SingularBlockError
from pade_lab.error_bounds import make_params
from pade_lab.experiments import (
    find_min_order,
    find_min_steps,
    random_stable_matrix,
    random_suite_m_star,
    sweep_k,
    sweep_m,
)
from pade_lab.pade_core import OdeProblem


def stable_problem(seed=0, dim=5, horizon=5.0, unit_norm=False):
    a = random_stable_matrix(dim, seed, unit_norm=unit_norm)
    ones = np.ones(dim)
    return OdeProblem(matrix_a=a, vec_b=ones, vec_x0=ones, horizon=horizon)


class TestRandomStableMatrix:
    def test_eigenvalues_stable(self):
        for seed in range(10):
            a = random_stable_matrix(5, seed)
            assert np.linalg.eigvals(a).real.max() < 0.0

    def test_unit_norm(self):
        for seed in range(5):
            a = random_stable_matrix(5, seed, unit_norm=True)
            assert np.linalg.norm(a, 2) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvals(a).real.max() < 0.0

    def test_deterministic(self):
        assert np.array_equal(random_stable_matrix(4, 11), random_stable_matrix(4, 11))


class TestSweeps:
    def test_sweep_m_rows_and_m_star(self):
        problem = stable_problem(seed=2, horizon=3.0)
        report = sweep_m(problem, order=9, eps=1e-10, m_range=range(1, 7),
                         with_kappa=True)
        pade_rows = [r for r in report.rows if r.scheme == "pade"]
        assert [r.steps for r in pade_rows] == list(range(1, 7))
        assert all(r.rel_error >= 0 and 0 <= r.p_succ <= 1 for r in report.rows)
        m_star = report.aggregate["m_star"]
        if m_star["pade"] is not None and m_star["taylor"] is not None:
            assert m_star["pade"] <= m_star["taylor"]

    def test_sweep_rows_sorted_by_swept_variable(self):
        problem = stable_problem(seed=4, horizon=2.0)
        report = sweep_m(problem, order=5, eps=1e-8, m_range=[4, 1, 2],
                         with_kappa=False)
        for scheme in ("pade", "taylor"):
            steps = [r.steps for r in report.rows if r.scheme == scheme]
            assert steps == sorted(steps)

    def test_loose_eps_gives_order_one(self):
        a = -0.5 * np.eye(5)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(5), vec_x0=np.ones(5), horizon=1.0)
        report = sweep_k(problem, eps=1.0)
        assert report.aggregate["k_star"] == {"pade": 1, "taylor": 1}

    def test_find_min_steps_boundary(self):
        problem = stable_problem(seed=3, horizon=4.0)
        from pade_lab.experiments import _row

        def rel_error(m):
            return _row(problem, make_params(m, 9, 1, 4.0, scheme), False).rel_error

        for scheme in ("pade", "taylor"):
            m_star = find_min_steps(problem, scheme, 9, 1e-10)
            assert rel_error(m_star) < 1e-10
            if m_star > 1:
                assert rel_error(m_star - 1) >= 1e-10

    def test_searches_never_assemble(self, monkeypatch):
        # probes and rows march the one-step block, and kappa is measured on
        # the diagonal blocks of A (eigenvalues or A itself): L is never built
        def refuse(problem, params):
            raise AssertionError("L was assembled")

        for scheme in ("pade", "taylor"):
            monkeypatch.setitem(system_builder.BUILDERS, scheme, refuse)
        problem = stable_problem(seed=3, horizon=25.0)
        assert find_min_steps(problem, "pade", 9, 1e-10) == 7
        assert find_min_steps(problem, "taylor", 9, 1e-10) == 62
        problem = stable_problem(seed=5, horizon=1.0, unit_norm=True)
        assert find_min_order(problem, "pade", 1e-10) == 4
        assert find_min_order(problem, "taylor", 1e-10) == 9
        suite = random_suite_m_star(3, [0, 1], [1.0], eps=1e-8, order=5)
        assert len(suite.rows) == 4 and all(r.rel_error < 1e-8 for r in suite.rows)

        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        lam = np.array([-1.0 + 2.0j, -0.5 - 1.0j, -2.0 + 0.3j, -0.2])
        normal = OdeProblem(matrix_a=(q * lam) @ q.conj().T, vec_b=np.ones(4),
                            vec_x0=np.ones(4), horizon=3.0)
        rows = sweep_m(normal, order=9, eps=1e-10, m_range=[1, 3, 14]).rows
        assert len(rows) == 6 and all(np.isfinite(r.kappa) for r in rows)
        assert all(np.isfinite(r.kappa) for r in sweep_k(normal, eps=1e-10).rows)
        assert analysis.condition_report(normal, make_params(3, 9, 2, 3.0, "pade")).kappa > 1

        skewed = stable_problem(seed=2, dim=4, horizon=3.0)
        assert all(np.isfinite(r.kappa) for r in sweep_m(skewed, order=9, eps=1e-10,
                                                         m_range=[1, 3]).rows)
        assert all(np.isfinite(r.kappa) for r in sweep_k(skewed, eps=1e-10).rows)
        assert analysis.condition_report(skewed, make_params(2, 5, 1, 3.0, "taylor")).kappa > 1

    def test_unknown_scheme_is_typed(self):
        with pytest.raises(SchemeError, match="unknown scheme 'rk4'") as info:
            find_min_steps(stable_problem(), "rk4", 9, 1e-10)
        assert isinstance(info.value, PadeLabError)

    def test_overflowing_sweep_is_typed(self):
        # [9/9] Padé of e^30 per step: the coupling row overflows long before m = 300
        problem = OdeProblem(matrix_a=np.array([[30.0]]), vec_b=np.zeros(1),
                             vec_x0=np.ones(1), horizon=300.0)
        with pytest.raises(SingularBlockError) as info:
            sweep_m(problem, order=9, eps=1e-10, m_range=[300], with_kappa=False)
        assert 1 < info.value.step_index < 300

    def test_searches_stop_at_their_caps(self, monkeypatch):
        problem = stable_problem(seed=3, horizon=4.0)
        monkeypatch.setattr(experiments, "M_SEARCH_CAP", 4)
        monkeypatch.setattr(experiments, "K_SEARCH_CAP", 2)
        with pytest.raises(SearchError, match="no m <= 4 "):
            find_min_steps(problem, "taylor", 3, 1e-10)
        with pytest.raises(SearchError, match="no order <= 2 "):
            find_min_order(problem, "pade", 1e-10)

    def test_sweep_k_trend_sample(self):
        problem = stable_problem(seed=5, horizon=1.0, unit_norm=True)
        report = sweep_k(problem, eps=1e-10)
        k_star = report.aggregate["k_star"]
        assert k_star["pade"] < k_star["taylor"]

    def test_csv_deterministic(self):
        problem = stable_problem(seed=6, horizon=2.0)
        a = sweep_m(problem, order=5, eps=1e-8, m_range=range(1, 4), with_kappa=True)
        b = sweep_m(problem, order=5, eps=1e-8, m_range=range(1, 4), with_kappa=True)
        assert a.to_csv() == b.to_csv()

    def test_exp1_error_decays_monotonically_to_noise(self):
        # empirical check on the tridiagonal instance: nonincreasing until the
        # float noise floor takes over
        a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
        problem = OdeProblem(matrix_a=a, vec_b=np.ones(5), vec_x0=np.ones(5), horizon=30.0)
        report = sweep_m(problem, order=9, eps=1e-10, m_range=range(1, 7),
                         with_kappa=False)
        errs = [max(r.rel_error, 1e-14) for r in report.rows if r.scheme == "pade"]
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert report.aggregate["m_star"]["pade"] <= 5


@pytest.mark.slow
class TestRandomSuite:
    def test_mean_gap_grows_with_horizon(self):
        # the hundred-matrix suite at the desk-scale horizon grid
        report = random_suite_m_star(5, range(100), [1.0, 10.0, 25.0, 50.0],
                                     eps=1e-10, order=9)
        means = report.aggregate["mean_m_star"]
        gaps = []
        for horizon in (1.0, 10.0, 25.0, 50.0):
            assert means["pade"][horizon] <= means["taylor"][horizon]
            gaps.append(means["taylor"][horizon] - means["pade"][horizon])
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
