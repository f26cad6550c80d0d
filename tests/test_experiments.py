import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pade_lab import analysis, cli, experiments, system_builder
from pade_lab.classical_solver import march_terminal, propagated_terminal
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

#: The reference pool of the step-search benchmark, read in place.
POOL = Path(__file__).parents[1] / "perfbench" / "refs" / "step_search.json"


def stable_problem(seed=0, dim=5, horizon=5.0, unit_norm=False):
    a = random_stable_matrix(dim, seed)
    if unit_norm:
        a = a / np.linalg.norm(a, 2)
    ones = np.ones(dim)
    return OdeProblem(matrix_a=a, vec_b=ones, vec_x0=ones, horizon=horizon)


def doubling_search(problem, scheme, order, eps):
    """The former m* search, kept as an oracle: double m from 1 until a probe
    passes, then bisect back."""
    target = experiments._search_target(problem, scheme, order)

    def ok(m):
        return experiments._probe_error(problem, scheme, m, order, target) < eps

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > experiments.M_SEARCH_CAP:
            raise SearchError(f"no m <= {experiments.M_SEARCH_CAP} reaches eps={eps} for {scheme}")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def search_outcome(search, problem, scheme, order, eps):
    """m* of ``search``, or the text of its SearchError."""
    try:
        return search(problem, scheme, order, eps)
    except SearchError as exc:
        return str(exc)


class TestRandomStableMatrix:
    def test_eigenvalues_stable(self):
        for seed in range(10):
            a = random_stable_matrix(5, seed)
            assert np.linalg.eigvals(a).real.max() < 0.0

    def test_unit_norm(self):
        for seed in range(5):
            a = random_stable_matrix(5, seed)
            a = a / np.linalg.norm(a, 2)
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
        # the block systems of the diagonal blocks of A (eigenvalues or A
        # itself): no search, sweep row or kappa calls the assembler.  For the
        # non-normal A of the skewed cases the one block system is L itself,
        # formed densely by kron_sum up to SLICE_DENSE_CAP (m = 1) and as CSR by
        # csr_system above it (m = 3)
        def refuse(problem, params):
            raise AssertionError("L was assembled")

        for module in (system_builder, cli):
            monkeypatch.setattr(module, "assemble", refuse)
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


class TestSearchProbes:
    """Probes power the step map against one reference per search."""

    def test_one_reference_per_search(self, monkeypatch):
        calls = []
        expm = system_builder.reference_expm

        def counted(*args):
            calls.append(args)
            return expm(*args)

        monkeypatch.setattr(system_builder, "reference_expm", counted)
        problem = stable_problem(seed=3, horizon=25.0)
        assert find_min_steps(problem, "taylor", 9, 1e-10) == 62
        assert len(calls) == 1
        calls.clear()
        assert find_min_order(stable_problem(seed=5, horizon=1.0, unit_norm=True),
                              "taylor", 1e-10) == 9
        assert len(calls) == 1

    @pytest.mark.parametrize("horizon,want", [(200.0, 83), (1e3, 403)])
    def test_long_taylor_horizons_search_on(self, horizon, want):
        # the m = 1 Taylor step block has det 1 and huge A h / i entries; its
        # forward substitution needs no pivot, so that march is finite (and
        # far off), and the search reads it as a miss
        problem = stable_problem(seed=2, dim=3, horizon=horizon)
        assert np.isfinite(march_terminal(problem, make_params(1, 9, 1, horizon, "taylor"))).all()
        m_star = find_min_steps(problem, "taylor", 9, 1e-10)
        assert m_star == want

        def rel_error(m):
            return experiments._row(problem, make_params(m, 9, 1, horizon, "taylor"),
                                    False).rel_error

        assert rel_error(m_star) < 1e-10 <= rel_error(m_star - 1)

    def test_pool_m_star(self):
        # every 7th entry of the benchmark's reference pool, both schemes; the
        # pool cycles through four horizons, so a stride coprime with 4 takes
        # both dims at every horizon
        ref = json.loads(POOL.read_text())
        for dims, seed, horizon, m_pade, m_taylor in ref["rows"][::7]:
            problem = stable_problem(seed=seed, dim=dims, horizon=horizon)
            for scheme, want in (("pade", m_pade), ("taylor", m_taylor)):
                assert find_min_steps(problem, scheme, ref["order"], ref["eps"]) == want, \
                    (dims, seed, horizon, scheme)


class TestSearchReadsTheError:
    """The bracketing search of ``find_min_steps`` against the doubling oracle."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 5), seed=st.integers(0, 2**16), horizon=st.floats(0.5, 60.0),
           order=st.sampled_from([3, 5, 9]), scheme=st.sampled_from(["pade", "taylor"]),
           eps=st.sampled_from([1e-4, 1e-7, 1e-10]))
    def test_matches_doubling_search(self, dim, seed, horizon, order, scheme, eps):
        problem = stable_problem(seed=seed, dim=dim, horizon=horizon)
        assert (search_outcome(find_min_steps, problem, scheme, order, eps)
                == search_outcome(doubling_search, problem, scheme, order, eps))

    @pytest.mark.parametrize("horizon", [200.0, 1e3])
    def test_singular_early_probes(self, horizon):
        # a probe that raises SingularBlockError is a miss of error inf: the
        # singular [1/1] Padé step at A h = 2
        singular = OdeProblem(matrix_a=np.eye(2), vec_b=np.ones(2), vec_x0=np.ones(2),
                              horizon=2.0)
        target = experiments._search_target(singular, "pade", 1)
        assert experiments._probe_error(singular, "pade", 1, 1, target) == np.inf
        # the far-off early Taylor probes of long horizons: both searches agree
        problem = stable_problem(seed=2, dim=3, horizon=horizon)
        assert (find_min_steps(problem, "taylor", 9, 1e-10)
                == doubling_search(problem, "taylor", 9, 1e-10))

    def test_error_beyond_the_double_range_is_inf(self):
        # the retry scales the states by 2^-586, where norm * scale would
        # round to 0; the distance 2e176 over the norm 9.9e-205 is inf
        state = np.array([9.9e-205])
        assert experiments._rel_error(np.array([2e176]), (state, 9.9e-205)) == np.inf

    def test_probe_count_guard(self, monkeypatch):
        # the every-7th pool subset of test_pool_m_star: 1213 probes against
        # the oracle's 2048
        calls = []

        def counted(problem, params):
            calls.append(params.steps)
            return propagated_terminal(problem, params)

        monkeypatch.setattr(experiments, "propagated_terminal", counted)
        ref = json.loads(POOL.read_text())
        counts = {}
        for search in (find_min_steps, doubling_search):
            calls.clear()
            for dims, seed, horizon, m_pade, m_taylor in ref["rows"][::7]:
                problem = stable_problem(seed=seed, dim=dims, horizon=horizon)
                for scheme, want in (("pade", m_pade), ("taylor", m_taylor)):
                    assert search(problem, scheme, ref["order"], ref["eps"]) == want
            counts[search] = len(calls)
        assert counts[find_min_steps] <= 0.7 * counts[doubling_search]


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
