import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pade_lab import circuit_sim, cli, experiments, system_builder
from pade_lab.classical_solver import march_solution, state_distance
from pade_lab.cli import EXIT_OK, EXIT_USAGE, _apply_config, build_parser, run_cli
from pade_lab.error_bounds import make_params
from pade_lab.errors import SingularBlockError
from pade_lab.pade_core import OdeProblem
from pade_lab.system_builder import classical_reference_trajectory, load_problem, save_problem

from conftest import random_hermitian_nsd


@pytest.fixture
def problem_file(tmp_path, rng):
    a = random_hermitian_nsd(rng, 3, scale=1.5)
    problem = OdeProblem(matrix_a=a, vec_b=np.ones(3), vec_x0=np.ones(3), horizon=2.0)
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    return path


_HUGE_STEP = '{"n":1,"a":[[-1e308]],"b":[0],"x0":[1],"T":1000}'
_HUGE_COUPLING = '{"n":2,"a":[[-1,1e308],[0,-1]],"b":[1,1],"x0":[1,1],"T":1}'
_HUGE_SKEW = '{"n":2,"a":[[0,1.7e308],[-1.7e308,0]],"b":[0,0],"x0":[1,1],"T":1e-10}'
_HUGE_NORMAL = '{"n":2,"a":[[-1e300,1e300],[1e300,-1e300]],"b":[1,1],"x0":[1,1],"T":1}'
_NON_NORMAL_COMPLEX = ('{"n":3,"a":[[{"re":-1,"im":0.5},2,{"re":0,"im":0.3}],'
                       '[0,{"re":-0.5,"im":-1},1.5],[0.25,0,{"re":-2,"im":0.1}]],'
                       '"b":[1,{"re":0,"im":1},-1],"x0":[1,2,3],"T":1.5}')


def run(argv):
    buf = io.StringIO()
    code = run_cli(argv, stdout=buf)
    return code, buf.getvalue()


class TestBasics:
    def test_unknown_subcommand(self):
        code, _ = run(["nonsense"])
        assert code == EXIT_USAGE

    def test_unknown_flag(self):
        code, _ = run(["theta-table", "--bogus", "1"])
        assert code == EXIT_USAGE

    def test_coeffs(self):
        code, out = run(["coeffs", "--k", "3"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "j,n_j,d_j,n_j_exact,d_j_exact"
        assert lines[1].endswith("1,1")
        assert "1/2" in lines[2]

    def test_theta_table_deterministic(self):
        code1, out1 = run(["theta-table", "--delta", "1e-8", "--kmin", "5", "--kmax", "6"])
        code2, out2 = run(["theta-table", "--delta", "1e-8", "--kmin", "5", "--kmax", "6"])
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        rows = dict(line.split(",") for line in out1.strip().splitlines()[1:])
        assert float(rows["5"]) == pytest.approx(1.49, abs=0.01)
        assert float(rows["6"]) == pytest.approx(2.36, abs=0.01)

    def test_theta_table_large_orders_are_quiet(self, capfd):
        # k >= 45 overflows the exact head of the remainder bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(["theta-table", "--kmin", "45", "--kmax", "64"])
        assert code == EXIT_OK
        assert len(out.splitlines()) == 21
        assert capfd.readouterr().err == ""


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data"


@pytest.mark.parametrize("argv,name", [
    (["theta-table"], "theta_table.csv"),
    (["theta-table", "--kmin", "1", "--kmax", "64"], "theta_table_k1_64.csv"),
    (["verify-bounds", "--suite", "hermitian"], "bounds_hermitian.csv"),
    (["verify-bounds", "--suite", "thm36"], "bounds_thm36.csv"),
    (["verify-bounds", "--suite", "unit"], "bounds_unit.csv"),
    (["random-suite", "--seeds", "10", "--dims", "5", "--t-grid", "1,10,25,50"],
     "random_suite_d5.csv"),
])
def test_output_matches_golden_bytes(argv, name):
    # recorded before the remainder series, theta and the scheme records were
    # computed once per order, and the random suite before its search probes
    # powered the step map; neither change may move a byte.  The random suite
    # was recorded again when the Taylor step became a forward substitution:
    # its Taylor rel_error cells moved, by at most 4.7e-15
    code, out = run(argv)
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / name).read_bytes()


def _fresh_process(argv, preexec_fn=None, **env) -> subprocess.CompletedProcess:
    """``pade-lab argv`` in a fresh process, with ``env`` added to the environment
    and ``preexec_fn`` run in the child before it starts."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "pade_lab.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=300, preexec_fn=preexec_fn)


@functools.lru_cache(maxsize=None)
def _stdout_at_threads(argv: tuple, threads: str) -> bytes:
    """Standard output of ``pade-lab argv`` in a fresh process with OpenBLAS
    at ``threads`` threads, run once per (argv, threads)."""
    proc = _fresh_process(argv, OPENBLAS_NUM_THREADS=threads)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("threads", ["1", "2"])
def test_random_suite_bytes_do_not_depend_on_blas_threads(threads):
    # the march solves W once, for all its steps, over n + 2 columns (the Padé
    # step by one LU, the Taylor step by forward substitution): OpenBLAS's
    # one-column getrs returns other bits at 1 and 2 threads, its multi-column
    # getrs does not.  The second suite's blocks are 80 wide, the largest at
    # which zgetrf itself was measured thread-independent
    golden = ("random-suite", "--seeds", "10", "--dims", "5", "--t-grid", "1,10,25,50")
    assert _stdout_at_threads(golden, threads) == (GOLDEN / "random_suite_d5.csv").read_bytes()
    wide = ("random-suite", "--seeds", "3", "--dims", "8", "--t-grid", "10,50")
    other = "2" if threads == "1" else "1"
    assert _stdout_at_threads(wide, threads) == _stdout_at_threads(wide, other)


class TestSystemCommands:
    def test_build_writes_export(self, problem_file, tmp_path):
        code, out = run(["--out", str(tmp_path), "build", "--problem", str(problem_file),
                         "--scheme", "pade", "--m", "2", "--k", "3", "--p", "2"])
        assert code == EXIT_OK
        path = tmp_path / "system_pade.txt"
        assert path.exists()
        header = path.read_text().splitlines()[0].split()
        assert header[2] == "pade" and header[3:7] == ["3", "2", "3", "2"]

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    @pytest.mark.parametrize("case", ["hermitian", "nonnormal"])
    def test_build_export_matches_golden_bytes(self, problem_file, tmp_path, scheme, case):
        # the export of the assembled L, recorded before the sparse expansion
        # took one block and wrote its entries straight into the CSR matrix;
        # no byte may move
        if case == "nonnormal":
            problem_file = tmp_path / "nonnormal.json"
            problem_file.write_text(_NON_NORMAL_COMPLEX)
        code, _ = run(["--out", str(tmp_path), "build", "--problem", str(problem_file),
                       "--scheme", scheme, "--m", "2", "--k", "3", "--p", "2"])
        assert code == EXIT_OK
        got = (tmp_path / f"system_{scheme}.txt").read_bytes()
        assert got == (GOLDEN / f"build_{scheme}_{case}.txt").read_bytes()

    def test_solve_json(self, problem_file):
        code, out = run(["solve", "--problem", str(problem_file), "--scheme", "pade",
                         "--m", "3", "--k", "5", "--p", "2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"terminal", "p_succ", "residual", "distance_to_reference"}
        assert doc["distance_to_reference"] <= 1e-8

    @pytest.mark.parametrize("scheme", ["pade", "taylor"])
    def test_solve_assembles_nothing(self, problem_file, scheme, monkeypatch):
        # solve marches the one-step block and forms its residual from the
        # scalar patterns: neither the assembler nor the CSR expansion runs,
        # and the march's bytes are what it prints.  Each name is patched
        # where it is defined and where the CLI imports it, and must exist there
        def refuse(*args, **kwargs):
            raise AssertionError("L was assembled")

        for module, name in ((system_builder, "assemble"), (system_builder, "csr_system"),
                             (cli, "assemble")):
            monkeypatch.setattr(module, name, refuse)
        code, out = run(["solve", "--problem", str(problem_file), "--scheme", scheme,
                         "--m", "3", "--k", "5", "--p", "2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        problem = load_problem(problem_file)
        params = make_params(3, 5, 2, problem.horizon, scheme)
        marched = march_solution(problem, params)
        reference = classical_reference_trajectory(problem, params).states[-1]
        terminal = [[z.real, z.imag] for z in marched.terminal]
        assert np.array(doc["terminal"]).tobytes() == np.array(terminal).tobytes()
        assert np.float64(doc["p_succ"]).tobytes() == np.float64(marched.p_succ).tobytes()
        distance = state_distance(marched.terminal, reference)
        assert np.float64(doc["distance_to_reference"]).tobytes() == np.float64(distance).tobytes()

    def test_analyze_consistent_with_sweep(self, problem_file, tmp_path):
        code, analyzed = run(["analyze", "--problem", str(problem_file), "--scheme",
                              "pade", "--m", "2", "--k", "5", "--p", "1"])
        assert code == EXIT_OK
        doc = json.loads(analyzed)
        code, swept = run(["sweep-m", "--problem", str(problem_file), "--k", "5",
                           "--eps", "1e-8", "--m-min", "2", "--m-max", "2"])
        assert code == EXIT_OK
        row = [line for line in swept.splitlines() if line.startswith("pade")][0]
        assert float(row.split(",")[6]) == pytest.approx(doc["kappa"], rel=1e-8)
        assert float(row.split(",")[7]) == pytest.approx(doc["p_succ"], rel=1e-8)

    def test_huge_entries_classify_as_at_unit_scale(self, tmp_path, capsys):
        # A = diag(-1, -2) e160 over T = 1e-160 has the A h of diag(-1, -2) over
        # T = 1; the normality test must not square the entries of A
        docs = {"huge": '{"n":2,"a":[[-1e160,0],[0,-2e160]],"b":[0,0],"x0":[1,1],"T":1e-160}',
                "unit": '{"n":2,"a":[[-1,0],[0,-2]],"b":[0,0],"x0":[1,1],"T":1}'}
        reports = {}
        for name, text in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            code, out = run(["analyze", "--problem", str(path), "--m", "1", "--k", "3"])
            assert code == EXIT_OK
            assert capsys.readouterr().err == ""
            reports[name] = json.loads(out)
        huge, unit = reports["huge"], reports["unit"]
        assert huge["case"] == unit["case"] == "hermitian_nsd"
        assert set(huge["satisfied"]) == set(unit["satisfied"]) >= {"l_inv", "kappa"}
        for key in ("norm_l", "norm_l_inv", "kappa"):
            assert huge[key] == pytest.approx(unit[key], rel=1e-12, abs=0.0)

    def test_env_var_overrides_out(self, problem_file, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("PADE_LAB_OUT", str(env_dir))
        code, _ = run(["--out", str(tmp_path / "flag_out"), "build", "--problem",
                       str(problem_file), "--scheme", "taylor", "--m", "1", "--k", "2"])
        assert code == EXIT_OK
        assert (env_dir / "system_taylor.txt").exists()
        assert not (tmp_path / "flag_out").exists()


class TestVerification:
    def test_verify_bounds_hermitian(self):
        code, out = run(["verify-bounds", "--suite", "hermitian", "--seeds", "4"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "sample,n,k,measured,bound,margin,ok"
        assert len(lines) == 5
        assert all(line.endswith(",1") for line in lines[1:])

    def test_verify_bounds_thm36(self):
        code, out = run(["verify-bounds", "--suite", "thm36", "--seeds", "3"])
        assert code == EXIT_OK

    def test_verify_bounds_unit(self):
        code, out = run(["verify-bounds", "--suite", "unit", "--seeds", "3"])
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4

    def test_circuit_verify(self):
        code, out = run(["circuit-verify", "--n", "2", "--m", "2", "--k1", "2",
                         "--h", "1.0", "--random-a", "5"])
        assert code == EXIT_OK
        assert "alpha=" in out and "ancillas=" in out

    def test_circuit_verify_rejects_bad_n(self):
        code, _ = run(["circuit-verify", "--n", "3"])
        assert code == EXIT_USAGE


class TestSweepCommands:
    def test_sweep_k(self, problem_file):
        code, out = run(["sweep-k", "--problem", str(problem_file), "--eps", "1e-6"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "scheme,T,m,k,p,rel_error,kappa,p_succ"
        assert {line.split(",")[0] for line in lines[1:]} == {"pade", "taylor"}

    def test_sweep_m_singular_system_reports_nan_kappa(self, tmp_path, monkeypatch):
        # the Taylor system at m = 12 has det L = 1 and a finite kappa
        a = np.diag([-2.0] * 5) + np.diag([1.0] * 4, 1) + np.diag([1.0] * 4, -1)
        path = tmp_path / "tri.json"
        save_problem(OdeProblem(matrix_a=a, vec_b=np.ones(5), vec_x0=np.ones(5),
                                horizon=30.0), path)
        argv = ["sweep-m", "--problem", str(path), "--k", "9", "--eps", "1e-10",
                "--m-min", "12", "--m-max", "12"]

        def kappas():
            code, out = run(argv)
            assert code == EXIT_OK
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            assert len(rows) == 2
            return {row[0]: float(row[6]) for row in rows}

        kappa = kappas()
        assert set(kappa) == {"pade", "taylor"} and all(map(np.isfinite, kappa.values()))

        # an exactly singular step block writes nan and the sweep goes on
        def singular(*args):
            raise SingularBlockError("diagonal block pivot ratio 0.00e+00", step_index=1)

        monkeypatch.setattr(experiments, "extreme_singular_values", singular)
        assert all(map(np.isnan, kappas().values()))

    def test_random_suite_small(self):
        code, out = run(["random-suite", "--seeds", "2", "--dims", "3",
                         "--t-grid", "1,2", "--eps", "1e-6", "--k", "5"])
        assert code == EXIT_OK
        assert "mean_m*" in out


class TestReadme:
    def test_cli_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("pade-lab ")]
        assert len(lines) == 11
        for line in lines:
            build_parser().parse_args(_apply_config(shlex.split(line)[1:]))


class TestConfig:
    def test_config_presets(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("delta=1e-8\nkmin=5\nkmax=5\n")
        code, out = run(["--config", str(cfg), "theta-table"])
        assert code == EXIT_OK
        assert out.strip().splitlines()[1].startswith("5,")

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("kmin=5\nkmax=5\n")
        code, out = run(["--config", str(cfg), "theta-table", "--kmax", "6"])
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 3


class TestBadInput:
    """Inputs that once escaped run_cli with a traceback or a wrong message."""

    def test_config_without_file(self):
        code, _ = run(["theta-table", "--config"])
        assert code == EXIT_USAGE
        code, _ = run(["--config"])
        assert code == EXIT_USAGE

    def test_config_after_out_value(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("kmin=5\nkmax=5\n")
        out_dir = tmp_path / "o"
        code, _ = run(["--out", str(out_dir), "--config", str(cfg), "theta-table"])
        assert code == EXIT_OK
        assert (out_dir / "theta_table.csv").read_text().splitlines()[1:] == ["5,1.4944"]

    def test_config_line_without_value(self, tmp_path, capsys):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("kmin\n")
        code, _ = run(["--config", str(cfg), "theta-table"])
        assert code == EXIT_USAGE
        assert "expected key=value" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        # UnicodeDecodeError is a ValueError, which run_cli does not catch
        cfg = tmp_path / "preset.cfg"
        cfg.write_bytes(b"\xff\xfekmin=5\n")
        code, _ = run(["--config", str(cfg), "theta-table"])
        assert code == EXIT_USAGE
        assert "not a UTF-8 text file" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "a", "b", "x0", "T"])
    def test_problem_without_key(self, problem_file, key, capsys):
        doc = json.loads(problem_file.read_text())
        del doc[key]
        problem_file.write_text(json.dumps(doc))
        code, _ = run(["solve", "--problem", str(problem_file), "--m", "1", "--k", "3"])
        assert code == EXIT_USAGE
        assert f"lacks the key '{key}'" in capsys.readouterr().err

    def test_truncated_problem(self, problem_file, capsys):
        text = problem_file.read_text()
        problem_file.write_text(text[: len(text) // 2])
        code, _ = run(["solve", "--problem", str(problem_file), "--m", "1", "--k", "3"])
        assert code == EXIT_USAGE
        assert "not a JSON problem document" in capsys.readouterr().err

    def test_problem_order_past_the_integers(self, problem_file, capsys):
        # "n": 1e400 reads as inf, whose int() raises OverflowError
        doc = json.loads(problem_file.read_text())
        problem_file.write_text(json.dumps(doc).replace(f'"n": {doc["n"]}', '"n": 1e400'))
        code, _ = run(["solve", "--problem", str(problem_file), "--m", "1", "--k", "3"])
        assert code == EXIT_USAGE
        assert "error: malformed problem document" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["circuit-verify", "--n", "1048576"],  # the 16 TiB zero A
        ["circuit-verify", "--m", "1048576"],  # a 128 TiB primitive target
        ["solve", "--scheme", "taylor", "--m", "1", "--k", "100000"],  # a 74.5 GiB pattern
        ["solve", "--m", "100000000", "--k", "9"],  # a 44.7 GiB rhs
    ], ids=["circuit-n", "circuit-m", "taylor-order", "steps"])
    def test_allocation_past_memory_is_one_error_line(self, problem_file, argv):
        # the child's address space is capped at 4 GiB, so each allocation is
        # refused whatever the host's overcommit mode
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))

        if argv[0] == "solve":
            argv = [*argv, "--problem", str(problem_file)]
        proc = _fresh_process(argv, preexec_fn=cap, OPENBLAS_NUM_THREADS="1")
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_USAGE and "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate")

    def test_zero_steps(self, problem_file, capsys):
        code, _ = run(["solve", "--problem", str(problem_file), "--m", "0", "--k", "3"])
        assert code == EXIT_USAGE
        assert "steps must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--m", "0"), ("--k1", "1"), ("--h", "nan"),
                                            ("--h", "1e400"), ("--h", "0")])
    def test_circuit_verify_bad_step(self, flag, value, capsys):
        code, _ = run(["circuit-verify", "--n", "1", "--m", "1", "--k1", "2", flag, value])
        assert code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("random_a", [[], ["--random-a", "7"]], ids=["zero", "hermitian"])
    def test_overflowing_stage_normalization_is_typed(self, random_a, capfd):
        # a finite --h whose stage normalization 3 alpha h overflows: inf times
        # the projection made the residual's SVD fail on NaN
        argv = ["circuit-verify", "--n", "2", "--m", "2", "--k1", "4", "--h", "1e308", *random_a]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(argv)
        assert code == EXIT_USAGE
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: stage normalization")
        assert not [key for key in circuit_sim._held if key[3:] and key[3] > 1e300]

    @pytest.mark.parametrize("argv,flag", [
        (["random-suite", "--seeds", "1", "--dims", "-1", "--t-grid", "1"], "--dims"),
        (["random-suite", "--seeds", "1", "--dims", "2", "--t-grid", "1,x"], "--t-grid"),
        (["circuit-verify", "--n", "1", "--m", "1", "--k1", "2", "--random-a", "-1"],
         "--random-a"),
    ], ids=["dims", "t-grid", "random-a"])
    def test_bad_value_names_its_flag(self, argv, flag, capsys):
        code, _ = run(argv)
        assert code == EXIT_USAGE
        assert f"usage error: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_bound_suite_without_samples(self, seeds, capsys):
        code, out = run(["verify-bounds", "--suite", "hermitian", "--seeds", seeds])
        assert code == EXIT_USAGE and out == ""
        assert "usage error: --seeds must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "0", "-0.5"])
    def test_sweep_without_reachable_eps(self, problem_file, eps, capsys):
        code, out = run(["sweep-m", "--problem", str(problem_file), "--k", "3", "--eps", eps,
                         "--m-max", "2"])
        assert code == EXIT_USAGE and out == ""
        assert "eps must be positive" in capsys.readouterr().err

    def test_empty_random_suite(self, capsys):
        code, _ = run(["random-suite", "--seeds", "0", "--dims", "2", "--t-grid", "1"])
        assert code == EXIT_USAGE
        assert "empty seed" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, capsys):
        # numpy's default_rng raised an untyped ValueError on the first seed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(["--seed", "-3", "random-suite", "--seeds", "1", "--dims", "2",
                             "--t-grid", "1"])
        assert code == EXIT_USAGE and out == ""
        assert "--seed must be a non-negative seed" in capsys.readouterr().err

    def test_overflowing_steps_are_typed(self, tmp_path, capsys):
        path = tmp_path / "growth.json"
        path.write_text('{"n":1,"a":[[30]],"b":[0],"x0":[1],"T":300}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape run_cli
            code, _ = run(["solve", "--problem", str(path), "--scheme", "pade",
                           "--m", "300", "--k", "9"])
        assert code == EXIT_USAGE
        assert "error: non-finite solution at step " in capsys.readouterr().err

    def test_overflowing_reference_is_typed(self, tmp_path, capfd):
        path = tmp_path / "growth.json"
        path.write_text('{"n":1,"a":[[30]],"b":[0],"x0":[1],"T":300}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(["solve", "--problem", str(path), "--scheme", "pade",
                             "--m", "100", "--k", "9"])
        assert code == EXIT_USAGE and out == ""
        err = capfd.readouterr().err
        assert "error: reference trajectory overflows at step " in err
        assert "RuntimeWarning" not in err

    def test_overflowing_inverse_never_reaches_arpack(self, tmp_path):
        # the Taylor powers of A h = 4.5 pass the double range, so L^-1 L^-H is
        # not finite at its first application; ARPACK read that vector, LAPACK's
        # DLASCL printed its refusal on the Fortran streams and the run ended in
        # an ARPACK workspace error
        path = tmp_path / "growth.json"
        path.write_text('{"n":1,"a":[[30]],"b":[0],"x0":[1],"T":30}')
        proc = _fresh_process(["analyze", "--problem", str(path), "--scheme", "taylor",
                               "--m", "200", "--k", "9"])
        assert proc.returncode == EXIT_USAGE and proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            "error: L^-1 L^-H of a block system overflows the double range"]

    def test_delta_nan(self, capsys):
        code, _ = run(["theta-table", "--delta", "nan", "--kmin", "5", "--kmax", "5"])
        assert code == EXIT_USAGE
        assert "delta must be positive and finite" in capsys.readouterr().err

    def test_empty_order_range(self, capsys):
        code, out = run(["theta-table", "--kmin", "5", "--kmax", "4"])
        assert code == EXIT_USAGE and out == ""
        assert "usage error: --kmin must not exceed --kmax" in capsys.readouterr().err

    @pytest.mark.parametrize("via_config", [False, True], ids=["argv", "config"])
    def test_prefix_of_a_flag_is_not_the_flag(self, via_config, tmp_path, capsys):
        # --seed is a global flag, not a prefix of the subcommand's --seeds
        argv = ["random-suite", "--dims", "2", "--t-grid", "1"]
        if via_config:
            cfg = tmp_path / "preset.cfg"
            cfg.write_text("seed=3\n")
            argv = ["--config", str(cfg)] + argv
        else:
            argv[1:1] = ["--seed", "3"]
        code, out = run(argv)
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_prefix_of_dim_cap_is_not_dim_cap(self, problem_file, capsys):
        code, out = run(["analyze", "--problem", str(problem_file), "--m", "2", "--k", "5",
                         "--dim", "5"])
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --dim 5" in capsys.readouterr().err

    def test_capped_search_gives_no_row(self, capsys):
        # the Padé search finds m* = 1632; the Taylor one passes M_SEARCH_CAP
        code, out = run(["random-suite", "--seeds", "1", "--dims", "3", "--t-grid", "1e6"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert [line.split(",")[:3] for line in lines[1:-1]] == [["pade", "1000000", "1632"]]
        assert lines[-1] == "T=1e+06 mean_m*: pade=1632.00 taylor=nan"
        err = capsys.readouterr().err
        assert f"capped: no m <= {experiments.M_SEARCH_CAP} reaches eps=1e-10 for taylor " \
               "at T=1e+06, seed 0; no row" in err

    # A h = -1e308 * 50 overflows; the second A has a finite A t whose 2-norm
    # overflows the scaling of the reference exponential, and at m = 20 the
    # Gram of its block system overflows in the Lanczos run on it.  A - A^H of the
    # skew A overflows in the Hermitian test and its growth exp(max Re lam T)
    # overflows; N and D of the normal A overflow on its spectrum
    @pytest.mark.parametrize("doc,argv", [
        (_HUGE_STEP, ["build", "--m", "20", "--k", "9"]),
        (_HUGE_STEP, ["solve", "--m", "20", "--k", "9"]),
        (_HUGE_STEP, ["sweep-m", "--k", "9", "--eps", "1e-8", "--m-min", "19", "--m-max", "20"]),
        (_HUGE_STEP, ["analyze", "--m", "20", "--k", "9"]),
        (_HUGE_STEP, ["sweep-k", "--eps", "1e-8"]),
        (_HUGE_COUPLING, ["analyze", "--m", "2", "--k", "3"]),
        (_HUGE_COUPLING, ["sweep-k", "--eps", "1e-8"]),
        (_HUGE_COUPLING, ["analyze", "--m", "20", "--k", "9"]),
        (_HUGE_SKEW, ["analyze", "--m", "2", "--k", "3"]),
        (_HUGE_SKEW, ["sweep-k", "--eps", "1e-8"]),
        (_HUGE_NORMAL, ["analyze", "--m", "2", "--k", "3"]),
    ], ids=["step-build", "step-solve", "step-sweep-m", "step-analyze", "step-sweep-k",
            "coupling-analyze-m2", "coupling-sweep-k", "coupling-analyze-m20",
            "skew-analyze", "skew-sweep-k", "normal-analyze"])
    def test_overflowing_problem_is_typed(self, doc, argv, tmp_path, capfd):
        path = tmp_path / "problem.json"
        path.write_text(doc)
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["--out", str(out_dir), argv[0], "--problem", str(path), *argv[1:]])
        assert code == EXIT_USAGE
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())


# Each subcommand's flags, and flags that keep a run with otherwise valid
# defaults small; the drawn tokens come after them and win.
_FLAGS = {
    "coeffs": ["--k", "--p", "--q"],
    "theta-table": ["--delta", "--kmin", "--kmax"],
    "build": ["--problem", "--scheme", "--m", "--k", "--p", "--name"],
    "solve": ["--problem", "--scheme", "--m", "--k", "--p"],
    "analyze": ["--problem", "--scheme", "--m", "--k", "--p", "--dim-cap"],
    "verify-bounds": ["--suite", "--seeds"],
    "circuit-verify": ["--n", "--m", "--k1", "--h", "--random-a"],
    "sweep-m": ["--problem", "--k", "--eps", "--m-min", "--m-max", "--p", "--no-kappa"],
    "sweep-k": ["--problem", "--eps"],
    "random-suite": ["--seeds", "--dims", "--t-grid", "--eps", "--k"],
}
_SMALL = {
    "theta-table": ["--kmin", "5", "--kmax", "6"],
    "verify-bounds": ["--seeds", "1"],
    "circuit-verify": ["--n", "1", "--m", "1", "--k1", "2"],
    "sweep-m": ["--m-max", "2"],
    "random-suite": ["--seeds", "1", "--dims", "2", "--t-grid", "1", "--k", "3"],
}
_VALUES = ["0", "-1", "1", "nan", "1e400", "x", ""]
_FILES = ["ok.json", "no_t.json", "truncated.json", "missing.json", "good.cfg", "bad.cfg",
          "missing.cfg"]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    problem = OdeProblem(matrix_a=-np.eye(2), vec_b=np.ones(2), vec_x0=np.ones(2),
                         horizon=1.0)
    save_problem(problem, root / "ok.json")
    text = (root / "ok.json").read_text()
    (root / "truncated.json").write_text(text[: len(text) // 2])
    doc = json.loads(text)
    del doc["T"]
    (root / "no_t.json").write_text(json.dumps(doc))
    (root / "good.cfg").write_text("kmin=5\nkmax=5\n")
    (root / "bad.cfg").write_text("kmin\n")
    return root


@st.composite
def argvs(draw, root):
    values = st.sampled_from(_VALUES + [str(root / name) for name in _FILES])
    argv = []
    for flag in draw(st.lists(st.sampled_from(["--out", "--config", "--seed", "--write"]),
                              max_size=2)):
        argv += [flag] if flag == "--write" else [flag, draw(values)]
    command = draw(st.sampled_from(sorted(_FLAGS) + [None]))
    if command is not None:
        argv += [command] + _SMALL.get(command, [])
        flags = st.sampled_from(_FLAGS[command] + ["--config", "--out"])
        for flag, value, with_value in draw(st.lists(st.tuples(flags, values, st.booleans()),
                                                     max_size=5)):
            argv += [flag, value] if with_value else [flag]
    return argv


class TestArgvProperty:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_argv_never_escapes(self, data, argv_files, monkeypatch, capsys):
        monkeypatch.delenv("PADE_LAB_OUT", raising=False)
        monkeypatch.chdir(argv_files)
        argv = data.draw(argvs(argv_files))
        code, _ = run(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv


# Problem entries at the edges of the double range, and the horizons they
# meet.  The first three files overflow the b h term, the normalization C and
# (in the parent) ||b||; the fourth overflows g itself.
_HOSTILE = [0.0, -0.0, 5e-324, 2.2e-308, -2.2e-308, 1e-160, -1e-160, 1e154, -1e154,
            1e200, -1e300, 1.7e308, -1.7e308]
_HORIZONS = [1e-300, 1e-10, 1.0, 3.0, 1e3, 1e300]
_HOSTILE_ARGV = [["analyze", "--m", "2", "--k", "3"], ["solve", "--m", "2", "--k", "3"],
                 ["solve", "--scheme", "taylor", "--m", "1", "--k", "3"],
                 ["build", "--m", "2", "--k", "3"], ["sweep-k", "--eps", "1e-6"],
                 ["sweep-m", "--k", "3", "--eps", "1e-6", "--m-max", "2"]]
_HUGE_B_H = '{"n":2,"a":[[-1,0],[0,-2]],"b":[1,-1.7e308],"x0":[1,1],"T":1000}'
_HUGE_C = '{"n":1,"a":[[-1]],"b":[0],"x0":[{"re":0,"im":1.7e308}],"T":1e-300}'
_HUGE_B_NORM = '{"n":1,"a":[[-1]],"b":[1.7e308],"x0":[1e-160],"T":1e-300}'
_HUGE_G = '{"n":1,"a":[[-1]],"b":[1.7e308],"x0":[1e-160],"T":1e-310}'
# States whose squares over- and underflow, with g = e^2; drifts that overflow
# on the eigenvalue and the dense path; a block stack whose SVD stalls.
_HUGE_X0 = '{"n":1,"a":[[-1]],"b":[0],"x0":[1.7e308],"T":2}'
_TINY_X0 = '{"n":1,"a":[[-1]],"b":[0],"x0":[1e-170],"T":2}'
_HUGE_DRIFT = '{"n":1,"a":[[-400]],"b":[0],"x0":[1],"T":2}'
_HUGE_DENSE_DRIFT = '{"n":2,"a":[[-400,1],[0,-1]],"b":[0,0],"x0":[1,1],"T":2}'
# Taylor terminals near 2e176 at m = 20 against x(1) = 1e100 e^-700: the
# relative error of the sweep rows is beyond the double range.
_HUGE_PROBE = '{"n":1,"a":[[-700]],"b":[0],"x0":[1e100],"T":1}'
# A non-normal A whose 2-norm is past the double range, while h ||A|| is 1.2e8
_HUGE_NORM_A = ('{"n": 3, "a": [[2.2e-308, 1e-160, {"re": -1.7e+308, "im": 0.168}], '
                '[0.0, 1.765, 1.7e+308], [-2.2e-308, 1.4397, -1.9305]], '
                '"b": [{"re": -2.2e-308, "im": -1.78}, -1e-160, 0.0], '
                '"x0": [2.1955, 2.6511, -2.6066], "T": 1e-300}')
_SVD_STALL = ('{"n": 2, "a": [[{"re": 0.0, "im": 1e+154}, 1e+200], [0.0, 0.0]], '
              '"b": [0.0, 0.0], "x0": [0.0, 0.0], "T": 1e-10}')


@st.composite
def hostile_docs(draw):
    n = draw(st.integers(1, 3))
    real = st.one_of(st.sampled_from(_HOSTILE), st.floats(-3.0, 3.0))
    entry = st.one_of(real, st.builds(lambda re, im: {"re": re, "im": im}, real, real))
    return json.dumps({"n": n, "a": [[draw(entry) for _ in range(n)] for _ in range(n)],
                       "b": [draw(entry) for _ in range(n)],
                       "x0": [draw(entry) for _ in range(n)],
                       "T": draw(st.sampled_from(_HORIZONS))})


class TestHostileNumbers:
    @given(doc=hostile_docs(), argv=st.sampled_from(_HOSTILE_ARGV))
    @example(doc=_HUGE_B_H, argv=_HOSTILE_ARGV[3])
    @example(doc=_HUGE_C, argv=_HOSTILE_ARGV[2])
    @example(doc=_HUGE_B_NORM, argv=_HOSTILE_ARGV[0])
    @example(doc=_HUGE_G, argv=_HOSTILE_ARGV[0])
    @example(doc=_HUGE_X0, argv=_HOSTILE_ARGV[0])
    @example(doc=_TINY_X0, argv=_HOSTILE_ARGV[0])
    @example(doc=_HUGE_DRIFT, argv=_HOSTILE_ARGV[0])
    @example(doc=_HUGE_DENSE_DRIFT, argv=_HOSTILE_ARGV[0])
    @example(doc=_SVD_STALL, argv=_HOSTILE_ARGV[0])
    @example(doc=_HUGE_PROBE, argv=["sweep-m", "--k", "3", "--eps", "1e-6", "--m-max", "20"])
    @example(doc=_HUGE_NORM_A, argv=_HOSTILE_ARGV[0])
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_hostile_problem_never_escapes(self, doc, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("PADE_LAB_OUT", raising=False)
        path = tmp_path / "problem.json"
        path.write_text(doc)
        out = ["--out", str(tmp_path / "out")] if argv[0] == "build" else []
        code, text = run([*out, argv[0], "--problem", str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (doc, argv)
        if code == EXIT_USAGE:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (doc, argv, err)
        assert not re.search(r"\b(Infinity|NaN)\b", text), (doc, argv, text)

    @pytest.mark.parametrize("doc,argv,name", [
        (_HUGE_B_H, ["build", "--m", "2", "--k", "3"], "the b h term"),
        (_HUGE_B_H, ["solve", "--m", "2", "--k", "3"], "the b h term"),
        (_HUGE_B_H, ["sweep-m", "--k", "3", "--eps", "1e-6", "--m-max", "2"], "the b h term"),
        (_HUGE_C, ["solve", "--scheme", "taylor", "--m", "1", "--k", "3"], "normalization C"),
        (_HUGE_G, ["analyze", "--m", "2", "--k", "3"], "g = "),
        (_HUGE_DRIFT, ["analyze", "--m", "2", "--k", "3"], "the drift"),
        (_HUGE_DENSE_DRIFT, ["analyze", "--m", "2", "--k", "3"], "the drift"),
    ], ids=["b-h-build", "b-h-solve", "b-h-sweep-m", "c-solve", "g-analyze",
            "drift-eigenvalues-analyze", "drift-dense-analyze"])
    def test_overflow_names_the_value(self, doc, argv, name, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(doc)
        code = run_cli(["--out", str(tmp_path / "out"), argv[0], "--problem", str(path),
                        *argv[1:]])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and name in err

    def test_scaled_b_norm_keeps_g_finite(self, tmp_path):
        # ||b|| = 1.7e308 squares past the double range, but g = ||b|| / ||x(T)||
        # with x(T) = 1.7e8 is 1e300
        path = tmp_path / "problem.json"
        path.write_text(_HUGE_B_NORM)
        code, text = run(["analyze", "--problem", str(path), "--m", "2", "--k", "3"])
        assert code == EXIT_OK
        report = json.loads(text, parse_constant=pytest.fail)
        assert report["g_ratio"] == pytest.approx(1e300, rel=1e-12)

    def test_stalled_svd_is_typed(self, tmp_path, capsys):
        # numpy's LinAlgError is a ValueError, which run_cli no longer catches
        path = tmp_path / "problem.json"
        path.write_text(_SVD_STALL)
        code = run_cli(["analyze", "--problem", str(path), "--m", "2", "--k", "3"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "SVD" in err

    @pytest.mark.parametrize("doc", [_HUGE_X0, _TINY_X0], ids=["huge-x0", "tiny-x0"])
    def test_scaled_state_norms_give_g(self, doc, tmp_path):
        # x(t) = x0 e^-t: the squares of x0 = 1.7e308 overflow and those of
        # x0 = 1e-170 underflow, yet g = ||x0|| / ||x(2)|| = e^2
        path = tmp_path / "problem.json"
        path.write_text(doc)
        code, text = run(["analyze", "--problem", str(path), "--m", "2", "--k", "3"])
        assert code == EXIT_OK
        report = json.loads(text, parse_constant=pytest.fail)
        assert report["g_ratio"] == pytest.approx(math.e ** 2, rel=1e-14)
