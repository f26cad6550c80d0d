import io
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pade_lab import experiments
from pade_lab.cli import EXIT_OK, EXIT_USAGE, _apply_config, build_parser, run_cli
from pade_lab.errors import SingularBlockError
from pade_lab.pade_core import OdeProblem
from pade_lab.system_builder import save_problem

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


GOLDEN = Path(__file__).parent / "data"


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
    # powered the step map; neither change may move a byte
    code, out = run(argv)
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / name).read_bytes()


class TestSystemCommands:
    def test_build_writes_export(self, problem_file, tmp_path):
        code, out = run(["--out", str(tmp_path), "build", "--problem", str(problem_file),
                         "--scheme", "pade", "--m", "2", "--k", "3", "--p", "2"])
        assert code == EXIT_OK
        path = tmp_path / "system_pade.txt"
        assert path.exists()
        header = path.read_text().splitlines()[0].split()
        assert header[2] == "pade" and header[3:7] == ["3", "2", "3", "2"]

    def test_solve_json(self, problem_file):
        code, out = run(["solve", "--problem", str(problem_file), "--scheme", "pade",
                         "--m", "3", "--k", "5", "--p", "2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"terminal", "p_succ", "residual", "distance_to_reference"}
        assert doc["distance_to_reference"] <= 1e-8

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
    # overflows the scaling of the reference exponential, and at m = 20 its
    # block systems drive the Lanczos run into an ARPACK error
    @pytest.mark.parametrize("doc,argv", [
        (_HUGE_STEP, ["build", "--m", "20", "--k", "9"]),
        (_HUGE_STEP, ["solve", "--m", "20", "--k", "9"]),
        (_HUGE_STEP, ["sweep-m", "--k", "9", "--eps", "1e-8", "--m-min", "19", "--m-max", "20"]),
        (_HUGE_STEP, ["analyze", "--m", "20", "--k", "9"]),
        (_HUGE_STEP, ["sweep-k", "--eps", "1e-8"]),
        (_HUGE_COUPLING, ["analyze", "--m", "2", "--k", "3"]),
        (_HUGE_COUPLING, ["sweep-k", "--eps", "1e-8"]),
        (_HUGE_COUPLING, ["analyze", "--m", "20", "--k", "9"]),
    ], ids=["step-build", "step-solve", "step-sweep-m", "step-analyze", "step-sweep-k",
            "coupling-analyze-m2", "coupling-sweep-k", "coupling-analyze-m20"])
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
