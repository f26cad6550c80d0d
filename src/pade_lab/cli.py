"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 bound/residual violation.  The output
directory comes from PADE_LAB_OUT when set, else --out.  A config file of
key=value lines may preset any long flag (command-line values win).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, error_bounds, experiments
from .circuit_sim import (
    UNITARITY_TOL,
    build_b_encoding,
    build_coupling_encoding,
    build_l_encoding,
    build_w_encoding,
    coupling_target,
    hermitian_encoding,
    primitive_encodings,
    primitive_targets,
    verify_block_encoding,
    zero_matrix_encoding,
)
from .classical_solver import march_solution, solve_block_forward, state_distance
from .errors import PadeLabError, UsageError
from .error_bounds import make_params
from .experiments import random_stable_matrix
from .pade_core import pade_coefficients
from .system_builder import (
    BUILDERS,
    SCHEMES,
    classical_reference_trajectory,
    csr_systems,
    export_coordinate,
    load_problem,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_dir(args) -> Path:
    out = os.environ.get("PADE_LAB_OUT") or args.out or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _wants_artifacts(args) -> bool:
    return bool(os.environ.get("PADE_LAB_OUT") or args.out is not None or args.write)


def _write(args, name: str, text: str) -> Path:
    target = _out_dir(args) / name
    target.write_text(text, encoding="utf-8")
    return target


def _emit(args, name: str, text: str, stream):
    if _wants_artifacts(args):
        print(_write(args, name, text), file=stream)
    else:
        stream.write(text)


def _problem_params(args):
    problem = load_problem(args.problem)
    return problem, make_params(args.m, args.k, args.p, problem.horizon, args.scheme)


def _cmd_coeffs(args, stdout):
    c = pade_coefficients(args.k if args.p is None else args.p,
                          args.k if args.q is None else args.q)
    lines = ["j,n_j,d_j,n_j_exact,d_j_exact"]
    top = max(c.order_p, c.order_q)
    for j in range(top + 1):
        nj = c.num_coeffs[j] if j <= c.order_p else Fraction(0)
        dj = c.den_coeffs[j] if j <= c.order_q else Fraction(0)
        lines.append(f"{j},{float(nj):.17g},{float(dj):.17g},{nj},{dj}")
    _emit(args, f"coeffs_k{args.k}.csv", "\n".join(lines) + "\n", stdout)
    return EXIT_OK


def _cmd_theta_table(args, stdout):
    lines = ["k,theta_k"]
    for k in range(args.kmin, args.kmax + 1):
        lines.append(f"{k},{error_bounds.theta_max(k, args.delta):.4f}")
    _emit(args, "theta_table.csv", "\n".join(lines) + "\n", stdout)
    return EXIT_OK


def _cmd_build(args, stdout):
    system = BUILDERS[args.scheme](*_problem_params(args))
    target = _out_dir(args) / (args.name or f"system_{args.scheme}.txt")
    export_coordinate(system, target)
    print(target, file=stdout)
    return EXIT_OK


def _cmd_solve(args, stdout):
    problem, params = _problem_params(args)
    bundle = solve_block_forward(BUILDERS[args.scheme](problem, params), check_residual=False)
    traj = classical_reference_trajectory(problem, params)
    doc = {
        "terminal": [[float(z.real), float(z.imag)] for z in bundle.terminal],
        "p_succ": bundle.p_succ,
        "residual": bundle.residual,
        "distance_to_reference": state_distance(bundle.terminal, traj.states[-1])
        if traj.terminal_norm > 0 else None,
    }
    text = json.dumps(doc, indent=1) + "\n"
    _emit(args, "solve.json", text, stdout)
    return EXIT_OK


def _cmd_analyze(args, stdout):
    problem, params = _problem_params(args)
    report = analysis.condition_report(problem, params, dim_cap=args.dim_cap)
    doc = {k: v for k, v in report.__dict__.items() if not isinstance(v, dict)}
    doc["p_succ"] = march_solution(problem, params).p_succ
    doc["satisfied"] = report.satisfied
    text = json.dumps(doc, indent=1, default=float) + "\n"
    _emit(args, "analyze.json", text, stdout)
    if report.satisfied and not all(report.satisfied.values()):
        return EXIT_VIOLATION
    return EXIT_OK


def _bound_suite_rows(suite: str, seeds: int):
    rng_base = 7000 if suite == "hermitian" else 9000
    rows = []
    violated = False
    for i in range(seeds):
        rng = np.random.default_rng(rng_base + i)
        n = int(rng.integers(2, 9))
        k = int(rng.choice([3, 7, 15]))
        if suite in ("hermitian", "thm36"):
            w = -rng.uniform(0.0, 1.0, size=n)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            a = (q * w) @ q.conj().T
            case = "hermitian_nsd"
            if suite == "thm36":
                h = float(error_bounds.theta_max(k, 1e-8) / max(1e-9, np.linalg.norm(a, 2)))
                m, p = 2, 2
            else:
                h = float(rng.uniform(0.0, 50.0) / max(1e-9, np.linalg.norm(a, 2)))
                m, p = 1, 1
        else:
            a = random_stable_matrix(n, rng_base + i)
            h = float(1.0 / np.linalg.norm(a, 2))
            case = "unit_norm"
            m, p = 1, 1
        params = make_params(m, k, p, m * h, "pade")
        rep = analysis.inverse_norm_bounds(params, a, case)
        if suite == "thm36":
            drift = analysis.propagator_drift(a, h, k, m)
            ok = (drift.hypothesis_ok and rep.satisfied.get("l_inv", True)
                  and rep.satisfied.get("kappa", True))
            rows.append((i, n, k, rep.norm_l_inv, rep.bound_l_inv,
                         rep.bound_l_inv - rep.norm_l_inv, ok))
        else:
            ok = rep.satisfied["w_inv"]
            rows.append((i, n, k, rep.measured_w_inv, rep.bound_w_inv,
                         rep.bound_w_inv - rep.measured_w_inv, ok))
        violated = violated or not ok
    return rows, violated


def _cmd_verify_bounds(args, stdout):
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    rows, violated = _bound_suite_rows(args.suite, args.seeds)
    lines = ["sample,n,k,measured,bound,margin,ok"]
    for r in rows:
        lines.append(f"{r[0]},{r[1]},{r[2]},{r[3]:.12e},{r[4]:.12e},{r[5]:.12e},{int(r[6])}")
    _emit(args, f"bounds_{args.suite}.csv", "\n".join(lines) + "\n", stdout)
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_circuit_verify(args, stdout):
    n = args.n
    nq = int(math.log2(n)) if n > 1 else 0
    if 2**nq != n:
        raise UsageError("--n must be a power of two")
    if args.m < 1 or args.k1 < 2:
        raise UsageError("--m must be positive and --k1 at least 2")
    if not (math.isfinite(args.h) and args.h > 0):
        raise UsageError("--h must be positive and finite")
    if args.random_a is not None and args.random_a < 0:
        raise UsageError("--random-a must be a non-negative seed")
    if args.random_a is not None:
        rng = np.random.default_rng(args.random_a)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (raw + raw.conj().T) / 2
        a /= 1.3 * np.linalg.norm(a, 2)
        enc = hermitian_encoding(a)
    else:
        a = np.zeros((n, n), dtype=complex)
        enc = zero_matrix_encoding(nq)
    k = args.k1 - 1
    m = args.m
    scale = max(enc.alpha * args.h, 1.0)

    worst_res, worst_unit = 0.0, 0.0

    def show(name, stage, target):
        nonlocal worst_res, worst_unit
        residual, _ = verify_block_encoding(stage, target, 1e-10)
        defect = stage.unitarity_defect()
        worst_res, worst_unit = max(worst_res, residual), max(worst_unit, defect)
        print(f"stage={name} residual={residual:.3e} unitarity<={defect:.3e} "
              f"alpha={stage.alpha:.6g} ancillas={stage.ancillas}", file=stdout)

    prim_targets = primitive_targets(k, m)
    for name, stage in primitive_encodings(k, m).items():
        show(name, stage, prim_targets[name])
    rec = SCHEMES["pade"](k)
    show("w", build_w_encoding(enc, args.h, k), rec.one_step(a * args.h))
    show("b", build_b_encoding(k, m, scale), prim_targets["m4"] + prim_targets["m5"])
    show("coupling", build_coupling_encoding(k, m, scale), coupling_target(k, m))
    full = build_l_encoding(enc, args.h, m, k)
    # L of m steps and p = m (k+1) padding rows, the padding the encoding holds
    show("L", full, csr_systems(rec, m, m * args.k1, (a * args.h)[None])[0].toarray())
    print(f"final alpha={full.alpha:.6g} ancillas={full.ancillas}", file=stdout)
    return EXIT_OK if (worst_res <= 1e-10 and worst_unit <= UNITARITY_TOL) else EXIT_VIOLATION


def _cmd_sweep_m(args, stdout):
    problem = load_problem(args.problem)
    report = experiments.sweep_m(problem, args.k, args.eps,
                                 range(args.m_min, args.m_max + 1),
                                 padding=args.p, with_kappa=not args.no_kappa)
    _emit(args, "sweep_m.csv", report.to_csv(), stdout)
    return EXIT_OK


def _cmd_sweep_k(args, stdout):
    problem = load_problem(args.problem)
    report = experiments.sweep_k(problem, args.eps)
    _emit(args, "sweep_k.csv", report.to_csv(), stdout)
    return EXIT_OK


def _cmd_random_suite(args, stdout):
    if args.dims < 1:
        raise UsageError("--dims must be at least 1")
    try:
        horizons = [float(t) for t in args.t_grid.split(",")]
    except ValueError:
        raise UsageError("--t-grid must be comma-separated numbers, "
                         f"got {args.t_grid!r}") from None
    report = experiments.random_suite_m_star(
        args.dims, range(args.seed, args.seed + args.seeds), horizons,
        args.eps, args.k)
    _emit(args, "random_suite.csv", report.to_csv(), stdout)
    means = report.aggregate["mean_m_star"]
    for horizon in horizons:
        print(f"T={horizon:g} mean_m*: pade={means['pade'][horizon]:.2f} "
              f"taylor={means['taylor'][horizon]:.2f}", file=stdout)
    return EXIT_OK


def _add_system_flags(sub):
    sub.add_argument("--problem", required=True)
    sub.add_argument("--scheme", choices=list(SCHEMES), default="pade")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--p", type=int, default=1)


def _add_global_flags(parser):
    parser.add_argument("--out", default=None,
                        help="output directory for artifacts (PADE_LAB_OUT overrides); "
                             "without it results go to stdout")
    parser.add_argument("--write", action="store_true",
                        help="force writing artifacts into the output directory")
    parser.add_argument("--config", default=None, help="key=value preset file")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="pade-lab")
    _add_global_flags(parser)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("coeffs")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--q", type=int, default=None)
    s.set_defaults(func=_cmd_coeffs)

    s = subs.add_parser("theta-table")
    s.add_argument("--delta", type=float, default=1e-8)
    s.add_argument("--kmin", type=int, default=5)
    s.add_argument("--kmax", type=int, default=18)
    s.set_defaults(func=_cmd_theta_table)

    s = subs.add_parser("build")
    _add_system_flags(s)
    s.add_argument("--name", default=None)
    s.set_defaults(func=_cmd_build)

    s = subs.add_parser("solve")
    _add_system_flags(s)
    s.set_defaults(func=_cmd_solve)

    s = subs.add_parser("analyze")
    _add_system_flags(s)
    s.add_argument("--dim-cap", type=int, default=analysis.CONDITION_DIM_CAP)
    s.set_defaults(func=_cmd_analyze)

    s = subs.add_parser("verify-bounds")
    s.add_argument("--suite", choices=["hermitian", "unit", "thm36"], required=True)
    s.add_argument("--seeds", type=int, default=10)
    s.set_defaults(func=_cmd_verify_bounds)

    s = subs.add_parser("circuit-verify")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--m", type=int, default=2)
    s.add_argument("--k1", type=int, default=4, help="k+1 (power of two)")
    s.add_argument("--h", type=float, default=1.0)
    s.add_argument("--random-a", type=int, default=None)
    s.set_defaults(func=_cmd_circuit_verify)

    s = subs.add_parser("sweep-m")
    s.add_argument("--problem", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--m-min", type=int, default=1)
    s.add_argument("--m-max", type=int, default=20)
    s.add_argument("--p", type=int, default=1)
    s.add_argument("--no-kappa", action="store_true")
    s.set_defaults(func=_cmd_sweep_m)

    s = subs.add_parser("sweep-k")
    s.add_argument("--problem", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.set_defaults(func=_cmd_sweep_k)

    s = subs.add_parser("random-suite")
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--dims", type=int, default=5)
    s.add_argument("--t-grid", default="1,10,25,50")
    s.add_argument("--eps", type=float, default=1e-10)
    s.add_argument("--k", type=int, default=9)
    s.set_defaults(func=_cmd_random_suite)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Inject key=value presets from --config right after the subcommand,
    before its explicit flags, so that command-line values win."""
    # the global flags are parsed as the full parser parses them, so a flag's
    # value (``--out DIR``) is never taken for the subcommand
    pre = _Parser(prog="pade-lab", add_help=False)
    _add_global_flags(pre)
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = pre.parse_known_args(argv)
    if known.config is None or not known.rest:
        return argv
    presets: list[str] = []
    lines = Path(known.config).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{known.config}:{number}: expected key=value, got {line!r}")
        presets += [f"--{key.strip()}", value.strip()]
    split = len(argv) - len(known.rest) + 1
    return argv[:split] + presets + argv[split:]


def run_cli(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv))
        return args.func(args, stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (PadeLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():  # console entry point
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
