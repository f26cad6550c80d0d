"""pade-lab benchmark launcher (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is step-search, condition-sweep, circuit-verify, bound-suites, or all.
A pass runs the whole op set of the workload for the seed in a fresh worker
process, so import and input generation are paid in every pass and caches in
the program start cold.  With --trace 0 the launcher runs S // PASS_S passes
(at least one), one after another, and reports the end-to-end metrics, with
every time scaled to the reference host speed by the worker's speed probes
(see at_reference_speed); with
--trace 1 it runs one untraced pass and two traced passes and reports the
per-layer metrics, the tracing overhead, and whether the counts of the two
traced passes agree.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with the host fingerprint
and the failed ops, goes to .bench_out/ under the repository root, and the
spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402  (standard library only at import)

#: workloads and the seconds one pass may take, set-up included: a run of
#: S seconds makes S // PASS_S passes (3, and 4 on bound-suites, at 30 s)
PASS_S = {"step-search": 10.0, "condition-sweep": 10.0, "circuit-verify": 10.0,
          "bound-suites": 7.5}

#: BLAS threads of the workers.  circuit-verify is dense LAPACK on up to
#: 2048 x 2048 matrices, where threads pay; the other workloads use small
#: operators, where OpenBLAS threads only add synchronisation and noise.
#: None means the number of processors.
BLAS_THREADS = {"step-search": 1, "condition-sweep": 1, "circuit-verify": None,
                "bound-suites": 1}

#: every run ends, with its workers stopped, before this many seconds
RUN_LIMIT_S = 170.0

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

PASS_FIELDS = ("wall_s", "ref_wall_s", "setup_s", "ref_setup_s", "maxrss_kb")

#: time of worker.speed_probe on the reference host (README, Baseline) in a
#: quiet spell.
#: Every end-to-end time is reported at that speed: measured time times
#: PROBE_REF_S over the probe time around it.
PROBE_REF_S = 0.0022

TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(workload: str) -> dict:
    """Environment of the workers: the checkout's src first on the path, BLAS
    threads set to BLAS_THREADS of the workload, at most the processors."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = os.cpu_count() or 1
    threads = min(BLAS_THREADS[workload] or nproc, nproc)
    for var in BLAS_ENV:
        env[var] = str(threads)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(workload: str, seed: int, trace: int, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{workload} exceeded the {RUN_LIMIT_S:g} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - spawned
    return at_reference_speed(result)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten ops above it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 100


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def at_reference_speed(p: dict) -> dict:
    """Add to pass ``p`` its times at the reference host speed: each op's
    latency and busy time scaled by PROBE_REF_S over the mean of the two speed
    probes around it, and the set-up time by PROBE_REF_S over the median of
    the first three probes.  Raw times stay as they are."""
    probes = p["probes"]
    for r in p["ops"]:
        scale = PROBE_REF_S / ((probes[r["probe"]] + probes[r["probe"] + 1]) / 2)
        r["ref_latency_s"] = r["latency_s"] * scale
        r["ref_busy_s"] = r["busy_s"] * scale
    p["wall_s"] = sum(r["busy_s"] for r in p["ops"])
    p["ref_wall_s"] = sum(r["ref_busy_s"] for r in p["ops"])
    p["ref_setup_s"] = p["setup_s"] * PROBE_REF_S / statistics.median(probes[:3])
    return p


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """(metrics, details) of the untraced passes of one run."""
    def summary(prefix: str) -> dict:
        latencies = sorted(r[prefix + "latency_s"] for p in passes for r in p["ops"])
        return {
            "wall_s": statistics.median(p[prefix + "wall_s"] for p in passes),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": nearest_rank(latencies, tail_percentile(len(latencies))),
            "setup_s": statistics.median(p[prefix + "setup_s"] for p in passes),
            "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024.0,
        }

    values = summary("ref_")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    samples = sum(len(p["ops"]) for p in passes)
    details = {"samples": samples, "tail_percentile": tail_percentile(samples),
               "passes": len(passes), "raw": summary(""),
               "pass_results": [{k: p[k] for k in PASS_FIELDS} for p in passes],
               "probes_s": [p["probes"] for p in passes],
               "op_latencies_s": [{r["op"]: [r["latency_s"], r["ref_latency_s"]]
                                   for r in p["ops"]} for p in passes]}
    return metrics, details


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, bool, list]:
    """(metrics, counts_repeat, mismatches) from one untraced and two traced passes."""
    first = tr.aggregate(traced[0]["spans"])
    second = tr.aggregate(traced[1]["spans"])
    mismatches = [(n, first[n], second[n]) for n in tr.REPEATABLE if first[n] != second[n]]
    untraced_wall, traced_wall = untraced["wall_s"], traced[0]["wall_s"]
    first["trace.untraced_wall_s"] = untraced_wall
    first["trace.traced_wall_s"] = traced_wall
    first["trace.overhead_s"] = traced_wall - untraced_wall
    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in first.items()}
    return metrics, not mismatches, mismatches


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    env = child_env(workload)
    count = 1 if trace else max(1, int(seconds // PASS_S[workload]))
    passes = [run_pass(workload, seed, 0, env, deadline) for _ in range(count)]
    traced = [run_pass(workload, seed, 1, env, deadline) for _ in range(2)] if trace else []
    records = [r for p in passes + traced for r in p["ops"]]
    failures = [r for r in records if r["error"]]
    result = {
        "workload": workload,
        "seed": seed,
        "attempted": len(records),
        "failed": len(failures),
        "wrong": sum(r["wrong"] for r in records),
        "failures": failures,
        "fingerprint": {**passes[0]["fingerprint"], "blas_env": {v: env[v] for v in BLAS_ENV}},
    }
    if trace:
        metrics, repeat, mismatches = per_layer(passes[0], traced)
        result.update(metrics=metrics, counts_repeat=repeat, count_mismatches=mismatches,
                      spans=traced[0]["spans"])
    else:
        metrics, details = end_to_end(passes)
        result.update(metrics=metrics, counts_repeat=True, **details)
    result["correct"] = result["wrong"] == 0 and result["counts_repeat"]
    return result


def print_row(res: dict):
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if "wall_s" in m:
        raw = res["raw"]
        speed = PROBE_REF_S / statistics.median(x for p in res["probes_s"] for x in p)
        print(f"{res['workload']:<16} wall_s={m['wall_s']:.4f} s  op_p50_s={m['op_p50_s']:.4f} s  "
              f"op_tail_s={m['op_tail_s']:.4f} s (p{res['tail_percentile']} of "
              f"{res['samples']} op latencies)  setup_s={m['setup_s']:.4f} s  "
              f"peak_rss_mb={m['peak_rss_mb']:.1f} MB  "
              f"fail_frac={res['failed'] / res['attempted']:.4f} "
              f"({res['failed']}/{res['attempted']} ops)")
        print(f"{'':<16} as measured: wall {raw['wall_s']:.4f} s  p50 {raw['op_p50_s']:.4f} s  "
              f"tail {raw['op_tail_s']:.4f} s  setup {raw['setup_s']:.4f} s; "
              f"host at {speed:.2f} of reference speed; passes {res['passes']}; "
              f"BLAS threads {res['host']['blas_env']['OPENBLAS_NUM_THREADS']}")
    else:
        print(f"{res['workload']}: per-layer metrics of the first traced pass "
              f"(counts repeat in the second: {res['counts_repeat']})")
        for name in TRACE_METRICS + tuple(tr.per_layer_names()):
            if m[name] or name.startswith("trace."):
                print(f"  {name:<52} {m[name]:>14.6g} {res['metrics'][name]['unit']}")
        unaccounted = m["trace.untraced_wall_s"] - m["trace.layer_self_s"]
        print(f"  layer self times cover the untraced wall to {unaccounted:+.4f} s "
              f"(tracing overhead {m['trace.overhead_s']:+.4f} s; the rest is op glue and checks)")
        for name, a, b in res["count_mismatches"]:
            print(f"  COUNT MISMATCH {name}: {a} vs {b}")
    for r in res["failures"]:
        print(f"  failed op {r['op']}: {r['error']}: {r['detail']}")


def host_fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
            "git_sha": git_sha()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(PASS_S) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "pade_lab" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'pade_lab'}", file=sys.stderr)
        return 2
    host = host_fingerprint()
    names = list(PASS_S) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for res in results:
        res["host"] = {**host, **res.pop("fingerprint")}
        stem = f"{res['workload']}-seed{args.seed}-trace{args.trace}"
        spans = res.pop("spans", None)
        if spans is not None:
            with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "op", "parent", "t0", "t1", "counts"],
                           "spans": spans}, fh)
        with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)

    fp = results[0]["host"]
    blas = ", ".join(f"{b['library']} threads={b.get('threads', '?')}" for b in fp["blas"])
    print(f"host: nproc={fp['nproc']} cpu={fp['cpu']!r} python={fp['python']} "
          f"numpy={fp['numpy']} scipy={fp['scipy']} blas=[{blas}] git={fp['git_sha']}")
    for res in results:
        print_row(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
