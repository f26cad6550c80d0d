"""One pass of one workload, run in a fresh process by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Runs every op of one pass, checks each output, and prints one JSON line: the
monotonic time set-up ended, per-op records (latency, busy time with the
check, the speed probe before it), the speed probes, ru_maxrss, the
numerical-library fingerprint and, when traced, the spans.  An op that raises
or whose check fails is recorded as failed and the pass goes on.

The speed probe is a fixed pure-Python loop, independent of the program.  It
runs before the first op and after every op that brings the busy time since
the previous probe to PROBE_EVERY_S, and after the last op, so every op lies
between two probes that say how fast the host ran this process around it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE_EVERY_S = 0.05
PROBE_LOOP = 40_000
PROBE_REPEATS = 3


def speed_probe() -> float:
    """Seconds one fixed pure-Python loop takes now (mean of three)."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
    return (time.perf_counter() - t0) / PROBE_REPEATS


def blas_fingerprint() -> list[dict]:
    """OpenBLAS builds loaded in this process, with their configured threads."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        mapped = {Path(line.split()[-1]) for line in fh if ".so" in line}
    found = []
    for path in sorted(p for p in mapped if p.name.startswith("lib") and "blas" in p.name):
        lib = ctypes.CDLL(path)
        info = {"library": path.name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
        found.append(info)
    return found


def warm_libraries():
    """Touch the numpy/scipy kernels the ops use (dense LAPACK, sparse LU,
    ARPACK) on tiny inputs, so that paging in their libraries counts as
    set-up, not as the latency of whichever op happens to come first.  No
    program code runs here, so no cache of the program is warmed."""
    import numpy as np
    import scipy.linalg as sla
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(0)
    dense = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    np.linalg.svd(dense, compute_uv=False)
    np.linalg.eigh(dense + dense.conj().T)
    sla.lu_solve(sla.lu_factor(dense), dense)
    sparse = sp.csc_matrix(dense + 8 * np.eye(16))
    spla.splu(sparse).solve(dense[:, 0])
    spla.eigsh(spla.aslinearoperator(sparse.conj().T @ sparse), k=1, which="LA",
               v0=dense[:, 0], return_eigenvectors=False)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    import numpy
    import scipy

    import pade_lab
    import tracer as tr
    import workloads

    if not Path(pade_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pade_lab imported from {pade_lab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    warm_libraries()
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tr.instrument(tracer)
    ops = workloads.make_ops(args.workload, args.seed)

    setup_done = time.monotonic()
    probes = [speed_probe()]
    records = []
    since_probe = 0.0
    for i, op in enumerate(ops):
        op_id = f"{i}:{op.key}"
        if tracer:
            tracer.op = op_id
            span = tracer.open(tr.OP_SPAN)
        rec = {"op": op_id, "error": None, "detail": None, "wrong": False}
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing op is counted, never skipped
            rec["latency_s"] = time.perf_counter() - t0
            rec["error"] = type(exc).__name__
            rec["detail"] = str(exc)[:300]
        else:
            rec["latency_s"] = time.perf_counter() - t0
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                rec.update(error="CheckFailed", detail=reason[:300], wrong=True)
        rec["busy_s"] = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        rec["probe"] = len(probes) - 1
        records.append(rec)
        since_probe += rec["busy_s"]
        if since_probe >= PROBE_EVERY_S or i == len(ops) - 1:
            probes.append(speed_probe())
            since_probe = 0.0

    result = {
        "setup_done": setup_done,
        "ops": records,
        "probes": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fingerprint": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_fingerprint(),
        },
    }
    if tracer:
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
