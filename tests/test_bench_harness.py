"""The benchmark harness under perfbench/ still loads against the package.

``perfbench/tracer.py`` wraps program functions by name, so deleting or
renaming one of them would otherwise surface only as a failed traced run.
One traced circuit-verify op must record a span of each circuit counter: a
restructure that calls around a wrapped name would leave it reading zero.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import perfbench.workloads as workloads
from perfbench.tracer import Tracer, instrument

tracer = Tracer()
instrument(tracer)
for name in workloads.WORKLOADS:
    assert workloads.make_ops(name, 0), name
op = workloads.make_ops("circuit-verify", 0)[0]
assert op.check(op.run()) is None
names = [span[0] for span in tracer.spans]
for traced in ("circuit_sim.realize_dense", "circuit_sim.unitarity_defect"):
    assert names.count(traced) >= 1, (traced, sorted(set(names)))
"""


def test_tracer_instruments_every_traced_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
