"""The benchmark harness under perfbench/ still loads against the package.

``perfbench/tracer.py`` wraps program functions by name, so deleting or
renaming one of them would otherwise surface only as a failed traced run.
One traced circuit-verify op must record a span of each circuit counter: a
restructure that calls around a wrapped name would leave it reading zero.  A
second op of the same (k, m) still records ``primitive_encodings`` through the
stage cache, and ``realize_dense`` for the two stages that read A.  One
condition-sweep op whose sigma_min takes the Lanczos path must record an
``analysis.lanczos`` span with matvecs: a sigma_min that called around the
wrapped ``eigsh`` would leave ``analysis.lanczos.matvecs`` reading zero.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import perfbench.workloads as workloads
from perfbench.tracer import COUNTS, LANCZOS, NAME, OP, Tracer, instrument

tracer = Tracer()
instrument(tracer)
for name in workloads.WORKLOADS:
    assert workloads.make_ops(name, 0), name
# ops 0 and 1 share (k, m) and scale: the second finds every A-free stage held
for i, op in enumerate(workloads.make_ops("circuit-verify", 0)[:2]):
    tracer.op = str(i)
    assert op.check(op.run()) is None
names = {op: [span[0] for span in tracer.spans if span[1] == op] for op in ("0", "1")}
for traced in ("circuit_sim.realize_dense", "circuit_sim.unitarity_defect",
               "circuit_sim.primitive_encodings"):
    assert names["0"].count(traced) >= 1, (traced, sorted(set(names["0"])))
assert names["1"].count("circuit_sim.primitive_encodings") == 1, names["1"]
assert names["1"].count("circuit_sim.realize_dense") == 2, names["1"]  # W and L
# Taylor m = 12: L is 121 block rows wide, above the dense cap, and kappa is
# about 8e35, too large for the sigma_min bracket, so sigma_min takes Lanczos
op, = [op for op in workloads.make_ops("condition-sweep", 0) if op.key == "taylor-m12"]
tracer.op = "sweep"
assert op.check(op.run()) is None
lanczos = [span for span in tracer.spans if span[OP] == "sweep" and span[NAME] == LANCZOS]
assert lanczos and all(span[COUNTS]["matvecs"] > 0 for span in lanczos), lanczos
"""


def test_tracer_instruments_every_traced_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
