"""Every per-layer metric that BENCHMARK.json declares is one the perfbench
harness can still produce, so deleting or renaming a function the harness
hooks fails here rather than in a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs from the repository root with src/ and perfbench/ on the path.
PRODUCIBLE = r"""
import json, sys
import run, traced_stage

patched, missing = traced_stage.install(traced_stage.Tracer("hook-check"))
resolved = set(patched) | {f"{h}@{m}" for h, modules in patched.items() for m in modules}
producible = {name for name, (needs, _) in run.LAYER_TABLE.items() if set(needs) <= resolved}
producible.add("trace.overhead_s")
try:
    from tagburst.hawkes import log_likelihood_gradient  # noqa: F401  (the probe's kernel)
    producible.add("hawkes.log_likelihood_gradient.us_per_event")
except ImportError:
    pass
declared = [m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer"]]
print(json.dumps({"missing": missing,
                  "unproducible": [n for n in declared if n not in producible]}))
"""


def test_every_declared_per_layer_metric_is_producible():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PRODUCIBLE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"missing": [], "unproducible": []}
