"""Every per-layer metric that BENCHMARK.json declares is one the perfbench
harness can still produce, so deleting or renaming a function the harness
hooks fails here rather than in a traced benchmark run; and every function
it hooks runs in the README pipeline, so no metric times dead code; and the
benchmark's check of the forecast counts assumes the package's test window."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

# Runs all six README stages in OUT, cluster with a sweep too, through every
# hook; prints the span names, each annotation error with the name of its
# span, and the span names of the patched hooks that recorded no span.
TRACED_PIPELINE = r"""
import json, sys
import traced_stage
from tagburst.cli import main

out = sys.argv[1]
events = f"{out}/events.jsonl"
tracer = traced_stage.Tracer("pipeline-check")
patched, _ = traced_stage.install(tracer)
for argv in (["simulate", "--out", out, "--seed", "0", "--t-days", "120"],
             ["cluster", "--input", events, "--out", out, "--eta", "2", "--sweep", "1:4"],
             ["fit", "--input", events, "--out", out],
             ["forecast", "--input", events, "--out", out, "--train-days", "60"],
             ["attribute", "--input", events, "--out", out],
             ["report", "--input", events, "--out", out]):
    assert tracer.call(f"cli.{argv[0]}", None, main, (argv,), {}) == 0, argv
recorded = {s["name"] for s in tracer.spans}
silent = []
for module_name, attr, name, _ in traced_stage.HOOKS:
    modules = patched.get(f"{module_name}.{attr}", [])
    names = {name} if name else {f"{m.split('.')[-1].lstrip('_')}.{attr}" for m in modules}
    if modules and not names & recorded:
        silent.extend(sorted(names))
print(json.dumps({"names": sorted(recorded), "silent": silent,
                  "errors": [[s["name"], s["attrs"]["annotate_error"]]
                             for s in tracer.spans if "annotate_error" in s["attrs"]]}))
"""


def run_in_perfbench(script, *argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_declared_per_layer_metric_is_producible():
    result = run_in_perfbench(PRODUCIBLE)
    assert result == {"missing": [], "unproducible": []}


@pytest.fixture(scope="module")
def traced_pipeline(tmp_path_factory):
    return run_in_perfbench(TRACED_PIPELINE, str(tmp_path_factory.mktemp("run")))


def test_every_span_annotator_reads_its_result(traced_pipeline):
    # each annotator ran at least once, on the result of the function it hooks
    assert {"ingest.parse_events", "hawkes.fit_mle", "optim.maximize", "optim.minimize",
            "baselines.minimize", "attribution.attribution_report"} <= \
        set(traced_pipeline["names"])
    assert traced_pipeline["errors"] == []


def test_every_hooked_function_runs_in_the_readme_pipeline(traced_pipeline):
    # a hook on a function no stage calls would time nothing on every run
    assert traced_pipeline["silent"] == []


def test_benchmark_assumes_the_packages_test_window():
    # the benchmark's check of each row's actual count splits off this window
    package, benchmark = run_in_perfbench(
        "import json, workloads\nfrom tagburst import forecast\n"
        "print(json.dumps([forecast.HORIZON_DAYS, workloads.HORIZON_DAYS]))")
    assert package == benchmark
