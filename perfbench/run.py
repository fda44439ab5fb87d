"""Stage-level benchmark of the tagburst command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program under test is the
package in ``src/``, started as ``python3 -m tagburst`` with ``src`` on
PYTHONPATH, the way a user runs it from source.  The workload's event file
is generated first (workloads.py says what the seed varies).  Each stage
runs as a fresh subprocess, one at a time (a closed loop with one client),
and whole pipeline passes repeat, at least twice, while another pass as
long as the last one still ends within S seconds.  Every repeat is checked
(checks.py); failures feed ``failed``.

With ``--trace 0`` the last line reports the end-to-end metrics that
BENCHMARK.json lists, each the median over the run's samples; the others
are printed above it.  With ``--trace 1`` untraced and traced passes
alternate, the traced passes run each stage through traced_stage.py, and the
last line reports the per-layer metrics, the tracing overhead and the
kernel probe (probe.py).  Scratch files go to ``.perfbench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import checks
from workloads import WORKLOADS, Workload, generate

STAGES = ("simulate", "cluster", "fit", "forecast", "attribute", "report")
ANALYSIS = STAGES[1:]
SETUP_SAMPLES = 5
MIN_PASSES = 2
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s
HERE = Path(__file__).resolve().parent


def median(values):
    return statistics.median(values) if values else None


class Run:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path,
                 times_key: int | None = None):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.t0 = time.perf_counter()
        # the user's environment, BLAS threads included; only src/ is added
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.reference: dict | None = None
        self.events = work / "events.jsonl"
        self.corpus = generate(workload, seed, self.events, times_key)

    def check(self, name: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {error}")
        return error is None

    def child(self, argv: list[str], log: Path) -> tuple[float, int, float]:
        """Run one process to completion: (wall seconds, exit code, peak RSS MB)."""
        with log.open("wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            left = DEADLINE_S - (start - self.t0)
            killer = threading.Timer(max(left, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss / 1024.0

    def tagburst(self, args: list[str], log: Path, spans: Path | None = None):
        if spans is None:
            argv = [sys.executable, "-m", "tagburst", *args]
        else:
            argv = [sys.executable, str(HERE / "traced_stage.py"), str(spans),
                    f"{self.workload.name}-{self.seed}-{spans.parent.name}", *args]
        return self.child(argv, log)

    def stage_args(self, stage: str, sim: Path, out: Path) -> list[str]:
        if stage == "simulate":
            return ["simulate", "--out", str(sim), "--seed", str(self.seed),
                    "--t-days", repr(self.workload.t_days)]
        args = [stage, "--input", str(self.events), "--out", str(out)]
        if stage == "cluster":
            args += self.workload.cluster_args
        elif stage == "forecast":
            args += self.workload.forecast_args
        return args

    def run_pass(self, index: int, traced: bool) -> dict:
        """One pipeline pass in a fresh directory, checked as it goes."""
        pdir = self.work / f"pass{index:02d}{'t' if traced else ''}"
        sim, out = pdir / "sim", pdir / "out"
        out.mkdir(parents=True)
        result = {"seconds": {}, "rss": {}, "spans": {}, "ok": True, "out": out}
        for stage in STAGES:
            spans = pdir / f"{stage}.spans.json" if traced else None
            seconds, code, rss = self.tagburst(
                self.stage_args(stage, sim, out), pdir / f"{stage}.log", spans)
            target = sim if stage == "simulate" else out
            ok = self.check(f"{pdir.name}/{stage} exit",
                            _exit_error(code, pdir / f"{stage}.log"))
            ok = ok and self.check(f"{pdir.name}/{stage} artifacts", _missing(
                checks.missing_artifacts(stage, self.workload, target)))
            if not ok:
                result["ok"] = False
                break
            result["seconds"][stage] = seconds
            result["rss"][stage] = rss
            if traced:
                result["spans"][stage] = json.loads(spans.read_text())
        if result["ok"]:
            self.content_checks(pdir.name, sim, out)
        shutil.rmtree(sim, ignore_errors=True)
        return result

    def content_checks(self, name: str, sim: Path, out: Path) -> None:
        try:
            found = checks.analysis_checks(out, self.workload, self.corpus)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = {"analysis_checks": f"{type(exc).__name__}: {exc}"}
        for check, error in found.items():
            self.check(f"{name}/{check}", error)
        digests = {"sim": checks.digests(sim), "out": checks.digests(out)}
        if self.reference is None:
            self.reference = digests
        else:
            changed = [f"{d}/{f}" for d in digests for f in
                       set(digests[d]) | set(self.reference[d])
                       if digests[d].get(f) != self.reference[d].get(f)]
            self.check(f"{name}/byte_identical",
                       f"differs from first pass: {sorted(changed)}" if changed else None)

    def out_of_time(self, seconds: float, start: float, last: float) -> bool:
        """True when another pass, as long as the last one, would end after
        ``seconds`` from ``start`` or near the deadline."""
        now = time.perf_counter()
        return now + last - start > seconds or now + last - self.t0 > DEADLINE_S - 10.0


def _exit_error(code: int, log: Path) -> str | None:
    if code == 0:
        return None
    lines = log.read_text(errors="replace").strip().splitlines()
    return f"exit {code}: {lines[-1] if lines else ''}"


def _missing(names: list[str]) -> str | None:
    return f"missing {', '.join(names)}" if names else None


def pipeline_seconds(p: dict) -> float | None:
    if not all(s in p["seconds"] for s in ANALYSIS):
        return None
    return sum(p["seconds"][s] for s in ANALYSIS)


def end_to_end(run: Run, setup: list[float], passes: list[dict], gated: set[str]) -> dict:
    samples = {"setup_s": setup}
    for stage in STAGES:
        samples[f"{stage}_s"] = [p["seconds"][stage] for p in passes
                                 if stage in p["seconds"]]
    samples["pipeline_s"] = [v for v in map(pipeline_seconds, passes) if v is not None]
    samples["peak_rss_mb"] = [max(p["rss"].values()) for p in passes if p["rss"]]
    metrics = {}
    for name, values in samples.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        if values and name in gated:
            metrics[name] = {"value": median(values), "unit": unit}
        print(f"{name:<14} {median(values) if values else float('nan'):12.6f} {unit:<5}"
              f" median of {len(values)}{'' if name in gated else ' (not gated)'}")
    print(f"{'error_rate':<14} {run.failed / max(run.attempted, 1):12.6f} ratio "
          f"{run.failed} failed of {run.attempted} attempted")
    return metrics


class Layers:
    """Span aggregates of one traced pass."""

    def __init__(self, traced: dict, run: Run, name: str):
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.resolved: set[str] = set()
        self.missing: set[str] = set()
        self.overhead = 0.0
        for stage, doc in traced["spans"].items():
            spans = doc["spans"]
            self.missing.update(doc["missing"])
            for hook, modules in doc["patched"].items():
                self.resolved.add(hook)
                self.resolved.update(f"{hook}@{m}" for m in modules)
            self.overhead += doc["install_s"] + len(spans) * doc["span_cost_s"]
            run.check(f"{name}/{stage} spans nest",
                      _nesting_error(spans, stage, traced["seconds"][stage]))
            # self time: duration minus the children's durations (children
            # of one span do not overlap: the CLI runs one call at a time)
            own = [s["end"] - s["start"] for s in spans]
            for s in spans:
                if s["parent"] is not None:
                    own[s["parent"]] -= s["end"] - s["start"]
            for i, s in enumerate(spans):
                s["self"] = own[i]
                self.by_name[s["name"]].append(s)

    def count(self, name, where=None):
        return sum(1 for s in self.by_name[name] if where is None or where(s["attrs"]))

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.by_name[name])

    def self_time(self, name):
        return sum(s["self"] for s in self.by_name[name])

    def attr_sum(self, name, attr, where=None):
        return sum(s["attrs"][attr] for s in self.by_name[name]
                   if where is None or where(s["attrs"]))


def _nesting_error(spans: list[dict], stage: str, wall: float) -> str | None:
    """The spans form one tree under ``cli.<stage>``, each inside its parent's
    interval, and the root lasts no longer than the stage's process did."""
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != f"cli.{stage}":
        return f"roots {[s['name'] for s in roots]}, expected ['cli.{stage}']"
    for s in spans:
        p = spans[s["parent"]] if s["parent"] is not None else None
        if s["end"] < s["start"] or p is not None and not (
                p["start"] <= s["start"] and s["end"] <= p["end"]):
            return f"{s['name']} [{s['start']!r}, {s['end']!r}] outside its parent"
    if roots[0]["end"] - roots[0]["start"] > wall:
        return (f"root span {roots[0]['end'] - roots[0]['start']:.6f} s "
                f"longer than the process, {wall:.6f} s")
    return None


def _ratio(num, den):
    # a ratio with a zero base is undefined and reported as absent
    return None if den == 0 else num / den


def _is(method):
    return lambda attrs: attrs["method"] == method


def _layer_table():
    """metric -> (hooks it needs, value computed from one traced pass's Layers).

    A hook is "<module>.<name>", or "<hook>@<module>" when the metric needs
    the hook to be patched in that importing module.
    """
    t = {}
    hook = "tagburst."
    opt = "scipy.optimize.minimize@tagburst._optim"
    css = "scipy.optimize.minimize@tagburst.baselines"
    nm = _is("Nelder-Mead")

    def timed(module, fn, calls=False):
        name, h = f"{module.lstrip('_')}.{fn}", [f"{hook}{module}.{fn}"]
        t[f"{name}.total_s"] = (h, lambda L: L.total(name))
        if calls:
            t[f"{name}.calls"] = (h, lambda L: L.count(name))
        return name, h

    for stage in STAGES:
        t[f"cli.{stage}.self_s"] = ([], lambda L, s=stage: L.self_time(f"cli.{s}"))
    parse, h = timed("ingest", "parse_events", calls=True)
    t[f"{parse}.us_per_event"] = (h, lambda L: _ratio(
        L.total(parse) * 1e6, L.attr_sum(parse, "events")))
    timed("ingest", "write_events")
    for fn in ("build_affinity_graph", "connected_components", "assign_videos",
               "sweep_eta"):
        timed("taggraph", fn)
    fit, h = timed("hawkes", "fit_mle", calls=True)
    t[f"{fit}.iterations"] = (h, lambda L: L.attr_sum(fit, "iterations"))
    t[f"{fit}.not_converged"] = (h, lambda L: L.count(fit, lambda a: not a["converged"]))
    mx, h = timed("_optim", "maximize", calls=True)
    t["optim.lbfgsb.nfev"] = ([opt], lambda L: L.attr_sum(
        "optim.minimize", "nfev", _is("L-BFGS-B")))
    t["optim.nelder_mead.calls"] = ([opt], lambda L: L.count("optim.minimize", nm))
    t["optim.nelder_mead.nfev"] = ([opt], lambda L: L.attr_sum("optim.minimize", "nfev", nm))
    t["optim.fallback_share"] = ([opt] + h, lambda L: _ratio(
        L.count("optim.minimize", nm), L.count(mx)))
    timed("baselines", "fit_arima_lite", calls=True)
    t["baselines.css_nelder_mead.nfev"] = ([css], lambda L: L.attr_sum(
        "baselines.minimize", "nfev"))
    for fn in ("forecast_arima", "fit_nhpp_drift", "fit_pc_nhpp", "fit_poisson"):
        timed("baselines", fn)
    ev, h = timed("forecast", "evaluate_all")
    t[f"{ev}.self_s"] = (h, lambda L: L.self_time(ev))
    timed("forecast", "expected_count", calls=True)
    rep, h = timed("attribution", "attribution_report")
    t["attribution.pairs_evaluated"] = (h, lambda L: L.attr_sum(rep, "pairs"))
    t["attribution.ns_per_pair"] = (h, lambda L: _ratio(
        L.total(rep) * 1e9, L.attr_sum(rep, "pairs")))
    timed("simulate", "make_synthetic_corpus")
    timed("simulate", "simulate_hawkes", calls=True)
    return t


LAYER_TABLE = _layer_table()


def layer_metrics(run: Run, passes: list[dict], plain: list[dict], probe: dict) -> dict:
    traced = [p for p in passes if p["ok"]]
    per_pass = [Layers(p, run, f"traced{i}") for i, p in enumerate(traced)]
    missing = set().union(*(L.missing for L in per_pass))
    absent: dict[str, str] = {}
    metrics = {}
    for name, (needs, value) in LAYER_TABLE.items():
        unresolved = [n for n in needs if any(n not in L.resolved for L in per_pass)]
        if not per_pass:
            absent[name] = "no traced pass completed"
            continue
        if unresolved:
            absent[name] = "hook missing: " + ", ".join(unresolved)
            continue
        try:
            values = [value(L) for L in per_pass]
        except KeyError as exc:  # the span lacks an attribute the hook records
            absent[name] = f"span attribute missing: {exc}"
            continue
        if any(v is None for v in values):
            absent[name] = "zero base"
            continue
        metrics[name] = median(values)

    if "us_per_event" in probe:
        metrics["hawkes.log_likelihood_gradient.us_per_event"] = probe["us_per_event"]
    else:
        absent["hawkes.log_likelihood_gradient.us_per_event"] = probe.get("missing", "no probe")
    if per_pass:
        metrics["trace.overhead_s"] = median([L.overhead for L in per_pass])
    # for reference only: wall-time differences of adjacent traced and
    # untraced passes, far noisier than the overhead they contain
    paired = [pipeline_seconds(t) - pipeline_seconds(u) for t, u in zip(traced, plain)
              if t["ok"] and u["ok"]]
    if paired:
        print(f"traced minus untraced pipeline_s: median {median(paired):.6f} s "
              f"of {len(paired)} adjacent pairs (not a metric)")

    for name, value in metrics.items():
        print(f"{name:<48} {value:14.6f} {LAYER_UNITS.get(name, 's')}")
    for hook in sorted(missing):
        print(f"missing hook: {hook}")
    for name, why in sorted(absent.items()):
        print(f"absent: {name} ({why})")
    return {k: {"value": v, "unit": LAYER_UNITS.get(k, "s")} for k, v in metrics.items()}


def _layer_units() -> dict[str, str]:
    units = {}
    for name in list(LAYER_TABLE) + ["hawkes.log_likelihood_gradient.us_per_event"]:
        if name.endswith((".calls", ".nfev", ".iterations", ".not_converged",
                          ".pairs_evaluated")):
            units[name] = "count"
        elif name.endswith(".us_per_event"):
            units[name] = "us/event"
        elif name.endswith(".ns_per_pair"):
            units[name] = "ns/pair"
        elif name.endswith("_share"):
            units[name] = "ratio"
    return units


LAYER_UNITS = _layer_units()


def run_probe(run: Run, out: Path) -> dict:
    """Time the likelihood gradient on the largest cluster at its fitted parameters."""
    try:
        cluster_to_genre, _ = checks.cluster_genres(out, run.corpus)
        fits = json.loads((out / "fits.json").read_text())["clusters"]
        entry = max(fits, key=lambda e: e["n_events"])
        h = entry["hawkes"]
        spec = {"times": run.corpus.genre_times[cluster_to_genre[entry["cluster_id"]]].tolist(),
                "T": run.corpus.horizon, "mu": h["mu"], "beta": h["beta"],
                "omega": h["omega"]}
    except (OSError, ValueError, KeyError) as exc:
        return {"missing": f"probe input: {exc}"}
    path = run.work / "probe.json"
    path.write_text(json.dumps(spec))
    log = run.work / "probe.log"
    _, code, _ = run.child([sys.executable, str(HERE / "probe.py"), str(path)], log)
    lines = log.read_text().strip().splitlines()
    if not run.check("probe exit", None if code == 0 and lines else f"exit {code}"):
        return {"missing": "probe failed"}
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--times-key", type=int, default=None,
                        help="another realisation of the event times (see workloads.py)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tagburst" / "cli.py").is_file():
        print(f"error: no tagburst source under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    # BENCHMARK.json names the end-to-end metrics the result carries
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {m["name"] for m in bench["end_to_end"]}
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, WORKLOADS[args.workload], args.seed, work, args.times_key)
    print(f"workload {args.workload} seed {args.seed}: {run.corpus.n_events} events, "
          f"{len(run.corpus.genre_times)} genres")

    # the first start compiles the package's bytecode, which users pay once
    run.tagburst(["--help"], work / "warmup.log")
    plain, traced = [], []
    if args.trace:
        start = last = time.perf_counter()
        while not plain or not run.out_of_time(args.seconds, start, time.perf_counter() - last):
            last = time.perf_counter()
            plain.append(run.run_pass(len(plain) + len(traced), traced=False))
            traced.append(run.run_pass(len(plain) + len(traced), traced=True))
        probe = run_probe(run, traced[-1]["out"]) if traced[-1]["ok"] else \
            {"missing": "no completed traced pass"}
        metrics = layer_metrics(run, traced, plain, probe)
        with (work / "spans.json").open("w", encoding="utf-8") as fh:
            json.dump([p["spans"] for p in traced], fh)
    else:
        setup = []
        for i in range(SETUP_SAMPLES):
            seconds, code, _ = run.tagburst(["--help"], work / "help.log")
            if run.check(f"setup {i} exit", _exit_error(code, work / "help.log")):
                setup.append(seconds)
        start = last = time.perf_counter()
        while len(plain) < MIN_PASSES or \
                not run.out_of_time(args.seconds, start, time.perf_counter() - last):
            last = time.perf_counter()
            plain.append(run.run_pass(len(plain), traced=False))
        metrics = end_to_end(run, setup, plain, gated)
    if run.failed == 0:  # keep the artifacts and logs of a failed run only
        run.events.unlink()
        for p in plain + traced:
            shutil.rmtree(p["out"].parent)
    for error in run.errors:
        print(f"FAILED {error}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
