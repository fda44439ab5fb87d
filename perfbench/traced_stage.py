"""Run one tagburst CLI stage with spans around its layers' public functions.

    python3 perfbench/traced_stage.py SPANS_JSON RUN_ID <tagburst argv...>

Each hook replaces a public function in every tagburst module that holds it
(``fit_mle`` is imported by cli, forecast and baselines, for example), so the
stage runs unchanged apart from the timing calls.  The root span
``cli.<stage>`` covers ``tagburst.cli.main(argv)``.  Spans stay in memory and
are written to SPANS_JSON when the stage returns, together with the hooks
that did not resolve and the tracing's own cost: the time taken to install
the hooks, and the time one span adds to a call, measured after the stage
on a wrapped no-op.  The process exits with the stage's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time


def _events(args, kwargs, result):
    return {"events": len(result)}


def _fit(args, kwargs, result):
    return {"iterations": result.n_iterations, "converged": bool(result.converged)}


def _maximize(args, kwargs, result):
    return {"iterations": int(result[3]), "converged": bool(result[2])}


def _minimize(args, kwargs, result):
    return {"method": kwargs.get("method"), "nit": int(result.nit),
            "nfev": int(result.nfev)}


def _pairs(args, kwargs, result):
    return {"pairs": sum(r.n_pairs_evaluated for r in result)}


# (defining module, attribute, span name or None to name it after the
# importing module, attrs taken from the call)
HOOKS = (
    ("tagburst.ingest", "parse_events", "ingest.parse_events", _events),
    ("tagburst.ingest", "write_events", "ingest.write_events", None),
    ("tagburst.taggraph", "build_affinity_graph", "taggraph.build_affinity_graph", None),
    ("tagburst.taggraph", "connected_components", "taggraph.connected_components", None),
    ("tagburst.taggraph", "assign_videos", "taggraph.assign_videos", None),
    ("tagburst.taggraph", "sweep_eta", "taggraph.sweep_eta", None),
    ("tagburst.hawkes", "fit_mle", "hawkes.fit_mle", _fit),
    ("tagburst._optim", "maximize", "optim.maximize", _maximize),
    ("scipy.optimize", "minimize", None, _minimize),
    ("tagburst.baselines", "fit_arima_lite", "baselines.fit_arima_lite", None),
    ("tagburst.baselines", "forecast_arima", "baselines.forecast_arima", None),
    ("tagburst.baselines", "fit_nhpp_drift", "baselines.fit_nhpp_drift", None),
    ("tagburst.baselines", "fit_pc_nhpp", "baselines.fit_pc_nhpp", None),
    ("tagburst.baselines", "fit_poisson", "baselines.fit_poisson", None),
    ("tagburst.forecast", "evaluate_all", "forecast.evaluate_all", None),
    ("tagburst.forecast", "expected_count", "forecast.expected_count", None),
    ("tagburst.attribution", "attribution_report", "attribution.attribution_report", _pairs),
    ("tagburst.simulate", "make_synthetic_corpus", "simulate.make_synthetic_corpus", None),
    ("tagburst.simulate", "simulate_hawkes", "simulate.simulate_hawkes", None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack = threading.local()

    def call(self, name, annotate, fn, args, kwargs):
        stack = self._stack.__dict__.setdefault("open", [])
        span = {"name": name, "run": self.run_id,
                "parent": stack[-1] if stack else None, "attrs": {}}
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if annotate is not None:
            try:
                span["attrs"] = annotate(args, kwargs, result)
            except Exception as exc:  # the result no longer has the fields read
                span["attrs"] = {"annotate_error": repr(exc)}
        return result


def _wrap(tracer: Tracer, name: str, annotate, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, annotate, fn, args, kwargs)
    return wrapper


def install(tracer: Tracer) -> tuple[dict, list[str]]:
    """Patch every hook; return {hook: [patched modules]} and the missing hooks."""
    import tagburst.cli  # noqa: F401  (loads every module the stages use)

    patched: dict[str, list[str]] = {}
    missing: list[str] = []
    ours = [m for n, m in sorted(sys.modules.items())
            if n == "tagburst" or n.startswith("tagburst.")]
    for module_name, attr, name, annotate in HOOKS:
        hook = f"{module_name}.{attr}"
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            missing.append(hook)
            continue
        for module in ours:
            if getattr(module, attr, None) is not original:
                continue
            span_name = name or f"{module.__name__.split('.')[-1].lstrip('_')}.{attr}"
            setattr(module, attr, _wrap(tracer, span_name, annotate, original))
            patched.setdefault(hook, []).append(module.__name__)
        if hook not in patched:
            missing.append(hook)
    return patched, missing


def _noop(*args, **kwargs):
    return None


def span_cost(batches: int = 7, calls: int = 2000) -> float:
    """Seconds one span adds to a call: a wrapped, annotated no-op minus a
    bare one, the median over ``batches``."""
    tracer = Tracer("span_cost")
    wrapped = _wrap(tracer, "noop", lambda args, kwargs, result: {"n": 0}, _noop)

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn(1, key=2)
        return (time.perf_counter() - start) / calls

    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        costs.append(per_call(wrapped) - per_call(_noop))
    return max(statistics.median(costs), 0.0)


def main(argv: list[str]) -> int:
    spans_path, run_id, stage_argv = argv[0], argv[1], argv[2:]
    import tagburst.cli  # noqa: F401  (imported untimed: an untraced stage pays it too)

    tracer = Tracer(run_id)
    start = time.perf_counter()
    patched, missing = install(tracer)
    install_s = time.perf_counter() - start
    from tagburst.cli import main as cli_main

    code = tracer.call(f"cli.{stage_argv[0]}", None, cli_main, (stage_argv,), {})
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "patched": patched, "missing": missing,
                   "install_s": install_s, "span_cost_s": span_cost()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
