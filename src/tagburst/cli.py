"""Command-line pipeline: simulate -> cluster -> fit -> forecast -> attribute -> report.

Each stage reads the raw event file plus the artifacts of earlier stages
from the output directory and writes its own artifacts atomically, so
stages can be rerun in place and identical inputs yield identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import attribution, baselines, forecast, simulate, taggraph
from .hawkes import (FitResult, _check_positive, _json_typed, _params_from_fit, fit_mle,
                     fit_result_from_dict, fit_result_to_dict)
from .ingest import _atomic_write_text, _write_csv, parse_events, write_events
from .taggraph import GenreCluster

__all__ = ["main"]

# every per-cluster model; the pooled hawkes_global runs only when named
DEFAULT_MODELS = ",".join(m for m in forecast.KNOWN_MODELS if m != "hawkes_global")


def _write_json(path: Path, obj: object) -> None:
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _artifact_errors(path: Path, produced_by: str):
    """Require the artifact at path, and turn invalid JSON, or a missing or
    mistyped field read from it, into a one-line error naming the file."""
    if not path.is_file():
        raise FileNotFoundError(
            f"missing artifact {path}: run 'tagburst {produced_by}' first")
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}; rerun 'tagburst {produced_by}'") \
            from None
    except (TypeError, ValueError) as exc:  # ValueError includes json.JSONDecodeError
        raise ValueError(f"{path}: malformed ({exc}); rerun 'tagburst {produced_by}'") \
            from None


def _load_artifact(path: Path, produced_by: str,
                   clusters: Sequence[GenreCluster] | None = None) -> dict:
    """Decode the JSON artifact at path.  Given clusters, refuse it as
    _check_counts does."""
    with _artifact_errors(path, produced_by):
        doc = json.loads(path.read_text())
    if clusters is not None:
        _check_counts(path, produced_by, doc, clusters)
    return doc


def _check_counts(path: Path, produced_by: str, doc: dict,
                  clusters: Sequence[GenreCluster]) -> None:
    """Refuse the artifact doc read from path when its {cluster_id, n_events}
    entries under "clusters" are not those clusters and their event counts."""
    with _artifact_errors(path, produced_by):
        stored = {e["cluster_id"]: e["n_events"] for e in doc["clusters"]}
    current = {c.cluster_id: len(c.events) for c in clusters}
    if stored != current:
        cid = next(k for k in [*current, *stored] if stored.get(k) != current.get(k))
        raise ValueError(f"{path}: stale (cluster {cid}: {current.get(cid, 0)} events "
                         f"clustered, {stored.get(cid, 0)} in {path.name}); "
                         f"rerun 'tagburst {produced_by}'")


def _load_clusters(args) -> tuple[object, list[GenreCluster], dict]:
    """Rebuild GenreClusters from the input events plus the cluster artifacts;
    refuses a clusters.json whose cluster ids are not those of assignments.csv
    or whose event counts are not those of the rebuilt clusters."""
    out = Path(args.out)
    stream = parse_events(args.input)
    meta_path, assign_path = out / "clusters.json", out / "assignments.csv"
    meta = _load_artifact(meta_path, "cluster")
    with _artifact_errors(meta_path, "cluster"):
        tags = {c["cluster_id"]: frozenset(c["tags"]) for c in meta["clusters"]}
    with _artifact_errors(assign_path, "cluster"), \
            assign_path.open(newline="", encoding="utf-8") as fh:
        assignment = {row["video_id"]: int(row["cluster_id"])
                      for row in csv.DictReader(fh)}
    assigned = set(assignment.values())
    if assigned != tags.keys():
        cid = min(assigned ^ tags.keys())
        only_in = assign_path.name if cid in assigned else meta_path.name
        raise ValueError(f"{meta_path}: stale (cluster {cid} is only in {only_in}); "
                         f"rerun 'tagburst cluster'")
    members: dict[int, list] = {}
    for e in stream.events:
        if e.video_id not in assignment:
            raise ValueError(f"{assign_path}: lacks video {e.video_id!r}; "
                             f"rerun 'tagburst cluster'")
        members.setdefault(assignment[e.video_id], []).append(e)
    clusters = [
        GenreCluster(cluster_id=cid, tags=tags[cid],
                     events=type(stream)(stream.origin, tuple(evs), stream.horizon_T))
        for cid, evs in sorted(members.items())]
    _check_counts(meta_path, "cluster", meta, clusters)
    return stream, clusters, meta


def _load_fits(out: Path, clusters: Sequence[GenreCluster]) \
        -> tuple[dict, dict[int, tuple[FitResult | None, FitResult | None]]]:
    """fits.json and each cluster's (hawkes, poisson) fits, None where a fit
    failed; refuses a stale file or a Hawkes parameter that is not a number."""
    path = out / "fits.json"
    doc = _load_artifact(path, "fit", clusters)
    fits = {}
    with _artifact_errors(path, "fit"):
        for entry in doc["clusters"]:
            hawkes, poisson = (None if "error" in entry[m] else fit_result_from_dict(entry[m])
                               for m in ("hawkes", "poisson"))
            if hawkes is not None:
                _params_from_fit(hawkes)
            fits[entry["cluster_id"]] = (hawkes, poisson)
    return doc, fits


def cmd_simulate(args) -> int:
    out = Path(args.out)
    stream, truth = simulate.make_synthetic_corpus(T=args.t_days, seed=args.seed)
    write_events(stream, out / "events.jsonl")
    _write_json(out / "ground_truth.json", truth)
    print(f"wrote {out / 'events.jsonl'} ({len(stream)} events) and ground_truth.json")
    return 0


def cmd_cluster(args) -> int:
    if args.eta is None and args.sweep is None:
        raise ValueError("cluster needs --eta and/or --sweep A:B")
    if args.eta is not None:
        taggraph._check_eta(args.eta)
    out = Path(args.out)
    stream = parse_events(args.input)
    graph = taggraph.build_affinity_graph(stream)
    if args.sweep is not None:
        lo, hi = args.sweep
        rows = taggraph.sweep_eta(stream, graph, range(lo, hi + 1))
        _write_csv(out / "eta_sweep.csv", list(rows[0]), [list(r.values()) for r in rows])
        print(f"wrote {out / 'eta_sweep.csv'} ({len(rows)} thresholds)")
    if args.eta is not None:
        components, clusters = taggraph._clustering(stream, graph, args.eta)
        cluster_of = {e.video_id: c.cluster_id for c in clusters for e in c.events.events}
        _write_csv(out / "assignments.csv", ["video_id", "cluster_id"],
                   [(e.video_id, cluster_of[e.video_id]) for e in stream.events])
        _write_json(out / "clusters.json", {
            "eta": args.eta,
            "n_components": len(components),
            "clusters": [{
                "cluster_id": c.cluster_id,
                "tags": sorted(c.tags),
                "n_events": len(c.events),
                "first_time": c.events.events[0].upload_time,
                "last_time": c.events.events[-1].upload_time,
            } for c in clusters],
        })
        print(f"wrote {out / 'clusters.json'} ({len(clusters)} clusters "
              f"from {len(components)} components at eta={args.eta})")
    return 0


def cmd_fit(args) -> int:
    out = Path(args.out)
    _, clusters, meta = _load_clusters(args)

    entries = []
    for c in clusters:
        entry: dict = {"cluster_id": c.cluster_id, "n_events": len(c.events)}
        for model, fitter in (("hawkes", fit_mle), ("poisson", baselines.fit_poisson)):
            try:
                entry[model] = fit_result_to_dict(fitter(c.events.times, c.events.horizon_T))
            except ValueError as exc:
                entry[model] = {"error": str(exc)}
        entries.append(entry)
    _write_json(out / "fits.json", {"eta": meta.get("eta"), "clusters": entries})
    hawkes = [e["hawkes"] for e in entries if "error" not in e["hawkes"]]
    n_poisson = sum("effectively_poisson" in h.get("warnings", ()) for h in hawkes)
    print(f"wrote {out / 'fits.json'} ({len(hawkes)}/{len(entries)} Hawkes fits, "
          f"{n_poisson} effectively Poisson)")
    return 0


def cmd_forecast(args) -> int:
    out = Path(args.out)
    if args.train_days is None:
        raise ValueError("forecast needs --train-days")
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if not models:
        raise ValueError(f"--models names no model; choose from "
                         f"{', '.join(forecast.KNOWN_MODELS)}")
    models = forecast._check_models(models)
    _check_positive("train_days", args.train_days)
    stream, clusters, _ = _load_clusters(args)
    spec = forecast.default_split(stream.horizon_T, args.train_days)
    table = forecast.evaluate_all(clusters, spec, models)
    if not table.rows:
        cid, reason = table.exclusions[0]
        raise ValueError(f"no cluster scored, {len(table.exclusions)} excluded "
                         f"(cluster {cid}: {reason})")

    header = ["cluster_id", "model", "train_days", "horizon_days", "loglik", "aic",
              "predicted", "actual", "abs_error", "rel_error", "status", "note"]
    _write_csv(out / "forecast.csv", header,
               [[getattr(r, k) for k in header] for r in table.rows])
    _write_json(out / "forecast.json", {
        "train_days": spec.train_days,
        "horizon_days": forecast.HORIZON_DAYS,
        "split_point": spec.split_point,
        "models": models,
        "clusters": [{"cluster_id": c.cluster_id, "n_events": len(c.events)}
                     for c in clusters],
        "rows": [vars(r) for r in table.rows],
        "aggregates": table.aggregates,
        "exclusions": [{"cluster_id": cid, "reason": reason}
                       for cid, reason in table.exclusions],
        "aic_differences": list(table.aic_differences),
    })
    refused = sum(1 for r in table.rows if r.status == "refused")
    msg = f"wrote {out / 'forecast.csv'} ({len(table.rows)} rows"
    if refused:
        msg += f", {refused} refused"
    if table.exclusions:
        msg += f", {len(table.exclusions)} excluded"
    print(msg + ")")
    return 0


def _factor_rows(records: Sequence[dict]) -> list[list]:
    """One (cluster_id, factor, value) row per share of each attributable record;
    raises TypeError when a record's attributable is not a boolean."""
    return [[r["cluster_id"], factor, r[key]]
            for r in records if _json_typed(r, "attributable", bool)
            for factor, key in (("self", "s_self"), ("popularity", "s_pop"),
                                ("exogenous", "s_exo"))]


def cmd_attribute(args) -> int:
    out = Path(args.out)
    _, clusters, _ = _load_clusters(args)
    fits = {cid: hawkes for cid, (hawkes, _) in _load_fits(out, clusters)[1].items()
            if hawkes is not None}
    reports = attribution.attribution_report(clusters, fits)

    records = [{"n_events": len(c.events), **vars(r)} for c, r in zip(clusters, reports)]
    _write_json(out / "attribution.json", {"clusters": records})
    _write_csv(out / "attribution_factors.csv", ["cluster_id", "factor", "value"],
               _factor_rows(records))
    print(f"wrote {out / 'attribution.json'} "
          f"({sum(r.attributable for r in reports)}/{len(reports)} attributable)")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    _, clusters, clusters_doc = _load_clusters(args)
    fits_doc, fits = _load_fits(out, clusters)
    forecast_doc = _load_artifact(out / "forecast.json", "forecast", clusters)
    attribution_doc = _load_artifact(out / "attribution.json", "attribute", clusters)

    aic_rows = [[cid, hawkes.aic, poisson.aic, hawkes.aic - poisson.aic]
                for cid, (hawkes, poisson) in fits.items()
                if hawkes is not None and poisson is not None]
    _write_csv(out / "aic_diff.csv",
               ["cluster_id", "aic_hawkes", "aic_poisson", "aic_diff"], aic_rows)

    with _artifact_errors(out / "attribution.json", "attribute"):
        factor_rows = _factor_rows(attribution_doc["clusters"])
    _write_csv(out / "factors.csv", ["cluster_id", "factor", "value"], factor_rows)

    weekly_rows = []
    for c in clusters:
        weeks = np.floor(c.events.times / 7.0).astype(int)
        for week, count in zip(*np.unique(weeks, return_counts=True)):
            weekly_rows.append([c.cluster_id, int(week), int(count)])
    _write_csv(out / "weekly_counts.csv", ["cluster_id", "week", "count"], weekly_rows)

    _write_json(out / "report.json", {
        "input": Path(args.input).name,
        "clusters": clusters_doc,
        "fits": fits_doc,
        "forecast": forecast_doc,
        "attribution": attribution_doc,
    })
    print(f"wrote {out / 'report.json'}")
    return 0


def _parse_sweep(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A:B with integers, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"need 1 <= A <= B, got {text!r}")
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagburst",
        description="Cluster tagged upload streams and model their burst dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="event file (.jsonl, .json, .ndjson or .csv)")
        p.add_argument("--out", required=True, help="artifact directory")

    p = sub.add_parser("simulate", help="generate a labeled synthetic corpus")
    common(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-days", type=float, default=120.0,
                   help="length of the simulated window in days")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cluster", help="build the tag graph and assign videos")
    common(p)
    p.add_argument("--eta", type=int, default=None,
                   help="co-occurrence pruning threshold (positive integer)")
    p.add_argument("--sweep", type=_parse_sweep, default=None, metavar="A:B",
                   help="also write component counts for eta in A..B")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("fit", help="fit self-exciting and Poisson models per cluster")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="train/test evaluation of count forecasts")
    common(p)
    p.add_argument("--train-days", type=float, default=None, help=(
        f"training window in days; the last {forecast.HORIZON_DAYS:g} days are the test window"))
    p.add_argument("--models", default=DEFAULT_MODELS,
                   help=f"comma-separated subset of {', '.join(forecast.KNOWN_MODELS)}")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("attribute", help="decompose activity into factor shares")
    common(p)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("report", help="collate artifacts into report.json and plot data")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
