"""Output checks run on every pipeline repeat; each failure counts as an error."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Corpus, Workload

# README stage table; cluster also writes eta_sweep.csv when given --sweep
STAGE_ARTIFACTS = {
    "simulate": ("events.jsonl", "ground_truth.json"),
    "cluster": ("assignments.csv", "clusters.json"),
    "fit": ("fits.json",),
    "forecast": ("forecast.csv", "forecast.json"),
    "attribute": ("attribution.json", "attribution_factors.csv"),
    "report": ("report.json", "aic_diff.csv", "factors.csv", "weekly_counts.csv"),
}
NESTED_REL_TOL = 1e-9
SHARE_TOL = 1e-9
AIC_REL_TOL = 1e-12


def missing_artifacts(stage: str, workload: Workload, out: Path) -> list[str]:
    names = STAGE_ARTIFACTS[stage]
    if stage == "cluster" and "--sweep" in workload.cluster_args:
        names += ("eta_sweep.csv",)
    return [name for name in names if not (out / name).is_file()]


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _load(out: Path, name: str):
    return json.loads((out / name).read_text(encoding="utf-8"))


def cluster_genres(out: Path, corpus: Corpus) -> tuple[dict[int, int], str | None]:
    """Map cluster id -> genre; the error says how assignments.csv departs
    from the generator's genre labels."""
    cluster_to_genre: dict[int, int] = {}
    genre_to_cluster: dict[int, int] = {}
    seen = 0
    with (out / "assignments.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            genre = corpus.labels.get(row["video_id"])
            if genre is None:
                return {}, f"unknown video {row['video_id']!r}"
            cid = int(row["cluster_id"])
            if cluster_to_genre.setdefault(cid, genre) != genre or \
                    genre_to_cluster.setdefault(genre, cid) != cid:
                return {}, f"video {row['video_id']!r} in cluster {cid} mixes genres"
            seen += 1
    if seen != len(corpus.labels):
        return {}, f"{seen} assigned videos, {len(corpus.labels)} generated"
    return cluster_to_genre, None


def analysis_checks(out: Path, workload: Workload, corpus: Corpus) -> dict[str, str | None]:
    """Every content check on one pipeline directory: name -> error or None."""
    results: dict[str, str | None] = {}
    cluster_to_genre, err = cluster_genres(out, corpus)
    results["assignments_match_genres"] = err

    fits = _load(out, "fits.json")["clusters"]
    nested = aic = None
    for entry in fits:
        h, po = entry["hawkes"], entry["poisson"]
        if "error" in h or "error" in po:
            nested = f"cluster {entry['cluster_id']}: fit error"
            continue
        if h["loglik"] < po["loglik"] - NESTED_REL_TOL * abs(po["loglik"]):
            nested = (f"cluster {entry['cluster_id']}: hawkes loglik {h['loglik']!r} "
                      f"< poisson loglik {po['loglik']!r}")
        for fit in (h, po):
            want = 2.0 * fit["n_params"] - 2.0 * fit["loglik"]
            if not math.isclose(fit["aic"], want, rel_tol=AIC_REL_TOL):
                aic = f"cluster {entry['cluster_id']} {fit['model']}: aic {fit['aic']!r} != {want!r}"
    results["hawkes_beats_poisson"] = nested
    results["aic_is_2k_minus_2ll"] = aic

    rows = {(r["cluster_id"], r["model"]): r
            for r in _load(out, "forecast.json")["rows"]}
    wanted = [(cid, m) for cid in sorted(cluster_to_genre)
              for m in workload.models if m != "hawkes_global"]
    if "hawkes_global" in workload.models:
        wanted.append((-1, "hawkes_global"))
    bad_row = bad_actual = None
    for key in wanted:
        row = rows.get(key)
        if row is None or row["status"] not in ("ok", "refused"):
            bad_row = f"{key}: {'missing' if row is None else row['status']}"
            continue
        if row["status"] == "ok" and not (
                isinstance(row["predicted"], (int, float))
                and math.isfinite(row["predicted"]) and row["predicted"] >= 0):
            bad_row = f"{key}: predicted {row['predicted']!r}"
        want = (sum(corpus.test_counts) if key[0] == -1
                else corpus.test_counts[cluster_to_genre[key[0]]])
        if row["actual"] != want:
            bad_actual = f"{key}: actual {row['actual']} != generated {want}"
    results["forecast_rows_complete"] = bad_row
    results["forecast_actual_matches"] = bad_actual if not err else err

    shares = None
    for r in _load(out, "attribution.json")["clusters"]:
        if not r["attributable"]:
            continue
        total = r["s_self"] + r["s_pop"] + r["s_exo"]
        if abs(total - 1.0) > SHARE_TOL or not (0.0 <= r["s_self"] <= 1.0) \
                or not (0.0 <= r["s_pop"] <= 1.0):
            shares = (f"cluster {r['cluster_id']}: shares {r['s_self']!r}, "
                      f"{r['s_pop']!r}, {r['s_exo']!r}")
    results["attribution_shares_valid"] = shares
    return results
