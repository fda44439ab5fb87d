"""Decomposition of cluster activity into self-reinforcement, popularity,
and exogenous shares via triggering probabilities.

The probability that event i triggered event j is
p_ij = beta * exp(-omega (t_j - t_i)) / lam(t_j); summing p_ij over pairs
whose uploader matches gives the self-reinforcement share, summing over
pairs whose trigger was unusually popular gives the popularity share, and
the remainder is exogenous.  Pairs separated by more than 40/omega are
skipped: their kernel weight is below e^-40 and cannot move the scores at
reported precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .hawkes import (FitResult, HawkesParams, _check_times, _excitation, _params_from_fit,
                     decay_sums)
from .ingest import Event, EventStream
from .taggraph import GenreCluster

__all__ = [
    "AttributionReport",
    "triggering_probability",
    "self_score",
    "pop_score",
    "exo_score",
    "attribution_report",
]

TRUNCATION_EXPONENT = 40.0


def triggering_probability(p: HawkesParams, times: Sequence[float], i: int, j: int) -> float:
    """p_ij = kernel weight of i at t_j over the full intensity at t_j.

    Simultaneous events are ordered by index: an earlier-indexed event can
    trigger a later one at full weight, never the reverse.
    """
    times = _check_times(times)
    if not (0 <= i < j < times.size):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={times.size}")
    lam_j = p.mu + _excitation(p, times[:j], times[j])
    return p.beta * math.exp(-p.omega * (times[j] - times[i])) / lam_j


def _psi_values(events: Sequence[Event], w_comments: float) -> np.ndarray:
    return np.array([e.n_views + w_comments * e.n_comments for e in events], dtype=float)


def _prior_thresholds(cluster_events: Sequence[Event], reference: EventStream,
                      w_comments: float, causal: bool) -> np.ndarray:
    """Per cluster event, the mean popularity of its uploader's reference
    uploads; causal means strictly earlier uploads only, an empty history
    averages to zero."""
    by_video: dict[str, float] = {}
    if causal:
        running: dict[str, tuple[float, int]] = {}
        for e in reference.events:
            total, count = running.get(e.uploader_id, (0.0, 0))
            by_video[e.video_id] = total / count if count else 0.0
            running[e.uploader_id] = (total + e.n_views + w_comments * e.n_comments,
                                      count + 1)
    else:
        totals: dict[str, tuple[float, int]] = {}
        for e in reference.events:
            total, count = totals.get(e.uploader_id, (0.0, 0))
            totals[e.uploader_id] = (total + e.n_views + w_comments * e.n_comments,
                                     count + 1)
        means = {u: total / count for u, (total, count) in totals.items()}
        for e in reference.events:
            by_video[e.video_id] = means[e.uploader_id]

    out = np.empty(len(cluster_events))
    for k, e in enumerate(cluster_events):
        if e.video_id not in by_video:
            raise ValueError(
                f"reference stream is missing cluster video {e.video_id!r}")
        out[k] = by_video[e.video_id]
    return out


def _pair_sums(p: HawkesParams, times: np.ndarray,
               same_uploader: Sequence[str] | None,
               psi: np.ndarray | None, thresholds: np.ndarray | None,
               ) -> tuple[float, float, float, int]:
    """One truncated pass over recent pairs: returns (denominator,
    self numerator, popularity numerator, pairs evaluated).  The intensity in
    each p_ij uses the exact O(n) recursion over the full history."""
    lam = p.mu + p.beta * decay_sums(times, p.omega)
    max_gap = TRUNCATION_EXPONENT / p.omega
    ts = times.tolist()
    den = num_self = num_pop = 0.0
    n_pairs = 0
    for j in range(1, times.size):
        t_j = ts[j]
        scale = p.beta / lam[j]
        for i in range(j - 1, -1, -1):
            gap = t_j - ts[i]
            if gap > max_gap:
                break
            pij = scale * math.exp(-p.omega * gap)
            den += pij
            n_pairs += 1
            if same_uploader is not None and same_uploader[i] == same_uploader[j]:
                num_self += pij
            if psi is not None and psi[i] > thresholds[j]:
                num_pop += pij
    return den, num_self, num_pop, n_pairs


def _shares(cluster: GenreCluster, p: HawkesParams,
            same_uploader: Sequence[str] | None,
            psi: np.ndarray | None, thresholds: np.ndarray | None,
            ) -> tuple[float, float, int]:
    """(self share, popularity share, pairs evaluated) of one cluster.

    Raises ValueError naming the reason when there is no endogenous mass to
    attribute: fewer than 2 events, beta = 0, or every pair truncated away.
    """
    if len(cluster.events) < 2 or p.beta <= 0:
        raise ValueError("no endogenous mass")
    den, num_self, num_pop, n_pairs = _pair_sums(
        p, cluster.events.times, same_uploader, psi, thresholds)
    if den == 0.0:
        raise ValueError("pair contributions vanish")
    return num_self / den, num_pop / den, n_pairs


def self_score(cluster: GenreCluster, p: HawkesParams) -> float:
    """Share of triggering mass on same-uploader pairs, in [0, 1]."""
    uploaders = [e.uploader_id for e in cluster.events.events]
    return _shares(cluster, p, uploaders, None, None)[0]


def pop_score(cluster: GenreCluster, p: HawkesParams, w_comments: float = 1.0,
              reference: EventStream | None = None, causal: bool = True) -> float:
    """Share of triggering mass from uploads more popular than the triggered
    uploader's own average.

    Popularity is views + w_comments * comments.  The uploader average is
    taken over the reference stream (the whole platform when provided,
    otherwise the cluster itself), over strictly earlier uploads when causal.
    """
    if not (math.isfinite(w_comments) and w_comments >= 0):
        raise ValueError(f"w_comments must be >= 0, got {w_comments}")
    events = cluster.events.events
    ref = reference if reference is not None else cluster.events
    psi = _psi_values(events, w_comments)
    thresholds = _prior_thresholds(events, ref, w_comments, causal)
    return _shares(cluster, p, None, psi, thresholds)[1]


def exo_score(s_self: float, s_pop: float) -> float:
    """Remainder share; may be negative when the other two overlap."""
    for name, v in (("s_self", s_self), ("s_pop", s_pop)):
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return 1.0 - (s_self + s_pop)


@dataclass(frozen=True)
class AttributionReport:
    cluster_id: int
    s_self: float | None
    s_pop: float | None
    s_exo: float | None
    n_pairs_evaluated: int
    w_comments: float
    attributable: bool = True
    note: str = ""


def attribution_report(clusters: Sequence[GenreCluster],
                       fits: Mapping[int, FitResult],
                       w_comments: float = 1.0, *,
                       pop_scope: str = "platform",
                       causal: bool = True) -> list[AttributionReport]:
    """Per-cluster decomposition.  Clusters whose fit has no endogenous mass
    (or is effectively Poisson, or did not converge) are marked not
    attributable instead of failing the whole report; a negative exogenous
    share is flagged in the note, not renormalized."""
    if pop_scope not in ("platform", "cluster"):
        raise ValueError(f"pop_scope must be 'platform' or 'cluster', got {pop_scope!r}")
    for c in clusters:
        if c.cluster_id not in fits:
            raise ValueError(f"missing fit for cluster {c.cluster_id}")

    reference = None
    if pop_scope == "platform" and clusters:
        merged = sorted((e for c in clusters for e in c.events.events),
                        key=lambda e: (e.upload_time, e.video_id))
        reference = EventStream(clusters[0].events.origin, tuple(merged),
                                max(c.events.horizon_T for c in clusters))

    reports = []
    for c in clusters:
        fit = fits[c.cluster_id]
        events = c.events.events
        uploaders = [e.uploader_id for e in events]
        psi = _psi_values(events, w_comments)
        thresholds = _prior_thresholds(events, reference or c.events, w_comments, causal)
        try:
            if not fit.converged:
                raise ValueError("fit did not converge")
            if "effectively_poisson" in fit.warnings:
                raise ValueError("effectively Poisson fit, endogenous mass is noise")
            s_self, s_pop, n_pairs = _shares(c, _params_from_fit(fit), uploaders, psi,
                                             thresholds)
        except ValueError as exc:
            reports.append(AttributionReport(
                c.cluster_id, None, None, None, 0, float(w_comments),
                attributable=False, note=f"not attributable: {exc}"))
            continue
        s_exo = 1.0 - (s_self + s_pop)
        note = "negative exogenous share: self and popularity shares overlap" \
            if s_exo < 0 else ""
        reports.append(AttributionReport(
            c.cluster_id, s_self, s_pop, s_exo, n_pairs, float(w_comments),
            attributable=True, note=note))
    return reports
