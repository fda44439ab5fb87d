"""Decomposition of cluster activity into self-reinforcement, popularity,
and exogenous shares via triggering probabilities.

The probability that event i triggered event j is
p_ij = beta * exp(-omega (t_j - t_i)) / lam(t_j); summing p_ij over pairs
whose uploader matches gives the self-reinforcement share, summing over
pairs whose trigger was unusually popular gives the popularity share, and
the remainder is exogenous.  A trigger is popular when its views + comments
beat the mean of that over its target uploader's strictly earlier uploads,
platform-wide.  Pairs separated by more than 40/omega are skipped: their
kernel weight is below e^-40 and cannot move the scores at reported
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .hawkes import FitResult, HawkesParams, _params_from_fit, decay_sums
from .ingest import Event, _stream_order
from .taggraph import GenreCluster

__all__ = [
    "AttributionReport",
    "attribution_report",
]

TRUNCATION_EXPONENT = 40.0


def _prior_means(reference: Sequence[Event], popularity: Mapping[str, float]) \
        -> dict[str, float]:
    """Per reference video, the mean popularity of its uploader's strictly
    earlier reference uploads; an empty history averages to zero."""
    running: dict[str, tuple[float, int]] = {}
    earlier: dict[str, float] = {}
    for e in reference:
        total, count = running.get(e.uploader_id, (0.0, 0))
        earlier[e.video_id] = total / count if count else 0.0
        running[e.uploader_id] = (total + popularity[e.video_id], count + 1)
    return earlier


def _pair_sums(p: HawkesParams, times: np.ndarray, uploaders: Sequence[str],
               psi: Sequence[float], thresholds: Sequence[float]) \
        -> tuple[float, float, float, int]:
    """One truncated pass over recent pairs: returns (denominator,
    self numerator, popularity numerator, pairs evaluated).  The intensity in
    each p_ij uses the exact O(n) recursion over the full history."""
    # plain floats, so no numpy scalar enters the double loop
    lam = (p.mu + p.beta * decay_sums(times, p.omega)).tolist()
    max_gap = TRUNCATION_EXPONENT / p.omega
    ts = times.tolist()
    psi, thresholds = (np.asarray(a, dtype=float).tolist() for a in (psi, thresholds))
    den = num_self = num_pop = 0.0
    n_pairs = 0
    for j in range(1, len(ts)):
        t_j = ts[j]
        scale = p.beta / lam[j]
        for i in range(j - 1, -1, -1):
            gap = t_j - ts[i]
            if gap > max_gap:
                break
            pij = scale * math.exp(-p.omega * gap)
            den += pij
            n_pairs += 1
            if uploaders[i] == uploaders[j]:
                num_self += pij
            if psi[i] > thresholds[j]:
                num_pop += pij
    return den, num_self, num_pop, n_pairs


@dataclass(frozen=True)
class AttributionReport:
    cluster_id: int
    s_self: float | None
    s_pop: float | None
    s_exo: float | None
    n_pairs_evaluated: int
    attributable: bool = True
    note: str = ""


def attribution_report(clusters: Sequence[GenreCluster],
                       fits: Mapping[int, FitResult]) -> list[AttributionReport]:
    """Per-cluster decomposition.  Clusters without a fit in fits, or whose
    fit has no endogenous mass (or is effectively Poisson, or did not
    converge), are marked not attributable instead of failing the whole
    report, and their uploads still count in the platform popularity
    reference; a negative exogenous share is flagged in the note, not
    renormalized.

    Popularity is views + comments; a trigger is popular when it beats its
    target's uploader mean over strictly earlier uploads in all clusters.
    """
    popularity = {e.video_id: e.n_views + e.n_comments
                  for c in clusters for e in c.events.events}
    threshold = _prior_means(
        sorted((e for c in clusters for e in c.events.events), key=_stream_order), popularity)

    reports = []
    for c in clusters:
        fit = fits.get(c.cluster_id)
        events = c.events.events
        try:
            if fit is None:
                raise ValueError("no usable fit")
            if not fit.converged:
                raise ValueError("fit did not converge")
            if "effectively_poisson" in fit.warnings:
                raise ValueError("effectively Poisson fit, endogenous mass is noise")
            p = _params_from_fit(fit)
            if len(events) < 2 or p.beta <= 0:
                raise ValueError("no endogenous mass")
            den, num_self, num_pop, n_pairs = _pair_sums(
                p, c.events.times, [e.uploader_id for e in events],
                [popularity[e.video_id] for e in events],
                [threshold[e.video_id] for e in events])
            if den == 0.0:
                raise ValueError("pair contributions vanish")
        except ValueError as exc:
            reports.append(AttributionReport(
                c.cluster_id, None, None, None, 0, attributable=False,
                note=f"not attributable: {exc}"))
            continue
        s_self, s_pop = num_self / den, num_pop / den
        s_exo = 1.0 - (s_self + s_pop)
        note = "negative exogenous share: self and popularity shares overlap" \
            if s_exo < 0 else ""
        reports.append(AttributionReport(
            c.cluster_id, s_self, s_pop, s_exo, n_pairs, attributable=True, note=note))
    return reports
