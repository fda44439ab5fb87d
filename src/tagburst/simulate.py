"""Event simulation by thinning, plus synthetic labeled corpora.

All generators are counter-based (Philox) and keyed by explicit integer
seeds, so output is reproducible and independent of generation order.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hawkes import HawkesParams, _check_positive, _check_times, _excitation
from .ingest import Event, EventStream, _stream_order

__all__ = [
    "SimConfig",
    "PopularityModel",
    "ClusterSpec",
    "simulate_hawkes",
    "make_synthetic_corpus",
    "default_corpus_spec",
    "derive_seed",
]

SYNTH_ORIGIN = 1577836800.0  # 2020-01-01T00:00:00Z, anchors synthetic streams


@dataclass(frozen=True)
class SimConfig:
    """Window (t_start, t_end], RNG seed, and optional conditioning history."""

    seed: int
    t_start: float
    t_end: float
    history: tuple[float, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("window endpoints must be finite")
        if self.t_end <= self.t_start:
            raise ValueError(f"t_end={self.t_end} must exceed t_start={self.t_start}")
        hist = _check_times(self.history)
        if hist.size and hist[-1] >= self.t_start:
            raise ValueError("history must lie strictly before t_start")
        object.__setattr__(self, "history", tuple(hist.tolist()))


def _generator(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(int(k) for k in key))))


def derive_seed(seed: int, *parts: int) -> int:
    """Stable 64-bit child seed for (seed, parts)."""
    return int(np.random.SeedSequence((int(seed),) + tuple(int(p) for p in parts))
               .generate_state(1, np.uint64)[0])


def simulate_hawkes(p: HawkesParams, c: SimConfig) -> np.ndarray:
    """Draw event times in (t_start, t_end] by Ogata thinning.

    The exponential kernel only decays between events, so the intensity just
    after the most recent accepted or rejected point is a valid upper bound
    for the next proposal.  Supercritical parameters are refused.
    """
    if p.branching_ratio >= 1.0:
        raise ValueError(
            f"branching ratio {p.branching_ratio:.3f} >= 1: explosive process refused")
    rng = _generator(c.seed)
    excitation = _excitation(p, np.asarray(c.history, dtype=float), c.t_start)

    out: list[float] = []
    t = c.t_start
    while True:
        lam_bar = p.mu + excitation
        wait = rng.exponential() / lam_bar
        t_next = t + wait
        if t_next > c.t_end:
            break
        excitation *= math.exp(-p.omega * (t_next - t))
        t = t_next
        if rng.random() * lam_bar <= p.mu + excitation:
            out.append(t)
            excitation += p.beta
    return np.asarray(out)


@dataclass(frozen=True)
class PopularityModel:
    """Per-uploader latent quality q ~ lognormal(0, sigma^2); views and
    comments are Poisson with means scaled by q."""

    quality_sigma: float = 0.5
    views_scale: float = 50.0
    comments_scale: float = 5.0


@dataclass(frozen=True)
class ClusterSpec:
    tags: frozenset[str]
    params: HawkesParams
    uploaders: tuple[str, ...]
    popularity: PopularityModel = field(default_factory=PopularityModel)

    def __post_init__(self):
        if not self.tags:
            raise ValueError("cluster spec needs at least one tag")
        if not self.uploaders:
            raise ValueError("cluster spec needs at least one uploader")


def _uploader_quality(seed: int, uploader: str, sigma: float,
                      cache: dict[str, float]) -> float:
    if uploader not in cache:
        rng = _generator(seed, 3, zlib.crc32(uploader.encode("utf-8")))
        cache[uploader] = float(rng.lognormal(0.0, sigma))
    return cache[uploader]


def make_synthetic_corpus(spec: Sequence[ClusterSpec], T: float,
                          seed: int) -> tuple[EventStream, dict]:
    """Generate a labeled corpus: one stream per cluster spec, merged.

    Every video carries its cluster's full tag set, so intra-cluster
    co-occurrence equals the cluster size and cross-cluster co-occurrence is
    zero.  Returns the merged stream and a ground-truth dict with the true
    parameters and video labels.
    """
    _check_positive("corpus length T", T)
    all_tags: set[str] = set()
    for cs in spec:
        if all_tags & cs.tags:
            raise ValueError(f"cluster tag sets overlap: {sorted(all_tags & cs.tags)}")
        all_tags |= cs.tags

    quality: dict[str, float] = {}
    events: list[Event] = []
    labels: dict[str, int] = {}
    truth_clusters = []
    for idx, cs in enumerate(spec):
        times = simulate_hawkes(cs.params, SimConfig(
            seed=derive_seed(seed, 0, idx), t_start=0.0, t_end=float(T)))
        meta_rng = _generator(seed, 1, idx)
        pop = cs.popularity
        for k, t in enumerate(times.tolist()):
            uploader = cs.uploaders[int(meta_rng.integers(len(cs.uploaders)))]
            q = _uploader_quality(seed, uploader, pop.quality_sigma, quality)
            vid = f"c{idx:02d}v{k:05d}"
            events.append(Event(
                video_id=vid, upload_time=t, uploader_id=uploader,
                tags=frozenset(cs.tags),
                n_views=int(meta_rng.poisson(pop.views_scale * q)),
                n_comments=int(meta_rng.poisson(pop.comments_scale * q))))
            labels[vid] = idx
        truth_clusters.append({
            "index": idx,
            "tags": sorted(cs.tags),
            "mu": cs.params.mu,
            "beta": cs.params.beta,
            "omega": cs.params.omega,
            "branching_ratio": cs.params.branching_ratio,
            "uploaders": list(cs.uploaders),
            "n_events": int(times.size),
        })

    events.sort(key=_stream_order)
    stream = EventStream(origin=SYNTH_ORIGIN, events=tuple(events), horizon_T=float(T))
    truth = {"seed": int(seed), "horizon_days": float(T),
             "clusters": truth_clusters, "labels": labels}
    return stream, truth


def default_corpus_spec() -> list[ClusterSpec]:
    """Small three-genre fixture: a moderately bursty cluster, a very bursty
    single-uploader cluster, and a near-Poisson cluster."""
    return [
        ClusterSpec(
            tags=frozenset({"ambient", "chill", "drone"}),
            params=HawkesParams(mu=0.6, beta=0.9, omega=1.5),
            uploaders=tuple(f"u{i:02d}" for i in range(10))),
        ClusterSpec(
            tags=frozenset({"metal", "rock"}),
            params=HawkesParams(mu=0.3, beta=1.6, omega=2.0),
            uploaders=("solo_uploader",)),
        ClusterSpec(
            tags=frozenset({"bebop", "jazz", "swing"}),
            params=HawkesParams(mu=1.2, beta=0.2, omega=2.5),
            uploaders=tuple(f"w{i:02d}" for i in range(20))),
    ]
