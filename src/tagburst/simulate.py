"""Event simulation by thinning, plus the labeled three-genre corpus of the `simulate` stage.

All generators are counter-based (Philox) and keyed by explicit integer
seeds, so output is reproducible and independent of generation order.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .hawkes import HawkesParams, _check_positive
from .ingest import Event, EventStream, _stream_order

__all__ = ["simulate_hawkes", "make_synthetic_corpus", "derive_seed"]

SYNTH_ORIGIN = 1577836800.0  # 2020-01-01T00:00:00Z, anchors synthetic streams


def _check_seed(seed: int) -> None:
    """Raise unless seed is a non-negative Python or numpy integer."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _generator(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(int(k) for k in key))))


def derive_seed(seed: int, *parts: int) -> int:
    """Stable 64-bit child seed for (seed, parts)."""
    return int(np.random.SeedSequence((int(seed),) + tuple(int(p) for p in parts))
               .generate_state(1, np.uint64)[0])


def simulate_hawkes(p: HawkesParams, T: float, seed: int) -> np.ndarray:
    """Draw event times in (0, T], starting from no earlier events, by Ogata thinning.

    The exponential kernel only decays between events, so the intensity just
    after the most recent accepted or rejected point is a valid upper bound
    for the next proposal.  Supercritical parameters are refused.
    """
    _check_seed(seed)
    _check_positive("simulation window T", T)
    if p.branching_ratio >= 1.0:
        raise ValueError(
            f"branching ratio {p.branching_ratio:.3f} >= 1: explosive process refused")
    rng = _generator(seed)
    excitation = 0.0

    out: list[float] = []
    t = 0.0
    while True:
        lam_bar = p.mu + excitation
        wait = rng.exponential() / lam_bar
        t_next = t + wait
        if t_next > T:
            break
        excitation *= math.exp(-p.omega * (t_next - t))
        t = t_next
        if rng.random() * lam_bar <= p.mu + excitation:
            out.append(t)
            excitation += p.beta
    return np.asarray(out)


# per-uploader latent quality q ~ lognormal(0, _QUALITY_SIGMA^2); views and
# comments are Poisson with means scaled by q
_QUALITY_SIGMA = 0.5
_VIEWS_SCALE = 50.0
_COMMENTS_SCALE = 5.0


# the simulated genres, each (tags, generating parameters, uploaders): a
# moderately bursty genre, a very bursty single-uploader genre, and a
# near-Poisson genre
_GENRES = (
    (frozenset({"ambient", "chill", "drone"}), HawkesParams(mu=0.6, beta=0.9, omega=1.5),
     tuple(f"u{i:02d}" for i in range(10))),
    (frozenset({"metal", "rock"}), HawkesParams(mu=0.3, beta=1.6, omega=2.0),
     ("solo_uploader",)),
    (frozenset({"bebop", "jazz", "swing"}), HawkesParams(mu=1.2, beta=0.2, omega=2.5),
     tuple(f"w{i:02d}" for i in range(20))),
)


def _uploader_quality(seed: int, uploader: str, cache: dict[str, float]) -> float:
    if uploader not in cache:
        rng = _generator(seed, 3, zlib.crc32(uploader.encode("utf-8")))
        cache[uploader] = float(rng.lognormal(0.0, _QUALITY_SIGMA))
    return cache[uploader]


def make_synthetic_corpus(T: float, seed: int) -> tuple[EventStream, dict]:
    """Generate the labeled corpus on (0, T]: one stream per genre of _GENRES, merged.

    Every video carries its genre's full tag set, so intra-genre
    co-occurrence equals the genre size and cross-genre co-occurrence is
    zero.  Returns the merged stream and a ground-truth dict with the true
    parameters and video labels.  The seed must be a non-negative integer.
    """
    _check_seed(seed)
    _check_positive("corpus length T", T)
    quality: dict[str, float] = {}
    events: list[Event] = []
    labels: dict[str, int] = {}
    truth_clusters = []
    for idx, (tags, params, uploaders) in enumerate(_GENRES):
        times = simulate_hawkes(params, T, derive_seed(seed, 0, idx))
        meta_rng = _generator(seed, 1, idx)
        for k, t in enumerate(times.tolist()):
            uploader = uploaders[int(meta_rng.integers(len(uploaders)))]
            q = _uploader_quality(seed, uploader, quality)
            vid = f"c{idx:02d}v{k:05d}"
            events.append(Event(
                video_id=vid, upload_time=t, uploader_id=uploader,
                tags=tags,
                n_views=int(meta_rng.poisson(_VIEWS_SCALE * q)),
                n_comments=int(meta_rng.poisson(_COMMENTS_SCALE * q))))
            labels[vid] = idx
        truth_clusters.append({
            "index": idx,
            "tags": sorted(tags),
            "mu": params.mu,
            "beta": params.beta,
            "omega": params.omega,
            "branching_ratio": params.branching_ratio,
            "uploaders": list(uploaders),
            "n_events": int(times.size),
        })

    events.sort(key=_stream_order)
    stream = EventStream(origin=SYNTH_ORIGIN, events=tuple(events), horizon_T=float(T))
    truth = {"seed": int(seed), "horizon_days": float(T),
             "clusters": truth_clusters, "labels": labels}
    return stream, truth
