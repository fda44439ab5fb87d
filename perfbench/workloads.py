"""Seeded workload corpora for the stage benchmark.

The generator shares no code with ``tagburst.simulate``, so a change to the
package's simulator cannot change the benchmark's inputs.  Event times come
from the branching representation of the exponential self-exciting process:
immigrants arrive as a Poisson process of rate mu on [0, T], and every event
has Poisson(beta/omega) children at Exp(omega) delays.  Each genre's
realisation is redrawn (deterministically) until its event count lies
within COUNT_TOLERANCE of its expectation.

The event times (and many_genres' genre parameters) are drawn from a
per-workload key, not from the seed; the seed draws everything else:
uploaders, popularity, tag subsets and cross-genre tags.  The package's
optimizers, as first benchmarked, have iteration counts that depend
erratically on the realised times (over ten realisations ARIMA-lite on
quickstart took 2.8-6.6 s and the long_stream fits 0.7-1.9 s), which would
make the seed-to-seed spread of the fit and forecast stages wider than any
usable regression bound.  So every seed of a workload runs the same
realisation of its event times, and the benchmark cannot see how a change
fares on other realisations.  The key is the CRC-32 of the workload's name,
a rule fixed before any timing, not a value picked by looking at timings.
``run.py --times-key K`` runs another realisation by hand, to check that a
gain is not particular to the default one.

Genres are built to be exactly the tag-graph components at the workload's
eta: every genre tag co-occurs with the genre's anchor tag on at least eta
videos, and each cross-genre tag pair co-occurs on fewer than eta videos.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MICROS_PER_DAY = 86_400_000_000
ORIGIN_MICROS = 1_600_000_000 * 1_000_000  # 2020-09-13T12:26:40Z
HORIZON_DAYS = 14.0  # the CLI's default forecast test window
COUNT_TOLERANCE = 0.05
MAX_REDRAWS = 2000
ANALYSIS_MODELS = ("hawkes", "hawkes_global", "nhpp_drift", "pc_nhpp", "poisson")


@dataclass(frozen=True)
class Genre:
    tags: tuple[str, ...]  # tags[0] is the anchor carried by every video
    mu: float
    beta: float
    omega: float
    uploaders: tuple[str, ...]

    def expected_count(self, T: float) -> float:
        """E N(T) for a stream started empty at 0 (subcritical)."""
        n = self.beta / self.omega
        decay = self.omega - self.beta
        return (self.mu / (1.0 - n)) * (T - n * -math.expm1(-decay * T) / decay)


@dataclass(frozen=True)
class Workload:
    name: str
    t_days: float
    eta: int
    models: tuple[str, ...]
    cluster_args: tuple[str, ...]
    forecast_args: tuple[str, ...]
    full_tag_sets: bool  # False: subsets of genre tags plus rare cross-genre tags
    cross_tag_prob: float = 0.0

    @property
    def times_key(self) -> int:
        """Seeds the event times, independently of --seed."""
        return zlib.crc32(self.name.encode())


@dataclass(frozen=True)
class Corpus:
    """What the checks need: labels and counts in the CLI's time frame."""

    labels: dict[str, int]  # video_id -> genre index
    genre_times: list[np.ndarray]  # days since the earliest event
    horizon: float  # last event time, the parsed stream's horizon
    test_counts: list[int]  # events per genre in the forecast test window
    n_events: int


def _default_genres() -> list[Genre]:
    """The package's README default corpus: three genres of distinct burstiness."""
    return [
        Genre(("ambient", "chill", "drone"), 0.6, 0.9, 1.5,
              tuple(f"u{i:02d}" for i in range(10))),
        Genre(("metal", "rock"), 0.3, 1.6, 2.0, ("solo_uploader",)),
        Genre(("bebop", "jazz", "swing"), 1.2, 0.2, 2.5,
              tuple(f"w{i:02d}" for i in range(20))),
    ]


def _many_genres(rng: np.random.Generator, count: int, t_days: float) -> list[Genre]:
    """Stratified draws, so that the genres span the parameter ranges evenly:
    omega log-uniform on [0.5, 500] per day, branching ratio on [0.1, 0.7],
    expected events per genre log-uniform on [60, 600]."""

    def strata(lo: float, hi: float) -> np.ndarray:
        u = (rng.permutation(count) + rng.random(count)) / count
        return lo + (hi - lo) * u

    omega = np.exp(strata(math.log(0.5), math.log(500.0)))
    ratio = strata(0.1, 0.7)
    events = np.exp(strata(math.log(60.0), math.log(600.0)))
    n_tags = rng.integers(2, 6, count)
    n_uploaders = rng.integers(1, 13, count)
    genres = []
    for g in range(count):
        genres.append(Genre(
            tags=tuple(f"g{g:02d}t{j}" for j in range(int(n_tags[g]))),
            mu=float(events[g] / t_days * (1.0 - ratio[g])),
            beta=float(ratio[g] * omega[g]),
            omega=float(omega[g]),
            uploaders=tuple(f"g{g:02d}u{k:02d}" for k in range(int(n_uploaders[g])))))
    return genres


WORKLOADS = {
    "quickstart": Workload(
        name="quickstart", t_days=120.0, eta=2,
        models=("arima_lite", "hawkes", "nhpp_drift", "pc_nhpp", "poisson"),
        cluster_args=("--eta", "2"), forecast_args=("--train-days", "60"),
        full_tag_sets=True),
    "long_stream": Workload(
        name="long_stream", t_days=3000.0, eta=2,
        models=ANALYSIS_MODELS, cluster_args=("--eta", "2"),
        forecast_args=("--train-days", "2000", "--models", ",".join(ANALYSIS_MODELS)),
        full_tag_sets=True),
    "many_genres": Workload(
        name="many_genres", t_days=365.0, eta=3,
        models=ANALYSIS_MODELS, cluster_args=("--eta", "3", "--sweep", "1:8"),
        forecast_args=("--train-days", "300", "--models", ",".join(ANALYSIS_MODELS)),
        full_tag_sets=False, cross_tag_prob=0.05),
}


def _generator(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + key))


def _branching_times(rng: np.random.Generator, g: Genre, T: float) -> np.ndarray:
    generation = rng.uniform(0.0, T, rng.poisson(g.mu * T))
    out = [generation]
    while generation.size:
        parents = np.repeat(generation, rng.poisson(g.beta / g.omega, generation.size))
        generation = parents + rng.exponential(1.0 / g.omega, parents.size)
        generation = generation[generation <= T]
        out.append(generation)
    return np.sort(np.concatenate(out))


def _conditioned_times(rng: np.random.Generator, g: Genre, T: float) -> np.ndarray:
    target = g.expected_count(T)
    best = None
    for _ in range(MAX_REDRAWS):
        times = _branching_times(rng, g, T)
        if best is None or abs(times.size - target) < abs(best.size - target):
            best = times
        if abs(times.size - target) <= COUNT_TOLERANCE * target:
            break
    return best


def _video_tags(rng: np.random.Generator, g: Genre, k: int, eta: int) -> list[str]:
    """Anchor plus a random subset of the other genre tags; the first
    eta * (len(tags) - 1) videos each force one tag so that every tag meets
    the anchor on at least eta videos."""
    others = list(g.tags[1:])
    chosen = {t for t in others if rng.random() < 0.5}
    if others and k < eta * len(others):
        chosen.add(others[k % len(others)])
    return [g.tags[0]] + sorted(chosen)


def generate(workload: Workload, seed: int, path: Path,
             times_key: int | None = None) -> Corpus:
    """Write the workload's events to ``path`` (JSONL, README record schema).

    ``times_key`` replaces the workload's own key for the event times."""
    if times_key is None:
        times_key = workload.times_key
    if workload.full_tag_sets:
        genres = _default_genres()
    else:
        genres = _many_genres(_generator(times_key, 0), 40, workload.t_days)

    quality: dict[str, float] = {}
    pair_counts: dict[tuple[str, str], int] = {}
    records = []
    for gi, g in enumerate(genres):
        times_rng = _generator(times_key, 1, gi)
        meta_rng = _generator(seed, 2, gi)
        times = _conditioned_times(times_rng, g, workload.t_days)
        for k, t in enumerate(times.tolist()):
            uploader = g.uploaders[int(meta_rng.integers(len(g.uploaders)))]
            if uploader not in quality:
                quality[uploader] = float(meta_rng.lognormal(0.0, 0.5))
            q = quality[uploader]
            if workload.full_tag_sets:
                tags = list(g.tags)
            else:
                tags = _video_tags(meta_rng, g, k, workload.eta)
                if len(tags) >= 2 and meta_rng.random() < workload.cross_tag_prob:
                    _add_cross_tag(meta_rng, tags, genres, gi, pair_counts, workload.eta)
                for i, a in enumerate(tags):
                    for b in tags[i + 1:]:
                        key = (a, b) if a < b else (b, a)
                        pair_counts[key] = pair_counts.get(key, 0) + 1
            records.append((ORIGIN_MICROS + round(t * MICROS_PER_DAY),
                            f"g{gi:02d}v{k:05d}", gi, uploader, sorted(tags),
                            int(meta_rng.poisson(50.0 * q)),
                            int(meta_rng.poisson(5.0 * q))))

    records.sort()
    base = records[0][0]
    with path.open("w", encoding="utf-8") as fh:
        for micros, vid, _, uploader, tags, views, comments in records:
            fh.write(json.dumps({"video_id": vid, "ts": micros / 1e6,
                                 "uploader_id": uploader, "tags": tags,
                                 "views": views, "comments": comments},
                                sort_keys=True) + "\n")

    # same arithmetic as the CLI: days since the earliest record, horizon at
    # the last event, test window (horizon - 14, horizon]
    days = np.array([(r[0] - base) / MICROS_PER_DAY for r in records])
    genre_of = np.array([r[2] for r in records])
    horizon = float(days[-1])
    split = horizon - HORIZON_DAYS
    in_test = (days > split) & (days <= split + HORIZON_DAYS)
    return Corpus(
        labels={r[1]: r[2] for r in records},
        genre_times=[days[genre_of == gi] for gi in range(len(genres))],
        horizon=horizon,
        test_counts=[int(np.sum(in_test & (genre_of == gi))) for gi in range(len(genres))],
        n_events=len(records))


def _add_cross_tag(rng: np.random.Generator, tags: list[str], genres: list[Genre],
                   own: int, pair_counts: dict[tuple[str, str], int], eta: int) -> None:
    """Add one tag of another genre unless a pair with it would reach eta."""
    other = int(rng.integers(len(genres) - 1))
    other += other >= own
    candidate = genres[other].tags[int(rng.integers(len(genres[other].tags)))]
    for a in tags:
        key = (a, candidate) if a < candidate else (candidate, a)
        if pair_counts.get(key, 0) + 1 >= eta:
            return
    tags.append(candidate)
