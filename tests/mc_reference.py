"""Monte-Carlo references that only tests use: the mean count over simulated
continuations of a history, and an inhomogeneous Poisson sampler.  Slow and
noisy; tests use them to check the closed-form conditional mean and to draw
test streams, never as a production path."""

import math

import numpy as np

from tagburst.simulate import _generator, derive_seed


def _continuation_count(p, history, t_start, t_end, seed):
    """Number of events in (t_start, t_end] of one Ogata continuation of the
    history, drawn from the Philox stream of SeedSequence((seed,))."""
    rng = _generator(seed)
    excitation = p.beta * float(np.sum(np.exp(-p.omega * (t_start - history))))
    n = 0
    t = t_start
    while True:
        lam_bar = p.mu + excitation
        wait = rng.exponential() / lam_bar
        t_next = t + wait
        if t_next > t_end:
            break
        excitation *= math.exp(-p.omega * (t_next - t))
        t = t_next
        if rng.random() * lam_bar <= p.mu + excitation:
            n += 1
            excitation += p.beta
    return n


def mc_expected_count(p, history, t, delta_t, n_samples=1000, seed=0):
    """(mean, sample std) of the count over (t, t + delta_t] across
    n_samples Ogata continuations of the history, sample k seeded by
    derive_seed(seed, k)."""
    if p.branching_ratio >= 1.0:
        raise ValueError(f"branching ratio {p.branching_ratio:.3f} >= 1: explosive")
    hist = np.asarray(history, dtype=float)
    if hist.size and not (np.all(np.diff(hist) >= 0) and hist[-1] < t):
        raise ValueError("history must be sorted and lie strictly before t")
    counts = np.empty(n_samples)
    for k in range(n_samples):
        counts[k] = _continuation_count(p, hist, t, t + delta_t, derive_seed(seed, k))
    return float(np.mean(counts)), float(np.std(counts, ddof=1))


def simulate_nhpp(rate_fn, rate_bound, T, seed):
    """Event times in (0, T] of an inhomogeneous Poisson process with rate
    rate_fn, by thinning at rate_bound, seeded like simulate_hawkes.

    rate_fn must stay within [0, rate_bound] on the window; a proposal where
    it does not is an error.
    """
    if not math.isfinite(rate_bound) or rate_bound < 0:
        raise ValueError(f"rate_bound must be finite and >= 0, got {rate_bound}")
    if rate_bound == 0.0:
        return np.asarray([])
    rng = _generator(seed)
    out = []
    t = 0.0
    while True:
        t += rng.exponential() / rate_bound
        if t > T:
            break
        r = float(rate_fn(t))
        if r < 0:
            raise ValueError(f"rate_fn({t}) = {r} is negative")
        if r > rate_bound:
            raise ValueError(f"rate_fn({t}) = {r} exceeds the bound {rate_bound}")
        if rng.random() * rate_bound <= r:
            out.append(t)
    return np.asarray(out)
