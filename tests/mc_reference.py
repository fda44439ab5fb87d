"""Monte-Carlo references that only tests use: the mean count over simulated
continuations of a history, and an inhomogeneous Poisson sampler.  Slow and
noisy; tests use them to check the closed-form conditional mean and to draw
test streams, never as a production path."""

import math

import numpy as np

from tagburst.simulate import SimConfig, _generator, derive_seed, simulate_hawkes


def mc_expected_count(p, history, t, delta_t, n_samples=1000, seed=0):
    """(mean, sample std) of the count over (t, t + delta_t] across
    n_samples Ogata continuations of the history, sample k seeded by
    derive_seed(seed, k)."""
    hist = tuple(float(h) for h in np.asarray(history, dtype=float))
    counts = np.empty(n_samples)
    for k in range(n_samples):
        sim = simulate_hawkes(p, SimConfig(
            seed=derive_seed(seed, k), t_start=t, t_end=t + delta_t, history=hist))
        counts[k] = sim.size
    return float(np.mean(counts)), float(np.std(counts, ddof=1))


def simulate_nhpp(rate_fn, rate_bound, c):
    """Event times in (c.t_start, c.t_end] of an inhomogeneous Poisson process
    with rate rate_fn, by thinning at rate_bound, seeded like simulate_hawkes.

    rate_fn must stay within [0, rate_bound] on the window; a proposal where
    it does not is an error.  c.history is ignored.
    """
    if not math.isfinite(rate_bound) or rate_bound < 0:
        raise ValueError(f"rate_bound must be finite and >= 0, got {rate_bound}")
    if rate_bound == 0.0:
        return np.asarray([])
    rng = _generator(c.seed)
    out = []
    t = c.t_start
    while True:
        t += rng.exponential() / rate_bound
        if t > c.t_end:
            break
        r = float(rate_fn(t))
        if r < 0:
            raise ValueError(f"rate_fn({t}) = {r} is negative")
        if r > rate_bound:
            raise ValueError(f"rate_fn({t}) = {r} exceeds the bound {rate_bound}")
        if rng.random() * rate_bound <= r:
            out.append(t)
    return np.asarray(out)
