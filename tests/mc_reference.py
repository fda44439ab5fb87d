"""Monte-Carlo reference for count forecasts: the mean count over simulated
continuations of a history.  Slow and noisy; tests use it to check the
closed-form conditional mean, never as a production path."""

import numpy as np

from tagburst.simulate import SimConfig, derive_seed, simulate_hawkes


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
