"""Thinning simulators and the synthetic corpus generator."""

import numpy as np
import pytest

from mc_reference import simulate_nhpp
from oracles import validate_stream
from tagburst.hawkes import HawkesParams, fit_mle
from tagburst.simulate import (ClusterSpec, PopularityModel, SimConfig,
                               SYNTH_ORIGIN, default_corpus_spec, derive_seed,
                               make_synthetic_corpus, simulate_hawkes)

SUB = HawkesParams(mu=1.0, beta=0.5, omega=1.5)


class TestSimConfig:
    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, t_start=2.0, t_end=1.0)

    def test_rejects_history_inside_window(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, t_start=1.0, t_end=2.0, history=(1.5,))

    def test_rejects_unsorted_history(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, t_start=5.0, t_end=6.0, history=(2.0, 1.0))

    def test_valid_history_accepted(self):
        c = SimConfig(seed=1, t_start=5.0, t_end=6.0, history=(1.0, 4.9))
        assert c.history == (1.0, 4.9)


class TestHawkesSimulation:
    def test_same_seed_reproduces_exactly(self):
        c = SimConfig(seed=42, t_start=0.0, t_end=50.0)
        np.testing.assert_array_equal(simulate_hawkes(SUB, c), simulate_hawkes(SUB, c))

    def test_different_seeds_differ(self):
        a = simulate_hawkes(SUB, SimConfig(seed=1, t_start=0.0, t_end=50.0))
        b = simulate_hawkes(SUB, SimConfig(seed=2, t_start=0.0, t_end=50.0))
        assert a.size != b.size or not np.array_equal(a, b)

    def test_times_strictly_inside_window_and_increasing(self):
        for seed in range(5):
            t = simulate_hawkes(SUB, SimConfig(seed=seed, t_start=10.0, t_end=60.0))
            assert np.all(t > 10.0) and np.all(t <= 60.0)
            assert np.all(np.diff(t) > 0)

    def test_supercritical_refused(self):
        with pytest.raises(ValueError, match="branching"):
            simulate_hawkes(HawkesParams(1.0, 2.0, 1.0),
                            SimConfig(seed=0, t_start=0.0, t_end=1.0))

    def test_beta_zero_matches_poisson_rate(self):
        # mean count over replicates close to mu*T (Poisson noise ~ sqrt(muT))
        p = HawkesParams(mu=2.0, beta=0.0, omega=1.0)
        counts = [simulate_hawkes(p, SimConfig(seed=s, t_start=0.0, t_end=200.0)).size
                  for s in range(30)]
        expected = 2.0 * 200.0
        assert abs(np.mean(counts) - expected) < 4 * np.sqrt(expected / 30)

    def test_mean_count_matches_stationary_rate(self):
        # E[N] / T -> mu / (1 - beta/omega) on long windows
        p = HawkesParams(mu=0.6, beta=0.9, omega=1.5)
        rate = 0.6 / (1 - 0.6)
        counts = [simulate_hawkes(p, SimConfig(seed=s, t_start=0.0, t_end=800.0)).size
                  for s in range(20)]
        assert np.mean(counts) / 800.0 == pytest.approx(rate, rel=0.08)

    def test_history_raises_early_intensity(self):
        burst = tuple(np.linspace(9.0, 9.99, 40))
        with_hist = [simulate_hawkes(
            SUB, SimConfig(seed=s, t_start=10.0, t_end=12.0, history=burst)).size
            for s in range(40)]
        without = [simulate_hawkes(
            SUB, SimConfig(seed=s, t_start=10.0, t_end=12.0)).size
            for s in range(40)]
        assert np.mean(with_hist) > np.mean(without) + 1.0

    def test_fit_simulate_round_trip(self):
        p = HawkesParams(mu=0.5, beta=0.8, omega=1.2)
        t = simulate_hawkes(p, SimConfig(seed=11, t_start=0.0, t_end=1500.0))
        fit = fit_mle(t, 1500.0)
        assert fit.converged
        assert fit.branching_ratio == pytest.approx(p.branching_ratio, rel=0.2)


class TestNHPPSimulation:
    """The test-only sampler in mc_reference."""

    def test_zero_bound_yields_empty(self):
        t = simulate_nhpp(lambda t: 0.0, 0.0, SimConfig(seed=3, t_start=0.0, t_end=5.0))
        assert t.size == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            simulate_nhpp(lambda t: -1.0, 2.0, SimConfig(seed=3, t_start=0.0, t_end=50.0))

    def test_rate_above_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            simulate_nhpp(lambda t: 5.0, 2.0, SimConfig(seed=3, t_start=0.0, t_end=50.0))

    def test_constant_rate_mean_count(self):
        counts = [simulate_nhpp(lambda t: 1.5, 1.5,
                                SimConfig(seed=s, t_start=0.0, t_end=300.0)).size
                  for s in range(30)]
        assert abs(np.mean(counts) - 450.0) < 4 * np.sqrt(450.0 / 30)

    def test_linear_ramp_concentrates_late(self):
        # rate t/10 on [0,10]: 3/4 of mass lies in the second half
        late = []
        for s in range(50):
            t = simulate_nhpp(lambda x: x, 10.0, SimConfig(seed=s, t_start=0.0, t_end=10.0))
            if t.size:
                late.append(np.mean(t > 5.0))
        assert np.mean(late) == pytest.approx(0.75, abs=0.05)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_distinct_parts_distinct_seeds(self):
        seen = {derive_seed(7, i, j) for i in range(8) for j in range(8)}
        assert len(seen) == 64

    def test_output_fits_uint64(self):
        s = derive_seed(123456789, 42)
        assert 0 <= s < 2 ** 64


class TestSyntheticCorpus:
    def test_default_spec_shape(self):
        spec = default_corpus_spec()
        assert len(spec) == 3
        tag_union = set().union(*(s.tags for s in spec))
        assert sum(len(s.tags) for s in spec) == len(tag_union)

    def test_rejects_overlapping_tags(self):
        a = ClusterSpec(frozenset({"x"}), SUB, ("u1",))
        b = ClusterSpec(frozenset({"x", "y"}), SUB, ("u2",))
        with pytest.raises(ValueError):
            make_synthetic_corpus([a, b], T=10.0, seed=0)

    def test_stream_is_valid_and_reproducible(self):
        spec = default_corpus_spec()
        s1, truth1 = make_synthetic_corpus(spec, T=120.0, seed=5)
        s2, truth2 = make_synthetic_corpus(spec, T=120.0, seed=5)
        assert validate_stream(s1) == []
        assert s1.events == s2.events
        assert truth1 == truth2
        assert s1.horizon_T == 120.0
        assert s1.origin == SYNTH_ORIGIN

    def test_each_video_carries_its_cluster_tag_set(self):
        spec = default_corpus_spec()
        stream, truth = make_synthetic_corpus(spec, T=90.0, seed=2)
        by_tags = {frozenset(c["tags"]): i for i, c in enumerate(truth["clusters"])}
        for e in stream.events:
            assert e.tags in by_tags
            assert truth["labels"][e.video_id] == by_tags[e.tags]

    def test_truth_records_generating_params(self):
        spec = default_corpus_spec()
        _, truth = make_synthetic_corpus(spec, T=60.0, seed=9)
        for cs, rec in zip(spec, truth["clusters"]):
            assert rec["mu"] == cs.params.mu
            assert rec["beta"] == cs.params.beta
            assert rec["omega"] == cs.params.omega
            assert rec["branching_ratio"] == cs.params.branching_ratio

    def test_uploaders_drawn_from_spec_and_metadata_nonnegative(self):
        spec = default_corpus_spec()
        stream, truth = make_synthetic_corpus(spec, T=90.0, seed=4)
        allowed = {i: set(s.uploaders) for i, s in enumerate(spec)}
        for e in stream.events:
            ci = truth["labels"][e.video_id]
            assert e.uploader_id in allowed[ci]
            assert e.n_views >= 0 and e.n_comments >= 0

    def test_quality_skews_views(self):
        # one uploader per cluster: per-cluster mean views reflect quality draw
        pop = PopularityModel(quality_sigma=1.0)
        spec = [
            ClusterSpec(frozenset({f"tag{i}"}), HawkesParams(2.0, 0.0, 1.0),
                        (f"solo{i}",), pop)
            for i in range(6)
        ]
        stream, truth = make_synthetic_corpus(spec, T=200.0, seed=21)
        means = {}
        for e in stream.events:
            means.setdefault(truth["labels"][e.video_id], []).append(e.n_views)
        avgs = sorted(np.mean(v) for v in means.values())
        assert avgs[-1] > 2 * avgs[0]  # lognormal spread shows through

    def test_seed_changes_stream(self):
        spec = default_corpus_spec()
        s1, _ = make_synthetic_corpus(spec, T=80.0, seed=1)
        s2, _ = make_synthetic_corpus(spec, T=80.0, seed=2)
        assert s1.events != s2.events
