"""Thinning simulators and the synthetic corpus generator."""

import numpy as np
import pytest

from mc_reference import simulate_nhpp
from oracles import validate_stream
from tagburst.hawkes import HawkesParams, fit_mle
from tagburst.simulate import (_GENRES, SYNTH_ORIGIN, derive_seed, make_synthetic_corpus,
                               simulate_hawkes)

SUB = HawkesParams(mu=1.0, beta=0.5, omega=1.5)


class TestSimConfig:
    """A simulation's settings, its window length T and its seed, are checked
    before it draws."""

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_T(self, T):
        with pytest.raises(ValueError, match="simulation window T must be positive and finite"):
            simulate_hawkes(SUB, T, 1)

    def test_rejects_fractional_seed(self):
        # 2.7 would otherwise draw the times of seed 2
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got 2\.7$"):
            simulate_hawkes(SUB, 10.0, 2.7)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
            simulate_hawkes(SUB, 10.0, -1)

    def test_numpy_integer_seed_draws_as_the_int(self):
        assert np.array_equal(simulate_hawkes(SUB, 10.0, np.uint64(7)),
                              simulate_hawkes(SUB, 10.0, 7))


class TestHawkesSimulation:
    def test_same_seed_reproduces_exactly(self):
        np.testing.assert_array_equal(simulate_hawkes(SUB, 50.0, 42),
                                      simulate_hawkes(SUB, 50.0, 42))

    def test_different_seeds_differ(self):
        a = simulate_hawkes(SUB, 50.0, 1)
        b = simulate_hawkes(SUB, 50.0, 2)
        assert a.size != b.size or not np.array_equal(a, b)

    def test_times_strictly_inside_window_and_increasing(self):
        for seed in range(5):
            t = simulate_hawkes(SUB, 60.0, seed)
            assert np.all(t > 0.0) and np.all(t <= 60.0)
            assert np.all(np.diff(t) > 0)

    def test_supercritical_refused(self):
        with pytest.raises(ValueError, match="branching"):
            simulate_hawkes(HawkesParams(1.0, 2.0, 1.0), 1.0, 0)

    def test_beta_zero_matches_poisson_rate(self):
        # mean count over replicates close to mu*T (Poisson noise ~ sqrt(muT))
        p = HawkesParams(mu=2.0, beta=0.0, omega=1.0)
        counts = [simulate_hawkes(p, 200.0, s).size for s in range(30)]
        expected = 2.0 * 200.0
        assert abs(np.mean(counts) - expected) < 4 * np.sqrt(expected / 30)

    def test_mean_count_matches_stationary_rate(self):
        # E[N] / T -> mu / (1 - beta/omega) on long windows
        p = HawkesParams(mu=0.6, beta=0.9, omega=1.5)
        rate = 0.6 / (1 - 0.6)
        counts = [simulate_hawkes(p, 800.0, s).size for s in range(20)]
        assert np.mean(counts) / 800.0 == pytest.approx(rate, rel=0.08)

    def test_fit_simulate_round_trip(self):
        p = HawkesParams(mu=0.5, beta=0.8, omega=1.2)
        t = simulate_hawkes(p, 1500.0, 11)
        fit = fit_mle(t, 1500.0)
        assert fit.converged
        assert fit.branching_ratio == pytest.approx(p.branching_ratio, rel=0.2)


class TestNHPPSimulation:
    """The test-only sampler in mc_reference."""

    def test_zero_bound_yields_empty(self):
        t = simulate_nhpp(lambda t: 0.0, 0.0, 5.0, 3)
        assert t.size == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            simulate_nhpp(lambda t: -1.0, 2.0, 50.0, 3)

    def test_rate_above_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            simulate_nhpp(lambda t: 5.0, 2.0, 50.0, 3)

    def test_constant_rate_mean_count(self):
        counts = [simulate_nhpp(lambda t: 1.5, 1.5, 300.0, s).size for s in range(30)]
        assert abs(np.mean(counts) - 450.0) < 4 * np.sqrt(450.0 / 30)

    def test_linear_ramp_concentrates_late(self):
        # rate t/10 on [0,10]: 3/4 of mass lies in the second half
        late = []
        for s in range(50):
            t = simulate_nhpp(lambda x: x, 10.0, 10.0, s)
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
        # three genres on disjoint tag sets
        _, truth = make_synthetic_corpus(T=10.0, seed=0)
        tags = [set(c["tags"]) for c in truth["clusters"]]
        assert len(tags) == 3
        assert sum(map(len, tags)) == len(set().union(*tags))

    def test_rejects_fractional_seed(self):
        # 1.5 would otherwise give seed 1's corpus and record "seed": 1
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got 1\.5$"):
            make_synthetic_corpus(10.0, 1.5)

    def test_numpy_integer_seed_gives_the_int_corpus(self):
        assert make_synthetic_corpus(10.0, np.int64(3)) == make_synthetic_corpus(10.0, 3)

    def test_stream_is_valid_and_reproducible(self):
        s1, truth1 = make_synthetic_corpus(T=120.0, seed=5)
        s2, truth2 = make_synthetic_corpus(T=120.0, seed=5)
        assert validate_stream(s1) == []
        assert s1.events == s2.events
        assert truth1 == truth2
        assert s1.horizon_T == 120.0
        assert s1.origin == SYNTH_ORIGIN

    def test_each_video_carries_its_cluster_tag_set(self):
        stream, truth = make_synthetic_corpus(T=90.0, seed=2)
        by_tags = {frozenset(c["tags"]): i for i, c in enumerate(truth["clusters"])}
        for e in stream.events:
            assert e.tags in by_tags
            assert truth["labels"][e.video_id] == by_tags[e.tags]

    def test_truth_records_generating_params(self):
        _, truth = make_synthetic_corpus(T=60.0, seed=9)
        for (_, params, _), rec in zip(_GENRES, truth["clusters"], strict=True):
            assert rec["mu"] == params.mu
            assert rec["beta"] == params.beta
            assert rec["omega"] == params.omega
            assert rec["branching_ratio"] == params.branching_ratio

    def test_uploaders_drawn_from_spec_and_metadata_nonnegative(self):
        stream, truth = make_synthetic_corpus(T=90.0, seed=4)
        allowed = {c["index"]: set(c["uploaders"]) for c in truth["clusters"]}
        for e in stream.events:
            ci = truth["labels"][e.video_id]
            assert e.uploader_id in allowed[ci]
            assert e.n_views >= 0 and e.n_comments >= 0

    def test_quality_skews_views(self):
        # each uploader's mean views reflect its lognormal quality draw
        stream, _ = make_synthetic_corpus(T=200.0, seed=21)
        views = {}
        for e in stream.events:
            views.setdefault(e.uploader_id, []).append(e.n_views)
        avgs = sorted(np.mean(v) for v in views.values())
        assert avgs[-1] > 2 * avgs[0]  # lognormal spread shows through

    def test_seed_changes_stream(self):
        s1, _ = make_synthetic_corpus(T=80.0, seed=1)
        s2, _ = make_synthetic_corpus(T=80.0, seed=2)
        assert s1.events != s2.events
