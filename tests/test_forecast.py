"""Train/test splitting, count forecasts, and the cross-model comparison table."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mc_reference import mc_expected_count
from oracles import direct_compensator, direct_intensity, expected_count_by_quadrature
from tagburst import baselines
from tagburst.forecast import (POOLED_CLUSTER_ID, SplitSpec, conditional_mean_count,
                               default_split, evaluate_all, expected_count,
                               _scored, holdout_log_likelihood, split_stream)
from tagburst.hawkes import HawkesParams, fit_mle
from tagburst.ingest import Event, EventStream
from tagburst.simulate import default_corpus_spec, make_synthetic_corpus
from tagburst.taggraph import GenreCluster, extract_clusters

P = HawkesParams(mu=0.5, beta=1.0, omega=2.0)


class TestSplitSpec:
    def test_window_arithmetic(self):
        times = np.arange(1.0, 101.0)
        train, test = split_stream(times, SplitSpec(30.0, 60.0, 14.0))
        np.testing.assert_array_equal(train, np.arange(30.0, 61.0))
        np.testing.assert_array_equal(test, np.arange(61.0, 75.0))

    def test_train_and_test_disjoint_subsets(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0, 100, size=300))
        train, test = split_stream(times, SplitSpec(40.0, 70.0, 20.0))
        assert not set(train) & set(test)
        assert set(train) | set(test) <= set(times)

    def test_events_before_window_discarded(self):
        times = np.array([1.0, 5.0, 11.0, 12.0, 16.0])
        train, test = split_stream(times, SplitSpec(5.0, 15.0, 5.0))
        np.testing.assert_array_equal(train, [11.0, 12.0])
        np.testing.assert_array_equal(test, [16.0])

    def test_outputs_share_no_memory_with_the_input(self):
        # a read-only input, like EventStream.times, gives new writable arrays
        times = np.arange(1.0, 101.0)
        times.flags.writeable = False
        train, test = split_stream(times, SplitSpec(30.0, 60.0, 14.0))
        for part in (train, test):
            assert not np.shares_memory(part, times)
            assert part.flags.writeable

    def test_empty_training_window_rejected(self):
        with pytest.raises(ValueError, match="empty training window"):
            split_stream(np.array([50.0]), SplitSpec(10.0, 30.0, 14.0))

    def test_window_before_time_zero_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(train_days=40.0, split_point=30.0)

    @pytest.mark.parametrize("td,h", [(0.0, 14.0), (-1.0, 14.0), (10.0, 0.0),
                                      (10.0, -3.0), (math.nan, 14.0)])
    def test_degenerate_windows_rejected(self, td, h):
        with pytest.raises(ValueError):
            SplitSpec(train_days=td, split_point=50.0, horizon_days=h)

    def test_horizon_past_stream_end_rejected(self):
        spec = SplitSpec(10.0, 95.0, 14.0)
        with pytest.raises(ValueError, match="beyond"):
            spec.check_horizon(100.0)
        event = Event("v0", 90.0, "u", frozenset({"x"}), 0, 0)
        cluster = GenreCluster(0, frozenset({"x"}), EventStream(0.0, (event,), 100.0))
        with pytest.raises(ValueError, match="beyond"):
            evaluate_all([cluster], spec, ["poisson"])

    def test_default_split_ends_at_horizon(self):
        spec = default_split(100.0, train_days=30.0, horizon_days=14.0)
        assert spec.split_point + spec.horizon_days == 100.0
        spec.check_horizon(100.0)


class TestExpectedCount:
    def test_worked_example(self):
        # 0.5 + 0.5*[(e^-2 - e^-4) + (e^-1 - e^-3)]
        assert expected_count(P, [1.0, 1.5], 2.0, 1.0) == pytest.approx(
            0.7175560085757284, rel=1e-14)

    def test_beta_zero_is_exactly_rate_times_window(self):
        p = HawkesParams(0.7, 0.0, 1.0)
        assert expected_count(p, [1.0, 2.0], 5.0, 3.0) == 0.7 * 3.0

    def test_zero_horizon_is_zero(self):
        assert expected_count(P, [1.0], 2.0, 0.0) == 0.0

    def test_supercritical_refused(self):
        with pytest.raises(ValueError, match="refused"):
            expected_count(HawkesParams(1.0, 2.0, 1.0), [], 1.0, 1.0)

    def test_history_after_t_rejected(self):
        with pytest.raises(ValueError):
            expected_count(P, [3.0], 2.0, 1.0)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = HawkesParams(float(rng.uniform(0.2, 1.5)),
                             float(rng.uniform(0.05, 0.8)),
                             float(rng.uniform(0.8, 2.5)))
            hist = np.sort(rng.uniform(0, 20, size=15))
            d = float(rng.uniform(0.5, 10.0))
            assert expected_count(p, hist, 20.0, d) == pytest.approx(
                expected_count_by_quadrature(p.mu, p.beta, p.omega, hist, 20.0, d),
                rel=1e-6)

    def test_additive_over_adjacent_horizons(self):
        # same fixed history throughout: (12,16] + (16,21] = (12,21]
        rng = np.random.default_rng(7)
        hist = np.sort(rng.uniform(0, 12, size=25))
        whole = expected_count(P, hist, 12.0, 9.0)
        first = expected_count(P, hist, 12.0, 4.0)
        second = expected_count(P, hist, 16.0, 5.0)
        assert first + second == pytest.approx(whole, rel=1e-12)


class TestConditionalMean:
    def test_supercritical_refused(self):
        with pytest.raises(ValueError, match="refused"):
            conditional_mean_count(HawkesParams(1.0, 3.0, 1.0), [], 0.0, 1.0)

    def test_zero_horizon(self):
        assert conditional_mean_count(P, [1.0], 2.0, 0.0) == 0.0

    @pytest.mark.parametrize("delta_t", [-1.0, float("nan"), float("inf")])
    def test_window_length_must_be_finite_and_non_negative(self, delta_t):
        with pytest.raises(ValueError) as exc:
            conditional_mean_count(P, [1.0], 2.0, delta_t)
        assert str(exc.value) == f"delta_t must be >= 0, got {delta_t}"

    def test_poisson_case_is_rate_times_window(self):
        p = HawkesParams(0.7, 0.0, 1.0)
        assert conditional_mean_count(p, [1.0, 2.0], 5.0, 3.0) == 0.7 * 3.0

    def test_exceeds_history_only_forecast(self):
        # future events excite themselves; the history-only increment cannot see that
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu = float(rng.uniform(0.3, 1.5))
            om = float(rng.uniform(0.8, 2.5))
            br = float(rng.uniform(0.35, 0.85))
            hist = np.sort(rng.uniform(0, 30, size=20))
            p = HawkesParams(mu, br * om, om)
            assert conditional_mean_count(p, hist, 30.0, 15.0) > \
                expected_count(p, hist, 30.0, 15.0)
            p0 = HawkesParams(mu, 0.0, om)
            assert conditional_mean_count(p0, hist, 30.0, 15.0) == \
                expected_count(p0, hist, 30.0, 15.0)

    def test_long_window_rate_is_stationary_mean(self):
        # mu / (1 - beta/omega) = 1.0 for P
        assert conditional_mean_count(P, [], 0.0, 1e4) / 1e4 == pytest.approx(1.0, rel=1e-4)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(31)
        n_samples = 1000
        for k in range(20):
            om = float(rng.uniform(0.5, 3.0))
            p = HawkesParams(float(rng.uniform(0.2, 1.5)),
                             float(rng.uniform(0.05, 0.9)) * om, om)
            hist = np.sort(rng.uniform(0, 10, size=int(rng.integers(0, 20))))
            d = float(rng.uniform(0.5, 10.0))
            mean, std = mc_expected_count(p, hist, 10.0, d, n_samples=n_samples, seed=k)
            exact = conditional_mean_count(p, hist, 10.0, d)
            assert abs(exact - mean) <= 4 * std / math.sqrt(n_samples)


class TestHoldout:
    def test_matches_direct_evaluation(self):
        history = np.array([0.5, 1.0, 2.5])
        test = np.array([3.2, 3.9, 4.4])
        got = holdout_log_likelihood(P, history, test, 3.0, 5.0)
        merged = np.concatenate([history, test])
        point = sum(
            math.log(direct_intensity(P.mu, P.beta, P.omega, merged[:3 + i], t))
            for i, t in enumerate(test))
        integral = (direct_compensator(P.mu, P.beta, P.omega, merged, 5.0)
                    - direct_compensator(P.mu, P.beta, P.omega, history, 3.0))
        assert got == pytest.approx(point - integral, rel=1e-12)

    def test_empty_test_window_is_minus_integral(self):
        history = np.array([0.5, 1.0])
        got = holdout_log_likelihood(P, history, [], 2.0, 6.0)
        integral = (direct_compensator(P.mu, P.beta, P.omega, history, 6.0)
                    - direct_compensator(P.mu, P.beta, P.omega, history, 2.0))
        assert got == pytest.approx(-integral, rel=1e-12)

    def test_empty_history_from_time_zero(self):
        test = np.array([0.4, 1.1, 1.3])
        got = holdout_log_likelihood(P, [], test, 0.0, 2.0)
        point = sum(math.log(direct_intensity(P.mu, P.beta, P.omega, test[:i], t))
                    for i, t in enumerate(test))
        integral = direct_compensator(P.mu, P.beta, P.omega, test, 2.0)
        assert got == pytest.approx(point - integral, rel=1e-12)

    def test_test_events_outside_window_rejected(self):
        with pytest.raises(ValueError):
            holdout_log_likelihood(P, [1.0], [2.5], 3.0, 5.0)
        with pytest.raises(ValueError):
            holdout_log_likelihood(P, [1.0], [6.0], 3.0, 5.0)

    @pytest.mark.parametrize("history, t_start, t_end, message", [
        ([1.0], 3.0, 3.0, "t_end=3.0 must exceed t_start=3.0"),
        ([1.0], 3.0, 2.0, "t_end=2.0 must exceed t_start=3.0"),
        ([1.0, 3.5], 3.0, 5.0, "history must end at or before t_start"),
    ], ids=["empty-window", "inverted-window", "history-after-start"])
    def test_window_and_history_checked(self, history, t_start, t_end, message):
        with pytest.raises(ValueError) as exc:
            holdout_log_likelihood(P, history, [], t_start, t_end)
        assert str(exc.value) == message


class TestForecastResult:
    def test_negative_prediction_clamped(self):
        assert _scored(-3.0, 2) == (0.0, 2.0, 1.0)

    def test_relative_error_guards_zero_actual(self):
        assert _scored(5.0, 0) == (5.0, 5.0, 5.0)
        assert _scored(5.0, 10) == (5.0, 5.0, 0.5)


def corpus_clusters(T=150.0, seed=3):
    stream, _ = make_synthetic_corpus(default_corpus_spec(), T=T, seed=seed)
    return extract_clusters(stream, 2)


class TestEvaluateAll:
    def test_one_row_per_cluster_model_cell(self):
        clusters = corpus_clusters()
        spec = default_split(150.0, train_days=60.0)
        table = evaluate_all(clusters, spec,
                             ["hawkes", "poisson", "pc_nhpp", "nhpp_drift",
                              "arima_lite", "hawkes_global"])
        per_cluster = {(r.cluster_id, r.model) for r in table.rows}
        expected = {(c.cluster_id, m) for c in clusters
                    for m in ("hawkes", "poisson", "pc_nhpp", "nhpp_drift",
                              "arima_lite")}
        expected.add((POOLED_CLUSTER_ID, "hawkes_global"))
        assert per_cluster == expected
        assert table.exclusions == ()
        ok = [r for r in table.rows if r.status == "ok"]
        assert ok, "expected at least one successful row"
        for r in ok:
            assert r.abs_error == pytest.approx(abs(r.predicted - r.actual))

    def test_hawkes_row_is_conditional_mean(self):
        clusters = corpus_clusters()
        spec = default_split(150.0, train_days=60.0)
        table = evaluate_all(clusters, spec, ["hawkes"])
        offset = spec.split_point - spec.train_days
        assert [r.cluster_id for r in table.rows] == [c.cluster_id for c in clusters]
        for c, row in zip(clusters, table.rows):
            train, _ = split_stream(c.events.times, spec)
            train = train - offset
            fit = fit_mle(train, spec.train_days)
            assert row.predicted == conditional_mean_count(
                HawkesParams(**fit.params), train, spec.train_days, spec.horizon_days)

    def test_arima_lite_credits_a_fractional_last_day_pro_rata(self):
        clusters = corpus_clusters()
        spec = default_split(150.0, train_days=60.0, horizon_days=3.5)
        table = evaluate_all(clusters, spec, ["arima_lite"])
        offset = spec.split_point - spec.train_days
        assert [r.cluster_id for r in table.rows] == [c.cluster_id for c in clusters]
        for c, row in zip(clusters, table.rows):
            train = split_stream(c.events.times, spec)[0] - offset
            days = np.clip(np.floor(train).astype(int), 0, 59)
            counts = np.bincount(days, minlength=60).astype(float)
            levels = baselines.forecast_arima(baselines.fit_arima_lite(counts).params,
                                              counts, 4)
            assert row.status == "ok"
            assert row.predicted == max(float(np.sum(levels[:3])) + 0.5 * float(levels[3]),
                                        0.0)

    def test_rows_carry_the_fits_optimizer_route(self):
        clusters = corpus_clusters()
        spec = default_split(150.0, train_days=60.0)
        table = evaluate_all(clusters, spec, ["hawkes", "nhpp_drift", "pc_nhpp", "poisson"])
        offset = spec.split_point - spec.train_days
        for c in clusters:
            train = split_stream(c.events.times, spec)[0] - offset
            fits = {"hawkes": fit_mle(train, spec.train_days)}
            for row in (r for r in table.rows if r.cluster_id == c.cluster_id):
                fit = fits.get(row.model)
                if fit is None:  # closed-form fits never call the maximizer
                    assert row.optimizer is None and row.grad_max is None
                else:
                    assert row.optimizer is not None
                    assert (row.optimizer, row.grad_max) == (fit.optimizer, fit.grad_max)

    def test_unconverged_fit_noted_on_its_ok_row(self, monkeypatch):
        clusters = corpus_clusters()
        spec = default_split(150.0, train_days=60.0)
        before = evaluate_all(clusters, spec, ["poisson", "nhpp_drift"]).rows
        fit_drift = baselines.fit_nhpp_drift
        monkeypatch.setattr(baselines, "fit_nhpp_drift",
                            lambda times, T: replace(fit_drift(times, T), converged=False))
        after = evaluate_all(clusters, spec, ["poisson", "nhpp_drift"]).rows
        assert [r.note for r in before] == [""] * len(before)
        assert after == tuple(replace(r, note="fit did not converge")
                              if r.model == "nhpp_drift" else r for r in before)
        assert all(r.status == "ok" for r in after)

    def test_zero_models_gives_empty_table(self):
        table = evaluate_all(corpus_clusters(), default_split(150.0, 60.0), [])
        assert table.rows == () and table.aggregates == {}

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            evaluate_all(corpus_clusters(), default_split(150.0, 60.0), ["sarima"])

    @pytest.mark.parametrize("bin_width", [0.0, -7.0, float("nan"), float("inf")])
    def test_bad_bin_width_rejected_before_any_fit(self, bin_width):
        with pytest.raises(ValueError, match="bin_width must be positive"):
            evaluate_all(corpus_clusters(), default_split(150.0, 60.0), ["pc_nhpp"],
                         bin_width=bin_width)

    def test_aggregates_average_over_clusters(self):
        clusters = corpus_clusters()
        table = evaluate_all(clusters, default_split(150.0, 60.0), ["poisson"])
        rows = [r for r in table.rows if r.status == "ok"]
        agg = table.aggregates["poisson"]
        assert agg["n_clusters"] == len(rows) == len(clusters)
        assert agg["mean_abs_error"] == pytest.approx(
            np.mean([r.abs_error for r in rows]))

    def test_aic_difference_pairs(self):
        clusters = corpus_clusters()
        spec = default_split(150.0, 60.0)
        table = evaluate_all(clusters, spec, ["hawkes", "poisson"])
        by_model = {(r.cluster_id, r.model): r for r in table.rows}
        assert len(table.aic_differences) == len(clusters)
        assert evaluate_all(clusters, spec, ["hawkes"]).aic_differences == ()
        for d in table.aic_differences:
            assert (d["model_a"], d["model_b"]) == ("hawkes", "poisson")
            a = by_model[(d["cluster_id"], "hawkes")].aic
            b = by_model[(d["cluster_id"], "poisson")].aic
            assert d["aic_diff"] == a - b

    def test_failure_isolated_to_model(self):
        # 4 train events: the self-exciting fit refuses, Poisson still works
        times = np.array([31.0, 38.0, 44.0, 55.0, 61.5])
        events = tuple(Event(f"v{k}", float(t), "u", frozenset({"x"}), 0, 0)
                       for k, t in enumerate(times))
        cluster = GenreCluster(0, frozenset({"x"}),
                               EventStream(0.0, events, 74.0))
        table = evaluate_all([cluster], SplitSpec(30.0, 60.0, 14.0),
                             ["hawkes", "poisson"])
        status = {r.model: r.status for r in table.rows}
        assert status == {"hawkes": "failed", "poisson": "ok"}
        failed = next(r for r in table.rows if r.model == "hawkes")
        assert failed.predicted is None and failed.aic is None
        assert failed.optimizer is None and failed.grad_max is None
        assert failed.note

    def test_supercritical_fit_refused_not_failed(self):
        # accelerating cascade drives the fitted branching ratio past one
        times = np.sort(30.0 * (1.0 - 0.82 ** np.arange(1, 45)))
        events = tuple(Event(f"v{k:02d}", float(t), "u", frozenset({"x"}), 0, 0)
                       for k, t in enumerate(times))
        cluster = GenreCluster(0, frozenset({"x"}), EventStream(0.0, events, 44.0))
        table = evaluate_all([cluster], SplitSpec(30.0, 30.0, 14.0), ["hawkes"])
        row = table.rows[0]
        assert row.status == "refused"
        assert "supercritical" in row.note
        assert row.loglik is not None and row.predicted is None
        fit = fit_mle(times[times <= 30.0], 30.0)
        assert (row.optimizer, row.grad_max) == (fit.optimizer, fit.grad_max)

    def test_cluster_without_training_events_excluded(self):
        times = np.array([65.0, 66.0, 70.0])
        events = tuple(Event(f"v{k}", float(t), "u", frozenset({"x"}), 0, 0)
                       for k, t in enumerate(times))
        cluster = GenreCluster(5, frozenset({"x"}), EventStream(0.0, events, 74.0))
        table = evaluate_all([cluster], SplitSpec(30.0, 60.0, 14.0), ["poisson"])
        assert table.rows == ()
        assert len(table.exclusions) == 1
        assert table.exclusions[0][0] == 5

    def test_pooled_row_uses_sentinel_id(self):
        clusters = corpus_clusters()
        table = evaluate_all(clusters, default_split(150.0, 60.0), ["hawkes_global"])
        assert [r.cluster_id for r in table.rows] == [POOLED_CLUSTER_ID]
        assert table.rows[0].model == "hawkes_global"
