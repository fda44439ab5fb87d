"""Poisson-family baselines, the pooled self-exciting fit, and ARIMA-lite."""

import math

import numpy as np
import pytest

from mc_reference import simulate_nhpp
from oracles import central_difference, drift_log_likelihood, loop_css_residuals
from tagburst.baselines import (ArimaLiteParams, _css_residuals, _drift_objective,
                                fit_arima_lite, fit_nhpp_drift, fit_pc_nhpp, fit_poisson,
                                forecast_arima)
from tagburst.forecast import (POOLED_CLUSTER_ID, conditional_mean_count, default_split,
                               evaluate_all)
from tagburst.hawkes import HawkesParams, fit_mle, log_likelihood
from tagburst.simulate import SimConfig, simulate_hawkes
from tagburst.taggraph import extract_clusters
from tagburst.ingest import Event, EventStream


class TestPoisson:
    def test_closed_form(self):
        fit = fit_poisson([1.0, 2.0, 3.0], 10.0)
        assert fit.params["mu"] == 0.3
        assert fit.log_likelihood == 3 * (math.log(0.3) - 1.0)
        assert fit.n_params == 1
        assert fit.aic == 2 - 2 * fit.log_likelihood

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            fit_poisson([], 5.0)

    def test_equals_exciting_likelihood_on_zero_beta_slice(self):
        # the Poisson MLE is the sup of the full model restricted to beta = 0
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0, 50, size=80))
        fit = fit_poisson(times, 50.0)
        slice_ll = log_likelihood(
            HawkesParams(fit.params["mu"], 0.0, 1.0), times, 50.0)
        assert fit.log_likelihood == pytest.approx(slice_ll, rel=1e-14)
        # and no other mu on the slice does better
        for mu in (0.5, 1.0, 2.5):
            assert log_likelihood(HawkesParams(mu, 0.0, 1.0), times, 50.0) \
                <= fit.log_likelihood + 1e-12


class TestBadInput:
    @pytest.mark.parametrize("fitter", [fit_poisson, fit_pc_nhpp, fit_nhpp_drift])
    @pytest.mark.parametrize("times, message", [
        ([1.0, float("nan"), 3.0], "finite"),
        ([[1.0, 2.0], [3.0, 4.0]], "one-dimensional"),
    ])
    def test_rejected_with_one_line_error(self, fitter, times, message):
        with pytest.raises(ValueError, match=message) as exc:
            fitter(times, 5.0)
        assert "\n" not in str(exc.value)


class TestPiecewiseConstant:
    def test_rates_are_per_bin_counts(self):
        fit = fit_pc_nhpp([0.5, 1.5, 1.6, 8.5], 14.0, bin_width=7.0)
        assert fit.params["bin_edges"] == [0.0, 7.0, 14.0]
        assert fit.params["rates"] == [3 / 7, 1 / 7]
        assert fit.log_likelihood == pytest.approx(
            3 * (math.log(3 / 7) - 1) + (math.log(1 / 7) - 1), rel=1e-14)
        assert fit.n_params == 2

    def test_last_bin_truncated_at_horizon(self):
        fit = fit_pc_nhpp([1.0, 8.0, 9.5], 10.0, bin_width=7.0)
        assert fit.params["bin_edges"] == [0.0, 7.0, 10.0]
        assert fit.params["rates"][1] == pytest.approx(2 / 3.0)

    def test_horizon_on_bin_boundary_adds_no_empty_bin(self):
        fit = fit_pc_nhpp([1.0, 8.0], 14.0, bin_width=7.0)
        assert len(fit.params["rates"]) == 2

    def test_single_bin_matches_poisson_exactly(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0, 30, size=40))
        pc = fit_pc_nhpp(times, 30.0, bin_width=30.0)
        po = fit_poisson(times, 30.0)
        assert pc.log_likelihood == po.log_likelihood  # identical floats
        assert pc.params["rates"] == [po.params["mu"]]

    def test_empty_bins_contribute_nothing(self):
        fit = fit_pc_nhpp([0.5], 21.0, bin_width=7.0)
        assert math.isfinite(fit.log_likelihood)
        assert fit.log_likelihood == pytest.approx(math.log(1 / 7) - 1)

    @pytest.mark.parametrize("bw", [0.0, -1.0, math.inf])
    def test_bad_bin_width_rejected(self, bw):
        with pytest.raises(ValueError):
            fit_pc_nhpp([1.0], 10.0, bin_width=bw)


def drift_x(slope, intercept, T):
    """The drift objective's point for lam(t) = slope * t + intercept on [0, T]."""
    return np.log([intercept, slope * T + intercept])


class TestDrift:
    SLOPE, INTERCEPT = 0.2, 1.0

    def test_likelihood_matches_quadrature(self):
        # the fit's objective and the slope/intercept oracle against the integral
        times = np.array([0.5, 2.0, 3.5])
        T = 4.0
        grid = np.linspace(0, T, 200001)
        integral = np.trapezoid(self.SLOPE * grid + self.INTERCEPT, grid)
        expected = sum(math.log(self.SLOPE * t + self.INTERCEPT) for t in times) - integral
        assert drift_log_likelihood(self.SLOPE, self.INTERCEPT, times, T) == \
            pytest.approx(expected, rel=1e-9)
        x = drift_x(self.SLOPE, self.INTERCEPT, T)
        assert -_drift_objective(x, times / T, T)[0] == pytest.approx(expected, rel=1e-9)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(31)
        times = np.sort(rng.uniform(0, 10, size=40))
        x = drift_x(self.SLOPE, self.INTERCEPT, 10.0)
        grad = _drift_objective(x, times / 10.0, 10.0)[1]
        num = central_difference(lambda v: _drift_objective(v, times / 10.0, 10.0)[0],
                                 x, h=1e-6)
        np.testing.assert_allclose(grad, num, rtol=1e-6)

    def test_fit_needs_two_events(self):
        with pytest.raises(ValueError):
            fit_nhpp_drift([1.0], 10.0)

    def test_recovers_rising_rate(self):
        slopes, intercepts = [], []
        for seed in range(8):
            cfg = SimConfig(seed=seed, t_start=0.0, t_end=100.0)
            times = simulate_nhpp(lambda t: 0.5 + 0.05 * t, 5.5, cfg)
            fit = fit_nhpp_drift(times, 100.0)
            assert fit.converged
            slopes.append(fit.params["mu_slope"])
            intercepts.append(fit.params["b_intercept"])
        assert np.median(slopes) == pytest.approx(0.05, rel=0.2)
        assert np.median(intercepts) == pytest.approx(0.5, rel=0.5)

    def test_never_below_nested_poisson(self):
        rng = np.random.default_rng(37)
        for seed in range(5):
            times = np.sort(np.random.default_rng(seed).uniform(0, 60, size=70))
            drift = fit_nhpp_drift(times, 60.0)
            po = fit_poisson(times, 60.0)
            assert drift.log_likelihood >= po.log_likelihood - 1e-9
            assert drift.n_params == 2


class TestGlobalPooled:
    def test_pools_all_clusters(self):
        # evaluate_all's hawkes_global row is fit_mle on the pooled training window
        tagged = []
        t_by_cluster = {
            "a": simulate_hawkes(HawkesParams(0.5, 0.4, 1.0),
                                 SimConfig(seed=1, t_start=0.0, t_end=200.0)),
            "b": simulate_hawkes(HawkesParams(0.8, 0.3, 2.0),
                                 SimConfig(seed=2, t_start=0.0, t_end=200.0)),
        }
        events = []
        k = 0
        for tag, ts in t_by_cluster.items():
            for t in ts:
                events.append(Event(f"v{k:04d}", float(t), "u0", frozenset({tag}), 0, 0))
                k += 1
        events.sort(key=lambda e: (e.upload_time, e.video_id))
        stream = EventStream(origin=0.0, events=tuple(events), horizon_T=200.0)
        clusters = extract_clusters(stream, 1)
        assert len(clusters) == 2
        table = evaluate_all(clusters, default_split(200.0, train_days=186.0),
                             ["hawkes_global"])
        [row] = table.rows
        train = np.sort(np.concatenate(list(t_by_cluster.values())))
        train = train[train <= 186.0]
        direct = fit_mle(train, 186.0)
        assert (row.cluster_id, row.model, row.status) == \
            (POOLED_CLUSTER_ID, "hawkes_global", "ok")
        assert row.loglik == direct.log_likelihood and row.aic == direct.aic
        assert row.predicted == conditional_mean_count(
            HawkesParams(**direct.params), train, 186.0, 14.0)
        assert (row.optimizer, row.grad_max) == (direct.optimizer, direct.grad_max)


class TestCssResiduals:
    def test_bit_identical_to_loop_reference(self):
        rng = np.random.default_rng(61)
        for _ in range(600):
            p, q = (int(v) for v in rng.integers(0, 3, size=2))
            d = int(rng.integers(0, 2))
            counts = rng.poisson(rng.uniform(0.5, 20.0), size=int(rng.integers(20, 121)))
            y = np.diff(counts.astype(float), n=d) if d else counts.astype(float)
            c, phi = rng.normal(0.0, 3.0), rng.normal(0.0, 0.8, size=p)
            theta = rng.uniform(-2.5, 2.5, size=q)  # |theta| > 1 as Nelder-Mead probes
            fast = _css_residuals(y, p, q, c, phi, theta)
            ref = loop_css_residuals(y, p, q, c, phi, theta)
            assert np.array_equal(fast, ref) and fast.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize("theta", [(np.inf,), (np.inf, 0.5), (0.5, np.inf)])
    def test_lags_before_the_series_are_left_out(self, p, theta):
        # a left-out lag is not theta * 0.0, which is nan for an infinite theta
        y = np.arange(1.0, 25.0)
        with np.errstate(invalid="ignore", over="ignore"):
            fast = _css_residuals(y, p, len(theta), 0.5, (0.3,) * p, theta)
            ref = loop_css_residuals(y, p, len(theta), 0.5, (0.3,) * p, theta)
        assert np.array_equal(fast, ref, equal_nan=True)

    def test_ma_order_above_two_rejected(self):
        with pytest.raises(ValueError, match="MA order"):
            _css_residuals(np.arange(30.0), 0, 3, 0.0, (), (0.1, 0.1, 0.1))


def ar1_series(rng, n, phi, c=1.0, sigma=1.0):
    y = np.empty(n)
    y[0] = c / (1 - phi)
    for t in range(1, n):
        y[t] = c + phi * y[t - 1] + rng.normal(0, sigma)
    return y


class TestArimaLite:
    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_arima_lite(np.ones(19))

    @pytest.mark.parametrize("bounds", [{"max_p": -1}, {"max_d": -1}, {"max_q": -1},
                                        {"max_p": -3, "max_d": -2, "max_q": -1}])
    def test_negative_grid_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match="grid bounds") as exc:
            fit_arima_lite(np.arange(30.0), **bounds)
        assert "\n" not in str(exc.value)

    def test_ma_order_above_two_rejected(self):
        with pytest.raises(ValueError, match="max_q=3") as exc:
            fit_arima_lite(np.arange(30.0), max_q=3)
        assert "\n" not in str(exc.value)

    def test_intercept_only_fits_the_mean(self):
        rng = np.random.default_rng(41)
        y = rng.normal(5.0, 1.0, size=60)
        params, fit = fit_arima_lite(y, max_p=0, max_d=0, max_q=0)
        assert params.intercept == pytest.approx(float(np.mean(y)), rel=1e-12)
        eps = y - np.mean(y)
        sigma2 = float(np.dot(eps, eps)) / y.size
        assert params.sigma2 == pytest.approx(sigma2, rel=1e-12)
        assert fit.log_likelihood == pytest.approx(
            -0.5 * y.size * (math.log(2 * math.pi * sigma2) + 1), rel=1e-12)
        assert fit.n_params == 2

    def test_recovers_ar1_coefficient(self):
        rng = np.random.default_rng(43)
        y = ar1_series(rng, 400, phi=0.7)
        params, fit = fit_arima_lite(y, max_p=2, max_d=0, max_q=0)
        assert params.p >= 1
        assert params.ar[0] == pytest.approx(0.7, abs=0.12)

    def test_aic_identity_and_model_name(self):
        rng = np.random.default_rng(47)
        _, fit = fit_arima_lite(rng.normal(size=50))
        assert fit.model == "arima_lite"
        assert fit.aic == 2 * fit.n_params - 2 * fit.log_likelihood

    def test_grid_choice_no_worse_than_intercept_only(self):
        rng = np.random.default_rng(53)
        y = ar1_series(rng, 120, phi=0.5)
        _, full = fit_arima_lite(y)
        _, flat = fit_arima_lite(y, max_p=0, max_d=0, max_q=0)
        assert full.aic <= flat.aic + 1e-9

    def test_forecast_follows_ar_recursion(self):
        params = ArimaLiteParams(p=1, d=0, q=0, ar=(0.5,), ma=(),
                                 intercept=1.0, sigma2=1.0)
        y = np.array([0.0, 2.0])
        f = forecast_arima(params, y, 3)
        assert f[0] == pytest.approx(1.0 + 0.5 * 2.0)
        assert f[1] == pytest.approx(1.0 + 0.5 * f[0])
        assert f[2] == pytest.approx(1.0 + 0.5 * f[1])

    def test_differenced_forecast_accumulates_levels(self):
        params = ArimaLiteParams(p=0, d=1, q=0, ar=(), ma=(),
                                 intercept=2.0, sigma2=1.0)
        y = np.array([10.0, 11.0, 13.0])
        f = forecast_arima(params, y, 2)
        np.testing.assert_allclose(f, [15.0, 17.0])

    def test_forecast_rejects_zero_horizon(self):
        params = ArimaLiteParams(p=0, d=0, q=0, ar=(), ma=(),
                                 intercept=0.0, sigma2=1.0)
        with pytest.raises(ValueError):
            forecast_arima(params, np.ones(30), 0)

    @pytest.mark.parametrize("p, d, q, n", [(2, 0, 0, 1), (2, 0, 1, 1), (1, 1, 0, 1),
                                            (2, 1, 1, 2)])
    def test_forecast_rejects_too_few_counts(self, p, d, q, n):
        params = ArimaLiteParams(p=p, d=d, q=q, ar=(0.5,) * p, ma=(0.2,) * q,
                                 intercept=1.0, sigma2=1.0)
        with pytest.raises(ValueError, match="needs at least"):
            forecast_arima(params, np.ones(n), 3)

    def test_forecast_length_matches_horizon(self):
        rng = np.random.default_rng(59)
        y = rng.poisson(4.0, size=40).astype(float)
        params, _ = fit_arima_lite(y)
        assert forecast_arima(params, y, 14).shape == (14,)
