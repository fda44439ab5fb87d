"""Intensity, likelihood recursion, gradients, and MLE for the exponential kernel."""

import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import (central_difference, direct_compensator, direct_intensity,
                     direct_log_likelihood)
from tagburst.baselines import fit_arima_lite, fit_nhpp_drift, fit_pc_nhpp, fit_poisson
from tagburst.hawkes import (HawkesParams, compensator, decay_sums, fit_mle,
                             fit_result_from_dict, fit_result_to_dict,
                             intensity_at, log_likelihood,
                             log_likelihood_gradient, make_fit_result,
                             rescaled_residuals)
from tagburst.simulate import SimConfig, simulate_hawkes

P = HawkesParams(mu=0.5, beta=1.0, omega=2.0)


def random_times(rng, n, T):
    return np.sort(rng.uniform(0.0, T, size=n))


def random_params(rng, subcritical=True):
    mu = float(rng.uniform(0.1, 2.0))
    omega = float(rng.uniform(0.5, 3.0))
    hi = 0.95 * omega if subcritical else 2.0 * omega
    beta = float(rng.uniform(0.01, hi))
    return HawkesParams(mu, beta, omega)


class TestParams:
    def test_branching_ratio(self):
        assert HawkesParams(1.0, 0.5, 2.0).branching_ratio == 0.25

    @pytest.mark.parametrize("mu,beta,omega", [
        (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, -0.1, 1.0),
        (1.0, 1.0, 0.0), (1.0, 1.0, -2.0), (np.nan, 1.0, 1.0),
        (1.0, np.inf, 1.0),
    ])
    def test_rejects_bad_values(self, mu, beta, omega):
        with pytest.raises(ValueError):
            HawkesParams(mu, beta, omega)

    def test_zero_beta_allowed(self):
        assert HawkesParams(1.0, 0.0, 1.0).branching_ratio == 0.0


class TestIntensity:
    def test_worked_example(self):
        assert intensity_at(P, [1.0], 1.5) == pytest.approx(
            0.8678794411714423, rel=1e-15)

    def test_empty_history_gives_mu(self):
        assert intensity_at(P, [], 3.0) == 0.5

    def test_event_at_t_counts_at_full_weight(self):
        assert intensity_at(P, [1.0], 1.0) == pytest.approx(1.5, rel=1e-15)

    def test_future_history_rejected(self):
        with pytest.raises(ValueError):
            intensity_at(P, [1.0, 2.0], 1.5)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        hist = random_times(rng, 40, 9.0)
        for t in (9.0, 9.5, 12.0):
            assert intensity_at(P, hist, t) == pytest.approx(
                direct_intensity(P.mu, P.beta, P.omega, hist, t), rel=1e-12)


class TestDecaySums:
    def test_first_term_is_zero(self):
        a = decay_sums(np.array([0.3, 0.7, 2.0]), 1.5)
        assert a[0] == 0.0

    def test_recursion_equals_direct_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = random_times(rng, int(rng.integers(2, 60)), 20.0)
            omega = float(rng.uniform(0.2, 4.0))
            a = decay_sums(t, omega)
            direct = [np.sum(np.exp(-omega * (ti - t[:i]))) for i, ti in enumerate(t)]
            np.testing.assert_allclose(a, direct, rtol=1e-12, atol=1e-300)

    def test_simultaneous_events_excite_at_weight_one(self):
        a = decay_sums(np.array([1.0, 1.0, 1.0]), 2.0)
        np.testing.assert_allclose(a, [0.0, 1.0, 2.0])


class TestCompensator:
    def test_worked_example(self):
        assert compensator(P, [1.0, 1.5], 2.0) == pytest.approx(
            1.7483926377959724, rel=1e-15)

    def test_zero_at_time_zero(self):
        assert compensator(P, [], 0.0) == 0.0

    def test_monotone_in_t(self):
        rng = np.random.default_rng(23)
        hist = random_times(rng, 30, 10.0)
        grid = np.linspace(0.0, 14.0, 57)
        vals = [compensator(P, hist, float(t)) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = random_params(rng, subcritical=False)
            t = random_times(rng, int(rng.integers(1, 50)), 8.0)
            at = float(rng.uniform(8.0, 12.0))
            assert compensator(p, t, at) == pytest.approx(
                direct_compensator(p.mu, p.beta, p.omega, t, at), rel=1e-12)


class TestLogLikelihood:
    def test_worked_example(self):
        assert log_likelihood(P, [1.0, 1.5], 2.0) == pytest.approx(
            -2.583242284983812, rel=1e-14)

    def test_empty_stream_is_pure_compensator(self):
        assert log_likelihood(HawkesParams(1.0, 0.0, 1.0), [], 2.0) == -2.0

    def test_beta_zero_reduces_to_poisson(self):
        times = [0.5, 1.0, 3.0]
        p = HawkesParams(0.8, 0.0, 1.0)
        assert log_likelihood(p, times, 4.0) == pytest.approx(
            3 * np.log(0.8) - 0.8 * 4.0, rel=1e-14)

    def test_recursion_matches_quadratic_oracle(self):
        # the O(n) recursion must agree with the O(n^2) sum to 1e-8 relative
        rng = np.random.default_rng(37)
        for _ in range(30):
            p = random_params(rng, subcritical=False)
            n = int(rng.integers(2, 120))
            times = random_times(rng, n, 15.0)
            T = 15.0 + float(rng.uniform(0.0, 2.0))
            fast = log_likelihood(p, times, T)
            slow = direct_log_likelihood(p.mu, p.beta, p.omega, times, T)
            assert fast == pytest.approx(slow, rel=1e-8)

    def test_likelihood_decomposes_as_logsum_minus_compensator(self):
        rng = np.random.default_rng(41)
        times = random_times(rng, 25, 6.0)
        logsum = sum(np.log(P.mu + P.beta * a) for a in decay_sums(times, P.omega))
        assert log_likelihood(P, times, 7.0) == logsum - compensator(P, times, 7.0)

    def test_rejects_unsorted_and_out_of_range(self):
        with pytest.raises(ValueError):
            log_likelihood(P, [2.0, 1.0], 3.0)
        with pytest.raises(ValueError):
            log_likelihood(P, [1.0, 4.0], 3.0)
        with pytest.raises(ValueError):
            log_likelihood(P, [1.0], 0.0)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = random_params(rng)
            times = random_times(rng, int(rng.integers(5, 80)), 12.0)
            T = 13.0
            grad = log_likelihood_gradient(p, times, T)
            x = np.array([p.mu, p.beta, p.omega])
            num = central_difference(
                lambda v: log_likelihood(HawkesParams(*v), times, T), x, h=1e-6)
            np.testing.assert_allclose(grad, num, rtol=1e-5)

    def test_gradient_near_zero_at_interior_mle(self):
        cfg = SimConfig(seed=202, t_start=0.0, t_end=400.0)
        times = simulate_hawkes(HawkesParams(0.5, 0.8, 1.2), cfg)
        fit = fit_mle(times, 400.0)
        p = HawkesParams(**fit.params)
        grad = log_likelihood_gradient(p, times, 400.0)
        # log-space stationarity: grad scaled by the parameters themselves
        scaled = grad * np.array([p.mu, p.beta, p.omega])
        assert np.max(np.abs(scaled)) < 1e-4


class TestResiduals:
    def test_residuals_are_compensator_increments(self):
        rng = np.random.default_rng(47)
        times = random_times(rng, 40, 10.0)
        res = rescaled_residuals(P, times)
        direct = np.diff(
            [0.0] + [direct_compensator(P.mu, P.beta, P.omega, times, t) for t in times])
        np.testing.assert_allclose(res, direct, rtol=1e-10, atol=1e-12)

    def test_residuals_nonnegative_and_sum_to_compensator(self):
        rng = np.random.default_rng(53)
        times = random_times(rng, 60, 20.0)
        res = rescaled_residuals(P, times)
        assert np.all(res >= 0.0)
        assert res.sum() == pytest.approx(
            compensator(P, times, float(times[-1])), rel=1e-10)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            rescaled_residuals(P, [])


class TestFit:
    def test_requires_five_events(self):
        with pytest.raises(ValueError):
            fit_mle([1.0, 2.0, 3.0, 4.0], 5.0)

    def test_rejects_all_identical_times(self):
        with pytest.raises(ValueError):
            fit_mle([2.0] * 8, 5.0)

    def test_recovers_parameters_roughly(self):
        true = HawkesParams(0.5, 0.8, 1.2)
        cfg = SimConfig(seed=99, t_start=0.0, t_end=2000.0)
        times = simulate_hawkes(true, cfg)
        fit = fit_mle(times, 2000.0)
        assert fit.converged
        assert fit.params["mu"] == pytest.approx(true.mu, rel=0.25)
        assert fit.params["beta"] == pytest.approx(true.beta, rel=0.25)
        assert fit.params["omega"] == pytest.approx(true.omega, rel=0.25)

    def test_fitted_likelihood_beats_truth(self):
        true = HawkesParams(1.0, 0.5, 1.5)
        cfg = SimConfig(seed=7, t_start=0.0, t_end=300.0)
        times = simulate_hawkes(true, cfg)
        fit = fit_mle(times, 300.0)
        assert fit.log_likelihood >= log_likelihood(true, times, 300.0) - 1e-9

    def test_simplex_fallback_rescues_stalled_line_search(self):
        # L-BFGS-B alone stalls with beta near zero at loglik -130.64; the
        # Nelder-Mead restart reaches -129.470 (beta ~ 2.02, omega ~ 95.2)
        p = HawkesParams(mu=0.10520315032328138, beta=5.643884733962391,
                         omega=186.71655854338468)
        times = simulate_hawkes(p, SimConfig(seed=3, t_start=0.0, t_end=365.0))
        assert times.size == 41
        assert fit_mle(times, 365.0).log_likelihood > -129.5

    def test_poisson_data_yields_small_branching_ratio(self):
        rng = np.random.default_rng(61)
        times = np.sort(rng.uniform(0.0, 500.0, size=600))
        fit = fit_mle(times, 500.0)
        assert fit.branching_ratio < 0.15

    def test_aic_identity(self):
        fr = make_fit_result("m", {"a": 1.0}, log_likelihood=-10.0,
                             n_params=3, converged=True, n_iterations=4)
        assert fr.aic == 2 * 3 - 2 * (-10.0)

    def test_fit_reports_metadata(self):
        cfg = SimConfig(seed=5, t_start=0.0, t_end=500.0)
        times = simulate_hawkes(HawkesParams(0.4, 0.6, 1.0), cfg)
        fit = fit_mle(times, 500.0)
        assert fit.model == "hawkes"
        assert fit.n_params == 3
        assert fit.aic == pytest.approx(6 - 2 * fit.log_likelihood)
        assert 0.0 <= fit.branching_ratio < 1.0


class TestFitRecord:
    def test_round_trips_through_json(self):
        rng = np.random.default_rng(17)
        times = random_times(rng, 120, 40.0)
        counts = np.bincount(times.astype(int), minlength=40).astype(float)
        hawkes = fit_mle(times, 40.0)
        fits = [hawkes, replace(hawkes, warnings=("supercritical", "effectively_poisson")),
                fit_poisson(times, 40.0), fit_pc_nhpp(times, 40.0),
                fit_nhpp_drift(times, 40.0), fit_arima_lite(counts)[1]]
        for fit in fits:
            record = json.loads(json.dumps(fit_result_to_dict(fit)))
            assert fit_result_from_dict(record) == fit
