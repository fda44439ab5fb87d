"""Intensity, likelihood recursion, gradients, and MLE for the exponential kernel."""

import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import (central_difference, direct_compensator, direct_intensity,
                     direct_log_likelihood, loop_decay_state, simplex_fallback_maximize)
from tagburst import _optim, baselines, hawkes
from tagburst.baselines import fit_arima_lite, fit_nhpp_drift, fit_pc_nhpp, fit_poisson
from tagburst.forecast import conditional_mean_count
from tagburst.hawkes import (HawkesParams, _decay_state, _excitation, decay_sums, fit_mle,
                             fit_result_from_dict, fit_result_to_dict, log_likelihood,
                             log_likelihood_gradient, make_fit_result,
                             rescaled_residuals)
from tagburst.simulate import SimConfig, simulate_hawkes

P = HawkesParams(mu=0.5, beta=1.0, omega=2.0)


def random_times(rng, n, T):
    return np.sort(rng.uniform(0.0, T, size=n))


def likelihood_compensator(p, times, T):
    """Lambda(T) as log_likelihood subtracts it: the log-sum of the
    intensities at the events minus the log-likelihood over [0, T]."""
    times = np.asarray(times, dtype=float)
    logsum = float(np.sum(np.log(p.mu + p.beta * decay_sums(times, p.omega))))
    return logsum - log_likelihood(p, times, T)


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
    """mu + _excitation is the intensity the forecast and the simulator start from."""

    def test_worked_example(self):
        for lam in (P.mu + _excitation(P, np.array([1.0]), 1.5),
                    direct_intensity(P.mu, P.beta, P.omega, [1.0], 1.5)):
            assert lam == pytest.approx(0.8678794411714423, rel=1e-15)

    def test_empty_history_gives_mu(self):
        assert P.mu + _excitation(P, np.array([]), 3.0) == 0.5

    def test_event_at_t_counts_at_full_weight(self):
        assert P.mu + _excitation(P, np.array([1.0]), 1.0) == pytest.approx(1.5, rel=1e-15)

    def test_future_history_rejected(self):
        with pytest.raises(ValueError, match="history"):
            conditional_mean_count(P, [1.0, 2.0], 1.5, 1.0)
        with pytest.raises(ValueError, match="history"):
            SimConfig(seed=0, t_start=1.5, t_end=3.0, history=(1.0, 2.0))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        hist = random_times(rng, 40, 9.0)
        for t in (9.0, 9.5, 12.0):
            assert P.mu + _excitation(P, hist, t) == pytest.approx(
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


    def test_recursion_equals_loop_oracle_bit_for_bit(self):
        rng = np.random.default_rng(29)
        streams = [np.array([]), np.array([3.0]), np.array([1.0, 2.5]),
                   np.array([0.0, 1.0, 1.0, 1.0, 2.0, 2.0])]
        for _ in range(6):
            t = random_times(rng, int(rng.integers(3, 300)), 50.0)
            streams += [t, np.round(t, 1)]  # the rounded copy has tied times
        for t in streams:
            for omega in [*np.geomspace(1e-3, 500.0, 9), 1e26]:
                A0, B0 = loop_decay_state(t, omega)
                A, B = _decay_state(t, omega)
                assert A.tobytes() == A0.tobytes() and B.tobytes() == B0.tobytes()
                assert decay_sums(t, omega).tobytes() == A0.tobytes()


class TestCompensator:
    """The compensator the likelihood subtracts and the residuals difference."""

    def test_worked_example(self):
        assert direct_compensator(P.mu, P.beta, P.omega, [1.0, 1.5], 2.0) == pytest.approx(
            1.7483926377959724, rel=1e-15)
        assert likelihood_compensator(P, [1.0, 1.5], 2.0) == pytest.approx(
            1.7483926377959724, rel=1e-14)

    def test_zero_at_time_zero(self):
        # an event at time zero has residual Lambda(0) - 0
        assert rescaled_residuals(P, [0.0, 1.0])[0] == 0.0

    def test_monotone_in_t(self):
        rng = np.random.default_rng(23)
        hist = random_times(rng, 30, 10.0)
        grid = np.linspace(0.0, 14.0, 57)[1:]
        vals = [likelihood_compensator(P, hist[hist < t], float(t)) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = random_params(rng, subcritical=False)
            t = random_times(rng, int(rng.integers(1, 50)), 8.0)
            at = float(rng.uniform(8.0, 12.0))
            assert likelihood_compensator(p, t, at) == pytest.approx(
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    def test_extreme_decay_rates_still_evaluate(self):
        # the gradient computed alongside overflows there; the value must not
        # fail.  The kernel is 1 at omega -> 0 and vanishes at omega -> inf.
        times = [1.0, 1.5, 3.0]
        flat = sum(np.log(0.7 + 0.2 * j) for j in range(3)) - 0.7 * 4.0 - 0.2 * 6.5
        for omega, expected in ((1e-170, flat), (1e200, 3 * np.log(0.7) - 0.7 * 4.0)):
            value = log_likelihood(HawkesParams(0.7, 0.2, omega), times, 4.0)
            assert value == pytest.approx(expected, rel=1e-12)

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
        assert log_likelihood(P, times, 7.0) == pytest.approx(
            logsum - direct_compensator(P.mu, P.beta, P.omega, times, 7.0), rel=1e-14)

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
            direct_compensator(P.mu, P.beta, P.omega, times, float(times[-1])), rel=1e-10)

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


def stalled_line_search_stream():
    """41 events on which L-BFGS-B stalls and Nelder-Mead takes over."""
    p = HawkesParams(mu=0.10520315032328138, beta=5.643884733962391,
                     omega=186.71655854338468)
    return simulate_hawkes(p, SimConfig(seed=3, t_start=0.0, t_end=365.0))


def hawkes_stream(seed):
    """About 150 events of a subcritical process over 100 days."""
    return simulate_hawkes(HawkesParams(0.5, 0.8, 1.2),
                           SimConfig(seed=seed, t_start=0.0, t_end=100.0))


INTERIOR_STALL_SEED = 9  # hawkes_stream(9): L-BFGS-B stops short of GRAD_TOL inside the box


def beta_floor_stream():
    """40 uniform events over 50 days: the fit drives beta to BETA_FLOOR,
    where the Newton polish fails and the simplex runs."""
    return np.sort(np.random.default_rng(1).uniform(0.0, 50.0, size=40))


def rising_stream(seed):
    """60 events over 60 days with density rising linearly from zero, so
    the drift fit's intercept heads for its floor along a flat direction."""
    return np.sort(60.0 * np.sqrt(np.random.default_rng(seed).uniform(size=60)))


class TestObjective:
    """The maximize contract: fun(x) gives the negated (value, gradient)."""

    @staticmethod
    def capture(monkeypatch, module, seen):
        real = _optim.maximize

        def spy(fun, x0, bounds=None):
            seen.append((fun, np.asarray(x0), bounds))
            return real(fun, x0, bounds=bounds)
        monkeypatch.setattr(module, "maximize", spy)

    @staticmethod
    def log_calls(monkeypatch, calls, windows):
        """Count the objective's calls, and record for each scipy method the
        call counts at which it was entered and returned, and its result."""
        real_maximize, real_minimize = _optim.maximize, _optim.minimize

        def counting_maximize(fun, x0, bounds=None):
            def logged(x):
                calls[0] += 1
                return fun(x)
            return real_maximize(logged, x0, bounds=bounds)

        def spy_minimize(f, x0, **kwargs):
            entered = calls[0]
            res = real_minimize(f, x0, **kwargs)
            windows[kwargs["method"]] = (entered, calls[0], res)
            return res

        monkeypatch.setattr(hawkes, "maximize", counting_maximize)
        monkeypatch.setattr(_optim, "minimize", spy_minimize)

    def test_newton_polish_finishes_interior_stall(self, monkeypatch):
        calls, windows = [0], {}
        self.log_calls(monkeypatch, calls, windows)
        fit = fit_mle(hawkes_stream(INTERIOR_STALL_SEED), 100.0)
        assert set(windows) == {"L-BFGS-B"}
        _, returned, res = windows["L-BFGS-B"]
        assert np.max(np.abs(res.jac)) >= _optim.GRAD_TOL
        assert all(0.1 < fit.params[k] < 10.0 for k in ("mu", "beta", "omega"))
        assert fit.optimizer == "lbfgsb+newton"
        assert fit.converged and fit.grad_max < 1e-10
        steps = fit.n_iterations - res.nit
        assert 1 <= steps <= _optim.NEWTON_STEPS
        # each step: two gradients per parameter for the Hessian, one at the new point
        assert calls[0] - returned == steps * (2 * 3 + 1)

    def test_simplex_point_converged_only_where_stationary(self):
        # a kink at the optimum: Nelder-Mead finds it and reports success,
        # but the gradient there is not small, so the point is not certified
        def fun(x):
            u = x[0] - 0.7 * x[1] - 0.3
            f = abs(u) + (x[1] - 0.5) ** 2 + 0.1 * (x[0] - 0.2) ** 2
            g = np.array([np.sign(u) + 0.2 * (x[0] - 0.2),
                          -0.7 * np.sign(u) + 2.0 * (x[1] - 0.5)])
            return f, g
        res = _optim.maximize(fun, [3.0, -2.0])
        assert res.route == "lbfgsb+simplex"
        assert res.grad_max == float(np.max(np.abs(fun(res.x)[1]))) > 0.01
        assert not res.converged
        assert simplex_fallback_maximize(fun, [3.0, -2.0])[2]

    def test_never_worse_than_simplex_fallback(self, monkeypatch):
        hawkes_streams = [(stalled_line_search_stream(), 365.0), (beta_floor_stream(), 50.0)]
        hawkes_streams += [(hawkes_stream(seed), 100.0) for seed in range(10)]
        drift_streams = hawkes_streams + [(rising_stream(seed), 60.0) for seed in range(6)]
        seen_hawkes, seen_drift = [], []
        self.capture(monkeypatch, hawkes, seen_hawkes)
        self.capture(monkeypatch, baselines, seen_drift)
        for times, T in hawkes_streams:
            fit_mle(times, T)
        for times, T in drift_streams:
            fit_nhpp_drift(times, T)
        routes = set()
        # the drift intercept can stop short of its floor on a flat direction
        for seen, tol in ((seen_hawkes, 1e-9), (seen_drift, 1e-6)):
            for fun, x0, bounds in seen:
                new = _optim.maximize(fun, x0, bounds=bounds)
                old_value = simplex_fallback_maximize(fun, x0, bounds=bounds)[1]
                assert new.value >= old_value - tol
                grad_max = float(np.max(np.abs(fun(new.x)[1])))
                assert new.grad_max == grad_max
                assert new.converged == (grad_max < _optim.GRAD_TOL)
                routes.add(new.route)
        assert routes == {"lbfgsb", "lbfgsb+newton", "lbfgsb+simplex"}


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
            optimized = fit.model in ("hawkes", "nhpp_drift")
            assert ("optimizer" in record) == ("grad_max" in record) == optimized
            if optimized:
                assert record["optimizer"] == fit.optimizer
                assert record["grad_max"] == fit.grad_max
