"""Intensity, likelihood recursion, gradients, and MLE for the exponential kernel."""

import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import (central_difference, direct_compensator, direct_intensity,
                     direct_log_likelihood, drift_objective, loop_decay_state,
                     polish_fallback_maximize, simplex_fallback_maximize)
from tagburst import _optim, hawkes
from tagburst.baselines import fit_arima_lite, fit_nhpp_drift, fit_pc_nhpp, fit_poisson
from tagburst.cli import main
from tagburst.forecast import default_split, split_stream
from tagburst.hawkes import (FitResult, HawkesParams, _decay_state, _excitation, decay_sums,
                             fit_mle, fit_result_from_dict, fit_result_to_dict, log_likelihood,
                             log_likelihood_gradient, rescaled_residuals)
from tagburst.ingest import parse_events, write_events
from tagburst.simulate import make_synthetic_corpus, simulate_hawkes
from tagburst.taggraph import extract_clusters

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
    """mu + _excitation is the intensity the forecast starts from."""

    def test_worked_example(self):
        for lam in (P.mu + _excitation(P, np.array([1.0]), 1.5),
                    direct_intensity(P.mu, P.beta, P.omega, [1.0], 1.5)):
            assert lam == pytest.approx(0.8678794411714423, rel=1e-15)

    def test_empty_history_gives_mu(self):
        assert P.mu + _excitation(P, np.array([]), 3.0) == 0.5

    def test_event_at_t_counts_at_full_weight(self):
        assert P.mu + _excitation(P, np.array([1.0]), 1.0) == pytest.approx(1.5, rel=1e-15)

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
                A0, B0, C0 = loop_decay_state(t, omega)
                A, B, C = _decay_state(t, omega)
                assert A.tobytes() == A0.tobytes() and B.tobytes() == B0.tobytes()
                assert decay_sums(t, omega).tobytes() == A0.tobytes()
                # C's recursion sums positive terms, as A's does; the oracle's
                # C is the direct O(n^2) sum
                np.testing.assert_allclose(C, C0, rtol=1e-12, atol=1e-300)


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
        times = simulate_hawkes(HawkesParams(0.5, 0.8, 1.2), 400.0, 202)
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

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="event times must be >= 0"):
            rescaled_residuals(P, [-0.5, 1.0])


class TestFit:
    def test_requires_five_events(self):
        with pytest.raises(ValueError):
            fit_mle([1.0, 2.0, 3.0, 4.0], 5.0)

    def test_rejects_all_identical_times(self):
        with pytest.raises(ValueError):
            fit_mle([2.0] * 8, 5.0)

    def test_recovers_parameters_roughly(self):
        true = HawkesParams(0.5, 0.8, 1.2)
        times = simulate_hawkes(true, 2000.0, 99)
        fit = fit_mle(times, 2000.0)
        assert fit.converged
        assert fit.params["mu"] == pytest.approx(true.mu, rel=0.25)
        assert fit.params["beta"] == pytest.approx(true.beta, rel=0.25)
        assert fit.params["omega"] == pytest.approx(true.omega, rel=0.25)

    def test_fitted_likelihood_beats_truth(self):
        true = HawkesParams(1.0, 0.5, 1.5)
        times = simulate_hawkes(true, 300.0, 7)
        fit = fit_mle(times, 300.0)
        assert fit.log_likelihood >= log_likelihood(true, times, 300.0) - 1e-9

    def test_simplex_fallback_rescues_stalled_line_search(self):
        # L-BFGS-B alone stalls with beta near zero at loglik -130.64; the
        # Nelder-Mead restart reaches -129.470 (beta ~ 2.02, omega ~ 95.2)
        p = HawkesParams(mu=0.10520315032328138, beta=5.643884733962391,
                         omega=186.71655854338468)
        times = simulate_hawkes(p, 365.0, 3)
        assert times.size == 41
        assert fit_mle(times, 365.0).log_likelihood > -129.5

    def test_poisson_data_yields_small_branching_ratio(self):
        rng = np.random.default_rng(61)
        times = np.sort(rng.uniform(0.0, 500.0, size=600))
        fit = fit_mle(times, 500.0)
        assert fit.branching_ratio < 0.15

    def test_aic_identity(self):
        fr = FitResult("m", {"a": 1.0}, log_likelihood=-10.0,
                       n_params=3, converged=True, n_iterations=4)
        assert fr.aic == 2 * 3 - 2 * (-10.0)

    def test_fit_reports_metadata(self):
        times = simulate_hawkes(HawkesParams(0.4, 0.6, 1.0), 500.0, 5)
        fit = fit_mle(times, 500.0)
        assert fit.model == "hawkes"
        assert fit.n_params == 3
        assert fit.aic == pytest.approx(6 - 2 * fit.log_likelihood)
        assert 0.0 <= fit.branching_ratio < 1.0


def stalled_line_search_stream():
    """41 events on which L-BFGS-B stalls and Nelder-Mead takes over."""
    p = HawkesParams(mu=0.10520315032328138, beta=5.643884733962391,
                     omega=186.71655854338468)
    return simulate_hawkes(p, 365.0, 3)


def hawkes_stream(seed):
    """About 150 events of a subcritical process over 100 days."""
    return simulate_hawkes(HawkesParams(0.5, 0.8, 1.2), 100.0, seed)


INTERIOR_STALL_SEED = 9  # hawkes_stream(9): L-BFGS-B stopped short of GRAD_TOL inside the box


def beta_floor_stream():
    """40 uniform events over 50 days: the fit drives beta to BETA_FLOOR, an
    effectively Poisson fit, so the simplex runs."""
    return np.sort(np.random.default_rng(1).uniform(0.0, 50.0, size=40))


def simplex_fallback_streams():
    """Streams on which the Hawkes fit takes each of the maximizer's routes."""
    streams = [(stalled_line_search_stream(), 365.0), (beta_floor_stream(), 50.0)]
    return streams + [(hawkes_stream(seed), 100.0) for seed in range(10)]


def rising_stream(seed):
    """60 events over 60 days with density rising linearly from zero, so
    the drift fit's intercept can sit at its bound, 0."""
    return np.sort(60.0 * np.sqrt(np.random.default_rng(seed).uniform(size=60)))


def readme_hawkes_fits(tmp_path):
    """Run the README pipeline's stages up to forecast in-process: the fit
    stage's full-window Hawkes fits, then the 60-day training-window and
    pooled fits of --models hawkes,hawkes_global."""
    out, events = str(tmp_path), str(tmp_path / "events.jsonl")
    for argv in (["simulate", "--out", out, "--seed", "0", "--t-days", "120"],
                 ["cluster", "--input", events, "--out", out, "--eta", "2"],
                 ["fit", "--input", events, "--out", out],
                 ["forecast", "--input", events, "--out", out, "--train-days", "60",
                  "--models", "hawkes,hawkes_global"]):
        assert main(argv) == 0, argv


class TestObjective:
    """The maximize contract: fun(x) gives the negated (value, gradient, Hessian)."""

    @staticmethod
    def capture(monkeypatch, module, seen):
        real = _optim.maximize

        def spy(fun, x0, bounds=None, unidentified=None):
            seen.append((fun, np.asarray(x0), bounds, unidentified))
            return real(fun, x0, bounds=bounds, unidentified=unidentified)
        monkeypatch.setattr(module, "maximize", spy)

    @staticmethod
    def log_calls(monkeypatch, calls, methods):
        """Count the objective's calls, and record the method of each scipy
        minimize call."""
        real_maximize, real_minimize = _optim.maximize, _optim.minimize

        def counting_maximize(fun, x0, bounds=None, unidentified=None):
            def logged(x):
                calls[0] += 1
                return fun(x)
            return real_maximize(logged, x0, bounds=bounds, unidentified=unidentified)

        def spy_minimize(f, x0, **kwargs):
            methods.append(kwargs["method"])
            return real_minimize(f, x0, **kwargs)

        monkeypatch.setattr(hawkes, "maximize", counting_maximize)
        monkeypatch.setattr(_optim, "minimize", spy_minimize)

    def test_log_space_objective_is_the_chain_rule_bit_for_bit(self):
        rng = np.random.default_rng(71)
        times = random_times(rng, 300, 50.0)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0, size=3)
            value, grad, hess = hawkes._neg_ll_grad_hess(x, times, 50.0)
            ll, g, H = hawkes._loglik_and_grad(*np.exp(x), times, 50.0, hessian=True)
            assert value == -ll
            np.testing.assert_array_equal(grad, -g * np.exp(x))
            np.testing.assert_array_equal(
                hess, -(H * np.outer(np.exp(x), np.exp(x)) + np.diag(g * np.exp(x))))
            # the Hessian leaves the value and the gradient as they were
            ll_only, g_only = hawkes._loglik_and_grad(*np.exp(x), times, 50.0)
            assert ll_only == ll
            np.testing.assert_array_equal(g_only, g)

    def test_hessian_is_the_gradients_derivative(self):
        rng = np.random.default_rng(73)
        times = random_times(rng, 300, 50.0)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0, size=3)
            hess = hawkes._neg_ll_grad_hess(x, times, 50.0)[2]
            numeric = np.array([
                central_difference(lambda v, k=k: hawkes._neg_ll_grad_hess(v, times, 50.0)[1][k],
                                   x, 1e-6)
                for k in range(3)])
            np.testing.assert_allclose(hess, numeric, rtol=1e-6,
                                       atol=1e-6 * float(np.max(np.abs(hess))))

    def test_newton_finishes_interior_stall(self, monkeypatch):
        # L-BFGS-B stopped short of GRAD_TOL inside the box on this stream;
        # Newton on the analytic Hessian gets there with no scipy call and no
        # differenced gradients: one objective call to start, then one per
        # step tried
        calls, methods = [0], []
        self.log_calls(monkeypatch, calls, methods)
        fit = fit_mle(hawkes_stream(INTERIOR_STALL_SEED), 100.0)
        assert methods == []
        assert all(0.1 < fit.params[k] < 10.0 for k in ("mu", "beta", "omega"))
        assert fit.optimizer == "newton"
        assert fit.converged and fit.grad_max < _optim.GRAD_TOL
        assert fit.n_iterations + 1 <= calls[0] <= 2 * fit.n_iterations + 1

    def test_simplex_point_converged_only_where_stationary(self):
        # a kink at the optimum: Nelder-Mead finds it and reports success,
        # but the gradient there is not small, so the point is not certified
        def fun(x):
            u = x[0] - 0.7 * x[1] - 0.3
            f = abs(u) + (x[1] - 0.5) ** 2 + 0.1 * (x[0] - 0.2) ** 2
            g = np.array([np.sign(u) + 0.2 * (x[0] - 0.2),
                          -0.7 * np.sign(u) + 2.0 * (x[1] - 0.5)])
            return f, g, np.diag([0.2, 2.0])
        res = _optim.maximize(fun, [3.0, -2.0])
        assert res.route == "newton+simplex"
        assert res.grad_max == float(np.max(np.abs(fun(res.x)[1]))) > 0.01
        assert not res.converged
        assert simplex_fallback_maximize(lambda v: fun(v)[:2], [3.0, -2.0])[2]

    def test_never_worse_than_simplex_fallback(self, monkeypatch):
        seen = []
        self.capture(monkeypatch, hawkes, seen)
        for times, T in simplex_fallback_streams():
            fit_mle(times, T)
        routes = set()
        for fun, x0, bounds, unidentified in seen:
            new = _optim.maximize(fun, x0, bounds=bounds, unidentified=unidentified)
            old_value = simplex_fallback_maximize(lambda v: fun(v)[:2], x0, bounds=bounds)[1]
            assert new.value >= old_value - 1e-9
            grad_max = float(np.max(np.abs(fun(new.x)[1])))
            assert new.grad_max == grad_max
            assert new.converged == (grad_max < _optim.GRAD_TOL)
            routes.add(new.route)
        assert routes == {"newton", "newton+simplex"}

    def test_never_below_the_polish_fallback(self, monkeypatch, tmp_path):
        # the maximizer before the analytic Hessian (L-BFGS-B, a Newton
        # polish on a differenced Hessian, Nelder-Mead): no fit of the README
        # run or of the fallback streams ends lower, and none it converged
        # is left unconverged
        seen = []
        self.capture(monkeypatch, hawkes, seen)
        readme_hawkes_fits(tmp_path)
        assert len(seen) == 7  # 3 full windows, 3 training windows, 1 pooled
        for times, T in simplex_fallback_streams():
            fit_mle(times, T)
        for fun, x0, bounds, unidentified in seen:
            new = _optim.maximize(fun, x0, bounds=bounds, unidentified=unidentified)
            _, old_value, old_converged, *_ = polish_fallback_maximize(
                lambda v: fun(v)[:2], x0, bounds=bounds)
            assert new.value >= old_value - 1e-9
            assert new.converged or not old_converged


def readme_drift_windows(tmp_path):
    """The README run's drift training windows: the corpus of simulate
    --seed 0 --t-days 120, written and parsed as the CLI does, clustered at
    eta 2 and split with --train-days 60."""
    stream, _ = make_synthetic_corpus(T=120.0, seed=0)
    write_events(stream, tmp_path / "events.jsonl")
    stream = parse_events(tmp_path / "events.jsonl")
    spec = default_split(stream.horizon_T, 60.0)
    offset = spec.split_point - spec.train_days
    return [(split_stream(c.events.times, spec)[0] - offset, spec.train_days)
            for c in extract_clusters(stream, 2)]


class TestExactDrift:
    """fit_nhpp_drift's exact maximum against the log-space maximizer it replaced."""

    def test_never_below_simplex_fallback(self, tmp_path):
        rising = [(rising_stream(seed), 60.0) for seed in range(6)]
        windows = readme_drift_windows(tmp_path)
        assert len(windows) == 3
        for times, T in simplex_fallback_streams() + rising + windows:
            fit = fit_nhpp_drift(times, T)
            n, tau = times.size, times / T
            x0 = np.log([n / T, n / T])
            old_value = simplex_fallback_maximize(lambda v: drift_objective(v, tau, T), x0,
                                                  bounds=[(-60.0, 60.0)] * 2)[1]
            assert fit.log_likelihood >= old_value - 1e-9
            b = fit.params["b_intercept"]
            r = b + fit.params["mu_slope"] * T
            assert b >= 0.0 and r >= 0.0
            assert b + r == pytest.approx(2.0 * n / T, rel=1e-14)
            assert fit.converged and fit.optimizer is None and fit.grad_max is None
        for seed in (1, 2, 4):
            assert fit_nhpp_drift(*rising[seed]).params["b_intercept"] == 0.0


class TestFitRecord:
    def test_aic_follows_a_replaced_log_likelihood(self):
        fit = FitResult("m", {"a": 1.0}, -10.0, 3, True, 4)
        moved = replace(fit, log_likelihood=-12.5)
        assert moved.aic == 2.0 * 3 - 2.0 * -12.5
        assert replace(moved, n_params=5).aic == 2.0 * 5 - 2.0 * -12.5

    def test_round_trips_through_json(self):
        rng = np.random.default_rng(17)
        times = random_times(rng, 120, 40.0)
        counts = np.bincount(times.astype(int), minlength=40).astype(float)
        hawkes = fit_mle(times, 40.0)
        fits = [hawkes, replace(hawkes, warnings=("supercritical", "effectively_poisson")),
                fit_poisson(times, 40.0), fit_pc_nhpp(times, 40.0),
                fit_nhpp_drift(times, 40.0), fit_arima_lite(counts)]
        for fit in fits:
            record = json.loads(json.dumps(fit_result_to_dict(fit)))
            assert fit_result_from_dict(record) == fit
            optimized = fit.model == "hawkes"
            assert ("optimizer" in record) == ("grad_max" in record) == optimized
            if optimized:
                assert record["optimizer"] == fit.optimizer
                assert record["grad_max"] == fit.grad_max
