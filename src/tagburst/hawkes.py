"""Univariate self-exciting point process with exponential decay.

The conditional intensity is

    lam(t) = mu + beta * sum_{t_i < t} exp(-omega * (t - t_i))

with baseline rate mu, excitation jump beta, and decay rate omega, all per
day.  Each event raises the intensity by beta and the boost fades at rate
omega, so one event spawns beta/omega expected offspring (the branching
ratio); beta/omega >= 1 means the cascade is explosive.

The log-likelihood over [0, T] is computed in O(n) via the standard decay
recursion A_i = exp(-omega * (t_i - t_{i-1})) * (A_{i-1} + 1):

    ll = sum_i ln(mu + beta * A_i) - mu*T - (beta/omega) * sum_i (1 - exp(-omega*(T - t_i)))

Simultaneous timestamps are treated as ordered: the earlier-indexed event
excites the later one at full weight, never the reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._optim import maximize

__all__ = [
    "HawkesParams",
    "FitResult",
    "fit_result_to_dict",
    "fit_result_from_dict",
    "log_likelihood",
    "log_likelihood_gradient",
    "fit_mle",
    "rescaled_residuals",
]

BETA_FLOOR = 1e-12  # fitted beta is floored here instead of touching zero
_POISSON_BETA_RATIO = 1e-6  # beta below this fraction of mu is effectively Poisson


@dataclass(frozen=True)
class HawkesParams:
    mu: float
    beta: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")

    @property
    def branching_ratio(self) -> float:
        return self.beta / self.omega


@dataclass(frozen=True)
class FitResult:
    """Fitted model summary; its aic and branching_ratio are derived from its
    other fields."""

    model: str
    params: dict
    log_likelihood: float
    n_params: int
    converged: bool
    n_iterations: int
    warnings: tuple[str, ...] = ()
    optimizer: str | None = None  # the _optim.maximize route, for fits that take one
    grad_max: float | None = None  # gradient sup-norm at the returned point

    @property
    def aic(self) -> float:
        return 2.0 * self.n_params - 2.0 * self.log_likelihood

    @property
    def branching_ratio(self) -> float | None:
        """beta/omega of a Hawkes fit's params; None for any other model."""
        return _params_from_fit(self).branching_ratio if self.model == "hawkes" else None


def fit_result_to_dict(fit: FitResult) -> dict:
    """Flatten a FitResult for JSON export."""
    out: dict = {"model": fit.model}
    out.update(fit.params)
    out["loglik"] = fit.log_likelihood
    out["aic"] = fit.aic
    out["n_params"] = fit.n_params
    out["converged"] = fit.converged
    out["n_iter"] = fit.n_iterations
    if fit.optimizer is not None:
        out["optimizer"] = fit.optimizer
        out["grad_max"] = fit.grad_max
    if fit.branching_ratio is not None:
        out["branching_ratio"] = fit.branching_ratio
    if fit.warnings:
        out["warnings"] = list(fit.warnings)
    return out


def fit_result_from_dict(d: Mapping[str, object]) -> FitResult:
    """Inverse of fit_result_to_dict: every key it does not reserve is a parameter."""
    reserved = ("model", "loglik", "aic", "n_params", "converged", "n_iter",
                "optimizer", "grad_max", "branching_ratio", "warnings")
    return FitResult(
        d["model"], {k: v for k, v in d.items() if k not in reserved}, float(d["loglik"]),
        int(d["n_params"]), bool(d["converged"]), int(d["n_iter"]),
        warnings=tuple(d.get("warnings", ())), optimizer=d.get("optimizer"),
        grad_max=d.get("grad_max"))


def _params_from_fit(fit: FitResult) -> HawkesParams:
    try:
        return HawkesParams(mu=float(fit.params["mu"]), beta=float(fit.params["beta"]),
                            omega=float(fit.params["omega"]))
    except KeyError as exc:
        raise ValueError(f"fit for model {fit.model!r} lacks parameter {exc}") from None


def _check_positive(name: str, value: float) -> None:
    """Raise unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive, got {value}")


def _check_times(times: Sequence[float], T: float | None = None) -> np.ndarray:
    """Event times as a finite, ascending 1-D array; given T, also inside [0, T]."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("event times must be one-dimensional")
    if T is not None:
        _check_positive("observation window T", T)
    if times.size:
        if not np.all(np.isfinite(times)):
            raise ValueError("event times must be finite")
        if np.any(np.diff(times) < 0):
            raise ValueError("event times must be sorted ascending")
        if T is not None and (times[0] < 0 or times[-1] > T):
            raise ValueError(f"event times must lie within [0, {T}]")
    return times


def _decay_state(times: np.ndarray, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """decay_sums A_i and B_i = sum_{j<i} (t_i-t_j) exp(-omega (t_i-t_j)) = -dA_i/domega."""
    n = times.size
    A = np.zeros(n)
    B = np.zeros(n)
    ts = times.tolist()
    exp = math.exp
    av, bv = memoryview(A), memoryview(B)  # float stores without numpy's __setitem__
    a = b = 0.0
    prev = ts[0] if n else 0.0
    for i in range(1, n):
        t = ts[i]
        d = t - prev
        prev = t
        r = exp(-omega * d)
        b = r * (b + d * (a + 1.0))  # uses the previous a
        a = r * (a + 1.0)
        av[i] = a
        bv[i] = b
    return A, B


def decay_sums(times: np.ndarray, omega: float) -> np.ndarray:
    """A_i = sum_{j<i} exp(-omega (t_i - t_j)) via the O(n) recursion."""
    return _decay_state(times, omega)[0]


def _excitation(p: HawkesParams, history: np.ndarray, t: float) -> float:
    """beta * sum_i exp(-omega (t - t_i)): the self-excited part of lam(t) given the history."""
    return p.beta * float(np.sum(np.exp(-p.omega * (t - history))))


def _loglik_and_grad(mu: float, beta: float, omega: float, times: np.ndarray,
                     T: float) -> tuple[float, np.ndarray]:
    """Log-likelihood over [0, T] and its gradient wrt (mu, beta, omega)."""
    A, B = _decay_state(times, omega)
    lam = mu + beta * A
    tail = T - times
    s0 = float(np.sum(-np.expm1(-omega * tail)))
    ll = float(np.sum(np.log(lam))) - mu * T - (beta / omega) * s0
    inv = 1.0 / lam
    expd = np.exp(-omega * tail)
    s1 = float(np.sum(tail * expd))
    d_mu = float(np.sum(inv)) - T
    d_beta = float(np.sum(A * inv)) - s0 / omega
    # numpy's power gives inf or 0 where a float's raises, so no finite omega
    # makes the value fail for the sake of its gradient
    d_omega = -beta * float(np.sum(B * inv)) + beta * s0 / np.float64(omega) ** 2 \
        - (beta / omega) * s1
    return ll, np.array([d_mu, d_beta, d_omega])


def log_likelihood(p: HawkesParams, times: Sequence[float], T: float) -> float:
    """Exact log-likelihood of the event times over [0, T] in O(n): the
    value fit_mle maximizes."""
    times = _check_times(times, T)
    return _loglik_and_grad(p.mu, p.beta, p.omega, times, T)[0]


def log_likelihood_gradient(p: HawkesParams, times: Sequence[float], T: float) -> np.ndarray:
    """Analytic gradient of the log-likelihood wrt (mu, beta, omega)."""
    times = _check_times(times, T)
    return _loglik_and_grad(p.mu, p.beta, p.omega, times, T)[1]


def _neg_ll_and_grad(x: np.ndarray, times: np.ndarray,
                     T: float) -> tuple[float, np.ndarray]:
    """The fit objective in log space: (-ll, -gradient)."""
    theta = np.exp(x)
    # Python floats, not numpy scalars, keep _decay_state's loop fast
    ll, g = _loglik_and_grad(*theta.tolist(), times, T)
    # chain rule onto log-parameters
    return -ll, -g * theta


def fit_mle(times: Sequence[float], T: float) -> FitResult:
    """Maximum-likelihood fit of (mu, beta, omega) on event times in [0, T].

    Ascends in log space with analytic gradients (see _optim for the Newton
    polish and the simplex fallback).  Needs at least 5 events and a
    positive time span.
    """
    times = _check_times(times, T)
    n = times.size
    if n < 5:
        raise ValueError(f"fit is underdetermined with {n} events (need at least 5)")
    if times[-1] == times[0]:
        raise ValueError("degenerate stream: all event times identical")

    mean_gap = (times[-1] - times[0]) / (n - 1)
    omega0 = 1.0 / mean_gap
    x0 = np.log([0.5 * n / T, max(0.5 * omega0, BETA_FLOOR), omega0])
    bounds = [(-60.0, 60.0), (math.log(BETA_FLOOR), 60.0), (-60.0, 60.0)]

    res = maximize(lambda v: _neg_ll_and_grad(v, times, T), x0, bounds=bounds)
    mu, beta, omega = np.exp(res.x)
    params = HawkesParams(mu=float(mu), beta=float(beta), omega=float(omega))

    warnings = []
    if params.branching_ratio >= 1.0:
        warnings.append("supercritical")
    if params.beta < _POISSON_BETA_RATIO * params.mu:
        warnings.append("effectively_poisson")
    return FitResult(
        "hawkes", {"mu": params.mu, "beta": params.beta, "omega": params.omega},
        res.value, 3, res.converged, res.n_iter, warnings=tuple(warnings),
        optimizer=res.route, grad_max=res.grad_max)


def rescaled_residuals(p: HawkesParams, times: Sequence[float]) -> np.ndarray:
    """Inter-event compensator increments Lambda(t_i) - Lambda(t_{i-1}).

    Under the true model these are i.i.d. unit-exponential (time-rescaling),
    which is the basis of the goodness-of-fit check.
    """
    times = _check_times(times)
    if times.size == 0:
        raise ValueError("residuals need at least one event")
    if times[0] < 0:
        raise ValueError("event times must be >= 0")
    A = decay_sums(times, p.omega)
    gaps = np.diff(np.concatenate([[0.0], times]))
    # sum of decay factors at the previous event, counting that event itself
    carry = np.concatenate([[0.0], A[:-1] + 1.0])
    return p.mu * gaps + (p.beta / p.omega) * -np.expm1(-p.omega * gaps) * carry
