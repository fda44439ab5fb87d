"""Univariate self-exciting point process with exponential decay.

The conditional intensity is

    lam(t) = mu + beta * sum_{t_i < t} exp(-omega * (t - t_i))

with baseline rate mu, excitation beta, and decay rate omega, all per
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
        _check_positive("mu", self.mu)
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")
        _check_positive("omega", self.omega)

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
    """Inverse of fit_result_to_dict: every key it does not reserve is a parameter.
    Raises TypeError when a field has not the JSON type fit_result_to_dict
    writes: loglik a number, n_params and n_iter integers, converged a
    boolean, warnings a list of strings, and each parameter a number or a
    list of numbers."""
    reserved = ("model", "loglik", "aic", "n_params", "converged", "n_iter",
                "optimizer", "grad_max", "branching_ratio", "warnings")
    params = {k: v for k, v in d.items() if k not in reserved}
    for key, value in params.items():
        if not (_is_json(value, float) or
                type(value) is list and all(_is_json(v, float) for v in value)):
            raise TypeError(f"parameter {key!r} is not a JSON number or list of numbers: "
                            f"{value!r}")
    warnings = d.get("warnings", [])
    if type(warnings) is not list or not all(_is_json(w, str) for w in warnings):
        raise TypeError(f"'warnings' is not a JSON list of strings: {warnings!r}")
    return FitResult(
        d["model"], params, float(_json_typed(d, "loglik", float)),
        _json_typed(d, "n_params", int), _json_typed(d, "converged", bool),
        _json_typed(d, "n_iter", int), warnings=tuple(warnings),
        optimizer=d.get("optimizer"), grad_max=d.get("grad_max"))


_JSON_NAMES = {bool: "boolean", int: "integer", float: "number"}


def _is_json(value: object, kind: type) -> bool:
    """Whether value has exactly the Python type json.loads gives a JSON
    value of kind: float takes any number, int only an integer, and a JSON
    true is neither."""
    return type(value) is kind or (kind is float and type(value) is int)


def _json_typed(d: Mapping[str, object], key: str, kind: type[bool] | type[int] | type[float]):
    """d[key], refused with TypeError unless _is_json(d[key], kind)."""
    value = d[key]
    if not _is_json(value, kind):
        raise TypeError(f"{key!r} is not a JSON {_JSON_NAMES[kind]}: {value!r}")
    return value


def _params_from_fit(fit: FitResult) -> HawkesParams:
    try:
        return HawkesParams(mu=float(fit.params["mu"]), beta=float(fit.params["beta"]),
                            omega=float(fit.params["omega"]))
    except KeyError as exc:
        raise ValueError(f"fit for model {fit.model!r} lacks parameter {exc}") from None


def _check_positive(name: str, value: float) -> None:
    """Raise unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


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


def _decay_state(times: np.ndarray,
                 omega: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decay_sums A_i, B_i = sum_{j<i} (t_i-t_j) exp(-omega (t_i-t_j)) = -dA_i/domega,
    and C_i = sum_{j<i} (t_i-t_j)^2 exp(-omega (t_i-t_j)) = -dB_i/domega."""
    n = times.size
    A = np.zeros(n)
    B = np.zeros(n)
    C = np.zeros(n)
    ts = times.tolist()
    exp = math.exp
    # float stores without numpy's __setitem__
    av, bv, cv = memoryview(A), memoryview(B), memoryview(C)
    a = b = c = 0.0
    prev = ts[0] if n else 0.0
    for i in range(1, n):
        t = ts[i]
        d = t - prev
        prev = t
        r = exp(-omega * d)
        a1 = a + 1.0
        da1 = d * a1
        c = r * (c + d * (2.0 * b + da1))  # uses the previous a and b
        b = r * (b + da1)  # uses the previous a
        a = r * a1
        av[i] = a
        bv[i] = b
        cv[i] = c
    return A, B, C


def decay_sums(times: np.ndarray, omega: float) -> np.ndarray:
    """A_i = sum_{j<i} exp(-omega (t_i - t_j)) via the O(n) recursion."""
    return _decay_state(times, omega)[0]


def _excitation(p: HawkesParams, history: np.ndarray, t: float) -> float:
    """beta * sum_i exp(-omega (t - t_i)): the self-excited part of lam(t) given the history."""
    return p.beta * float(np.sum(np.exp(-p.omega * (t - history))))


def _loglik_and_grad(mu: float, beta: float, omega: float, times: np.ndarray,
                     T: float, hessian: bool = False):
    """Log-likelihood over [0, T] and its gradient wrt (mu, beta, omega); with
    hessian, also its Hessian."""
    A, B, C = _decay_state(times, omega)
    lam = mu + beta * A
    tail = T - times
    s0 = float(np.sum(-np.expm1(-omega * tail)))
    ll = float(np.sum(np.log(lam))) - mu * T - (beta / omega) * s0
    inv = 1.0 / lam
    expd = np.exp(-omega * tail)
    s1 = float(np.sum(tail * expd))
    b_inv = B * inv
    sum_b_inv = float(np.sum(b_inv))
    d_mu = float(np.sum(inv)) - T
    d_beta = float(np.sum(A * inv)) - s0 / omega
    # numpy's power gives inf or 0 where a float's raises, so no finite omega
    # makes the value fail for the sake of its gradient
    d_omega = -beta * sum_b_inv + beta * s0 / np.float64(omega) ** 2 - (beta / omega) * s1
    grad = np.array([d_mu, d_beta, d_omega])
    if not hessian:
        return ll, grad
    # s0 and s1 differentiate to s1 and -s2 in omega, A and B to -B and -C;
    # one product gives the sums over events of u_k u_l, u = (1, A, B) / lam
    u = np.array([inv, A * inv, b_inv])
    m = u @ u.T
    s2 = float(tail @ (tail * expd))
    h_bo = -sum_b_inv + beta * m[1, 2] - s1 / omega + s0 / omega ** 2
    h_oo = (beta * float(C @ inv) - beta * beta * m[2, 2]
            + beta * (s2 / omega + 2.0 * s1 / omega ** 2 - 2.0 * s0 / omega ** 3))
    hess = np.array([[-m[0, 0], -m[0, 1], beta * m[0, 2]],
                     [-m[0, 1], -m[1, 1], h_bo],
                     [beta * m[0, 2], h_bo, h_oo]])
    return ll, grad, hess


def log_likelihood(p: HawkesParams, times: Sequence[float], T: float) -> float:
    """Exact log-likelihood of the event times over [0, T] in O(n): the
    value fit_mle maximizes."""
    times = _check_times(times, T)
    return _loglik_and_grad(p.mu, p.beta, p.omega, times, T)[0]


def log_likelihood_gradient(p: HawkesParams, times: Sequence[float], T: float) -> np.ndarray:
    """Analytic gradient of the log-likelihood wrt (mu, beta, omega)."""
    times = _check_times(times, T)
    return _loglik_and_grad(p.mu, p.beta, p.omega, times, T)[1]


def _neg_ll_grad_hess(x: np.ndarray, times: np.ndarray,
                      T: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The fit objective in log space: (-ll, -gradient, -Hessian)."""
    theta = np.exp(x)
    # Python floats, not numpy scalars, keep _decay_state's loop fast
    ll, g, H = _loglik_and_grad(*theta.tolist(), times, T, hessian=True)
    # chain rule onto log-parameters
    return -ll, -g * theta, -(H * np.outer(theta, theta) + np.diag(g * theta))


def _effectively_poisson(mu: float, beta: float) -> bool:
    return beta < _POISSON_BETA_RATIO * mu


def fit_mle(times: Sequence[float], T: float) -> FitResult:
    """Maximum-likelihood fit of (mu, beta, omega) on event times in [0, T].

    Ascends in log space by Newton on the analytic Hessian; a fit that comes
    out effectively Poisson leaves omega unidentified, so the simplex searches
    from there too (see _optim).  Needs at least 5 events and a positive
    time span.
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

    res = maximize(lambda v: _neg_ll_grad_hess(v, times, T), x0, bounds=bounds,
                   unidentified=lambda v: _effectively_poisson(*np.exp(v[:2]).tolist()))
    mu, beta, omega = np.exp(res.x)
    params = HawkesParams(mu=float(mu), beta=float(beta), omega=float(omega))

    warnings = []
    if params.branching_ratio >= 1.0:
        warnings.append("supercritical")
    if _effectively_poisson(params.mu, params.beta):
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
