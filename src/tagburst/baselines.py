"""Reference models the self-exciting fit is benchmarked against.

All fits report log-likelihood, parameter count, and aic = 2k - 2*loglik so
models of different families are comparable on the same stream.
"""

from __future__ import annotations

import math
import sys
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from ._optim import MAX_ITER, lazy_minimize, maximize
from .hawkes import FitResult, _check_times

__all__ = [
    "fit_poisson",
    "fit_pc_nhpp",
    "fit_nhpp_drift",
    "fit_arima_lite",
    "forecast_arima",
]

_SIGMA2_FLOOR = 1e-12  # keeps the Gaussian loglik finite on zero-residual fits
_MA_CLAMP = 1.0 - 1e-6

# scipy.optimize.minimize, imported on first access (see _optim)
__getattr__ = lazy_minimize(__name__)
_module = sys.modules[__name__]


def fit_poisson(times: Sequence[float], T: float) -> FitResult:
    """Homogeneous Poisson MLE: mu = n/T, loglik = n (ln mu - 1), k = 1."""
    times = _check_times(times, T)
    n = times.size
    if n == 0:
        raise ValueError("Poisson MLE is undefined on an empty stream")
    mu = n / T
    ll = n * (math.log(mu) - 1.0)
    return FitResult("poisson", {"mu": mu}, ll, 1, True, 0)


def fit_pc_nhpp(times: Sequence[float], T: float, bin_width: float = 7.0) -> FitResult:
    """Per-bin MLE rate = count / width; the last bin is truncated at T.

    Empty bins contribute zero (the 0*ln 0 convention); each occupied bin
    contributes c*(ln r - 1), using r*width = c at the optimum.
    """
    times = _check_times(times, T)
    if not math.isfinite(bin_width) or bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    n_bins = max(1, int(math.ceil(T / bin_width - 1e-12)))
    edges = np.minimum(np.arange(n_bins + 1) * float(bin_width), T)
    edges[-1] = T
    counts, _ = np.histogram(times, edges)
    widths = np.diff(edges)
    rates = counts / widths
    occupied = counts > 0
    ll = float(np.sum(counts[occupied] * (np.log(rates[occupied]) - 1.0)))
    return FitResult(
        "pc_nhpp",
        {"bin_edges": [float(x) for x in edges], "rates": [float(r) for r in rates],
         "bin_width": float(bin_width)},
        ll, int(rates.size), True, 0)


def _drift_objective(x: np.ndarray, tau: np.ndarray,
                     T: float) -> tuple[float, np.ndarray]:
    """The drift fit objective: x holds the logs of the rate at 0 and at T,
    tau the event times over T; (-ll, -gradient wrt x)."""
    b, r = np.exp(x)
    lam = b + (r - b) * tau
    ll = float(np.sum(np.log(lam))) - 0.5 * T * (b + r)
    inv = 1.0 / lam
    d_b = float(np.sum((1.0 - tau) * inv)) - 0.5 * T
    d_r = float(np.sum(tau * inv)) - 0.5 * T
    return -ll, -np.array([d_b * b, d_r * r])


def fit_nhpp_drift(times: Sequence[float], T: float) -> FitResult:
    """MLE of the linear rate, parameterized by its (positive) endpoint values.

    Writing lam(t) = b + (r - b) t/T with b = lam(0) and r = lam(T), positivity
    on the whole window is structural and both endpoints can move in log space
    with analytic gradients, the same ascent contract as the Hawkes fit.
    """
    times = _check_times(times, T)
    n = times.size
    if n < 2:
        raise ValueError(f"drift fit needs at least 2 events, got {n}")
    tau = times / T
    x0 = np.log([n / T, n / T])
    res = maximize(lambda v: _drift_objective(v, tau, T), x0,
                   bounds=[(-60.0, 60.0), (-60.0, 60.0)])
    b, r = np.exp(res.x)
    slope = (r - b) / T
    return FitResult(
        "nhpp_drift", {"mu_slope": float(slope), "b_intercept": float(b)},
        res.value, 2, res.converged, res.n_iter, optimizer=res.route, grad_max=res.grad_max)


def _css_residuals(y: Sequence[float], p: int, q: int, c: float,
                   phi: Sequence[float], theta: Sequence[float]) -> np.ndarray:
    """Residuals conditional on the first p observations, pre-sample
    innovations fixed at zero.

    The AR prediction c + phi_1 y[t-1] + ... + phi_p y[t-p] is summed
    left to right over whole arrays; the MA recursion (q <= 2) then runs
    over Python floats, adding theta_1 eps[t-1] and then theta_2 eps[t-2],
    and leaves out a lag that reaches before y[0].
    """
    if q > 2:
        raise ValueError(f"MA order must be <= 2, got {q}")
    ya = np.asarray(y, dtype=float)
    n = ya.size
    pred = np.full(n - p, c, dtype=float)
    for i in range(p):
        pred += phi[i] * ya[p - 1 - i:n - 1 - i]
    if q == 0:
        return ya[p:] - pred
    ys, accs = ya[p:].tolist(), pred.tolist()
    t0 = float(theta[0])
    e1 = e2 = 0.0  # eps[t-1], eps[t-2]; zero before the first residual
    eps = []
    # at t < q an MA lag reaches before y[0]: that term is left out, not
    # added as theta * 0.0 (which is nan for an infinite theta)
    lead = min(max(q - p, 0), n - p)
    for t in range(lead):
        acc = accs[t] + t0 * e1 if p + t else accs[t]
        e1, e2 = ys[t] - acc, e1
        eps.append(e1)
    if q == 1:
        for yt, acc in zip(ys[lead:], accs[lead:]):
            e1 = yt - (acc + t0 * e1)
            eps.append(e1)
    else:
        t1 = float(theta[1])
        for yt, acc in zip(ys[lead:], accs[lead:]):
            e1, e2 = yt - (acc + t0 * e1 + t1 * e2), e1
            eps.append(e1)
    return np.asarray(eps, dtype=float)


def _css_fit_one(y: np.ndarray, p: int, q: int) -> tuple[np.ndarray, bool, int]:
    """Minimize the conditional sum of squares with the derivative-free simplex."""
    c0 = float(np.mean(y[p:])) if y.size > p else 0.0
    phi0 = np.zeros(p)
    if p > 0 and y.size > 2 * p:
        design = np.column_stack([np.ones(y.size - p)] +
                                 [y[p - 1 - i:y.size - 1 - i] for i in range(p)])
        coef, *_ = np.linalg.lstsq(design, y[p:], rcond=None)
        c0, phi0 = float(coef[0]), coef[1:]
    x0 = np.concatenate([[c0], phi0, np.zeros(q)])

    def ssr(vec: np.ndarray) -> float:
        eps = _css_residuals(y, p, q, vec[0], vec[1:1 + p], vec[1 + p:])
        return float(np.dot(eps, eps))

    if x0.size == 1 and q == 0:
        # intercept-only model: the mean minimizes the SSR in closed form
        return np.asarray([float(np.mean(y))]), True, 0
    res = _module.minimize(ssr, x0, method="Nelder-Mead",
                           options={"maxiter": MAX_ITER * x0.size, "xatol": 1e-8, "fatol": 1e-10})
    return np.asarray(res.x), bool(res.success), int(res.nit)


def fit_arima_lite(counts: Sequence[float], max_p: int = 2, max_d: int = 1,
                   max_q: int = 2) -> FitResult:
    """Grid-search ARIMA(p, d, q) with p <= max_p, d <= max_d, q <= max_q <= 2.

    Each candidate is fit by conditional least squares; the Gaussian
    log-likelihood comes from the residual variance; k = p + q + 2 counts the
    intercept and the variance.  Lowest aic wins, ties broken by
    lexicographically smallest (p, d, q).  MA estimates outside the open unit
    interval are clamped and flagged.
    """
    if min(max_p, max_d, max_q) < 0 or max_q > 2:
        raise ValueError("grid bounds must satisfy max_p, max_d >= 0 and 0 <= max_q <= 2, "
                         f"got max_p={max_p}, max_d={max_d}, max_q={max_q}")
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size < 20:
        raise ValueError(f"need a daily count series of length >= 20, got {counts.size}")

    best: tuple[float, int, int, int] | None = None
    best_fit = None
    diffed = {d: np.diff(counts, n=d) if d else counts for d in range(max_d + 1)}
    for p, d, q in product(range(max_p + 1), range(max_d + 1), range(max_q + 1)):
        y = diffed[d]
        vec, ok, n_iter = _css_fit_one(y, p, q)
        c, phi, theta = float(vec[0]), vec[1:1 + p], vec[1 + p:]
        clamped = bool(np.any(np.abs(theta) >= 1.0))
        if clamped:
            theta = np.clip(theta, -_MA_CLAMP, _MA_CLAMP)
        eps = _css_residuals(y, p, q, c, phi, theta)
        n_eff = eps.size
        sigma2 = max(float(np.dot(eps, eps)) / n_eff, _SIGMA2_FLOOR)
        ll = -0.5 * n_eff * (math.log(2.0 * math.pi * sigma2) + 1.0)
        fit = FitResult(
            "arima_lite",
            {"p": p, "d": d, "q": q, "ar": [float(v) for v in phi],
             "ma": [float(v) for v in theta], "intercept": c, "sigma2": sigma2},
            ll, p + q + 2, ok, n_iter, warnings=("ma_clamped",) if clamped else ())
        key = (fit.aic, p, d, q)
        if best is None or key < best:
            best, best_fit = key, fit
    return best_fit


def forecast_arima(params: Mapping[str, object], counts: Sequence[float],
                   horizon: int) -> np.ndarray:
    """Iterated h-step forecast from an arima_lite fit's params (p, d, q, ar,
    ma, intercept) with future innovations at zero, undoing the
    differencing; returns one level per future day."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p, d, q = params["p"], params["d"], params["q"]
    ar, ma, intercept = params["ar"], params["ma"], params["intercept"]
    counts = np.asarray(counts, dtype=float)
    y = np.diff(counts, n=d) if d else counts
    if y.size < p:
        raise ValueError(f"ARIMA({p}, {d}, {q}) forecast needs at least "
                         f"{p + d} observed counts, got {counts.size}")
    eps_obs = _css_residuals(y, p, q, intercept, ar, ma)
    ys = y.tolist()
    eps = [0.0] * p + eps_obs.tolist()
    preds = []
    for _ in range(horizon):
        t = len(ys)
        acc = intercept
        for i in range(p):
            acc += ar[i] * ys[t - 1 - i]
        for j in range(q):
            k = t - 1 - j
            if k >= 0:
                acc += ma[j] * eps[k]
        ys.append(acc)
        eps.append(0.0)
        preds.append(acc)
    if d:
        return counts[-1] + np.cumsum(preds)
    return np.asarray(preds)
