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
from .hawkes import FitResult, _check_positive, _check_times

__all__ = [
    "fit_poisson",
    "fit_pc_nhpp",
    "fit_nhpp_drift",
    "fit_arima_lite",
    "forecast_arima",
]

_SIGMA2_FLOOR = 1e-12  # keeps the Gaussian loglik finite on zero-residual fits
_PACF_BOUND = 18.0  # |u| bound: tanh(18) = 1 - 2**-51, while tanh(19) rounds to 1
# Fixed MA starts in u besides theta = 0: the CSS surface is multimodal, and
# these reach the basins that theta = 0 misses on bursty daily counts
_MA_STARTS = {1: ((0.0,), (3.0,)), 2: ((0.0, 0.0), (1.5, 0.0))}
_HR_LONG_AR = 6  # order of the Hannan-Rissanen long autoregression
_CSS_FTOL = 1e-12  # L-BFGS-B's relative SSR reduction at which a run stops

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
    _check_positive("bin_width", bin_width)
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
    with theta_2 = 0 when q = 1.
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
    t0, t1 = float(theta[0]), float(theta[1]) if q == 2 else 0.0
    e1 = e2 = 0.0  # eps[t-1], eps[t-2]; zero before the first residual
    eps = []
    for yt, acc in zip(ya[p:].tolist(), pred.tolist()):
        e1, e2 = yt - (acc + t0 * e1 + t1 * e2), e1
        eps.append(e1)
    return np.asarray(eps, dtype=float)


def _ma_from_pacf(u: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """MA coefficients from partial autocorrelations r = tanh(u) by the
    Durbin-Levinson map, and their Jacobian d theta / d u.

    theta = (r_1,) for q = 1 and (r_1 (1 + r_2), r_2) for q = 2.  Every r in
    the open interval (-1, 1) puts the roots of 1 + theta_1 z + theta_2 z^2
    outside the unit circle, so invertibility is structural; u is clipped to
    +-_PACF_BOUND, where tanh still rounds below 1.
    """
    r = [math.tanh(min(max(v, -_PACF_BOUND), _PACF_BOUND)) for v in u]
    if len(r) == 1:
        return np.array(r), np.array([[1.0 - r[0] * r[0]]])
    r1, r2 = r
    d1, d2 = 1.0 - r1 * r1, 1.0 - r2 * r2
    return (np.array([r1 * (1.0 + r2), r2]),
            np.array([[d1 * (1.0 + r2), r1 * d2], [0.0, d2]]))


def _css_objective(x: np.ndarray, y: np.ndarray, p: int, q: int,
                   design: np.ndarray) -> tuple[float, np.ndarray]:
    """SSR of the CSS residuals at x = (c, phi, u) and its gradient.

    The residuals are eps = H a, with a = y[p:] - design @ (c, phi) and H the
    causal filter 1 / (1 + theta_1 B + theta_2 B^2) from zero pre-sample
    values.  Its derivatives pass through the same filter:
    d eps / d(c, phi) = -H design and d eps / d theta_j = -H (eps lagged j).
    So one backward pass, w = H^T eps, serves every parameter: the gradient
    is -2 (w @ design, w . eps lagged j).
    """
    theta, jac = _ma_from_pacf(x[1 + p:])
    t1, t2 = float(theta[0]), float(theta[1]) if q == 2 else 0.0
    eps = _css_residuals(y, p, q, x[0], x[1:1 + p], theta)
    w = []
    w1 = w2 = 0.0
    for e in reversed(eps.tolist()):
        w1, w2 = e - t1 * w1 - t2 * w2, w1
        w.append(w1)
    w = np.array(w[::-1])
    g_theta = [float(w[j:] @ eps[:-j]) for j in range(1, q + 1)]
    return float(eps @ eps), -2.0 * np.concatenate([w @ design, np.dot(g_theta, jac)])


def _lagged(v: np.ndarray, start: int, k: int) -> list[np.ndarray]:
    """Lags 1..k of v aligned with v[start:]."""
    return [v[start - 1 - i:v.size - 1 - i] for i in range(k)]


def _hannan_rissanen(y: np.ndarray, p: int) -> np.ndarray:
    """(c, phi, u) of an ARMA(p, 2) start by Hannan & Rissanen (1982): regress
    y on its own lags and on the lagged residuals of a long autoregression,
    then invert the PACF map with |r| <= 0.99."""
    n = y.size
    k = min(_HR_LONG_AR, n // 4)
    long_ar = np.column_stack([np.ones(n - k)] + _lagged(y, k, k))
    coef, *_ = np.linalg.lstsq(long_ar, y[k:], rcond=None)
    e = np.zeros(n)
    e[k:] = y[k:] - long_ar @ coef
    s = max(p, 2)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(n - s)] + _lagged(y, s, p) +
                                               _lagged(e, s, 2)), y[s:], rcond=None)
    r2 = np.clip(coef[-1], -0.99, 0.99)
    r1 = np.clip(coef[-2] / (1.0 + r2), -0.99, 0.99)
    return np.concatenate([coef[:1 + p], np.arctanh([r1, r2])])


def _css_fit_one(y: np.ndarray, p: int, q: int) -> tuple[np.ndarray, bool, int]:
    """Minimize the conditional sum of squares of one ARIMA(p, ., q) cell:
    (c, phi, theta), converged, iterations.

    Without MA terms the least-squares regression on the lags is the exact
    minimizer.  With them, L-BFGS-B minimizes the SSR over (c, phi, u) with
    its analytic gradient from several starts, and keeps the lowest SSR (the
    first start on a tie): the regression's (c, phi) with each u in
    _MA_STARTS[q], and for q = 2 also the Hannan-Rissanen estimate.
    theta = _ma_from_pacf(u) is invertible by construction.  converged means
    that a run which stopped on its own tolerance (relative SSR reduction or
    projected gradient; not its iteration cap or a failed line search)
    reached the kept SSR to within that relative tolerance, _CSS_FTOL; the
    iterations are the kept run's.
    """
    m = y.size - p
    design = np.column_stack([np.ones(m)] + _lagged(y, p, p))
    coef, *_ = np.linalg.lstsq(design, y[p:], rcond=None)
    if q == 0:
        return coef, True, 0
    starts = [np.concatenate([coef, u]) for u in _MA_STARTS[q]]
    if q == 2:
        starts.append(_hannan_rissanen(y, p))
    bounds = [(None, None)] * (1 + p) + [(-_PACF_BOUND, _PACF_BOUND)] * q
    runs = [_module.minimize(_css_objective, x0, args=(y, p, q, design), jac=True,
                             method="L-BFGS-B", bounds=bounds,
                             options={"maxiter": MAX_ITER, "ftol": _CSS_FTOL})
            for x0 in starts]
    best = min(runs, key=lambda r: r.fun)
    reached = best.fun + _CSS_FTOL * max(abs(best.fun), 1.0)
    converged = any(r.success and r.fun <= reached for r in runs)
    theta, _ = _ma_from_pacf(best.x[1 + p:])
    return np.concatenate([best.x[:1 + p], theta]), converged, int(best.nit)


def fit_arima_lite(counts: Sequence[float], max_p: int = 2, max_d: int = 1,
                   max_q: int = 2) -> FitResult:
    """Grid-search ARIMA(p, d, q) with p <= max_p, d <= max_d, q <= max_q <= 2.

    Each candidate is fit by conditional least squares (_css_fit_one, so the
    MA polynomial is invertible by construction); the Gaussian
    log-likelihood comes from the residual variance; k = p + q + 2 counts the
    intercept and the variance.  Lowest aic wins, ties broken by
    lexicographically smallest (p, d, q).  The fit's converged and iteration
    count are the winning cell's: always converged without MA terms, and with
    them when an L-BFGS-B run stopped on its own tolerance at the kept SSR.
    Nothing is clamped after the fit.
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
        eps = _css_residuals(y, p, q, c, phi, theta)
        n_eff = eps.size
        sigma2 = max(float(np.dot(eps, eps)) / n_eff, _SIGMA2_FLOOR)
        ll = -0.5 * n_eff * (math.log(2.0 * math.pi * sigma2) + 1.0)
        fit = FitResult(
            "arima_lite",
            {"p": p, "d": d, "q": q, "ar": [float(v) for v in phi],
             "ma": [float(v) for v in theta], "intercept": c, "sigma2": sigma2},
            ll, p + q + 2, ok, n_iter)
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
    ys = y.tolist()
    e2, e1 = ([0.0, 0.0] + _css_residuals(y, p, q, intercept, ar, ma).tolist())[-2:]
    t0, t1 = [float(v) for v in ma] + [0.0] * (2 - q)
    for _ in range(horizon):
        acc = intercept
        for i in range(p):
            acc += ar[i] * ys[-1 - i]
        ys.append(acc + t0 * e1 + t1 * e2)
        e1, e2 = 0.0, e1
    preds = ys[y.size:]
    if d:
        return counts[-1] + np.cumsum(preds)
    return np.asarray(preds)
