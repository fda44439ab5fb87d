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

from ._optim import MAX_ITER, lazy_minimize
from .hawkes import FitResult, _check_times

__all__ = [
    "fit_poisson",
    "fit_pc_nhpp",
    "fit_nhpp_drift",
    "fit_arima_lite",
    "forecast_arima",
]

_MAX_P = 2  # AR order bound; every ARMA cell conditions on this many counts
_SIGMA2_FLOOR = 1e-12  # keeps the Gaussian loglik finite on zero-residual fits
_PACF_BOUND = 18.0  # |u| bound: tanh(18) = 1 - 2**-51, while tanh(19) rounds to 1
# Fixed MA starts in u besides theta = 0: the CSS surface is multimodal, and
# these reach the basins that theta = 0 misses on bursty daily counts
_MA_STARTS = {1: ((0.0,), (3.0,)), 2: ((0.0, 0.0), (1.5, 0.0))}
_HR_LONG_AR = 6  # order of the Hannan-Rissanen long autoregression
_CSS_FTOL = 1e-12  # L-BFGS-B's relative SSR reduction at which a run stops
_BIN_DAYS = 7.0  # pc_nhpp bin width

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


def fit_pc_nhpp(times: Sequence[float], T: float) -> FitResult:
    """Per-bin MLE rate = count / width over 7-day bins; the bins end at T,
    at T - 7k, so the first bin is truncated at 0 and the last is full-width
    when T >= 7.

    Empty bins contribute zero (the 0*ln 0 convention); each occupied bin
    contributes c*(ln r - 1), using r*width = c at the optimum.
    """
    times = _check_times(times, T)
    n_bins = max(1, int(math.ceil(T / _BIN_DAYS - 1e-12)))
    edges = np.maximum(T - np.arange(n_bins, -1, -1) * _BIN_DAYS, 0.0)
    edges[0] = 0.0
    counts, _ = np.histogram(times, edges)
    widths = np.diff(edges)
    rates = counts / widths
    occupied = counts > 0
    ll = float(np.sum(counts[occupied] * (np.log(rates[occupied]) - 1.0)))
    return FitResult(
        "pc_nhpp",
        {"bin_edges": [float(x) for x in edges], "rates": [float(r) for r in rates]},
        ll, int(rates.size), True, 0)


def _drift_dh(s: float, tau: np.ndarray) -> float:
    """h'(s) = sum a / (tau + s a), a = 1 - 2 tau, of fit_nhpp_drift's h."""
    a = 1.0 - 2.0 * tau
    return float(np.sum(a / (tau + s * a)))


def fit_nhpp_drift(times: Sequence[float], T: float) -> FitResult:
    """MLE of the rate lam(t) = b (1 - tau) + r tau, tau = t/T, b and r >= 0.

    Sum ln lam is homogeneous of degree 1 in (b, r), so b + r = c = 2n/T at
    the maximum, and s = b/c maximizes h(s) = sum ln(tau + s a), a = 1 - 2 tau,
    on [0, 1].  h is concave: s is a bound where h' keeps its sign and no event
    has zero rate, 1/2 if h is flat (all events at T/2), else h' = 0, bisected.
    """
    tau = _check_times(times, T) / T
    n = tau.size
    if n < 2:
        raise ValueError(f"drift fit needs at least 2 events, got {n}")
    lo, hi, steps = 0.0, 1.0, 0  # [lo, hi] brackets s
    if np.all(tau == 0.5):
        lo = hi = 0.5
    elif tau[0] > 0.0 and _drift_dh(0.0, tau) <= 0.0:
        hi = 0.0
    elif tau[-1] < 1.0 and _drift_dh(1.0, tau) >= 0.0:
        lo = 1.0
    while lo < (s := 0.5 * (lo + hi)) < hi:
        steps += 1
        lo, hi = (s, hi) if _drift_dh(s, tau) > 0.0 else (lo, s)
    c = 2.0 * n / T
    ll = float(np.sum(np.log(c * (tau + s * (1.0 - 2.0 * tau))))) - n
    return FitResult("nhpp_drift", {"mu_slope": c * (1.0 - 2.0 * s) / T, "b_intercept": c * s},
                     ll, 2, True, steps)


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


def _fit_cell(counts: np.ndarray, p: int, q: int) -> FitResult:
    """ARMA(p, q) on counts[_MAX_P - p:] by conditional least squares
    (_css_fit_one, so the MA polynomial is invertible by construction).

    Every cell conditions on the first _MAX_P counts, so its residuals cover
    counts[_MAX_P:] whatever p is.  The Gaussian log-likelihood comes from
    the residual variance; k = p + q + 2 counts the intercept and the
    variance.  converged and the iteration count are _css_fit_one's.
    """
    y = counts[_MAX_P - p:]
    vec, ok, n_iter = _css_fit_one(y, p, q)
    c, phi, theta = float(vec[0]), vec[1:1 + p], vec[1 + p:]
    eps = _css_residuals(y, p, q, c, phi, theta)
    sigma2 = max(float(np.dot(eps, eps)) / eps.size, _SIGMA2_FLOOR)
    ll = -0.5 * eps.size * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return FitResult(
        "arima_lite",
        {"p": p, "q": q, "ar": [float(v) for v in phi], "ma": [float(v) for v in theta],
         "intercept": c, "sigma2": sigma2},
        ll, p + q + 2, ok, n_iter)


def _checked_counts(counts: Sequence[float]) -> np.ndarray:
    """The counts as a float array, refused unless one-dimensional and finite."""
    y = np.asarray(counts, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"daily counts must be one-dimensional, got shape {y.shape}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"daily counts must be finite, got {y[bad[0]]} at day {bad[0]}")
    return y


def fit_arima_lite(counts: Sequence[float]) -> FitResult:
    """The lowest-aic cell of the ARMA(p, q) grid on the counts themselves,
    p <= _MAX_P and q <= 2, ties to the smallest (p, q).

    Every cell is scored on the same counts (see _fit_cell), so the aics
    compare one dataset.  Nothing is clamped after the fit.
    """
    counts = _checked_counts(counts)
    if counts.size < 20:
        raise ValueError(f"need a daily count series of length >= 20, got {counts.size}")
    return min((_fit_cell(counts, p, q) for p, q in product(range(_MAX_P + 1), range(3))),
               key=lambda fit: fit.aic)


def forecast_arima(params: Mapping[str, object], counts: Sequence[float],
                   horizon: int) -> np.ndarray:
    """Iterated h-step forecast from an arima_lite fit's params (p, q, ar, ma,
    intercept) with future innovations at zero, its MA state from
    counts[_MAX_P - p:] as in the fit; returns one count per future day."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p, q = params["p"], params["q"]
    ar, ma, intercept = params["ar"], params["ma"], params["intercept"]
    counts = _checked_counts(counts)
    if counts.size < _MAX_P:
        raise ValueError(f"ARMA({p}, {q}) forecast needs at least "
                         f"{_MAX_P} observed counts, got {counts.size}")
    y = counts[_MAX_P - p:]
    ys = y.tolist()
    e2, e1 = ([0.0, 0.0] + _css_residuals(y, p, q, intercept, ar, ma).tolist())[-2:]
    t0, t1 = [float(v) for v in ma] + [0.0] * (2 - q)
    for _ in range(horizon):
        acc = intercept
        for i in range(p):
            acc += ar[i] * ys[-1 - i]
        ys.append(acc + t0 * e1 + t1 * e2)
        e1, e2 = 0.0, e1
    return np.asarray(ys[y.size:])
