"""Train/test splitting, count forecasting, and model comparison.

The self-exciting forecast is the exact conditional mean of the count: for
the exponential kernel the expected intensity relaxes from lam(t+) toward
the stationary rate mu*omega/(omega - beta) at rate omega - beta, so the
offspring of events yet to happen are counted in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import baselines
from .hawkes import (FitResult, HawkesParams, _check_positive, _check_times, _excitation,
                     _loglik_and_grad, _params_from_fit, fit_mle)
from .taggraph import GenreCluster

__all__ = [
    "HORIZON_DAYS",
    "SplitSpec",
    "EvalRow",
    "EvaluationTable",
    "default_split",
    "split_stream",
    "expected_count",
    "holdout_log_likelihood",
    "evaluate_all",
]

POOLED_CLUSTER_ID = -1  # row id for models fit on all clusters pooled
HORIZON_DAYS = 14.0  # the length of every split's test window


@dataclass(frozen=True)
class SplitSpec:
    """Training window [split_point - train_days, split_point] and test
    window (split_point, split_point + HORIZON_DAYS]."""

    train_days: float
    split_point: float

    def __post_init__(self):
        _check_positive("train_days", self.train_days)
        if not math.isfinite(self.split_point):
            raise ValueError(f"split_point must be finite, got {self.split_point}")
        if self.split_point - self.train_days < 0:
            raise ValueError(
                f"training window starts before 0 (split_point={self.split_point}, "
                f"train_days={self.train_days})")

    def check_horizon(self, horizon_T: float) -> None:
        if self.split_point + HORIZON_DAYS > horizon_T + 1e-9:
            raise ValueError(
                f"test window ends at {self.split_point + HORIZON_DAYS}, beyond "
                f"horizon_T={horizon_T}")


def default_split(horizon_T: float, train_days: float) -> SplitSpec:
    """Split so the test window ends exactly at the stream horizon."""
    if HORIZON_DAYS >= horizon_T:
        raise ValueError(f"the stream (horizon_T={horizon_T}) is not longer than the "
                         f"{HORIZON_DAYS:g}-day test window")
    return SplitSpec(train_days=train_days, split_point=horizon_T - HORIZON_DAYS)


def split_stream(times: Sequence[float], spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return (train, test) event times; events before the training window are
    dropped.  An empty training window is an error."""
    times = np.asarray(times, dtype=float)
    lo = spec.split_point - spec.train_days
    train = times[(times >= lo) & (times <= spec.split_point)]
    test = times[(times > spec.split_point) &
                 (times <= spec.split_point + HORIZON_DAYS)]
    if train.size == 0:
        raise ValueError(
            f"empty training window [{lo}, {spec.split_point}]")
    return train, test


def expected_count(p: HawkesParams, history: Sequence[float], t: float,
                   delta_t: float) -> float:
    """E[N(t, t + delta_t] | history up to t], offspring of the window's own
    events included: mu*dt + X*g + mu*beta*(dt - g)/kappa with X the
    excitation at t, kappa = omega - beta and g = (1 - e^{-kappa dt})/kappa
    (Dassios & Zhao, 2011)."""
    if p.branching_ratio >= 1.0:
        raise ValueError(
            f"branching ratio {p.branching_ratio:.3f} >= 1: forecast refused")
    if not (math.isfinite(delta_t) and delta_t >= 0):
        raise ValueError(f"delta_t must be >= 0 and finite, got {delta_t}")
    if not math.isfinite(t):
        raise ValueError(f"forecast start t must be finite, got {t}")
    history = _check_times(history)
    if history.size and history[-1] > t:
        raise ValueError("history must end at or before the forecast start t")
    kappa = p.omega - p.beta
    g = -math.expm1(-kappa * delta_t) / kappa  # accurate for small kappa*dt
    return (p.mu * delta_t + _excitation(p, history, t) * g
            + p.mu * p.beta * (delta_t - g) / kappa)


def holdout_log_likelihood(p: HawkesParams, history: Sequence[float],
                           test_times: Sequence[float], t_start: float,
                           t_end: float) -> float:
    """Log-likelihood of the test events on (t_start, t_end], conditioning on
    the history and on earlier test events."""
    history = np.asarray(history, dtype=float)
    test = np.asarray(test_times, dtype=float)
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError(f"window ends must be finite, got ({t_start}, {t_end}]")
    if t_end <= t_start:
        raise ValueError(f"t_end={t_end} must exceed t_start={t_start}")
    if history.size and float(np.max(history)) > t_start:
        raise ValueError("history must end at or before t_start")
    if test.size and (float(np.min(test)) <= t_start or float(np.max(test)) > t_end):
        raise ValueError("test events must lie in (t_start, t_end]")
    merged = _check_times(np.concatenate([history, test]))
    return (_loglik_and_grad(p.mu, p.beta, p.omega, merged, t_end)[0]
            - _loglik_and_grad(p.mu, p.beta, p.omega, history, t_start)[0])


def _scored(predicted: float, actual: int) -> tuple[float, float, float]:
    """The prediction clipped at zero, its absolute error, and that error
    relative to max(actual, 1)."""
    predicted = max(float(predicted), 0.0)
    abs_error = abs(predicted - actual)
    return predicted, abs_error, abs_error / max(actual, 1)


@dataclass(frozen=True)
class EvalRow:
    cluster_id: int
    model: str
    train_days: float
    horizon_days: float
    loglik: float | None
    aic: float | None
    predicted: float | None
    actual: int
    abs_error: float | None
    rel_error: float | None
    status: str = "ok"
    note: str = ""
    optimizer: str | None = None  # the fit's _optim.maximize route, for fits that take one
    grad_max: float | None = None


@dataclass(frozen=True)
class EvaluationTable:
    rows: tuple[EvalRow, ...]
    aggregates: dict
    exclusions: tuple[tuple[int, str], ...]
    aic_differences: tuple[dict, ...]


def _daily_counts(times: np.ndarray, span: float) -> np.ndarray:
    days = int(math.ceil(span - 1e-9))
    idx = np.clip(np.floor(times).astype(int), 0, days - 1)
    return np.bincount(idx, minlength=days).astype(float)


# Each model fits the training events on [0, T] and forecasts the count over
# (T, T + HORIZON_DAYS]: (fit, predicted), with predicted None when the fit refuses
# to forecast.  Fitters are looked up at call time, so patching them takes effect.

def _hawkes(train: np.ndarray, T: float) -> tuple[FitResult, float | None]:
    fit = fit_mle(train, T)
    if "supercritical" in fit.warnings:
        return fit, None
    return fit, expected_count(_params_from_fit(fit), train, T, HORIZON_DAYS)


def _poisson(train: np.ndarray, T: float) -> tuple[FitResult, float]:
    fit = baselines.fit_poisson(train, T)
    return fit, float(fit.params["mu"]) * HORIZON_DAYS


def _pc_nhpp(train: np.ndarray, T: float) -> tuple[FitResult, float]:
    fit = baselines.fit_pc_nhpp(train, T)
    return fit, float(fit.params["rates"][-1]) * HORIZON_DAYS


def _nhpp_drift(train: np.ndarray, T: float) -> tuple[FitResult, float]:
    fit = baselines.fit_nhpp_drift(train, T)
    m = float(fit.params["mu_slope"])
    b = float(fit.params["b_intercept"])
    end = T + HORIZON_DAYS
    if m >= 0 or (m * end + b) > 0:
        return fit, m * 0.5 * (end * end - T * T) + b * HORIZON_DAYS
    end = max(-b / m, T)  # rate hits zero inside the window; integrate up to it
    return fit, m * 0.5 * (end * end - T * T) + b * (end - T)


def _arima_lite(train: np.ndarray, T: float) -> tuple[FitResult, float]:
    counts = _daily_counts(train, T)
    fit = baselines.fit_arima_lite(counts)
    levels = baselines.forecast_arima(fit.params, counts, int(HORIZON_DAYS))
    return fit, float(np.sum(levels))


_MODELS = {"arima_lite": _arima_lite, "hawkes": _hawkes, "hawkes_global": _hawkes,
           "nhpp_drift": _nhpp_drift, "pc_nhpp": _pc_nhpp, "poisson": _poisson}
KNOWN_MODELS = tuple(_MODELS)


def _check_models(models: Sequence[str]) -> list[str]:
    """The distinct model names in sorted order; raises on an unknown one."""
    model_list = sorted(set(models))
    unknown = [m for m in model_list if m not in _MODELS]
    if unknown:
        raise ValueError(f"unknown model(s): {', '.join(unknown)}")
    return model_list


def evaluate_all(clusters: Sequence[GenreCluster], spec: SplitSpec,
                 models: Sequence[str]) -> EvaluationTable:
    """Fit every requested model per cluster on the training window and score
    its forecast of the count in the HORIZON_DAYS test window.

    Failures are isolated: a model that cannot be fit on one cluster yields a
    'failed' row, a supercritical self-exciting fit yields a 'refused' row,
    and clusters with an empty training window are listed in exclusions.
    An 'ok' row whose fit did not converge keeps its numbers and says so in
    its note.  The pooled 'hawkes_global' model appears once under cluster id -1.
    When both 'hawkes' and 'poisson' ran, aic_differences holds their
    per-cluster AIC difference (hawkes minus poisson).  An unknown model
    raises before any fit.
    """
    model_list = _check_models(models)

    rows: list[EvalRow] = []
    exclusions: list[tuple[int, str]] = []
    offset = spec.split_point - spec.train_days

    per_cluster = [m for m in model_list if m != "hawkes_global"]
    units = [(c.cluster_id, c.events.times, c.events.horizon_T, per_cluster)
             for c in clusters] if per_cluster else []
    if "hawkes_global" in model_list and clusters:
        units.append((POOLED_CLUSTER_ID,
                      np.sort(np.concatenate([c.events.times for c in clusters])),
                      max(c.events.horizon_T for c in clusters), ["hawkes_global"]))
    for cluster_id, times, horizon_T, unit_models in units:
        spec.check_horizon(horizon_T)
        try:
            train, test = split_stream(times, spec)
        except ValueError as exc:
            exclusions.append((cluster_id, str(exc)))
            continue
        train = train - offset
        actual = int(test.size)
        for model in unit_models:
            fit = predicted = None
            try:
                fit, predicted = _MODELS[model](train, spec.train_days)
            except Exception as exc:  # isolate per-model failures
                status, note = "failed", str(exc)
            else:
                status, note = ("refused", "refused: supercritical") if predicted is None \
                    else ("ok", "" if fit.converged else "fit did not converge")
            loglik, aic, optimizer, grad_max = (None,) * 4 if fit is None else \
                (fit.log_likelihood, fit.aic, fit.optimizer, fit.grad_max)
            predicted, abs_error, rel_error = (None,) * 3 if predicted is None else \
                _scored(predicted, actual)
            rows.append(EvalRow(cluster_id, model, spec.train_days, HORIZON_DAYS,
                                loglik, aic, predicted, actual, abs_error, rel_error,
                                status, note, optimizer, grad_max))

    aggregates: dict = {}
    for model in model_list:
        ok = [r for r in rows if r.model == model and r.status == "ok"]
        if ok:
            aggregates[model] = {
                "n_clusters": len(ok),
                "mean_abs_error": float(np.mean([r.abs_error for r in ok])),
                "mean_rel_error": float(np.mean([r.rel_error for r in ok])),
            }

    aic = {(r.cluster_id, r.model): r.aic for r in rows if r.aic is not None}
    diffs = tuple({"cluster_id": cid, "model_a": "hawkes", "model_b": "poisson",
                   "aic_diff": a - aic[(cid, "poisson")]}
                  for (cid, model), a in sorted(aic.items())
                  if model == "hawkes" and (cid, "poisson") in aic)

    return EvaluationTable(rows=tuple(rows), aggregates=aggregates,
                           exclusions=tuple(exclusions), aic_differences=diffs)
