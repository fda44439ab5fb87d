"""Train/test splitting, count forecasting, and model comparison.

The self-exciting forecast is the exact conditional mean of the count: for
the exponential kernel the expected intensity relaxes from lam(t+) toward
the stationary rate mu*omega/(omega - beta) at rate omega - beta, so the
offspring of events yet to happen are counted in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import baselines
from .hawkes import (FitResult, HawkesParams, _check_times, _excitation, _params_from_fit,
                     compensator, decay_sums, fit_mle)
from .taggraph import GenreCluster

__all__ = [
    "SplitSpec",
    "ForecastResult",
    "EvalRow",
    "EvaluationTable",
    "default_split",
    "split_stream",
    "expected_count",
    "conditional_mean_count",
    "holdout_log_likelihood",
    "evaluate_all",
]

KNOWN_MODELS = ("arima_lite", "hawkes", "hawkes_global", "nhpp_drift", "pc_nhpp",
                "poisson")
POOLED_CLUSTER_ID = -1  # row id for models fit on all clusters pooled


@dataclass(frozen=True)
class SplitSpec:
    """Training window [split_point - train_days, split_point] and test
    window (split_point, split_point + horizon_days]."""

    train_days: float
    split_point: float
    horizon_days: float = 14.0

    def __post_init__(self):
        if not (math.isfinite(self.train_days) and self.train_days > 0):
            raise ValueError(f"train_days must be positive, got {self.train_days}")
        if not (math.isfinite(self.horizon_days) and self.horizon_days > 0):
            raise ValueError(f"horizon_days must be positive, got {self.horizon_days}")
        if self.split_point - self.train_days < 0:
            raise ValueError(
                f"training window starts before 0 (split_point={self.split_point}, "
                f"train_days={self.train_days})")

    def check_horizon(self, horizon_T: float) -> None:
        if self.split_point + self.horizon_days > horizon_T + 1e-9:
            raise ValueError(
                f"test window ends at {self.split_point + self.horizon_days}, beyond "
                f"horizon_T={horizon_T}")


def default_split(horizon_T: float, train_days: float,
                  horizon_days: float = 14.0) -> SplitSpec:
    """Split so the test window ends exactly at the stream horizon."""
    return SplitSpec(train_days=train_days, split_point=horizon_T - horizon_days,
                     horizon_days=horizon_days)


def split_stream(times: Sequence[float], spec: SplitSpec,
                 horizon_T: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return (train, test) event times; events before the training window are
    dropped.  An empty training window is an error."""
    if horizon_T is not None:
        spec.check_horizon(horizon_T)
    times = np.asarray(times, dtype=float)
    lo = spec.split_point - spec.train_days
    train = times[(times >= lo) & (times <= spec.split_point)]
    test = times[(times > spec.split_point) &
                 (times <= spec.split_point + spec.horizon_days)]
    if train.size == 0:
        raise ValueError(
            f"empty training window [{lo}, {spec.split_point}]")
    return train.copy(), test.copy()


def _mean_count(p: HawkesParams, history: Sequence[float], t: float, delta_t: float,
                jump: float) -> float:
    """mu*dt + X*g + mu*jump*(dt - g)/kappa with X the excitation at t, kappa =
    omega - jump and g = (1 - e^{-kappa dt})/kappa: the expected count over
    (t, t + dt] when each event inside the window excites by jump."""
    if p.branching_ratio >= 1.0:
        raise ValueError(
            f"branching ratio {p.branching_ratio:.3f} >= 1: forecast refused")
    if not (math.isfinite(delta_t) and delta_t >= 0):
        raise ValueError(f"delta_t must be >= 0, got {delta_t}")
    history = np.asarray(history, dtype=float)
    if history.size and float(np.max(history)) > t:
        raise ValueError("history must end at or before the forecast start t")
    kappa = p.omega - jump
    g = -math.expm1(-kappa * delta_t) / kappa  # accurate for small kappa*dt
    return (p.mu * delta_t + _excitation(p, history, t) * g
            + p.mu * jump * (delta_t - g) / kappa)


def expected_count(p: HawkesParams, history: Sequence[float], t: float,
                   delta_t: float) -> float:
    """Compensator increment over (t, t + delta_t] given the history alone.

    Events inside the window are not credited with offspring, so for beta > 0
    this is a lower bound on conditional_mean_count.
    """
    return _mean_count(p, history, t, delta_t, 0.0)


def conditional_mean_count(p: HawkesParams, history: Sequence[float], t: float,
                           delta_t: float) -> float:
    """Expected number of events in (t, t + delta_t] given the history up to t,
    offspring of the window's own events included."""
    return _mean_count(p, history, t, delta_t, p.beta)


def holdout_log_likelihood(p: HawkesParams, history: Sequence[float],
                           test_times: Sequence[float], t_start: float,
                           t_end: float) -> float:
    """Log-likelihood of the test events on (t_start, t_end], conditioning on
    the history and on earlier test events."""
    history = np.asarray(history, dtype=float)
    test = np.asarray(test_times, dtype=float)
    if t_end <= t_start:
        raise ValueError(f"t_end={t_end} must exceed t_start={t_start}")
    if history.size and float(np.max(history)) > t_start:
        raise ValueError("history must end at or before t_start")
    if test.size and (float(np.min(test)) <= t_start or float(np.max(test)) > t_end):
        raise ValueError("test events must lie in (t_start, t_end]")
    merged = _check_times(np.concatenate([history, test]))
    lam = p.mu + p.beta * decay_sums(merged, p.omega)
    point_part = float(np.sum(np.log(lam[history.size:])))
    return point_part - (compensator(p, merged, t_end) - compensator(p, history, t_start))


@dataclass(frozen=True)
class ForecastResult:
    model: str
    predicted_count: float
    actual_count: int
    abs_error: float
    rel_error: float


def make_forecast_result(model: str, predicted: float, actual: int) -> ForecastResult:
    predicted = max(float(predicted), 0.0)
    abs_error = abs(predicted - actual)
    return ForecastResult(model=model, predicted_count=predicted,
                          actual_count=int(actual), abs_error=abs_error,
                          rel_error=abs_error / max(actual, 1))


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


@dataclass(frozen=True)
class EvaluationTable:
    rows: tuple[EvalRow, ...]
    aggregates: dict
    exclusions: tuple[tuple[int, str], ...]
    aic_differences: tuple[dict, ...] = ()


def _drift_forecast(fit: FitResult, t: float, delta_t: float) -> float:
    m = float(fit.params["mu_slope"])
    b = float(fit.params["b_intercept"])
    end = t + delta_t
    if m >= 0 or (m * end + b) > 0:
        return m * 0.5 * (end * end - t * t) + b * delta_t
    zero_at = -b / m  # rate hits zero inside the window; integrate up to it
    zero_at = max(zero_at, t)
    return m * 0.5 * (zero_at * zero_at - t * t) + b * (zero_at - t)


def _daily_counts(times: np.ndarray, span: float) -> np.ndarray:
    days = int(math.ceil(span - 1e-9))
    idx = np.clip(np.floor(times).astype(int), 0, days - 1)
    return np.bincount(idx, minlength=days).astype(float)


def _fit_and_forecast(model: str, train: np.ndarray, T: float, horizon: float,
                      hawkes_cache: dict, bin_width: float) -> tuple[FitResult, float]:
    if model in ("hawkes", "hawkes_global"):
        if "fit" not in hawkes_cache:
            hawkes_cache["fit"] = fit_mle(train, T)
        fit: FitResult = hawkes_cache["fit"]
        if "supercritical" in fit.warnings:
            raise _Supercritical(fit)
        return fit, conditional_mean_count(_params_from_fit(fit), train, T, horizon)
    if model == "poisson":
        fit = baselines.fit_poisson(train, T)
        return fit, float(fit.params["mu"]) * horizon
    if model == "pc_nhpp":
        fit = baselines.fit_pc_nhpp(train, T, bin_width)
        return fit, float(fit.params["rates"][-1]) * horizon
    if model == "nhpp_drift":
        fit = baselines.fit_nhpp_drift(train, T)
        return fit, _drift_forecast(fit, T, horizon)
    if model == "arima_lite":
        counts = _daily_counts(train, T)
        params, fit = baselines.fit_arima_lite(counts)
        full_days = int(math.floor(horizon))
        frac = horizon - full_days
        levels = baselines.forecast_arima(params, counts, full_days + (1 if frac else 0))
        predicted = float(np.sum(levels[:full_days]))
        if frac:
            predicted += frac * float(levels[full_days])
        return fit, predicted
    raise ValueError(f"unknown model {model!r}")


class _Supercritical(Exception):
    def __init__(self, fit: FitResult):
        super().__init__("refused: supercritical")
        self.fit = fit


def evaluate_all(clusters: Sequence[GenreCluster], spec: SplitSpec,
                 models: Sequence[str], *, bin_width: float = 7.0,
                 aic_pairs: Sequence[tuple[str, str]] = ()) -> EvaluationTable:
    """Fit every requested model per cluster on the training window and score
    its forecast on the held-out window.

    Failures are isolated: a model that cannot be fit on one cluster yields a
    'failed' row, a supercritical self-exciting fit yields a 'refused' row,
    and clusters with an empty training window are listed in exclusions.
    The pooled 'hawkes_global' model appears once under cluster id -1.
    """
    model_list = sorted(set(models))
    unknown = [m for m in model_list if m not in KNOWN_MODELS]
    if unknown:
        raise ValueError(f"unknown model(s): {', '.join(unknown)}")

    rows: list[EvalRow] = []
    exclusions: list[tuple[int, str]] = []
    offset = spec.split_point - spec.train_days

    def eval_unit(cluster_id: int, times: np.ndarray, horizon_T: float,
                  unit_models: list[str]) -> None:
        spec.check_horizon(horizon_T)
        try:
            train, test = split_stream(times, spec)
        except ValueError as exc:
            exclusions.append((cluster_id, str(exc)))
            return
        train = train - offset
        actual = int(test.size)
        cache: dict = {}
        for model in unit_models:
            base = dict(cluster_id=cluster_id, model=model,
                        train_days=spec.train_days, horizon_days=spec.horizon_days,
                        actual=actual)
            try:
                fit, predicted = _fit_and_forecast(
                    model, train, spec.train_days, spec.horizon_days, cache, bin_width)
            except _Supercritical as exc:
                rows.append(EvalRow(**base, loglik=exc.fit.log_likelihood,
                                    aic=exc.fit.aic, predicted=None, abs_error=None,
                                    rel_error=None, status="refused",
                                    note="refused: supercritical"))
                continue
            except Exception as exc:  # isolate per-model failures
                rows.append(EvalRow(**base, loglik=None, aic=None, predicted=None,
                                    abs_error=None, rel_error=None, status="failed",
                                    note=str(exc)))
                continue
            fr = make_forecast_result(model, predicted, actual)
            rows.append(EvalRow(**base, loglik=fit.log_likelihood, aic=fit.aic,
                                predicted=fr.predicted_count, abs_error=fr.abs_error,
                                rel_error=fr.rel_error))

    per_cluster = [m for m in model_list if m != "hawkes_global"]
    if per_cluster:
        for c in clusters:
            eval_unit(c.cluster_id, c.events.times, c.events.horizon_T, per_cluster)
    if "hawkes_global" in model_list and clusters:
        pooled = np.sort(np.concatenate([c.events.times for c in clusters]))
        horizon = max(c.events.horizon_T for c in clusters)
        eval_unit(POOLED_CLUSTER_ID, pooled, horizon, ["hawkes_global"])

    aggregates: dict = {}
    for model in model_list:
        ok = [r for r in rows if r.model == model and r.status == "ok"]
        if ok:
            aggregates[model] = {
                "n_clusters": len(ok),
                "mean_abs_error": float(np.mean([r.abs_error for r in ok])),
                "mean_rel_error": float(np.mean([r.rel_error for r in ok])),
            }

    diffs: list[dict] = []
    for model_a, model_b in aic_pairs:
        by_cluster_a = {r.cluster_id: r for r in rows
                        if r.model == model_a and r.aic is not None}
        by_cluster_b = {r.cluster_id: r for r in rows
                        if r.model == model_b and r.aic is not None}
        for cid in sorted(set(by_cluster_a) & set(by_cluster_b)):
            diffs.append({"cluster_id": cid, "model_a": model_a, "model_b": model_b,
                          "aic_diff": by_cluster_a[cid].aic - by_cluster_b[cid].aic})

    return EvaluationTable(rows=tuple(rows), aggregates=aggregates,
                           exclusions=tuple(exclusions),
                           aic_differences=tuple(diffs))
