"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (quadratic sums, BFS, explicit
enumeration) so it cannot share a bug with the package's fast paths.
"""

import csv
import json
import math
import sys
from collections import deque
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

import numpy as np

from tagburst.ingest import (_CSV_COLUMNS, _EPOCH, MICROS_PER_DAY, Event, EventStream,
                             ParseError)


def direct_intensity(mu, beta, omega, history, t):
    """Intensity by explicit summation over the history."""
    history = np.asarray(history, dtype=float)
    return mu + beta * float(np.sum(np.exp(-omega * (t - history))))


def direct_compensator(mu, beta, omega, times, t):
    """Integrated intensity by explicit summation."""
    past = np.asarray(times, dtype=float)
    past = past[past < t]
    return mu * t + (beta / omega) * float(np.sum(1.0 - np.exp(-omega * (t - past))))


def direct_log_likelihood(mu, beta, omega, times, T):
    """O(n^2) log-likelihood: intensity at each event by explicit summation."""
    times = np.asarray(times, dtype=float)
    ll = 0.0
    for j in range(times.size):
        lam = mu + beta * float(np.sum(np.exp(-omega * (times[j] - times[:j]))))
        ll += float(np.log(lam))
    return ll - direct_compensator(mu, beta, omega, times, T)


def drift_log_likelihood(slope, intercept, times, T):
    """Linear-rate Poisson log-likelihood in the slope/intercept form
    lam(t) = slope * t + intercept, which must be non-negative on [0, T]."""
    if intercept < 0 or slope * T + intercept < 0:
        raise ValueError("rate must stay non-negative at both window endpoints")
    lam = slope * np.asarray(times, dtype=float) + intercept
    return float(np.sum(np.log(lam))) - (0.5 * slope * T * T + intercept * T)


def drift_objective(x: np.ndarray, tau: np.ndarray,
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


def drift_profile(s, tau, T):
    """drift_objective's log-likelihood on the line b + r = 2n/T at b = s 2n/T:
    the drift fit's h(s) plus a constant."""
    c = 2.0 * tau.size / T
    return -drift_objective(np.log([c * s, c * (1.0 - s)]), tau, T)[0]


def central_difference(f, x, h):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.size)
    for i in range(x.size):
        hi = h * max(abs(x[i]), 1.0)
        up, down = x.copy(), x.copy()
        up[i] += hi
        down[i] -= hi
        grad[i] = (f(up) - f(down)) / (2.0 * hi)
    return grad


def brute_pair_counts(tag_sets):
    """Co-occurrence counts by enumerating every video and unordered pair."""
    counts = {}
    for tags in tag_sets:
        for a, b in combinations(sorted(tags), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def bfs_components(nodes, edges):
    """Connected components by breadth-first search; sorted by smallest member."""
    adjacency = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    components = []
    for start in nodes:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = {start}
        while queue:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    queue.append(nxt)
        components.append(comp)
    return sorted(components, key=min)


def brute_attribution(mu, beta, omega, times, uploaders, psi, thresholds):
    """Full O(n^2) factor shares with no truncation.

    Returns (s_self, s_pop): triggering mass on same-uploader pairs and on
    pairs whose trigger beats the triggered uploader's threshold, each over
    the total triggering mass.
    """
    den = num_self = num_pop = 0.0
    n = len(times)
    for j in range(n):
        lam = mu + beta * sum(np.exp(-omega * (times[j] - times[i])) for i in range(j))
        for i in range(j):
            pij = beta * np.exp(-omega * (times[j] - times[i])) / lam
            den += pij
            if uploaders[i] == uploaders[j]:
                num_self += pij
            if psi[i] > thresholds[j]:
                num_pop += pij
    return num_self / den, num_pop / den


def uploader_mean_thresholds(events, reference):
    """Per event, the mean popularity (views + comments) of its uploader's
    uploads before it in reference order; zero when there are none."""
    position = {r.video_id: k for k, r in enumerate(reference)}
    out = []
    for e in events:
        values = [r.n_views + r.n_comments for k, r in enumerate(reference)
                  if r.uploader_id == e.uploader_id and k < position[e.video_id]]
        out.append(sum(values) / len(values) if values else 0.0)
    return np.array(out)


def expected_count_by_quadrature(mu, beta, omega, history, t, delta_t, n_grid=200001):
    """Integrate the history-only intensity over (t, t+delta_t] numerically."""
    grid = np.linspace(t, t + delta_t, n_grid)
    history = np.asarray(history, dtype=float)
    lam = mu + beta * np.sum(np.exp(-omega * (grid[:, None] - history[None, :])), axis=1)
    return np.trapezoid(lam, grid)


def conditional_mean_by_ode(mu, beta, omega, history, t, delta_t):
    """E[N(t, t+delta_t] | history] by integrating the mean intensity m and
    the mean count N: m' = omega*mu - (omega - beta)*m, N' = m, from
    m(t) = the intensity at t by explicit summation and N(t) = 0."""
    from scipy.integrate import solve_ivp

    m0 = direct_intensity(mu, beta, omega, history, t)
    sol = solve_ivp(lambda s, y: [omega * mu - (omega - beta) * y[0], y[0]],
                    (t, t + delta_t), [m0, 0.0], method="DOP853", rtol=1e-12, atol=1e-12)
    return float(sol.y[1, -1])


def loop_css_residuals(y, p, q, c, phi, theta):
    """ARIMA conditional-sum-of-squares residuals by the plain per-step loop,
    pre-sample innovations fixed at zero."""
    y = list(y)
    n = len(y)
    if q == 0 and p > 0:
        ya = np.asarray(y)
        pred = np.full(n - p, c)
        for i in range(p):
            pred += phi[i] * ya[p - 1 - i:n - 1 - i]
        return ya[p:] - pred
    if q == 0:
        return np.asarray(y) - c
    eps = [0.0] * n
    for t in range(p, n):
        acc = c
        for i in range(p):
            acc += phi[i] * y[t - 1 - i]
        for j in range(q):
            k = t - 1 - j
            if k >= 0:
                acc += theta[j] * eps[k]
        eps[t] = y[t] - acc
    return np.asarray(eps[p:])


def loop_forecast_arima(params, counts, horizon):
    """baselines.forecast_arima as it was with a zero-padded innovation list
    indexed by day, where an MA lag before y[0] is left out; its residuals
    come from loop_css_residuals instead of the package's."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p, d, q = params["p"], params["d"], params["q"]
    ar, ma, intercept = params["ar"], params["ma"], params["intercept"]
    counts = np.asarray(counts, dtype=float)
    y = np.diff(counts, n=d) if d else counts
    if y.size < p:
        raise ValueError(f"ARIMA({p}, {d}, {q}) forecast needs at least "
                         f"{p + d} observed counts, got {counts.size}")
    eps_obs = loop_css_residuals(y, p, q, intercept, ar, ma)
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


def nelder_mead_css_fit(y, p, q):
    """The ARIMA-lite cell fit before the gradient-based one: minimize the
    conditional sum of squares with the derivative-free simplex from the
    lstsq start and theta = 0, MA terms unconstrained.  Returns
    (c, phi..., theta...), success, iterations.  Its residuals come from the
    package's _css_residuals, which the tests pin bit for bit to
    loop_css_residuals (the loop would more than double the simplex's
    time)."""
    from scipy.optimize import minimize

    from tagburst.baselines import _css_residuals
    c0 = float(np.mean(y[p:])) if y.size > p else 0.0
    phi0 = np.zeros(p)
    if p > 0 and y.size > 2 * p:
        design = np.column_stack([np.ones(y.size - p)] +
                                 [y[p - 1 - i:y.size - 1 - i] for i in range(p)])
        coef, *_ = np.linalg.lstsq(design, y[p:], rcond=None)
        c0, phi0 = float(coef[0]), coef[1:]
    x0 = np.concatenate([[c0], phi0, np.zeros(q)])

    def ssr(vec):
        eps = _css_residuals(y, p, q, vec[0], vec[1:1 + p], vec[1 + p:])
        return float(np.dot(eps, eps))

    if x0.size == 1 and q == 0:
        # intercept-only model: the mean minimizes the SSR in closed form
        return np.asarray([float(np.mean(y))]), True, 0
    res = minimize(ssr, x0, method="Nelder-Mead",
                   options={"maxiter": 500 * x0.size, "xatol": 1e-8, "fatol": 1e-10})
    return np.asarray(res.x), bool(res.success), int(res.nit)


def loop_decay_state(times, omega):
    """Decay sums A_i and B_i = -dA_i/domega by the plain per-step loop that
    stores each value through numpy indexing, and
    C_i = sum_{j<i} (t_i - t_j)^2 exp(-omega (t_i - t_j)) by the direct O(n^2) sum."""
    n = times.size
    A = np.zeros(n)
    B = np.zeros(n)
    C = np.zeros(n)
    ts = times.tolist()
    a = b = 0.0
    for i in range(1, n):
        d = ts[i] - ts[i - 1]
        r = math.exp(-omega * d)
        b = r * (b + d * (a + 1.0))  # uses the previous a
        a = r * (a + 1.0)
        A[i] = a
        B[i] = b
        lags = times[i] - times[:i]
        C[i] = float(np.sum(lags * lags * np.exp(-omega * lags)))
    return A, B, C


def vote_per_video(tag_sets, components):
    """Component index won by each video's tags, counted afresh per video:
    most tags wins, ties go to the component holding the smallest tag."""
    winners = []
    for tags in tag_sets:
        votes = {}
        for t in tags:
            owner = [ci for ci, comp in enumerate(components) if t in comp]
            if not owner:
                raise ValueError(f"tag {t!r} is outside every component")
            votes[owner[0]] = votes.get(owner[0], 0) + 1
        top = max(votes.values())
        winners.append(min((ci for ci, v in votes.items() if v == top),
                           key=lambda ci: min(components[ci])))
    return winners


STEP_TOL = 1e-9


def simplex_fallback_maximize(fun, x0, bounds=None, grad_tol=1e-6, max_iter=500):
    """The maximizer before the Newton polish: L-BFGS-B, then Nelder-Mead
    from its point whenever the gradient sup-norm stays >= grad_tol and the
    last step >= STEP_TOL.  Returns (argmax, max value, converged, iterations)."""
    from scipy.optimize import minimize
    x0 = np.asarray(x0, dtype=float)
    trace = [x0.copy()]
    res = minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                   callback=lambda xk: trace.append(np.array(xk)),
                   options={"maxiter": max_iter, "ftol": 1e-12, "gtol": grad_tol})
    x, best, n_iter = np.asarray(res.x), float(res.fun), int(res.nit)
    gnorm = float(np.max(np.abs(res.jac)))
    step = float(np.max(np.abs(trace[-1] - trace[-2]))) if len(trace) >= 2 else np.inf
    converged = gnorm < grad_tol or step < STEP_TOL

    if not converged:
        res2 = minimize(lambda v: fun(v)[0], x, method="Nelder-Mead",
                        bounds=bounds,
                        options={"maxiter": max_iter, "xatol": 1e-10, "fatol": 1e-12})
        n_iter += int(res2.nit)
        if res2.fun <= best:
            x, best = np.asarray(res2.x), float(res2.fun)
            # the gradient is needed only when the simplex hit its iteration cap
            converged = bool(res2.success) or \
                float(np.max(np.abs(fun(x)[1]))) < grad_tol

    return x, -best, bool(converged), n_iter


NEWTON_STEPS = 3
HESS_STEP = 1e-6
POLISH_TOL = 1e-10
_RISE_TOL = 4.0 * sys.float_info.epsilon  # relative rise in f a Newton step may make


def _newton_polish(fun, x, f, g, lo, hi):
    """Up to NEWTON_STEPS safeguarded Newton steps on fun from (x, f, g);
    returns the last accepted point, its value and gradient, and the steps taken."""
    steps = 0
    eye = np.eye(x.size) * HESS_STEP
    while steps < NEWTON_STEPS and np.max(np.abs(g)) >= POLISH_TOL:
        H = np.array([fun(x + e)[1] - fun(x - e)[1] for e in eye])
        H = (H + H.T) / (4.0 * HESS_STEP)
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            break
        x_new = np.clip(x - np.linalg.solve(H, g), lo, hi)
        f_new, g_new = fun(x_new)
        if not f_new <= f + _RISE_TOL * abs(f):
            break
        x, f, g = x_new, float(f_new), np.asarray(g_new)
        steps += 1
    return x, f, g, steps


def polish_fallback_maximize(fun, x0, bounds=None, grad_tol=1e-6, max_iter=500):
    """The maximizer before the analytic Hessian: L-BFGS-B, then at most
    NEWTON_STEPS Newton steps on a Hessian differenced from the gradient,
    then Nelder-Mead where the gradient sup-norm stays >= grad_tol.  fun(x)
    gives (f, g).  Returns (argmax, max value, converged, iterations, route,
    gradient sup-norm)."""
    from scipy.optimize import minimize
    x0 = np.asarray(x0, dtype=float)
    res = minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": max_iter, "ftol": 1e-12, "gtol": grad_tol})
    x, best, g, n_iter = np.asarray(res.x), float(res.fun), np.asarray(res.jac), int(res.nit)
    route = "lbfgsb"

    if np.max(np.abs(g)) >= grad_tol:
        lo, hi = np.array(bounds, dtype=float).T if bounds else (-np.inf, np.inf)
        x, best, g, steps = _newton_polish(fun, x, best, g, lo, hi)
        n_iter += steps
        route = "lbfgsb+newton"
        if np.max(np.abs(g)) >= grad_tol:
            route = "lbfgsb+simplex"
            res2 = minimize(lambda v: fun(v)[0], x, method="Nelder-Mead",
                            bounds=bounds,
                            options={"maxiter": max_iter, "xatol": 1e-10, "fatol": 1e-12})
            n_iter += int(res2.nit)
            if res2.fun <= best:
                x, best = np.asarray(res2.x), float(res2.fun)
                g = np.asarray(fun(x)[1])

    grad_max = float(np.max(np.abs(g)))
    return x, -best, grad_max < grad_tol, n_iter, route, grad_max


def validate_stream(s):
    """One message per violated EventStream invariant, checked event by event;
    an empty list means valid."""
    violations: list[str] = []
    seen: dict[str, int] = {}
    prev_key: tuple[float, str] | None = None
    for i, e in enumerate(s.events):
        where = f"event {i} (video {e.video_id!r})"
        if not e.video_id:
            violations.append(f"event {i}: empty video_id")
        if e.video_id in seen:
            violations.append(f"{where}: duplicate video_id (also event {seen[e.video_id]})")
        else:
            seen[e.video_id] = i
        if not (math.isfinite(e.upload_time) and e.upload_time >= 0):
            violations.append(f"{where}: upload_time must be finite and >= 0")
        if e.upload_time > s.horizon_T:
            violations.append(f"{where}: upload_time {e.upload_time} > horizon_T {s.horizon_T}")
        if not e.uploader_id:
            violations.append(f"{where}: empty uploader_id")
        if not e.tags or any(not t for t in e.tags):
            violations.append(f"{where}: tags must be a non-empty set of non-empty strings")
        if e.n_views < 0:
            violations.append(f"{where}: n_views must be >= 0")
        if e.n_comments < 0:
            violations.append(f"{where}: n_comments must be >= 0")
        key = (e.upload_time, e.video_id)
        if prev_key is not None and key < prev_key:
            violations.append(f"{where}: out of order (sort by upload_time, then video_id)")
        prev_key = key
    if not math.isfinite(s.horizon_T):
        violations.append("stream: horizon_T must be finite")
    return violations


# The event parser as it was before it streamed: every line is decoded into a
# list of dicts before any field is checked, and every record gets its own
# tag frozenset.  Kept verbatim (renamed) as the slow path the streaming
# parser is compared against.

def _micros_from_ts(value: object, line: int) -> int:
    """Normalize an ISO-8601 string or epoch-seconds number to integer microseconds."""
    if isinstance(value, bool):
        raise ParseError("timestamp must be a string or number", line=line, field="ts")
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ParseError("timestamp is not finite", line=line, field="ts")
        return round(float(value) * 1e6)
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise ParseError("empty timestamp", line=line, field="ts")
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            try:
                return _micros_from_ts(float(text), line)
            except (ValueError, ParseError):
                raise ParseError(f"unparseable timestamp {text!r}", line=line, field="ts") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        delta = dt - _EPOCH
        return (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds
    raise ParseError("timestamp must be a string or number", line=line, field="ts")


def _require_str(value: object, name: str, line: int) -> str:
    if not isinstance(value, str) or not value:
        raise ParseError(f"{name} must be a non-empty string", line=line, field=name)
    return value


def _require_count(value: object, name: str, line: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"{name} must be an integer", line=line, field=name) from None
        else:
            raise ParseError(f"{name} must be an integer", line=line, field=name)
    if value < 0:
        raise ParseError(f"{name} must be >= 0", line=line, field=name)
    return int(value)


def _require_tags(raw: object, line: int) -> frozenset[str]:
    if isinstance(raw, str):
        parts = raw.split("|") if raw else []
    elif isinstance(raw, list):
        parts = raw
    else:
        raise ParseError("tags must be a list of strings", line=line, field="tags")
    if not parts:
        raise ParseError("record has no tags", line=line, field="tags")
    for t in parts:
        if not isinstance(t, str) or not t:
            raise ParseError("tags must be non-empty strings", line=line, field="tags")
    return frozenset(parts)


def _records_from_jsonl(path: Path) -> list[tuple[int, dict]]:
    out = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
            if not isinstance(rec, dict):
                raise ParseError("record must be a JSON object", line=lineno)
            out.append((lineno, rec))
    return out


def _records_from_csv(path: Path) -> list[tuple[int, dict]]:
    out = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        missing = [c for c in _CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing column(s): {', '.join(missing)}", line=1)
        for rec in reader:
            if rec.get(None):
                raise ParseError("too many fields", line=reader.line_num)
            out.append((reader.line_num, rec))
    return out


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".json", ".ndjson"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise ValueError(f"cannot infer format from {path.name!r}; "
                     "expected .jsonl, .json, .ndjson or .csv")


def reference_parse_events(path: str | Path) -> EventStream:
    """Read upload records and normalize times to days since the earliest record.

    The suffix names the format: JSON lines (.jsonl, .json, .ndjson) or CSV.
    Records need video_id, ts (ISO-8601 or epoch seconds), uploader_id, tags,
    views, and comments.  Events are sorted by (upload_time, video_id); the
    horizon is the last event time.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such input file: {path}")
    fmt = _infer_format(path)
    raw = _records_from_jsonl(path) if fmt == "jsonl" else _records_from_csv(path)
    if not raw:
        raise ParseError(f"empty input file: {path}")

    seen: dict[str, int] = {}
    parsed = []
    for lineno, rec in raw:
        vid = _require_str(rec.get("video_id"), "video_id", lineno)
        if vid in seen:
            raise ParseError(
                f"duplicate video_id {vid!r} (first seen at line {seen[vid]})", line=lineno,
                field="video_id")
        seen[vid] = lineno
        micros = _micros_from_ts(rec.get("ts"), lineno)
        uploader = _require_str(rec.get("uploader_id"), "uploader_id", lineno)
        tags = _require_tags(rec.get("tags"), lineno)
        views = _require_count(rec.get("views"), "views", lineno)
        comments = _require_count(rec.get("comments"), "comments", lineno)
        parsed.append((vid, micros, uploader, tags, views, comments))

    base = min(p[1] for p in parsed)
    events = tuple(sorted(
        (Event(vid, (micros - base) / MICROS_PER_DAY, uploader, tags, views, comments)
         for vid, micros, uploader, tags, views, comments in parsed),
        key=lambda e: (e.upload_time, e.video_id)))
    return EventStream(origin=base / 1e6, events=events,
                       horizon_T=float(events[-1].upload_time))
