"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (quadratic sums, BFS, explicit
enumeration) so it cannot share a bug with the package's fast paths.
"""

import math
from collections import deque
from itertools import combinations

import numpy as np


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
    lam(t) = slope * t + intercept, which must be positive on [0, T]."""
    if intercept <= 0 or slope * T + intercept <= 0:
        raise ValueError("rate must stay positive at both window endpoints")
    lam = slope * np.asarray(times, dtype=float) + intercept
    return float(np.sum(np.log(lam))) - (0.5 * slope * T * T + intercept * T)


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


def expected_count_by_quadrature(mu, beta, omega, history, t, delta_t, n_grid=200001):
    """Integrate the history-only intensity over (t, t+delta_t] numerically."""
    grid = np.linspace(t, t + delta_t, n_grid)
    history = np.asarray(history, dtype=float)
    lam = mu + beta * np.sum(np.exp(-omega * (grid[:, None] - history[None, :])), axis=1)
    return np.trapezoid(lam, grid)


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


def loop_decay_state(times, omega):
    """Decay sums A_i and B_i = -dA_i/domega by the plain per-step loop that
    stores each value through numpy indexing."""
    n = times.size
    A = np.zeros(n)
    B = np.zeros(n)
    ts = times.tolist()
    a = b = 0.0
    for i in range(1, n):
        d = ts[i] - ts[i - 1]
        r = math.exp(-omega * d)
        b = r * (b + d * (a + 1.0))  # uses the previous a
        a = r * (a + 1.0)
        A[i] = a
        B[i] = b
    return A, B


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
    res = minimize(lambda v: fun(v, True), x0, jac=True, method="L-BFGS-B", bounds=bounds,
                   callback=lambda xk: trace.append(np.array(xk)),
                   options={"maxiter": max_iter, "ftol": 1e-12, "gtol": grad_tol})
    x, best, n_iter = np.asarray(res.x), float(res.fun), int(res.nit)
    gnorm = float(np.max(np.abs(res.jac)))
    step = float(np.max(np.abs(trace[-1] - trace[-2]))) if len(trace) >= 2 else np.inf
    converged = gnorm < grad_tol or step < STEP_TOL

    if not converged:
        res2 = minimize(lambda v: fun(v, False), x, method="Nelder-Mead",
                        bounds=bounds,
                        options={"maxiter": max_iter, "xatol": 1e-10, "fatol": 1e-12})
        n_iter += int(res2.nit)
        if res2.fun <= best:
            x, best = np.asarray(res2.x), float(res2.fun)
            # the gradient is needed only when the simplex hit its iteration cap
            converged = bool(res2.success) or \
                float(np.max(np.abs(fun(x, True)[1]))) < grad_tol

    return x, -best, bool(converged), n_iter
