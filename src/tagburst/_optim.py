"""The Hawkes fit's likelihood maximizer: projected Newton ascent on an
analytic Hessian, and a simplex search where the Newton point may not be
the best one.

Parameters live in log space so positivity is structural, inside a box.  The
objective is ``fun(x) -> (f, g, H)``: the negated value, its gradient and
its Hessian, from one body.  Newton takes all three, Nelder-Mead the values.

Newton runs projected on the box (Bertsekas 1982, SIAM J. Control Optim.
20:221).  A coordinate at a bound whose gradient points out of the box is
held there; the others, the free block, take the step -H_free^{-1} g_free.
Where H_free is not positive definite, a Levenberg shift
tau = max|g_free| - lambda_min is added to its diagonal, which keeps the
step along the worst direction near unit length.  An Armijo backtrack along
the projected path clip(x + t d) sets the step length.  Newton stops once
the free gradient's sup-norm is below GRAD_TOL and the Newton decrement
g^T H^{-1} g is below GRAD_TOL**2, or when no step in the backtrack lowers
f (or, where f is flat to rounding, the gradient's sup-norm).

Every fit takes one of two routes, recorded in ``MaxResult.route``:

- ``newton``: the Newton point, where the caller sees nothing to search.
- ``newton+simplex``: Newton stops short of GRAD_TOL, or the caller's
  ``unidentified(x)`` says the Newton point sits where a direction of the
  surface is not identified, so it can have separate basins (a Hawkes fit
  that comes out effectively Poisson leaves omega free).  Nelder-Mead runs
  from the Newton point; where it ends lower in f, Newton runs again from
  there.  The best point is kept.

One convergence rule holds on both routes: ``converged`` means the gradient
sup-norm at the returned point is below GRAD_TOL.

``scipy.optimize`` is loaded on first access to this module's ``minimize``
attribute (PEP 562), so a stage whose fits all take route ``newton`` never
pays its import.  Callers reach it through that attribute, so a wrapper set
on it is used.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

GRAD_TOL = 1e-6
MAX_ITER = 500
_ARMIJO = 1e-4  # share of the first-order decrease a step must realise
_BACKTRACKS = 30  # step halvings before the line search gives up
_ROUNDING = 4.0 * sys.float_info.epsilon  # relative change in f lost to rounding


def lazy_minimize(module_name: str) -> Callable[[str], object]:
    """A module ``__getattr__`` whose ``minimize`` is scipy's, imported on
    first access."""
    def __getattr__(name: str) -> object:
        if name == "minimize":
            from scipy.optimize import minimize
            return minimize
        raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
    return __getattr__


__getattr__ = lazy_minimize(__name__)
_module = sys.modules[__name__]


class MaxResult(NamedTuple):
    """The argmax and the objective's maximum, then how they were found."""

    x: np.ndarray
    value: float
    converged: bool
    n_iter: int
    route: str
    grad_max: float


def _newton(fun, x: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, int]:
    """Projected Newton descent on fun from x; returns the last point, its
    value and gradient, and the iterations taken."""
    f, g, H = fun(x)
    f = float(f)
    for it in range(MAX_ITER):
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        gf = g[free]
        if not np.any(gf):
            return x, f, g, it
        w, V = np.linalg.eigh(H[np.ix_(free, free)])
        shift = 0.0 if w[0] > 0 else float(np.max(np.abs(gf))) - w[0]
        d = np.zeros_like(x)
        d[free] = -V @ ((V.T @ gf) / (w + shift))
        if np.max(np.abs(gf)) < GRAD_TOL and -float(g @ d) < GRAD_TOL ** 2:
            return x, f, g, it
        t = 1.0
        for _ in range(_BACKTRACKS):
            x_new = np.clip(x + t * d, lo, hi)
            f_new, g_new, H_new = fun(x_new)
            if f_new < f and f_new <= f + _ARMIJO * float(g @ (x_new - x)):
                break
            # where f is flat to rounding, a smaller gradient is the progress
            if f_new <= f + _ROUNDING * abs(f) and np.max(np.abs(g_new)) < np.max(np.abs(g)):
                break
            t *= 0.5
        else:
            return x, f, g, it
        x, f, g, H = x_new, float(f_new), np.asarray(g_new), np.asarray(H_new)
    return x, f, g, MAX_ITER


def maximize(fun: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
             x0: Sequence[float],
             bounds: Sequence[tuple[float, float]] | None = None,
             unidentified: Callable[[np.ndarray], bool] | None = None) -> MaxResult:
    """Maximize the objective whose negation, gradient and Hessian ``fun(x)``
    returns; ``unidentified(x)`` asks for the simplex search at a Newton
    point that reaches GRAD_TOL."""
    lo, hi = np.array(bounds, dtype=float).T if bounds else (-np.inf, np.inf)
    x, best, g, n_iter = _newton(fun, np.asarray(x0, dtype=float), lo, hi)
    route = "newton"

    if np.max(np.abs(g)) >= GRAD_TOL or (unidentified is not None and unidentified(x)):
        route = "newton+simplex"
        res = _module.minimize(lambda v: fun(v)[0], x, method="Nelder-Mead", bounds=bounds,
                               options={"maxiter": MAX_ITER, "xatol": 1e-10, "fatol": 1e-12})
        n_iter += int(res.nit)
        if res.fun < best:
            x2, best2, g2, steps = _newton(fun, np.asarray(res.x), lo, hi)
            n_iter += steps
            if best2 <= best:
                x, best, g = x2, best2, g2

    grad_max = float(np.max(np.abs(g)))
    return MaxResult(x, -best, grad_max < GRAD_TOL, n_iter, route, grad_max)
