"""Shared likelihood maximizer: quasi-Newton ascent, a Newton polish, and a
simplex for the points the polish cannot certify.

Parameters live in log space so positivity is structural.  The objective is
``fun(x) -> (f, g)``: the negated value and its gradient, from one body.
Each stage takes what it needs of that pair: L-BFGS-B both, the polish the
gradients, Nelder-Mead the values.

Every fit takes one of three routes, recorded in ``MaxResult.route``:

- ``lbfgsb``: L-BFGS-B stops with the gradient sup-norm below GRAD_TOL.
- ``lbfgsb+newton``: L-BFGS-B stops short of GRAD_TOL (typically on the
  relative reduction of f), and at most NEWTON_STEPS Newton steps finish the
  job.  Each step solves with a Hessian taken from central differences of
  the analytic gradient (h = HESS_STEP in log space, then symmetrized); it
  is taken only when that Hessian is positive definite and f does not rise
  by more than rounding.  Stepping goes on until the gradient sup-norm is
  below POLISH_TOL.
- ``lbfgsb+simplex``: the polish fails (indefinite Hessian, no descent, or
  still not below GRAD_TOL), so Nelder-Mead restarts from the polish's
  point.  On the measured corpora this happens on boundary fits (beta near
  its floor) and on the stalled line search of
  ``test_simplex_fallback_rescues_stalled_line_search``.

One convergence rule holds on every route: ``converged`` means the gradient
sup-norm at the returned point is below GRAD_TOL.

``scipy.optimize`` is loaded on first access to this module's ``minimize``
attribute (PEP 562), so a stage that never fits never pays its import.
Callers reach it through that attribute, so a wrapper set on it is used.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

GRAD_TOL = 1e-6
MAX_ITER = 500
NEWTON_STEPS = 3
HESS_STEP = 1e-6
POLISH_TOL = 1e-10
_RISE_TOL = 4.0 * sys.float_info.epsilon  # relative rise in f a Newton step may make


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


def _newton_polish(fun, x: np.ndarray, f: float, g: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, int]:
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


def maximize(fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
             x0: Sequence[float],
             bounds: Sequence[tuple[float, float]] | None = None) -> MaxResult:
    """Maximize the objective whose negation and gradient ``fun(x)`` returns."""
    minimize = _module.minimize
    x0 = np.asarray(x0, dtype=float)
    res = minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": MAX_ITER, "ftol": 1e-12, "gtol": GRAD_TOL})
    x, best, g, n_iter = np.asarray(res.x), float(res.fun), np.asarray(res.jac), int(res.nit)
    route = "lbfgsb"

    if np.max(np.abs(g)) >= GRAD_TOL:
        lo, hi = np.array(bounds, dtype=float).T if bounds else (-np.inf, np.inf)
        x, best, g, steps = _newton_polish(fun, x, best, g, lo, hi)
        n_iter += steps
        route = "lbfgsb+newton"
        if np.max(np.abs(g)) >= GRAD_TOL:
            route = "lbfgsb+simplex"
            res2 = minimize(lambda v: fun(v)[0], x, method="Nelder-Mead",
                            bounds=bounds,
                            options={"maxiter": MAX_ITER, "xatol": 1e-10, "fatol": 1e-12})
            n_iter += int(res2.nit)
            if res2.fun <= best:
                x, best = np.asarray(res2.x), float(res2.fun)
                g = np.asarray(fun(x)[1])

    grad_max = float(np.max(np.abs(g)))
    return MaxResult(x, -best, grad_max < GRAD_TOL, n_iter, route, grad_max)
