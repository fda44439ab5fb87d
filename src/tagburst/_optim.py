"""Shared likelihood maximizer: quasi-Newton ascent with a simplex fallback.

Parameters live in log space so positivity is structural.  Convergence means
the gradient sup-norm fell below GRAD_TOL or the final step below STEP_TOL
within MAX_ITER iterations; when the quasi-Newton pass stalls we restart
from its best point with derivative-free Nelder-Mead.

The objective is ``fun(x, grad)``: the negated (value, gradient) pair when
``grad`` is true, the negated value alone when it is false.  The simplex
asks only for values, so it never pays for a gradient.

``scipy.optimize`` is loaded on first access to this module's ``minimize``
attribute (PEP 562), so a stage that never fits never pays its import.
Callers reach it through that attribute, so a wrapper set on it is used.
"""

from __future__ import annotations

import sys
from typing import Callable, Sequence

import numpy as np

GRAD_TOL = 1e-6
STEP_TOL = 1e-9
MAX_ITER = 500


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


def maximize(fun: Callable[[np.ndarray, bool], tuple[float, np.ndarray] | float],
             x0: Sequence[float],
             bounds: Sequence[tuple[float, float]] | None = None,
             ) -> tuple[np.ndarray, float, bool, int]:
    """Maximize the objective whose negation ``fun(x, grad)`` returns.

    Returns (argmax, max value, converged flag, total iterations).
    """
    minimize = _module.minimize
    x0 = np.asarray(x0, dtype=float)
    trace: list[np.ndarray] = [x0.copy()]
    res = minimize(lambda v: fun(v, True), x0, jac=True, method="L-BFGS-B", bounds=bounds,
                   callback=lambda xk: trace.append(np.array(xk)),
                   options={"maxiter": MAX_ITER, "ftol": 1e-12, "gtol": GRAD_TOL})
    x, best, n_iter = np.asarray(res.x), float(res.fun), int(res.nit)
    gnorm = float(np.max(np.abs(res.jac)))
    step = float(np.max(np.abs(trace[-1] - trace[-2]))) if len(trace) >= 2 else np.inf
    converged = gnorm < GRAD_TOL or step < STEP_TOL

    if not converged:
        res2 = minimize(lambda v: fun(v, False), x, method="Nelder-Mead",
                        bounds=bounds,
                        options={"maxiter": MAX_ITER, "xatol": 1e-10, "fatol": 1e-12})
        n_iter += int(res2.nit)
        if res2.fun <= best:
            x, best = np.asarray(res2.x), float(res2.fun)
            # the gradient is needed only when the simplex hit its iteration cap
            converged = bool(res2.success) or \
                float(np.max(np.abs(fun(x, True)[1]))) < GRAD_TOL

    return x, -best, bool(converged), n_iter
