"""tagburst: genre-cluster discovery and self-exciting burst modeling for
tagged upload streams.

The pipeline: parse tagged events, cluster tags by co-occurrence, fit a
self-exciting point process per cluster, benchmark against Poisson-family
and ARIMA baselines by aic, forecast held-out counts, and attribute
activity to self-reinforcement, popularity, and exogenous factors.
Import each name from its module, as in ``from tagburst.hawkes import
fit_mle``; the package itself holds only ``__version__``.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` in ``os.environ``
unless it is already set.  That limits OpenBLAS in this process, if numpy was
not imported before, and in every child process it starts.  Set the variable
before the import to keep another number.
"""

import os

# Every matrix the package factors is at most 5x5, yet numpy and scipy each
# start an OpenBLAS worker thread per extra core, and the workers spin.  On a
# 2-core host the quickstart benchmark's fit stage used 1.28 s of CPU for
# 0.90 s of wall time with the default and 0.83 s for 0.83 s with one thread
# (forecast: 1.96 s for 1.24 s against 1.08 s for 1.08 s), output bytes
# unchanged.  It works only if numpy is not loaded yet; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
