"""Time ``hawkes.log_likelihood_gradient`` on one cluster at its fitted parameters.

    python3 perfbench/probe.py INPUT_JSON

INPUT_JSON holds ``{"times": [...], "T": ..., "mu": ..., "beta": ..., "omega": ...}``.
Prints one JSON line: the median over BATCHES batches of the time of one call
per event, in microseconds, or the hook that did not resolve.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

BATCHES = 7
BATCH_SECONDS = 0.05


def main(path: str) -> int:
    try:
        from tagburst.hawkes import HawkesParams, log_likelihood_gradient
    except ImportError:
        print(json.dumps({"missing": "tagburst.hawkes.log_likelihood_gradient"}))
        return 0
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    times, T = np.asarray(spec["times"], dtype=float), spec["T"]
    p = HawkesParams(mu=spec["mu"], beta=spec["beta"], omega=spec["omega"])

    start = time.perf_counter()
    log_likelihood_gradient(p, times, T)
    reps = max(1, int(BATCH_SECONDS / (time.perf_counter() - start)))
    per_call = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            log_likelihood_gradient(p, times, T)
        per_call.append((time.perf_counter() - start) / reps)
    print(json.dumps({"us_per_event": statistics.median(per_call) / len(times) * 1e6,
                      "calls": reps * BATCHES}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
