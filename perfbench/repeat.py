"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs the command in BENCHMARK.json once per workload and seed, from the
current directory, and reports for every metric the median and the
quartile spread (q3 - q1) / median, as ``statistics.quantiles(n=4)`` gives
the quartiles, against the metric's bound.  ``--out`` writes the summary
with the environment it was measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "git_sha": sha}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {"environment": environment(), "run_seconds": bench["run_seconds"],
               "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in declared}
        failed = attempted = 0
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = {} if args.trace else result["metrics"]
            print(f"{workload} seed {seed} ({wall:.0f} s): correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in shown.items()), flush=True)
        stats = {}
        for m in declared:
            v = values.get(m["name"], [])
            if len(v) < 2:
                stats[m["name"]] = {"values": v}
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else None
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": m.get("bound"), "values": v}
            if "bound" in m:
                flag = "ok" if spread < m["bound"] / 3 else (
                    "within bound" if spread <= m["bound"] else "TOO WIDE")
                print(f"  {m['name']:<14} median {med:.6g} {m['unit']:<3} "
                      f"spread {spread:.4f} bound {m['bound']} {flag}")
        summary["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                          "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
