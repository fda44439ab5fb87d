"""Acceptance suite: ten go/no-go checks at pinned tolerances.

Each test prints one PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  Thresholds and trial counts are fixed; only the fixture
parameters (which are ours to choose) were tuned.
"""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import tagburst
from mc_reference import mc_expected_count
from oracles import (bfs_components, brute_attribution, central_difference, direct_log_likelihood,
                     drift_profile)
from tagburst.attribution import _pair_sums, attribution_report
from tagburst.baselines import _drift_dh, fit_poisson
from tagburst.forecast import (HORIZON_DAYS, SplitSpec, expected_count, holdout_log_likelihood,
                               split_stream)
from tagburst.hawkes import (FitResult, HawkesParams, fit_mle, log_likelihood,
                             log_likelihood_gradient, rescaled_residuals)
from tagburst.ingest import Event, EventStream
from tagburst.simulate import derive_seed, make_synthetic_corpus, simulate_hawkes
from tagburst.taggraph import (GenreCluster, TagGraph, build_affinity_graph,
                               connected_components, extract_clusters, prune_graph)


def report(criterion: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def random_params(rng) -> HawkesParams:
    return HawkesParams(mu=float(rng.uniform(0.1, 2.0)),
                        beta=float(rng.uniform(0.01, 2.5)),
                        omega=float(rng.uniform(0.3, 3.0)))


def test_01_likelihood_recursion_matches_quadratic_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p = random_params(rng)
        n = int(rng.integers(2, 501))
        T = float(rng.uniform(5.0, 50.0))
        times = np.sort(rng.uniform(0.0, T, size=n))
        fast = log_likelihood(p, times, T)
        slow = direct_log_likelihood(p.mu, p.beta, p.omega, times, T)
        worst = max(worst, abs(fast - slow) / abs(slow))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-8 and elapsed < 10.0,
           f"200 pairs, worst relative gap {worst:.2e} (limit 1e-8), "
           f"{elapsed:.1f}s (limit 10s)")


def test_02_analytic_gradients_match_central_differences():
    rng = np.random.default_rng(202)
    worst_h = 0.0
    for _ in range(50):
        p = random_params(rng)
        n = int(rng.integers(5, 120))
        T = float(rng.uniform(8.0, 30.0))
        times = np.sort(rng.uniform(0.0, T, size=n))
        grad = log_likelihood_gradient(p, times, T)
        num = central_difference(
            lambda v: log_likelihood(HawkesParams(*v), times, T),
            [p.mu, p.beta, p.omega], h=1e-6)
        worst_h = max(worst_h, float(np.max(np.abs(grad - num) / np.abs(num))))
    worst_d = 0.0
    for _ in range(50):
        T = float(rng.uniform(8.0, 30.0))
        b = float(rng.uniform(0.3, 2.0))
        slope = float(rng.uniform(-0.8, 1.5)) * b / T
        s = b / (b + slope * T + b)  # the drift fit's share of b + r at 0
        tau = np.sort(rng.uniform(0.0, T, size=int(rng.integers(5, 120)))) / T
        grad = _drift_dh(s, tau)
        num = central_difference(lambda v: drift_profile(v[0], tau, T), [s], h=1e-6)[0]
        worst_d = max(worst_d, abs(grad - num) / abs(num))
    worst = max(worst_h, worst_d)
    report(2, worst <= 1e-5,
           f"50+50 random points, worst relative gap {worst:.2e} (limit 1e-5)")


def test_03_mle_recovers_generating_parameters():
    true = HawkesParams(0.5, 0.8, 1.2)
    start = time.perf_counter()
    errs = {"mu": [], "beta": [], "omega": []}
    for seed in range(10):
        times = simulate_hawkes(true, 3333.0, seed)
        fit = fit_mle(times, 3333.0)
        for key, v in (("mu", true.mu), ("beta", true.beta), ("omega", true.omega)):
            errs[key].append(abs(fit.params[key] - v) / v)
    elapsed = time.perf_counter() - start
    medians = {k: float(np.median(v)) for k, v in errs.items()}
    worst = max(medians.values())
    report(3, worst <= 0.15 and elapsed < 120.0,
           f"10 streams of ~5000 events, median relative errors "
           f"mu={medians['mu']:.3f} beta={medians['beta']:.3f} "
           f"omega={medians['omega']:.3f} (limit 0.15), {elapsed:.0f}s (limit 120s)")


def test_04_aic_prefers_the_generating_model_family():
    p = HawkesParams(1.0, 1.2, 2.0)  # branching ratio 0.6
    hawkes_wins = 0
    min_n = 10 ** 9
    for seed in range(100):
        times = simulate_hawkes(p, 1000.0, seed)
        min_n = min(min_n, times.size)
        if fit_mle(times, 1000.0).aic < fit_poisson(times, 1000.0).aic:
            hawkes_wins += 1
    poisson_wins = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        times = np.sort(rng.uniform(0.0, 250.0, size=rng.poisson(500)))
        if fit_poisson(times, 250.0).aic <= fit_mle(times, 250.0).aic:
            poisson_wins += 1
    report(4, hawkes_wins >= 95 and poisson_wins >= 60 and min_n >= 2000,
           f"self-exciting data (n>={min_n}): hawkes wins {hawkes_wins}/100 "
           f"(need 95); flat data: poisson wins {poisson_wins}/100 (need 60)")


def test_05_attribution_normalization_oracle_and_exact_sum():
    rng = np.random.default_rng(505)
    worst_norm = 0.0
    for _ in range(40):
        p = random_params(rng)
        times = np.sort(rng.uniform(0.0, 15.0, size=int(rng.integers(3, 40))))
        expected = 0.0
        for j in range(1, times.size):
            lam_j = p.mu + p.beta * float(
                np.sum(np.exp(-p.omega * (times[j] - times[:j]))))
            expected += (lam_j - p.mu) / lam_j
        # the attribution pass's denominator is the sum of every p_ij
        den = _pair_sums(p, times, ["u"] * times.size, np.zeros(times.size),
                         np.zeros(times.size))[0]
        worst_norm = max(worst_norm, abs(den - expected))

    p = HawkesParams(0.5, 1.0, 2.0)
    fit = FitResult("hawkes", {"mu": p.mu, "beta": p.beta, "omega": p.omega},
                    -1.0, 3, True, 5)
    worst_score = 0.0
    for trial in range(8):
        r = np.random.default_rng(600 + trial)
        n = 40
        times = np.sort(r.uniform(0.0, 20.0, size=n))
        uploaders = [f"u{int(r.integers(0, 4))}" for _ in range(n)]
        views = r.integers(0, 200, size=n)
        events = tuple(Event(f"v{k:03d}", float(t), u, frozenset({"g"}), int(v), 0)
                       for k, (t, u, v) in enumerate(zip(times, uploaders, views)))
        cluster = GenreCluster(0, frozenset({"g"}),
                               EventStream(0.0, events, float(times[-1]) + 1.0))
        psi = views.astype(float)
        thresholds = np.empty(n)
        running = {}
        for k, u in enumerate(uploaders):
            tot, cnt = running.get(u, (0.0, 0))
            thresholds[k] = tot / cnt if cnt else 0.0
            running[u] = (tot + psi[k], cnt + 1)
        oracle_self, oracle_pop = brute_attribution(
            p.mu, p.beta, p.omega, times, uploaders, psi, thresholds)
        [shares] = attribution_report([cluster], {0: fit})
        worst_score = max(worst_score, abs(shares.s_self - oracle_self),
                          abs(shares.s_pop - oracle_pop))

    stream, _ = make_synthetic_corpus(T=150.0, seed=2)
    clusters = extract_clusters(stream, 2)
    fits = {c.cluster_id: fit_mle(c.events.times, c.events.horizon_T)
            for c in clusters}
    sums_exact = all(r.s_self + r.s_pop + r.s_exo == 1.0
                     for r in attribution_report(clusters, fits) if r.attributable)

    report(5, worst_norm <= 1e-10 and worst_score <= 1e-6 and sums_exact,
           f"normalization gap {worst_norm:.1e} (limit 1e-10), truncated-vs-full "
           f"gap {worst_score:.1e} (limit 1e-6), share sums exactly 1.0: {sums_exact}")


def test_06_forecast_calibration():
    p = HawkesParams(0.5, 0.8, 2.0)  # stationary rate mu/(1-br) = 0.8333...
    target = p.mu / (1.0 - p.branching_ratio)
    mean, _ = mc_expected_count(p, [], 0.0, 400.0, n_samples=300, seed=11)
    rel = abs(mean / 400.0 - target) / target

    q = HawkesParams(0.7, 0.0, 1.0)
    exact = expected_count(q, [1.0, 2.0, 3.0], 5.0, 9.0) == q.mu * 9.0

    report(6, rel <= 0.03 and exact,
           f"MC rate off stationary mean by {rel:.4f} (limit 0.03); "
           f"beta=0 forecast equals mu*dt exactly: {exact}")


def test_07_component_oracle_and_eta_refinement():
    rng = np.random.default_rng(707)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        nodes = [f"n{i:02d}" for i in range(n)]
        edges = {}
        for _ in range(int(rng.integers(0, 2 * n + 1)) if n >= 2 else 0):
            a, b = rng.choice(nodes, size=2, replace=False)
            edges[(a, b) if a < b else (b, a)] = int(rng.integers(1, 9))
        got = connected_components(TagGraph(frozenset(nodes), edges))
        if got != bfs_components(nodes, list(edges)):
            mismatches += 1

    refinement_ok = True
    universe = [f"t{i:02d}" for i in range(10)]
    for trial in range(20):
        r = np.random.default_rng(800 + trial)
        events = tuple(
            Event(f"v{k:03d}", float(k), "u",
                  frozenset(r.choice(universe, size=int(r.integers(1, 5)),
                                     replace=False)), 0, 0)
            for k in range(60))
        g = build_affinity_graph(EventStream(0.0, events, 60.0))
        coarse = connected_components(prune_graph(g, 1))
        for eta in (2, 3, 4, 5):
            fine = connected_components(prune_graph(g, eta))
            if not all(any(c <= parent for parent in coarse) for c in fine):
                refinement_ok = False
            coarse = fine

    report(7, mismatches == 0 and refinement_ok,
           f"100 random graphs vs reachability oracle: {mismatches} mismatches; "
           f"eta refinement held on all 20 corpora: {refinement_ok}")


def test_08_per_cluster_fits_beat_one_shared_fit():
    # Heterogeneous dynamics; the shared model fits the pooled training stream
    # and is then scored on each cluster's held-out window with the same data
    # and windows as the per-cluster fits.
    params = [HawkesParams(0.8, 0.5, 1.0), HawkesParams(0.25, 1.8, 2.25),
              HawkesParams(1.6, 0.2, 2.0)]
    T, train_days, horizon = 220.0, 60.0, HORIZON_DAYS
    spec = SplitSpec(train_days, T - horizon)
    offset = spec.split_point - train_days

    ll_wins = err_wins = usable = 0
    for seed in range(20):
        splits = []
        for idx, p in enumerate(params):
            stream = simulate_hawkes(p, T, derive_seed(seed, idx))
            train, test = split_stream(stream, spec)
            splits.append((train - offset, test - offset))
        pooled = np.sort(np.concatenate([tr for tr, _ in splits]))
        shared = fit_mle(pooled, train_days)
        fits = [fit_mle(tr, train_days) for tr, _ in splits]
        if shared.branching_ratio >= 1 or any(f.branching_ratio >= 1 for f in fits):
            continue  # forecasting refuses supercritical fits; seed unusable
        usable += 1
        sp = HawkesParams(**shared.params)
        per_ll = shared_ll = per_err = shared_err = 0.0
        for idx, ((train, test), fit) in enumerate(zip(splits, fits)):
            cp = HawkesParams(**fit.params)
            per_ll += holdout_log_likelihood(cp, train, test, train_days,
                                             train_days + horizon)
            shared_ll += holdout_log_likelihood(sp, train, test, train_days,
                                                train_days + horizon)
            mc_c, _ = mc_expected_count(cp, train, train_days, horizon,
                                        n_samples=200, seed=derive_seed(seed, 10 + idx))
            mc_s, _ = mc_expected_count(sp, train, train_days, horizon,
                                        n_samples=200, seed=derive_seed(seed, 20 + idx))
            per_err += abs(mc_c - test.size)
            shared_err += abs(mc_s - test.size)
        if per_ll >= shared_ll:
            ll_wins += 1
        if per_err / 3.0 < shared_err / 3.0:
            err_wins += 1

    report(8, usable == 20 and ll_wins >= 18 and err_wins >= 14,
           f"20 seeds ({usable} usable): held-out loglik wins {ll_wins}/20 "
           f"(need 18), lower mean abs forecast error {err_wins}/20 (need 14)")


def test_09_rescaled_residuals_pass_ks_against_unit_exponential():
    p = HawkesParams(0.5, 0.8, 1.2)
    passes = 0
    for seed in range(100):
        times = simulate_hawkes(p, 600.0, seed)
        if stats.kstest(rescaled_residuals(p, times), "expon").pvalue >= 0.01:
            passes += 1
    report(9, passes >= 90, f"KS at alpha=0.01: {passes}/100 streams pass (need 90)")


def test_10_cli_pipeline_smoke(tmp_path):
    # the stages run the package under test, whether or not it is installed,
    # and a numeric RuntimeWarning in any of them fails it, as it fails the suite
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(tagburst.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

    def pipeline(out: Path) -> None:
        events = str(out / "events.jsonl")
        steps = [
            ["simulate", "--out", str(out), "--seed", "0", "--t-days", "120"],
            ["cluster", "--input", events, "--out", str(out), "--eta", "2",
             "--sweep", "1:4"],
            ["fit", "--input", events, "--out", str(out)],
            ["forecast", "--input", events, "--out", str(out), "--train-days", "60",
             "--models", "arima_lite,hawkes,hawkes_global,nhpp_drift,pc_nhpp,poisson"],
            ["attribute", "--input", events, "--out", str(out)],
            ["report", "--input", events, "--out", str(out)],
        ]
        for step in steps:
            proc = subprocess.run([sys.executable, "-m", "tagburst", *step],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"

    start = time.perf_counter()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    pipeline(run_a)
    pipeline(run_b)
    elapsed = time.perf_counter() - start

    artifacts = ["events.jsonl", "ground_truth.json", "eta_sweep.csv", "assignments.csv",
                 "clusters.json", "fits.json", "forecast.csv", "forecast.json",
                 "attribution.json", "attribution_factors.csv", "aic_diff.csv",
                 "factors.csv", "weekly_counts.csv", "report.json"]
    missing = [a for a in artifacts if not (run_a / a).is_file()]
    names = sorted({p.name for run in (run_a, run_b) for p in run.iterdir()})
    differing = [name for name in names
                 if not ((run_a / name).is_file() and (run_b / name).is_file()
                         and (run_a / name).read_bytes() == (run_b / name).read_bytes())]
    json.loads((run_a / "report.json").read_text())  # must be valid JSON
    with (run_a / "forecast.csv").open(newline="") as fh:
        not_ok = [(r["cluster_id"], r["model"], r["status"])
                  for r in csv.DictReader(fh) if r["status"] != "ok"]

    report(10, not missing and not differing and not not_ok and elapsed < 60.0,
           f"two pipeline runs in {elapsed:.1f}s (limit 60s), missing: {missing}, "
           f"{len(names)} files, differing: {differing}, forecast rows not ok: {not_ok}")
