"""Triggering probabilities and the three-way activity decomposition."""

import numpy as np
import pytest

from oracles import brute_attribution, uploader_mean_thresholds
from tagburst.attribution import AttributionReport, _pair_sums, attribution_report
from tagburst.hawkes import FitResult, HawkesParams, fit_mle
from tagburst.ingest import Event, EventStream
from tagburst.simulate import make_synthetic_corpus
from tagburst.taggraph import GenreCluster, extract_clusters

P = HawkesParams(mu=0.5, beta=1.0, omega=2.0)


def make_cluster(times, uploaders, views=None, comments=None, cluster_id=0):
    views = views if views is not None else [0] * len(times)
    comments = comments if comments is not None else [0] * len(times)
    events = tuple(
        Event(f"c{cluster_id}v{k:03d}", float(t), u, frozenset({"tag"}), int(v), int(c))
        for k, (t, u, v, c) in enumerate(zip(times, uploaders, views, comments)))
    stream = EventStream(origin=0.0, events=events,
                         horizon_T=float(times[-1]) + 1.0 if len(times) else 1.0)
    return GenreCluster(cluster_id=cluster_id, tags=frozenset({"tag"}), events=stream)


def random_cluster(rng, n, rate_span=20.0):
    times = np.sort(rng.uniform(0.0, rate_span, size=n))
    uploaders = [f"u{int(rng.integers(0, 4))}" for _ in range(n)]
    views = rng.integers(0, 200, size=n)
    comments = rng.integers(0, 30, size=n)
    return make_cluster(times, uploaders, views, comments)


def pair_probability(p, times, i, j):
    """p_ij from the attribution pass: its self numerator when only events i
    and j share an uploader."""
    uploaders = [f"u{k}" for k in range(len(times))]
    uploaders[i] = uploaders[j] = "shared"
    zeros = np.zeros(len(times))
    return _pair_sums(p, np.asarray(times, dtype=float), uploaders, zeros, zeros)[1]


def hawkes_fit(p=P):
    return FitResult("hawkes", {"mu": p.mu, "beta": p.beta, "omega": p.omega},
                     -1.0, 3, True, 5)


def report_for(cluster, p=P):
    [r] = attribution_report([cluster], {cluster.cluster_id: hawkes_fit(p)})
    return r


class TestTriggeringProbability:
    def test_worked_example(self):
        assert pair_probability(P, [1.0, 1.5], 0, 1) == pytest.approx(
            0.4238831152341709, rel=1e-15)

    def test_simultaneous_pair_gets_full_kernel_weight(self):
        # index order breaks the tie: p = beta / (mu + beta)
        assert pair_probability(P, [1.0, 1.0], 0, 1) == pytest.approx(
            1.0 / 1.5, rel=1e-15)

    def test_lies_in_unit_interval(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 10, size=30))
        for _ in range(50):
            j = int(rng.integers(1, 30))
            i = int(rng.integers(0, j))
            assert 0.0 <= pair_probability(P, times, i, j) <= 1.0

    def test_column_sums_are_endogenous_fraction(self):
        # sum_i p_ij must equal (lambda_j - mu) / lambda_j to 1e-10
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = HawkesParams(float(rng.uniform(0.2, 2)), float(rng.uniform(0.1, 1.5)),
                             float(rng.uniform(0.5, 3)))
            times = np.sort(rng.uniform(0, 15, size=25))
            for j in (1, 10, 24):
                total = sum(pair_probability(p, times, i, j) for i in range(j))
                lam_j = p.mu + p.beta * np.sum(np.exp(-p.omega * (times[j] - times[:j])))
                assert total == pytest.approx((lam_j - p.mu) / lam_j, abs=1e-10)


class TestSelfScore:
    def test_single_uploader_is_exactly_one(self):
        c = make_cluster([0.5, 1.0, 2.0, 3.5], ["u"] * 4)
        assert report_for(c).s_self == 1.0

    def test_all_distinct_uploaders_is_exactly_zero(self):
        c = make_cluster([0.5, 1.0, 2.0, 3.5], ["a", "b", "c", "d"])
        assert report_for(c).s_self == 0.0

    def test_matches_untruncated_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = random_cluster(rng, 40)
            uploaders = [e.uploader_id for e in c.events.events]
            psi = np.zeros(40)
            expected, _ = brute_attribution(
                P.mu, P.beta, P.omega, c.events.times, uploaders, psi, np.ones(40))
            assert report_for(c).s_self == pytest.approx(expected, abs=1e-6)

    def test_requires_two_events_and_positive_beta(self):
        for r in (report_for(make_cluster([1.0], ["u"])),
                  report_for(make_cluster([1.0, 2.0], ["u", "u"]),
                             HawkesParams(1.0, 0.0, 1.0))):
            assert not r.attributable and r.note == "not attributable: no endogenous mass"

    def test_vanishing_pairs_is_an_error(self):
        # omega so large every pair exceeds the truncation window
        c = make_cluster([0.0, 100.0], ["u", "u"])
        r = report_for(c, HawkesParams(1.0, 1.0, 5.0))
        assert not r.attributable and "vanish" in r.note


class TestPopScore:
    def test_matches_untruncated_enumeration_causal(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            c = random_cluster(rng, 35)
            events = c.events.events
            psi = np.array([e.n_views + 1.0 * e.n_comments for e in events])
            # causal thresholds: mean over the uploader's strictly earlier uploads
            thresholds = np.empty(35)
            running = {}
            for k, e in enumerate(events):
                total, count = running.get(e.uploader_id, (0.0, 0))
                thresholds[k] = total / count if count else 0.0
                running[e.uploader_id] = (total + psi[k], count + 1)
            _, expected = brute_attribution(
                P.mu, P.beta, P.omega, c.events.times,
                [e.uploader_id for e in events], psi, thresholds)
            assert report_for(c).s_pop == pytest.approx(expected, abs=1e-6)

    def test_all_zero_popularity_scores_zero(self):
        # psi == 0 never exceeds the zero threshold (strict comparison)
        c = make_cluster([0.5, 1.0, 2.0], ["a", "b", "a"])
        assert report_for(c).s_pop == 0.0

    def test_platform_reference_shifts_thresholds(self):
        # uploader "u" is modest here but far more popular in the other
        # cluster, so next to it the same cluster scores lower
        cluster = make_cluster([0.5, 1.0, 1.5, 2.0, 2.5], ["u"] * 5,
                               views=[50, 60, 70, 80, 90])
        other = make_cluster([0.1, 0.2, 0.3], ["u"] * 3, views=[5000] * 3, cluster_id=1)
        fits = {0: hawkes_fit(), 1: hawkes_fit()}
        alone = attribution_report([cluster], fits)[0]
        platform_wide = attribution_report([cluster, other], fits)[0]
        assert alone.s_pop > 0.0
        assert platform_wide.s_pop < alone.s_pop


class TestExoScore:
    """The exogenous share is the report's remainder 1 - (s_self + s_pop)."""

    def test_sum_is_exactly_one(self):
        rng = np.random.default_rng(17)
        fit = FitResult("hawkes", {"mu": P.mu, "beta": P.beta, "omega": P.omega},
                        -1.0, 3, True, 5)
        for _ in range(200):
            c = random_cluster(rng, int(rng.integers(2, 25)))
            [r] = attribution_report([c], {0: fit})
            assert r.attributable
            assert r.s_exo == 1.0 - (r.s_self + r.s_pop)
            assert r.s_self + r.s_pop + r.s_exo == 1.0


def fits_for(clusters):
    return {c.cluster_id: fit_mle(c.events.times, c.events.horizon_T)
            for c in clusters}


class TestReport:
    def synthetic_clusters(self):
        stream, _ = make_synthetic_corpus(T=150.0, seed=3)
        return extract_clusters(stream, 2)

    def test_shares_sum_to_one_exactly(self):
        clusters = self.synthetic_clusters()
        reports = attribution_report(clusters, fits_for(clusters))
        assert len(reports) == len(clusters)
        for r in reports:
            assert r.attributable
            assert r.s_self + r.s_pop + r.s_exo == 1.0
            assert 0.0 <= r.s_self <= 1.0 and 0.0 <= r.s_pop <= 1.0
            assert r.n_pairs_evaluated > 0

    def test_shares_are_python_floats(self):
        # AttributionReport declares float: no numpy scalar leaves the pair sums
        clusters = self.synthetic_clusters()
        reports = attribution_report(clusters, fits_for(clusters))
        assert reports and all(r.attributable for r in reports)
        for r in reports:
            assert (type(r.s_self), type(r.s_pop), type(r.s_exo)) == (float, float, float)

    def test_shares_equal_per_cluster_scores(self):
        # four uploaders post in all three clusters, so platform-wide averages
        # differ from each cluster's own
        rng = np.random.default_rng(37)
        clusters = []
        for cid in range(3):
            n = int(rng.integers(20, 60))
            events = tuple(sorted(
                (Event(f"c{cid}v{k:02d}", float(t), f"u{int(rng.integers(0, 4))}",
                       frozenset({f"g{cid}"}), int(rng.integers(0, 500 * (cid + 1))),
                       int(rng.integers(0, 30)))
                 for k, t in enumerate(rng.uniform(0.0, 30.0, size=n))),
                key=lambda e: (e.upload_time, e.video_id)))
            clusters.append(GenreCluster(cid, frozenset({f"g{cid}"}),
                                         EventStream(0.0, events, 30.0)))
        merged = sorted((e for c in clusters for e in c.events.events),
                        key=lambda e: (e.upload_time, e.video_id))
        fit = FitResult("hawkes", {"mu": 0.5, "beta": 1.0, "omega": 2.0},
                        -1.0, 3, True, 5)
        reports = attribution_report(clusters, {c.cluster_id: fit for c in clusters})

        def brute(c, reference):
            events = c.events.events
            return brute_attribution(
                P.mu, P.beta, P.omega, c.events.times, [e.uploader_id for e in events],
                np.array([e.n_views + e.n_comments for e in events]),
                uploader_mean_thresholds(events, reference))

        for c, r in zip(clusters, reports):
            s_self, s_pop = brute(c, merged)
            assert r.s_self == pytest.approx(s_self, abs=1e-12)
            assert r.s_pop == pytest.approx(s_pop, abs=1e-12)
        assert [r.s_pop for r in reports] != pytest.approx(
            [brute(c, c.events.events)[1] for c in clusters], abs=1e-12)

    def test_missing_fit_marked_not_attributable(self):
        clusters = self.synthetic_clusters()
        fits = fits_for(clusters)
        del fits[0]
        reports = attribution_report(clusters, fits)
        assert reports[0] == AttributionReport(
            0, None, None, None, 0, attributable=False,
            note="not attributable: no usable fit")
        assert all(r.attributable for r in reports[1:])

    def test_unconverged_fit_marked_not_attributable(self):
        clusters = self.synthetic_clusters()
        fits = fits_for(clusters)
        bad = fits[0]
        fits[0] = FitResult(bad.model, bad.params, bad.log_likelihood,
                            bad.n_params, converged=False, n_iterations=500)
        reports = attribution_report(clusters, fits)
        assert not reports[0].attributable
        assert reports[0].s_self is None and reports[0].s_exo is None
        assert "converge" in reports[0].note
        assert all(r.attributable for r in reports[1:])

    def test_zero_beta_marked_not_attributable(self):
        c = make_cluster([1.0, 2.0, 3.0], ["u", "u", "u"])
        fit = FitResult("hawkes", {"mu": 1.0, "beta": 0.0, "omega": 1.0},
                        -1.0, 3, True, 5)
        reports = attribution_report([c], {0: fit})
        assert reports == [AttributionReport(
            0, None, None, None, 0, attributable=False,
            note="not attributable: no endogenous mass")]

    def test_effectively_poisson_fit_marked_not_attributable(self):
        # beta is noise next to mu: shares of its pair mass would mean nothing
        c = make_cluster([1.0, 1.5, 2.0, 2.5], ["u", "u", "v", "v"], views=[5, 50, 5, 50])
        params = {"mu": 1.0, "beta": 1e-9, "omega": 2.0}
        noisy = FitResult("hawkes", params, -1.0, 3, True, 5,
                          warnings=("effectively_poisson",))
        r = attribution_report([c], {0: noisy})[0]
        assert not r.attributable
        assert r.s_self is None and r.s_pop is None and r.s_exo is None
        assert r.note.startswith("not attributable: ") and "Poisson" in r.note
        plain = FitResult("hawkes", params, -1.0, 3, True, 5)
        assert attribution_report([c], {0: plain})[0].attributable

    def test_cluster_scope_changes_shares(self):
        # a report over cluster 0 alone takes its thresholds from that cluster;
        # next to cluster 1, where uploader "u" is hugely popular, the
        # platform-wide averages rise and only the popularity share moves
        a_events = tuple(
            Event(f"a{k}", 0.5 * (k + 1), "u", frozenset({"x"}), 50 + 10 * k, 0)
            for k in range(5))
        b_events = tuple(
            Event(f"b{k}", 0.1 * (k + 1), "u", frozenset({"y"}), 5000, 0)
            for k in range(3))
        clusters = [
            GenreCluster(0, frozenset({"x"}), EventStream(0.0, a_events, 10.0)),
            GenreCluster(1, frozenset({"y"}), EventStream(0.0, b_events, 10.0)),
        ]
        fit = FitResult("hawkes", {"mu": 0.3, "beta": 1.0, "omega": 2.0},
                        -1.0, 3, True, 5)
        fits = {0: fit, 1: fit}
        [local] = attribution_report(clusters[:1], fits)
        platform = attribution_report(clusters, fits)[0]
        assert platform.s_pop < local.s_pop
        assert platform.s_self == local.s_self
        assert platform.s_self + platform.s_pop + platform.s_exo == 1.0

    def test_negative_exogenous_share_noted_not_renormalized(self):
        # one uploader with rising popularity: self and popularity overlap
        c = make_cluster([0.5, 1.0, 1.5, 2.0, 2.5], ["u"] * 5,
                         views=[10, 20, 40, 80, 160])
        fit = FitResult("hawkes", {"mu": 0.2, "beta": 1.5, "omega": 2.0},
                        -1.0, 3, True, 5)
        reports = attribution_report([c], {0: fit})
        r = reports[0]
        assert r.s_self == 1.0
        assert r.s_exo < 0.0
        assert "negative exogenous" in r.note
        assert r.s_self + r.s_pop + r.s_exo == 1.0
