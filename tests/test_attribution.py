"""Triggering probabilities and the three-way activity decomposition."""

import math

import numpy as np
import pytest

from oracles import brute_attribution
from tagburst.attribution import (AttributionReport, attribution_report,
                                  exo_score, pop_score, self_score,
                                  triggering_probability)
from tagburst.hawkes import HawkesParams, fit_mle, make_fit_result
from tagburst.ingest import Event, EventStream
from tagburst.simulate import default_corpus_spec, make_synthetic_corpus
from tagburst.taggraph import GenreCluster, extract_clusters

P = HawkesParams(mu=0.5, beta=1.0, omega=2.0)


def make_cluster(times, uploaders, views=None, comments=None, cluster_id=0):
    views = views if views is not None else [0] * len(times)
    comments = comments if comments is not None else [0] * len(times)
    events = tuple(
        Event(f"v{k:03d}", float(t), u, frozenset({"tag"}), int(v), int(c))
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


class TestTriggeringProbability:
    def test_worked_example(self):
        assert triggering_probability(P, [1.0, 1.5], 0, 1) == pytest.approx(
            0.4238831152341709, rel=1e-15)

    def test_bounds_checked(self):
        for i, j in [(1, 1), (2, 1), (0, 5), (-1, 1)]:
            with pytest.raises(ValueError):
                triggering_probability(P, [1.0, 2.0, 3.0], i, j)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            triggering_probability(P, [2.0, 1.0], 0, 1)

    def test_simultaneous_pair_gets_full_kernel_weight(self):
        # index order breaks the tie: p = beta / (mu + beta)
        assert triggering_probability(P, [1.0, 1.0], 0, 1) == pytest.approx(
            1.0 / 1.5, rel=1e-15)

    def test_lies_in_unit_interval(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 10, size=30))
        for _ in range(50):
            j = int(rng.integers(1, 30))
            i = int(rng.integers(0, j))
            assert 0.0 <= triggering_probability(P, times, i, j) <= 1.0

    def test_column_sums_are_endogenous_fraction(self):
        # sum_i p_ij must equal (lambda_j - mu) / lambda_j to 1e-10
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = HawkesParams(float(rng.uniform(0.2, 2)), float(rng.uniform(0.1, 1.5)),
                             float(rng.uniform(0.5, 3)))
            times = np.sort(rng.uniform(0, 15, size=25))
            for j in (1, 10, 24):
                total = sum(triggering_probability(p, times, i, j) for i in range(j))
                lam_j = p.mu + p.beta * np.sum(np.exp(-p.omega * (times[j] - times[:j])))
                assert total == pytest.approx((lam_j - p.mu) / lam_j, abs=1e-10)


class TestSelfScore:
    def test_single_uploader_is_exactly_one(self):
        c = make_cluster([0.5, 1.0, 2.0, 3.5], ["u"] * 4)
        assert self_score(c, P) == 1.0

    def test_all_distinct_uploaders_is_exactly_zero(self):
        c = make_cluster([0.5, 1.0, 2.0, 3.5], ["a", "b", "c", "d"])
        assert self_score(c, P) == 0.0

    def test_matches_untruncated_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = random_cluster(rng, 40)
            uploaders = [e.uploader_id for e in c.events.events]
            psi = np.zeros(40)
            expected, _ = brute_attribution(
                P.mu, P.beta, P.omega, c.events.times, uploaders, psi, np.ones(40))
            assert self_score(c, P) == pytest.approx(expected, abs=1e-6)

    def test_requires_two_events_and_positive_beta(self):
        with pytest.raises(ValueError, match="endogenous"):
            self_score(make_cluster([1.0], ["u"]), P)
        with pytest.raises(ValueError, match="endogenous"):
            self_score(make_cluster([1.0, 2.0], ["u", "u"]),
                       HawkesParams(1.0, 0.0, 1.0))

    def test_vanishing_pairs_is_an_error(self):
        # omega so large every pair exceeds the truncation window
        c = make_cluster([0.0, 100.0], ["u", "u"])
        with pytest.raises(ValueError, match="vanish"):
            self_score(c, HawkesParams(1.0, 1.0, 5.0))


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
            assert pop_score(c, P) == pytest.approx(expected, abs=1e-6)

    def test_all_zero_popularity_scores_zero(self):
        # psi == 0 never exceeds the zero threshold (strict comparison)
        c = make_cluster([0.5, 1.0, 2.0], ["a", "b", "a"])
        assert pop_score(c, P) == 0.0

    def test_comment_weight_changes_the_score(self):
        times = [0.5, 1.0, 1.5, 2.0]
        uploaders = ["a", "b", "a", "b"]
        views = [0, 50, 100, 10]
        comments = [500, 0, 0, 0]
        c = make_cluster(times, uploaders, views, comments)
        assert pop_score(c, P, w_comments=0.0) != pop_score(c, P, w_comments=10.0)

    def test_negative_weight_rejected(self):
        c = make_cluster([0.5, 1.0], ["a", "b"])
        with pytest.raises(ValueError):
            pop_score(c, P, w_comments=-1.0)

    def test_all_time_average_differs_from_causal(self):
        # rising popularity: all-time averages exceed early causal ones
        times = [0.5, 1.0, 1.5, 2.0, 2.5]
        c = make_cluster(times, ["u"] * 5, views=[10, 20, 40, 80, 160])
        assert pop_score(c, P, causal=True) != pop_score(c, P, causal=False)

    def test_platform_reference_shifts_thresholds(self):
        times = [0.5, 1.0, 1.5, 2.0]
        cluster = make_cluster(times, ["u"] * 4, views=[50, 60, 70, 80])
        # same uploader's uploads elsewhere are far more popular
        other = make_cluster([0.1, 0.2], ["u", "u"], views=[5000, 6000], cluster_id=1)
        merged_events = tuple(sorted(
            cluster.events.events + other.events.events,
            key=lambda e: (e.upload_time, e.video_id)))
        # rename ids so the merged stream has no duplicates
        platform = EventStream(0.0, merged_events, 10.0)
        in_cluster = pop_score(cluster, P, reference=None)
        platform_wide = pop_score(cluster, P, reference=platform)
        assert platform_wide < in_cluster


class TestExoScore:
    def test_complement(self):
        assert exo_score(0.25, 0.5) == 0.25

    def test_sum_is_exactly_one(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s_self = float(rng.uniform(0, 1))
            s_pop = float(rng.uniform(0, 1))
            assert s_self + s_pop + exo_score(s_self, s_pop) == 1.0

    def test_can_go_negative_on_overlap(self):
        assert exo_score(0.9, 0.9) == pytest.approx(-0.8)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_inputs_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            exo_score(bad, 0.5)
        with pytest.raises(ValueError):
            exo_score(0.5, bad)


def fits_for(clusters):
    return {c.cluster_id: fit_mle(c.events.times, c.events.horizon_T)
            for c in clusters}


class TestReport:
    def synthetic_clusters(self):
        stream, _ = make_synthetic_corpus(default_corpus_spec(), T=150.0, seed=3)
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

    def test_missing_fit_is_an_error(self):
        clusters = self.synthetic_clusters()
        fits = fits_for(clusters)
        del fits[0]
        with pytest.raises(ValueError, match="missing fit"):
            attribution_report(clusters, fits)

    def test_unconverged_fit_marked_not_attributable(self):
        clusters = self.synthetic_clusters()
        fits = fits_for(clusters)
        bad = fits[0]
        fits[0] = make_fit_result(bad.model, bad.params, bad.log_likelihood,
                                  bad.n_params, converged=False, n_iterations=500)
        reports = attribution_report(clusters, fits)
        assert not reports[0].attributable
        assert reports[0].s_self is None and reports[0].s_exo is None
        assert "converge" in reports[0].note
        assert all(r.attributable for r in reports[1:])

    def test_zero_beta_marked_not_attributable(self):
        c = make_cluster([1.0, 2.0, 3.0], ["u", "u", "u"])
        fit = make_fit_result("hawkes", {"mu": 1.0, "beta": 0.0, "omega": 1.0},
                              -1.0, 3, True, 5)
        reports = attribution_report([c], {0: fit})
        assert reports == [AttributionReport(
            0, None, None, None, 0, 1.0, attributable=False,
            note="not attributable: no endogenous mass")]

    def test_effectively_poisson_fit_marked_not_attributable(self):
        # beta is noise next to mu: shares of its pair mass would mean nothing
        c = make_cluster([1.0, 1.5, 2.0, 2.5], ["u", "u", "v", "v"], views=[5, 50, 5, 50])
        params = {"mu": 1.0, "beta": 1e-9, "omega": 2.0}
        noisy = make_fit_result("hawkes", params, -1.0, 3, True, 5,
                                warnings=["effectively_poisson"])
        r = attribution_report([c], {0: noisy})[0]
        assert not r.attributable
        assert r.s_self is None and r.s_pop is None and r.s_exo is None
        assert r.note.startswith("not attributable: ") and "Poisson" in r.note
        plain = make_fit_result("hawkes", params, -1.0, 3, True, 5)
        assert attribution_report([c], {0: plain})[0].attributable

    def test_negative_exogenous_share_noted_not_renormalized(self):
        # one uploader with rising popularity: self and popularity overlap
        c = make_cluster([0.5, 1.0, 1.5, 2.0, 2.5], ["u"] * 5,
                         views=[10, 20, 40, 80, 160])
        fit = make_fit_result("hawkes", {"mu": 0.2, "beta": 1.5, "omega": 2.0},
                              -1.0, 3, True, 5)
        reports = attribution_report([c], {0: fit})
        r = reports[0]
        assert r.s_self == 1.0
        assert r.s_exo < 0.0
        assert "negative exogenous" in r.note
        assert r.s_self + r.s_pop + r.s_exo == 1.0

    def test_bad_pop_scope_rejected(self):
        clusters = self.synthetic_clusters()
        with pytest.raises(ValueError, match="pop_scope"):
            attribution_report(clusters, fits_for(clusters), pop_scope="global")

    def test_cluster_scope_changes_shares(self):
        # uploader "u" is modest here but hugely popular in the other cluster,
        # so platform-wide averages raise their threshold
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
        fit = make_fit_result("hawkes", {"mu": 0.3, "beta": 1.0, "omega": 2.0},
                              -1.0, 3, True, 5)
        fits = {0: fit, 1: fit}
        platform = attribution_report(clusters, fits, pop_scope="platform")
        local = attribution_report(clusters, fits, pop_scope="cluster")
        assert platform[0].s_pop < local[0].s_pop
