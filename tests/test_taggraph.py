"""Co-occurrence counting, pruning, components, and video assignment."""

import numpy as np
import pytest

from oracles import bfs_components, brute_pair_counts, vote_per_video
from tagburst.ingest import Event, EventStream
from tagburst.taggraph import (GenreCluster, TagGraph, assign_videos,
                               build_affinity_graph, connected_components,
                               extract_clusters, prune_graph, sweep_eta)


def make_stream(tag_sets, horizon=10.0):
    events = tuple(
        Event(f"v{i:03d}", float(i), f"u{i % 3}", frozenset(tags), 0, 0)
        for i, tags in enumerate(tag_sets))
    return EventStream(origin=0.0, events=events, horizon_T=max(horizon, len(events)))


def random_tag_sets(rng, n_videos, n_tags, max_per_video=4):
    universe = [f"t{i:02d}" for i in range(n_tags)]
    out = []
    for _ in range(n_videos):
        k = int(rng.integers(1, max_per_video + 1))
        out.append(set(rng.choice(universe, size=k, replace=False)))
    return out


class TestAffinityGraph:
    def test_counts_videos_sharing_both_tags(self):
        s = make_stream([{"a", "b"}, {"a", "b", "c"}, {"b", "c"}])
        g = build_affinity_graph(s)
        assert g.edges == {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 2}

    def test_k_tags_contribute_all_pairs(self):
        s = make_stream([{"a", "b", "c", "d"}])
        g = build_affinity_graph(s)
        assert len(g.edges) == 6
        assert all(w == 1 for w in g.edges.values())

    def test_single_tag_videos_add_nodes_but_no_edges(self):
        s = make_stream([{"solo"}, {"a", "b"}])
        g = build_affinity_graph(s)
        assert g.nodes == {"solo", "a", "b"}
        assert g.edges == {("a", "b"): 1}

    def test_matches_brute_force_on_random_corpus(self):
        rng = np.random.default_rng(7)
        tag_sets = random_tag_sets(rng, 50, 12)
        g = build_affinity_graph(make_stream(tag_sets))
        assert g.edges == brute_pair_counts(tag_sets)

    def test_symmetry_via_sorted_keys(self):
        s = make_stream([{"b", "a"}])
        g = build_affinity_graph(s)
        assert g.edges == {("a", "b"): 1}


class TestPruning:
    def test_eta_one_keeps_everything(self):
        g = TagGraph(frozenset("abc"), {("a", "b"): 1, ("b", "c"): 4})
        assert prune_graph(g, 1).edges == g.edges

    def test_edges_below_eta_dropped_nodes_kept(self):
        g = TagGraph(frozenset("abc"), {("a", "b"): 1, ("b", "c"): 4})
        pruned = prune_graph(g, 3)
        assert pruned.edges == {("b", "c"): 4}
        assert pruned.nodes == g.nodes

    @pytest.mark.parametrize("eta", [0, -2, 1.5, float("inf"), float("nan")])
    def test_invalid_eta_rejected(self, eta):
        g = TagGraph(frozenset("ab"), {("a", "b"): 1})
        with pytest.raises(ValueError, match="eta must be a positive integer"):
            prune_graph(g, eta)


class TestComponents:
    def test_two_triangles_with_isolated_node(self):
        edges = {("a", "b"): 1, ("b", "c"): 1, ("x", "y"): 1, ("y", "z"): 1}
        g = TagGraph(frozenset("abcxyz") | {"lone"}, edges)
        comps = connected_components(g)
        assert comps == [{"a", "b", "c"}, {"lone"}, {"x", "y", "z"}]

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            nodes = [f"n{i:02d}" for i in range(n)]
            edges = {}
            n_edges = int(rng.integers(0, 2 * n + 1)) if n >= 2 else 0
            for _ in range(n_edges):
                a, b = rng.choice(nodes, size=2, replace=False)
                key = (a, b) if a < b else (b, a)
                edges[key] = int(rng.integers(1, 9))
            g = TagGraph(frozenset(nodes), edges)
            assert connected_components(g) == bfs_components(nodes, list(edges))

    def test_ordering_is_deterministic(self):
        g = TagGraph(frozenset({"zz", "mm", "aa"}), {})
        assert connected_components(g) == [{"aa"}, {"mm"}, {"zz"}]


class TestAssignment:
    def test_plurality_wins(self):
        s = make_stream([{"a", "b", "x"}])
        clusters = assign_videos(s, [{"a", "b"}, {"x", "y"}])
        assert len(clusters) == 1
        assert clusters[0].tags == frozenset({"a", "b"})

    def test_tie_goes_to_component_with_smallest_tag(self):
        s = make_stream([{"a", "c"}])
        clusters = assign_videos(s, [{"c"}, {"a"}])
        assert clusters[0].tags == frozenset({"a"})

    def test_every_video_lands_in_exactly_one_cluster(self):
        rng = np.random.default_rng(5)
        s = make_stream(random_tag_sets(rng, 60, 10))
        clusters = extract_clusters(s, 2)
        assert sum(len(c.events) for c in clusters) == len(s)
        ids = [e.video_id for c in clusters for e in c.events.events]
        assert len(ids) == len(set(ids))

    def test_unknown_tag_is_an_error(self):
        s = make_stream([{"a", "mystery"}])
        with pytest.raises(ValueError, match="mystery"):
            assign_videos(s, [{"a"}])

    def test_overlapping_components_are_an_error(self):
        s = make_stream([{"a", "b"}])
        with pytest.raises(ValueError) as exc:
            assign_videos(s, [{"a", "b"}, {"b", "c"}])
        assert str(exc.value) == "components overlap on tag 'b'"

    def test_unknown_tag_error_names_first_video_carrying_it(self):
        s = make_stream([{"a"}, {"a", "b"}, {"a", "mystery"}, {"a", "mystery"}])
        with pytest.raises(ValueError) as exc:
            assign_videos(s, [{"a", "b"}])
        assert str(exc.value) == "video 'v002' has tag 'mystery' outside every component"

    def test_matches_per_video_vote_on_repeated_tag_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            # few distinct tag sets, many videos each; small components make ties common
            distinct = random_tag_sets(rng, int(rng.integers(2, 12)), 9)
            tag_sets = [distinct[int(k)] for k in rng.integers(0, len(distinct), 150)]
            tags = sorted(set().union(*tag_sets) | {"zz"})
            cut = np.sort(rng.choice(np.arange(1, len(tags)), size=3, replace=False))
            components = [set(part) for part in np.split(rng.permutation(tags), cut)]
            winners = vote_per_video(tag_sets, components)
            expected = [(components[ci], [f"v{i:03d}" for i, w in enumerate(winners)
                                          if w == ci])
                        for ci in sorted(set(winners))]
            clusters = assign_videos(make_stream(tag_sets), components)
            assert [(set(c.tags), [e.video_id for e in c.events.events])
                    for c in clusters] == expected
            assert [c.cluster_id for c in clusters] == list(range(len(expected)))

    def test_empty_components_dropped_and_ids_consecutive(self):
        s = make_stream([{"a"}, {"z"}])
        clusters = assign_videos(s, [{"a"}, {"m"}, {"z"}])
        assert [c.cluster_id for c in clusters] == [0, 1]
        assert [sorted(c.tags) for c in clusters] == [["a"], ["z"]]

    def test_cluster_streams_keep_origin_horizon_and_order(self):
        s = make_stream([{"a"}, {"b"}, {"a"}])
        clusters = assign_videos(s, [{"a"}, {"b"}])
        a = clusters[0].events
        assert a.origin == s.origin and a.horizon_T == s.horizon_T
        assert [e.video_id for e in a.events] == ["v000", "v002"]

    def test_partition_independent_of_input_order(self):
        rng = np.random.default_rng(13)
        tag_sets = random_tag_sets(rng, 40, 8)
        s1 = make_stream(tag_sets)
        s2 = make_stream(list(reversed(tag_sets)))
        # same tag sets must cluster together regardless of video order
        t1 = sorted(sorted(c.tags) for c in extract_clusters(s1, 2))
        t2 = sorted(sorted(c.tags) for c in extract_clusters(s2, 2))
        assert t1 == t2


class TestEtaBehavior:
    def test_component_count_monotone_in_eta(self):
        rng = np.random.default_rng(17)
        s = make_stream(random_tag_sets(rng, 80, 10))
        rows = sweep_eta(s, build_affinity_graph(s), range(1, 7))
        counts = [r["n_components"] for r in rows]
        assert counts == sorted(counts)

    def test_raising_eta_refines_the_partition(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            s = make_stream(random_tag_sets(np.random.default_rng(100 + trial), 50, 9))
            g = build_affinity_graph(s)
            coarse = connected_components(prune_graph(g, 1))
            for eta in (2, 3, 4):
                fine = connected_components(prune_graph(g, eta))
                for comp in fine:
                    assert any(comp <= parent for parent in coarse)
                coarse = fine

    def test_eta_above_every_weight_gives_singletons(self):
        s = make_stream([{"a", "b"}, {"a", "b"}])
        comps = connected_components(prune_graph(build_affinity_graph(s), 3))
        assert comps == [{"a"}, {"b"}]
