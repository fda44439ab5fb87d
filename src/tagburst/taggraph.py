"""Tag co-occurrence graph and genre-cluster extraction.

Edges count how many videos carry both endpoint tags.  Pruning drops edges
below an integer threshold eta; connected components of the pruned graph
define genre candidates; each video joins the component holding the
plurality of its tags.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .ingest import EventStream

__all__ = [
    "TagGraph",
    "GenreCluster",
    "build_affinity_graph",
    "prune_graph",
    "connected_components",
    "assign_videos",
    "extract_clusters",
    "assignment_rows",
    "cluster_summaries",
    "sweep_eta",
]


@dataclass(frozen=True)
class TagGraph:
    """Undirected weighted graph; edge keys are sorted tag pairs."""

    nodes: frozenset[str]
    edges: dict[tuple[str, str], int]

    def weight(self, t1: str, t2: str) -> int:
        if t1 == t2:
            return 0
        key = (t1, t2) if t1 < t2 else (t2, t1)
        return self.edges.get(key, 0)


@dataclass(frozen=True)
class GenreCluster:
    cluster_id: int
    tags: frozenset[str]
    events: EventStream


def build_affinity_graph(s: EventStream) -> TagGraph:
    """Count, for every unordered tag pair, the videos carrying both tags."""
    weights: Counter[tuple[str, str]] = Counter()
    nodes: set[str] = set()
    for e in s.events:
        nodes.update(e.tags)
        for pair in combinations(sorted(e.tags), 2):
            weights[pair] += 1
    return TagGraph(frozenset(nodes), dict(weights))


def _check_eta(eta: int) -> int:
    """eta as an int; raises unless it is a positive integer."""
    if int(eta) != eta or eta < 1:
        raise ValueError(f"eta must be a positive integer, got {eta!r}")
    return int(eta)


def prune_graph(g: TagGraph, eta: int) -> TagGraph:
    """Drop edges with weight < eta; nodes are kept even if isolated."""
    eta = _check_eta(eta)
    return TagGraph(g.nodes, {k: w for k, w in g.edges.items() if w >= eta})


def connected_components(g: TagGraph) -> list[set[str]]:
    """Components of the graph, ordered by their lexicographically smallest tag."""
    adjacent: dict[str, list[str]] = {node: [] for node in g.nodes}
    for a, b in g.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    unseen = set(g.nodes)
    components = []
    while unseen:
        component = [unseen.pop()]
        for node in component:  # breadth first: the list grows while it is read
            for neighbour in adjacent[node]:
                if neighbour in unseen:
                    unseen.remove(neighbour)
                    component.append(neighbour)
        components.append(set(component))
    return sorted(components, key=min)


def assign_videos(s: EventStream, components: Sequence[set[str]]) -> list[GenreCluster]:
    """Assign each video to the component holding most of its tags.

    Ties go to the component containing the smallest tag among the tied
    components.  Components that end up with no videos are dropped; surviving
    clusters are renumbered 0..m-1 in component order.
    """
    tag_to_comp: dict[str, int] = {}
    for ci, comp in enumerate(components):
        for t in comp:
            if t in tag_to_comp:
                raise ValueError(f"components overlap on tag {t!r}")
            tag_to_comp[t] = ci

    smallest = [min(comp, default="") for comp in components]
    winner_of: dict[frozenset[str], int] = {}  # videos sharing a tag set vote alike
    members: dict[int, list] = {}
    for e in s.events:
        winner = winner_of.get(e.tags)
        if winner is None:
            votes: Counter[int] = Counter()
            for t in e.tags:
                ci = tag_to_comp.get(t)
                if ci is None:
                    raise ValueError(
                        f"video {e.video_id!r} has tag {t!r} outside every component")
                votes[ci] += 1
            top = max(votes.values())
            tied = [ci for ci, v in votes.items() if v == top]
            winner = winner_of[e.tags] = min(tied, key=smallest.__getitem__)
        members.setdefault(winner, []).append(e)

    clusters = []
    for ci in sorted(members):
        clusters.append(GenreCluster(
            cluster_id=len(clusters),
            tags=frozenset(components[ci]),
            events=EventStream(s.origin, tuple(members[ci]), s.horizon_T)))
    return clusters


def extract_clusters(s: EventStream, eta: int) -> list[GenreCluster]:
    """Full pipeline: affinity graph -> prune at eta -> components -> assignment."""
    graph = prune_graph(build_affinity_graph(s), eta)
    return assign_videos(s, connected_components(graph))


def assignment_rows(s: EventStream, clusters: Sequence[GenreCluster]) -> list[tuple[str, int]]:
    """(video_id, cluster_id) rows in stream order."""
    by_video = {e.video_id: c.cluster_id for c in clusters for e in c.events.events}
    return [(e.video_id, by_video[e.video_id]) for e in s.events]


def cluster_summaries(clusters: Sequence[GenreCluster]) -> list[dict]:
    return [{
        "cluster_id": c.cluster_id,
        "tags": sorted(c.tags),
        "n_events": len(c.events),
        "first_time": c.events.events[0].upload_time,
        "last_time": c.events.events[-1].upload_time,
    } for c in clusters]


def sweep_eta(s: EventStream, etas: Iterable[int]) -> list[dict]:
    """Component count and cluster-size distribution per pruning threshold."""
    graph = build_affinity_graph(s)
    rows = []
    for eta in etas:
        comps = connected_components(prune_graph(graph, eta))
        clusters = assign_videos(s, comps)
        sizes = [len(c.events) for c in clusters]
        rows.append({
            "eta": int(eta),
            "n_components": len(comps),
            "n_clusters": len(clusters),
            "min_events": min(sizes) if sizes else 0,
            "mean_events": sum(sizes) / len(sizes) if sizes else 0.0,
            "max_events": max(sizes) if sizes else 0,
        })
    return rows
