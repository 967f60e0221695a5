"""Tests for edge betweenness, group betweenness and co-betweenness."""

from __future__ import annotations

import random

import pytest

from reference import all_shortest_paths, reference_co_betweenness, reference_edge_betweenness
from repro.errors import ConfigurationError
from repro.exact import (
    betweenness_of_vertex,
    co_betweenness_centrality,
    edge_betweenness_centrality,
    greedy_prominent_group,
    group_betweenness_centrality,
    top_edge,
)
from repro.graphs import Graph, cycle_graph, grid_graph
from repro.graphs.io import to_networkx


def random_graph(seed: int, weighted: bool) -> Graph:
    """A small seeded random graph, possibly disconnected, with pendant decorations."""
    rng = random.Random(seed)
    graph = Graph(weighted=weighted)
    n = rng.randint(6, 13)
    for v in range(n):
        graph.add_vertex(v)
    for _ in range(int(1.6 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, rng.choice([0.5, 1.0, 1.5, 2.0]) if weighted else 1.0)
    for leaf in range(n, n + rng.randint(0, 4)):
        graph.add_edge(rng.randrange(leaf), leaf, rng.choice([1.0, 2.0]) if weighted else 1.0)
    return graph


RANDOM_CASES = [(seed, seed % 2 == 1) for seed in range(24)]


class TestEdgeBetweenness:
    def test_path_graph_values(self, path5):
        scores = edge_betweenness_centrality(path5, normalized=False)
        # ordered-pair counts: edge (0,1) carries 2*1*4 = 8
        assert scores[(0, 1)] == pytest.approx(8.0)
        assert scores[(1, 2)] == pytest.approx(12.0)

    def test_matches_networkx(self, small_ba):
        import networkx as nx

        ours = edge_betweenness_centrality(small_ba, normalized=False)
        theirs = nx.edge_betweenness_centrality(to_networkx(small_ba), normalized=False)
        for edge, value in theirs.items():
            key = tuple(sorted(edge))
            assert ours[key] == pytest.approx(2.0 * value)

    def test_every_edge_reported(self, barbell):
        scores = edge_betweenness_centrality(barbell)
        assert len(scores) == barbell.number_of_edges()

    def test_top_edge_is_bridge(self, barbell):
        u, v = top_edge(barbell)
        assert {u, v} == {5, 6}

    def test_top_edge_requires_edges(self):
        g = Graph()
        g.add_vertex(0)
        with pytest.raises(ConfigurationError):
            top_edge(g)

    @pytest.mark.parametrize("seed,weighted", RANDOM_CASES)
    def test_matches_dict_reference(self, seed, weighted):
        graph = random_graph(seed, weighted)
        ours = edge_betweenness_centrality(graph, normalized=False)
        reference = reference_edge_betweenness(graph)
        assert len(ours) == graph.number_of_edges()
        for (u, v), value in ours.items():
            assert value == pytest.approx(reference.get(frozenset((u, v)), 0.0), rel=1e-12, abs=0.0)

    def test_directed_matches_dict_reference(self):
        rng = random.Random(8)
        graph = Graph(directed=True)
        for _ in range(40):
            u, v = rng.randrange(12), rng.randrange(12)
            if u != v:
                graph.add_edge(u, v)
        ours = edge_betweenness_centrality(graph, normalized=False)
        reference = reference_edge_betweenness(graph)
        for edge, value in ours.items():
            assert value == pytest.approx(reference.get(edge, 0.0), rel=1e-12, abs=0.0)

    def test_normalized_scores_bounded(self, barbell):
        scores = edge_betweenness_centrality(barbell, normalized=True)
        assert all(0.0 <= s <= 1.0 for s in scores.values())


class TestGroupBetweenness:
    def test_single_vertex_group_matches_vertex_betweenness(self, barbell):
        group_score = group_betweenness_centrality(barbell, [5])
        assert group_score == pytest.approx(betweenness_of_vertex(barbell, 5))

    def test_bridge_group_closed_form(self, barbell):
        # With both bridge vertices in the group, the remaining pairs that
        # cross the bridge are exactly (left clique) x (right clique):
        # 5 * 5 unordered pairs, 50 ordered, each fully dependent on the group.
        group_score = group_betweenness_centrality(barbell, [5, 6], normalized=False)
        assert group_score == pytest.approx(50.0)

    def test_matches_networkx_group_betweenness(self, small_ba):
        import networkx as nx

        group = [0, 1]
        ours = group_betweenness_centrality(small_ba, group, normalized=False)
        theirs = nx.group_betweenness_centrality(
            to_networkx(small_ba), group, normalized=False
        )
        # networkx counts unordered pairs; ours counts ordered pairs.
        assert ours == pytest.approx(2.0 * theirs, rel=1e-9)

    def test_star_leaves_group_is_zero(self, star6):
        assert group_betweenness_centrality(star6, [1, 2, 3]) == 0.0

    def test_empty_group_rejected(self, star6):
        with pytest.raises(ConfigurationError):
            group_betweenness_centrality(star6, [])

    def test_duplicate_members_collapsed(self, barbell):
        a = group_betweenness_centrality(barbell, [5, 5, 6])
        b = group_betweenness_centrality(barbell, [5, 6])
        assert a == pytest.approx(b)


class TestCoBetweenness:
    def test_pair_on_path(self, path5):
        # pairs of targets whose shortest path contains BOTH 1 and 2: (0,3), (0,4)
        value = co_betweenness_centrality(path5, [1, 2], normalized=False)
        assert value == pytest.approx(4.0)  # ordered pairs

    def test_single_member_equals_betweenness(self, barbell):
        assert co_betweenness_centrality(barbell, [5]) == pytest.approx(
            betweenness_of_vertex(barbell, 5)
        )

    def test_disjoint_star_leaves(self, star6):
        assert co_betweenness_centrality(star6, [1, 2]) == 0.0

    def test_co_betweenness_never_exceeds_group(self, path5):
        group = [1, 3]
        co = co_betweenness_centrality(path5, group)
        grp = group_betweenness_centrality(path5, group)
        assert co <= grp + 1e-12

    @pytest.mark.parametrize("seed,weighted", RANDOM_CASES)
    def test_equals_path_enumeration(self, seed, weighted):
        """Exact path counting gives the enumeration's value to the last bit,
        for random groups and for groups on one shortest path."""
        graph = random_graph(seed, weighted)
        rng = random.Random(seed)
        vertices = graph.vertices()
        groups = [rng.sample(vertices, rng.randint(2, 4))]
        s, t = rng.sample(vertices, 2)
        paths = all_shortest_paths(graph, s, t)
        if paths and len(paths[0]) >= 4:
            interior = paths[0][1:-1]
            groups.append(rng.sample(interior, min(len(interior), rng.randint(2, 4))))
        for group in groups:
            for normalized in (True, False):
                assert co_betweenness_centrality(
                    graph, group, normalized=normalized
                ) == reference_co_betweenness(graph, group, normalized=normalized)

    def test_path_groups_are_counted(self):
        # A group on a shortest path scores, and exactly as enumerated.
        graph = grid_graph(4, 4)
        value = co_betweenness_centrality(graph, [5, 10])
        assert value > 0.0
        assert value == reference_co_betweenness(graph, [5, 10])

    def test_disconnected_pair(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        assert co_betweenness_centrality(graph, [1, 5]) == 0.0
        assert reference_co_betweenness(graph, [1, 5]) == 0.0
        assert co_betweenness_centrality(graph, [1, 2]) == reference_co_betweenness(graph, [1, 2])
        assert co_betweenness_centrality(graph, [1, 2]) > 0.0

    def test_members_at_equal_distance(self, path5):
        # From source 2 the members 1 and 3 sit at equal distance, so no path
        # from 2 meets both; only the pairs (0, 4) and (4, 0) count.
        assert co_betweenness_centrality(path5, [1, 3], normalized=False) == 2.0
        assert reference_co_betweenness(path5, [1, 3], normalized=False) == 2.0
        # On the 6-cycle (diameter 3) no shortest path holds both 1 and 5.
        assert co_betweenness_centrality(cycle_graph(6), [1, 5]) == 0.0
        assert reference_co_betweenness(cycle_graph(6), [1, 5]) == 0.0


class TestProminentGroup:
    def test_greedy_picks_bridge_first(self, barbell):
        group = greedy_prominent_group(barbell, 1)
        assert group[0] in (5, 6)

    def test_greedy_group_size(self, path5):
        assert len(greedy_prominent_group(path5, 2)) == 2

    def test_greedy_validation(self, path5):
        with pytest.raises(ConfigurationError):
            greedy_prominent_group(path5, 0)
        with pytest.raises(ConfigurationError):
            greedy_prominent_group(path5, 99)
