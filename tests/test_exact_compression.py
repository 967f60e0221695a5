"""Tests for degree-one compression and the exact reconstruction of betweenness."""

from __future__ import annotations

import random

import pytest

from reference import reference_core_betweenness
from repro.exact import (
    betweenness_centrality,
    betweenness_with_compression,
    compress_degree_one,
)
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    barbell_graph,
    binary_tree,
    lollipop_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.exact.compression import _weighted_core_betweenness


def decorated_graph(seed: int, weighted: bool) -> Graph:
    """A seeded random core with pendant chains and trees hung off it."""
    rng = random.Random(seed)
    graph = Graph(weighted=weighted)
    n = rng.randint(5, 12)
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, rng.choice([0.5, 1.0, 1.5, 2.0]) if weighted else 1.0)
    for leaf in range(n, n + rng.randint(1, 8)):
        graph.add_edge(rng.randrange(leaf), leaf, rng.choice([1.0, 3.0]) if weighted else 1.0)
    return graph


class TestCompressDegreeOne:
    def test_barbell_has_no_pendants(self, barbell):
        compressed = compress_degree_one(barbell)
        assert compressed.removed == []
        assert compressed.graph.number_of_vertices() == barbell.number_of_vertices()
        assert compressed.compression_ratio() == 1.0

    def test_star_collapses_to_two_vertices(self, star6):
        compressed = compress_degree_one(star6)
        assert compressed.graph.number_of_vertices() == 2
        assert compressed.multiplicity[0] >= 6.0

    def test_lollipop_strips_the_stick(self):
        g = lollipop_graph(5, 4)
        compressed = compress_degree_one(g)
        assert compressed.graph.number_of_vertices() == 5
        # the clique vertex anchoring the stick represents the whole stick
        assert compressed.multiplicity[4] == pytest.approx(5.0)

    def test_multiplicities_sum_to_original_size(self):
        for builder in (lambda: lollipop_graph(4, 6), lambda: random_tree(20, seed=1)):
            g = builder()
            compressed = compress_degree_one(g)
            assert sum(compressed.multiplicity.values()) == pytest.approx(
                g.number_of_vertices()
            )

    def test_reach_and_parent_recorded(self):
        g = lollipop_graph(4, 3)
        compressed = compress_degree_one(g)
        assert set(compressed.parent) == set(compressed.removed)
        for u in compressed.removed:
            assert compressed.reach[u] >= 1

    def test_original_graph_untouched(self, star6):
        before = star6.number_of_vertices()
        compress_degree_one(star6)
        assert star6.number_of_vertices() == before


class TestBetweennessWithCompression:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: path_graph(7),
            lambda: star_graph(8),
            lambda: lollipop_graph(5, 4),
            lambda: binary_tree(3),
            lambda: random_tree(20, seed=3),
            lambda: barbell_graph(4, 3),
        ],
        ids=["path", "star", "lollipop", "binary-tree", "random-tree", "barbell"],
    )
    def test_matches_plain_brandes(self, builder):
        graph = builder()
        plain = betweenness_centrality(graph)
        compressed = betweenness_with_compression(graph)
        assert set(plain) == set(compressed)
        for v in graph.vertices():
            assert compressed[v] == pytest.approx(plain[v], abs=1e-9)

    def test_scale_free_graph_with_pendants(self):
        # BA graphs with m=1 are trees: the extreme pendant-heavy case.
        graph = barabasi_albert_graph(30, 1, seed=5)
        plain = betweenness_centrality(graph)
        compressed = betweenness_with_compression(graph)
        for v in graph.vertices():
            assert compressed[v] == pytest.approx(plain[v], abs=1e-9)

    def test_decorated_core_graph(self):
        # A cycle with pendant chains hanging off it mixes both code paths.
        graph = Graph()
        for i in range(6):
            graph.add_edge(i, (i + 1) % 6)
        graph.add_edge(0, 10)
        graph.add_edge(10, 11)
        graph.add_edge(3, 20)
        plain = betweenness_centrality(graph)
        compressed = betweenness_with_compression(graph)
        for v in graph.vertices():
            assert compressed[v] == pytest.approx(plain[v], abs=1e-9)

    def test_count_normalization(self, star6):
        compressed = betweenness_with_compression(star6, normalization="count")
        assert compressed[0] == pytest.approx(15.0)


@pytest.mark.parametrize("seed,weighted", [(seed, seed % 3 == 0) for seed in range(30)])
def test_core_pass_equals_the_dict_loop_bit_for_bit(seed, weighted):
    """The index-space multiplicity-weighted Brandes loop over the core
    returns the dict loop's values exactly (same order of operations)."""
    compressed = compress_degree_one(decorated_graph(seed, weighted))
    assert _weighted_core_betweenness(compressed) == reference_core_betweenness(compressed)
