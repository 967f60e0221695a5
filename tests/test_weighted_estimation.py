"""End-to-end estimation on weighted graphs.

The paper's algorithms apply unchanged to weighted graphs with strictly
positive weights (the per-sample cost becomes O(|E| + |V| log |V|) through
Dijkstra).  These tests run the exact algorithms and the samplers on small
weighted graphs and cross-check against networkx.
"""

from __future__ import annotations

import random

import pytest

from reference import reference_estimate
from repro.centrality.api import SINGLE_VERTEX_METHODS, betweenness_single
from repro.exact import betweenness_centrality, betweenness_of_vertex
from repro.graphs import Graph
from repro.graphs.io import to_networkx
from repro.mcmc import JointSpaceMHSampler, SingleSpaceMHSampler, mu_of_vertex
from repro.samplers import DistanceBasedSampler, UniformSourceSampler


def weighted_barbell() -> Graph:
    """Two triangles joined by a long heavy bridge through vertex 6."""
    graph = Graph(weighted=True)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        graph.add_edge(u, v, 1.0)
    for u, v in [(3, 4), (4, 5), (3, 5)]:
        graph.add_edge(u, v, 1.0)
    graph.add_edge(2, 6, 2.5)
    graph.add_edge(6, 3, 2.5)
    return graph


@pytest.fixture
def weighted_random() -> Graph:
    rng = random.Random(13)
    graph = Graph(weighted=True)
    for v in range(1, 20):
        graph.add_edge(rng.randrange(v), v, rng.choice([0.5, 1.0, 2.0]))
    for _ in range(15):
        u, v = rng.sample(range(20), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice([0.5, 1.0, 2.0]))
    return graph


class TestWeightedExact:
    def test_weighted_barbell_bridge_vertex(self):
        graph = weighted_barbell()
        scores = betweenness_centrality(graph, normalization="count")
        # vertex 6 carries all 3x3 cross pairs; vertex 2 carries the pairs
        # between its two triangle mates and the far side plus vertex 6.
        assert scores[6] == pytest.approx(9.0)
        assert scores[2] == pytest.approx(8.0)
        assert scores[0] == 0.0

    def test_matches_networkx_on_random_weighted_graph(self, weighted_random):
        import networkx as nx

        ours = betweenness_centrality(weighted_random, normalization="count")
        theirs = nx.betweenness_centrality(
            to_networkx(weighted_random), weight="weight", normalized=False
        )
        for v in weighted_random.vertices():
            assert ours[v] == pytest.approx(theirs[v], abs=1e-9)

    def test_weights_change_the_answer(self):
        # Same topology, different weights: the heavy direct edge pushes
        # traffic through the two-hop route and gives the middle vertex
        # positive betweenness.
        light = Graph(weighted=True)
        heavy = Graph(weighted=True)
        for graph, direct in ((light, 1.0), (heavy, 10.0)):
            graph.add_edge(0, 1, 1.0)
            graph.add_edge(1, 2, 1.0)
            graph.add_edge(0, 2, direct)
        assert betweenness_of_vertex(light, 1, normalization="count") == 0.0
        assert betweenness_of_vertex(heavy, 1, normalization="count") == 1.0


class TestWeightedSamplers:
    def test_mh_unbiased_on_weighted_barbell(self):
        graph = weighted_barbell()
        exact = betweenness_of_vertex(graph, 6)
        result = SingleSpaceMHSampler(estimator="proposal").estimate(graph, 6, 400, seed=2)
        assert result.estimate == pytest.approx(exact, abs=0.1)

    def test_uniform_source_full_enumeration_weighted(self, weighted_random):
        sampler = UniformSourceSampler(with_replacement=False)
        n = weighted_random.number_of_vertices()
        result = sampler.estimate_all(weighted_random, n, seed=1)
        exact = betweenness_centrality(weighted_random)
        for v in weighted_random.vertices():
            assert result[v] == pytest.approx(exact[v])

    def test_distance_based_sampler_weighted(self):
        graph = weighted_barbell()
        exact = betweenness_of_vertex(graph, 6)
        result = DistanceBasedSampler().estimate(graph, 6, 400, seed=3)
        assert result.estimate == pytest.approx(exact, abs=0.1)

    def test_mu_and_joint_chain_weighted(self):
        graph = weighted_barbell()
        assert mu_of_vertex(graph, 6) >= 1.0
        estimate = JointSpaceMHSampler().estimate_relative(graph, [6, 2], 1500, seed=4)
        # exact ratio BC(2)/BC(6) = 8/9 (count normalisation cancels)
        assert estimate.ratios[(2, 6)] == pytest.approx(8.0 / 9.0, rel=0.2)


class TestWeightedReferenceIdentity:
    """Every registered estimator must consume the same rng stream as its
    dict-kernel reference loop on weighted graphs — the CSR Dijkstra routes
    (sampler SPD passes, the distance-based mass function) rebuild their
    candidate orderings in settle order, so fixed-seed estimates pin
    bit-for-bit."""

    @pytest.mark.parametrize("method", sorted(SINGLE_VERTEX_METHODS))
    def test_fixed_seed_estimates_match_the_reference(self, method, weighted_random):
        target = weighted_random.vertices()[3]
        reference = reference_estimate(weighted_random, target, method, samples=40, seed=11)
        csr_result = betweenness_single(
            weighted_random, target, method=method, samples=40, seed=11,
            check_connected=False,
        )
        assert reference == pytest.approx(csr_result.estimate, rel=1e-9, abs=1e-12)
