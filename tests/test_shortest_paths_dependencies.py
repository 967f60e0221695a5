"""Tests for Brandes dependency accumulation — the shared substrate of every estimator.

The library's CSR passes are checked against closed forms, networkx and the
dict reference (``tests/reference.py``); the edge-dependency tests pin the
reference's edge accumulation, which the edge-betweenness tests compare
against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    barbell_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from reference import (
    accumulate_dependencies,
    accumulate_edge_dependencies,
    bfs_spd,
    dependency_on_target,
)
from repro.shortest_paths import (
    accumulate_dependencies_csr,
    all_dependencies_on_target,
    bfs_spd_csr,
    csr_source_dependencies,
    csr_spd_builder,
    dijkstra_spd_csr,
)
from repro.shortest_paths.bfs import bfs_source_dependencies_csr


def source_dependencies(graph: Graph, source):
    """The library's dependency vector of *source*, keyed by vertex label."""
    csr = graph.csr()
    return dict(zip(csr.vertices, csr_source_dependencies(csr, csr.index_of(source)).tolist()))


def naive_dependency(graph: Graph, source, vertex) -> float:
    """Direct evaluation of delta_{source.}(vertex) from per-pair path counts."""
    spd = bfs_spd(graph, source)
    deps = spd.pair_dependencies(vertex)
    return sum(deps.values())


class TestAccumulateDependencies:
    def test_path_graph_closed_form(self, path5):
        # From source 0 on the path 0-1-2-3-4: delta_0(v) = number of targets behind v.
        deltas = source_dependencies(path5, 0)
        assert deltas[1] == pytest.approx(3.0)
        assert deltas[2] == pytest.approx(2.0)
        assert deltas[3] == pytest.approx(1.0)
        assert deltas[4] == pytest.approx(0.0)

    def test_source_dependency_on_itself_is_zero(self, barbell):
        deltas = source_dependencies(barbell, 0)
        assert deltas[0] == 0.0

    def test_star_center(self, star6):
        # From a leaf, the centre lies on the unique shortest path to every other leaf.
        deltas = source_dependencies(star6, 1)
        assert deltas[0] == pytest.approx(5.0)
        assert deltas[2] == pytest.approx(0.0)

    def test_cycle_split_dependencies(self):
        g = cycle_graph(6)
        deltas = source_dependencies(g, 0)
        # Each neighbour of the source carries full credit for the vertex two
        # steps away on its side plus half credit for the antipode (vertex 3),
        # which is reached by two shortest paths.
        assert deltas[1] == pytest.approx(1.5)
        assert deltas[5] == pytest.approx(1.5)
        assert deltas[3] == pytest.approx(0.0)

    def test_matches_naive_pairwise_computation(self, small_er):
        source = 0
        deltas = source_dependencies(small_er, source)
        for vertex in list(small_er.vertices())[:10]:
            if vertex == source:
                continue
            assert deltas[vertex] == pytest.approx(naive_dependency(small_er, source, vertex))

    def test_matches_networkx_per_source_totals(self, small_ba):
        # Sum of our per-source dependencies over all sources equals the
        # networkx unnormalised betweenness times 2 (ordered pairs).
        import networkx as nx

        from repro.graphs.io import to_networkx

        totals = {v: 0.0 for v in small_ba.vertices()}
        for s in small_ba.vertices():
            for v, d in source_dependencies(small_ba, s).items():
                if v != s:
                    totals[v] += d
        nx_bc = nx.betweenness_centrality(to_networkx(small_ba), normalized=False)
        for v in small_ba.vertices():
            assert totals[v] == pytest.approx(2.0 * nx_bc[v])


class TestEdgeDependencies:
    def test_path_edges(self, path5):
        spd = bfs_spd(path5, 0)
        edge_deltas = accumulate_edge_dependencies(spd)
        # edge (0,1) carries every one of the 4 targets
        assert edge_deltas[(0, 1)] == pytest.approx(4.0)
        assert edge_deltas[(3, 4)] == pytest.approx(1.0)

    def test_edge_dependencies_sum_to_vertex_dependencies(self, small_er):
        spd = bfs_spd(small_er, 0)
        vertex_deltas = accumulate_dependencies(spd)
        edge_deltas = accumulate_edge_dependencies(spd)
        for v in small_er.vertices():
            if v == 0:
                continue
            outgoing = sum(d for (a, _b), d in edge_deltas.items() if a == v)
            assert vertex_deltas[v] == pytest.approx(outgoing)


class TestTargetHelpers:
    def test_dependency_on_target_matches_vector(self, barbell):
        r = 5
        vector = all_dependencies_on_target(barbell, r)
        for v in barbell.vertices():
            assert vector[v] == pytest.approx(dependency_on_target(barbell, v, r))

    def test_dependency_on_self_is_zero(self, barbell):
        assert dependency_on_target(barbell, 3, 3) == 0.0

    def test_all_dependencies_sum_equals_unnormalised_bc(self, barbell):
        from repro.exact import betweenness_of_vertex

        r = 5
        total = sum(all_dependencies_on_target(barbell, r).values())
        n = barbell.number_of_vertices()
        assert total / (n * (n - 1)) == pytest.approx(betweenness_of_vertex(barbell, r))

    def test_spd_builder_picks_bfs_for_unweighted(self, path5):
        assert csr_spd_builder(path5.csr()) is bfs_spd_csr

    def test_spd_builder_picks_dijkstra_for_weighted(self, weighted_diamond):
        assert csr_spd_builder(weighted_diamond.csr()) is dijkstra_spd_csr

    def test_weighted_dependencies(self, weighted_diamond):
        deltas = source_dependencies(weighted_diamond, 0)
        # both middle vertices carry half of the single (0 -> 3) pair
        assert deltas[1] == pytest.approx(0.5)
        assert deltas[2] == pytest.approx(0.5)
        assert deltas[4] == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Fused unweighted CSR pass
# ----------------------------------------------------------------------
def _directed_graph() -> Graph:
    """Directed graph with a cycle, a source-only vertex (6) and a sink (7)."""
    g = Graph(directed=True)
    g.add_edges_from(
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0), (2, 5), (5, 4), (6, 2), (3, 7)]
    )
    return g


def _disconnected_graph() -> Graph:
    """Two components plus an isolated vertex (a source whose first level is empty)."""
    g = barbell_graph(4, 1)
    g.add_edges_from([(20, 21), (21, 22), (22, 20), (22, 23)])
    g.add_vertex(30)
    return g


FUSED_GRAPHS = {
    "er": lambda: erdos_renyi_graph(60, 0.08, seed=3),
    "ba": lambda: barabasi_albert_graph(150, 3, seed=5),
    "barbell": lambda: barbell_graph(5, 2),
    "directed": _directed_graph,
    "disconnected": _disconnected_graph,
}


def _sorted_unique_dependencies(csr, source):
    """Straightforward build-then-accumulate pass with ``np.unique`` frontier dedup.

    An independent formulation of the same wave: the frontier is deduplicated
    by sorting first-occurrence positions, the per-level DAG edges are kept,
    then back-propagated deepest level first with a scalar per-parent loop
    in the library's one Brandes order.
    """
    n = csr.number_of_vertices()
    dist = np.full(n, np.inf)
    sig = np.zeros(n)
    dist[source] = 0.0
    sig[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels = []
    while frontier.size:
        parents = np.concatenate(
            [np.full(csr.degree_of(u), u, dtype=np.int64) for u in frontier.tolist()]
        )
        nbrs = np.concatenate([csr.neighbors_of(u) for u in frontier.tolist()])
        fresh = np.isinf(dist[nbrs])
        if not fresh.any():
            break
        parents, children = parents[fresh], nbrs[fresh]
        sig += np.bincount(children, weights=sig[parents], minlength=n)
        frontier = children[np.sort(np.unique(children, return_index=True)[1])]
        dist[frontier] = dist[parents[0]] + 1.0
        levels.append((parents, children))
    delta = np.zeros(n)
    for parents, children in reversed(levels):
        # Per parent: sum its children's (delta + 1) * (1 / sigma) in edge
        # order from 0.0, then scale once by the parent's sigma.
        totals = {}
        for p, c in zip(parents.tolist(), children.tolist()):
            totals[p] = totals.get(p, 0.0) + (float(delta[c]) + 1.0) * (1.0 / float(sig[c]))
        for p, total in totals.items():
            delta[p] = total * float(sig[p])
    delta[source] = 0.0
    return delta


class TestFusedCsrPass:
    @pytest.mark.parametrize("name", sorted(FUSED_GRAPHS))
    def test_bitwise_equal_to_build_then_accumulate(self, name):
        csr = FUSED_GRAPHS[name]().csr()
        for s in range(csr.number_of_vertices()):
            fused = csr_source_dependencies(csr, s)
            assert np.array_equal(fused, bfs_source_dependencies_csr(csr, s))
            assert np.array_equal(
                fused, accumulate_dependencies_csr(bfs_spd_csr(csr, s))
            )
            assert np.array_equal(fused, _sorted_unique_dependencies(csr, s))

    def test_isolated_and_sink_sources_have_zero_dependencies(self):
        for graph, vertex in ((_disconnected_graph(), 30), (_directed_graph(), 7)):
            csr = graph.csr()
            delta = csr_source_dependencies(csr, csr.index_of(vertex))
            assert delta.shape == (csr.number_of_vertices(),)
            assert not delta.any()

    @pytest.mark.parametrize("source", [-1, -5, 5, 6])
    def test_out_of_range_source_raises(self, source):
        # Plain numpy indexing would wrap -1 to the last vertex silently.
        csr = path_graph(5).csr()
        with pytest.raises(IndexError):
            csr_source_dependencies(csr, source)
        with pytest.raises(IndexError):
            bfs_source_dependencies_csr(csr, source)
