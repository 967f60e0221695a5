"""Property-based tests (hypothesis) on the core data structures and invariants.

These complement the example-based tests by checking structural invariants on
randomly generated graphs:

* Graph mutation bookkeeping (vertex/edge counts, symmetry of adjacency);
* SPD invariants (sigma composition, predecessor distances, order sorting);
* Brandes identities (sum of dependencies vs. pair dependencies, equality of
  the per-vertex and all-vertices exact algorithms);
* Metropolis-Hastings invariants (chain stays within the vertex set, the
  estimate is invariant under the seed for fixed chains, bounds formulas).
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import dag_from_csr
from repro.exact import betweenness_centrality, betweenness_of_vertex
from repro.graphs import Graph, gnm_random_graph
from repro.graphs.components import connected_components, largest_connected_component
from repro.mcmc import SingleSpaceMHSampler, mcmc_error_probability, required_samples
from repro.shortest_paths import accumulate_dependencies_csr, bfs_spd_csr

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Random simple graphs as edge sets over a small vertex universe.
edge_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11)),
    min_size=1,
    max_size=40,
).map(lambda edges: [(u, v) for u, v in edges if u != v])


def build_graph(edges) -> Graph:
    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


connected_graphs = (
    edge_lists.map(build_graph)
    .filter(lambda g: g.number_of_vertices() >= 2)
    .map(largest_connected_component)
    .filter(lambda g: g.number_of_vertices() >= 2)
)


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_adjacency_is_symmetric(self, edges):
        graph = build_graph(edges)
        for u in graph.vertices():
            for v in graph.neighbors(u):
                assert graph.has_edge(v, u)

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_edge_count_matches_iteration(self, edges):
        graph = build_graph(edges)
        assert len(list(graph.edges())) == graph.number_of_edges()

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, edges):
        graph = build_graph(edges)
        assert sum(graph.degree(v) for v in graph) == 2 * graph.number_of_edges()

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_removing_all_vertices_empties_graph(self, edges):
        graph = build_graph(edges)
        for v in list(graph.vertices()):
            graph.remove_vertex(v)
        assert graph.number_of_vertices() == 0
        assert graph.number_of_edges() == 0

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_components_partition_vertices(self, edges):
        graph = build_graph(edges)
        components = connected_components(graph)
        union = set()
        total = 0
        for component in components:
            total += len(component)
            union |= component
        assert union == set(graph.vertices())
        assert total == graph.number_of_vertices()

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_copy_equals_original(self, edges):
        graph = build_graph(edges)
        copy = graph.copy()
        assert sorted(map(sorted, copy.edges())) == sorted(map(sorted, graph.edges()))


# ----------------------------------------------------------------------
# SPD invariants
# ----------------------------------------------------------------------
def bfs_spd(graph, source):
    """The library's BFS DAG rooted at the label *source*, keyed by label."""
    csr = graph.csr()
    return dag_from_csr(bfs_spd_csr(csr, csr.index_of(source)))


def source_dependencies(graph, source):
    """The library's dependency vector of *source*, keyed by label."""
    csr = graph.csr()
    delta = accumulate_dependencies_csr(bfs_spd_csr(csr, csr.index_of(source)))
    return dict(zip(csr.vertices, delta.tolist()))


class TestSpdProperties:
    @given(connected_graphs)
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_spd_internal_consistency(self, graph):
        source = graph.vertices()[0]
        spd = bfs_spd(graph, source)
        spd.validate()

    @given(connected_graphs)
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_predecessors_are_one_step_closer(self, graph):
        source = graph.vertices()[0]
        spd = bfs_spd(graph, source)
        for v in spd.order:
            for p in spd.parents(v):
                assert spd.distance[p] == spd.distance[v] - 1.0

    @given(connected_graphs)
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_dependencies_are_nonnegative_and_bounded(self, graph):
        source = graph.vertices()[0]
        deltas = source_dependencies(graph, source)
        n = graph.number_of_vertices()
        for v, delta in deltas.items():
            assert delta >= 0.0
            assert delta <= n - 2 + 1e-9  # at most every other target pair

    @given(connected_graphs)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_dependency_equals_sum_of_pair_dependencies(self, graph):
        source = graph.vertices()[0]
        spd = bfs_spd(graph, source)
        deltas = source_dependencies(graph, source)
        for v in list(graph.vertices())[:4]:
            if v == source:
                continue
            pairwise = sum(spd.pair_dependencies(v).values())
            assert math.isclose(deltas[v], pairwise, rel_tol=1e-9, abs_tol=1e-9)


# ----------------------------------------------------------------------
# Exact betweenness invariants
# ----------------------------------------------------------------------
class TestExactProperties:
    @given(connected_graphs)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_scores_are_in_unit_interval(self, graph):
        scores = betweenness_centrality(graph)
        for score in scores.values():
            assert -1e-12 <= score <= 1.0 + 1e-12

    @given(connected_graphs)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_single_vertex_matches_all_vertices(self, graph):
        scores = betweenness_centrality(graph)
        for v in list(graph.vertices())[:3]:
            assert math.isclose(
                betweenness_of_vertex(graph, v), scores[v], rel_tol=1e-9, abs_tol=1e-12
            )

    @given(connected_graphs)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_degree_one_vertices_have_zero_betweenness(self, graph):
        scores = betweenness_centrality(graph)
        for v in graph.vertices():
            if graph.degree(v) == 1:
                assert scores[v] == 0.0

    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_gnm_betweenness_sum_identity(self, n, seed):
        # Sum of paper-normalised scores equals (average pair dependency
        # mass) and never exceeds the diameter bound n - 1... more simply:
        # the sum over vertices of the ordered-pair dependency counts equals
        # the sum over ordered pairs of (path length - 1) fractions, which is
        # at most (n - 2) per pair.  Checked in the 1/(n(n-1)) scale.
        m = min(n * (n - 1) // 2, n + 2)
        graph = largest_connected_component(gnm_random_graph(n, m, seed=seed))
        if graph.number_of_vertices() < 3:
            return
        scores = betweenness_centrality(graph)
        total = sum(scores.values())
        assert total <= graph.number_of_vertices() - 2 + 1e-9


# ----------------------------------------------------------------------
# MCMC invariants
# ----------------------------------------------------------------------
class TestMcmcProperties:
    @given(connected_graphs, st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_chain_states_stay_in_vertex_set(self, graph, iterations, seed):
        target = graph.vertices()[0]
        chain = SingleSpaceMHSampler().run_chain(graph, target, iterations, seed=seed)
        vertex_set = set(graph.vertices())
        assert all(state.vertex in vertex_set for state in chain.states)
        assert len(chain.states) == iterations + 1

    @given(connected_graphs, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_estimate_is_nonnegative_and_seed_reproducible(self, graph, seed):
        target = graph.vertices()[0]
        sampler = SingleSpaceMHSampler()
        a = sampler.estimate(graph, target, 30, seed=seed).estimate
        b = sampler.estimate(graph, target, 30, seed=seed).estimate
        assert a == b
        assert a >= 0.0

    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.01, max_value=0.9),
        st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_required_samples_satisfies_bound(self, epsilon, delta, mu):
        samples = required_samples(epsilon, delta, mu)
        assert samples >= 1
        # the Equation 14 inequality holds at the returned value
        assert samples >= mu * mu / (2 * epsilon * epsilon) * math.log(2 / delta) - 1e-6

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.001, max_value=1.0),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_error_probability_is_a_probability(self, samples, epsilon, mu):
        bound = mcmc_error_probability(samples, epsilon, mu)
        assert 0.0 <= bound <= 1.0
