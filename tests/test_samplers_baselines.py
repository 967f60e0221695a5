"""Tests for the baseline approximate estimators (uniform, distance-based, RK, KADABRA, oracle)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SamplingError
from repro.exact import betweenness_centrality, betweenness_of_vertex
from repro.graphs import Graph, complete_graph
from repro.samplers import (
    DistanceBasedSampler,
    ExhaustiveSourceEstimator,
    ImportanceSamplingEstimator,
    KadabraSampler,
    OptimalSourceSampler,
    RiondatoKornaropoulosSampler,
    UniformSourceSampler,
    rk_sample_size,
    vertex_diameter_estimate,
)


class TestUniformSourceSampler:
    def test_full_enumeration_without_replacement_is_exact(self, barbell):
        sampler = UniformSourceSampler(with_replacement=False)
        n = barbell.number_of_vertices()
        result = sampler.estimate_all(barbell, n, seed=1)
        exact = betweenness_centrality(barbell)
        for v in barbell.vertices():
            assert result[v] == pytest.approx(exact[v])

    def test_single_vertex_full_enumeration_is_exact(self, barbell):
        sampler = UniformSourceSampler(with_replacement=False)
        n = barbell.number_of_vertices()
        result = sampler.estimate(barbell, 5, n, seed=1)
        assert result.estimate == pytest.approx(betweenness_of_vertex(barbell, 5))

    def test_with_replacement_converges(self, barbell):
        sampler = UniformSourceSampler()
        exact = betweenness_of_vertex(barbell, 5)
        result = sampler.estimate(barbell, 5, 600, seed=3)
        assert result.estimate == pytest.approx(exact, abs=0.1)

    def test_without_replacement_caps_samples(self, path5):
        sampler = UniformSourceSampler(with_replacement=False)
        with pytest.raises(ConfigurationError):
            sampler.estimate_all(path5, 10, seed=1)

    def test_zero_samples_rejected(self, path5):
        with pytest.raises(ConfigurationError):
            UniformSourceSampler().estimate(path5, 2, 0)

    def test_result_metadata(self, path5):
        result = UniformSourceSampler().estimate(path5, 2, 5, seed=1)
        assert result.method == "uniform-source"
        assert result.samples == 5
        assert result.elapsed_seconds >= 0.0
        assert float(result) == result.estimate

    def test_map_estimate_helpers(self, path5):
        result = UniformSourceSampler().estimate_all(path5, 5, seed=1)
        assert result[2] == result.estimates[2]
        assert set(result.restricted_to([1, 3])) == {1, 3}


class TestDistanceBasedSampler:
    def test_unbiasedness_on_path(self, path5):
        # With many samples the importance-weighted estimate converges.
        sampler = DistanceBasedSampler()
        exact = betweenness_of_vertex(path5, 2)
        result = sampler.estimate(path5, 2, 800, seed=5)
        assert result.estimate == pytest.approx(exact, abs=0.08)

    def test_uniform_variant(self, barbell):
        sampler = DistanceBasedSampler(uniform=True)
        exact = betweenness_of_vertex(barbell, 5)
        result = sampler.estimate(barbell, 5, 600, seed=2)
        assert result.estimate == pytest.approx(exact, abs=0.1)
        assert result.method == "uniform-importance"

    def test_zero_betweenness_target_estimates_zero(self, star6):
        result = DistanceBasedSampler().estimate(star6, 3, 50, seed=1)
        assert result.estimate == 0.0

    def test_degenerate_distribution_raises(self):
        from repro.graphs import Graph

        g = Graph()
        g.add_vertex(0)
        g.add_vertex(1)
        g.add_edge(0, 1)
        # target 0 in a 2-vertex graph: the only other vertex is at distance 1,
        # so sampling works; shrink to an isolated situation instead.
        lonely = Graph()
        lonely.add_vertex("a")
        lonely.add_vertex("b")
        sampler = DistanceBasedSampler()
        with pytest.raises(SamplingError):
            sampler.estimate(lonely, "a", 10, seed=1)

    def test_custom_mass_function(self, barbell):
        estimator = ImportanceSamplingEstimator(
            lambda graph, r: {v: 1.0 for v in graph.vertices() if v != r},
            name="custom",
        )
        result = estimator.estimate(barbell, 5, 400, seed=7)
        assert result.method == "custom"
        assert result.estimate == pytest.approx(betweenness_of_vertex(barbell, 5), abs=0.15)

    def test_invalid_sample_count(self, path5):
        with pytest.raises(ConfigurationError):
            DistanceBasedSampler().estimate(path5, 2, 0)


class TestRiondatoKornaropoulos:
    def test_estimates_are_probabilities(self, barbell):
        result = RiondatoKornaropoulosSampler().estimate_all(barbell, 200, seed=1)
        assert all(0.0 <= v <= 1.0 for v in result.estimates.values())

    def test_convergence_on_star_center(self, star6):
        exact = betweenness_of_vertex(star6, 0)
        result = RiondatoKornaropoulosSampler().estimate(star6, 0, 800, seed=3)
        assert result.estimate == pytest.approx(exact, abs=0.08)

    def test_complete_graph_gives_zero(self):
        g = complete_graph(6)
        result = RiondatoKornaropoulosSampler().estimate_all(g, 100, seed=1)
        assert all(v == 0.0 for v in result.estimates.values())

    def test_sample_size_formula_monotone_in_epsilon(self):
        assert rk_sample_size(10, 0.05, 0.1) > rk_sample_size(10, 0.1, 0.1)

    def test_sample_size_formula_monotone_in_delta(self):
        assert rk_sample_size(10, 0.1, 0.01) > rk_sample_size(10, 0.1, 0.2)

    def test_sample_size_validation(self):
        with pytest.raises(ConfigurationError):
            rk_sample_size(10, 0.0, 0.1)
        with pytest.raises(ConfigurationError):
            rk_sample_size(10, 0.1, 1.5)

    def test_vertex_diameter_estimate_upper_bounds_truth(self, path5):
        # true vertex diameter of the 5-path is 5; the 2-approximation must not under-estimate
        assert vertex_diameter_estimate(path5, seed=1) >= 5

    def test_vertex_diameter_estimate_covers_every_component(self):
        # A triangle plus a disjoint 10-vertex path: VD = 10 wherever the
        # random start lands.
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(3, 12)])
        assert all(vertex_diameter_estimate(graph, seed=seed) >= 10 for seed in range(40))

    def test_vertex_diameter_estimate_directed_path(self):
        # BFS reach from a late vertex of a directed path sees almost nothing.
        graph = Graph.from_edges([(i, i + 1) for i in range(9)], directed=True)
        assert all(vertex_diameter_estimate(graph, seed=seed) >= 10 for seed in range(40))

    def test_vertex_diameter_estimate_weighted_hub(self):
        # Weight-100 spokes from a hub over a weight-1 path of 10 leaves: the
        # shortest leaf-to-leaf route walks the whole leaf path (VD = 10)
        # while every vertex is within 2 hops of every other.
        leaves = range(1, 11)
        edges = [(0, leaf, 100.0) for leaf in leaves]
        edges += [(leaf, leaf + 1, 1.0) for leaf in leaves if leaf < 10]
        graph = Graph.from_edges(edges, weighted=True)
        assert all(vertex_diameter_estimate(graph, seed=seed) >= 10 for seed in range(40))

    def test_samples_for_accuracy(self, barbell):
        sampler = RiondatoKornaropoulosSampler()
        assert sampler.samples_for_accuracy(barbell, 0.1, 0.1, seed=1) >= 1

    def test_small_graph_rejected(self):
        from repro.graphs import Graph

        g = Graph()
        g.add_vertex(0)
        with pytest.raises(ConfigurationError):
            RiondatoKornaropoulosSampler().estimate_all(g, 10)


class TestKadabra:
    def test_convergence_on_barbell_bridge(self, barbell):
        exact = betweenness_of_vertex(barbell, 5)
        result = KadabraSampler().estimate(barbell, 5, 800, seed=2)
        assert result.estimate == pytest.approx(exact, abs=0.1)

    def test_reports_touched_edges(self, barbell):
        result = KadabraSampler().estimate_all(barbell, 50, seed=1)
        assert result.diagnostics["touched_edges"] > 0

    def test_adaptive_mode_can_stop_early(self, star6):
        sampler = KadabraSampler(adaptive=True, epsilon=0.2, delta=0.2)
        result = sampler.estimate(star6, 0, 5000, seed=4)
        assert result.samples < 5000

    def test_non_adaptive_uses_exact_budget(self, star6):
        result = KadabraSampler().estimate(star6, 0, 120, seed=4)
        assert result.samples == 120

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            KadabraSampler(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            KadabraSampler(delta=2.0)


class TestOracles:
    def test_exhaustive_equals_exact(self, barbell):
        estimator = ExhaustiveSourceEstimator()
        for v in [0, 5, 6]:
            assert estimator.estimate(barbell, v).estimate == pytest.approx(
                betweenness_of_vertex(barbell, v)
            )

    def test_optimal_sampler_zero_variance(self, barbell):
        sampler = OptimalSourceSampler()
        exact = betweenness_of_vertex(barbell, 5)
        for seed in (1, 2, 3):
            result = sampler.estimate(barbell, 5, 10, seed=seed)
            assert result.estimate == pytest.approx(exact)

    def test_optimal_sampler_degenerate_target(self, star6):
        with pytest.raises(SamplingError):
            OptimalSourceSampler().estimate(star6, 1, 10, seed=1)

    def test_optimal_distribution_sums_to_one(self, barbell):
        distribution = OptimalSourceSampler().distribution(barbell, 5)
        assert sum(distribution.values()) == pytest.approx(1.0)
