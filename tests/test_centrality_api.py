"""Tests for the high-level one-call API."""

from __future__ import annotations

import pytest

from repro.centrality import (
    SINGLE_VERTEX_METHODS,
    betweenness_exact,
    betweenness_ranking,
    betweenness_single,
    relative_betweenness,
    suggested_chain_length,
)
from repro.errors import ConfigurationError, GraphStructureError
from repro.exact import betweenness_centrality, betweenness_of_vertex
from repro.graphs import Graph, barbell_graph, star_graph


class TestBetweennessSingle:
    @pytest.mark.parametrize("method", sorted(SINGLE_VERTEX_METHODS))
    def test_every_method_runs_and_returns_reasonable_value(self, barbell, method):
        result = betweenness_single(barbell, 5, method=method, samples=150, seed=1)
        assert 0.0 <= result.estimate <= 1.5
        assert result.samples <= 150

    def test_unknown_method(self, barbell):
        with pytest.raises(ConfigurationError):
            betweenness_single(barbell, 5, method="nope")

    def test_disconnected_graph_rejected(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        with pytest.raises(GraphStructureError):
            betweenness_single(g, 0, samples=10)

    def test_disconnected_check_can_be_skipped(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_vertex(5)
        result = betweenness_single(g, 1, samples=20, seed=1, check_connected=False)
        assert result.estimate >= 0.0

    def test_unbiased_method_close_to_exact(self, barbell):
        exact = betweenness_of_vertex(barbell, 5)
        result = betweenness_single(barbell, 5, method="mh-unbiased", samples=800, seed=2)
        assert result.estimate == pytest.approx(exact, abs=0.08)


class TestBetweennessExact:
    def test_all_vertices(self, barbell):
        scores = betweenness_exact(barbell)
        assert scores == betweenness_centrality(barbell)

    def test_selected_vertices(self, barbell):
        scores = betweenness_exact(barbell, [5, 6])
        assert set(scores) == {5, 6}
        assert scores[5] == pytest.approx(betweenness_of_vertex(barbell, 5))

    def test_normalization_forwarded(self, star6):
        scores = betweenness_exact(star6, [0], normalization="count")
        assert scores[0] == pytest.approx(15.0)


class TestRelativeAndRanking:
    def test_relative_betweenness_bundle(self, barbell):
        estimate = relative_betweenness(barbell, [5, 6, 4], samples=600, seed=3)
        assert set(estimate.sample_counts) == {5, 6, 4}
        assert 0.0 <= estimate.acceptance_rate <= 1.0

    def test_relative_requires_connected_graph(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        with pytest.raises(GraphStructureError):
            relative_betweenness(g, [0, 1], samples=10)

    def test_ranking_output(self, barbell):
        outcome = betweenness_ranking(barbell, [5, 4, 0], samples=800, seed=4)
        assert set(outcome) == {"ranking", "estimate", "exact_ranking"}
        assert len(outcome["ranking"]) == 3
        exact_order = outcome["exact_ranking"]()
        # the zero-betweenness clique vertex must be last in both rankings
        assert outcome["ranking"][-1] == exact_order[-1] == 0


class TestMultiChainThreading:
    """n_chains / rhat_target threading through the API."""

    def test_n_chains_engages_the_multichain_driver(self, barbell):
        result = betweenness_single(barbell, 5, method="mh", samples=80, seed=2, n_chains=4)
        assert result.method == "mh-multichain"
        assert result.diagnostics["n_chains"] == 4
        assert "rhat" in result.diagnostics and "ess" in result.diagnostics

    def test_rhat_target_alone_implies_default_chains(self, barbell):
        result = betweenness_single(
            barbell, 5, method="mh", samples=200, seed=2, rhat_target=1.5
        )
        assert result.diagnostics["n_chains"] == 4
        assert result.diagnostics["converged"] in (True, False)

    def test_single_chain_matches_legacy_method(self, barbell):
        legacy = betweenness_single(barbell, 5, method="mh", samples=60, seed=9)
        pooled = betweenness_single(
            barbell, 5, method="mh", samples=60, seed=9, n_chains=1
        )
        assert pooled.estimate == legacy.estimate

    def test_unbiased_variant_supported(self, barbell):
        result = betweenness_single(
            barbell, 5, method="mh-unbiased", samples=60, seed=2, n_chains=2
        )
        assert result.diagnostics["estimator"] == "proposal"

    def test_baselines_reject_chains(self, barbell):
        with pytest.raises(ConfigurationError):
            betweenness_single(barbell, 5, method="rk", samples=20, n_chains=2)
        with pytest.raises(ConfigurationError):
            betweenness_single(barbell, 5, method="kadabra", samples=20, rhat_target=1.1)

    def test_relative_n_chains(self, barbell):
        pooled = relative_betweenness(barbell, [5, 6, 4], samples=200, seed=3, n_chains=4)
        assert pooled.diagnostics["n_chains"] == 4
        single = relative_betweenness(barbell, [5, 6, 4], samples=200, seed=3, n_chains=1)
        legacy = relative_betweenness(barbell, [5, 6, 4], samples=200, seed=3)
        assert single.ratios == legacy.ratios

    def test_batch_size_is_no_longer_an_api_knob(self, barbell):
        """Block widths are the kernels' choice: the retired keyword is
        rejected rather than silently accepted."""
        with pytest.raises(TypeError):
            betweenness_single(barbell, 5, method="mh", samples=60, seed=2, batch_size=8)
        with pytest.raises(TypeError):
            betweenness_exact(barbell, [5], batch_size=8)


class TestSuggestedChainLength:
    def test_fields_and_consistency(self, barbell):
        info = suggested_chain_length(barbell, 5, epsilon=0.05, delta=0.1)
        assert info["mu"] >= 1.0
        assert info["required_samples"] >= 1.0
        assert info["achievable_epsilon_at_required"] <= 0.05 + 1e-9

    def test_smaller_epsilon_needs_more_samples(self, barbell):
        loose = suggested_chain_length(barbell, 5, epsilon=0.1, delta=0.1)
        tight = suggested_chain_length(barbell, 5, epsilon=0.02, delta=0.1)
        assert tight["required_samples"] > loose["required_samples"]
