"""Tests for MCMC chain diagnostics."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.graphs import barbell_graph, star_graph
from repro.mcmc import (
    ChainDiagnostics,
    MultiChainDiagnostics,
    SingleSpaceMHSampler,
    autocorrelation,
    diagnose_chain,
    diagnose_chains,
    effective_sample_size,
    empirical_vs_stationary,
    gelman_rubin,
    geweke_z_score,
    multichain_ess,
    split_rhat,
    stationary_distribution,
    total_variation_distance,
)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        trace = [1.0, 2.0, 3.0, 4.0, 3.0, 2.0]
        assert autocorrelation(trace, 0) == pytest.approx(1.0)

    def test_alternating_sequence_negative_lag_one(self):
        trace = [1.0, -1.0] * 20
        assert autocorrelation(trace, 1) < -0.9

    def test_constant_sequence_is_zero(self):
        assert autocorrelation([2.0] * 10, 1) == 0.0

    def test_lag_longer_than_trace(self):
        assert autocorrelation([1.0, 2.0], 5) == 0.0

    def test_negative_lag_rejected(self):
        with pytest.raises(ConfigurationError):
            autocorrelation([1.0, 2.0], -1)


class TestEffectiveSampleSize:
    def test_iid_like_trace_has_large_ess(self):
        import random

        rng = random.Random(1)
        trace = [rng.random() for _ in range(500)]
        assert effective_sample_size(trace) > 250

    def test_highly_correlated_trace_has_small_ess(self):
        trace = [float(i // 50) for i in range(500)]  # long constant plateaus
        assert effective_sample_size(trace) < 100

    def test_constant_trace_reports_full_length(self):
        assert effective_sample_size([1.0] * 50) == 50.0

    def test_empty_trace(self):
        assert effective_sample_size([]) == 0.0


class TestGeweke:
    def test_stationary_trace_small_z(self):
        import random

        rng = random.Random(2)
        trace = [rng.gauss(0, 1) for _ in range(1000)]
        assert abs(geweke_z_score(trace)) < 3.0

    def test_drifting_trace_large_z(self):
        trace = [float(i) for i in range(400)]
        assert abs(geweke_z_score(trace)) > 5.0

    def test_autocorrelated_stationary_traces_rarely_flagged(self):
        # AR(1) with phi = 0.8 is stationary but strongly autocorrelated; a
        # naive-variance z flags over half of these traces, the
        # autocorrelation-adjusted one stays near the nominal 5%.
        import random

        flagged = 0
        for seed in range(200):
            rng = random.Random(seed)
            x = rng.gauss(0, 1) / math.sqrt(1 - 0.8**2)
            trace = []
            for _ in range(1000):
                x = 0.8 * x + rng.gauss(0, 1)
                trace.append(x)
            flagged += abs(geweke_z_score(trace)) > 2.0
        assert flagged <= 30

    def test_short_trace_is_zero(self):
        assert geweke_z_score([1.0, 2.0]) == 0.0

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            geweke_z_score([1.0] * 10, first_fraction=0.0)
        with pytest.raises(ConfigurationError):
            geweke_z_score([1.0] * 10, first_fraction=0.7, last_fraction=0.7)


class TestDistributionDiagnostics:
    def test_total_variation_identical(self):
        p = {0: 0.5, 1: 0.5}
        assert total_variation_distance(p, dict(p)) == 0.0

    def test_total_variation_disjoint(self):
        assert total_variation_distance({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)

    def test_total_variation_partial_overlap(self):
        p = {0: 0.5, 1: 0.5}
        q = {0: 0.25, 1: 0.75}
        assert total_variation_distance(p, q) == pytest.approx(0.25)

    def test_stationary_distribution_normalised(self, barbell):
        dist = stationary_distribution(barbell, 5)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(p > 0.0 for p in dist.values())

    def test_stationary_distribution_zero_betweenness(self, star6):
        with pytest.raises(ConfigurationError):
            stationary_distribution(star6, 1)

    def test_empirical_vs_stationary_decreases_with_chain_length(self, barbell):
        sampler = SingleSpaceMHSampler()
        short = sampler.run_chain(barbell, 5, 30, seed=3)
        long = sampler.run_chain(barbell, 5, 3000, seed=3)
        assert empirical_vs_stationary(barbell, long) < empirical_vs_stationary(barbell, short)


class TestGelmanRubin:
    """R-hat validated against hand-computed values on synthetic chain arrays."""

    def test_hand_computed_value(self):
        # traces [1,2,3] and [2,4,6]: within = (1 + 4) / 2 = 2.5,
        # B/n = var([2, 4], ddof=1) = 2, var+ = (2/3)*2.5 + 2 = 11/3,
        # R-hat = sqrt((11/3) / 2.5) = sqrt(22/15).
        assert gelman_rubin([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]) == pytest.approx(
            math.sqrt(22.0 / 15.0)
        )

    def test_identical_chains(self):
        # Equal chains: B = 0, so R-hat = sqrt((n-1)/n) — below 1 by design
        # of the finite-sample estimator (n=4 -> sqrt(3/4)).
        assert gelman_rubin([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]) == pytest.approx(
            math.sqrt(0.75)
        )

    def test_constant_equal_chains_are_converged(self):
        assert gelman_rubin([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]) == 1.0

    def test_constant_disagreeing_chains_never_converge(self):
        assert gelman_rubin([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]) == float("inf")

    def test_truncates_to_shortest_chain(self):
        # The longer chain's tail must not affect the statistic.
        short = gelman_rubin([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        padded = gelman_rubin([[1.0, 2.0, 3.0, 999.0], [2.0, 4.0, 6.0]])
        assert padded == pytest.approx(short)

    def test_too_short_chains_read_as_unconverged(self):
        assert gelman_rubin([[1.0], [2.0]]) == float("inf")

    def test_single_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            gelman_rubin([[1.0, 2.0, 3.0]])


class TestSplitRhat:
    def test_matches_gelman_rubin_on_explicit_halves(self):
        traces = [[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]]
        halves = [[1.0, 2.0], [3.0, 4.0], [2.0, 1.0], [4.0, 3.0]]
        assert split_rhat(traces) == pytest.approx(gelman_rubin(halves))

    def test_degenerate_single_chain_splits_into_halves(self):
        # One drifting chain: the halves disagree, which the unsplit
        # statistic could never see.
        drifting = [float(i) for i in range(20)]
        stationary = [1.0, 2.0] * 10
        assert split_rhat([drifting]) > split_rhat([stationary])

    def test_odd_length_drops_the_middle_element(self):
        assert split_rhat([[1.0, 2.0, 99.0, 1.0, 2.0]]) == pytest.approx(
            split_rhat([[1.0, 2.0, 1.0, 2.0]])
        )

    def test_too_short_for_halves_is_unconverged(self):
        assert split_rhat([[1.0, 2.0, 3.0]]) == float("inf")

    def test_constant_chains_are_converged(self):
        assert split_rhat([[5.0] * 10, [5.0] * 10]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            split_rhat([])


class TestMultiChainESS:
    def test_independent_chains_add(self):
        # Constant chains have ESS = length by convention, so K chains of
        # length 50 pool to exactly 50 K.
        assert multichain_ess([[1.0] * 50, [1.0] * 50, [1.0] * 50]) == 150.0

    def test_matches_per_chain_sum(self):
        import random

        rng = random.Random(3)
        traces = [[rng.random() for _ in range(100)] for _ in range(4)]
        assert multichain_ess(traces) == pytest.approx(
            sum(effective_sample_size(t) for t in traces)
        )

    def test_empty_family(self):
        assert multichain_ess([]) == 0.0


class TestDiagnoseChains:
    def test_report_fields(self, barbell):
        sampler = SingleSpaceMHSampler()
        chains = [sampler.run_chain(barbell, 5, 100, seed=s) for s in (1, 2, 3)]
        report = diagnose_chains(chains, evaluations=7, converged=True, rounds=2)
        assert isinstance(report, MultiChainDiagnostics)
        assert report.n_chains == 3
        assert report.chain_lengths == [100, 100, 100]
        assert len(report.acceptance_rates) == 3
        assert report.evaluations == 7
        assert report.converged is True
        assert report.rounds == 2
        assert report.ess > 0.0
        assert report.rhat == pytest.approx(
            split_rhat([c.dependency_trace() for c in chains])
        )

    def test_mean_acceptance_rate(self):
        report = MultiChainDiagnostics(
            n_chains=2, rhat=1.0, ess=50.0, acceptance_rates=[0.4, 0.6]
        )
        assert report.mean_acceptance_rate() == pytest.approx(0.5)

    def test_healthy_thresholds(self):
        good = MultiChainDiagnostics(
            n_chains=2, rhat=1.02, ess=50.0, acceptance_rates=[0.4, 0.6]
        )
        assert good.healthy()
        assert not good.healthy(rhat_threshold=1.01)
        bad_mixing = MultiChainDiagnostics(
            n_chains=2, rhat=1.5, ess=50.0, acceptance_rates=[0.4, 0.6]
        )
        assert not bad_mixing.healthy()
        degenerate = MultiChainDiagnostics(
            n_chains=2, rhat=1.0, ess=50.0, acceptance_rates=[0.001, 0.6]
        )
        assert not degenerate.healthy()

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigurationError):
            diagnose_chains([])


class TestDiagnoseChain:
    def test_report_fields(self, barbell):
        chain = SingleSpaceMHSampler().run_chain(barbell, 5, 300, seed=5)
        report = diagnose_chain(chain, graph=barbell)
        assert isinstance(report, ChainDiagnostics)
        assert report.chain_length == 300
        assert 0.0 <= report.acceptance_rate <= 1.0
        assert report.effective_sample_size > 0.0
        assert report.tv_distance_to_stationary is not None

    def test_report_without_graph_skips_tv(self, barbell):
        chain = SingleSpaceMHSampler().run_chain(barbell, 5, 100, seed=5)
        report = diagnose_chain(chain)
        assert report.tv_distance_to_stationary is None

    def test_healthy_chain(self, barbell):
        chain = SingleSpaceMHSampler().run_chain(barbell, 5, 2000, seed=5)
        assert diagnose_chain(chain).healthy()

    def test_unhealthy_when_acceptance_degenerate(self):
        report = ChainDiagnostics(
            acceptance_rate=0.001,
            effective_sample_size=100.0,
            geweke_z=0.1,
            lag1_autocorrelation=0.2,
            chain_length=100,
            evaluations=10,
        )
        assert not report.healthy()
