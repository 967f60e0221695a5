"""Tests for the parallel multi-chain MCMC drivers (:mod:`repro.mcmc.multichain`).

Four promises are checked here:

1. **Legacy identity** — a ``K = 1`` driver reproduces the legacy sequential
   samplers bit for bit (same rng stream, same states, same estimate), for
   all three chain families and with the batch-prefetch engine engaged.
2. **Execution invariance** — the pooled fixed-seed estimate is bit-identical
   across ``n_jobs ∈ {1, 2, 4}`` for every ``n_chains ∈ {1, 4, 8}``.
3. **Statistical correctness** — pooled estimates land within *analytic*
   error bounds of the exact Brandes values (Hoeffding for the unbiased
   proposal read-out, the paper's Theorem 1 ε for the chain read-out around
   its π-weighted target), and seeded regression values are pinned for the
   CSR kernels and the dict-kernel reference oracle.
4. **Adaptive mode** — the split-R̂-driven driver stops early when the
   chains agree, falls back to the full budget when they cannot, and never
   changes what a converged run would estimate across ``n_jobs``.
"""

from __future__ import annotations

import math

import pytest
from reference import DictOracleMHSampler

from repro.centrality.api import betweenness_single, relative_betweenness
from repro.errors import ConfigurationError, EdgeNotFoundError
from repro.exact.single_vertex import betweenness_of_vertex
from repro.graphs import barabasi_albert_graph, barbell_graph
from repro.mcmc import (
    DependencyOracle,
    EdgeMHSampler,
    JointSpaceMHSampler,
    MultiChainEdgeSampler,
    MultiChainJointSampler,
    MultiChainMHSampler,
    SingleSpaceMHSampler,
    merge_joint_chains,
    split_budget,
)
from repro.mcmc.bounds import mu_statistics
from repro.shortest_paths.dependencies import all_dependencies_on_target

JOBS_GRID = (1, 2, 4)
CHAINS_GRID = (1, 4, 8)


# ----------------------------------------------------------------------
# Budget splitting
# ----------------------------------------------------------------------


class TestSplitBudget:
    def test_even_split(self):
        assert split_budget(80, 4) == [20, 20, 20, 20]

    def test_remainder_goes_to_leading_chains(self):
        assert split_budget(10, 4) == [3, 3, 2, 2]

    def test_single_chain_keeps_everything(self):
        assert split_budget(7, 1) == [7]

    def test_total_is_preserved(self):
        for total in (1, 5, 97, 256):
            for k in (1, 2, 3, 8):
                if total >= k:
                    assert sum(split_budget(total, k)) == total

    def test_budget_below_chain_count_rejected(self):
        with pytest.raises(ConfigurationError):
            split_budget(3, 4)

    def test_non_positive_chains_rejected(self):
        with pytest.raises(ConfigurationError):
            split_budget(10, 0)


# ----------------------------------------------------------------------
# Legacy identity (K = 1)
# ----------------------------------------------------------------------


class TestSingleChainIdentity:
    """K = 1 output identical to the legacy sequential sampler."""

    @pytest.mark.parametrize("estimator", ["chain", "proposal", "accepted"])
    def test_estimate_bit_identical(self, barbell, estimator):
        legacy = SingleSpaceMHSampler(estimator=estimator).estimate(
            barbell, 5, 80, seed=9
        )
        pooled = MultiChainMHSampler(n_chains=1, estimator=estimator).estimate(
            barbell, 5, 80, seed=9
        )
        assert pooled.estimate == legacy.estimate
        assert pooled.samples == legacy.samples

    def test_chain_states_identical(self, barbell):
        legacy = SingleSpaceMHSampler().run_chain(barbell, 5, 60, seed=4)
        pooled = MultiChainMHSampler(n_chains=1).run_chains(barbell, 5, 60, seed=4)
        assert len(pooled.chains) == 1
        assert pooled.chains[0].states == legacy.states

    def test_identity_survives_the_batch_engine(self, barbell):
        legacy = SingleSpaceMHSampler().estimate(barbell, 5, 60, seed=21)
        pooled = MultiChainMHSampler(n_chains=1).estimate(
            barbell, 5, 60, seed=21
        )
        assert pooled.estimate == legacy.estimate

    def test_joint_identity(self, barbell):
        refs = [5, 6, 4]
        legacy = JointSpaceMHSampler().estimate_relative(barbell, refs, 150, seed=7)
        pooled = MultiChainJointSampler(n_chains=1).estimate_relative(
            barbell, refs, 150, seed=7
        )
        assert pooled.relative == legacy.relative
        assert pooled.ratios == legacy.ratios
        assert pooled.sample_counts == legacy.sample_counts
        assert pooled.acceptance_rate == legacy.acceptance_rate
        assert pooled.ranking() == legacy.ranking()

    def test_edge_identity(self, barbell):
        legacy = EdgeMHSampler().estimate(barbell, (5, 6), 60, seed=11)
        pooled = MultiChainEdgeSampler(n_chains=1).estimate(barbell, (5, 6), 60, seed=11)
        assert pooled.estimate == legacy.estimate
        assert pooled.samples == legacy.samples


# ----------------------------------------------------------------------
# Execution invariance
# ----------------------------------------------------------------------


class TestExecutionInvariance:
    """Fixed-seed bit-identity across n_jobs {1,2,4} x n_chains {1,4,8}."""

    def test_single_vertex_grid(self):
        graph = barabasi_albert_graph(30, 2, seed=5)
        r = graph.vertices()[6]
        for n_chains in CHAINS_GRID:
            estimates = [
                MultiChainMHSampler(n_chains=n_chains, n_jobs=n_jobs)
                .estimate(graph, r, 64, seed=99)
                .estimate
                for n_jobs in JOBS_GRID
            ]
            assert estimates[0] == estimates[1] == estimates[2], n_chains

    def test_grid_with_batch_prefetch(self):
        graph = barabasi_albert_graph(30, 2, seed=5)
        r = graph.vertices()[6]
        estimates = [
            MultiChainMHSampler(
                n_chains=4, n_jobs=n_jobs
            ).estimate(graph, r, 64, seed=17).estimate
            for n_jobs in JOBS_GRID
        ]
        assert estimates[0] == estimates[1] == estimates[2]

    def test_joint_grid(self, barbell):
        refs = [5, 6, 4]
        for n_chains in (1, 4):
            results = [
                MultiChainJointSampler(n_chains=n_chains, n_jobs=n_jobs)
                .estimate_relative(barbell, refs, 120, seed=29)
                for n_jobs in JOBS_GRID
            ]
            assert results[0].relative == results[1].relative == results[2].relative
            assert results[0].sample_counts == results[1].sample_counts

    def test_edge_grid(self, barbell):
        for n_chains in (1, 4):
            estimates = [
                MultiChainEdgeSampler(n_chains=n_chains, n_jobs=n_jobs)
                .estimate(barbell, (5, 6), 64, seed=13)
                .estimate
                for n_jobs in JOBS_GRID
            ]
            assert estimates[0] == estimates[1] == estimates[2]

    @pytest.mark.parametrize("n_chains", CHAINS_GRID)
    def test_pooled_estimate_matches_the_dict_reference(self, n_chains):
        """The dict-kernel reference oracle walks the same chains (identical
        rng streams), so the pooled estimates differ by float accumulation
        order at most."""
        graph = barabasi_albert_graph(30, 2, seed=5)
        r = graph.vertices()[6]
        dict_est = MultiChainMHSampler(DictOracleMHSampler(), n_chains=n_chains).estimate(
            graph, r, 80, seed=23
        )
        csr_est = MultiChainMHSampler(n_chains=n_chains).estimate(graph, r, 80, seed=23)
        assert dict_est.estimate == pytest.approx(csr_est.estimate, rel=1e-9)

    def test_api_threading_matches_direct_driver(self, barbell):
        api = betweenness_single(barbell, 5, method="mh", samples=60, seed=3, n_chains=4)
        direct = MultiChainMHSampler(n_chains=4).estimate(barbell, 5, 60, seed=3)
        assert api.estimate == direct.estimate
        assert api.diagnostics["n_chains"] == 4


# ----------------------------------------------------------------------
# Diagnostics surfaced on the estimate objects
# ----------------------------------------------------------------------


class TestDiagnosticsSurface:
    def test_single_vertex_diagnostics(self, barbell):
        est = MultiChainMHSampler(n_chains=4).estimate(barbell, 5, 200, seed=3)
        diag = est.diagnostics
        assert diag["n_chains"] == 4
        assert len(diag["acceptance_rates"]) == 4
        assert all(0.0 <= rate <= 1.0 for rate in diag["acceptance_rates"])
        assert diag["rhat"] > 0.0
        assert diag["ess"] > 0.0
        assert diag["evaluations"] > 0
        assert diag["converged"] is None  # no rhat target -> fixed-length run
        assert diag["multichain"].pooled_estimate() == est.estimate

    def test_relative_diagnostics(self, barbell):
        est = relative_betweenness(barbell, [5, 6, 4], samples=120, seed=5, n_chains=4)
        assert est.diagnostics["n_chains"] == 4
        assert len(est.diagnostics["acceptance_rates"]) == 4
        assert est.diagnostics["rhat"] > 0.0
        assert sum(est.sample_counts.values()) == sum(
            len(c.kept_states()) for c in [est.chain]
        )

    def test_joint_merged_evaluations_are_per_chain_deltas(self, barbell):
        """Chains sharing a per-process oracle must each be billed their own
        Brandes passes, so the merged total equals the driver's true count
        instead of summing cumulative shared-counter snapshots."""
        est = MultiChainJointSampler(n_chains=4, n_jobs=1).estimate_relative(
            barbell, [5, 6, 4], 160, seed=5
        )
        assert est.chain.evaluations == est.diagnostics["evaluations"]

    def test_edge_diagnostics(self, barbell):
        est = MultiChainEdgeSampler(n_chains=4).estimate(barbell, (5, 6), 80, seed=7)
        assert est.diagnostics["n_chains"] == 4
        assert est.diagnostics["rhat"] > 0.0
        assert est.diagnostics["ess"] > 0.0

    def test_per_chain_estimates_average_to_pooled_for_equal_lengths(self, barbell):
        result = MultiChainMHSampler(n_chains=4).run_chains(barbell, 5, 80, seed=3)
        per_chain = result.per_chain_estimates()
        assert result.pooled_estimate() == pytest.approx(
            sum(per_chain) / len(per_chain)
        )


# ----------------------------------------------------------------------
# Adaptive mode
# ----------------------------------------------------------------------


class TestAdaptiveMode:
    def test_early_stop_spends_less_than_the_budget(self, barbell):
        est = MultiChainMHSampler(
            n_chains=4, rhat_target=1.5, check_interval=16
        ).estimate(barbell, 5, 4000, seed=3)
        assert est.diagnostics["converged"] is True
        assert est.samples < 4000
        assert est.diagnostics["burn_in"] > 0  # adopted warm-up

    def test_unreachable_target_runs_the_full_budget(self, barbell):
        # Three samples per chain: after the candidate warm-up drops half of
        # each chain, no split half holds two samples, so split-R-hat is
        # undefined (inf) at every checkpoint whatever the seed draws.
        est = MultiChainMHSampler(
            n_chains=4, rhat_target=1.000001, check_interval=2
        ).estimate(barbell, 5, 12, seed=3)
        assert est.diagnostics["converged"] is False
        assert est.diagnostics["rounds"] == 2
        assert est.samples == 12

    def test_adaptive_estimate_invariant_across_n_jobs(self, barbell):
        estimates = [
            MultiChainMHSampler(
                n_chains=4, rhat_target=1.5, check_interval=16, n_jobs=n_jobs
            ).estimate(barbell, 5, 800, seed=3)
            for n_jobs in JOBS_GRID
        ]
        assert (
            estimates[0].estimate == estimates[1].estimate == estimates[2].estimate
        )
        assert estimates[0].samples == estimates[1].samples == estimates[2].samples

    def test_adaptive_mode_tolerates_a_configured_burn_in(self, barbell):
        """A base burn_in larger than check_interval must not trip the
        per-segment chain-length validation; it applies only as the
        not-converged fallback.  Slow-mixing random-walk chains cannot pass
        the near-1 target, so the fallback genuinely fires."""
        est = MultiChainMHSampler(
            SingleSpaceMHSampler(proposal="random-walk", burn_in=100),
            n_chains=4,
            rhat_target=1.000001,
            check_interval=16,
        ).estimate(barbell, 5, 800, seed=3)
        assert est.diagnostics["converged"] is False
        assert est.diagnostics["burn_in"] == 100
        converged = MultiChainMHSampler(
            SingleSpaceMHSampler(burn_in=100),
            n_chains=4,
            rhat_target=1.5,
            check_interval=16,
        ).estimate(barbell, 5, 800, seed=3)
        assert converged.diagnostics["converged"] is True
        assert converged.diagnostics["burn_in"] != 100  # adopted half-burn

    def test_adaptive_rejects_burn_in_beyond_the_budget(self, barbell):
        with pytest.raises(ConfigurationError):
            MultiChainMHSampler(
                SingleSpaceMHSampler(burn_in=100), n_chains=4, rhat_target=1.2
            ).estimate(barbell, 5, 80, seed=3)

    def test_segmented_chains_are_contiguous(self, barbell):
        result = MultiChainMHSampler(
            n_chains=2, rhat_target=1.000001, check_interval=10
        ).run_chains(barbell, 5, 64, seed=5)
        for chain in result.chains:
            iterations = [s.iteration for s in chain.states]
            assert iterations == list(range(len(chain.states)))

    def test_extend_chain_requires_recorded_states(self, barbell):
        sampler = SingleSpaceMHSampler(record_states=False)
        chain = sampler.run_chain(barbell, 5, 10, seed=1)
        with pytest.raises(ConfigurationError):
            sampler.extend_chain(barbell, 5, chain, 10, rng=1)

    def test_extend_chain_is_oracle_independent(self, barbell):
        """The continuation must not depend on which oracle instance (or its
        cache history) serves the dependency scores."""
        sampler = SingleSpaceMHSampler()
        first = sampler.run_chain(barbell, 5, 20, seed=6)
        import random

        warm = DependencyOracle(barbell)
        warm.prefetch(barbell.vertices())
        extended_cold = sampler.extend_chain(barbell, 5, first, 20, rng=random.Random(8))
        extended_warm = sampler.extend_chain(
            barbell, 5, first, 20, rng=random.Random(8), oracle=warm
        )
        assert extended_cold.states == extended_warm.states
        assert len(extended_cold.states) == len(first.states) + 20
        assert first.states == extended_cold.states[: len(first.states)], (
            "the input chain must not be mutated"
        )

    def test_extend_chain_accumulates_evaluations(self, barbell):
        """The extended record bills the original run plus this segment's
        passes only — never another chain's work on a shared oracle."""
        sampler = SingleSpaceMHSampler()
        first = sampler.run_chain(barbell, 5, 20, seed=6)
        shared = DependencyOracle(barbell)
        shared.prefetch(barbell.vertices())  # foreign work: must not be billed
        import random

        extended = sampler.extend_chain(
            barbell, 5, first, 20, rng=random.Random(8), oracle=shared
        )
        assert extended.evaluations == first.evaluations  # all segment hits cached
        fresh = sampler.extend_chain(barbell, 5, first, 20, rng=random.Random(8))
        assert fresh.evaluations >= first.evaluations


# ----------------------------------------------------------------------
# Statistical verification against exact Brandes values
# ----------------------------------------------------------------------


class TestStatisticalVerification:
    """Pooled estimates vs exact values, within analytic error bounds."""

    @pytest.mark.parametrize("n_chains", [1, 4])
    def test_unbiased_readout_within_hoeffding_bound(self, barbell, n_chains):
        """The 'proposal' read-out averages i.i.d. uniform dependency draws, so
        Hoeffding's inequality bounds its deviation from the exact value:
        |est - BC(r)| <= b * sqrt(ln(2/delta) / (2 N)) with probability
        1 - delta, where b = max_v delta_v(r) / (n - 1) is the range of one
        draw.  delta = 1e-6 makes a fixed-seed violation vanishingly
        unlikely; a failure here means the estimator is wrong, not unlucky."""
        r = 5
        total = 400
        est = MultiChainMHSampler(
            n_chains=n_chains, estimator="proposal"
        ).estimate(barbell, r, total, seed=2019)
        exact = betweenness_of_vertex(barbell, r)
        stats = mu_statistics(barbell, r)
        n = barbell.number_of_vertices()
        draws = total + n_chains  # every chain's initial state is a draw too
        bound = (stats.max_dependency / (n - 1)) * math.sqrt(
            math.log(2.0 / 1e-6) / (2.0 * draws)
        )
        assert abs(est.estimate - exact) <= bound

    def test_chain_readout_within_theorem1_bound_of_its_target(self, barbell):
        """The paper's Equation 7 read-out concentrates on the pi-weighted mean
        of the dependency scores (the reproduction finding documented in
        repro.mcmc.single); Theorem 1's epsilon at delta = 1e-3 bounds the
        pooled deviation from that target."""
        from repro.mcmc.bounds import epsilon_for_samples

        r = 5
        total = 600
        est = MultiChainMHSampler(n_chains=4).estimate(barbell, r, total, seed=2019)
        deltas = all_dependencies_on_target(barbell, r)
        n = barbell.number_of_vertices()
        pi_mean = sum(d * d for d in deltas.values()) / (
            sum(deltas.values()) * (n - 1)
        )
        epsilon = epsilon_for_samples(total, 1e-3, mu_statistics(barbell, r).mu)
        assert abs(est.estimate - pi_mean) <= epsilon

    def test_joint_ratios_track_exact_ratios(self, barbell):
        """Pooled Equation 22 ratio estimates agree with the exact betweenness
        ratios within a generous multiplicative margin at this chain length."""
        est = MultiChainJointSampler(n_chains=4).estimate_relative(
            barbell, [5, 6, 4], 2000, seed=2019
        )
        exact = {v: betweenness_of_vertex(barbell, v) for v in (5, 6, 4)}
        for (ri, rj), value in est.ratios.items():
            true_ratio = exact[ri] / exact[rj]
            assert value == pytest.approx(true_ratio, rel=0.35), (ri, rj)

    # Seeded regression pins: the exact pooled estimates at seed 2019 on the
    # barbell fixture, for the CSR kernels and the dict-kernel reference
    # oracle.  These fail loudly if the rng discipline, the chain mechanics
    # or the ordered reduce ever drift.
    REGRESSION = {
        "dict": 0.4964349376114082,
        "csr": 0.4964349376114082,
    }

    @pytest.mark.parametrize("kernels", ["dict", "csr"])
    def test_seeded_regression_values(self, barbell, kernels):
        base = DictOracleMHSampler() if kernels == "dict" else SingleSpaceMHSampler()
        est = MultiChainMHSampler(base, n_chains=4).estimate(barbell, 5, 200, seed=2019)
        assert est.estimate == pytest.approx(self.REGRESSION[kernels], rel=1e-9)


# ----------------------------------------------------------------------
# Validation and merge helpers
# ----------------------------------------------------------------------


class TestValidation:
    def test_rejects_bad_n_chains(self):
        with pytest.raises(ConfigurationError):
            MultiChainMHSampler(n_chains=0)

    def test_rejects_bad_rhat_target(self):
        with pytest.raises(ConfigurationError):
            MultiChainMHSampler(rhat_target=1.0)

    def test_rejects_bad_check_interval(self):
        with pytest.raises(ConfigurationError):
            MultiChainMHSampler(check_interval=0)

    def test_rejects_base_plus_kwargs(self):
        with pytest.raises(ConfigurationError):
            MultiChainMHSampler(SingleSpaceMHSampler(), proposal="degree")

    def test_rejects_lean_base_sampler(self):
        with pytest.raises(ConfigurationError):
            MultiChainMHSampler(SingleSpaceMHSampler(record_states=False))

    def test_rejects_wrong_base_type(self):
        with pytest.raises(ConfigurationError):
            MultiChainMHSampler(JointSpaceMHSampler())

    def test_rejects_budget_below_chain_count(self, barbell):
        with pytest.raises(ConfigurationError):
            MultiChainMHSampler(n_chains=8).estimate(barbell, 5, 4, seed=1)

    def test_api_rejects_chains_for_baseline_methods(self, barbell):
        with pytest.raises(ConfigurationError):
            betweenness_single(
                barbell, 5, method="uniform-source", samples=20, n_chains=4
            )

    def test_edge_driver_validates_the_edge(self, barbell):
        with pytest.raises(EdgeNotFoundError):
            MultiChainEdgeSampler(n_chains=2).estimate(barbell, (0, 11), 20, seed=1)

    def test_merge_rejects_mismatched_reference_sets(self, barbell):
        a = JointSpaceMHSampler().run_chain(barbell, [5, 6], 20, seed=1)
        b = JointSpaceMHSampler().run_chain(barbell, [5, 4], 20, seed=1)
        with pytest.raises(ConfigurationError):
            merge_joint_chains([a, b])
        with pytest.raises(ConfigurationError):
            merge_joint_chains([])

    def test_merge_applies_per_chain_burn_in(self, barbell):
        sampler = JointSpaceMHSampler(burn_in=5)
        chains = [sampler.run_chain(barbell, [5, 6], 20, seed=s) for s in (1, 2)]
        merged = merge_joint_chains(chains)
        assert len(merged.states) == sum(len(c.kept_states()) for c in chains)
        assert merged.burn_in == 0
