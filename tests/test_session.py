"""Tests for the warm ``BetweennessSession`` serving layer.

The session's one contract is *bit-identity with the cold per-call API*: for
the same knobs and seed, every warm answer — first query, repeated query,
interleaved with other query kinds, before or after other vertices — equals
the one-shot :mod:`repro.centrality.api` answer exactly.  On top of that the
warm state must actually work (repeat queries stop paying Brandes passes)
and must die with the graph version (mutation invalidates the arena, the
oracles and the payloads).
"""

from __future__ import annotations

import pytest

from repro.centrality import (
    BetweennessSession,
    betweenness_exact,
    betweenness_single,
    relative_betweenness,
)
from repro.errors import ConfigurationError, GraphStructureError
from repro.execution import ExecutionPlan
from repro.execution.shared_cache import shared_memory_available
from repro.graphs import barabasi_albert_graph, barbell_graph
from repro.mcmc import JointSpaceMHSampler, SingleSpaceMHSampler

JOBS_GRID = (1, 2, 4)


@pytest.fixture
def graph():
    return barabasi_albert_graph(40, 2, seed=3)


def _cold_workload(graph, *, n_jobs=None):
    """The reference answers of the mixed workload, one cold call each."""
    hub = graph.vertices()[0]
    other = graph.vertices()[7]
    kw = dict(n_jobs=n_jobs)
    return [
        betweenness_single(graph, hub, method="mh", samples=60, seed=11, **kw),
        betweenness_single(graph, hub, method="mh", samples=60, seed=11, **kw),
        relative_betweenness(graph, [hub, other, 3], samples=80, seed=5, **kw),
        betweenness_single(graph, other, method="mh", samples=60, seed=2, **kw),
        betweenness_exact(graph, **kw),
        betweenness_single(graph, hub, method="uniform-source", samples=40, seed=9, **kw),
    ]


def _warm_workload(session):
    """The same mixed workload through one warm session."""
    graph = session.graph
    hub = graph.vertices()[0]
    other = graph.vertices()[7]
    return [
        session.estimate(hub, method="mh", samples=60, seed=11),
        session.estimate(hub, method="mh", samples=60, seed=11),
        session.relative([hub, other, 3], samples=80, seed=5),
        session.estimate(other, method="mh", samples=60, seed=2),
        session.exact(),
        session.estimate(hub, method="uniform-source", samples=40, seed=9),
    ]


def _assert_workloads_identical(warm, cold):
    assert warm[0].estimate == cold[0].estimate
    assert warm[1].estimate == cold[1].estimate
    assert warm[2].ratios == cold[2].ratios
    assert warm[2].relative == cold[2].relative
    assert warm[3].estimate == cold[3].estimate
    assert warm[4] == cold[4]
    assert warm[5].estimate == cold[5].estimate


class TestWarmColdBitIdentity:
    def test_sequential_session_matches_cold_calls(self, graph):
        cold = _cold_workload(graph)
        with BetweennessSession(graph) as session:
            warm = _warm_workload(session)
        _assert_workloads_identical(warm, cold)

    @pytest.mark.parametrize("n_jobs", JOBS_GRID)
    def test_engaged_session_matches_cold_calls_across_jobs(self, graph, n_jobs):
        cold = _cold_workload(graph, n_jobs=n_jobs)
        plan = ExecutionPlan(n_jobs=n_jobs)
        with BetweennessSession(graph, plan) as session:
            warm = _warm_workload(session)
        _assert_workloads_identical(warm, cold)

    @pytest.mark.parametrize("n_jobs", (1, 2))
    def test_multichain_session_matches_cold_calls(self, graph, n_jobs):
        hub = graph.vertices()[0]
        cold = betweenness_single(
            graph, hub, method="mh", samples=64, seed=4,
            n_jobs=n_jobs, n_chains=2,
        )
        cold_rel = relative_betweenness(
            graph, [hub, 3, 7], samples=80, seed=6,
            n_jobs=n_jobs, n_chains=2,
        )
        with BetweennessSession(graph, ExecutionPlan(n_jobs=n_jobs)) as session:
            warm = session.estimate(hub, method="mh", samples=64, seed=4, n_chains=2)
            again = session.estimate(hub, method="mh", samples=64, seed=4, n_chains=2)
            warm_rel = session.relative([hub, 3, 7], samples=80, seed=6, n_chains=2)
        assert warm.estimate == cold.estimate
        assert again.estimate == cold.estimate
        assert warm_rel.ratios == cold_rel.ratios


@pytest.mark.skipif(
    not shared_memory_available(),
    reason="warm-cache assertions need working shared memory",
)
class TestWarmStateActuallyWarm:
    def test_repeat_query_pays_no_brandes_passes(self, graph):
        hub = graph.vertices()[0]
        with BetweennessSession(graph) as session:
            first = session.estimate(hub, method="mh", samples=60, seed=11)
            second = session.estimate(hub, method="mh", samples=60, seed=11)
        assert first.estimate == second.estimate
        assert first.diagnostics["evaluations"] > 0
        assert second.diagnostics["evaluations"] == 0

    def test_multichain_repeat_hits_persistent_arena(self, graph):
        hub = graph.vertices()[0]
        with BetweennessSession(graph, ExecutionPlan(n_jobs=2)) as session:
            first = session.estimate(hub, method="mh", samples=64, seed=4, n_chains=2)
            second = session.estimate(hub, method="mh", samples=64, seed=4, n_chains=2)
            arena = session.stats()["context"]["arena"]
        assert first.estimate == second.estimate
        # Zero *cross-request* redundancy: the repeat request pays nothing.
        # (Within the first request two workers may race on a source — a
        # benign duplicated pass — so published <= first-request passes.)
        assert second.diagnostics["evaluations"] == 0
        assert 0 < arena["published"] <= first.diagnostics["evaluations"]

    def test_payload_installed_once_across_requests(self, graph):
        hub = graph.vertices()[0]
        with BetweennessSession(graph, ExecutionPlan(n_jobs=2)) as session:
            session.estimate(hub, method="mh", samples=64, seed=4, n_chains=2)
            session.estimate(3, method="mh", samples=64, seed=9, n_chains=2)
            stats = session.stats()["context"]
        # Different target vertices, one payload: targets ride the tasks.
        assert stats["payload_installs"] == 1


class TestGraphMutation:
    def test_mutation_invalidates_and_matches_cold_on_new_graph(self, graph):
        hub = graph.vertices()[0]
        with BetweennessSession(graph) as session:
            session.estimate(hub, method="mh", samples=60, seed=11)
            graph.add_edge(hub, graph.vertices()[-1])
            warm = session.estimate(hub, method="mh", samples=60, seed=11)
            warm_exact = session.exact()
        cold = betweenness_single(graph, hub, method="mh", samples=60, seed=11)
        assert warm.estimate == cold.estimate
        assert warm_exact == betweenness_exact(graph)

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="arena assertions need working shared memory",
    )
    def test_mutation_resets_the_arena(self, graph):
        hub = graph.vertices()[0]
        with BetweennessSession(graph) as session:
            session.estimate(hub, method="mh", samples=60, seed=11)
            before = session.stats()["context"]["arena"]
            assert before["published"] > 0
            graph.add_edge(hub, graph.vertices()[-1])
            session.estimate(hub, method="mh", samples=10, seed=1)
            after = session.stats()["context"]["arena"]
        # Fresh arena: only the new request's sources are published.
        assert after["published"] < before["published"]

    def test_mutation_invalidates_identity_installed_payloads(self):
        """Exact installs its interned snapshot payload in the persistent
        pool once; after a mutation the workers must answer from a fresh
        snapshot, not the stale one an installed token still names.  (The
        graph must span several shards — a single shard runs inline and
        would never exercise the pool.)"""
        big = barabasi_albert_graph(600, 2, seed=3)
        plan = ExecutionPlan(n_jobs=2)
        with BetweennessSession(big, plan) as session:
            before = session.exact()
            big.add_edge(big.vertices()[0], big.vertices()[-1])
            after = session.exact()
        assert before != after
        assert after == betweenness_exact(big, n_jobs=2)

    def test_rebinding_the_graph_attribute_invalidates(self):
        """Replacing session.graph with a different object — even one with
        an equal version stamp — must invalidate like a mutation."""
        g1 = barabasi_albert_graph(40, 2, seed=3)
        g2 = barabasi_albert_graph(40, 2, seed=4)
        assert g1.version == g2.version
        with BetweennessSession(g1) as session:
            session.estimate(0, method="mh", samples=40, seed=1)
            session.graph = g2
            warm = session.estimate(0, method="mh", samples=40, seed=1)
        cold = betweenness_single(g2, 0, method="mh", samples=40, seed=1)
        assert warm.estimate == cold.estimate

    def test_idempotent_edge_upsert_keeps_warm_state(self, graph):
        """Re-adding an existing identical edge is a no-op and must not
        bump the version (tearing down the arena and warm oracles)."""
        u, v = next(iter(graph.edges()))
        with BetweennessSession(graph) as session:
            first = session.estimate(0, method="mh", samples=40, seed=1)
            version = graph.version
            graph.add_edge(u, v)  # same edge, same weight
            assert graph.version == version
            second = session.estimate(0, method="mh", samples=40, seed=1)
        assert first.estimate == second.estimate
        if second.diagnostics["evaluations"] is not None:
            assert second.diagnostics["evaluations"] == 0  # oracle stayed warm

    def test_disconnecting_mutation_is_caught(self):
        graph = barbell_graph(4, 2)
        with BetweennessSession(graph) as session:
            session.estimate(4, method="mh", samples=20, seed=1)
            # Cutting a bridge disconnects the barbell.
            graph.remove_edge(4, 5)
            with pytest.raises(GraphStructureError):
                session.estimate(4, method="mh", samples=20, seed=1)


@pytest.mark.skipif(
    not shared_memory_available(),
    reason="arena assertions need working shared memory",
)
class TestEachWarmRowHeldOnce:
    """A warm oracle reads the session arena in place: it keeps a row
    privately only when the arena refuses it."""

    def test_oracles_keep_no_private_rows_beside_the_arena(self, graph):
        hub, other = graph.vertices()[0], graph.vertices()[7]
        # The sources a cold run touches: each cold call's private oracle.
        single, joint = SingleSpaceMHSampler(), JointSpaceMHSampler()
        cold_single, cold_joint = single.build_oracle(graph), joint.build_oracle(graph)
        single.estimate(graph, hub, 60, seed=11, oracle=cold_single)
        joint.estimate_relative(graph, [hub, other, 3], 80, seed=5, oracle=cold_joint)
        unique = set(cold_single.cached_sources()) | set(cold_joint.cached_sources())
        with BetweennessSession(graph) as session:
            session.estimate(hub, method="mh", samples=60, seed=11)
            session.relative([hub, other, 3], samples=80, seed=5)
            oracles = list(session._oracles.values())
            arena = session.context.dependency_arena(graph)
            assert len(oracles) == 2
            assert [oracle.cached_count() for oracle in oracles] == [0, 0]
            assert session.stats()["oracle_private_rows"] == 0
            assert arena.published() == len(unique)
            csr = graph.csr()
            assert {csr.vertices[i] for i in arena.sources().tolist()} == unique

    def test_full_arena_overflows_into_the_private_store(self, graph):
        cold = _cold_workload(graph)
        with BetweennessSession(graph, arena_capacity=3) as session:
            warm = _warm_workload(session)
            arena = session.stats()["context"]["arena"]
            private_rows = session.stats()["oracle_private_rows"]
            published = set(session.context.dependency_arena(graph).sources().tolist())
            csr = graph.csr()
            for oracle in session._oracles.values():
                private = {csr.index_of(v) for v in oracle.cached_sources()}
                assert private and private.isdisjoint(published)
        _assert_workloads_identical(warm, cold)
        assert arena["published"] == 3 and arena["full"]
        assert private_rows > 0

    def test_mutate_then_query_after_compaction_matches_cold(self, graph):
        hub = graph.vertices()[0]
        leaf = graph.vertices()[-1]
        with BetweennessSession(graph, arena_capacity=8) as session:
            session.estimate(hub, method="mh", samples=60, seed=11)
            assert session.stats()["context"]["arena"]["full"]
            graph.add_edge(hub, leaf)
            receipt = session.refresh_warm_state()
            assert receipt.mode == "delta", receipt.reason
            assert receipt.arena_rows_compacted > 0
            warm = session.estimate(hub, method="mh", samples=60, seed=11)
            warm_rel = session.relative([hub, leaf, 3], samples=80, seed=5)
        cold_graph = barabasi_albert_graph(40, 2, seed=3)
        cold_graph.add_edge(hub, leaf)
        cold = betweenness_single(cold_graph, hub, method="mh", samples=60, seed=11)
        cold_rel = relative_betweenness(cold_graph, [hub, leaf, 3], samples=80, seed=5)
        assert warm.estimate == cold.estimate
        assert warm_rel.ratios == cold_rel.ratios


class TestSessionSurface:
    def test_ranking_int_form(self, graph):
        with BetweennessSession(graph) as session:
            top = session.ranking(3, samples=120, seed=7)
        assert len(top) == 3
        assert all(v in graph for v in top)

    def test_ranking_restricted_matches_relative(self, graph):
        members = [0, 3, 7, 9]
        with BetweennessSession(graph) as session:
            ranked = session.ranking(members, samples=120, seed=7)
            estimate = session.relative(members, samples=120, seed=7)
        assert ranked == estimate.ranking()

    def test_unknown_method_rejected(self, graph):
        with BetweennessSession(graph) as session:
            with pytest.raises(ConfigurationError, match="unknown method"):
                session.estimate(0, method="nope")

    def test_chains_rejected_for_baselines(self, graph):
        with BetweennessSession(graph) as session:
            with pytest.raises(ConfigurationError, match="MCMC methods"):
                session.estimate(0, method="rk", n_chains=2)

    def test_closed_session_raises(self, graph):
        session = BetweennessSession(graph)
        session.close()
        session.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            session.estimate(0)
        with pytest.raises(ConfigurationError, match="closed"):
            with session:
                pass

    def test_stats_counts_queries(self, graph):
        with BetweennessSession(graph) as session:
            session.estimate(0, samples=20, seed=1)
            session.exact([0])
            assert session.stats()["queries"] == 2

    def test_exposed_from_api_module(self):
        from repro.centrality.api import BetweennessSession as FromApi

        assert FromApi is BetweennessSession


class TestMpContextEndToEnd:
    def test_spawn_multichain_matches_inline(self):
        """The mp_context knob end-to-end: a spawn-context pool plus a
        spawn-context arena lock produce the inline run's exact estimate."""
        from repro.mcmc.multichain import MultiChainMHSampler

        graph = barabasi_albert_graph(30, 2, seed=1)
        r = graph.vertices()[0]
        reference = MultiChainMHSampler(n_chains=2).estimate(
            graph, r, 24, seed=5
        )
        spawned = MultiChainMHSampler(
            n_chains=2, n_jobs=2, mp_context="spawn"
        ).estimate(graph, r, 24, seed=5)
        assert spawned.estimate == reference.estimate
