"""Delta-scoped invalidation: journal, affected regions, retention, bit-identity.

Covers the mutation path end to end:

* the typed change journal of :class:`repro.graphs.core.Graph` (records,
  batching, overflow, pickling);
* :meth:`repro.graphs.csr.CSRGraph.patched` (journal windows spliced into
  the previous snapshot, checked against a rebuild over random edit scripts);
* :mod:`repro.incremental` — the affected-source rule, its fallbacks, and
  the biconnected helpers;
* the hypothesis property that the affected region is a **superset** of
  the truly-changed dependency rows over random mutation sequences;
* warm-vs-cold bit-identity of session answers across the execution grid
  (n_jobs) and across journal overflow;
* the runtime's delta-scoped arena eviction and the session's oracle /
  chain retention.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality import BetweennessSession, betweenness_single
from repro.errors import EdgeNotFoundError
from repro.execution import ExecutionContext, ExecutionPlan
from repro.execution.shared_cache import shared_memory_available
from repro.graphs import Graph, cycle_graph, path_graph, star_graph
from repro.graphs.core import JOURNAL_LIMIT, GraphDelta
from repro.graphs.csr import CSRGraph
from repro.incremental import (
    affected_sources,
    articulation_points,
    bridges,
)
from repro.shortest_paths.batch import batch_source_dependencies


# ----------------------------------------------------------------------
# The change journal
# ----------------------------------------------------------------------
class TestChangeJournal:
    def test_mutations_append_typed_deltas(self):
        g = Graph(weighted=True)
        g.add_edge(0, 1, weight=1.0)
        v0 = g.version
        g.add_edge(1, 2, weight=2.0)
        g.add_edge(0, 1, weight=3.0)  # weight change of an existing edge
        g.remove_edge(1, 2)
        deltas = g.journal_since(v0)
        kinds = [d.kind for d in deltas]
        assert "edge-added" in kinds
        assert "weight-changed" in kinds
        assert "edge-removed" in kinds
        weight_change = next(d for d in deltas if d.kind == "weight-changed")
        assert weight_change.old_weight == 1.0
        assert weight_change.weight == 3.0
        removed = next(d for d in deltas if d.kind == "edge-removed")
        assert removed.old_weight == 2.0

    def test_journal_since_sentinels(self):
        g = Graph()
        g.add_edge(0, 1)
        assert g.journal_since(g.version) == ()
        assert g.journal_since(g.version + 5) is None

    def test_idempotent_upsert_is_invisible(self):
        g = Graph()
        g.add_edge(0, 1)
        v = g.version
        g.add_edge(0, 1)  # same edge, same (default) weight: no-op
        assert g.version == v
        assert g.journal_since(v) == ()

    def test_batch_is_one_version_bump_one_window(self):
        g = Graph()
        g.add_edge(0, 1)
        v0 = g.version
        with g.batch_mutations():
            g.add_edge(1, 2)
            g.add_edge(2, 3)
            g.remove_edge(0, 1)
        assert g.version == v0 + 1
        deltas = g.journal_since(v0)
        assert len(deltas) >= 3
        g2 = Graph()
        g2.add_edge(0, 1)
        v1 = g2.version
        g2.add_edges_from([(1, 2), (2, 3), (3, 4)])
        assert g2.version == v1 + 1

    def test_vertex_ops_recorded(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        v0 = g.version
        g.remove_vertex(2)
        deltas = g.journal_since(v0)
        assert any(d.kind == "vertex-removed" for d in deltas)
        assert all(isinstance(d, GraphDelta) for d in deltas)

    def test_overflow_forgets_old_versions(self):
        g = Graph(weighted=True)
        g.add_edge(0, 1, weight=1.0)
        v0 = g.version
        for i in range(JOURNAL_LIMIT + 10):
            g.add_edge(0, 1, weight=2.0 + (i % 2))
        assert g.journal_since(v0) is None, "overflowed window must be refused"
        assert g.journal_since(g.version) == ()

    def test_settled_version_pends_inside_bumped_batch(self):
        g = Graph.from_edges([(0, 1)])
        v = g.version
        assert not g.in_batch
        assert g.settled_version() == v
        with g.batch_mutations():
            assert g.in_batch
            # No mutation yet: the batch has not bumped, nothing pends.
            assert g.settled_version() == g.version == v
            g.add_edge(1, 2)
            assert g.version == v + 1
            assert g.settled_version() == v, "bumped batch version must pend"
            g.add_edge(2, 3)
            assert g.settled_version() == v
        assert not g.in_batch
        assert g.settled_version() == g.version == v + 1

    def test_pickle_roundtrip_preserves_journal(self):
        g = Graph()
        g.add_edge(0, 1)
        v0 = g.version
        g.add_edge(1, 2)
        clone = pickle.loads(pickle.dumps(g))
        assert clone.version == g.version
        assert [d.kind for d in clone.journal_since(v0)] == [
            d.kind for d in g.journal_since(v0)
        ]


# ----------------------------------------------------------------------
# Snapshot patching: weight-only windows and edge splices
# ----------------------------------------------------------------------
class TestPatchedSnapshot:
    def _weighted_path(self):
        g = Graph(weighted=True)
        for i in range(8):
            g.add_edge(i, i + 1, weight=1.0 + i)
        return g

    def test_weight_only_mutation_patches_in_place(self):
        g = self._weighted_path()
        before = g.csr()
        g.add_edge(3, 4, weight=42.0)
        after = g.csr()
        assert after.indptr is before.indptr
        assert after.indices is before.indices
        assert after.weights is not before.weights
        rebuilt = CSRGraph.from_graph(g)
        assert np.array_equal(after.weights, rebuilt.weights)

    def test_edge_mutation_splices_new_structure(self):
        g = self._weighted_path()
        before = g.csr()
        g.add_edge(0, 8, weight=5.0)
        after = g.csr()
        assert after.indices is not before.indices
        assert after.number_of_edges() == before.number_of_edges() + 1

    def test_patched_rejects_absent_edge(self):
        csr = self._weighted_path().csr()
        with pytest.raises(EdgeNotFoundError):
            csr.patched([GraphDelta("weight-changed", u=0, v=7, weight=1.0)])

    def test_removing_an_absent_edge_raises(self):
        csr = self._weighted_path().csr()
        with pytest.raises(EdgeNotFoundError):
            csr.patched([GraphDelta("edge-removed", u=0, v=7, old_weight=1.0)])

    def test_patched_refuses_vertex_deltas(self):
        csr = self._weighted_path().csr()
        with pytest.raises(ValueError):
            csr.patched([GraphDelta("vertex-added", u=99)])

    def test_edge_window_splices_without_a_rebuild(self, monkeypatch):
        g = self._weighted_path()
        before = g.csr()
        rebuild = CSRGraph.from_graph
        monkeypatch.setattr(CSRGraph, "from_graph", _refuse_rebuild)
        with g.batch_mutations():
            g.remove_edge(2, 3)
            g.add_edge(0, 5, weight=2.5)
        after = g.csr()
        assert after.vertices is before.vertices
        _assert_same_snapshot(after, rebuild(g))

    def test_readded_edge_comes_back_at_the_row_end(self):
        g = path_graph(5)
        g.csr()
        g.remove_edge(1, 2)
        g.add_edge(1, 2)
        csr = g.csr()
        assert csr.neighbors_of(csr.index_of(1)).tolist()[-1] == csr.index_of(2)
        assert csr.neighbors_of(csr.index_of(2)).tolist()[-1] == csr.index_of(1)
        _assert_same_snapshot(csr, CSRGraph.from_graph(g))

    def test_vertex_delta_rebuilds(self):
        g = self._weighted_path()
        g.csr()
        builds = _count_rebuilds(g, lambda: g.add_edge(0, 99, weight=1.0))
        assert builds == 1

    def test_journal_overflow_rebuilds(self):
        g = self._weighted_path()
        g.csr()

        def churn():
            for _ in range(JOURNAL_LIMIT // 2 + 1):
                g.remove_edge(0, 1)
                g.add_edge(0, 1, weight=1.0)

        assert _count_rebuilds(g, churn) == 1

    def test_snapshot_read_inside_a_batch_is_no_splice_base(self):
        # The mid-batch snapshot has seen the first record of the batch's
        # version but not the second, so a later window must not be
        # replayed onto it.
        g = self._weighted_path()
        g.csr()
        with g.batch_mutations():
            g.add_edge(0, 1, weight=7.0)
            g.csr()
            g.remove_edge(1, 2)
        g.add_edge(2, 3, weight=11.0)
        _assert_same_snapshot(g.csr(), CSRGraph.from_graph(g))


def _refuse_rebuild(graph):
    raise AssertionError("the snapshot was rebuilt instead of spliced")


def _count_rebuilds(g, mutate) -> int:
    """Run *mutate* then ``g.csr()``, counting the ``from_graph`` rebuilds."""
    calls = []
    rebuild = CSRGraph.from_graph
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CSRGraph, "from_graph", lambda graph: calls.append(1) or rebuild(graph))
        mutate()
        spliced = g.csr()
    _assert_same_snapshot(spliced, rebuild(g))
    return len(calls)


def _assert_same_snapshot(csr, expected):
    assert csr.vertices == expected.vertices
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(csr, name), getattr(expected, name)), name


#: One edit of a splice script: an op code, two endpoints over 8 vertices
#: and a weight.  Op 0 toggles the edge, op 1 re-weights it (adding it when
#: absent), op 2 removes and re-adds it (adding it when absent).
_edits = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([0.5, 1.0, 2.0, 3.5]),
).filter(lambda e: e[1] != e[2])


class TestSpliceProperty:
    @given(
        directed=st.booleans(),
        weighted=st.booleans(),
        base=st.lists(_edits, max_size=20),
        windows=st.lists(
            st.tuples(st.lists(_edits, min_size=1, max_size=6), st.booleans()),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_spliced_snapshot_equals_a_rebuild(self, directed, weighted, base, windows):
        # Each window runs in one batch_mutations() block; windows whose
        # flag is False are not read, so the next read splices several
        # windows at once.  Every read must equal a from-scratch build,
        # and none may rebuild: no window adds or removes a vertex.
        g = Graph(directed=directed, weighted=weighted)
        g.add_vertices_from(range(8))
        for _, u, v, w in base:
            g.add_edge(u, v, w)
        g.csr()
        rebuild = CSRGraph.from_graph
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CSRGraph, "from_graph", _refuse_rebuild)
            for edits, read in windows:
                with g.batch_mutations():
                    for op, u, v, w in edits:
                        present = g.has_edge(u, v)
                        if op == 0 and present:
                            g.remove_edge(u, v)
                        elif op == 2 and present:
                            g.remove_edge(u, v)
                            g.add_edge(u, v, w)
                        else:
                            g.add_edge(u, v, w)
                if read:
                    _assert_same_snapshot(g.csr(), rebuild(g))
            _assert_same_snapshot(g.csr(), rebuild(g))


# ----------------------------------------------------------------------
# Biconnected helpers
# ----------------------------------------------------------------------
class TestBiconnected:
    def test_path_graph(self):
        csr = path_graph(6).csr()
        aps = articulation_points(csr)
        assert list(np.nonzero(aps)[0]) == [1, 2, 3, 4]
        assert len(bridges(csr)) == 5

    def test_cycle_graph_has_none(self):
        csr = cycle_graph(6).csr()
        assert not articulation_points(csr).any()
        assert bridges(csr) == set()

    def test_star_center_is_articulation(self):
        g = star_graph(5)
        csr = g.csr()
        aps = articulation_points(csr)
        center_index = csr.find_index(g.vertices()[0])
        assert aps[center_index]
        assert int(aps.sum()) == 1
        assert len(bridges(csr)) == 5


# ----------------------------------------------------------------------
# The affected-source rule and its fallbacks
# ----------------------------------------------------------------------
class TestAffectedSources:
    def test_empty_window_affects_nothing(self):
        csr = star_graph(4).csr()
        region = affected_sources(csr, ())
        assert not region.everything
        assert region.count() == 0

    def test_overflow_falls_back_to_everything(self):
        csr = star_graph(4).csr()
        region = affected_sources(csr, None)
        assert region.everything
        assert region.reason == "journal-overflow"

    def test_vertex_change_falls_back(self):
        csr = star_graph(4).csr()
        region = affected_sources(csr, (GraphDelta("vertex-added", u=9),))
        assert region.everything
        assert region.reason == "vertex-change"

    def test_weighted_structural_falls_back(self):
        # The tightness argument needs the mutated edge present in both
        # snapshots, so structural records in a weighted window still
        # force the full fallback.
        g = Graph(weighted=True)
        g.add_edge(0, 1, weight=2.0)
        g.add_edge(1, 2, weight=3.0)
        region = affected_sources(
            g.csr(), (GraphDelta("edge-added", u=1, v=2, weight=3.0),)
        )
        assert region.everything
        assert region.reason == "weighted"

    def test_weight_record_missing_old_weight_falls_back(self):
        g = Graph(weighted=True)
        g.add_edge(0, 1, weight=2.0)
        g.add_edge(1, 2, weight=3.0)
        region = affected_sources(
            g.csr(), (GraphDelta("weight-changed", u=0, v=1, weight=4.0),)
        )
        assert region.everything
        assert region.reason == "unknown-weight"

    def test_weight_only_window_scopes_to_tight_sources(self):
        # Weighted star (spokes weight 1, one long spoke 0-5 weight 10)
        # plus a chord between leaves 1 and 2 bumped from 2.0 to 3.0.
        # Only the chord endpoints are flagged: from either, the old
        # weight 2.0 exactly ties the via-center path (d=2), so their
        # pre-mutation DAGs contained the chord.  Every other source
        # reaches both chord endpoints more cheaply than any chord
        # crossing under either weight, so those rows are retained.
        g = Graph(weighted=True)
        for leaf in (1, 2, 3, 4):
            g.add_edge(0, leaf, weight=1.0)
        g.add_edge(0, 5, weight=10.0)
        g.add_edge(1, 2, weight=2.0)
        version = g.version
        g.add_edge(1, 2, weight=3.0)  # weight-only upsert
        csr = g.csr()
        region = affected_sources(csr, g.journal_since(version))
        assert not region.everything
        assert sorted(region.endpoints) == sorted(
            (csr.index_of(1), csr.index_of(2))
        )
        affected = {int(i) for i in region.indices()}
        assert affected == {csr.index_of(1), csr.index_of(2)}

    def test_star_leaf_edge_affects_only_its_endpoints(self):
        # Every other source reaches both new endpoints through the
        # center at distance 2, so d(s,u) == d(s,v) and its whole SSSP
        # structure is untouched.
        g = star_graph(6)
        leaves = g.vertices()[1:]
        u, v = leaves[0], leaves[3]
        version = g.version
        g.add_edge(u, v)
        csr = g.csr()
        region = affected_sources(csr, g.journal_since(version))
        assert not region.everything
        affected = {int(i) for i in region.indices()}
        assert affected == {csr.find_index(u), csr.find_index(v)}


# ----------------------------------------------------------------------
# Property: the affected region is a superset of the truly-changed rows
# ----------------------------------------------------------------------
#: Candidate edges over a 10-vertex universe; each drawn pair is toggled
#: (removed when present, inserted when absent), so sequences exercise
#: insertions, removals and composites in one journal window.
_pairs = st.tuples(
    st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)
).filter(lambda p: p[0] != p[1])


class TestSupersetProperty:
    @given(
        base=st.lists(_pairs, min_size=3, max_size=25),
        ops=st.lists(_pairs, min_size=1, max_size=8),
    )
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_unaffected_rows_are_bit_identical(self, base, ops):
        g = Graph()
        for i in range(10):
            g.add_vertex(i)
        for u, v in base:
            g.add_edge(u, v)
        csr_before = g.csr()
        dep_before = batch_source_dependencies(csr_before, list(range(10)))
        version = g.version
        for u, v in ops:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
        deltas = g.journal_since(version)
        assert deltas is not None, "short windows never overflow the journal"
        csr_after = CSRGraph.from_graph(g)
        region = affected_sources(csr_after, deltas)
        if region.everything:
            return  # the safe fallback is trivially a superset
        dep_after = batch_source_dependencies(csr_after, list(range(10)))
        mask = region.mask
        for i in range(10):
            if not mask[i]:
                assert np.array_equal(dep_before[i], dep_after[i]), (
                    f"source {i} outside the affected region changed: "
                    f"ops={ops!r} base={base!r}"
                )


#: Positive edge weights for the weighted twin of the superset property;
#: bounded well away from zero so hypothesis cannot construct graphs whose
#: path sums underflow the relaxation tolerance.
_weights = st.floats(min_value=0.5, max_value=4.0, allow_nan=False, allow_infinity=False)


class TestWeightedSupersetProperty:
    @given(
        base=st.lists(
            st.tuples(_pairs, _weights), min_size=3, max_size=20, unique_by=lambda e: e[0]
        ),
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=10**6), _weights),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_unflagged_weighted_rows_are_bit_identical(self, base, ops):
        # The weighted twin of the toggle property above: every op is a
        # weight change of an existing edge (picked by index), so the
        # journal window is weight-only and routes through the
        # edge-tightness rule rather than the full fallback.
        g = Graph(weighted=True)
        for i in range(10):
            g.add_vertex(i)
        for (u, v), w in base:
            g.add_edge(u, v, weight=w)
        edges = sorted((u, v) for u, v in g.edges())
        csr_before = g.csr()
        dep_before = batch_source_dependencies(csr_before, list(range(10)))
        version = g.version
        for pick, w in ops:
            u, v = edges[pick % len(edges)]
            g.add_edge(u, v, weight=w)
        deltas = g.journal_since(version)
        assert deltas is not None, "short windows never overflow the journal"
        assert all(d.kind == "weight-changed" for d in deltas)
        csr_after = CSRGraph.from_graph(g)
        region = affected_sources(csr_after, deltas)
        assert not region.everything, region.reason
        dep_after = batch_source_dependencies(csr_after, list(range(10)))
        mask = region.mask
        for i in range(10):
            if not mask[i]:
                assert np.array_equal(dep_before[i], dep_after[i]), (
                    f"source {i} outside the affected region changed: "
                    f"ops={ops!r} base={base!r}"
                )


# ----------------------------------------------------------------------
# Warm-vs-cold bit-identity across the execution grid
# ----------------------------------------------------------------------
#: One deterministic mutate-heavy scenario replayed per worker count.
_GRID = (None, 2, 4)


def _scripted_graph():
    g = Graph()
    rng = random.Random(7)
    for i in range(18):
        g.add_edge(i, i + 1)
    for _ in range(12):
        u, v = rng.sample(range(19), 2)
        g.add_edge(u, v)
    return g


def _scripted_ops():
    rng = random.Random(11)
    return [tuple(rng.sample(range(19), 2)) for _ in range(6)]


def _scripted_weighted_graph():
    g = Graph(weighted=True)
    rng = random.Random(7)
    for i in range(18):
        g.add_edge(i, i + 1, weight=0.5 + rng.random() * 2.5)
    for _ in range(12):
        u, v = rng.sample(range(19), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, weight=0.5 + rng.random() * 2.5)
    return g


def _scripted_weight_ops(graph):
    """Deterministic weight-only mutations over the existing edge set."""
    rng = random.Random(11)
    edges = sorted((u, v) for u, v in graph.edges())
    ops = []
    for _ in range(6):
        u, v = edges[rng.randrange(len(edges))]
        ops.append((u, v, 0.5 + rng.random() * 2.5))
    return ops


@pytest.mark.skipif(
    not shared_memory_available(), reason="requires working shared memory"
)
class TestWarmColdGrid:
    @pytest.mark.parametrize("n_jobs", _GRID)
    def test_session_matches_cold_across_mutations(self, n_jobs):
        warm_graph = _scripted_graph()
        cold_graph = _scripted_graph()
        plan = ExecutionPlan(n_jobs=n_jobs) if n_jobs is not None else None
        with BetweennessSession(warm_graph, plan, check_connected=False) as session:
            for step, (u, v) in enumerate(_scripted_ops()):
                for graph in (warm_graph, cold_graph):
                    if graph.has_edge(u, v):
                        graph.remove_edge(u, v)
                    else:
                        graph.add_edge(u, v)
                warm = session.estimate(5, samples=24, seed=40 + step)
                cold = betweenness_single(
                    cold_graph,
                    5,
                    samples=24,
                    seed=40 + step,
                    n_jobs=n_jobs,
                    check_connected=False,
                )
                assert warm.estimate == cold.estimate, (
                    f"step {step} diverged under n_jobs={n_jobs}"
                )

    @pytest.mark.parametrize("n_jobs", _GRID)
    def test_weighted_session_matches_cold_across_weight_mutations(self, n_jobs):
        # The weighted twin of the scenario above: weight-only mutations
        # route through the edge-tightness rule (delta mode), and the
        # warm session must stay bit-identical to a cold recompute on a
        # separately-mutated clone for every grid cell.
        warm_graph = _scripted_weighted_graph()
        cold_graph = _scripted_weighted_graph()
        ops = _scripted_weight_ops(warm_graph)
        plan = ExecutionPlan(n_jobs=n_jobs) if n_jobs is not None else None
        with BetweennessSession(warm_graph, plan, check_connected=False) as session:
            for step, (u, v, weight) in enumerate(ops):
                for graph in (warm_graph, cold_graph):
                    graph.add_edge(u, v, weight=weight)
                warm = session.estimate(5, samples=24, seed=40 + step)
                cold = betweenness_single(
                    cold_graph,
                    5,
                    samples=24,
                    seed=40 + step,
                    n_jobs=n_jobs,
                    check_connected=False,
                )
                assert warm.estimate == cold.estimate, (
                    f"step {step} diverged under n_jobs={n_jobs}"
                )


# ----------------------------------------------------------------------
# Journal overflow: full fallback, unchanged answers
# ----------------------------------------------------------------------
class TestOverflowFallback:
    def test_overflowed_session_falls_back_and_stays_correct(self):
        g = star_graph(8)
        leaves = g.vertices()[1:]
        with BetweennessSession(g) as session:
            session.estimate(g.vertices()[0], samples=24, seed=3)
            for i in range(JOURNAL_LIMIT + 8):
                u, v = leaves[i % 4], leaves[4 + i % 4]
                if g.has_edge(u, v):
                    g.remove_edge(u, v)
                else:
                    g.add_edge(u, v)
            receipt = session.refresh_warm_state()
            assert receipt.mode == "full"
            assert receipt.reason == "journal-overflow"
            warm = session.estimate(g.vertices()[0], samples=24, seed=3)
        cold = betweenness_single(
            Graph.from_edges(list(g.edges())), g.vertices()[0], samples=24, seed=3
        )
        assert warm.estimate == cold.estimate


# ----------------------------------------------------------------------
# Runtime: delta-scoped arena eviction
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not shared_memory_available(), reason="requires working shared memory"
)
class TestRuntimeDeltaScoping:
    def test_delta_refresh_retains_unaffected_arena_rows(self):
        g = star_graph(8)
        n = g.number_of_vertices()
        with ExecutionContext() as ctx:
            ctx.refresh(g)
            arena = ctx.dependency_arena(g)
            for i in range(n):
                arena.put(i, np.full(n, float(i)))
            leaves = g.vertices()[1:]
            u, v = leaves[0], leaves[5]
            g.add_edge(u, v)
            receipt = ctx.refresh(g)
            assert receipt.mode == "delta"
            assert receipt.affected_sources == 2
            assert receipt.arena_rows_evicted == 2
            assert receipt.arena_rows_retained == n - 2
            assert ctx.dependency_arena(g) is arena, "arena object survives"
            csr = g.csr()
            assert arena.get(csr.find_index(u)) is None
            assert arena.get(csr.find_index(v)) is None
            keep = csr.find_index(g.vertices()[0])
            assert arena.get(keep) is not None

    def test_no_prior_snapshot_takes_the_delta_path(self):
        # Every dependency path computes the same bits, so the region proof
        # needs only the post-mutation snapshot: a graph whose csr() was
        # never taken before the mutation still scopes its eviction.
        g = star_graph(6)
        pre = star_graph(6).csr()  # an independent clone's snapshot
        n = pre.number_of_vertices()
        with ExecutionContext() as ctx:
            ctx.refresh(g)
            arena = ctx.dependency_arena(g)
            for i in range(n):
                arena.put(i, batch_source_dependencies(pre, [i])[0])
            u, v = g.vertices()[1], g.vertices()[2]
            assert g._csr is None and g._stale_csr is None
            g.add_edge(u, v)
            receipt = ctx.refresh(g)
            assert receipt.mode == "delta", receipt.reason
            assert receipt.affected_sources == 2
            assert receipt.arena_rows_evicted == 2
            assert ctx.dependency_arena(g) is arena
            csr = g.csr()
            affected = {csr.index_of(u), csr.index_of(v)}
            for i in range(n):
                row = arena.get(i)
                if i in affected:
                    assert row is None
                else:
                    cold = batch_source_dependencies(csr, [i])[0]
                    assert np.array_equal(row, cold)

    def test_full_mode_disables_delta_scoping(self):
        # A vertex insertion changes the CSR index space, so no journal
        # window can scope it: the destroy-everything fallback runs.
        g = star_graph(6)
        g.csr()
        with ExecutionContext() as ctx:
            ctx.refresh(g)
            arena = ctx.dependency_arena(g)
            arena.put(0, np.zeros(g.number_of_vertices()))
            g.add_vertex("new")
            g.add_edge(g.vertices()[1], "new")
            receipt = ctx.refresh(g)
            assert receipt.mode == "full"
            assert receipt.reason == "vertex-change"
            assert receipt.arena_rows_evicted == 1
            assert receipt.arena_rows_retained == 0
            assert ctx.dependency_arena(g) is not arena

    def test_refresh_inside_open_batch_keeps_the_window_pending(self):
        # Regression: a consumer that refreshed inside an open
        # batch_mutations() block used to stamp the batch's (still
        # accumulating) version, so the post-batch refresh saw
        # version == stamp and silently retained state the rest of the
        # batch had invalidated.
        g = star_graph(8)
        g.csr()
        leaves = g.vertices()[1:]
        n = g.number_of_vertices()
        with ExecutionContext() as ctx:
            ctx.refresh(g)
            arena = ctx.dependency_arena(g)
            for i in range(n):
                arena.put(i, np.full(n, float(i)))
            with g.batch_mutations():
                g.add_edge(leaves[0], leaves[3])
                mid = ctx.refresh(g)  # consumer sync inside the open batch
                assert mid.mode == "delta"
                g.add_edge(leaves[1], leaves[4])
            receipt = ctx.refresh(g)
            assert receipt.mode != "noop", (
                "the post-batch sync must consume the rest of the window"
            )

    def test_sustained_delta_eviction_compacts_the_arena(self):
        # Regression: tombstoned rows permanently spent arena capacity, so
        # a long-running delta-mode session ground the write-once arena
        # down to a permanent "full" while published() stayed small.
        g = star_graph(10)
        leaves = g.vertices()[1:]
        n = g.number_of_vertices()
        with ExecutionContext() as ctx:
            ctx.refresh(g)
            arena = ctx.dependency_arena(g)
            assert arena.capacity == n
            compacted = 0
            for step in range(12):
                g.csr()  # the prior snapshot the kernel-path guard needs
                for i in range(n):
                    arena.put(i, np.full(n, float(step)))
                u, v = leaves[step % 4], leaves[4 + step % 4]
                if g.has_edge(u, v):
                    g.remove_edge(u, v)
                else:
                    g.add_edge(u, v)
                receipt = ctx.refresh(g)
                assert receipt.mode == "delta", receipt.reason
                compacted += receipt.arena_rows_compacted
                assert ctx.dependency_arena(g) is arena, "arena object survives"
            assert compacted > 0, "sustained eviction must trigger compaction"
            assert arena.tombstoned() <= arena.capacity // 2

    def test_shared_store_tombstones(self):
        from repro.execution.shared_cache import SharedDependencyStore

        store = SharedDependencyStore(5, 4)
        try:
            for i in range(3):
                store.put(i, np.full(5, float(i)))
            assert store.invalidate_sources([0, 2, 4]) == 2  # 4 was never put
            assert store.published() == 1
            assert store.tombstoned() == 2
            assert store.get(0) is None
            assert store.get(1) is not None
            assert store.stats()["tombstoned"] == 2
        finally:
            store.destroy()


# ----------------------------------------------------------------------
# Session: oracle retention and chain continuation
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not shared_memory_available(), reason="requires working shared memory"
)
class TestSessionRetention:
    def test_oracle_vectors_survive_outside_the_region(self):
        g = star_graph(10)
        center = g.vertices()[0]
        leaves = g.vertices()[1:]
        with BetweennessSession(g) as session:
            session.estimate(center, samples=40, seed=2)
            warm_before = session.stats()["warm_oracles"]
            g.add_edge(leaves[0], leaves[5])
            receipt = session.refresh_warm_state()
            assert receipt.mode == "delta"
            assert receipt.affected_sources == 2
            assert receipt.oracle_vectors_evicted <= 2
            assert receipt.oracle_vectors_retained > 0
            assert session.stats()["warm_oracles"] == warm_before

    def test_weight_only_mutation_reports_delta_mode(self):
        # The acceptance receipt of the weighted edge-tightness rule: a
        # weight-only mutation of a weighted session graph must scope the
        # invalidation (mode "delta"), not destroy everything.
        g = _scripted_weighted_graph()
        with BetweennessSession(g, check_connected=False) as session:
            session.estimate(5, samples=24, seed=9)
            u, v, weight = _scripted_weight_ops(g)[0]
            g.add_edge(u, v, weight=weight)
            receipt = session.refresh_warm_state()
            assert receipt.mode == "delta", receipt.reason
            assert receipt.affected_sources is not None
            assert receipt.affected_sources < g.number_of_vertices()
            assert receipt.touched_endpoints == 2

    def test_full_fallback_clears_oracles(self):
        g = star_graph(10)
        leaves = g.vertices()[1:]
        with BetweennessSession(g) as session:
            session.estimate(g.vertices()[0], samples=40, seed=2)
            assert session.stats()["warm_oracles"] > 0
            g.add_vertex("new")
            g.add_edge(leaves[0], "new")
            receipt = session.refresh_warm_state()
            assert receipt.mode == "full"
            assert receipt.reason == "vertex-change"
            assert receipt.oracle_vectors_retained == 0
            assert session.stats()["warm_oracles"] == 0

    def test_chain_continues_when_region_misses_its_state(self):
        g = star_graph(10)
        center = g.vertices()[0]
        leaves = g.vertices()[1:]
        with BetweennessSession(g) as session:
            chain = session.open_chain(center, seed=5)
            chain.advance(30)
            state = chain.result.states[-1].vertex
            u, v = [l for l in leaves if l != state][:2]
            g.add_edge(u, v)
            receipt = session.refresh_warm_state()
            assert receipt.mode == "delta"
            assert receipt.chains_continued == 1
            assert receipt.chains_restarted == 0
            before = chain.result.chain_length()
            chain.advance(30)
            assert chain.result.chain_length() == before + 30
            assert chain.continuations == 1
            assert chain.restarts == 0

    def test_chain_restarts_when_its_state_is_affected(self):
        g = star_graph(10)
        center = g.vertices()[0]
        leaves = g.vertices()[1:]
        with BetweennessSession(g) as session:
            chain = session.open_chain(center, seed=5)
            chain.advance(30)
            state = chain.result.states[-1].vertex
            other = next(l for l in leaves if l != state)
            u = state if state != center else leaves[0]
            g.add_edge(u, other)
            receipt = session.refresh_warm_state()
            assert receipt.chains_restarted + receipt.chains_continued == 1
            if receipt.chains_restarted:
                chain.advance(20)
                assert chain.restarts == 1
                assert chain.result.chain_length() == 20

    def test_query_inside_open_batch_never_serves_stale_state_after(self):
        # Regression (high): a session query issued inside an open
        # batch_mutations() block stamped the bumped batch version;
        # mutations later in the same batch journaled under that same
        # version, so the post-batch query saw version == stamp, skipped
        # invalidation, and served stale warm oracle/arena vectors.
        warm_graph = star_graph(10)
        center = warm_graph.vertices()[0]
        leaves = warm_graph.vertices()[1:]
        with BetweennessSession(warm_graph) as session:
            session.estimate(center, samples=30, seed=1)  # warm the oracle
            with warm_graph.batch_mutations():
                warm_graph.add_edge(leaves[0], leaves[1])
                mid = session.estimate(center, samples=30, seed=2)
                warm_graph.add_edge(leaves[2], leaves[3])
                warm_graph.add_edge(leaves[4], leaves[5])
            warm = session.estimate(center, samples=30, seed=3)
        # The mid-batch answer reflects the graph as mutated so far...
        mid_graph = star_graph(10)
        mid_graph.add_edge(leaves[0], leaves[1])
        cold_mid = betweenness_single(mid_graph, center, samples=30, seed=2)
        assert mid.estimate == cold_mid.estimate
        # ...and the post-batch answer the *whole* batch, bit-identically.
        cold_graph = Graph.from_edges(list(warm_graph.edges()))
        cold = betweenness_single(cold_graph, center, samples=30, seed=3)
        assert warm.estimate == cold.estimate

    def test_spmm_depth_flip_keeps_the_delta_path(self):
        # A 25-ring with a small cloud of parallel shortest paths hung on
        # vertex 12, opposite the edge (0, 24), sits just inside the
        # sparse-matmul depth cap; opening the ring pushes it past the cap
        # (and closing it brings it back).  The cloud's sources are
        # unaffected by the toggle, so their rows are retained across it
        # although they were computed on the other batched path.  Every
        # path computes the same bits, so the session stays delta-scoped
        # and answers bit-identically to a cold call.
        from repro.shortest_paths.batch import _spmm_suitable

        def ring():
            edges = [(i, i + 1) for i in range(24)]
            edges += [(12, a) for a in (100, 101, 102)]
            edges += [(a, 103) for a in (100, 101, 102)]
            edges += [(103, 104), (103, 105)]
            g = Graph.from_edges(edges)
            g.add_edge(0, 24)
            return g

        warm_graph, cold_graph = ring(), ring()
        r = 100
        with BetweennessSession(warm_graph) as session:
            session.estimate(r, samples=200, seed=1)  # warm every source
            for step, (mutate, suitable) in enumerate(
                (("remove_edge", False), ("add_edge", True))
            ):
                before = _spmm_suitable(cold_graph.csr())
                for graph in (warm_graph, cold_graph):
                    getattr(graph, mutate)(0, 24)
                assert _spmm_suitable(cold_graph.csr()) is suitable is not before
                receipt = session.refresh_warm_state()
                assert receipt.mode == "delta", receipt.reason
                assert receipt.affected_sources < warm_graph.number_of_vertices()
                assert receipt.oracle_vectors_retained > 0
                warm = session.estimate(r, samples=200, seed=10 + step)
                cold = betweenness_single(cold_graph, r, samples=200, seed=10 + step)
                assert warm.estimate == cold.estimate, step
                # Every state's dependency, not only their rounded sum.
                assert np.array_equal(
                    warm.diagnostics["chain"].dependency,
                    cold.diagnostics["chain"].dependency,
                ), step

    def test_mutate_noop_reports_version_unchanged(self):
        from repro.centrality.session import ThreadSafeSession

        g = star_graph(6)
        with BetweennessSession(g) as session:
            safe = ThreadSafeSession(session)
            edge = (g.vertices()[0], g.vertices()[1])  # already present
            receipt = safe.mutate(lambda graph: graph.add_edge(*edge))
            assert receipt.mode == "noop"
            assert receipt.version_changed is False
