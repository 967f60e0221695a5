"""Tests for the zero-copy shared-memory CSR graph snapshots.

Four layers of promises:

1. **Snapshot protocol** — :class:`repro.graphs.shared.SharedCSRGraph` packs
   a CSR snapshot into one segment whose attached views are byte-equal and
   read-only, pickles down to ``(segment name, header)``, re-attaches in the
   unpickling process, and answers the whole label API (identity fast path
   and pickled label table alike) exactly like the plain snapshot.
2. **Registry** — :func:`repro.graphs.shared.ensure_shared_graph` hands back
   one persistent snapshot per ``(graph, version)``; mutation destroys the
   stale segment, and an explicit discard does too.
3. **Runtime integration** — :meth:`ExecutionContext.shared_graph` keeps one
   version-stamped segment per context, invalidates it alongside the
   dependency arena on mutation, and destroys it on close (no leaked
   segments after a session exits).
4. **Estimator parity** — every planned estimator produces bit-identical
   results with ``shared_graph=True`` vs the pickled-shipping default, for
   any ``n_jobs`` at a fixed seed; unsupported platforms fall back
   gracefully.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError, VertexNotFoundError
from repro.execution import (
    ExecutionContext,
    ExecutionPlan,
    graph_snapshot,
    plan_snapshot,
    resolve_plan,
)
from repro.graphs import Graph, barabasi_albert_graph
from repro.graphs.csr import np
from repro.graphs.shared import (
    SharedCSRGraph,
    _REGISTRY,
    create_shared_graph,
    discard_shared_graph,
    ensure_shared_graph,
    shared_graph_available,
)
from repro.mcmc.multichain import MultiChainMHSampler
from repro.samplers.uniform_source import UniformSourceSampler

pytestmark = pytest.mark.skipif(
    not shared_graph_available(),
    reason="shared graph snapshots require working shared memory",
)


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


@pytest.fixture
def graph():
    return barabasi_albert_graph(30, 2, seed=5)


@pytest.fixture
def labeled_graph():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "a")
    g.add_edge("c", "d")
    return g


# ----------------------------------------------------------------------
# Snapshot protocol
# ----------------------------------------------------------------------


def test_shared_snapshot_arrays_byte_equal_and_read_only(graph):
    csr = graph.csr()
    shared = SharedCSRGraph.from_csr(csr, version=graph.version)
    try:
        assert np.array_equal(shared.indptr, csr.indptr)
        assert np.array_equal(shared.indices, csr.indices)
        assert np.array_equal(shared.weights, csr.weights)
        assert shared.directed == csr.directed
        assert shared.weighted == csr.weighted
        assert shared.number_of_vertices() == csr.number_of_vertices()
        assert len(shared) == len(csr)
        for view in (shared.indptr, shared.indices, shared.weights):
            assert not view.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            shared.indices[0] = 99
    finally:
        shared.destroy()


def test_shared_snapshot_identity_fast_path_stores_no_labels(graph):
    shared = SharedCSRGraph.from_csr(graph.csr(), version=graph.version)
    try:
        assert shared._header["identity"] is True
        assert shared._header["labels_nbytes"] == 0
        # The label API answers arithmetically, without materialising.
        assert shared.vertex_at(3) == 3
        assert shared.vertex_at(-1) == shared.number_of_vertices() - 1
        with pytest.raises(IndexError):
            shared.vertex_at(shared.number_of_vertices())
        assert shared.index_of(7) == 7
        with pytest.raises(VertexNotFoundError):
            shared.index_of(shared.number_of_vertices())
        with pytest.raises(VertexNotFoundError):
            shared.index_of(-1)
        assert shared.find_index(2) == 2
        assert shared.find_index(10**6) is None
        assert shared.vertices == graph.csr().vertices
    finally:
        shared.destroy()


def test_shared_snapshot_non_identity_labels_round_trip(labeled_graph):
    csr = labeled_graph.csr()
    shared = SharedCSRGraph.from_csr(csr, version=labeled_graph.version)
    try:
        assert shared._header["identity"] is False
        assert shared._header["labels_nbytes"] > 0
        assert shared.vertices == csr.vertices
        for v in csr.vertices:
            assert shared.index_of(v) == csr.index_of(v)
        assert shared.vertex_at(1) == csr.vertex_at(1)
        with pytest.raises(VertexNotFoundError):
            shared.index_of("zzz")
        assert shared.find_index("zzz") is None
        values = np.arange(csr.number_of_vertices(), dtype=np.float64)
        assert shared.array_to_vertex_map(values) == csr.array_to_vertex_map(values)
    finally:
        shared.destroy()


def test_shared_snapshot_array_to_vertex_map_identity(graph):
    csr = graph.csr()
    shared = SharedCSRGraph.from_csr(csr, version=graph.version)
    try:
        values = np.linspace(0.0, 1.0, csr.number_of_vertices())
        assert shared.array_to_vertex_map(values) == csr.array_to_vertex_map(values)
    finally:
        shared.destroy()


def test_shared_snapshot_pickles_to_a_handle_not_arrays(graph):
    csr = graph.csr()
    shared = SharedCSRGraph.from_csr(csr, version=graph.version)
    try:
        blob = pickle.dumps(shared)
        # The point of the design: the pickle is a header, not O(m) arrays.
        assert len(blob) < csr.indices.nbytes
        attached = pickle.loads(blob)
        try:
            assert isinstance(attached, SharedCSRGraph)
            assert attached.owner is False and shared.owner is True
            assert attached.segment_name == shared.segment_name
            assert attached.version == graph.version
            assert np.array_equal(attached.indptr, csr.indptr)
            assert np.array_equal(attached.indices, csr.indices)
            assert np.array_equal(attached.weights, csr.weights)
            # A non-owner close releases the mapping but keeps the segment.
            attached.close()
            assert _segment_exists(shared.segment_name)
        finally:
            attached.close()
    finally:
        shared.destroy()
    assert not _segment_exists(shared.segment_name)


def test_shared_snapshot_kernels_bit_identical(graph):
    from repro.shortest_paths.dependencies import csr_source_dependencies

    csr = graph.csr()
    shared = SharedCSRGraph.from_csr(csr, version=graph.version)
    try:
        for s in range(0, csr.number_of_vertices(), 5):
            assert np.array_equal(
                csr_source_dependencies(shared, s), csr_source_dependencies(csr, s)
            )
    finally:
        shared.destroy()


def test_shared_weighted_snapshot_kernels_bit_identical(graph):
    """Weighted passes run on an attached snapshot too: the per-source pass
    and the batched sweep read the snapshot's lazy weighted caches."""
    from repro.shortest_paths.batch import batch_source_dependencies
    from repro.shortest_paths.dependencies import csr_source_dependencies

    weighted = Graph.from_edges(
        [(u, v, 1.0 + (u * 7 + v) % 5 / 4.0) for u, v in graph.edges()], weighted=True
    )
    csr = weighted.csr()
    shared = SharedCSRGraph.from_csr(csr, version=weighted.version)
    try:
        attached = pickle.loads(pickle.dumps(shared))
        sources = list(range(0, csr.number_of_vertices(), 3))
        assert np.array_equal(
            batch_source_dependencies(attached, sources),
            batch_source_dependencies(csr, sources),
        )
        for s in sources:
            assert np.array_equal(
                csr_source_dependencies(attached, s),
                csr_source_dependencies(csr, s),
            )
    finally:
        shared.destroy()


def test_create_shared_graph_warns_and_falls_back(monkeypatch, graph):
    import repro.graphs.shared as shared_mod

    monkeypatch.setattr(shared_mod, "_shared_memory", None)
    with pytest.warns(RuntimeWarning, match="falling back to pickled"):
        assert create_shared_graph(graph.csr()) is None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_ensure_shared_graph_is_stable_per_version(graph):
    first = ensure_shared_graph(graph)
    second = ensure_shared_graph(graph)
    try:
        assert first is second
        assert first.version == graph.version
    finally:
        discard_shared_graph(graph)
    assert not _segment_exists(first.segment_name)
    assert id(graph) not in _REGISTRY


def test_ensure_shared_graph_mutation_destroys_the_stale_segment(graph):
    stale = ensure_shared_graph(graph)
    stale_name = stale.segment_name
    graph.add_edge(0, graph.number_of_vertices())  # bumps graph.version
    fresh = ensure_shared_graph(graph)
    try:
        assert fresh is not stale
        assert fresh.version == graph.version
        assert not _segment_exists(stale_name), (
            "a mutation must destroy the stale segment, exactly like the "
            "dependency arena"
        )
        assert np.array_equal(fresh.indptr, graph.csr().indptr)
    finally:
        discard_shared_graph(graph)


def test_ensure_shared_graph_unavailable_warns_and_returns_none(monkeypatch, graph):
    import repro.graphs.shared as shared_mod

    monkeypatch.setattr(shared_mod, "shared_graph_available", lambda: False)
    with pytest.warns(RuntimeWarning, match="falling back to pickled"):
        assert shared_mod.ensure_shared_graph(graph) is None


# ----------------------------------------------------------------------
# Plan / env threading
# ----------------------------------------------------------------------


def test_resolve_shared_graph_explicit_wins_over_env(monkeypatch):
    def shared_graph(value):
        return resolve_plan(None, shared_graph=value).shared_graph

    assert shared_graph(True) is True
    assert shared_graph(False) is False
    monkeypatch.delenv("REPRO_SHARED_GRAPH", raising=False)
    assert shared_graph(None) is False
    monkeypatch.setenv("REPRO_SHARED_GRAPH", "1")
    assert shared_graph(None) is True
    assert shared_graph(False) is False
    monkeypatch.setenv("REPRO_SHARED_GRAPH", "maybe")
    with pytest.raises(ConfigurationError):
        shared_graph(None)


def test_shared_graph_env_fills_the_plan(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setenv("REPRO_SHARED_GRAPH", "1")
    assert resolve_plan(None).shared_graph is True
    assert resolve_plan(None, n_jobs=2).shared_graph is True


def test_plan_validates_the_shared_graph_field():
    with pytest.raises(ConfigurationError):
        ExecutionPlan(shared_graph="yes")
    assert ExecutionPlan(shared_graph=True).shared_graph is True


def test_graph_snapshot_helper_routes_by_knob(graph):
    # Knob off: the plain cached snapshot, so interned keys stay stable.
    assert graph_snapshot(graph) is graph.csr()
    # Knob on, no runtime: the registry's persistent shared snapshot.
    shared = graph_snapshot(graph, shared_graph=True)
    try:
        assert isinstance(shared, SharedCSRGraph)
        assert graph_snapshot(graph, shared_graph=True) is shared
    finally:
        discard_shared_graph(graph)


def test_graph_snapshot_helper_falls_back_to_plain_csr(monkeypatch, graph):
    import repro.graphs.shared as shared_mod

    monkeypatch.setattr(shared_mod, "shared_graph_available", lambda: False)
    with pytest.warns(RuntimeWarning, match="falling back to pickled"):
        snapshot = graph_snapshot(graph, shared_graph=True)
    assert snapshot is graph.csr()


def test_plan_snapshot_reads_the_plan(graph):
    assert plan_snapshot(graph, ExecutionPlan()) is graph.csr()
    plan = ExecutionPlan(n_jobs=2)
    assert plan_snapshot(graph, plan) is graph.csr()
    plan = ExecutionPlan(n_jobs=2, shared_graph=True)
    shared = plan_snapshot(graph, plan)
    try:
        assert isinstance(shared, SharedCSRGraph)
    finally:
        discard_shared_graph(graph)


# ----------------------------------------------------------------------
# Runtime integration
# ----------------------------------------------------------------------


def test_context_shared_graph_stable_and_destroyed_on_close(graph):
    ctx = ExecutionContext()
    shared = ctx.shared_graph(graph)
    assert isinstance(shared, SharedCSRGraph)
    assert ctx.shared_graph(graph) is shared
    assert ctx.stats()["shared_graph"] == shared.segment_name
    name = shared.segment_name
    ctx.close()
    assert not _segment_exists(name), "close() must unlink the segment (no leak)"


def test_context_shared_graph_invalidated_by_mutation(graph):
    with ExecutionContext() as ctx:
        stale = ctx.shared_graph(graph)
        stale_name = stale.segment_name
        graph.add_edge(0, graph.number_of_vertices())
        fresh = ctx.shared_graph(graph)
        assert fresh is not stale
        assert not _segment_exists(stale_name), (
            "refresh must destroy the stale segment alongside the arena"
        )
        assert fresh.version == graph.version
        name = fresh.segment_name
    assert not _segment_exists(name)


def test_session_exit_leaves_no_segment(graph):
    from repro.centrality.session import BetweennessSession

    plan = ExecutionPlan(n_jobs=2, shared_graph=True)
    with BetweennessSession(graph, plan) as session:
        warm = session.estimate(graph.vertices()[0], method="mh", samples=32, seed=3)
        name = session.context.stats()["shared_graph"]
    cold = MultiChainMHSampler(
        n_chains=1
    ).estimate(graph, graph.vertices()[0], 32, seed=3)
    assert warm.estimate == cold.estimate
    if name is not None:
        assert not _segment_exists(name)


# ----------------------------------------------------------------------
# Estimator parity
# ----------------------------------------------------------------------


def test_sampler_estimates_bit_identical_shared_vs_pickled(graph):
    reference = UniformSourceSampler().estimate_all(
        graph, 40, seed=17
    )
    for n_jobs in (1, 2):
        sampler = UniformSourceSampler(n_jobs=n_jobs)
        sampler.shared_graph = True
        shared = sampler.estimate_all(graph, 40, seed=17)
        assert shared.estimates == reference.estimates, n_jobs
    discard_shared_graph(graph)


def test_single_vertex_estimates_bit_identical_shared_vs_pickled(graph):
    r = graph.vertices()[0]
    reference = UniformSourceSampler(n_jobs=1).estimate(
        graph, r, 40, seed=23
    )
    sampler = UniformSourceSampler(n_jobs=2)
    sampler.shared_graph = True
    shared = sampler.estimate(graph, r, 40, seed=23)
    assert shared.estimate == reference.estimate
    discard_shared_graph(graph)


def test_multichain_pooled_estimate_bit_identical_shared_vs_pickled(graph):
    r = graph.vertices()[0]
    reference = MultiChainMHSampler(
        n_chains=4
    ).estimate(graph, r, 48, seed=11)
    for n_jobs in (1, 2):
        shared = MultiChainMHSampler(
            n_chains=4,
            n_jobs=n_jobs,
            shared_graph=True,
        ).estimate(graph, r, 48, seed=11)
        assert shared.estimate == reference.estimate, n_jobs
    discard_shared_graph(graph)


def test_multichain_validates_the_shared_graph_knob():
    with pytest.raises(ConfigurationError):
        MultiChainMHSampler(n_chains=2, shared_graph="yes")


def test_exact_brandes_bit_identical_shared_vs_pickled(graph):
    from repro.exact.brandes import betweenness_centrality

    # No execution knob moves a bit, so shared and pickled shipping must
    # both equal the default-plan run, for every n_jobs.
    reference = betweenness_centrality(graph)
    for n_jobs in (1, 2):
        pickled = betweenness_centrality(
            graph,
            plan=ExecutionPlan(n_jobs=n_jobs),
        )
        shared = betweenness_centrality(
            graph,
            plan=ExecutionPlan(
                n_jobs=n_jobs, shared_graph=True
            ),
        )
        assert shared == pickled == reference, n_jobs
    discard_shared_graph(graph)
