"""The dependency row store: one matrix of cached vectors behind a slot table.

Two layers of promises:

1. **Store** — :class:`repro.execution.shared_cache.DependencyStore` keeps
   every live row bit for bit and in slot order through tombstoning and
   compaction, on both backings, and an unbounded private store reserves
   its ``n × n`` rows without touching them.
2. **Oracle** — the :class:`~repro.mcmc.estimates.DependencyOracle` built on
   it evicts exactly the victims of the ``OrderedDict`` LRU cache it
   replaced (:class:`reference.LRUOracleModel`) and counts the same
   lookups and passes, over random sequences of bulk reads, prefetches,
   point lookups, delta evictions and clears.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import LRUOracleModel
from repro.execution.shared_cache import (
    DependencyStore,
    SharedDependencyStore,
    shared_memory_available,
)
from repro.graphs import Graph, barabasi_albert_graph
from repro.mcmc import JointSpaceMHSampler, SingleSpaceMHSampler
from repro.mcmc import estimates as estimates_module
from repro.mcmc.estimates import DependencyOracle

BACKINGS = [
    "private",
    pytest.param(
        "shared",
        marks=pytest.mark.skipif(
            not shared_memory_available(), reason="needs working shared memory"
        ),
    ),
]


def _store(backing: str, num_vertices: int, capacity: int) -> DependencyStore:
    if backing == "shared":
        return SharedDependencyStore(num_vertices, capacity)
    return DependencyStore(num_vertices, capacity)


@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize("seed", range(8))
def test_row_store_compaction_keeps_live_rows_and_slot_order(backing, seed):
    rng = random.Random(seed)
    n = 30
    store = _store(backing, n, n)
    try:
        data = np.random.default_rng(seed).random((n, n))
        order = rng.sample(range(n), rng.randint(5, n))
        for begin in range(0, len(order), 4):
            block = order[begin : begin + 4]
            assert store.put_rows(block, data[block]) == len(block)
        evicted = rng.sample(order, rng.randint(1, len(order) - 1))
        assert store.invalidate_sources(evicted + evicted[:2]) == len(evicted)
        live = [s for s in store.sources().tolist() if s not in evicted]
        assert store.sources().tolist() == live
        assert store.compact() == len(evicted)
        # The live rows keep their bits and their order, packed from row 0.
        assert store.sources().tolist() == live
        assert store.stats()["published"] == len(live)
        for source in range(n):
            row = store.get(source)
            if source in live:
                assert row.tobytes() == data[source].tobytes()
            else:
                assert row is None
        # Reclaimed rows take new sources after the live ones.
        fresh = evicted[0]
        assert store.put(fresh, data[fresh])
        assert store.sources().tolist() == live + [fresh]
    finally:
        store.destroy()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_row_store_unbounded_cache_reserves_without_touching():
    """An unbounded oracle's ``n × n`` rows cost memory only once written."""

    def resident_mb():
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * 4096 / 2**20

    n = 12_000
    graph = Graph()
    for v in range(1, n):
        graph.add_edge(v - 1, v)
    before = resident_mb()
    oracle = DependencyOracle(graph)
    assert resident_mb() - before < 8, "the n x n reservation must stay untouched"
    oracle.prefetch([0, n // 2])
    assert oracle.cached_count() == 2
    assert resident_mb() - before < 16


def _ops():
    sources = st.lists(st.integers(0, 13), max_size=14)
    targets = st.lists(st.integers(0, 13), min_size=1, max_size=3)
    return st.lists(
        st.one_of(
            st.tuples(st.just("rows"), sources, targets, st.booleans()),
            st.tuples(st.just("self-rows"), sources, st.integers(0, 13), st.booleans()),
            st.tuples(st.just("prefetch"), sources),
            st.tuples(st.just("lookup"), st.integers(0, 13), st.integers(0, 13)),
            st.tuples(st.just("delta"), st.integers(0, 2**14 - 1)),
            st.tuples(st.just("clear")),
        ),
        min_size=1,
        max_size=30,
    )


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(capacity=st.integers(1, 6), ops=_ops())
def test_row_store_oracle_evicts_the_lru_model_victims(capacity, ops):
    graph = barabasi_albert_graph(14, 2, seed=5)
    vertices = graph.vertices()
    oracle = DependencyOracle(graph, cache_size=capacity)
    model = LRUOracleModel(graph, capacity)
    fresh = DependencyOracle(graph, cache_size=0)
    for op in ops:
        kind = op[0]
        if kind == "rows":
            _, picks, targets, prefetch = op
            sources = [vertices[i] for i in picks]
            members = [vertices[i] for i in targets]
            rows = oracle.dependency_rows(picks, members, prefetch=prefetch)
            model.dependency_rows(sources, members, prefetch=prefetch)
            assert np.array_equal(rows, fresh.dependency_rows(picks, members))
        elif kind == "self-rows":
            _, picks, target, prefetch = op
            sources = [vertices[i] for i in picks]
            members = [vertices[target]]
            oracle.dependency_rows(picks, members, prefetch=prefetch, skip_self_lookups=True)
            model.dependency_rows(sources, members, prefetch=prefetch, skip_self_lookups=True)
        elif kind == "prefetch":
            sources = [vertices[i] for i in op[1]]
            assert oracle.prefetch(sources) == model.prefetch(sources)
        elif kind == "lookup":
            oracle.dependency(vertices[op[1]], vertices[op[2]])
            model.dependency(vertices[op[1]], vertices[op[2]])
        elif kind == "delta":
            mask = np.array([(op[1] >> i) & 1 for i in range(len(vertices))], dtype=bool)
            assert oracle.apply_delta(mask) == model.apply_delta(mask)
        else:
            oracle.clear()
            model.clear()
        assert set(oracle.cached_sources()) == set(model.cache)
        assert oracle.cached_count() == len(model.cache)
        assert (oracle.lookups, oracle.evaluations, oracle.prefetch_evaluations) == (
            model.lookups,
            model.evaluations,
            model.prefetch_evaluations,
        )


def _reordered(graph: Graph) -> Graph:
    """*graph* with its vertices inserted in reverse order: another CSR order."""
    copy = Graph()
    for v in reversed(graph.vertices()):
        copy.add_vertex(v)
    for u, v in graph.edges():
        copy.add_edge(u, v)
    return copy


@pytest.mark.parametrize("case", ["other-graph", "stale"])
def test_row_store_oracle_of_another_vertex_order_reads_by_label(case):
    """A caller's oracle whose CSR order is not the graph's still reads each vertex's row."""
    graph = barabasi_albert_graph(30, 2, seed=4)
    members = [3, 5, 8]
    if case == "other-graph":
        snapshot = _reordered(graph)
    else:
        snapshot = graph.copy()
    oracle, twin = DependencyOracle(snapshot), DependencyOracle(snapshot)
    if case == "stale":
        # Same graph object, a vertex gone since the oracle's snapshot.
        oracle, twin = DependencyOracle(graph), DependencyOracle(snapshot)
        graph.remove_vertex(1)
    chain = SingleSpaceMHSampler(record_states=True).run_chain(
        graph, members[0], 150, seed=2, oracle=oracle
    )
    assert chain.dependency.tolist() == [twin.dependency(v, members[0]) for v in chain.vertex]
    joint = JointSpaceMHSampler().run_chain(graph, members, 150, seed=2, oracle=oracle)
    expected = [twin.dependency(v, members[r]) for v, r in zip(joint.v, joint.r_index.tolist())]
    assert joint.dependencies[joint.row, joint.r_index].tolist() == expected


def _chain_and_passes(oracle: DependencyOracle):
    graph = oracle.graph
    chain = SingleSpaceMHSampler().run_chain(graph, 3, 300, seed=6, oracle=oracle)
    joint = JointSpaceMHSampler().run_chain(graph, [3, 5, 8], 300, seed=6, oracle=oracle)
    columns = (chain.dependency, chain.accepted, joint.dependencies, joint.row)
    return columns, (oracle.lookups, oracle.evaluations, oracle.prefetch_evaluations)


def test_row_store_unbounded_cache_past_the_budget_is_bounded_at_it(monkeypatch):
    """Past :func:`row_budget` an unbounded cache is the bounded cache of that size:
    same chains, same passes, no prefetched row evicted before its read."""
    graph = barabasi_albert_graph(30, 2, seed=4)
    unbounded, _ = _chain_and_passes(DependencyOracle(graph))
    bounded = _chain_and_passes(DependencyOracle(graph, cache_size=5))
    monkeypatch.setattr(estimates_module, "row_budget", lambda n: 5)
    budgeted = _chain_and_passes(DependencyOracle(graph))
    assert budgeted[1] == bounded[1]
    for a, b, c in zip(budgeted[0], bounded[0], unbounded):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_row_store_failed_reservation_halves_the_capacity(monkeypatch):
    """A row matrix the allocator refuses is halved until it is reserved (30 -> 15 -> 7 -> 3)."""
    graph = barabasi_albert_graph(30, 2, seed=4)

    def store(num_vertices, capacity):
        if capacity > 3:
            raise MemoryError
        return DependencyStore(num_vertices, capacity)

    bounded = _chain_and_passes(DependencyOracle(graph, cache_size=3))
    monkeypatch.setattr(estimates_module, "DependencyStore", store)
    halved = _chain_and_passes(DependencyOracle(graph))
    assert halved[1] == bounded[1]
    for a, b in zip(halved[0], bounded[0]):
        assert np.array_equal(a, b)
