"""The zero-dependency screen and the oracle's use of it.

``repro.shortest_paths.screen.zero_dependency_sources`` must mark exactly
the sources whose Brandes row holds ``+0.0`` at the target (bits, the root
included), and an oracle that screens must return the same bits, chains and
estimates as one that computes every row; only the pass counters move.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality import BetweennessSession, betweenness_single, relative_betweenness
from repro.execution import ExecutionPlan
from repro.execution.shared_cache import SharedDependencyStore, shared_memory_available
from repro.graphs import Graph, barabasi_albert_graph
from repro.graphs.components import largest_connected_component
from repro.mcmc import estimates
from repro.mcmc.estimates import DependencyOracle
from repro.shortest_paths import batch as batch_module
from repro.shortest_paths import (
    batch_source_dependencies,
    bfs_distances_batch_csr,
    bfs_distances_csr,
    screen_sources,
    zero_dependency_sources,
)

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: A gate no read passes, and one every read passes.
OFF, ON = 10**9, 0


def _graph(edges, n: int, connected: bool) -> Graph:
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    for u, v in edges:
        if u != v and u < n and v < n:
            graph.add_edge(u, v)
    if connected:
        graph = largest_connected_component(graph)
    return graph


graphs = st.builds(
    _graph,
    st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40),
    st.integers(2, 14),
    st.booleans(),
)


def _positive_zero(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64) == 0


@SETTINGS
@given(graph=graphs, data=st.data())
def test_screen_zero_iff_the_row_entry_is_positive_zero(graph, data):
    """Connected or not, root included, with or without scipy: screened ⇔
    the Brandes entry is +0.0."""
    csr = graph.csr()
    n = csr.number_of_vertices()
    rows = batch_source_dependencies(csr, np.arange(n))
    columns = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    expected = np.ones(n, dtype=bool)
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans()):
            patch.setattr(batch_module, "_scipy_sparse", None)
        for c in columns:
            alone = zero_dependency_sources(csr, [c])
            assert np.array_equal(alone, _positive_zero(rows[:, c]))
            assert alone[c]
            expected &= alone
        assert np.array_equal(zero_dependency_sources(csr, columns), expected)


@SETTINGS
@given(graph=graphs, data=st.data())
def test_screened_oracle_rows_are_bit_identical(graph, data):
    """Whatever the sources and targets, an oracle that screens returns the
    unscreened oracle's bits."""
    csr = graph.csr()
    n = csr.number_of_vertices()
    vertices = graph.vertices()
    sources = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30)))
    targets = data.draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True))
    prefetch = data.draw(st.booleans())
    cache_size = data.draw(st.sampled_from([None, 0, 3]))
    skip = len(targets) == 1 and data.draw(st.booleans())
    read = {}
    for gate in (OFF, ON):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimates, "_SCREEN_MISSES_PER_SOURCE", gate)
            oracle = DependencyOracle(graph, cache_size=cache_size)
            rows = oracle.dependency_rows(
                sources, targets, prefetch=prefetch, skip_self_lookups=skip
            )
            read[gate] = rows, oracle.lookups
    assert np.array_equal(read[ON][0].view(np.int64), read[OFF][0].view(np.int64))
    assert read[ON][1] == read[OFF][1]


@pytest.mark.parametrize("scipy", [True, False])
def test_batched_distances_equal_the_single_source_pass(scipy):
    """The sparse-matmul levels and the numpy wave (no scipy) alike."""
    graph = _graph([(0, 1), (1, 2), (2, 3), (4, 5)], 7, connected=False)
    csr = graph.csr()
    sources = [0, 3, 4, 6, 0]
    with pytest.MonkeyPatch.context() as patch:
        if not scipy:
            patch.setattr(batch_module, "_scipy_sparse", None)
        dist = bfs_distances_batch_csr(csr, sources)
    for row, s in zip(dist, sources):
        assert np.array_equal(row, bfs_distances_csr(csr, s)[0])


def test_screen_refuses_weighted_and_directed_snapshots():
    weighted = Graph(weighted=True)
    weighted.add_edge(0, 1, 2.0)
    directed = Graph(directed=True)
    directed.add_edge(0, 1)
    for graph in (weighted, directed):
        with pytest.raises(ValueError):
            zero_dependency_sources(graph.csr(), [0])
    with pytest.raises(ValueError):
        bfs_distances_batch_csr(weighted.csr(), [0])


def test_screen_cost_counts_each_column_and_its_neighbours_once():
    graph = _graph([(0, 1), (0, 2), (2, 3)], 5, connected=False)
    assert screen_sources(graph.csr(), [0, 0, 4]) == (2 + 1) + (0 + 1)


# ----------------------------------------------------------------------
# The oracle's gate and accounting
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ba():
    return barabasi_albert_graph(300, 2, seed=5)


def _low(graph, count=1):
    """Low-degree, positive-betweenness vertices (two non-adjacent neighbours)."""
    chosen = []
    for v in sorted(graph.vertices(), key=lambda v: (graph.degree(v), v)):
        nbrs = list(graph.neighbors(v))
        if len(nbrs) >= 2 and not graph.has_edge(nbrs[0], nbrs[1]):
            chosen.append(v)
        if len(chosen) == count:
            return chosen


def _hub(graph):
    return max(graph.vertices(), key=lambda v: (graph.degree(v), v))


def test_screened_and_evaluations_account_for_every_miss(ba):
    """Fresh, partly warm and arena-backed oracles alike: every distinct
    miss is either a pass or screened, and every source is one lookup."""
    r = _low(ba)[0]
    csr = ba.csr()
    rng = random.Random(3)
    sources = np.array([rng.randrange(300) for _ in range(600)])
    misses = set(sources.tolist()) - {csr.index_of(r)}
    warm = sorted(misses)[:40]
    arena = SharedDependencyStore(300, 300) if shared_memory_available() else None
    try:
        cases = [(None, []), (None, warm)] + ([(arena, [])] if arena is not None else [])
        for store, cached in cases:
            oracle = DependencyOracle(ba, shared_store=store)
            oracle.prefetch([csr.vertices[i] for i in cached])
            before = oracle.evaluations
            oracle.dependency_rows(sources, [r], prefetch=True, skip_self_lookups=True)
            paid = oracle.evaluations - before
            assert oracle.screened > 0
            assert oracle.screened + paid == len(misses - set(cached))
            assert oracle.lookups == int(np.count_nonzero(sources != csr.index_of(r)))
    finally:
        if arena is not None:
            arena.destroy()


def test_gate_screens_long_reads_of_low_degree_targets_only(ba):
    """At the module's gate: a 400-step chain on a low-degree target is
    screened; a hub, a short chain and a weighted graph are not."""
    low, hub = _low(ba)[0], _hub(ba)
    assert betweenness_single(ba, low, samples=400, seed=1).diagnostics["screened"] > 0
    assert betweenness_single(ba, hub, samples=400, seed=1).diagnostics["screened"] == 0
    assert betweenness_single(ba, low, samples=40, seed=1).diagnostics["screened"] == 0
    weighted = Graph(weighted=True)
    for u, v in ba.edges():
        weighted.add_edge(u, v, 1.0 + (u + v) % 3)
    result = betweenness_single(weighted, low, samples=400, seed=1)
    assert result.diagnostics["screened"] == 0


def _gated(gate, run):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimates, "_SCREEN_MISSES_PER_SOURCE", gate)
        return run()


def _screen_twins(run):
    """Run *run* with the screen gated off and on; return both results."""
    return _gated(OFF, run), _gated(ON, run)


@pytest.mark.parametrize("seed", [1, 7])
def test_mh_estimates_are_identical_with_the_screen_on_and_off(ba, seed):
    r = _low(ba)[0]
    off, on = _screen_twins(lambda: betweenness_single(ba, r, samples=300, seed=seed))
    assert (off.diagnostics["screened"], on.diagnostics["screened"] > 0) == (0, True)
    assert on.diagnostics["evaluations"] < off.diagnostics["evaluations"]
    assert np.array_equal(np.array(on.estimate), np.array(off.estimate))
    for column in ("dependency", "accepted", "proposal_dependency"):
        assert np.array_equal(
            getattr(on.diagnostics["chain"], column), getattr(off.diagnostics["chain"], column)
        )
    assert on.diagnostics["chain"].vertex == off.diagnostics["chain"].vertex


def test_relative_estimates_are_identical_with_the_screen_on_and_off(ba):
    members = _low(ba, 3)
    off, on = _screen_twins(lambda: relative_betweenness(ba, members, samples=400, seed=2))
    assert (off.diagnostics["screened"], on.diagnostics["screened"] > 0) == (0, True)
    assert np.array_equal(on.chain.dependencies, off.chain.dependencies)
    relative = [np.array([[result.relative[a][b] for b in members] for a in members]) for result in (on, off)]
    assert np.array_equal(relative[0].view(np.int64), relative[1].view(np.int64))
    assert on.ratios.keys() == off.ratios.keys()
    ratios = [np.array([result.ratios[k] for k in on.ratios]) for result in (on, off)]
    assert np.array_equal(ratios[0].view(np.int64), ratios[1].view(np.int64))


def test_multichain_estimates_are_identical_with_the_screen_on_and_off(ba):
    r = _low(ba)[0]
    off, on = _screen_twins(
        lambda: betweenness_single(ba, r, samples=600, seed=4, n_chains=2, n_jobs=1)
    )
    assert (off.diagnostics["screened"], on.diagnostics["screened"] > 0) == (0, True)
    assert np.array_equal(np.array(on.estimate), np.array(off.estimate))
    for a, b in zip(on.diagnostics["multichain"].chains, off.diagnostics["multichain"].chains):
        assert np.array_equal(a.dependency, b.dependency)
    # Pooled workers screen at the module's gate (a spawned worker does not
    # see a patch): still the inline, unscreened estimate.
    pooled = betweenness_single(ba, r, samples=600, seed=4, n_chains=2, n_jobs=2)
    assert pooled.diagnostics["screened"] > 0
    assert np.array_equal(np.array(pooled.estimate), np.array(off.estimate))


def _counting_screens(patch):
    """Count the oracle's calls into the screen's distance passes."""
    calls = []

    def counted(csr, columns):
        calls.append(list(columns))
        return zero_dependency_sources(csr, columns)

    patch.setattr(estimates, "zero_dependency_sources", counted)
    return calls


def test_warm_session_answers_are_identical_with_the_screen_on_and_off(ba):
    r = _low(ba)[0]
    members = _low(ba, 3)

    def run():
        with pytest.MonkeyPatch.context() as patch:
            calls = _counting_screens(patch)
            with BetweennessSession(ba, ExecutionPlan(n_jobs=1)) as session:
                first = session.estimate(r, samples=300, seed=3)
                screens = len(calls)
                again = session.estimate(r, samples=300, seed=3)
                repeat_screens = len(calls) - screens
                relative = session.relative(members, samples=300, seed=5)
        return first, again, relative, repeat_screens

    off, on = _screen_twins(run)
    assert on[0].diagnostics["screened"] > 0 and off[0].diagnostics["screened"] == 0
    # The repeat query reads the kept zero mask: it screens its misses
    # again but pays no pass, neither Brandes nor distance.
    assert on[1].diagnostics["screened"] == on[0].diagnostics["screened"]
    assert on[1].diagnostics["evaluations"] == 0
    assert on[3] == 0
    for a, b in zip(on[:2], off[:2]):
        assert np.array_equal(np.array(a.estimate), np.array(b.estimate))
        assert np.array_equal(a.diagnostics["chain"].dependency, b.diagnostics["chain"].dependency)
    assert np.array_equal(on[2].chain.dependencies, off[2].chain.dependencies)


def test_a_mutation_drops_the_kept_zero_masks(ba):
    """After an edge mutation a warm session screens afresh: its answers
    equal a cold call on the mutated graph, the screen on in both."""
    graph = ba.copy()
    r = _low(graph)[0]
    far = max(v for v in graph.vertices() if v != r and not graph.has_edge(r, v))

    def run():
        with BetweennessSession(graph, ExecutionPlan(n_jobs=1)) as session:
            session.estimate(r, samples=300, seed=3)
            graph.add_edge(r, far)
            warm = session.estimate(r, samples=300, seed=3)
        graph.remove_edge(r, far)
        return warm

    warm = _gated(ON, run)
    graph.add_edge(r, far)
    cold = _gated(ON, lambda: betweenness_single(graph, r, samples=300, seed=3))
    assert warm.diagnostics["screened"] > 0
    assert np.array_equal(np.array(warm.estimate), np.array(cold.estimate))
    assert np.array_equal(warm.diagnostics["chain"].dependency, cold.diagnostics["chain"].dependency)


def test_oracle_keeps_zero_masks_only_with_its_cache(ba):
    """A caching oracle screens a column once; ``clear`` and a disabled
    cache screen every read."""
    r = _low(ba)[0]
    sources = np.array([s for s in range(300) if s != ba.csr().index_of(r)])
    for cache_size, screens in ((None, [1, 1, 2]), (0, [1, 2, 3])):
        with pytest.MonkeyPatch.context() as patch:
            calls = _counting_screens(patch)
            oracle = DependencyOracle(ba, cache_size=cache_size)
            seen = []
            for clear in (False, False, True):
                if clear:
                    oracle.clear()
                rows = oracle.dependency_rows(sources, [r], prefetch=True)
                seen.append(len(calls))
                assert oracle.screened > 0
        assert seen == screens
        assert np.array_equal(rows, DependencyOracle(ba).dependency_rows(sources, [r]))
