"""Tests for the batched multi-source kernels and the execution layer.

Two promises are checked here:

1. **Batch kernels are bit-identical per row** — for every source in a
   batch, the ``(K, n)`` distance / sigma / dependency rows equal what the
   single-source CSR kernels produce for that source alone, bit for bit,
   regardless of which other sources share the batch.
2. **Engine results are execution-invariant** — for a fixed seed, every
   estimator that accepts the ``n_jobs`` knob returns the same result for
   any combination of ``n_jobs ∈ {1, 2, 4}`` and a kernel block width of
   1, 8 or 64 (the width the kernels choose, patched).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality.api import (
    SINGLE_VERTEX_METHODS,
    betweenness_single,
    relative_betweenness,
)
from repro.errors import ConfigurationError
from repro.exact.brandes import betweenness_centrality
from repro.exact.group import group_betweenness_centrality
from repro.execution import (
    DEFAULT_SHARD_SIZE,
    ExecutionPlan,
    merge_ordered,
    resolve_plan,
    run_sharded,
    shard_rngs,
    split_shards,
)
from repro.graphs import Graph, barabasi_albert_graph, erdos_renyi_graph
from repro.graphs.components import largest_connected_component
from repro.mcmc.estimates import DependencyOracle
from repro.mcmc.joint import JointSpaceMHSampler
from repro.mcmc.single import SingleSpaceMHSampler
from repro.shortest_paths import (
    accumulate_dependencies_batch_csr,
    accumulate_dependencies_csr,
    all_dependencies_on_target,
    batch_source_dependencies,
    bfs_spd_batch_csr,
    bfs_spd_csr,
    csr_source_dependencies,
)
from repro.shortest_paths import batch as batch_module

#: The grid the determinism contract is stated over: worker counts, and
#: block widths patched over the one the kernels choose.
JOBS_GRID = (1, 2, 4)
WIDTH_GRID = (1, 8, 64)


def _patched_width(patch, width: int) -> None:
    """Make the batched kernels run blocks of *width* rows."""
    patch.setattr(batch_module, "_block_width", lambda csr: width)


def _random_unweighted(seed: int) -> Graph:
    return largest_connected_component(erdos_renyi_graph(30, 0.12, seed=seed))


def _random_weighted(seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph(weighted=True)
    n = rng.randint(8, 16)
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, rng.choice([0.5, 1.0, 1.5, 2.0]))
    return largest_connected_component(graph)


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_rows_bit_identical_to_single_source(seed, batch_len):
    """Every row of a batched BFS + accumulation equals the K=1 kernels exactly."""
    graph = _random_unweighted(seed)
    csr = graph.csr()
    n = csr.number_of_vertices()
    rng = random.Random(seed)
    sources = [rng.randrange(n) for _ in range(batch_len)]  # duplicates allowed
    batch = bfs_spd_batch_csr(csr, sources)
    deltas = accumulate_dependencies_batch_csr(batch)
    for row, s in enumerate(sources):
        spd = bfs_spd_csr(csr, s)
        assert np.array_equal(batch.dist[row], spd.dist, equal_nan=True)
        assert np.array_equal(batch.sig[row], spd.sig)
        assert np.array_equal(deltas[row], accumulate_dependencies_csr(spd))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_rows_independent_of_batch_composition(seed):
    """A source's row does not depend on which other sources share the batch."""
    graph = _random_unweighted(seed)
    csr = graph.csr()
    n = csr.number_of_vertices()
    alone = batch_source_dependencies(csr, [0])
    grouped = batch_source_dependencies(csr, list(range(min(n, 7))))
    assert np.array_equal(alone[0], grouped[0])


def test_batch_cutoff_matches_single_source():
    graph = _random_unweighted(5)
    csr = graph.csr()
    batch = bfs_spd_batch_csr(csr, [0, 1], cutoff=1.5)
    for row, s in enumerate([0, 1]):
        spd = bfs_spd_csr(csr, s, cutoff=1.5)
        assert np.array_equal(batch.dist[row], spd.dist, equal_nan=True)


def test_batch_weighted_fallback_matches_dijkstra_rows():
    graph = _random_weighted(11)
    csr = graph.csr()
    sources = list(range(min(5, csr.number_of_vertices())))
    deltas = batch_source_dependencies(csr, sources)
    for row, s in enumerate(sources):
        assert np.array_equal(deltas[row], csr_source_dependencies(csr, s))


def test_single_row_wave_requests_run_the_fused_pass():
    """A K=1 request runs the fused single-source pass on every branch —
    deep, directed, spmm-suitable and weighted graphs alike; its row equals
    the batched row bit for bit, and ``out`` still accumulates it."""
    from repro.graphs import grid_graph, path_graph

    directed = Graph.from_edges(
        [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9), (9, 2)],
        directed=True,
    )
    shallow = barabasi_albert_graph(40, 2, seed=3)
    for graph in (grid_graph(12, 12), path_graph(60), directed, shallow, _random_weighted(11)):
        csr = graph.csr()
        n = csr.number_of_vertices()
        for s in range(0, n, 5):
            batched = batch_source_dependencies(csr, [s, s])[0]
            out = np.zeros(n)
            routed = batch_source_dependencies(csr, [s], out=out)
            assert routed.shape == (1, n)
            assert np.array_equal(routed[0], csr_source_dependencies(csr, s))
            assert np.array_equal(routed[0], batched)
            assert np.array_equal(out, batched)


def test_batch_out_accumulates_in_source_order():
    graph = _random_unweighted(9)
    csr = graph.csr()
    n = csr.number_of_vertices()
    sources = list(range(n))
    out = np.zeros(n)
    batch_source_dependencies(csr, sources, out=out)
    expected = np.zeros(n)
    for row in batch_source_dependencies(csr, sources):
        expected += row
    assert np.array_equal(out, expected)


def test_batch_rejects_empty_and_out_of_range_sources():
    csr = _random_unweighted(3).csr()
    with pytest.raises(ValueError):
        bfs_spd_batch_csr(csr, [])
    with pytest.raises(IndexError):
        bfs_spd_batch_csr(csr, [csr.number_of_vertices()])


def _branch_graphs():
    """One snapshot per branch of ``batch_source_dependencies``."""
    from repro.graphs import path_graph
    from repro.shortest_paths.batch import _spmm_suitable

    spmm = barabasi_albert_graph(40, 2, seed=4).csr()
    deep = path_graph(80).csr()
    directed = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], directed=True).csr()
    weighted = Graph.from_edges(
        [(0, 1, 1.5), (1, 2, 0.5), (2, 3, 2.0), (3, 0, 1.0)], weighted=True
    ).csr()
    assert _spmm_suitable(spmm)
    assert not _spmm_suitable(deep) and not _spmm_suitable(directed)
    return {"spmm": spmm, "deep": deep, "directed": directed, "weighted": weighted}


@pytest.mark.parametrize("branch", ["spmm", "deep", "directed", "weighted"])
def test_every_batch_branch_rejects_bad_sources_alike(branch):
    """The spmm, wave and weighted branches share one validation: the same
    error type and message for the same bad input."""
    csr = _branch_graphs()[branch]
    n = csr.number_of_vertices()
    for sources, error in (([], ValueError), ([-1], IndexError), ([n], IndexError)):
        with pytest.raises(error) as caught:
            batch_source_dependencies(csr, sources)
        message = str(caught.value)
        assert message in (
            "sources must be a non-empty 1-D sequence of vertex indices",
            f"source indices out of range for {n} vertices",
        ), (branch, sources, message)


# ----------------------------------------------------------------------
# Plan resolution and scheduler plumbing
# ----------------------------------------------------------------------


def test_resolve_plan_takes_the_defaults_without_any_knob(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    plan = resolve_plan(None)
    assert plan.n_jobs == 1 and plan.batch_size is None


def test_resolve_plan_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    plan = resolve_plan(None)
    assert plan == ExecutionPlan(n_jobs=3)
    # Explicit arguments win over the env vars.
    plan = resolve_plan(None, n_jobs=1)
    assert plan.n_jobs == 1
    # A ready-made plan wins over everything.
    ready = ExecutionPlan(n_jobs=2)
    assert resolve_plan(ready, n_jobs=8) is ready


def test_retired_batch_size_still_constructs_and_steers_nothing():
    """``ExecutionPlan(batch_size=…)`` parses (callers written against the
    retired knob keep working) and the estimate ignores it."""
    graph = barabasi_albert_graph(30, 2, seed=5)
    r = graph.vertices()[6]
    plan = ExecutionPlan(batch_size=16, n_jobs=1)
    assert plan.batch_size == 16
    sampler = SingleSpaceMHSampler()
    sampler.plan = plan
    assert sampler.estimate(graph, r, 40, seed=3).estimate == (
        SingleSpaceMHSampler().estimate(graph, r, 40, seed=3).estimate
    )


def test_resolve_plan_rejects_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ConfigurationError):
        resolve_plan(None)
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ConfigurationError):
        resolve_plan(None)


def test_execution_plan_validates_fields():
    with pytest.raises(ConfigurationError):
        ExecutionPlan(n_jobs=0)
    with pytest.raises(ConfigurationError):
        ExecutionPlan(n_jobs=-1)


#: Every public entry point that took ``kernel`` / ``kernel_threads``
#: while the compiled rung existed, as ``(module, name)``.
_RETIRED_KERNEL_KNOB_OWNERS = (
    ("repro.centrality.api", "betweenness_single"),
    ("repro.centrality.api", "relative_betweenness"),
    ("repro.exact.brandes", "betweenness_centrality"),
    ("repro.exact.single_vertex", "betweenness_of_vertex"),
    ("repro.exact.single_vertex", "dependency_vector"),
    ("repro.shortest_paths", "all_dependencies_on_target"),
    ("repro.shortest_paths", "batch_source_dependencies"),
    ("repro.shortest_paths", "csr_source_dependencies"),
    ("repro.shortest_paths", "bfs_spd_csr"),
    ("repro.shortest_paths", "dijkstra_spd_csr"),
    ("repro.shortest_paths", "accumulate_dependencies_csr"),
    ("repro.serving.queries", "execute_query"),
    ("repro.execution", "resolve_plan"),
)


def test_the_numpy_kernels_are_the_only_rung():
    """No kernel knob is left on the plan or the serving config."""
    import dataclasses

    from repro.serving import ServingConfig

    assert [f.name for f in dataclasses.fields(ExecutionPlan)] == [
        "batch_size", "n_jobs", "shared_cache", "shared_graph", "mp_context", "runtime",
    ]
    assert not {"kernel", "kernel_threads"} & {
        f.name for f in dataclasses.fields(ServingConfig)
    }


@pytest.mark.parametrize(
    "module,name", _RETIRED_KERNEL_KNOB_OWNERS, ids=[name for _, name in _RETIRED_KERNEL_KNOB_OWNERS]
)
def test_no_entry_point_takes_a_kernel_knob(module, name):
    import importlib
    import inspect

    fn = getattr(importlib.import_module(module), name)
    assert not {"kernel", "kernel_threads"} & set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("variable,value", [
    ("REPRO_KERNEL", "compiled"),
    ("REPRO_KERNEL", "fpga"),
    ("REPRO_KERNEL_THREADS", "4"),
    ("REPRO_KERNEL_THREADS", "many"),
])
def test_retired_kernel_variables_are_not_read(monkeypatch, variable, value):
    """Whatever the retired variables hold, plans and estimates are those
    of an unset environment."""
    graph = _random_unweighted(21)
    r = graph.vertices()[3]
    reference = betweenness_single(
        graph, r, method="uniform-source", samples=40, seed=13, n_jobs=2
    ).estimate
    monkeypatch.setenv(variable, value)
    assert resolve_plan(None) == ExecutionPlan()
    assert betweenness_single(
        graph, r, method="uniform-source", samples=40, seed=13, n_jobs=2
    ).estimate == reference


def test_the_compiled_kernel_module_is_gone():
    import importlib

    with pytest.raises(ImportError):
        importlib.import_module("repro.shortest_paths.compiled")


def test_split_shards_boundaries_are_fixed():
    items = list(range(600))
    shards = split_shards(items)
    assert [len(s) for s in shards] == [DEFAULT_SHARD_SIZE, DEFAULT_SHARD_SIZE, 88]
    assert [x for shard in shards for x in shard] == items
    assert split_shards([]) == []
    with pytest.raises(ValueError):
        split_shards(items, 0)


def test_shard_rngs_are_deterministic_and_independent():
    streams_a = [r.random() for r in shard_rngs(random.Random(42), 4)]
    streams_b = [r.random() for r in shard_rngs(random.Random(42), 4)]
    assert streams_a == streams_b
    assert len(set(streams_a)) == 4


def test_merge_ordered_shapes():
    assert merge_ordered([[1, 2], [3]]) == [1, 2, 3]
    assert merge_ordered([{"a": 1.0}, {"a": 2.0, "b": 1.0}]) == {"a": 3.0, "b": 1.0}
    assert merge_ordered([1.5, 2.5]) == 4.0
    arrays = [np.ones(3), np.ones(3)]
    assert np.array_equal(merge_ordered(arrays), np.full(3, 2.0))
    assert np.array_equal(arrays[0], np.ones(3)), "inputs must not be mutated"
    with pytest.raises(ValueError):
        merge_ordered([])


def _echo_shard(shared, shard):
    return [shared + x for x in shard]


def test_run_sharded_pool_preserves_shard_order():
    shards = split_shards(list(range(40)), 10)
    inline = run_sharded(_echo_shard, shards, n_jobs=1, shared=100)
    pooled = run_sharded(_echo_shard, shards, n_jobs=3, shared=100)
    assert inline == pooled
    assert merge_ordered(pooled) == [100 + x for x in range(40)]


def test_worker_payloads_survive_a_real_pool():
    """Graphs below one shard run inline, so force multi-shard pool runs to
    prove the CSR snapshot, the Graph and sampler instances all pickle into
    worker processes and come back with identical buffers."""
    from repro.samplers.riondato_kornaropoulos import _rk_hits_shard_csr
    from repro.shortest_paths.dependencies import dependency_sum_shard_csr

    graph = barabasi_albert_graph(60, 2, seed=1)
    csr = graph.csr()
    shards = split_shards(list(range(60)), 16)
    inline = run_sharded(dependency_sum_shard_csr, shards, n_jobs=1, shared=csr)
    pooled = run_sharded(dependency_sum_shard_csr, shards, n_jobs=2, shared=csr)
    for a, b in zip(inline, pooled):
        assert np.array_equal(a, b)

    sample_shards = [(10, rng) for rng in shard_rngs(random.Random(6), 3)]
    inline_rk = run_sharded(_rk_hits_shard_csr, sample_shards, n_jobs=1, shared=(csr, 3))
    pooled_rk = run_sharded(
        _rk_hits_shard_csr,
        [(10, rng) for rng in shard_rngs(random.Random(6), 3)],
        n_jobs=3,
        shared=(csr, 3),
    )
    assert inline_rk == pooled_rk


# ----------------------------------------------------------------------
# Determinism: fixed-seed results identical across n_jobs and block widths
# ----------------------------------------------------------------------


def _grid(reference_fn):
    """Assert ``reference_fn(n_jobs)`` is constant over jobs × block width.

    The width patch reaches forked workers; spawned ones run the width the
    kernels choose, which the default-width call already covers.
    """
    reference = reference_fn(1)
    for width in WIDTH_GRID:
        with pytest.MonkeyPatch.context() as patch:
            _patched_width(patch, width)
            for n_jobs in JOBS_GRID:
                assert reference_fn(n_jobs) == reference, (n_jobs, width)
    return reference


def test_exact_brandes_is_execution_invariant():
    graph = barabasi_albert_graph(50, 2, seed=13)
    reference = _grid(lambda j: betweenness_centrality(graph, n_jobs=j))
    assert betweenness_centrality(graph) == reference


def test_all_dependencies_on_target_is_execution_invariant():
    graph = barabasi_albert_graph(40, 2, seed=21)
    r = graph.vertices()[3]
    reference = _grid(lambda j: all_dependencies_on_target(graph, r, n_jobs=j))
    assert all_dependencies_on_target(graph, r) == reference


def test_group_betweenness_is_execution_invariant():
    graph = barabasi_albert_graph(40, 2, seed=8)
    group = [graph.vertices()[0], graph.vertices()[4]]
    reference = _grid(lambda j: group_betweenness_centrality(graph, group, n_jobs=j))
    assert group_betweenness_centrality(graph, group) == reference


@pytest.mark.parametrize(
    "method", ["uniform-source", "distance", "rk", "kadabra", "mh", "mh-degree"]
)
def test_estimators_are_execution_invariant(method):
    """The determinism contract: fixed-seed estimates are identical across
    n_jobs ∈ {1, 2, 4} and block widths {1, 8, 64}."""
    graph = barabasi_albert_graph(30, 2, seed=5)
    r = graph.vertices()[6]
    _grid(
        lambda j: betweenness_single(
            graph, r, method=method, samples=40, seed=99, n_jobs=j
        ).estimate
    )


@pytest.mark.parametrize("method", ["uniform-source", "distance"])
def test_dependency_samplers_match_their_unset_knob_estimates(method):
    """Dependency-pass samplers draw their sources upfront, so setting the
    knobs leaves the estimate bit-identical to the unset-knob call."""
    graph = barabasi_albert_graph(30, 2, seed=5)
    r = graph.vertices()[6]
    unset = betweenness_single(graph, r, method=method, samples=40, seed=31).estimate
    planned = betweenness_single(
        graph, r, method=method, samples=40, seed=31, n_jobs=2
    ).estimate
    assert unset == planned


#: The knob grid of the determinism contract, unset values included.
KNOB_JOBS_GRID = (None, 1, 2)


@given(st.integers(min_value=0, max_value=10_000))
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_no_execution_knob_changes_any_result(monkeypatch, seed):
    """Every estimator returns the same fixed-seed answer whether the
    execution knobs are unset or set to any value — one execution
    discipline, no knob-selected code path.  300 samples cross a shard
    boundary, so ``n_jobs=2`` really fans out."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    graph = barabasi_albert_graph(24, 2, seed=seed % 50)
    vertices = graph.vertices()
    r = vertices[seed % len(vertices)]
    members = vertices[:3]

    def answers(n_jobs):
        knobs = dict(n_jobs=n_jobs)
        single = {
            method: betweenness_single(
                graph, r, method=method, samples=300, seed=seed, **knobs
            ).estimate
            for method in sorted(SINGLE_VERTEX_METHODS)
        }
        relative = relative_betweenness(graph, members, samples=300, seed=seed, **knobs)
        return repr(
            (
                single,
                sorted((str(k), v) for k, v in relative.ratios.items()),
                relative.sample_counts,
                betweenness_centrality(graph, **knobs),
                all_dependencies_on_target(graph, r, **knobs),
            )
        )

    reference = answers(None)
    for n_jobs in KNOB_JOBS_GRID:
        assert answers(n_jobs) == reference, n_jobs


def test_relative_betweenness_is_block_width_invariant():
    graph = barabasi_albert_graph(30, 2, seed=17)
    refs = graph.vertices()[:3]
    results = []
    for width in WIDTH_GRID:
        with pytest.MonkeyPatch.context() as patch:
            _patched_width(patch, width)
            estimate = JointSpaceMHSampler().estimate_relative(graph, refs, 150, seed=29)
        results.append(
            sorted((str(k), v) for k, v in estimate.ratios.items() if v == v)
        )
    assert results[0] == results[1] == results[2]


# ----------------------------------------------------------------------
# Oracle batch prefetch
# ----------------------------------------------------------------------


def test_oracle_prefetch_caches_and_counts_evaluations():
    graph = barabasi_albert_graph(25, 2, seed=2)
    oracle = DependencyOracle(graph)
    sources = graph.vertices()[:10]
    assert oracle.prefetch(sources) == 10
    assert oracle.evaluations == 10
    # All prefetched: the point queries below are pure cache hits.
    for s in sources:
        oracle.dependency(s, graph.vertices()[-1])
    assert oracle.evaluations == 10
    assert oracle.prefetch(sources) == 0, "already-cached sources are skipped"


def test_oracle_prefetch_matches_per_source_vectors():
    graph = barabasi_albert_graph(25, 2, seed=2)
    batched = DependencyOracle(graph)
    batched.prefetch(graph.vertices())
    sequential = DependencyOracle(graph)
    r = graph.vertices()[5]
    for s in graph.vertices():
        assert batched.dependency(s, r) == sequential.dependency(s, r)


def test_oracle_prefetch_respects_a_bounded_cache():
    """Prefetching past a bounded cache would evict the freshly computed
    vectors and double the passes; the oracle must cap at capacity."""
    graph = barabasi_albert_graph(25, 2, seed=2)
    oracle = DependencyOracle(graph, cache_size=4)
    sources = graph.vertices()[:12]
    assert oracle.prefetch(sources) == 4
    r = graph.vertices()[-1]
    for s in sources[:4]:
        oracle.dependency(s, r)
    assert oracle.evaluations == 4, "capped prefetch must serve its block from cache"


def test_oracle_recompute_after_eviction_is_bit_identical():
    """A batch-configured oracle must return the same bits for a vector
    whether it came from a prefetch block or a post-eviction point query
    (otherwise estimates could depend on cache timing)."""
    graph = barabasi_albert_graph(25, 2, seed=2)
    oracle = DependencyOracle(graph, cache_size=1)
    sources = graph.vertices()[:8]
    r = graph.vertices()[-1]
    prefetched = DependencyOracle(graph)
    prefetched.prefetch(sources)
    for s in sources:
        assert oracle.dependency(s, r) == prefetched.dependency(s, r)


def test_oracle_prefetch_capacity_overflow_never_changes_vectors():
    """Multi-chain runs hammer a shared oracle with prefetch blocks larger
    than a bounded cache can hold; however the capacity overflows, evicts and
    recomputes interleave, every returned vector must equal the unbounded
    oracle's bit for bit (otherwise estimates would depend on cache timing)."""
    graph = barabasi_albert_graph(25, 2, seed=2)
    vertices = graph.vertices()
    r = vertices[-1]
    reference = DependencyOracle(graph)
    bounded = DependencyOracle(graph, cache_size=3)
    # Repeated oversized prefetches (2x capacity) interleaved with point
    # queries — the access pattern K chains sharing one oracle produce.
    for start in range(0, len(vertices), 6):
        block = vertices[start : start + 6]
        bounded.prefetch(block)
        for s in block:
            assert bounded.dependency(s, r) == reference.dependency(s, r)
    # Re-query everything after the cache churned through the whole graph.
    for s in vertices:
        assert bounded.dependency(s, r) == reference.dependency(s, r)


def test_chains_sharing_an_overflowing_oracle_match_private_oracles():
    """Chain-level version of the promise above: two chains sharing one
    tightly bounded oracle walk exactly the chains they walk with private
    unbounded oracles."""
    graph = barabasi_albert_graph(25, 2, seed=2)
    r = graph.vertices()[5]
    sampler = SingleSpaceMHSampler()
    shared = DependencyOracle(graph, cache_size=2)
    shared_first = sampler.run_chain(graph, r, 40, seed=1, oracle=shared)
    shared_second = sampler.run_chain(graph, r, 40, seed=2, oracle=shared)
    private_first = sampler.run_chain(graph, r, 40, seed=1)
    private_second = sampler.run_chain(graph, r, 40, seed=2)
    assert shared_first.states == private_first.states
    assert shared_second.states == private_second.states


def test_oracle_prefetch_is_a_noop_when_cache_disabled():
    graph = barabasi_albert_graph(25, 2, seed=2)
    oracle = DependencyOracle(graph, cache_size=0)
    assert oracle.prefetch(graph.vertices()) == 0
    assert oracle.evaluations == 0


# ----------------------------------------------------------------------
# Oracle accounting: hit_rate and the prefetch eviction policy
# ----------------------------------------------------------------------


def test_oracle_hit_rate_after_prefetch_then_hit():
    """The regression that motivated the split counter: 10 prefetched passes
    followed by one cache-hit lookup used to report a hit rate of -9.0."""
    graph = barabasi_albert_graph(25, 2, seed=2)
    oracle = DependencyOracle(graph)
    oracle.prefetch(graph.vertices()[:10])
    assert oracle.evaluations == 10
    assert oracle.prefetch_evaluations == 10
    assert oracle.hit_rate() == 0.0, "no lookups answered yet"
    oracle.dependency(graph.vertices()[0], graph.vertices()[-1])
    assert oracle.lookups == 1
    assert oracle.hit_rate() == 1.0
    # A genuine miss degrades the rate but keeps prefetch passes out of it.
    oracle.dependency(graph.vertices()[20], graph.vertices()[-1])
    assert oracle.hit_rate() == 0.5
    assert oracle.evaluations == 11, "evaluations still count every pass (E8)"


@given(
    st.lists(
        st.tuples(st.sampled_from(["prefetch", "lookup"]), st.integers(0, 24)),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([None, 0, 1, 3, 8]),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_oracle_hit_rate_stays_in_unit_interval(ops, cache_size):
    """Property: whatever the interleaving of prefetches and lookups (and
    whatever the cache bound), hit_rate() never leaves [0, 1]."""
    graph = barabasi_albert_graph(25, 2, seed=2)
    vertices = graph.vertices()
    oracle = DependencyOracle(
        graph, cache_size=cache_size
    )
    for op, index in ops:
        if op == "prefetch":
            oracle.prefetch(vertices[index : index + 6])
        else:
            oracle.dependency(vertices[index], vertices[-1])
        assert 0.0 <= oracle.hit_rate() <= 1.0


def test_oracle_prefetch_caps_at_free_slots_then_half_capacity():
    """The occupancy-aware cap: free slots are filled first (evicting
    nothing), and on a full cache a prefetch claims at most half the
    capacity, so batching survives while the recent half of the cache —
    the MRU included — never gets flushed."""
    graph = barabasi_albert_graph(25, 2, seed=2)
    vertices = graph.vertices()
    oracle = DependencyOracle(graph, cache_size=4)
    r = vertices[-1]
    oracle.dependency(vertices[0], r)  # occupancy 1
    assert oracle.prefetch(vertices[1:20]) == 3, "3 free slots -> 3 passes"
    # Everything cached so far is still cached: all four are pure hits.
    before = oracle.evaluations
    for s in vertices[:4]:
        oracle.dependency(s, r)
    assert oracle.evaluations == before
    # Full cache: the next block claims capacity // 2 = 2 slots (keeping
    # the batch kernels in play), evicting only the two LRU entries — the
    # two most recently touched vectors survive.
    assert oracle.prefetch(vertices[10:20]) == 2
    before = oracle.evaluations
    oracle.dependency(vertices[3], r)  # MRU of the pre-block cache
    oracle.dependency(vertices[2], r)  # second-newest
    assert oracle.evaluations == before


def test_oracle_prefetch_never_evicts_the_live_state_vector():
    """The chain access pattern behind the bug: the vector of the state the
    chain sits on must survive a full-capacity prefetch block, so revisits
    (rejection-heavy stretches re-propose the current vertex) stay free."""
    graph = barabasi_albert_graph(25, 2, seed=2)
    vertices = graph.vertices()
    r = vertices[-1]
    oracle = DependencyOracle(graph, cache_size=3)
    state = vertices[0]
    oracle.dependency(state, r)  # the live state's vector
    oracle.prefetch(vertices[1:10])  # an over-capacity proposal block
    before = oracle.evaluations
    oracle.dependency(state, r)  # the revisit an earlier revision re-paid
    assert oracle.evaluations == before


def test_oracle_bounded_cache_chain_estimate_and_passes():
    """Chain-level acceptance: on a rejection-heavy chain a bounded cache
    yields the same estimate as an unbounded one, and — now that prefetch
    stopped flushing the cache — strictly fewer passes than the
    every-query-is-a-miss worst case."""
    graph = barabasi_albert_graph(25, 2, seed=6)
    r = graph.vertices()[0]  # early BA vertex: a hub, so most proposals lose
    iterations = 120
    unbounded = SingleSpaceMHSampler().run_chain(graph, r, iterations, seed=17)
    bounded = SingleSpaceMHSampler(cache_size=4).run_chain(graph, r, iterations, seed=17)
    assert bounded.states == unbounded.states, "cache bound must be result-neutral"
    assert (
        sum(1 for s in bounded.states[1:] if not s.accepted) > iterations / 3
    ), "the scenario should be rejection-heavy, or this test checks nothing"
    assert bounded.evaluations < iterations + 1, (
        "revisited sources must hit the bounded cache; a full-capacity "
        "prefetch flushing the cache would push this to the miss-only count"
    )


# ----------------------------------------------------------------------
# sample_shards: arithmetic shard sizing
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "num_samples", [0, 1, 255, 256, 257, 512, 600, 1024, 10_000]
)
def test_sample_shards_matches_the_list_based_implementation(num_samples):
    """sample_shards computes shard lengths arithmetically; the payloads must
    pin the old list-materialising implementation exactly — same counts,
    same child streams, same parent-stream advancement."""
    from repro.execution import sample_shards

    rng_new, rng_old = random.Random(97), random.Random(97)
    new = sample_shards(num_samples, rng_new)
    old_shards = split_shards(list(range(num_samples)))
    old = [
        (len(shard), shard_rng)
        for shard, shard_rng in zip(old_shards, shard_rngs(rng_old, len(old_shards)))
    ]
    assert [count for count, _ in new] == [count for count, _ in old]
    assert [shard_rng.random() for _, shard_rng in new] == [
        shard_rng.random() for _, shard_rng in old
    ]
    assert rng_new.random() == rng_old.random(), "parent streams must stay in lockstep"


def test_sample_shards_cost_is_per_shard_not_per_sample():
    """The satellite's point: shard sizing is O(#shards).  A multi-million
    budget resolves through arithmetic — the old implementation materialised
    ``list(range(budget))`` just to count it."""
    import tracemalloc

    from repro.execution import sample_shards

    budget = 2_560_000 + 7
    tracemalloc.start()
    shards = sample_shards(budget, random.Random(1))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(shards) == budget // DEFAULT_SHARD_SIZE + 1
    assert shards[0][0] == DEFAULT_SHARD_SIZE
    assert shards[-1][0] == budget % DEFAULT_SHARD_SIZE == 7
    # The legitimate cost is the ~10k child generators (a Mersenne-Twister
    # state is ~2.5 KB, so ~25 MB); a 2.56M-element index list would add
    # ~70 MB of list + int objects on CPython and blow this bound.
    assert peak < 40_000_000


# ----------------------------------------------------------------------
# Kernel-chosen block widths
# ----------------------------------------------------------------------


def test_block_width_never_changes_the_estimate():
    """Whatever width the kernels run, the engine's per-row bit-identity
    makes the estimate independent of it."""
    graph = barabasi_albert_graph(30, 2, seed=5)
    r = graph.vertices()[6]
    estimates = set()
    for width in (1, 8, 16, 32, 64):
        with pytest.MonkeyPatch.context() as patch:
            _patched_width(patch, width)
            estimates.add(
                betweenness_single(graph, r, method="mh", samples=40, seed=99).estimate
            )
    assert len(estimates) == 1


def test_mh_prefetch_passes_do_not_depend_on_the_block_width():
    graph = barabasi_albert_graph(30, 2, seed=4)
    r = graph.vertices()[5]
    with pytest.MonkeyPatch.context() as patch:
        _patched_width(patch, 1)
        one = SingleSpaceMHSampler().estimate(graph, r, 60, seed=11)
    wide = SingleSpaceMHSampler().estimate(graph, r, 60, seed=11)
    assert one.estimate == wide.estimate
    assert wide.diagnostics["evaluations"] == one.diagnostics["evaluations"]


# ----------------------------------------------------------------------
# Worker-count autotuning
# ----------------------------------------------------------------------


def test_default_jobs_candidates_shape():
    from repro.execution import default_jobs_candidates

    candidates = default_jobs_candidates()
    assert candidates[0] == 1
    assert all(a < b for a, b in zip(candidates, candidates[1:]))
    assert all(isinstance(c, int) and c >= 1 for c in candidates)


def test_probe_n_jobs_times_every_candidate():
    from repro.execution import probe_n_jobs

    graph = barabasi_albert_graph(30, 2, seed=2)
    timings = probe_n_jobs(graph, candidates=(1, 2), probe_sources=8)
    assert [jobs for jobs, _ in timings] == [1, 2]
    assert all(seconds >= 0.0 for _, seconds in timings)


def test_probe_n_jobs_fast_paths():
    from repro.execution import probe_n_jobs

    graph = barabasi_albert_graph(30, 2, seed=2)
    # nothing beyond one worker to sweep: no pools spun up.
    assert probe_n_jobs(graph, candidates=(1,)) == [(1, 0.0)]


def test_probe_n_jobs_validates_its_knobs():
    from repro.execution import probe_n_jobs

    graph = barabasi_albert_graph(20, 2, seed=1)
    with pytest.raises(ConfigurationError):
        probe_n_jobs(graph, candidates=(0,))
    with pytest.raises(ConfigurationError):
        probe_n_jobs(graph, probe_sources=0)
    with pytest.raises(ConfigurationError):
        probe_n_jobs(graph, repeats=0)


def test_calibrate_n_jobs_returns_a_candidate_and_breaks_ties_down(monkeypatch):
    from repro.execution import autotune, calibrate_n_jobs

    graph = barabasi_albert_graph(30, 2, seed=2)
    assert calibrate_n_jobs(graph, candidates=(1, 2), probe_sources=8) in (1, 2)
    # Deterministic tie: the smaller worker count must win.
    monkeypatch.setattr(
        autotune, "probe_n_jobs", lambda *a, **k: [(4, 1.0), (2, 1.0), (1, 2.0)]
    )
    assert calibrate_n_jobs(graph) == 2


def test_calibrated_jobs_never_change_the_estimate():
    """The n_jobs twin of the block-width contract: whatever count the noisy
    probe picks, the sharded engine's merge order is n_jobs-invariant."""
    graph = barabasi_albert_graph(30, 2, seed=5)
    r = graph.vertices()[6]
    estimates = {
        jobs: betweenness_single(
            graph, r, method="uniform-source", samples=40, seed=99,
            n_jobs=jobs,
        ).estimate
        for jobs in JOBS_GRID
    }
    assert len(set(estimates.values())) == 1


def test_n_jobs_auto_resolves_and_engages_the_engine():
    """n_jobs='auto' at the API resolves to a concrete count (never None —
    the engine must engage so results stay n_jobs-invariant) and returns
    the same estimate as the explicit counts."""
    graph = barabasi_albert_graph(30, 2, seed=5)
    r = graph.vertices()[6]
    auto = betweenness_single(
        graph, r, method="uniform-source", samples=40, seed=99,
        n_jobs="auto",
    )
    explicit = betweenness_single(
        graph, r, method="uniform-source", samples=40, seed=99,
        n_jobs=1,
    )
    assert auto.estimate == explicit.estimate


def test_n_jobs_explicit_values_skip_the_probe():
    from repro.centrality.api import _resolve_n_jobs

    graph = barabasi_albert_graph(20, 2, seed=3)
    assert _resolve_n_jobs(graph, 3) == 3  # explicit ints pass through
    assert _resolve_n_jobs(graph, None) is None


def test_probe_shard_sizes_is_a_diagnostic_only():
    """Times every candidate; the library deliberately exposes no
    calibrate_shard_size (the constant is part of the determinism contract)."""
    import repro.execution as execution
    from repro.execution import probe_shard_sizes

    graph = barabasi_albert_graph(30, 2, seed=2)
    timings = probe_shard_sizes(graph, candidates=(8, 16), probe_sources=8)
    assert [size for size, _ in timings] == [8, 16]
    assert all(seconds >= 0.0 for _, seconds in timings)
    assert not hasattr(execution, "calibrate_shard_size")
    with pytest.raises(ConfigurationError):
        probe_shard_sizes(graph, candidates=())
    with pytest.raises(ConfigurationError):
        probe_shard_sizes(graph, candidates=(0,))


# ----------------------------------------------------------------------
# Whole-set prefetch: streamed blocks, one call per chain, bounded runs
# ----------------------------------------------------------------------


def test_batch_source_dependencies_streams_blocks_to_a_sink(monkeypatch):
    """With a sink, each block's rows arrive as they are computed, in the
    blocks ``source_blocks`` chose, and no whole-set matrix is returned."""
    graph = _random_weighted(5)
    csr = graph.csr()
    n = csr.number_of_vertices()
    sources = [s % n for s in range(23)]
    monkeypatch.setattr(batch_module, "_block_width", lambda csr: 5)
    received = []
    returned = batch_source_dependencies(
        csr, sources, sink=lambda begin, rows: received.append((begin, rows.copy()))
    )
    assert list(returned) == sources
    assert [(begin, len(rows)) for begin, rows in received] == [
        (begin, end - begin) for begin, end in batch_module.source_blocks(csr, len(sources))
    ]
    assert [len(rows) for _, rows in received] == [5, 5, 5, 4, 4]
    whole = batch_source_dependencies(csr, sources)
    assert np.array_equal(np.concatenate([rows for _, rows in received]), whole)


@pytest.mark.parametrize("joint", [False, True])
def test_a_chain_prefetches_its_whole_miss_set_in_one_call(joint):
    """Unbounded cache: one prefetch per chain covers every candidate and
    the start state, so no lookup is left to a solitary point pass."""
    graph = barabasi_albert_graph(40, 2, seed=9)
    vertices = graph.vertices()
    oracle = DependencyOracle(graph)
    calls = []
    original = oracle.prefetch
    oracle.prefetch = lambda sources: calls.append(list(sources)) or original(sources)
    if joint:
        JointSpaceMHSampler().run_chain(graph, vertices[:3], 90, seed=4, oracle=oracle)
    else:
        SingleSpaceMHSampler().run_chain(graph, vertices[3], 90, seed=4, oracle=oracle)
    assert len(calls) == 1
    assert oracle.evaluations == oracle.prefetch_evaluations > 0


@pytest.mark.parametrize("cache_size", [2, 3, 5])
def test_bounded_prefetch_runs_are_read_before_eviction(cache_size):
    """A bounded cache prefetches in runs it can hold whole: every lookup
    of a run hits, so every pass of the chain is a prefetched one."""
    graph = barabasi_albert_graph(40, 2, seed=9)
    oracle = DependencyOracle(graph, cache_size=cache_size)
    SingleSpaceMHSampler(cache_size=cache_size).run_chain(
        graph, graph.vertices()[3], 120, seed=6, oracle=oracle
    )
    assert oracle.evaluations == oracle.prefetch_evaluations > 0
    assert len(oracle._cache) <= cache_size
