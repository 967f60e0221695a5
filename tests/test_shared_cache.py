"""Tests for the cross-process shared dependency-vector cache.

Three layers of promises:

1. **Store protocol** — :class:`repro.execution.shared_cache.SharedDependencyStore`
   is a fill-once arena: put/get round-trip bit-exactly, duplicate puts are
   no-ops, a full arena refuses new rows without corrupting existing ones,
   and the store survives pickling into another process by re-attaching to
   the same segment.
2. **Oracle integration** — a :class:`~repro.mcmc.estimates.DependencyOracle`
   with a store attached returns vectors bit-identical to a private oracle
   on prefetch-heavy and eviction-heavy access patterns, serves another
   oracle's published vectors without re-running Brandes passes, and falls
   back gracefully on unsupported platforms.
3. **Driver determinism** — the multi-chain pooled estimates with
   ``shared_cache=True`` are bit-identical to the private-cache runs over
   the whole ``n_jobs`` × ``n_chains`` grid, survive arena-capacity
   overflow unchanged, and actually eliminate duplicated passes.
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

from repro.centrality.api import betweenness_single, relative_betweenness
from repro.errors import ConfigurationError
from repro.execution import resolve_plan
from repro.execution.shared_cache import (
    SharedDependencyStore,
    create_shared_store,
    shared_memory_available,
)
from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import np
from repro.mcmc.estimates import DependencyOracle
from repro.mcmc.multichain import MultiChainJointSampler, MultiChainMHSampler

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="the shared dependency cache requires working shared memory",
)

JOBS_GRID = (1, 2, 4)
CHAINS_GRID = (1, 2, 4)


@pytest.fixture
def graph():
    return barabasi_albert_graph(40, 2, seed=3)


@pytest.fixture
def store(graph):
    s = SharedDependencyStore(graph.number_of_vertices(), 40)
    yield s
    s.destroy()


# ----------------------------------------------------------------------
# Store protocol
# ----------------------------------------------------------------------


def test_shared_store_put_get_roundtrip(store):
    vector = np.arange(store.num_vertices, dtype=np.float64)
    assert store.get(5) is None
    assert not store.contains(5)
    assert store.put(5, vector)
    assert store.contains(5)
    out = store.get(5)
    assert np.array_equal(out, vector)
    # get() hands back a private copy, not a view into the arena.
    out[0] = -1.0
    assert np.array_equal(store.get(5), vector)
    assert store.published() == 1


def test_shared_store_duplicate_put_keeps_the_first_row(store):
    first = np.full(store.num_vertices, 1.5)
    second = np.full(store.num_vertices, 2.5)
    assert store.put(7, first)
    # The racing loser's vector is bit-identical in real runs; the protocol
    # promise is simply that the slot is claimed once.
    assert store.put(7, second)
    assert store.published() == 1
    assert np.array_equal(store.get(7), first)


def test_shared_store_refuses_rows_past_capacity(graph):
    store = SharedDependencyStore(graph.number_of_vertices(), 2)
    try:
        vec = np.ones(store.num_vertices)
        assert store.put(0, vec)
        assert store.put(1, 2 * vec)
        assert not store.put(2, 3 * vec), "a full arena must refuse new rows"
        assert store.stats() == {
            "capacity": 2,
            "published": 2,
            "tombstoned": 0,
            "full": True,
        }
        # Existing rows stay intact and readable after the refusal.
        assert np.array_equal(store.get(0), vec)
        assert np.array_equal(store.get(1), 2 * vec)
        assert store.get(2) is None
    finally:
        store.destroy()


def test_shared_store_compact_reclaims_tombstoned_capacity():
    store = SharedDependencyStore(6, 4)
    try:
        for i in range(4):
            store.put(i, np.full(6, float(i)))
        assert not store.put(4, np.zeros(6)), "arena starts full"
        assert store.invalidate_sources([0, 2]) == 2
        assert store.compact() == 2
        assert store.compact() == 0, "a compacted arena has nothing to reclaim"
        assert store.tombstoned() == 0
        assert store.published() == 2
        # Surviving rows keep their bytes and their claims...
        assert np.array_equal(store.get(1), np.full(6, 1.0))
        assert np.array_equal(store.get(3), np.full(6, 3.0))
        assert store.get(0) is None
        # ...and the reclaimed capacity accepts new rows again.
        assert store.put(4, np.full(6, 4.0))
        assert store.put(5, np.full(6, 5.0))
        assert np.array_equal(store.get(4), np.full(6, 4.0))
        assert store.stats() == {
            "capacity": 4,
            "published": 4,
            "tombstoned": 0,
            "full": True,
        }
    finally:
        store.destroy()


def _spawned_publisher(store, index: int, value: float) -> None:
    """Child-process body of the spawn test below (must be module-level)."""
    store.put(index, np.full(store.num_vertices, value))
    store.close()


def test_shared_store_travels_to_a_spawned_process():
    """The pickling contract end to end: a *spawned* worker (the start
    method that really pickles process arguments — a process-shared lock may
    only cross that channel) re-attaches to the same segment and its writes
    are visible to the creator."""
    ctx = multiprocessing.get_context("spawn")
    store = SharedDependencyStore(8, 4, context=ctx)
    try:
        child = ctx.Process(target=_spawned_publisher, args=(store, 3, 2.5))
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert np.array_equal(store.get(3), np.full(8, 2.5))
    finally:
        store.destroy()


def test_shared_store_validates_its_arguments():
    with pytest.raises(ConfigurationError):
        SharedDependencyStore(0, 4)
    with pytest.raises(ConfigurationError):
        SharedDependencyStore(4, 0)


def test_shared_store_create_warns_and_falls_back_without_support(monkeypatch):
    import repro.execution.shared_cache as shared_cache

    monkeypatch.setattr(shared_cache, "_shared_memory", None)
    assert not shared_cache.shared_memory_available()
    with pytest.warns(RuntimeWarning, match="falling back to private"):
        assert create_shared_store(10, 10) is None


# ----------------------------------------------------------------------
# Oracle integration
# ----------------------------------------------------------------------


def test_shared_cache_prefetch_heavy_vectors_bit_identical(graph, store):
    """Prefetch-heavy run: a store-backed oracle returns the private
    oracle's vectors bit for bit (the determinism bedrock)."""
    shared = DependencyOracle(graph, shared_store=store)
    private = DependencyOracle(graph)
    vertices = graph.vertices()
    shared.prefetch(vertices[:20])
    private.prefetch(vertices[:20])
    r = vertices[-1]
    for s in vertices:
        assert shared.dependency(s, r) == private.dependency(s, r)


def test_shared_cache_eviction_heavy_vectors_bit_identical(graph, store):
    """Eviction-heavy run: a tightly bounded private cache forces constant
    store traffic and recomputation; the values never move."""
    shared = DependencyOracle(
        graph, cache_size=2, shared_store=store
    )
    private = DependencyOracle(graph)
    vertices = graph.vertices()
    r = vertices[-1]
    for start in range(0, len(vertices), 6):
        block = vertices[start : start + 6]
        shared.prefetch(block)
        for s in block:
            assert shared.dependency(s, r) == private.dependency(s, r)
    for s in vertices:
        assert shared.dependency(s, r) == private.dependency(s, r)


def test_shared_cache_second_oracle_reads_without_passes(graph, store):
    """The point of the arena: a pass paid by one oracle is a hit for every
    other oracle attached to the same store."""
    writer = DependencyOracle(graph, shared_store=store)
    reader = DependencyOracle(graph, shared_store=store)
    vertices = graph.vertices()
    r = vertices[-1]
    writer.prefetch(vertices[:10])
    for s in vertices[:10]:
        reader.dependency(s, r)
    assert reader.evaluations == 0
    assert reader.shared_hits == 10
    assert reader.hit_rate() == 1.0
    # And prefetch itself is served from the store, not recomputed.
    another = DependencyOracle(graph, shared_store=store)
    assert another.prefetch(vertices[:10]) == 0
    assert another.shared_hits == 10


def test_shared_cache_rejects_a_store_sized_for_another_graph(graph):
    store = SharedDependencyStore(graph.number_of_vertices() + 1, 4)
    try:
        with pytest.raises(ConfigurationError, match="sized for"):
            DependencyOracle(graph, shared_store=store)
    finally:
        store.destroy()


# ----------------------------------------------------------------------
# Multi-chain drivers
# ----------------------------------------------------------------------


def test_shared_cache_pooled_estimates_bit_identical_over_the_grid(graph):
    """The acceptance grid: shared_cache=True never changes the pooled
    estimate for any (n_jobs, n_chains) at a fixed seed."""
    r = graph.vertices()[0]
    for n_chains in CHAINS_GRID:
        reference = MultiChainMHSampler(
            n_chains=n_chains
        ).estimate(graph, r, 48, seed=11)
        assert reference.diagnostics["shared_cache"] is False
        for n_jobs in JOBS_GRID:
            shared = MultiChainMHSampler(
                n_chains=n_chains,
                n_jobs=n_jobs,
                shared_cache=True,
            ).estimate(graph, r, 48, seed=11)
            assert shared.estimate == reference.estimate, (n_jobs, n_chains)
            assert shared.diagnostics["shared_cache"] is True


def test_shared_cache_chain_states_match_private_runs(graph):
    """Stronger than the pooled read-out: the full per-chain trajectories
    are unchanged by cache sharing."""
    r = graph.vertices()[0]
    private = MultiChainMHSampler(n_chains=4).run_chains(
        graph, r, 48, seed=5
    )
    shared = MultiChainMHSampler(
        n_chains=4, n_jobs=2, shared_cache=True
    ).run_chains(graph, r, 48, seed=5)
    for a, b in zip(private.chains, shared.chains):
        assert a.states == b.states


def test_shared_cache_arena_overflow_is_result_neutral(graph):
    """A deliberately tiny arena overflows immediately; chains must not
    notice (the store refuses rows, private caches absorb the rest)."""
    r = graph.vertices()[0]
    reference = MultiChainMHSampler(n_chains=4).estimate(
        graph, r, 48, seed=9
    )
    tiny = MultiChainMHSampler(
        n_chains=4,
        n_jobs=2,
        shared_cache=True,
        shared_cache_capacity=2,
    ).estimate(graph, r, 48, seed=9)
    assert tiny.estimate == reference.estimate
    stats = tiny.diagnostics["shared_cache_stats"]
    assert stats["full"] and stats["capacity"] == 2


def test_shared_cache_deduplicates_passes_across_workers(graph):
    """The receipt property at test scale: total Brandes passes across
    workers collapse toward the run's unique-source count."""
    r = graph.vertices()[0]
    # n_jobs=1 shares one in-process oracle across all chains, so its
    # evaluation count *is* the number of unique sources the run touches.
    unique = MultiChainMHSampler(n_chains=4).estimate(
        graph, r, 64, seed=2
    )
    private = MultiChainMHSampler(
        n_chains=4, n_jobs=4
    ).estimate(graph, r, 64, seed=2)
    shared = MultiChainMHSampler(
        n_chains=4, n_jobs=4, shared_cache=True
    ).estimate(graph, r, 64, seed=2)
    unique_count = unique.diagnostics["evaluations"]
    assert private.diagnostics["evaluations"] > unique_count, (
        "private per-worker caches should duplicate cross-chain passes on "
        "this workload (otherwise the test graph is too small to matter)"
    )
    assert shared.diagnostics["evaluations"] >= unique_count
    # Benign races (two workers missing the same source before either
    # publishes) add a schedule-dependent handful of duplicate passes, and
    # at this 40-vertex scale a loaded machine can push them past the tight
    # receipt ratio — the strict "<= 1.2 x unique" acceptance bound is
    # asserted at receipt scale in benchmarks/bench_e13_shared_cache.py,
    # where the margin is wide (1.008 observed).  Here the robust property
    # is strict deduplication over the private-cache run.
    assert shared.diagnostics["evaluations"] < private.diagnostics["evaluations"]
    assert shared.estimate == private.estimate == unique.estimate


def test_shared_cache_joint_driver_identical_and_deduplicated(graph):
    refs = graph.vertices()[:3]
    reference = MultiChainJointSampler(
        n_chains=4
    ).estimate_relative(graph, refs, 64, seed=13)
    shared = MultiChainJointSampler(
        n_chains=4, n_jobs=2, shared_cache=True
    ).estimate_relative(graph, refs, 64, seed=13)
    private = MultiChainJointSampler(
        n_chains=4, n_jobs=2
    ).estimate_relative(graph, refs, 64, seed=13)
    key = lambda e: sorted((str(k), v) for k, v in e.ratios.items() if v == v)
    assert key(shared) == key(reference) == key(private)
    assert shared.diagnostics["shared_cache"] is True
    # Same schedule-robust property as the single-space dedup test: strictly
    # fewer passes than the private-cache workers (the tight receipt ratio
    # lives in bench_e13 at receipt scale).
    assert (
        reference.diagnostics["evaluations"]
        <= shared.diagnostics["evaluations"]
        < private.diagnostics["evaluations"]
    )


def test_shared_cache_adaptive_mode_shares_across_rounds(graph):
    """The adaptive driver keeps one arena alive across its checkpointed
    rounds (each round re-forks workers; the arena is what survives)."""
    r = graph.vertices()[0]
    kwargs = dict(
        n_chains=4, rhat_target=1.2, check_interval=8
    )
    reference = MultiChainMHSampler(**kwargs).estimate(graph, r, 96, seed=21)
    shared = MultiChainMHSampler(**kwargs, n_jobs=2, shared_cache=True).estimate(
        graph, r, 96, seed=21
    )
    assert shared.estimate == reference.estimate
    assert shared.diagnostics["rounds"] == reference.diagnostics["rounds"]
    assert shared.diagnostics["shared_cache"] is True


def test_shared_cache_driver_falls_back_when_store_unavailable(graph, monkeypatch):
    """No shared memory on the platform: the run completes on private
    caches with identical results and an honest diagnostics stamp."""
    import repro.mcmc.multichain as multichain

    def no_store(num_vertices, capacity):
        warnings.warn("simulated: no shared memory", RuntimeWarning)
        return None

    monkeypatch.setattr(multichain, "create_shared_store", no_store)
    r = graph.vertices()[0]
    reference = MultiChainMHSampler(n_chains=2).estimate(
        graph, r, 32, seed=1
    )
    with pytest.warns(RuntimeWarning, match="simulated"):
        fallback = MultiChainMHSampler(
            n_chains=2, n_jobs=2, shared_cache=True
        ).estimate(graph, r, 32, seed=1)
    assert fallback.estimate == reference.estimate
    assert fallback.diagnostics["shared_cache"] is False


def test_shared_cache_driver_validates_its_knobs():
    with pytest.raises(ConfigurationError):
        MultiChainMHSampler(n_chains=2, shared_cache="yes")
    with pytest.raises(ConfigurationError):
        MultiChainMHSampler(n_chains=2, shared_cache_capacity=0)


# ----------------------------------------------------------------------
# API / plan / env threading
# ----------------------------------------------------------------------


def test_shared_cache_api_threading(graph):
    r = graph.vertices()[0]
    reference = betweenness_single(
        graph, r, method="mh", samples=40, seed=9, n_chains=2
    )
    shared = betweenness_single(
        graph,
        r,
        method="mh",
        samples=40,
        seed=9,
        n_chains=2,
        n_jobs=2,
        shared_cache=True,
    )
    assert shared.estimate == reference.estimate
    assert shared.diagnostics["shared_cache"] is True


def test_shared_cache_api_requires_the_multichain_driver(graph):
    with pytest.raises(ConfigurationError, match="multi-chain"):
        betweenness_single(
            graph, graph.vertices()[0], method="mh", samples=20, shared_cache=True
        )
    with pytest.raises(ConfigurationError, match="multi-chain"):
        relative_betweenness(
            graph, graph.vertices()[:3], samples=20, shared_cache=True
        )


def test_shared_cache_env_override_reaches_the_driver(graph, monkeypatch):
    monkeypatch.setenv("REPRO_SHARED_CACHE", "1")
    assert resolve_plan(None).shared_cache is True
    r = graph.vertices()[0]
    est = MultiChainMHSampler(n_chains=2).estimate(graph, r, 32, seed=4)
    assert est.diagnostics["shared_cache"] is True
    # An explicit False wins over the env var, like every engine knob.
    est = MultiChainMHSampler(n_chains=2, shared_cache=False).estimate(
        graph, r, 32, seed=4
    )
    assert est.diagnostics["shared_cache"] is False


def test_shared_cache_env_never_changes_an_estimate(graph, monkeypatch):
    """The cache flag selects a sharing policy, not an execution discipline:
    with only REPRO_SHARED_CACHE set, resolve_plan fills the field and every
    estimator still returns its unflagged fixed-seed estimate — an earlier
    revision let the flag switch disciplines and silently moved fixed-seed
    RK/MH results."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    r = graph.vertices()[0]
    unflagged = betweenness_single(graph, r, method="rk", samples=60, seed=7)
    monkeypatch.setenv("REPRO_SHARED_CACHE", "1")
    assert resolve_plan(None).shared_cache is True
    flagged = betweenness_single(graph, r, method="rk", samples=60, seed=7)
    assert flagged.estimate == unflagged.estimate


def test_shared_cache_env_override_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_SHARED_CACHE", "maybe")
    with pytest.raises(ConfigurationError):
        resolve_plan(None)


def test_runtime_arena_honours_shared_cache_capacity(graph):
    """A driver's explicit shared_cache_capacity must size the runtime's
    persistent arena, not be silently dropped in favour of the default."""
    from repro.execution import ExecutionContext

    r = graph.vertices()[0]
    with ExecutionContext() as ctx:
        sampler = MultiChainMHSampler(
            n_chains=2, shared_cache_capacity=7, runtime=ctx
        )
        estimate = sampler.estimate(graph, r, 32, seed=1)
        stats = estimate.diagnostics["shared_cache_stats"]
    assert stats is not None
    assert stats["capacity"] == 7
