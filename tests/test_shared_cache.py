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
3. **Driver determinism** — a multi-chain run attaches an arena exactly
   when its chains go to a pool (``n_jobs > 1`` and ``n_chains > 1``); its
   pooled estimates are bit-identical to the inline runs over the whole
   ``n_jobs`` × ``n_chains`` grid, survive arena overflow (forced through
   the free-space clamp) unchanged, actually eliminate duplicated passes,
   and leave no segment behind.
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

import repro.execution.shared_cache as shared_cache
import repro.mcmc.multichain as multichain
from repro._rng import ensure_rng, spawn_rng
from repro.centrality.api import betweenness_single, relative_betweenness
from repro.errors import ConfigurationError
from repro.execution import execution_stamp
from repro.execution.shared_cache import (
    SharedDependencyStore,
    create_shared_store,
    shared_memory_available,
)
from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import np
from repro.mcmc.estimates import DependencyOracle
from repro.mcmc.joint import JointSpaceMHSampler
from repro.mcmc.multichain import MultiChainJointSampler, MultiChainMHSampler, split_budget
from repro.mcmc.single import SingleSpaceMHSampler

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


def _ratio_key(estimate):
    """The joint estimate's defined ratios, comparable with ``==``."""
    return sorted((str(k), v) for k, v in estimate.ratios.items() if v == v)


def _rows_fit(monkeypatch, graph, rows):
    """Make the free-space reader report room for exactly *rows* arena rows
    (an arena is sized to half the free bytes)."""
    free = 2 * shared_cache._segment_bytes(graph.number_of_vertices(), rows)
    monkeypatch.setattr(shared_cache, "_shared_memory_free_bytes", lambda: free)


def test_shared_cache_pooled_estimates_bit_identical_over_the_grid(graph):
    """The acceptance grid: the arena of a pooled run never changes the
    pooled estimate for any (n_jobs, n_chains) at a fixed seed."""
    r = graph.vertices()[0]
    for n_chains in CHAINS_GRID:
        reference = MultiChainMHSampler(
            n_chains=n_chains
        ).estimate(graph, r, 48, seed=11)
        for n_jobs in JOBS_GRID:
            pooled = MultiChainMHSampler(
                n_chains=n_chains, n_jobs=n_jobs
            ).estimate(graph, r, 48, seed=11)
            assert pooled.estimate == reference.estimate, (n_jobs, n_chains)


@pytest.mark.parametrize("n_jobs,n_chains", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_arena_attaches_exactly_when_chains_go_to_a_pool(graph, n_jobs, n_chains):
    """The stamp's ``shared_cache`` reports whether an arena was attached:
    true exactly for ``n_jobs > 1`` and ``n_chains > 1`` (the runs whose
    chains leave the inline path), for both vector-caching drivers, with
    the inline run's bits either way."""
    r = graph.vertices()[0]
    refs = graph.vertices()[:3]
    pooled = n_jobs > 1 and n_chains > 1
    single = MultiChainMHSampler(n_chains=n_chains, n_jobs=n_jobs).estimate(
        graph, r, 48, seed=6
    )
    joint = MultiChainJointSampler(n_chains=n_chains, n_jobs=n_jobs).estimate_relative(
        graph, refs, 48, seed=6
    )
    assert execution_stamp(single.diagnostics)["shared_cache"] is pooled
    assert execution_stamp(joint.diagnostics)["shared_cache"] is pooled
    assert (single.diagnostics["shared_cache_stats"] is not None) is pooled
    inline_single = MultiChainMHSampler(n_chains=n_chains).estimate(graph, r, 48, seed=6)
    inline_joint = MultiChainJointSampler(n_chains=n_chains).estimate_relative(
        graph, refs, 48, seed=6
    )
    assert single.estimate == inline_single.estimate
    assert _ratio_key(joint) == _ratio_key(inline_joint)


def test_shared_cache_chain_states_match_private_runs(graph):
    """Stronger than the pooled read-out: the full per-chain trajectories
    of a pooled run with an arena equal the inline run's, whose chains
    share one private oracle."""
    r = graph.vertices()[0]
    private = MultiChainMHSampler(n_chains=4).run_chains(
        graph, r, 48, seed=5
    )
    shared = MultiChainMHSampler(n_chains=4, n_jobs=2).run_chains(graph, r, 48, seed=5)
    for a, b in zip(private.chains, shared.chains):
        assert a.states == b.states


def test_shared_cache_arena_overflow_is_result_neutral(graph, monkeypatch):
    """The free space reported fits two rows, so ``create_shared_store``
    clamps the arena to them and it overflows immediately; chains must not
    notice (the store refuses rows, private caches absorb the rest)."""
    r = graph.vertices()[0]
    reference = MultiChainMHSampler(n_chains=4).estimate(
        graph, r, 48, seed=9
    )
    _rows_fit(monkeypatch, graph, 2)
    tiny = MultiChainMHSampler(n_chains=4, n_jobs=2).estimate(graph, r, 48, seed=9)
    assert tiny.estimate == reference.estimate
    stats = tiny.diagnostics["shared_cache_stats"]
    assert stats["full"] and stats["capacity"] == 2


def test_no_arena_when_not_one_row_fits(graph, monkeypatch):
    """``create_shared_store`` clamps every arena to the rows whose segment
    fits half the free bytes of the shared-memory filesystem (the overflow test
    above clamps it to two); with room for none the run gets no arena,
    warns, and pools the same estimate on private caches."""
    r = graph.vertices()[0]
    inline = MultiChainMHSampler(n_chains=4).estimate(graph, r, 48, seed=17)
    _rows_fit(monkeypatch, graph, 0)
    with pytest.warns(RuntimeWarning, match="not one row fits"):
        pooled = MultiChainMHSampler(n_chains=4, n_jobs=2).estimate(graph, r, 48, seed=17)
    assert pooled.diagnostics["shared_cache"] is False
    assert pooled.diagnostics["shared_cache_stats"] is None
    assert pooled.estimate == inline.estimate


@pytest.mark.parametrize("free", [4096, 10_000, 123_457, 1 << 20])
def test_arena_segment_leaves_half_the_free_space_as_headroom(monkeypatch, free):
    """The free space is read once, before the arena's lock, the pool's
    queues or a concurrent run take pages of their own, and a tmpfs faults
    on a write past its free space: the clamp sizes the segment to at most
    half the free bytes, and to as many rows as fit there."""
    num_vertices = 20
    monkeypatch.setattr(shared_cache, "_shared_memory_free_bytes", lambda: free)
    store = create_shared_store(num_vertices, 10_000)
    try:
        rows = store.capacity
        assert shared_cache._segment_bytes(num_vertices, rows) <= free // 2
        assert shared_cache._segment_bytes(num_vertices, rows + 1) > free // 2
    finally:
        store.destroy()


def test_arena_capacity_is_unclamped_without_a_shared_memory_filesystem(monkeypatch):
    monkeypatch.setattr(shared_cache, "_shared_memory_free_bytes", lambda: None)
    store = create_shared_store(6, 5)
    try:
        assert store.capacity == 5
    finally:
        store.destroy()


def _raising_chain(*args, **kwargs):
    raise RuntimeError("chain failed mid-run")


@pytest.mark.parametrize("fails", [False, True], ids=["completes", "chain-raises"])
def test_pooled_run_leaves_no_segment_behind(graph, monkeypatch, fails):
    """The driver owns its per-run arena: the segment is unlinked when the
    run ends, also when a chain raises in a worker."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the raising chain reaches the workers by fork")
    created = []

    def recording_store(*args, **kwargs):
        store = create_shared_store(*args, **kwargs)
        created.append(store.name)
        return store

    monkeypatch.setattr(multichain, "create_shared_store", recording_store)
    if fails:
        monkeypatch.setattr(SingleSpaceMHSampler, "run_chain", _raising_chain)
    driver = MultiChainMHSampler(n_chains=2, n_jobs=2, mp_context="fork")
    if fails:
        with pytest.raises(RuntimeError, match="chain failed mid-run"):
            driver.estimate(graph, graph.vertices()[0], 32, seed=3)
    else:
        assert driver.estimate(graph, graph.vertices()[0], 32, seed=3).diagnostics[
            "shared_cache"
        ]
    assert len(created) == 1
    with pytest.raises(FileNotFoundError):
        shared_cache._attach(created[0])


def _private_chain_evaluations(sampler, graph, target, num_samples, seed, n_chains=4):
    """Brandes passes the driver's chains pay when each keeps a private oracle.

    Runs every chain on its own, on the driver's per-chain streams and
    budgets, and sums the per-chain counters — the deterministic baseline
    of a pooled run whose workers could not share an arena.
    """
    rng = ensure_rng(seed)
    streams = [spawn_rng(rng, i) for i in range(n_chains)]
    return sum(
        sampler.run_chain(graph, target, budget, seed=stream).evaluations
        for stream, budget in zip(streams, split_budget(num_samples, n_chains))
    )


def test_shared_cache_deduplicates_passes_across_workers(graph):
    """The receipt property at test scale: total Brandes passes across
    workers collapse toward the run's unique-source count."""
    r = graph.vertices()[0]
    # n_jobs=1 shares one in-process oracle across all chains, so its
    # evaluation count *is* the number of unique sources the run touches.
    # It runs first on purpose: it warms the snapshot's lazy caches, which
    # forked workers inherit.  Workers that each pay that warm-up start
    # their chains together, and a chain's whole miss set (one kernel
    # block here) can then run before any worker publishes, so the shared
    # run dedups nothing.
    unique = MultiChainMHSampler(n_chains=4).estimate(graph, r, 64, seed=2)
    shared = MultiChainMHSampler(n_chains=4, n_jobs=4).estimate(graph, r, 64, seed=2)
    unique_count = unique.diagnostics["evaluations"]
    private_baseline = _private_chain_evaluations(SingleSpaceMHSampler(), graph, r, 64, 2)
    assert private_baseline > unique_count, (
        "private per-chain caches should duplicate cross-chain passes on "
        "this workload (otherwise the test graph is too small to matter)"
    )
    # Benign races (two workers missing the same source before either
    # publishes) add a schedule-dependent handful of duplicate passes; the
    # strict "<= 1.2 x unique" acceptance bound is asserted at receipt
    # scale in benchmarks/bench_e13_shared_cache.py.  Here the property is
    # strict deduplication over chains that each pay their own passes.
    assert unique_count <= shared.diagnostics["evaluations"] < private_baseline
    assert shared.estimate == unique.estimate


def test_shared_cache_joint_driver_identical_and_deduplicated(graph):
    refs = graph.vertices()[:3]
    reference = MultiChainJointSampler(
        n_chains=4
    ).estimate_relative(graph, refs, 64, seed=13)
    shared = MultiChainJointSampler(
        n_chains=4, n_jobs=2
    ).estimate_relative(graph, refs, 64, seed=13)
    assert _ratio_key(shared) == _ratio_key(reference)
    assert shared.diagnostics["shared_cache"] is True
    # The same deterministic baseline as the single-space dedup test.
    private_baseline = _private_chain_evaluations(JointSpaceMHSampler(), graph, refs, 64, 13)
    assert (
        reference.diagnostics["evaluations"]
        <= shared.diagnostics["evaluations"]
        < private_baseline
    )


def test_shared_cache_adaptive_mode_shares_across_rounds(graph):
    """The adaptive driver keeps one arena alive across its checkpointed
    rounds (each round re-forks workers; the arena is what survives)."""
    r = graph.vertices()[0]
    kwargs = dict(
        n_chains=4, rhat_target=1.2, check_interval=8
    )
    reference = MultiChainMHSampler(**kwargs).estimate(graph, r, 96, seed=21)
    shared = MultiChainMHSampler(**kwargs, n_jobs=2).estimate(graph, r, 96, seed=21)
    assert shared.estimate == reference.estimate
    assert shared.diagnostics["rounds"] == reference.diagnostics["rounds"]
    assert shared.diagnostics["shared_cache"] is True


def test_shared_cache_driver_falls_back_when_store_unavailable(graph, monkeypatch):
    """No shared memory on the platform: the run completes on private
    caches with identical results and an honest diagnostics stamp."""

    def no_store(num_vertices, capacity, **kwargs):
        warnings.warn("simulated: no shared memory", RuntimeWarning)
        return None

    monkeypatch.setattr(multichain, "create_shared_store", no_store)
    r = graph.vertices()[0]
    reference = MultiChainMHSampler(n_chains=2).estimate(
        graph, r, 32, seed=1
    )
    with pytest.warns(RuntimeWarning, match="simulated"):
        fallback = MultiChainMHSampler(n_chains=2, n_jobs=2).estimate(
            graph, r, 32, seed=1
        )
    assert fallback.estimate == reference.estimate
    assert fallback.diagnostics["shared_cache"] is False


def test_shared_cache_driver_falls_back_silently_without_shared_memory(graph, monkeypatch):
    """A platform whose ``shm_open`` is refused: like the runtime's arena,
    a pooled run checks :func:`shared_memory_available` first and proceeds
    on private caches without a warning."""
    monkeypatch.setattr(shared_cache, "_PROBE_RESULT", False)
    r = graph.vertices()[0]
    reference = MultiChainMHSampler(n_chains=2).estimate(graph, r, 32, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fallback = MultiChainMHSampler(n_chains=2, n_jobs=2).estimate(graph, r, 32, seed=1)
    assert fallback.estimate == reference.estimate
    assert fallback.diagnostics["shared_cache"] is False


def test_shared_cache_driver_validates_its_knobs():
    with pytest.raises(ConfigurationError):
        MultiChainMHSampler(n_chains=0)
    # The retired sharing knobs are not keywords of any driver.
    with pytest.raises(TypeError):
        MultiChainMHSampler(n_chains=2, shared_cache=True)
    with pytest.raises(TypeError):
        MultiChainJointSampler(n_chains=2, shared_cache_capacity=4)


# ----------------------------------------------------------------------
# API / env threading
# ----------------------------------------------------------------------


def test_shared_cache_api_threading(graph):
    r = graph.vertices()[0]
    reference = betweenness_single(
        graph, r, method="mh", samples=40, seed=9, n_chains=2
    )
    shared = betweenness_single(
        graph, r, method="mh", samples=40, seed=9, n_chains=2, n_jobs=2
    )
    assert shared.estimate == reference.estimate
    assert reference.diagnostics["shared_cache"] is False
    assert shared.diagnostics["shared_cache"] is True


def test_shared_cache_api_requires_the_multichain_driver(graph):
    """Only the multi-chain driver attaches an arena: single-chain calls run
    in one process whatever ``n_jobs`` is, and take no sharing keyword."""
    single = betweenness_single(
        graph, graph.vertices()[0], method="mh", samples=20, seed=1, n_jobs=2
    )
    relative = relative_betweenness(graph, graph.vertices()[:3], samples=20, seed=1, n_jobs=2)
    assert not single.diagnostics.get("shared_cache")
    assert not relative.diagnostics.get("shared_cache")
    with pytest.raises(TypeError):
        betweenness_single(graph, graph.vertices()[0], samples=20, shared_cache=True)
    with pytest.raises(TypeError):
        relative_betweenness(graph, graph.vertices()[:3], samples=20, shared_cache=True)


def test_shared_cache_env_never_changes_an_estimate(graph, monkeypatch):
    """``REPRO_SHARED_CACHE`` is no longer read: whatever it holds, every
    estimator returns its fixed-seed estimate and the arena follows the
    run's shape.  An earlier revision let the flag switch execution
    disciplines and silently moved fixed-seed RK/MH results."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    r = graph.vertices()[0]
    unflagged_rk = betweenness_single(graph, r, method="rk", samples=60, seed=7)
    unflagged_mh = MultiChainMHSampler(n_chains=2).estimate(graph, r, 32, seed=4)
    for value in ("1", "0", "maybe"):
        monkeypatch.setenv("REPRO_SHARED_CACHE", value)
        flagged_rk = betweenness_single(graph, r, method="rk", samples=60, seed=7)
        flagged_mh = MultiChainMHSampler(n_chains=2).estimate(graph, r, 32, seed=4)
        assert flagged_rk.estimate == unflagged_rk.estimate
        assert flagged_mh.estimate == unflagged_mh.estimate
        assert flagged_mh.diagnostics["shared_cache"] is False
