"""Tests for the persistent execution runtime.

Three layers of promises:

1. **Pool protocol** — :class:`~repro.execution.runtime.PersistentWorkerPool`
   returns shard results in order, installs each payload object exactly once
   (token-addressed reuse afterwards), follows the parent's eviction
   decisions, and never serves one request's payload to another request's
   tasks.
2. **Context** — :class:`~repro.execution.runtime.ExecutionContext` resolves
   its knobs like every other layer, memoizes payloads by key, owns a
   persistent arena stamped with the graph version (mutation invalidates),
   and pickles to ``None`` so it can never smuggle pool handles into a
   worker payload.
3. **Plan threading** — ``mp_context`` rides
   :class:`~repro.execution.ExecutionPlan` into the scheduler and the
   shared arena consistently, with the ``REPRO_MP_CONTEXT`` override.
"""

from __future__ import annotations

import pickle
import platform
import resource

import pytest

from repro.errors import ConfigurationError
from repro.execution import (
    ExecutionContext,
    ExecutionPlan,
    resolve_plan,
    run_sharded,
    split_shards,
)
from repro.execution.runtime import (
    PAYLOAD_CACHE_LIMIT,
    PersistentWorkerPool,
    default_arena_rows,
    interned_payload,
    keep_kernel_pages,
)
from repro.execution.shared_cache import shared_memory_available
from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import np
from repro.shortest_paths.batch import batch_source_dependencies


def _scale_worker(shared, shard):
    # Module-level so the pool can pickle it by reference.
    return [shared["scale"] * item for item in shard]


@pytest.fixture
def pool():
    p = PersistentWorkerPool(2)
    yield p
    p.close()


# ----------------------------------------------------------------------
# Pool protocol
# ----------------------------------------------------------------------


class TestPersistentWorkerPool:
    def test_results_arrive_in_shard_order(self, pool):
        shards = split_shards(list(range(10)), 3)
        out = pool.run(_scale_worker, shards, {"scale": 2})
        assert out == [[0, 2, 4], [6, 8, 10], [12, 14, 16], [18]]

    def test_payload_installed_once_across_calls(self, pool):
        payload = {"scale": 3}
        shards = split_shards(list(range(4)), 2)
        first = pool.run(_scale_worker, shards, payload)
        second = pool.run(_scale_worker, shards, payload)
        assert first == second == [[0, 3], [6, 9]]
        assert pool.installs == 1
        assert pool.payload_token(payload) == 0

    def test_new_payload_objects_install_separately(self, pool):
        shards = split_shards(list(range(4)), 2)
        pool.run(_scale_worker, shards, {"scale": 1})
        pool.run(_scale_worker, shards, {"scale": 1})  # equal value, new object
        assert pool.installs == 2

    def test_interleaved_payloads_never_leak_across_requests(self, pool):
        """The leakage check: one pool, alternating requests with different
        payloads — every task must be answered from its own request's
        payload, not whatever was installed last."""
        a, b = {"scale": 2}, {"scale": 10}
        shards = split_shards(list(range(6)), 2)
        for _ in range(3):
            assert pool.run(_scale_worker, shards, a) == [[0, 2], [4, 6], [8, 10]]
            assert pool.run(_scale_worker, shards, b) == [[0, 10], [20, 30], [40, 50]]
        # Both payloads installed exactly once despite the interleaving.
        assert pool.installs == 2

    def test_eviction_is_lru_not_fifo(self, pool):
        """A hot payload (the interned graph snapshot) must survive a
        churn of one-shot payloads: reuse refreshes its recency, so only
        the genuinely cold entries fall out."""
        hot = {"scale": 100}
        shards = [[1]]
        pool.run(_scale_worker, shards, hot)  # installed first
        for i in range(PAYLOAD_CACHE_LIMIT - 1):
            pool.run(_scale_worker, shards, {"scale": i})
            pool.run(_scale_worker, shards, hot)  # touched every round
        # One more install fills past the limit: the oldest *unused*
        # payload is evicted, never the hot one.
        pool.run(_scale_worker, shards, {"scale": 999})
        assert pool.payload_token(hot) is not None
        before = pool.installs
        assert pool.run(_scale_worker, shards, hot) == [[100]]
        assert pool.installs == before  # no re-broadcast of the hot payload

    def test_eviction_follows_parent_decisions(self, pool):
        shards = [[1]]
        payloads = [{"scale": i} for i in range(PAYLOAD_CACHE_LIMIT + 2)]
        for payload in payloads:
            assert pool.run(_scale_worker, shards, payload) == [[payload["scale"]]]
        # The oldest payloads fell out of the parent memo...
        assert pool.payload_token(payloads[0]) is None
        assert pool.payload_token(payloads[1]) is None
        # ...and re-running one re-installs (workers dropped it too, so the
        # fresh token must resolve — a drifted worker cache would KeyError).
        before = pool.installs
        assert pool.run(_scale_worker, shards, payloads[0]) == [[0]]
        assert pool.installs == before + 1

    def test_failed_broadcast_loses_no_eviction_bookkeeping(self, pool):
        payloads = [{"scale": i} for i in range(PAYLOAD_CACHE_LIMIT)]
        for payload in payloads:
            pool.run(_scale_worker, [[1]], payload)
        installed_before = dict(pool._installed)

        def boom(*args, **kwargs):
            raise RuntimeError("simulated broadcast failure")

        real_map = pool._pool.map
        pool._pool.map = boom
        with pytest.raises(RuntimeError, match="simulated"):
            pool.ensure_payload({"scale": 999})
        pool._pool.map = real_map
        # Nothing was half-forgotten: the memo is exactly as before, so a
        # retry re-decides (and re-broadcasts) the same evictions.
        assert dict(pool._installed) == installed_before
        assert pool.run(_scale_worker, [[1]], {"scale": 999}) == [[999]]

    def test_pool_refuses_pickling(self, pool):
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(pool)

    def test_closed_pool_raises(self):
        p = PersistentWorkerPool(2)
        p.close()
        p.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            p.run(_scale_worker, [[1]], {"scale": 1})

    def test_validates_process_count(self):
        with pytest.raises(ConfigurationError):
            PersistentWorkerPool(0)


# ----------------------------------------------------------------------
# run_sharded provider selection
# ----------------------------------------------------------------------


class TestRunShardedProviders:
    def test_runtime_routes_through_persistent_pool(self):
        with ExecutionContext(n_jobs=2) as ctx:
            shards = split_shards(list(range(6)), 2)
            payload = {"scale": 4}
            out = run_sharded(_scale_worker, shards, n_jobs=2, shared=payload, runtime=ctx)
            assert out == [[0, 4], [8, 12], [16, 20]]
            assert ctx.worker_pool().installs == 1
            # Second call through a plan carrying the runtime: same pool.
            plan = ExecutionPlan(n_jobs=2, runtime=ctx)
            out2 = run_sharded(_scale_worker, shards, n_jobs=2, shared=payload, plan=plan)
            assert out2 == out
            assert ctx.worker_pool().installs == 1

    def test_broken_pool_degrades_to_ephemeral_fallback(self):
        """A pool that breaks mid-session (worker death surfaces as a
        RuntimeError from the install/token protocol) must not poison the
        context: later calls fall back to run_sharded's own paths."""
        with ExecutionContext(n_jobs=2) as ctx:
            pool = ctx.worker_pool()

            def boom(fn, shards, payload):
                raise RuntimeError("simulated worker death")

            pool.run = boom
            with pytest.warns(RuntimeWarning, match="falls back to per-call"):
                assert ctx.map_sharded(_scale_worker, [[1], [2]], {"scale": 2}) is None
            # The context degraded permanently; run_sharded's ephemeral
            # path answers and results are unchanged.
            out = run_sharded(
                _scale_worker, [[1], [2]], n_jobs=2, shared={"scale": 2}, runtime=ctx
            )
            assert out == [[2], [4]]
            assert ctx.stats()["pool_active"] is False

    def test_inline_context_falls_through(self):
        with ExecutionContext(n_jobs=1) as ctx:
            out = run_sharded(
                _scale_worker, [[1], [2]], n_jobs=1, shared={"scale": 5}, runtime=ctx
            )
            assert out == [[5], [10]]
            assert ctx.worker_pool() is None

    def test_single_shard_stays_inline_even_with_runtime(self):
        with ExecutionContext(n_jobs=2) as ctx:
            out = run_sharded(
                _scale_worker, [[1, 2]], n_jobs=2, shared={"scale": 2}, runtime=ctx
            )
            assert out == [[2, 4]]
            # No pool was needed for a single shard.
            assert ctx.stats()["pool_active"] is False


# ----------------------------------------------------------------------
# ExecutionContext
# ----------------------------------------------------------------------


class TestExecutionContext:
    def test_jobs_resolution_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        ctx = ExecutionContext()
        assert ctx.n_jobs == 3
        ctx.close()

    def test_invalid_mp_context_rejected(self):
        with pytest.raises(ConfigurationError, match="start method"):
            ExecutionContext(mp_context="bogus")

    def test_invalid_arena_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="arena_capacity"):
            ExecutionContext(arena_capacity=0)

    def test_cached_payload_returns_same_object(self):
        with ExecutionContext() as ctx:
            first = ctx.cached_payload("key", lambda: {"built": 1})
            second = ctx.cached_payload("key", lambda: {"built": 2})
            assert first is second

    def test_interned_payload_helper(self):
        assert interned_payload(ExecutionPlan(), "k", lambda: 41) == 41
        plan = ExecutionPlan(n_jobs=2)  # no runtime attached
        assert interned_payload(plan, "k", lambda: 42) == 42
        with ExecutionContext() as ctx:
            plan = ExecutionPlan(n_jobs=2, runtime=ctx)
            a = interned_payload(plan, "k", lambda: {"x": 1})
            b = interned_payload(plan, "k", lambda: {"x": 2})
            assert a is b

    def test_context_pickles_to_none(self):
        with ExecutionContext(n_jobs=2) as ctx:
            assert pickle.loads(pickle.dumps(ctx)) is None

    def test_closed_context_raises(self):
        ctx = ExecutionContext()
        ctx.close()
        ctx.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            ctx.cached_payload("k", dict)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's allocator")
    def test_context_keeps_kernel_pages_between_passes(self):
        # A kernel block's dense temporaries (256 KB each here) stay on the
        # heap once a context exists, so repeated passes fault no pages in;
        # without it a fresh process faults about 600 pages a pass.
        csr = barabasi_albert_graph(2000, 3, seed=1).csr()
        with ExecutionContext():
            assert keep_kernel_pages()
            batch_source_dependencies(csr, range(16))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                batch_source_dependencies(csr, range(16))
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 5 * 60

    def test_default_arena_rows_scales_with_graph(self):
        assert default_arena_rows(10) == 10  # small graphs: every source a row
        big = default_arena_rows(10_000_000)
        assert 1 <= big < 10_000_000  # byte budget caps huge graphs


@pytest.mark.skipif(
    not shared_memory_available(),
    reason="the persistent arena requires working shared memory",
)
class TestPersistentArena:
    def test_arena_survives_across_calls_and_stamps_version(self):
        graph = barabasi_albert_graph(30, 2, seed=1)
        with ExecutionContext() as ctx:
            arena = ctx.dependency_arena(graph)
            assert arena is not None
            assert arena.capacity == 30
            assert ctx.dependency_arena(graph) is arena  # same graph version

    def test_mutation_invalidates_arena_and_payload_memo(self):
        graph = barabasi_albert_graph(30, 2, seed=1)
        with ExecutionContext() as ctx:
            arena = ctx.dependency_arena(graph)
            for i in range(30):
                arena.put(i, np.full(30, float(i)))
            payload = ctx.cached_payload("p", lambda: {"stale": True})
            graph.add_edge(0, 29)
            fresh = ctx.dependency_arena(graph)
            receipt = ctx.last_invalidation
            assert receipt.mode == "delta", receipt.reason
            # Row-level eviction: the arena survives, the affected rows go.
            assert fresh is arena
            assert 2 <= receipt.arena_rows_evicted < 30
            assert fresh.published() == 30 - receipt.arena_rows_evicted
            csr = graph.csr()
            assert fresh.get(csr.index_of(0)) is None
            assert fresh.get(csr.index_of(29)) is None
            # Payloads embed whole-graph snapshots: the memo is rebuilt.
            assert ctx.cached_payload("p", lambda: {"stale": False}) is not payload

    def test_different_graph_object_invalidates_even_with_equal_shape(self):
        """The stamp holds the graph by reference: a *different* graph
        object — even one with the same vertex count and version, as a
        recycled id after GC would present — must never be served the
        previous graph's arena."""
        g1 = barabasi_albert_graph(30, 2, seed=1)
        g2 = barabasi_albert_graph(30, 2, seed=2)
        assert g1.version == g2.version
        with ExecutionContext() as ctx:
            arena1 = ctx.dependency_arena(g1)
            arena1.put(0, np.zeros(30))
            arena2 = ctx.dependency_arena(g2)
            assert arena2 is not arena1
            assert arena2.published() == 0

    def test_explicit_capacity_respected_and_clamped(self):
        graph = barabasi_albert_graph(30, 2, seed=1)
        with ExecutionContext(arena_capacity=7) as ctx:
            assert ctx.dependency_arena(graph).capacity == 7
        with ExecutionContext(arena_capacity=10_000) as ctx:
            assert ctx.dependency_arena(graph).capacity == 30  # clamped to |V|

    def test_close_destroys_arena(self):
        graph = barabasi_albert_graph(20, 2, seed=1)
        ctx = ExecutionContext()
        arena = ctx.dependency_arena(graph)
        name = arena.name
        ctx.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# mp_context knob threading
# ----------------------------------------------------------------------


class TestMpContextKnob:
    def test_plan_validates_start_method(self):
        with pytest.raises(ConfigurationError, match="start method"):
            ExecutionPlan(mp_context="bogus")
        assert ExecutionPlan(mp_context="spawn").mp_context == "spawn"

    def test_env_override(self, monkeypatch):
        assert resolve_plan(None).mp_context is None
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        assert resolve_plan(None).mp_context == "spawn"
        assert resolve_plan(None, mp_context="fork").mp_context == "fork"  # explicit wins
        monkeypatch.setenv("REPRO_MP_CONTEXT", "bogus")
        with pytest.raises(ConfigurationError, match="start method"):
            resolve_plan(None)

    def test_resolve_plan_fills_mp_context(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        assert resolve_plan(None).mp_context == "spawn"
        assert resolve_plan(None, n_jobs=2).mp_context == "spawn"


# ----------------------------------------------------------------------
# shared_memory_available memoization (satellite)
# ----------------------------------------------------------------------


class TestSharedMemoryProbeMemo:
    def test_probe_runs_once(self, monkeypatch):
        import repro.execution.shared_cache as shared_cache

        calls = []
        real_probe = shared_cache._probe_shared_memory

        def counting_probe():
            calls.append(1)
            return real_probe()

        monkeypatch.setattr(shared_cache, "_probe_shared_memory", counting_probe)
        monkeypatch.setattr(shared_cache, "_PROBE_RESULT", None)
        first = shared_cache.shared_memory_available()
        second = shared_cache.shared_memory_available()
        assert first == second
        assert len(calls) == 1
        shared_cache.shared_memory_available(refresh=True)
        assert len(calls) == 2

    def test_memo_never_overrides_missing_preconditions(self, monkeypatch):
        import repro.execution.shared_cache as shared_cache

        monkeypatch.setattr(shared_cache, "_PROBE_RESULT", True)
        monkeypatch.setattr(shared_cache, "_shared_memory", None)
        assert not shared_cache.shared_memory_available()
