"""Persistent execution runtime: reusable worker pool + warm cross-request state.

Every estimator call through :func:`repro.execution.scheduler.run_sharded`
historically paid full cold-start: a :mod:`multiprocessing` pool was created
and destroyed per invocation, the read-only payload (graph or CSR snapshot)
was re-shipped to every fresh worker, and the cross-process dependency arena
of :mod:`repro.execution.shared_cache` lived for exactly one run.  That is
the right default for one-shot scripts — nothing leaks, nothing outlives the
call — but it is the wrong shape for serving many queries against one graph,
where the pool, the shipped snapshot and the computed dependency vectors are
all reusable.

This module provides the *warm* execution path:

* :class:`PersistentWorkerPool` — a pool provider that keeps its worker
  processes alive across :func:`run_sharded` calls.  Large read-only
  payloads are **installed** once per payload (a barrier-synchronised
  broadcast reaches every worker exactly once) and later calls reference
  them by an integer token, so the CSR snapshot crosses the process
  boundary once instead of once per request.  Installed payloads are also
  how per-worker caches (the multi-chain drivers' dependency oracles) stay
  warm between requests.
* :class:`ExecutionContext` — the session-scoped owner of one persistent
  pool, one process-shared lock, a payload memo (so callers can reuse — and
  therefore avoid re-installing — payload objects across requests) and one
  *persistent* :class:`~repro.execution.shared_cache.SharedDependencyStore`
  arena guarded by a graph-version stamp: a dependency vector computed for
  query 1 is a cache hit for queries 2..N, and any graph mutation
  invalidates the arena and every interned payload.

Determinism contract
--------------------
The runtime never changes a result.  ``run_sharded`` keeps its shard
boundaries and ordered merge whatever pool executes the shards; dependency
vectors are bit-identical per source however and wherever they are computed
(the PR 2 kernel contract), so serving one from a warm arena or a warm
worker cache equals recomputing it; and per-request rng streams are derived
from the request's seed, never from context state.  Warm results are
therefore bit-identical to the cold per-call path at a fixed seed — the
receipt is ``benchmarks/bench_e14_session.py``.

Process plumbing
----------------
A process-shared lock may only cross into a worker while the worker is
being set up, never through a task queue.  The persistent pool therefore
owns **one** lock (shipped through the pool initializer) and the payload
broadcast pickles any reference to that lock as a persistent id that the
worker resolves to its own copy — which is how a
:class:`~repro.execution.shared_cache.SharedDependencyStore` handle (whose
guarding lock is the context's lock by construction) can ride inside an
installed payload.  :class:`ExecutionContext` itself deliberately pickles
to ``None``: a context captured inside a payload (say, on a sampler the
payload embeds) must never drag pool handles across the boundary, and a
worker holding ``runtime=None`` simply runs inline — the correct behaviour
inside a worker.
"""

from __future__ import annotations

import io
import multiprocessing
import pickle
import threading
import warnings
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.execution.plan import resolve_plan
from repro.execution.shared_cache import (
    SharedDependencyStore,
    create_shared_store,
    shared_memory_available,
)
from repro.graphs.core import Graph
from repro.graphs.shared import (
    SharedCSRGraph,
    create_shared_graph,
    ensure_shared_graph,
    shared_graph_available,
)

__all__ = [
    "ExecutionContext",
    "PersistentWorkerPool",
    "interned_payload",
    "graph_snapshot",
    "plan_snapshot",
    "DEFAULT_ARENA_BYTES",
    "default_arena_rows",
]

#: Upper bound on payloads kept installed per pool (and memoized per
#: context).  Payloads embed graph snapshots, so the bound caps worker
#: memory; eviction is broadcast with the install that caused it, keeping
#: parent and worker caches in lockstep.
PAYLOAD_CACHE_LIMIT = 8

#: Default byte budget of the persistent dependency arena.  Chosen to fit
#: comfortably inside the 64 MiB ``/dev/shm`` of a default Docker container;
#: :func:`default_arena_rows` converts it into ``(rows, n)`` shapes.
DEFAULT_ARENA_BYTES = 48 * 1024 * 1024

#: Seconds every worker waits on the install barrier before declaring the
#: broadcast broken (a worker died mid-install).
_INSTALL_TIMEOUT = 60.0

#: Persistent id under which the context's process-shared lock travels
#: inside installed payloads (resolved to the worker's own copy on load).
_LOCK_PID = "repro-runtime-shared-lock"


def default_arena_rows(num_vertices: int, budget: int = DEFAULT_ARENA_BYTES) -> int:
    """Return the default arena capacity (rows) for an *num_vertices*-graph.

    Each row costs ``8 * n`` bytes, so the row count adapts to the graph:
    small graphs get every source a row (capacity ``n`` — overflow
    impossible), large graphs get as many rows as the byte budget allows
    (at least one; a full arena degrades to private caches, never breaks).
    """
    if num_vertices < 1:
        return 1
    return max(1, min(num_vertices, budget // (8 * num_vertices)))


# ----------------------------------------------------------------------
# Worker-side state (one copy per persistent worker process)
# ----------------------------------------------------------------------

_WORKER_BARRIER: Any = None
_WORKER_LOCK: Any = None
_WORKER_PAYLOADS: "OrderedDict[int, Any]" = OrderedDict()


def _init_persistent_worker(barrier, lock) -> None:
    global _WORKER_BARRIER, _WORKER_LOCK
    _WORKER_BARRIER = barrier
    _WORKER_LOCK = lock
    _WORKER_PAYLOADS.clear()


class _PayloadPickler(pickle.Pickler):
    """Pickler that ships the pool's shared lock as a persistent id."""

    def __init__(self, buffer, lock) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared_lock = lock

    def persistent_id(self, obj):
        if self._shared_lock is not None and obj is self._shared_lock:
            return _LOCK_PID
        return None


class _PayloadUnpickler(pickle.Unpickler):
    """Unpickler that resolves the lock persistent id to the worker's copy."""

    def persistent_load(self, pid):
        if pid == _LOCK_PID:
            if _WORKER_LOCK is None:
                raise pickle.UnpicklingError(
                    "payload references the runtime's shared lock but this "
                    "process is not a persistent-pool worker"
                )
            return _WORKER_LOCK
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def _dumps_payload(payload, lock) -> bytes:
    buffer = io.BytesIO()
    _PayloadPickler(buffer, lock).dump(payload)
    return buffer.getvalue()


def _install_payload(args) -> int:
    """Worker: install one broadcast payload under its token.

    Exactly ``processes`` copies of this task are submitted with
    ``chunksize=1`` and every copy blocks on the pool barrier, so no worker
    can take a second copy before every worker holds one — the broadcast
    reaches each worker exactly once.  *evicted* tokens are dropped here so
    the worker cache follows the parent's eviction decisions (the worker
    never evicts on its own, which would let the two drift apart).
    """
    token, blob, evicted = args
    payload = _PayloadUnpickler(io.BytesIO(blob)).load()
    for old in evicted:
        _WORKER_PAYLOADS.pop(old, None)
    _WORKER_PAYLOADS[token] = payload
    try:
        _WORKER_BARRIER.wait(timeout=_INSTALL_TIMEOUT)
    except threading.BrokenBarrierError:
        raise RuntimeError(
            "persistent-pool payload broadcast failed: a worker did not reach "
            "the install barrier (worker died or is wedged)"
        )
    return token


def _run_installed(args):
    """Worker: run one shard of a task against a previously installed payload."""
    fn, token, shard = args
    try:
        payload = _WORKER_PAYLOADS[token]
    except KeyError:
        raise RuntimeError(
            f"persistent-pool worker has no payload installed under token "
            f"{token}; the install broadcast and the task stream disagree"
        )
    return fn(payload, shard)


def _reduce_to_none():
    return None


class PersistentWorkerPool:
    """A long-lived worker pool with token-addressed payload broadcast.

    The pool provider behind :class:`ExecutionContext`: worker processes are
    created once and reused by every :meth:`run` call.  Payload objects are
    deduplicated by identity — :meth:`run` with a payload the pool has seen
    ships only its integer token per task, so callers that reuse payload
    objects across requests (the context's payload memo exists for exactly
    this) pay the pickling and transfer of the graph snapshot once.

    Parameters
    ----------
    processes:
        Worker process count (>= 1).
    mp_context:
        Start-method name (``None`` = interpreter default), matching
        :attr:`repro.execution.plan.ExecutionPlan.mp_context`.
    lock:
        Optional pre-created process-shared lock (must belong to the same
        start-method context).  The pool ships it to workers through the
        initializer — the only legal channel — and substitutes any
        reference to it inside broadcast payloads with a persistent id.
    """

    def __init__(self, processes: int, *, mp_context: Optional[str] = None, lock=None) -> None:
        if not isinstance(processes, int) or processes < 1:
            raise ConfigurationError(
                f"processes must be a positive integer, got {processes!r}"
            )
        self._mp = multiprocessing.get_context(mp_context)
        self._lock = lock if lock is not None else self._mp.Lock()
        self._barrier = self._mp.Barrier(processes)
        self._processes = processes
        self._pool = self._mp.Pool(
            processes,
            initializer=_init_persistent_worker,
            initargs=(self._barrier, self._lock),
        )
        self._installed: "OrderedDict[int, Any]" = OrderedDict()
        #: Tokens dropped parent-side (LRU or invalidation) whose worker
        #: copies still need dropping; piggybacked on the next broadcast.
        self._pending_drops: List[int] = []
        self._next_token = 0
        self.installs = 0  #: number of payload broadcasts performed
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def processes(self) -> int:
        """Worker process count."""
        return self._processes

    @property
    def shared_lock(self):
        """The pool's process-shared lock (also guards the context's arena)."""
        return self._lock

    def payload_token(self, payload) -> Optional[int]:
        """Return the token *payload* is installed under, or ``None``."""
        for token, installed in self._installed.items():
            if installed is payload:
                return token
        return None

    def ensure_payload(self, payload) -> int:
        """Install *payload* on every worker (idempotent); return its token."""
        self._require_open()
        token = self.payload_token(payload)
        if token is not None:
            # Touch on reuse so eviction is genuinely LRU — without this a
            # hot payload (the interned CSR snapshot) installed first would
            # be the first evicted once the memo fills.
            self._installed.move_to_end(token)
            return token
        token = self._next_token
        self._next_token += 1
        # Pick the LRU overflow without popping yet: if the broadcast
        # fails, nothing may be half-forgotten (a popped token absent from
        # _pending_drops would leak its worker-side copy forever).
        overflow: List[int] = []
        excess = len(self._installed) + 1 - PAYLOAD_CACHE_LIMIT
        if excess > 0:
            overflow = list(self._installed)[:excess]
        evicted = list(self._pending_drops) + overflow
        blob = _dumps_payload(payload, self._lock)
        self._pool.map(
            _install_payload,
            [(token, blob, tuple(evicted))] * self._processes,
            chunksize=1,
        )
        for old in overflow:
            self._installed.pop(old, None)
        self._pending_drops.clear()
        self._installed[token] = payload
        self.installs += 1
        return token

    def invalidate_payloads(self) -> None:
        """Forget every installed payload (graph mutated: all are stale).

        Worker copies are dropped lazily — the tokens ride the next
        install's eviction list — which is safe because a forgotten token
        can never be referenced again: tasks only carry tokens the parent
        memo just resolved.
        """
        self._pending_drops.extend(self._installed.keys())
        self._installed.clear()

    def run(self, fn: Callable[[Any, Any], Any], shards: Sequence[Any], payload) -> List[Any]:
        """Run ``fn(payload, shard)`` over *shards*; results in shard order.

        The persistent twin of the ephemeral pool path in
        :func:`repro.execution.scheduler.run_sharded` — same worker
        signature, same ``chunksize=1`` task grain, same ordered results.
        """
        self._require_open()
        token = self.ensure_payload(payload)
        return self._pool.map(
            _run_installed, [(fn, token, shard) for shard in shards], chunksize=1
        )

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the persistent worker pool has been closed")

    def close(self) -> None:
        """Terminate the workers and drop every installed payload."""
        if self._closed:
            return
        self._closed = True
        self._pool.terminate()
        self._pool.join()
        self._installed.clear()

    def __reduce__(self):
        raise TypeError(
            "PersistentWorkerPool cannot be pickled; it owns live worker "
            "processes (route payloads through ExecutionContext instead)"
        )


class ExecutionContext:
    """Session-scoped owner of the warm execution state.

    One context bundles everything worth keeping hot between requests
    against one graph:

    * a lazily created :class:`PersistentWorkerPool` of ``n_jobs`` workers
      (``n_jobs <= 1`` keeps everything inline — the context still provides
      the arena and the payload memo);
    * a **payload memo** (:meth:`cached_payload`) returning the same payload
      object for the same key, which is what lets the pool dedupe installs
      across requests;
    * a **persistent dependency arena** (:meth:`dependency_arena`) — one
      :class:`~repro.execution.shared_cache.SharedDependencyStore` stamped
      with ``(id(graph), graph.version)``; any mutation of the graph
      invalidates the arena *and* the payload memo on the next call, so
      stale vectors or snapshots can never serve a request.

    The context never changes results (see the module docstring); it only
    changes where and how often setup and Brandes passes are paid.  Use it
    as a context manager, or call :meth:`close` — worker processes and the
    shared-memory segment are real resources.

    Parameters
    ----------
    n_jobs:
        Worker processes (``None`` consults ``REPRO_JOBS``; resolved once).
    mp_context:
        Pool start method (``None`` consults ``REPRO_MP_CONTEXT``).
    arena_capacity:
        Rows of the persistent arena (``None`` = the
        :func:`default_arena_rows` byte-budget heuristic).
    """

    def __init__(
        self,
        *,
        n_jobs: Optional[int] = None,
        mp_context: Optional[str] = None,
        arena_capacity: Optional[int] = None,
        invalidation: Optional[str] = None,
    ) -> None:
        from repro.incremental import resolve_invalidation

        plan = resolve_plan(None, n_jobs=n_jobs, mp_context=mp_context)
        self.n_jobs = plan.n_jobs
        self.mp_context = plan.mp_context
        #: How graph mutations are consumed: ``"delta"`` reads the change
        #: journal and retains unaffected arena rows, ``"full"`` keeps the
        #: legacy destroy-everything protocol (``None`` consults
        #: ``REPRO_INVALIDATION``; result-identical either way).
        self.invalidation = resolve_invalidation(invalidation)
        if arena_capacity is not None and (
            not isinstance(arena_capacity, int)
            or isinstance(arena_capacity, bool)
            or arena_capacity < 1
        ):
            raise ConfigurationError(
                f"arena_capacity must be a positive integer or None, got {arena_capacity!r}"
            )
        self._mp = multiprocessing.get_context(self.mp_context)
        self._arena_capacity = arena_capacity
        self._lock = None
        self._pool: Optional[PersistentWorkerPool] = None
        self._pool_failed = False
        self._arena: Optional[SharedDependencyStore] = None
        self._arena_attempted = False
        self._shared_graph: Optional[SharedCSRGraph] = None
        self._shared_graph_attempted = False
        # The graph the warm state was built against, held by reference:
        # identity comparison (not id()) because a recycled id after GC
        # could otherwise validate a stale arena against a different graph.
        self._stamped_graph: Optional[Graph] = None
        self._stamped_version: Optional[int] = None
        self._payloads: "OrderedDict[Any, Any]" = OrderedDict()
        # Receipt + affected mask of the most recent invalidation (read by
        # the session layer to scope its own oracle/chain eviction).
        self._last_receipt = None
        self._last_affected = None
        #: Lifetime Brandes-pass count reported through :meth:`record_passes`
        #: by whoever drives the context (the session layer after each
        #: query).  Survives graph mutation — it is work accounting, not
        #: graph state — so observability counters built on it are monotone.
        self._brandes_passes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Pool
    # ------------------------------------------------------------------
    def _shared_lock(self):
        if self._lock is None:
            self._lock = self._mp.Lock()
        return self._lock

    def worker_pool(self) -> Optional[PersistentWorkerPool]:
        """Return the persistent pool, creating it lazily; ``None`` when inline.

        Pool creation failures (sandboxes that refuse to fork) degrade to
        ``None`` with a warning, exactly like the ephemeral scheduler path —
        every later call runs inline, results unchanged.
        """
        self._require_open()
        if self.n_jobs <= 1 or self._pool_failed:
            return None
        if self._pool is None:
            try:
                self._pool = PersistentWorkerPool(
                    self.n_jobs, mp_context=self.mp_context, lock=self._shared_lock()
                )
            except (OSError, PermissionError) as exc:  # pragma: no cover - platform dependent
                warnings.warn(
                    f"persistent worker pool unavailable ({exc}); the context "
                    "runs every request inline",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._pool_failed = True
                return None
        return self._pool

    def map_sharded(self, fn, shards, shared) -> Optional[List[Any]]:
        """Scheduler hook: run the shards on the persistent pool.

        Returns ``None`` when the context has no usable pool (inline
        configuration, pool-creation failure, or a pool that broke
        mid-session), in which case
        :func:`~repro.execution.scheduler.run_sharded` falls back to its
        own paths.  A broken pool — a worker died and the install
        protocol's barrier or token bookkeeping reported it as a
        :class:`RuntimeError` — is torn down and every later call degrades
        to per-call pools: the same graceful-degradation contract as a
        creation failure, and safe to retry because shard work is
        side-effect-free (arena puts are idempotent fill-once rows).
        """
        pool = self.worker_pool()
        if pool is None:
            return None
        try:
            return pool.run(fn, shards, shared)
        except RuntimeError as exc:
            warnings.warn(
                f"persistent worker pool failed ({exc}); the context falls "
                "back to per-call pools",
                RuntimeWarning,
                stacklevel=2,
            )
            pool.close()
            self._pool = None
            self._pool_failed = True
            return None

    # ------------------------------------------------------------------
    # Payload memo
    # ------------------------------------------------------------------
    def cached_payload(self, key, factory: Callable[[], Any]):
        """Return the memoized payload for *key*, building it via *factory* once.

        The point is object identity across requests: the persistent pool
        dedupes installs by payload identity, so two requests that obtain
        their payload through the same key ship the underlying snapshot to
        the workers once.  Keys should include the graph's version stamp so
        a mutated graph can never resurrect a stale payload.
        """
        self._require_open()
        payload = self._payloads.get(key)
        if payload is None:
            payload = factory()
            self._payloads[key] = payload
            while len(self._payloads) > PAYLOAD_CACHE_LIMIT:
                self._payloads.popitem(last=False)
        else:
            self._payloads.move_to_end(key)
        return payload

    # ------------------------------------------------------------------
    # Graph-version tracking + persistent arena
    # ------------------------------------------------------------------
    def refresh(self, graph: Graph):
        """Re-stamp the context against *graph*, invalidating warm state on change.

        Called at the top of every request (the session API does it; direct
        users should too when the graph may have been mutated).  Returns the
        :class:`~repro.incremental.InvalidationReceipt` describing what the
        call did:

        * ``noop`` — same graph, same version: nothing touched.
        * ``delta`` — same graph, version advanced, and the change journal
          proved an affected-source region: only the affected arena rows
          are tombstoned (:meth:`SharedDependencyStore.invalidate_sources`)
          while the rest keep serving; the payload memo and worker installs
          are still cleared (payloads embed whole-graph snapshots) and the
          shared-graph segment is rebuilt lazily.
        * ``full`` — a different graph object, journal overflow, a fallback
          case of :func:`~repro.incremental.affected_sources`, or
          ``invalidation="full"``: the legacy path, destroying the arena and
          every interned payload (``receipt.reason`` says why).

        The worker pool survives in every mode: its processes hold no graph
        state beyond the payloads, which the memo clearing guarantees are
        rebuilt (under fresh tokens) for the new stamp.  Either way the
        over-approximation contract of :mod:`repro.incremental` holds, so
        the mode can never change a result — only how warm the next request
        starts.
        """
        from repro.incremental import InvalidationReceipt

        self._require_open()
        old_graph = self._stamped_graph
        old_version = self._stamped_version
        if old_graph is None or (old_graph is graph and old_version == graph.version):
            receipt = InvalidationReceipt(
                mode="noop", version_from=graph.version, version_to=graph.version
            )
        elif old_graph is not graph:
            self._invalidate_graph_state()
            self._last_affected = None
            receipt = InvalidationReceipt(
                mode="full",
                reason="graph-replaced",
                version_from=old_version if old_version is not None else -1,
                version_to=graph.version,
            )
        else:
            receipt = self._consume_delta(graph, old_version)
        self._stamped_graph = graph
        # Stamp the *settled* version: inside an open batch_mutations()
        # block the batch's version is still accumulating journal records,
        # and stamping it would make the post-batch refresh see
        # version == stamp and silently retain warm state the rest of the
        # batch invalidated.  The settled (pre-batch) stamp keeps the
        # window pending — each sync re-consumes it, which is idempotent.
        self._stamped_version = graph.settled_version()
        self._last_receipt = receipt
        return receipt

    def _consume_delta(self, graph: Graph, old_version: int):
        """Scope the invalidation of a same-graph version change via the journal."""
        from repro.incremental import InvalidationReceipt, affected_sources

        receipt = InvalidationReceipt(
            mode="full", version_from=old_version, version_to=graph.version
        )
        region = None
        new_csr = None
        if self.invalidation != "delta":
            receipt.reason = "disabled"
        else:
            deltas = graph.journal_since(old_version)
            if deltas is None:
                receipt.reason = "journal-overflow"
            else:
                new_csr = graph.csr()
                region = affected_sources(new_csr, deltas)
                if region.everything:
                    receipt.reason = region.reason
                    region = None
        if region is None:
            self._invalidate_graph_state()
            self._last_affected = None
            return receipt
        receipt.mode = "delta"
        receipt.affected_sources = region.count()
        receipt.total_sources = new_csr.number_of_vertices()
        receipt.touched_endpoints = len(region.endpoints)
        receipt.payload_entries_evicted = len(self._payloads)
        if self._arena is not None:
            receipt.arena_rows_evicted = self._arena.invalidate_sources(
                region.indices()
            )
            receipt.arena_rows_retained = self._arena.published()
            # Tombstones spend capacity that eviction never returns, so a
            # long-running serving session under sustained delta-mode
            # mutations would otherwise grind the arena down to a
            # permanent "full" while published() stays small.  Compact
            # once eviction has consumed over half the arena, and also
            # whenever the arena is full with any tombstones at all — a
            # full arena refuses re-publication of the rows just evicted,
            # so without reclamation the same small affected set stays
            # permanently cold while tombstones never reach the half-way
            # threshold.
            stats = self._arena.stats()
            if stats["tombstoned"] and (
                stats["full"] or stats["tombstoned"] > self._arena.capacity // 2
            ):
                receipt.arena_rows_compacted = self._arena.compact()
        # Payloads embed whole-graph snapshots (and worker-side installs
        # mirror them), so they are always rebuilt; the shared-graph
        # segment likewise packs the old CSR arrays and is re-created
        # lazily from the patched/rebuilt snapshot.
        self._payloads.clear()
        if self._pool is not None:
            self._pool.invalidate_payloads()
        if self._shared_graph is not None:
            self._shared_graph.destroy()
        self._shared_graph = None
        self._shared_graph_attempted = False
        self._last_affected = region.mask
        return receipt

    @property
    def last_invalidation(self):
        """The receipt of the most recent :meth:`refresh` (``None`` before any)."""
        return self._last_receipt

    def last_affected_mask(self):
        """Boolean per-source mask of the last delta-mode invalidation.

        ``None`` unless the most recent refresh took the delta path; the
        session layer reads it (immediately after :meth:`refresh`, under
        its own serialization) to scope oracle-cache eviction and MH-chain
        continuation to the same region the arena eviction used.
        """
        return self._last_affected

    def _invalidate_graph_state(self) -> None:
        if self._arena is not None:
            self._arena.destroy()
        self._arena = None
        self._arena_attempted = False
        if self._shared_graph is not None:
            self._shared_graph.destroy()
        self._shared_graph = None
        self._shared_graph_attempted = False
        self._payloads.clear()
        if self._pool is not None:
            # Payloads handed to the pool *by identity* (a mutable graph
            # passed straight through run_sharded) would otherwise keep
            # their token and the workers their stale pickled copy.
            self._pool.invalidate_payloads()

    def dependency_arena(
        self, graph: Graph, *, capacity: Optional[int] = None
    ) -> Optional[SharedDependencyStore]:
        """Return the persistent dependency arena for *graph* (or ``None``).

        Created on first use and reused by every later request against the
        same graph version; a vector any request publishes is a hit for all
        subsequent ones.  ``None`` on platforms without working shared
        memory, for empty graphs, or after a creation failure (each request
        then runs with private caches — correct, just colder).
        """
        self._require_open()
        self.refresh(graph)
        if self._arena_attempted:
            return self._arena
        self._arena_attempted = True
        n = graph.number_of_vertices()
        if n < 1 or not shared_memory_available():
            return None
        rows = capacity if capacity is not None else self._arena_capacity
        if rows is None:
            rows = default_arena_rows(n)
        self._arena = create_shared_store(
            n, min(rows, n), context=self._mp, lock=self._shared_lock()
        )
        return self._arena

    def shared_graph(self, graph: Graph) -> Optional[SharedCSRGraph]:
        """Return the persistent shared-memory CSR snapshot of *graph* (or ``None``).

        The graph-payload twin of :meth:`dependency_arena`: created once per
        ``(id(graph), graph.version)`` stamp, reused by every later request,
        destroyed on mutation (via :meth:`refresh`) and on :meth:`close` —
        exactly alongside the dependency arena.  ``None`` on platforms
        without working shared memory or after a creation failure; callers
        degrade to shipping the plain pickled snapshot.
        """
        self._require_open()
        self.refresh(graph)
        if self._shared_graph_attempted:
            return self._shared_graph
        self._shared_graph_attempted = True
        if not shared_graph_available():
            return None
        self._shared_graph = create_shared_graph(graph.csr(), version=graph.version)
        return self._shared_graph

    # ------------------------------------------------------------------
    # Lifecycle + diagnostics
    # ------------------------------------------------------------------
    def record_passes(self, count: int) -> None:
        """Add *count* Brandes passes to the context's lifetime work counter.

        The serving layer's observability hook: the session reports each
        query's evaluation count here, and :meth:`stats` exposes the running
        total, so a metrics exporter can read pass counters and arena
        occupancy from one place.  Monotone by construction (negative or
        bogus counts are ignored rather than corrupting the series).
        """
        if isinstance(count, int) and not isinstance(count, bool) and count > 0:
            self._brandes_passes += count

    def stats(self) -> Dict[str, object]:
        """Return a diagnostics stamp of the warm state (for result payloads)."""
        arena = self._arena.stats() if self._arena is not None else None
        occupancy = None
        if arena is not None and arena.get("capacity"):
            occupancy = arena["published"] / arena["capacity"]
        return {
            "n_jobs": self.n_jobs,
            "mp_context": self.mp_context,
            "pool_active": self._pool is not None,
            "pool_processes": self._pool.processes if self._pool is not None else 0,
            "payload_installs": self._pool.installs if self._pool is not None else 0,
            "cached_payloads": len(self._payloads),
            "brandes_passes": self._brandes_passes,
            "invalidation": self.invalidation,
            "last_invalidation": (
                self._last_receipt.as_dict() if self._last_receipt is not None else None
            ),
            "arena": arena,
            "arena_occupancy": occupancy,
            "shared_graph": (
                self._shared_graph.segment_name if self._shared_graph is not None else None
            ),
        }

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the execution context has been closed")

    def close(self) -> None:
        """Terminate the pool and destroy the arena (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._arena is not None:
            self._arena.destroy()
            self._arena = None
        if self._shared_graph is not None:
            self._shared_graph.destroy()
            self._shared_graph = None
        self._payloads.clear()
        self._stamped_graph = None

    def __enter__(self) -> "ExecutionContext":
        self._require_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __reduce__(self):
        # A context captured inside a worker payload (e.g. on a sampler the
        # payload embeds) must not drag pool handles across the process
        # boundary.  Reducing to None is semantically right: inside a
        # worker, "no runtime" is the correct execution mode.
        return (_reduce_to_none, ())


def graph_snapshot(graph: Graph, *, shared_graph: bool = False, runtime=None):
    """Return the CSR snapshot of *graph* a parallel workload should ship.

    With ``shared_graph=False`` this is exactly ``graph.csr()`` — the plain
    snapshot, pickled array-by-array into each worker.  With the knob on,
    the snapshot is wrapped in a zero-copy shared-memory segment
    (:class:`~repro.graphs.shared.SharedCSRGraph`): the *runtime*'s
    persistent per-``(graph, version)`` segment when a runtime is attached,
    the process-wide registry of
    :func:`~repro.graphs.shared.ensure_shared_graph` otherwise — both
    stable objects per graph version, so payloads interned by snapshot
    identity keep deduplicating.  Falls back to the plain snapshot (with a
    warning) where shared memory is unsupported.  Either way the arrays are
    byte-equal, so results never depend on the knob.
    """
    if not shared_graph:
        return graph.csr()
    if runtime is not None:
        shared = runtime.shared_graph(graph)
    else:
        shared = ensure_shared_graph(graph)
    return shared if shared is not None else graph.csr()


def plan_snapshot(graph: Graph, plan):
    """Return the CSR snapshot a planned call site should put in its payload.

    The :class:`~repro.execution.plan.ExecutionPlan` flavour of
    :func:`graph_snapshot`: reads the plan's ``shared_graph`` knob and
    ``runtime`` field.
    """
    return graph_snapshot(graph, shared_graph=plan.shared_graph, runtime=plan.runtime)


def interned_payload(plan, key, factory: Callable[[], Any]):
    """Build (or recall) a shared payload through the plan's runtime, if any.

    The one-liner estimator call sites use around their payload
    construction: with no runtime on the plan this is just ``factory()``
    (the cold path allocates per call exactly as before); with a runtime it
    memoizes by *key* so repeated requests hand the persistent pool the
    same object and the snapshot ships to the workers once.
    """
    if plan.runtime is None:
        return factory()
    return plan.runtime.cached_payload(key, factory)
