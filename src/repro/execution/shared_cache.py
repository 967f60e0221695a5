"""Cross-process shared dependency-vector cache for multi-chain MCMC runs.

The multi-chain drivers of :mod:`repro.mcmc.multichain` spread K chains over
worker processes, and every worker keeps a *private*
:class:`~repro.mcmc.estimates.DependencyOracle` cache.  On few-core machines
that duplication is the dominant residual cost: the chains propose sources
from the same distribution, so each worker ends up re-running Brandes passes
another worker already paid for (up to K copies of every popular source).

:class:`SharedDependencyStore` removes the duplication.  It is a
fixed-capacity, cross-process, *fill-once* cache of per-source dependency
vectors, backed by one :mod:`multiprocessing.shared_memory` segment:

* a pre-sized ``(capacity, n)`` ``float64`` **arena** holding the cached
  vectors, one CSR source per claimed row;
* a **claim table** — an ``int64`` array of length ``n`` mapping a source's
  CSR index to its arena row (``-1`` = not cached) plus a next-free-row
  counter;
* a process-shared :class:`multiprocessing.Lock` guarding both.

A vector computed by *any* worker is published once (:meth:`put`) and read
by every chain (:meth:`get`), whatever process it runs in.  Rows are
write-once: when the arena fills, :meth:`put` refuses and the caller simply
keeps the vector in its private per-process cache — the store degrades to
"whatever fits", it never churns.  Delta-scoped invalidation tombstones
rows (:meth:`invalidate_sources`), whose spent capacity :meth:`compact`
reclaims once eviction has consumed enough of the arena.

Determinism
-----------
Sharing the cache can never change a chain.  The dependency kernels are
bit-identical per source (the PR 2 batch-composition contract), so the row a
worker reads from the arena equals — bit for bit — the vector it would have
computed itself; only the *number* of Brandes passes (a work counter, not a
result) depends on who computed what first.  Races are benign for the same
reason: two workers that miss the same source concurrently both compute the
identical vector and the second :meth:`put` is a no-op.

Process plumbing
----------------
The store must travel to pool workers through the **initializer** path of
:func:`repro.execution.scheduler.run_sharded` (the ``shared`` payload): the
process-shared lock can be inherited or pickled only while a worker process
is being set up, not through a task queue.  Under the default ``fork`` start
method the object is inherited as-is; under ``spawn`` it pickles down to
``(segment name, shape, lock)`` and re-attaches lazily in the worker
(:meth:`__getstate__` / :meth:`__setstate__`).

Use :func:`create_shared_store` rather than the constructor when a private
cache is an acceptable fallback: it returns ``None`` with a warning when the
platform cannot provide shared memory (no ``/dev/shm``, sandboxed
containers) instead of raising.
"""

from __future__ import annotations

import multiprocessing
import warnings
from typing import Optional

from repro.errors import ConfigurationError
from repro.graphs.csr import np

try:  # pragma: no cover - exercised implicitly on unsupported platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "SharedDependencyStore",
    "create_shared_store",
    "shared_memory_available",
]

#: int64 header slots preceding the claim table: the next-free-row counter
#: and the tombstoned-row counter (rows evicted by delta-scoped
#: invalidation; their arena space is spent but they no longer serve reads).
_HEADER_SLOTS = 2

#: Memoized result of the :func:`shared_memory_available` allocation probe.
#: The probe allocates, closes and unlinks a real shm segment — three
#: syscalls plus a resource-tracker round-trip — and its answer cannot
#: change within a process lifetime, so paying it once per process (instead
#: of once per store creation) is free accuracy.
_PROBE_RESULT: Optional[bool] = None


def shared_memory_available(*, refresh: bool = False) -> bool:
    """Return whether this platform can allocate shared-memory segments.

    Probes with a minimal allocation: the module importing is not enough —
    sandboxed containers routinely expose :mod:`multiprocessing.shared_memory`
    while refusing the underlying ``shm_open``.  The probe result is
    memoized at module level (pass ``refresh=True`` to force a re-probe);
    the cheap module precondition is re-checked on every call so a
    monkeypatched test environment is still honoured.
    """
    global _PROBE_RESULT
    if _shared_memory is None:
        return False
    if _PROBE_RESULT is None or refresh:
        _PROBE_RESULT = _probe_shared_memory()
    return _PROBE_RESULT


def _probe_shared_memory() -> bool:
    try:
        probe = _shared_memory.SharedMemory(create=True, size=8)
    except (OSError, PermissionError):  # pragma: no cover - platform dependent
        return False
    probe.close()
    try:  # pragma: no cover - platform dependent
        probe.unlink()
    except (OSError, FileNotFoundError):
        pass
    return True


def _attach(name: str):
    """Attach to an existing segment without re-registering it for cleanup.

    Python 3.13 grew ``track=False`` for exactly this: an attaching process
    must not hand the segment to its own resource tracker, whose exit-time
    leak sweep would unlink the segment behind the creator's back.  On older
    interpreters the attach is wrapped with the standard workaround —
    registration suppressed for the duration of the call — so spawned
    workers are safe there too (the creator remains the sole owner of the
    unlink).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        try:
            resource_tracker.register = lambda *args, **kwargs: None
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class SharedDependencyStore:
    """Fixed-capacity cross-process cache of per-source dependency vectors.

    Parameters
    ----------
    num_vertices:
        ``n`` — the CSR vertex count of the graph the vectors belong to.
        Keys of :meth:`get` / :meth:`put` are CSR source indices in
        ``[0, n)`` and every cached vector is a dense ``float64`` array of
        this length.
    capacity:
        Number of arena rows — the most vectors the store can ever hold.
        Sizing it at ``min(n, total proposals + chains)`` makes overflow
        impossible for a known budget; a smaller arena stays correct and
        simply stops absorbing new vectors once full.

    context:
        Optional :mod:`multiprocessing` context the guarding lock is created
        in.  It must match the start method of the processes the store is
        shipped to (Python refuses to move a fork-context lock into a
        spawn-context process); the default — the interpreter's default
        context — is what :func:`repro.execution.scheduler.run_sharded`
        pools use, so drivers never need to pass it.  Callers that
        configure the pool start method through
        :attr:`repro.execution.plan.ExecutionPlan.mp_context` pass the same
        resolved context here.
    lock:
        Optional pre-existing process-shared lock to guard the arena with
        instead of creating a fresh one.  The persistent runtime
        (:mod:`repro.execution.runtime`) owns exactly one lock per
        :class:`~repro.execution.runtime.ExecutionContext` and shares it
        between its worker pool and its arena, so store handles can travel
        to long-lived workers by segment name with the lock substituted on
        arrival rather than pickled (a process-shared lock may only cross
        at worker setup).

    The creating process owns the segment: it must call :meth:`destroy`
    (or :meth:`close` + :meth:`unlink`) when the run is over.  Workers that
    attach through pickling only ever :meth:`close`.
    """

    def __init__(
        self, num_vertices: int, capacity: int, *, context=None, lock=None
    ) -> None:
        if _shared_memory is None:
            raise ConfigurationError(
                "SharedDependencyStore requires multiprocessing.shared_memory"
            )
        if not isinstance(num_vertices, int) or num_vertices < 1:
            raise ConfigurationError(
                f"num_vertices must be a positive integer, got {num_vertices!r}"
            )
        if not isinstance(capacity, int) or capacity < 1:
            raise ConfigurationError(
                f"capacity must be a positive integer, got {capacity!r}"
            )
        self.num_vertices = num_vertices
        self.capacity = capacity
        if lock is not None:
            self._lock = lock
        else:
            self._lock = (context if context is not None else multiprocessing).Lock()
        self._owner = True
        self._shm = _shared_memory.SharedMemory(create=True, size=self._nbytes())
        self._map_views()
        self._meta[0] = 0
        self._meta[1] = 0
        self._slots[:] = -1

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _nbytes(self) -> int:
        header = 8 * (_HEADER_SLOTS + self.num_vertices)
        return header + 8 * self.capacity * self.num_vertices

    def _map_views(self) -> None:
        buf = self._shm.buf
        self._meta = np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=buf)
        self._slots = np.ndarray(
            (self.num_vertices,), dtype=np.int64, buffer=buf, offset=8 * _HEADER_SLOTS
        )
        self._arena = np.ndarray(
            (self.capacity, self.num_vertices),
            dtype=np.float64,
            buffer=buf,
            offset=8 * (_HEADER_SLOTS + self.num_vertices),
        )

    # ------------------------------------------------------------------
    # Pickling: workers re-attach by segment name (spawn); under fork the
    # object is inherited without passing through here.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "num_vertices": self.num_vertices,
            "capacity": self.capacity,
            "name": self._shm.name,
            "lock": self._lock,
        }

    def __setstate__(self, state) -> None:
        self.num_vertices = state["num_vertices"]
        self.capacity = state["capacity"]
        self._lock = state["lock"]
        self._owner = False
        self._shm = _attach(state["name"])
        self._map_views()

    # ------------------------------------------------------------------
    # Cache protocol
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The shared-memory segment name (attach key)."""
        return self._shm.name

    def get(self, index: int):
        """Return a private copy of the cached vector of CSR source *index*.

        ``None`` on a miss.  The copy decouples the caller from the
        segment's lifetime — the returned array stays valid after the run's
        owner unlinks the arena.
        """
        with self._lock:
            slot = int(self._slots[index])
            if slot < 0:
                return None
            return self._arena[slot].copy()

    def contains(self, index: int) -> bool:
        """Return whether source *index* is published (no row copy)."""
        with self._lock:
            return bool(self._slots[index] >= 0)

    def put(self, index: int, vector) -> bool:
        """Publish *vector* as the dependency row of CSR source *index*.

        Returns whether the vector is available in the store after the call:
        ``True`` when this call claimed a row **or** another worker already
        published the source (the race loser's vector is bit-identical, so
        dropping it loses nothing); ``False`` when the arena is full — the
        caller keeps the vector in its private cache and the run proceeds on
        the private path for this source.

        The row copy happens under the lock: it is a ~``8n``-byte memcpy,
        negligible next to the Brandes pass that produced the vector, and it
        keeps the protocol two-state (absent / published) with no
        half-written rows for readers to worry about.
        """
        with self._lock:
            if self._slots[index] >= 0:
                return True
            slot = int(self._meta[0])
            if slot >= self.capacity:
                return False
            self._arena[slot, :] = vector
            self._slots[index] = slot
            self._meta[0] = slot + 1
            return True

    def invalidate_sources(self, indices) -> int:
        """Tombstone the rows of the given CSR source *indices*; return evicted count.

        The delta-scoped eviction primitive: a mutation's affected-source
        region maps to claim-table entries reset to ``-1`` under the lock,
        so every process sees the rows disappear atomically — eviction
        stays a broadcast, exactly like publication, with no per-reader
        coherence protocol.  The arena space of a tombstoned row stays
        spent (a re-publish of the source claims a fresh row) until
        :meth:`compact` reclaims it; without compaction, sustained
        eviction would monotonically exhaust the arena even while
        :meth:`published` stays small.
        """
        with self._lock:
            evicted = 0
            for index in indices:
                if self._slots[index] >= 0:
                    self._slots[index] = -1
                    evicted += 1
            self._meta[1] += evicted
            return evicted

    def compact(self) -> int:
        """Reclaim the arena space of tombstoned rows; return rows reclaimed.

        Live rows are moved down over the tombstoned gaps (ascending row
        order, so no live row is overwritten before it has moved) and the
        claim table is rewritten to the new positions — all under the
        process-shared lock, so the relocation is one atomic broadcast:
        every reader copies rows under the same lock and can never observe
        a half-moved arena.  Rows therefore stay write-once *between*
        compactions; a compaction is a new epoch that every attached
        process enters together.  Without this, a long-running delta-mode
        session would grind the write-once arena down to permanently
        "full" (tombstones spend capacity that eviction never returns).
        """
        with self._lock:
            tombstoned = int(self._meta[1])
            if tombstoned == 0:
                return 0
            live = np.flatnonzero(self._slots >= 0)
            order = np.argsort(self._slots[live], kind="stable")
            dest = 0
            for source in live[order]:
                row = int(self._slots[source])
                if row != dest:
                    self._arena[dest, :] = self._arena[row]
                    self._slots[source] = dest
                dest += 1
            self._meta[0] = dest
            self._meta[1] = 0
            return tombstoned

    def published(self) -> int:
        """Return the number of vectors currently published (live rows)."""
        with self._lock:
            return int(self._meta[0]) - int(self._meta[1])

    def tombstoned(self) -> int:
        """Return the number of rows spent by delta-scoped eviction."""
        with self._lock:
            return int(self._meta[1])

    def stats(self) -> dict:
        """Return ``{capacity, published, tombstoned, full}`` for diagnostics stamps."""
        with self._lock:
            claimed = int(self._meta[0])
            tombstoned = int(self._meta[1])
        return {
            "capacity": self.capacity,
            "published": claimed - tombstoned,
            "tombstoned": tombstoned,
            "full": claimed >= self.capacity,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the numpy views die with it)."""
        self._meta = self._slots = self._arena = None
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner only; call after close)."""
        if self._owner:
            try:
                self._shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover - already gone
                pass

    def destroy(self) -> None:
        """Close and (when owner) unlink — the one call a driver's ``finally`` needs."""
        try:
            self.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        self.unlink()


def create_shared_store(
    num_vertices: int, capacity: int, *, context=None, lock=None
) -> Optional[SharedDependencyStore]:
    """Build a :class:`SharedDependencyStore`, or ``None`` where unsupported.

    The graceful-fallback factory the multi-chain drivers use: on platforms
    without working shared memory it warns once and
    returns ``None``, and the caller runs with private per-worker caches —
    exactly the pre-shared-cache behaviour, just slower.  *context* / *lock*
    are forwarded to the constructor (see there).
    """
    if _shared_memory is None:
        warnings.warn(
            "shared dependency cache unavailable (multiprocessing.shared_memory "
            "missing); falling back to private per-worker caches",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    try:
        return SharedDependencyStore(num_vertices, capacity, context=context, lock=lock)
    except (OSError, PermissionError) as exc:  # pragma: no cover - platform dependent
        warnings.warn(
            f"could not allocate the shared dependency arena ({exc}); falling "
            "back to private per-worker caches",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
