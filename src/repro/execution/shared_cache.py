"""One row store of per-source dependency vectors, private or cross-process.

Each Metropolis-Hastings step reads one cached dependency score δ_{v•}(r)
(Equations 6 and 17 of the paper).  :class:`DependencyStore` keeps the
vectors as rows of one matrix, so a chain's whole read is one slot gather
plus one fancy index.  Its layout:

* a ``(capacity, n)`` ``float64`` **row matrix**, one CSR source per
  claimed row;
* a **slot table** of length ``n`` mapping a source's CSR index to its row
  (``-1`` = not stored), and its inverse, the **owner** of each row;
* two counters: rows claimed so far and rows tombstoned.

Rows are claimed in order.  Eviction by a mutation
(:meth:`~DependencyStore.invalidate_sources`) tombstones rows with one mask
operation; their space stays spent until :meth:`~DependencyStore.compact`
moves the live rows down, in order.

Two backings share that layout:

* **private** — the :class:`~repro.mcmc.estimates.DependencyOracle` cache
  of an oracle without an arena, and the overflow of one with an arena:
  only rows a full arena refuses land there, so an arena-attached oracle
  reserves no private store until the first refusal.  The matrix is
  reserved, not touched, so an unbounded cache (``n`` rows, at most
  :func:`row_budget`, halved while the reservation fails) costs no
  ``n × n`` memory up front and never copies to grow.  Below ``n`` rows the
  store evicts its least recently used row: every read stamps its rows with
  a rising tick (the last read of a row wins), and the victim is the row
  with the smallest tick.
* **shared** (:class:`SharedDependencyStore`) — the cross-process arena of
  the multi-chain drivers and warm sessions, in one
  :mod:`multiprocessing.shared_memory` segment behind a process-shared
  lock.  A vector any worker computes is published once (:meth:`put`) and
  read in place by every chain's oracle, which gathers a run of rows
  from :attr:`~DependencyStore.slots` and :attr:`~DependencyStore.rows`
  under :attr:`~DependencyStore.lock` (:meth:`get` copies one row out).
  Rows are write-once between compactions: a full arena refuses new rows
  and the caller keeps the vector privately, so the store degrades to
  "whatever fits" and never churns.

Caching can never change a chain: the kernels are bit-identical per
source, so a stored row equals the vector its reader would have computed,
and only the pass counters depend on who computed what first.  Two workers
racing on one source compute the same vector; the second :meth:`put` is a
no-op.

A shared store travels to pool workers through the **initializer** path of
:func:`repro.execution.scheduler.run_sharded`, because a process-shared lock
crosses only at worker setup: under ``fork`` it is inherited, under
``spawn`` it pickles to ``(segment name, shape, lock)`` and re-attaches.
:func:`create_shared_store` returns ``None`` with a warning where the
platform has no working shared memory, or where not one row fits half the
free space of the shared-memory filesystem, so callers fall back to
private caches.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import warnings
from typing import Optional

from repro.errors import ConfigurationError
from repro.graphs.csr import np

try:  # pragma: no cover - exercised implicitly on unsupported platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "DependencyStore",
    "SharedDependencyStore",
    "create_shared_store",
    "row_budget",
    "shared_memory_available",
]

#: int64 header slots preceding the slot table: the claimed-row and the
#: tombstoned-row counters.
_HEADER_SLOTS = 2

#: Working-set budget of one :meth:`DependencyStore.compact` gather: the
#: live rows move in gathers up to this size, so compacting never holds a
#: second copy of the store (4 MB gathers added about 3.5 MB to a mutating
#: session's peak RSS; 256 KB and smaller ones, none measurable).
_COMPACT_BYTES = 1 << 18

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


def row_budget(num_vertices: int) -> int:
    """Return how many rows of *num_vertices* floats fit in half the memory.

    The memory is the physical memory, or the cgroup's limit where lower,
    read once per process (:func:`_memory_bytes`): every store construction
    asks, and the answer does not change while the process runs.
    This is the most rows a private store reserves: an unbounded cache
    holding more would exhaust the machine long before it filled, so past
    this budget it evicts its least recently used rows instead.
    """
    return max(1, _memory_bytes() // 2 // (8 * num_vertices))


@functools.lru_cache(maxsize=None)
def _memory_bytes() -> int:
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # pragma: no cover - no sysconf
        memory = 1 << 33
    # The cgroup v2, then v1 limit; a missing file or "max" means none.
    for path in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        with contextlib.suppress(OSError, ValueError), open(path) as handle:
            memory = min(memory, int(handle.read()))
    return memory


class DependencyStore:
    """Rows of per-source dependency vectors behind a slot table.

    *num_vertices* is ``n``: keys are CSR source indices in ``[0, n)`` and
    every row is a dense ``float64`` vector of that length.  *capacity* is
    the most rows held at once.  *shared* puts the store in a shared-memory
    segment; *context* is the :mod:`multiprocessing` context its lock is
    created in (it must match the start method of the processes the store
    is shipped to), and *lock* an existing process-shared lock to use
    instead — the persistent runtime shares one lock between its pool and
    its arena, so arena handles can travel by segment name.

    :attr:`slots` and :attr:`rows` are the arrays themselves: readers index
    them directly, holding :attr:`lock` around a shared store's reads, or
    call :meth:`get`, which takes it.  The process that creates a shared
    segment owns it and must :meth:`destroy` it; attached workers only
    :meth:`close`.
    """

    def __init__(
        self, num_vertices: int, capacity: int, *, shared: bool = False, context=None, lock=None
    ) -> None:
        if shared and _shared_memory is None:
            raise ConfigurationError(
                "SharedDependencyStore requires multiprocessing.shared_memory"
            )
        for name, value in (("num_vertices", num_vertices), ("capacity", capacity)):
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
        self.num_vertices = num_vertices
        self.capacity = capacity
        self._owner = True
        self._shm = None
        self._lock = contextlib.nullcontext()
        size = _segment_bytes(num_vertices, capacity)
        if shared:
            if lock is None:
                lock = (context if context is not None else multiprocessing).Lock()
            self._lock = lock
            self._shm = _shared_memory.SharedMemory(create=True, size=size)
            self._map(self._shm.buf)
        else:
            # Reserved, not touched: a row's pages are written when it is
            # claimed.  Heap memory, not a mapping of its own: when the store
            # dies its pages go back to the allocator for the kernels'
            # buffers (a fresh mapping per store made those buffers fault in
            # anew, about 3 µs a page on a 2-vCPU VM).
            self._map(np.empty(size, dtype=np.uint8))
        self._meta[:] = 0
        self.slots[:] = -1
        self.owner[:] = -1
        # Least-recently-used ticks, for a private store below n rows.
        self._lru = not shared and capacity < num_vertices
        self._ticks = np.zeros(capacity, dtype=np.int64) if self._lru else None
        self._tick = 0

    def _map(self, buffer) -> None:
        n, capacity = self.num_vertices, self.capacity
        self._meta = np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=buffer)
        self.slots = np.ndarray((n,), dtype=np.int64, buffer=buffer, offset=8 * _HEADER_SLOTS)
        offset = 8 * (_HEADER_SLOTS + n)
        self.owner = np.ndarray((capacity,), dtype=np.int64, buffer=buffer, offset=offset)
        offset += 8 * capacity
        self.rows = np.ndarray((capacity, n), dtype=np.float64, buffer=buffer, offset=offset)

    # Pickling: a shared store re-attaches by segment name (spawn); under
    # fork it is inherited without passing through here.
    def __getstate__(self):
        if self._shm is None:
            raise TypeError("a private DependencyStore does not leave its process")
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
        self._lru = False
        self._shm = _attach(state["name"])
        self._map(self._shm.buf)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The shared-memory segment name (attach key)."""
        return self._shm.name

    @property
    def lock(self):
        """The lock every write holds: process-shared, or a null context for a private store."""
        return self._lock

    def get(self, index: int):
        """Return a copy of the stored vector of CSR source *index*, or ``None``.

        The copy stays valid after the segment's owner unlinks it.
        """
        with self._lock:
            slot = int(self.slots[index])
            return None if slot < 0 else self.rows[slot].copy()

    def contains(self, index: int) -> bool:
        """Return whether source *index* is stored (no row copy)."""
        with self._lock:
            return bool(self.slots[index] >= 0)

    def put(self, index: int, vector) -> bool:
        """Store *vector* as the row of CSR source *index*; return whether it is held.

        ``True`` when this call stored it **or** the source was already
        stored (a racing worker's vector is bit-identical); ``False`` when a
        shared arena is full, and the caller keeps the vector privately.
        """
        return self.put_rows([index], np.asarray(vector)[None, :]) == 1

    def put_rows(self, indices, rows) -> int:
        """Store ``rows[i]`` as the row of CSR source ``indices[i]``; return how many are held.

        *indices* are distinct; stored sources keep their row.  The copy
        runs under the lock, so readers never see a half-written row.  A
        full private store evicts its least recently used rows; a full
        shared arena takes the rows that fit, in order.
        """
        indices = np.asarray(indices, dtype=np.int64)
        with self._lock:
            new = np.flatnonzero(self.slots[indices] < 0)
            slots = self._claim(len(new))
            held = len(indices) - len(new) + len(slots)
            new = new[: len(slots)]
            self.rows[slots] = rows if len(new) == len(rows) else rows[new]
            self.slots[indices[new]] = slots
            self.owner[slots] = indices[new]
            self.touch(slots)
            return held

    def _claim(self, count: int) -> np.ndarray:
        """Claim *count* rows: free ones first, then least recently used ones."""
        claimed = int(self._meta[0])
        if claimed + count > self.capacity and self._lru and self._meta[1]:
            self._compact()
            claimed = int(self._meta[0])
        fresh = np.arange(claimed, min(claimed + count, self.capacity))
        self._meta[0] = claimed + len(fresh)
        if len(fresh) == count or not self._lru:
            return fresh
        # Every row below ``claimed`` is live: tombstones were compacted away.
        victims = np.argsort(self._ticks[:claimed], kind="stable")[: count - len(fresh)]
        self.slots[self.owner[victims]] = -1
        return np.concatenate((fresh, victims))

    def touch(self, slots) -> None:
        """Mark *slots* read, in order (the last read of a row counts)."""
        if self._lru and len(slots):
            ticks = np.arange(self._tick + 1, self._tick + 1 + len(slots))
            np.maximum.at(self._ticks, slots, ticks)
            self._tick += len(slots)

    def invalidate_sources(self, indices) -> int:
        """Tombstone the rows of the CSR source *indices*; return how many were stored.

        The delta-scoped eviction primitive, one mask operation under the
        lock, so every process sees the rows go at once.  A tombstoned row's
        space stays spent (re-publishing the source claims a fresh row)
        until :meth:`compact` reclaims it.
        """
        affected = np.zeros(self.num_vertices, dtype=bool)
        affected[np.fromiter(indices, dtype=np.intp)] = True
        with self._lock:
            victims = np.flatnonzero(affected & (self.slots >= 0))
            self.owner[self.slots[victims]] = -1
            self.slots[victims] = -1
            self._meta[1] += len(victims)
            return len(victims)

    def compact(self) -> int:
        """Reclaim the space of tombstoned rows; return rows reclaimed.

        The live rows move down over the gaps, in order, and the slot table
        follows — all under the lock, so a shared arena's readers never see
        a half-moved matrix and every process enters the new epoch together.
        Without it, sustained delta eviction would leave a long-running
        arena permanently "full" of tombstones.
        """
        with self._lock:
            return self._compact()

    def _compact(self) -> int:
        tombstoned = int(self._meta[1])
        if tombstoned == 0:
            return 0
        claimed = int(self._meta[0])
        live = np.flatnonzero(self.owner[:claimed] >= 0)
        kept = len(live)
        # Rows already in place stay; the rest move in gathers of bounded
        # size, in ascending order: live[d] >= d, so no gather reads a row
        # an earlier one overwrote.
        moved = np.flatnonzero(live != np.arange(kept))
        step = max(1, _COMPACT_BYTES // (8 * self.num_vertices))
        for begin in range(int(moved[0]) if len(moved) else kept, kept, step):
            block = live[begin : begin + step]
            self.rows[begin : begin + len(block)] = self.rows[block]
        self.owner[:kept] = self.owner[live]
        self.owner[kept:claimed] = -1
        if self._lru:
            self._ticks[:kept] = self._ticks[live]
        self.slots[self.owner[:kept]] = np.arange(kept)
        self._meta[:] = (kept, 0)
        return tombstoned

    def clear(self) -> None:
        """Drop every row."""
        with self._lock:
            self.slots[:] = -1
            self.owner[:] = -1
            self._meta[:] = 0

    def sources(self) -> np.ndarray:
        """Return the CSR indices of the stored sources, in row order."""
        with self._lock:
            owners = self.owner[: int(self._meta[0])]
            return owners[owners >= 0].copy()

    def published(self) -> int:
        """Return the number of vectors currently stored (live rows)."""
        with self._lock:
            return int(self._meta[0]) - int(self._meta[1])

    def tombstoned(self) -> int:
        """Return the number of rows spent by delta-scoped eviction."""
        with self._lock:
            return int(self._meta[1])

    def stats(self) -> dict:
        """Return ``{capacity, published, tombstoned, full}`` for diagnostics stamps."""
        with self._lock:
            claimed, tombstoned = (int(x) for x in self._meta)
        return {
            "capacity": self.capacity,
            "published": claimed - tombstoned,
            "tombstoned": tombstoned,
            "full": claimed >= self.capacity,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the numpy views die with it)."""
        self._meta = self.slots = self.owner = self.rows = None
        if self._shm is not None:
            self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner only; call after close)."""
        if self._owner and self._shm is not None:
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


class SharedDependencyStore(DependencyStore):
    """The cross-process arena: a :class:`DependencyStore` in shared memory.

    A full arena stays correct: it stops absorbing new vectors.
    """

    def __init__(self, num_vertices: int, capacity: int, *, context=None, lock=None) -> None:
        super().__init__(num_vertices, capacity, shared=True, context=context, lock=lock)


def _segment_bytes(num_vertices: int, capacity: int) -> int:
    """Return the bytes of a store's segment: header, slot table, owners, rows."""
    return 8 * (_HEADER_SLOTS + num_vertices + capacity * (num_vertices + 1))


#: An arena's segment takes at most 1/this of the free bytes of the
#: shared-memory filesystem.  The free space is read once, before the
#: arena's lock, a pool's queue semaphores or a concurrent run's arena take
#: pages of their own; a tmpfs faults (SIGBUS) on a write past its free
#: space, so the clamp leaves the other half as headroom.
_FREE_BYTES_PER_ARENA_BYTE = 2


def _shared_memory_free_bytes() -> Optional[int]:
    """Return the free bytes of ``/dev/shm``, or ``None`` where it does not exist.

    A tmpfs grants a segment larger than its free space and faults at the
    first write past it, so the size has to be checked before creation.
    """
    try:
        stats = os.statvfs("/dev/shm")
    except (AttributeError, OSError):  # pragma: no cover - no statvfs or no /dev/shm
        return None
    return stats.f_bavail * stats.f_frsize


def create_shared_store(
    num_vertices: int, capacity: int, *, context=None, lock=None
) -> Optional[SharedDependencyStore]:
    """Build a :class:`SharedDependencyStore`, or ``None`` where unsupported.

    The graceful-fallback factory every arena comes from.  *capacity* is
    clamped to the rows whose segment fits half the free space of the
    shared-memory filesystem (a full arena is result-neutral).  Where
    shared memory does not work, or not one row fits, it warns and returns
    ``None``, and the caller runs with private per-worker caches, just
    slower.  *context* / *lock* are forwarded to the constructor (see
    there).
    """
    if _shared_memory is None:
        return _fall_back("multiprocessing.shared_memory missing")
    free = _shared_memory_free_bytes()
    if free is not None:
        room = free // _FREE_BYTES_PER_ARENA_BYTE
        fits = (room - _segment_bytes(num_vertices, 0)) // (8 * (num_vertices + 1))
        if fits < 1:
            return _fall_back(f"not one row fits the {free} free bytes of /dev/shm")
        capacity = min(capacity, fits)
    try:
        return SharedDependencyStore(num_vertices, capacity, context=context, lock=lock)
    except (OSError, PermissionError) as exc:  # pragma: no cover - platform dependent
        return _fall_back(str(exc))


def _fall_back(reason: str) -> None:
    """Warn that no arena could be made (at the caller of :func:`create_shared_store`)."""
    warnings.warn(
        f"could not allocate the shared dependency arena ({reason}); falling "
        "back to private per-worker caches",
        RuntimeWarning,
        stacklevel=3,
    )
