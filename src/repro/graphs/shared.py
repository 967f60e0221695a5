"""Zero-copy shared-memory CSR snapshots.

Shipping a :class:`~repro.graphs.csr.CSRGraph` to a worker pool normally
means pickling ``indptr``/``indices``/``weights`` into every worker — an
O(m)-per-worker copy in both time and resident memory, and the memory
ceiling on big graphs.  :class:`SharedCSRGraph` removes the copies the same
way :class:`~repro.execution.shared_cache.SharedDependencyStore` removed
duplicated dependency rows: the three arrays (plus the vertex-label table,
when the labels are not the identity ``0..n-1``) are packed once into a
single :mod:`multiprocessing.shared_memory` segment, and the object pickles
down to ``(segment name, header)``.  A worker that unpickles it re-attaches
to the segment lazily and maps **zero-copy numpy views** over the shared
buffer — per-worker incremental memory for the graph payload is O(1),
independent of ``m``.

Layout
------
One segment, 8-byte-aligned regions in order::

    [ indptr : int64 × (n+1) ][ indices : int64 × m ][ weights : float64 × m ]
    [ labels : pickled tuple, only when labels are not 0..n-1 ]

The header travelling with the pickle records the segment name, the region
offsets/dtypes, ``n``/``m``, the directed/weighted flags, the identity-label
flag and the originating ``graph.version`` stamp, so an attached view can be
validated against the snapshot it claims to be.

Identity fast path
------------------
Graphs built by the generators (and anything ingested through
:func:`repro.graphs.io.read_edge_list_csr` with integer vertices ``0..n-1``)
have label tables that carry no information.  For those the segment stores
no label blob at all and the attached view answers ``index_of`` /
``vertex_at`` arithmetically — attaching is O(1) in time *and* memory.
Non-identity labels are stored pickled and materialised lazily, only in
processes that actually translate between labels and indices (workers
operating purely in index space never pay for them).

Ownership
---------
The creating process owns the segment and must call :meth:`~SharedCSRGraph.destroy`
(or :meth:`~SharedCSRGraph.close` + :meth:`~SharedCSRGraph.unlink`); workers
that attach through pickling only ever :meth:`~SharedCSRGraph.close`.
Attaching never registers the segment with the worker's resource tracker
(``track=False``, with the registration-suppressed fallback on Python
< 3.13) so a worker exiting cannot unlink the segment behind the creator's
back — the same idiom as :mod:`repro.execution.shared_cache`.

:func:`ensure_shared_graph` adds a process-wide registry keyed by
``(id(graph), graph.version)``: repeated calls for the same unmutated graph
return the same persistent snapshot (so payloads interned by snapshot
identity stay stable), a mutation invalidates and destroys the stale
segment, and graphs that get garbage collected — or the interpreter exiting
— tear their segments down via ``weakref.finalize``/``atexit``.
"""

from __future__ import annotations

import atexit
import pickle
import warnings
import weakref
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, VertexNotFoundError
from repro.graphs.csr import CSRGraph, np

try:  # pragma: no cover - exercised implicitly on unsupported platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "SharedCSRGraph",
    "create_shared_graph",
    "ensure_shared_graph",
    "discard_shared_graph",
    "shared_graph_available",
]

#: Memoized result of the allocation probe (see ``shared_cache.py`` for why
#: a real allocation is probed instead of trusting the module import).
_PROBE_RESULT: Optional[bool] = None


def shared_graph_available(*, refresh: bool = False) -> bool:
    """Return whether shared CSR snapshots can be created on this platform.

    Same contract as
    :func:`repro.execution.shared_cache.shared_memory_available` — cheap
    preconditions re-checked every call, the real ``shm_open`` probe
    memoized per process (``refresh=True`` forces a re-probe).  Duplicated
    here rather than imported so the graphs layer stays free of execution
    imports.
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


def _align(offset: int) -> int:
    """Round *offset* up to the next 8-byte boundary."""
    return (offset + 7) & ~7


def _is_identity_labels(vertices) -> bool:
    """Return whether the label table is exactly ``0, 1, ..., n-1``."""
    return all(type(v) is int and v == i for i, v in enumerate(vertices))


class SharedCSRGraph(CSRGraph):
    """A :class:`CSRGraph` whose arrays live in one shared-memory segment.

    Behaviourally a drop-in CSR snapshot: the attached ``indptr`` /
    ``indices`` / ``weights`` views are byte-equal to the source arrays, so
    every kernel that accepts a :class:`CSRGraph` produces bit-identical
    results on a shared one.  The views are marked read-only — the snapshot
    is shared between processes and must never be written through.

    Do not call the constructor directly: use :meth:`from_csr` (create and
    own a segment) or pickling (attach to an existing one).
    """

    __slots__ = ("_shm", "_header", "_owner")

    def __init__(self, shm, header: Dict[str, object], *, owner: bool) -> None:
        # Deliberately does NOT chain to CSRGraph.__init__: the parent
        # materialises the label tuple and the label->index dict eagerly
        # (O(n) per process), which is exactly the cost attaching must not
        # pay.  Labels are materialised lazily via _ensure_labels().
        self._shm = shm
        self._header = header
        self._owner = owner
        n = header["n"]
        m = header["m"]
        buf = shm.buf
        indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=buf, offset=header["indptr_offset"])
        indices = np.ndarray((m,), dtype=np.int64, buffer=buf, offset=header["indices_offset"])
        weights = np.ndarray((m,), dtype=np.float64, buffer=buf, offset=header["weights_offset"])
        for view in (indptr, indices, weights):
            view.flags.writeable = False
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.directed = header["directed"]
        self.weighted = header["weighted"]
        self._vertices = None
        self._index_of = None
        self._scipy_forward = None
        self._scipy_backward = None
        self._spmm_ok = None
        self._dijkstra_adj = None
        self._sweep_rounds = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CSRGraph, *, version: int = 0) -> "SharedCSRGraph":
        """Pack *csr* into a fresh shared segment and return the owner view.

        ``version`` stamps the header with the originating
        :attr:`repro.graphs.core.Graph.version` so stale snapshots are
        detectable after a mutation.  Raises
        :class:`~repro.errors.ConfigurationError` when the platform lacks
        shared memory; use :func:`create_shared_graph` for the
        warn-and-fallback variant.
        """
        if _shared_memory is None:
            raise ConfigurationError(
                "SharedCSRGraph requires multiprocessing.shared_memory"
            )
        indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(csr.indices, dtype=np.int64)
        weights = np.ascontiguousarray(csr.weights, dtype=np.float64)
        vertices = csr.vertices
        identity = _is_identity_labels(vertices)
        labels_blob = b"" if identity else pickle.dumps(vertices, protocol=pickle.HIGHEST_PROTOCOL)

        indptr_offset = 0
        indices_offset = _align(indptr_offset + indptr.nbytes)
        weights_offset = _align(indices_offset + indices.nbytes)
        labels_offset = _align(weights_offset + weights.nbytes)
        total = max(labels_offset + len(labels_blob), 8)

        shm = _shared_memory.SharedMemory(create=True, size=total)
        header: Dict[str, object] = {
            "name": shm.name,
            "n": len(vertices),
            "m": int(indices.shape[0]),
            "directed": bool(csr.directed),
            "weighted": bool(csr.weighted),
            "identity": identity,
            "version": int(version),
            "indptr_offset": indptr_offset,
            "indices_offset": indices_offset,
            "weights_offset": weights_offset,
            "labels_offset": labels_offset,
            "labels_nbytes": len(labels_blob),
            "dtypes": ("int64", "int64", "float64"),
        }
        buf = shm.buf
        np.ndarray(indptr.shape, dtype=np.int64, buffer=buf, offset=indptr_offset)[:] = indptr
        if header["m"]:
            np.ndarray(indices.shape, dtype=np.int64, buffer=buf, offset=indices_offset)[:] = indices
            np.ndarray(weights.shape, dtype=np.float64, buffer=buf, offset=weights_offset)[:] = weights
        if labels_blob:
            buf[labels_offset : labels_offset + len(labels_blob)] = labels_blob
        return cls(shm, header, owner=True)

    # -- header accessors ------------------------------------------------
    @property
    def segment_name(self) -> str:
        """Name of the backing shared-memory segment."""
        return self._header["name"]

    @property
    def version(self) -> int:
        """The ``graph.version`` stamp the snapshot was taken at."""
        return self._header["version"]

    @property
    def owner(self) -> bool:
        """Whether this process created (and must unlink) the segment."""
        return self._owner

    @property
    def nbytes(self) -> int:
        """Total size of the backing segment in bytes."""
        return self._shm.size

    # -- lazy label table ------------------------------------------------
    def _ensure_labels(self) -> None:
        if self._vertices is None:
            if self._header["identity"]:
                self._vertices = tuple(range(self._header["n"]))
            else:
                start = self._header["labels_offset"]
                blob = bytes(self._shm.buf[start : start + self._header["labels_nbytes"]])
                self._vertices = pickle.loads(blob)

    def _ensure_index(self) -> None:
        if self._index_of is None:
            self._ensure_labels()
            self._index_of = {v: i for i, v in enumerate(self._vertices)}

    def number_of_vertices(self) -> int:
        return self._header["n"]

    def __len__(self) -> int:
        return self._header["n"]

    @property
    def vertices(self):
        self._ensure_labels()
        return self._vertices

    def vertex_at(self, index: int):
        if self._header["identity"]:
            # range() indexing reproduces tuple semantics exactly
            # (negative indices, IndexError out of bounds).
            return range(self._header["n"])[index]
        self._ensure_labels()
        return self._vertices[index]

    def index_of(self, vertex) -> int:
        if self._header["identity"] and type(vertex) is int:
            if 0 <= vertex < self._header["n"]:
                return vertex
            raise VertexNotFoundError(vertex)
        self._ensure_index()
        try:
            return self._index_of[vertex]
        except (KeyError, TypeError):
            raise VertexNotFoundError(vertex) from None

    def find_index(self, vertex) -> Optional[int]:
        if self._header["identity"] and type(vertex) is int:
            return vertex if 0 <= vertex < self._header["n"] else None
        self._ensure_index()
        try:
            return self._index_of.get(vertex)
        except TypeError:
            return None

    def array_to_vertex_map(self, values) -> Dict[object, float]:
        if self._header["identity"]:
            return {i: float(values[i]) for i in range(self._header["n"])}
        self._ensure_labels()
        return {v: float(values[i]) for i, v in enumerate(self._vertices)}

    # -- pickling = attach ----------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        # The whole point: a shared snapshot ships as its header, not its
        # arrays.  The receiving process re-attaches lazily in __setstate__.
        return {"header": self._header}

    def __setstate__(self, state: Dict[str, object]) -> None:
        header = state["header"]
        self.__init__(_attach(header["name"]), header, owner=False)

    # -- lifecycle -------------------------------------------------------
    def _drop_views(self) -> None:
        self.indptr = None
        self.indices = None
        self.weights = None
        self._scipy_forward = None
        self._scipy_backward = None

    def close(self) -> None:
        """Release this process's mapping of the segment (keeps the data)."""
        if self._shm is None:
            return
        self._drop_views()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        self._shm = None

    def unlink(self) -> None:
        """Destroy the segment itself.  Only the owning process may call this."""
        if not self._owner or self._shm is None:
            return
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass

    def destroy(self) -> None:
        """Owner teardown: unlink the segment and release the local mapping."""
        if self._shm is None:
            return
        self._drop_views()
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass
        self._shm = None


def create_shared_graph(csr: CSRGraph, *, version: int = 0) -> Optional[SharedCSRGraph]:
    """Create a shared snapshot of *csr*, or ``None`` when the platform cannot.

    The warn-and-fallback twin of :meth:`SharedCSRGraph.from_csr`: callers
    degrade to shipping the plain (pickled) snapshot instead of failing.
    """
    if _shared_memory is None:
        warnings.warn(
            "shared graph snapshot requested but multiprocessing.shared_memory "
            "is unavailable; falling back to pickled snapshot shipping",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    try:
        return SharedCSRGraph.from_csr(csr, version=version)
    except (OSError, PermissionError) as exc:  # pragma: no cover - platform dependent
        warnings.warn(
            f"could not allocate a shared-memory graph segment ({exc}); "
            "falling back to pickled snapshot shipping",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


# ----------------------------------------------------------------------
# Process-wide registry: one persistent segment per (graph, version)
# ----------------------------------------------------------------------
#: ``id(graph) -> (weakref, version, shared)``.  The weakref guards against
#: id() reuse after garbage collection and tears the segment down when the
#: graph dies; the version stamp invalidates on mutation.
_REGISTRY: Dict[int, Tuple["weakref.ref", int, SharedCSRGraph]] = {}


def _registry_drop(key: int) -> None:
    entry = _REGISTRY.pop(key, None)
    if entry is not None:
        entry[2].destroy()


def _registry_clear() -> None:  # pragma: no cover - exercised at interpreter exit
    for key in list(_REGISTRY):
        _registry_drop(key)


atexit.register(_registry_clear)


def ensure_shared_graph(graph) -> Optional[SharedCSRGraph]:
    """Return the process-wide shared snapshot of *graph* at its current version.

    Created once per ``(id(graph), graph.version)`` and returned unchanged
    until the graph mutates — so payloads keyed by snapshot identity stay
    interned across calls.  A mutation (version bump) destroys the stale
    segment and packs a fresh one; the graph being garbage collected (or the
    interpreter exiting) destroys its segment too.  Returns ``None`` with a
    warning when shared memory is unavailable.
    """
    if not shared_graph_available():
        warnings.warn(
            "shared graph snapshot requested but shared memory is unavailable "
            "on this platform; falling back to pickled snapshot shipping",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    key = id(graph)
    entry = _REGISTRY.get(key)
    if entry is not None:
        ref, version, shared = entry
        if ref() is graph and version == graph.version:
            return shared
        _registry_drop(key)
    shared = create_shared_graph(graph.csr(), version=graph.version)
    if shared is None:
        return None
    ref = weakref.ref(graph, lambda _ref, _key=key: _registry_drop(_key))
    # Stamp the *settled* version: a snapshot packed inside an open
    # batch_mutations() block must not be mistaken for the post-batch
    # graph, whose version it would otherwise share (the batch keeps
    # journaling under one version).  The pre-batch stamp can never equal
    # a post-mutation version, so the stale segment is rebuilt.
    _REGISTRY[key] = (ref, graph.settled_version(), shared)
    return shared


def discard_shared_graph(graph) -> None:
    """Destroy the registry snapshot of *graph*, if one exists."""
    _registry_drop(id(graph))
