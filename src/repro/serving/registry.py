"""The daemon's session registry: many named graphs, one warm session each.

One :class:`SessionRegistry` owns every graph the daemon serves.  Each
entry (:class:`ManagedSession`) pairs a mutable
:class:`~repro.graphs.core.Graph` with a
:class:`~repro.centrality.session.ThreadSafeSession` wrapping the warm
:class:`~repro.centrality.session.BetweennessSession`, so

* loading a graph pays session cold-start once, and every later query
  against that name is warm (persistent pool, arena, oracles);
* mutating a graph goes through the session's lock
  (:meth:`ManagedSession.mutate`) as one batched journal window, and the
  warm state is re-synced eagerly — delta-scoped when the journal proves
  an affected region — so the mutate response itself carries the
  invalidation receipt and a query can never see a stale version;
* evicting (or replacing) a name closes its session, releasing worker
  processes and shared-memory segments.

The registry itself is thread-safe: load/evict/lookup race freely with
queries from the daemon's handler threads.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.centrality.session import BetweennessSession, ThreadSafeSession
from repro.errors import ConfigurationError, ReproError
from repro.execution import ExecutionPlan
from repro.graphs.core import Graph

__all__ = ["GraphNotLoaded", "RegistryFull", "ManagedSession", "SessionRegistry"]


class GraphNotLoaded(ReproError):
    """A query or lifecycle call named a graph the registry does not hold."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        loaded = ", ".join(sorted(known)) if known else "none"
        super().__init__(f"graph {name!r} is not loaded (loaded: {loaded})")
        self.name = name


class RegistryFull(ReproError):
    """Loading one more graph would exceed the registry's session bound."""

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"session registry is full ({limit} graphs loaded); evict one "
            "before loading another"
        )
        self.limit = limit


class ManagedSession:
    """One named graph plus its thread-safe warm session."""

    def __init__(
        self,
        name: str,
        graph: Graph,
        *,
        plan: Optional[ExecutionPlan] = None,
        arena_capacity: Optional[int] = None,
        check_connected: bool = True,
    ) -> None:
        self.name = name
        self.graph = graph
        self.session = ThreadSafeSession(
            BetweennessSession(
                graph,
                plan,
                arena_capacity=arena_capacity,
                check_connected=check_connected,
            )
        )
        self.created_at = time.time()

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The graph's current mutation-counter version."""
        return self.graph.version

    def mutate(
        self,
        add_edges: Sequence[Sequence[object]] = (),
        remove_edges: Sequence[Sequence[object]] = (),
    ) -> Dict[str, object]:
        """Apply edge upserts/removals under the session lock.

        Each *add_edges* element is ``(u, v)`` or ``(u, v, weight)``; each
        *remove_edges* element is ``(u, v)``.  The request is transactional:
        every entry is validated first, and a bad one raises
        :class:`~repro.errors.ReproError` with the graph untouched.  The
        whole request is one
        :meth:`~repro.graphs.core.Graph.batch_mutations` window — one
        journal entry, at most one version bump — and the session's warm
        state is re-synced eagerly, so the returned summary carries the
        invalidation receipt: ``version_changed`` is ``False`` when every
        op no-opped (clients and the coalescer keep their warm keys), and
        ``invalidation`` itemises what was evicted versus retained.
        """
        old_version = self.graph.version

        def apply(graph: Graph) -> None:
            # Validated under the session lock, before the batch opens, so
            # a bad entry anywhere rejects the request with nothing applied.
            added, removed = _validated_edits(graph, add_edges, remove_edges)
            with graph.batch_mutations():
                for u, v, weight in added:
                    graph.add_edge(u, v, weight=weight)
                for u, v in removed:
                    graph.remove_edge(u, v)

        receipt = self.session.mutate(apply)
        return {
            "graph": self.name,
            "old_version": old_version,
            "graph_version": self.graph.version,
            "version_changed": receipt.version_changed,
            "edges_added": len(add_edges),
            "edges_removed": len(remove_edges),
            "invalidation": receipt.as_dict(),
        }

    def describe(self) -> Dict[str, object]:
        """A lifecycle summary (the ``GET /graphs`` row)."""
        stats = self.session.stats()
        return {
            "graph": self.name,
            "vertices": self.graph.number_of_vertices(),
            "edges": self.graph.number_of_edges(),
            "directed": self.graph.directed,
            "weighted": self.graph.weighted,
            "graph_version": self.graph.version,
            "queries": stats["queries"],
            "brandes_passes": stats["brandes_passes"],
            "arena": stats["context"]["arena"],
            "created_at": self.created_at,
        }

    def stats(self) -> Dict[str, object]:
        """The wrapped session's stats (locked read)."""
        return self.session.stats()

    def close(self) -> None:
        self.session.close()


def _validated_edits(graph: Graph, add_edges, remove_edges):
    """Check a whole mutate request against *graph*; return ``(added, removed)``.

    Rejects a malformed shape, a weight that is not a number (or not
    positive on a weighted graph), a self-loop, and a removal of an edge
    that is absent — counting edges the same request adds before its
    removals, and each removal only once.
    """
    added = []
    for edge in add_edges:
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise ReproError(f"each added edge must be (u, v) or (u, v, weight), got {edge!r}")
        u, v = edge[0], edge[1]
        if u == v:
            raise ReproError(f"self-loop on vertex {u!r} is not allowed")
        weight = 1.0
        if len(edge) == 3:
            try:
                weight = float(edge[2])
            except (TypeError, ValueError):
                raise ReproError(f"edge weight must be a number, got {edge[2]!r}")
            if graph.weighted and not weight > 0.0:
                raise ReproError(f"edge weight must be positive, got {edge[2]!r}")
        added.append((u, v, weight))

    def key(u, v):
        return (u, v) if graph.directed else frozenset((u, v))

    added_keys = {key(u, v) for u, v, _ in added}
    gone = set()
    removed = []
    for edge in remove_edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ReproError(f"each removed edge must be (u, v), got {edge!r}")
        u, v = edge
        if key(u, v) in gone or not (key(u, v) in added_keys or graph.has_edge(u, v)):
            raise ReproError(f"cannot remove edge {[u, v]!r}: it is not in the graph")
        gone.add(key(u, v))
        removed.append((u, v))
    return added, removed


class SessionRegistry:
    """Thread-safe name → :class:`ManagedSession` table with a size bound.

    Parameters
    ----------
    plan:
        Default :class:`~repro.execution.ExecutionPlan` every loaded
        session runs under (per-load overrides may replace it later).
    arena_capacity / check_connected:
        Forwarded to each :class:`BetweennessSession`.
    max_sessions:
        Hard bound on simultaneously loaded graphs — each session owns
        worker processes and shared-memory segments, so the bound is a
        resource cap, not a cache size.  Exceeding it raises
        :class:`RegistryFull` (HTTP 409 upstream); eviction is explicit.
    """

    def __init__(
        self,
        *,
        plan: Optional[ExecutionPlan] = None,
        arena_capacity: Optional[int] = None,
        check_connected: bool = True,
        max_sessions: int = 8,
    ) -> None:
        if max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {max_sessions!r}"
            )
        self._plan = plan
        self._arena_capacity = arena_capacity
        self._check_connected = check_connected
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._sessions: Dict[str, ManagedSession] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def get(self, name: str) -> ManagedSession:
        """Look up a loaded graph; :class:`GraphNotLoaded` otherwise."""
        with self._lock:
            self._require_open()
            entry = self._sessions.get(name)
            if entry is None:
                raise GraphNotLoaded(name, list(self._sessions))
            return entry

    def load(self, name: str, graph: Graph) -> ManagedSession:
        """Load (or replace) *name* with a warm session over *graph*.

        Replacement closes the old session after the new one is up — a
        failed load (disconnected graph, bad plan) leaves the existing
        entry serving untouched.
        """
        if not name or "/" in name:
            raise ReproError(
                f"graph names must be non-empty and slash-free, got {name!r}"
            )
        with self._lock:
            self._require_open()
            replacing = self._sessions.get(name)
            if replacing is None and len(self._sessions) >= self.max_sessions:
                raise RegistryFull(self.max_sessions)
        entry = ManagedSession(
            name,
            graph,
            plan=self._plan,
            arena_capacity=self._arena_capacity,
            check_connected=self._check_connected,
        )
        with self._lock:
            self._require_open()
            replaced = self._sessions.get(name)
            self._sessions[name] = entry
        if replaced is not None:
            replaced.close()
        return entry

    def evict(self, name: str) -> Dict[str, object]:
        """Close and drop *name*; :class:`GraphNotLoaded` when absent."""
        with self._lock:
            self._require_open()
            entry = self._sessions.pop(name, None)
        if entry is None:
            raise GraphNotLoaded(name, self.names())
        summary = {
            "graph": name,
            "graph_version": entry.version,
            "queries": entry.stats()["queries"],
        }
        entry.close()
        return summary

    def describe_all(self) -> List[Dict[str, object]]:
        with self._lock:
            entries = list(self._sessions.values())
        return [entry.describe() for entry in sorted(entries, key=lambda e: e.name)]

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the session registry has been closed")

    def close(self) -> None:
        """Close every session (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._sessions.values())
            self._sessions.clear()
        for entry in entries:
            entry.close()

    def __enter__(self) -> "SessionRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
