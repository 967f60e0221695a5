"""The invalidation receipt every mutation-consuming layer emits.

One mutable record threads through the whole invalidation path: the
execution runtime fills in the arena accounting, the session adds oracle
and chain retention, and the serving tier serialises the result into the
mutate response and the ``/metrics`` exposition.  A single shape keeps
the three surfaces from inventing divergent vocabularies for "what was
evicted, what survived, and why".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

__all__ = ["InvalidationReceipt"]


@dataclass
class InvalidationReceipt:
    """What one graph-change invalidation actually did.

    ``mode`` is ``"noop"`` (nothing changed — the idempotent-mutate case),
    ``"delta"`` (journal consumed, affected region evicted, the rest
    retained) or ``"full"`` (the destroy-everything fallback;
    ``reason`` names why delta scoping was not possible).
    """

    mode: str
    version_from: int
    version_to: int
    reason: Optional[str] = None
    affected_sources: Optional[int] = None
    total_sources: Optional[int] = None
    arena_rows_evicted: int = 0
    arena_rows_retained: int = 0
    #: Tombstoned rows whose arena space this invalidation reclaimed (the
    #: runtime compacts once eviction has spent over half the capacity).
    arena_rows_compacted: int = 0
    payload_entries_evicted: int = 0
    #: Per warm oracle, summed: the vectors it can no longer / can still
    #: serve, i.e. the arena rows it reads in place plus its private rows.
    oracle_vectors_evicted: int = 0
    oracle_vectors_retained: int = 0
    chains_continued: int = 0
    chains_restarted: int = 0
    touched_endpoints: int = 0

    @property
    def version_changed(self) -> bool:
        """Whether the mutation actually advanced the graph version."""
        return self.version_from != self.version_to

    def as_dict(self) -> dict:
        """Serialise for JSON surfaces (adds the derived ``version_changed``)."""
        payload = asdict(self)
        payload["version_changed"] = self.version_changed
        return payload
