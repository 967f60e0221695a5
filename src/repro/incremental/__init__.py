"""Delta-scoped invalidation: affected-region reasoning for mutations.

The warm-serving tier keeps expensive per-source state alive between
queries — dependency-vector rows in the shared arena, oracle caches, MH
chain positions.  Before this package existed, every mutation invalidated
all of it through a single scalar ``graph.version`` comparison.  The
modules here consume the typed change journal of
:class:`~repro.graphs.core.Graph` instead and compute which *sources*
can actually be affected by a mutation, so every layer can evict only
those rows and retain the rest:

:mod:`repro.incremental.affected`
    ``affected_sources(csr, deltas)`` — the BFS distance-change region
    from the touched endpoints, with "everything" as the safe fallback
    (journal overflow, vertex ops, directed/weighted graphs).
:mod:`repro.incremental.biconnected`
    Articulation points and bridges (iterative Tarjan over the CSR
    arrays) — the iCentral-style structural machinery, used for receipt
    diagnostics and as an independent containment check in the tests.
:mod:`repro.incremental.receipts`
    :class:`InvalidationReceipt` — the structured "what was evicted vs
    retained, and why" record every mutation-consuming layer emits.

The determinism contract is absolute and is what every consumer relies
on: a source *not* in the affected region has a bit-identical dependency
vector on the mutated graph, so retaining its cached row can never change
a result.  Detection may only over-approximate, never under-approximate.
"""

from repro.incremental.affected import (
    DEFAULT_MAX_BFS,
    AffectedRegion,
    affected_sources,
)
from repro.incremental.biconnected import articulation_points, bridges
from repro.incremental.receipts import InvalidationReceipt

__all__ = [
    "AffectedRegion",
    "InvalidationReceipt",
    "affected_sources",
    "articulation_points",
    "bridges",
    "DEFAULT_MAX_BFS",
]
