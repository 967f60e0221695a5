"""Affected-source detection: which per-source rows can a mutation change?

The unit of warm state everywhere in this library is the *per-source
dependency vector* ``delta_s(.)`` (one Brandes pass from source ``s``).
After a mutation, a cached vector for ``s`` may be retained exactly when
the whole single-source shortest-path structure from ``s`` — distances,
path counts and the DAG — is unchanged, because then the kernels replay
the identical float operations and the vector is bit-identical to a cold
recompute.

The detection rule
------------------
For every touched endpoint pair ``(u, v)`` (the endpoints of each edge
the journal recorded), flag every source ``s`` with
``d(s, u) != d(s, v)`` on the **post-mutation** graph.  The union over
all touched pairs is the affected region; everything else is provably
retained:

* *Insertion* of ``(u, v)``: a strictly shorter ``s``-path must cross the
  new edge, so its prefix gives ``d(s, v) = d(s, u) + 1`` (or vice
  versa); equal distances rule that out.  The new edge also never joins
  the DAG of an unflagged source (a DAG edge needs
  ``d(s, v) = d(s, u) + 1``), so path counts and accumulation order are
  untouched.
* *Removal* of ``(u, v)``: the first removed edge on a lost shortest path
  would exhibit ``d(s, u) != d(s, v)`` on the new graph; unflagged
  sources keep every old shortest path, and the removed edge was never in
  their DAG (same equal-distance argument on the old graph, whose
  distances coincide with the new ones for unflagged sources).
* *Composites* (one journal window with several deltas): reorder as
  removals-then-insertions; the same first-changed-edge arguments apply
  pairwise on the final graph, so testing every touched pair on the final
  snapshot covers the whole window.

``inf == inf`` counts as equal — a source that cannot reach either
endpoint in the final graph is unaffected by that pair — which also makes
connected-component containment a corollary of the rule.

Why this instead of biconnected-component containment: iCentral's BCC
argument bounds *pair-dependency* changes for the aggregate BC score, but
per-source dependency *vectors* of sources outside the mutated BCC do
change whenever distances through an articulation point shift, so raw BCC
containment would under-approximate — the one direction the contract
forbids.  The distance rule is strictly tighter and costs one BFS per
unique touched endpoint.  :mod:`repro.incremental.biconnected` keeps the
structural machinery for diagnostics and for independent superset checks
in the test-suite.

Weighted graphs: float distance *equality* is only provably conservative
for the integral BFS metric, so weighted windows use a different rule.
Weight-only windows (every record is ``weight-changed``) run the
edge-tightness test of :func:`_weight_only_region` over per-endpoint
Dijkstra distances — a source is flagged when the mutated edge is tight
or improving from it under either the old or the new weight, within the
kernels' DAG tie band widened by :data:`_TIE_SAFETY`.  Weighted windows
containing *structural* records (edge additions/removals) keep the full
fallback: the tightness argument needs the mutated edge present in both
snapshots.

Safe fallbacks (``AffectedRegion.everything``): vertex additions or
removals (the CSR index space itself changes), directed graphs, weighted
windows with structural edge records (see above), weight records missing
either weight, journal overflow and over-budget endpoint sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.core import GraphDelta
    from repro.graphs.csr import CSRGraph

__all__ = [
    "AffectedRegion",
    "affected_sources",
    "DEFAULT_MAX_BFS",
]

#: Default cap on the number of traversal passes (BFS unweighted,
#: Dijkstra weighted) :func:`affected_sources` will spend before declaring
#: the detection over budget and falling back to
#: full invalidation (one pass per unique touched endpoint; a Brandes
#: recompute of a single retained row already costs a few passes, so a
#: large touched set quickly stops being worth scoping).
DEFAULT_MAX_BFS = 32


@dataclass
class AffectedRegion:
    """The outcome of affected-source detection for one journal window.

    ``mask`` is a boolean per-source-index array over the post-mutation
    snapshot (``True`` = the cached row for that source must be evicted),
    or ``None`` when detection fell back to "everything changed" —
    ``reason`` then names why.  ``endpoints`` records the unique touched
    endpoint indices the BFS passes ran from (receipt diagnostics).
    """

    mask: Optional["np.ndarray"]
    reason: Optional[str] = None
    endpoints: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def everything(self) -> bool:
        """Whether detection fell back to full invalidation."""
        return self.mask is None

    def count(self) -> Optional[int]:
        """Number of affected sources, or ``None`` on full fallback."""
        return None if self.mask is None else int(self.mask.sum())

    def indices(self) -> "np.ndarray":
        """The affected source indices (requires a concrete mask)."""
        if self.mask is None:
            raise ValueError("full-fallback region has no index set")
        return np.nonzero(self.mask)[0]


def _everything(reason: str) -> AffectedRegion:
    return AffectedRegion(mask=None, reason=reason)


def affected_sources(
    csr: "CSRGraph",
    deltas: Optional[Iterable["GraphDelta"]],
    *,
    max_bfs: int = DEFAULT_MAX_BFS,
) -> AffectedRegion:
    """Compute the affected-source region of a journal window.

    *csr* is the **post-mutation** snapshot; *deltas* the journal records
    since the consumer's stamped version (``None`` signals journal
    overflow).  Returns an :class:`AffectedRegion` whose mask over-
    approximates the set of sources whose dependency vectors differ from
    the pre-mutation graph — see the module docstring for the rule and
    its proof obligations.  Detection never under-approximates; every
    case it cannot prove falls back to ``everything``.
    """
    if deltas is None:
        return _everything("journal-overflow")
    deltas = tuple(deltas)
    n = csr.number_of_vertices()
    mask = np.zeros(n, dtype=bool)
    if not deltas:
        return AffectedRegion(mask=mask)
    if any(d.touches_vertices for d in deltas):
        return _everything("vertex-change")
    if csr.directed:
        return _everything("directed")
    if csr.weighted:
        if any(d.structural for d in deltas):
            return _everything("weighted")
        return _weight_only_region(csr, deltas, max_bfs=max_bfs)

    pairs = []
    for delta in deltas:
        ui = csr.find_index(delta.u)
        vi = csr.find_index(delta.v)
        if ui is None or vi is None:
            # An endpoint the final snapshot does not know (e.g. the
            # journal mixed edge ops with a removal of the endpoint that
            # the vertex-change gate somehow missed): not provable, so
            # not retained.
            return _everything("unknown-endpoint")
        pairs.append((ui, vi))

    unique = sorted({i for pair in pairs for i in pair})
    if len(unique) > max_bfs:
        return _everything("over-budget")

    from repro.shortest_paths.bfs import bfs_distances_csr

    dist = {endpoint: bfs_distances_csr(csr, endpoint)[0] for endpoint in unique}
    for ui, vi in pairs:
        # inf != inf is False: sources reaching neither endpoint are
        # provably unaffected by this pair.
        mask |= dist[ui] != dist[vi]
    return AffectedRegion(mask=mask, endpoints=tuple(unique))


#: Safety factor applied on top of the DAG tie band (``_EPSILON``) when
#: testing edge tightness.  The weighted kernels relax without a band (the
#: distances are the exact fixpoint ``min fl(d(u) + w)``) and apply the band
#: once, to those exact distances, when drawing the DAG.  A retained source
#: sits strictly outside the widened band under both weights, so the
#: mutated edge neither attains nor improves its exact fixpoint (the
#: distances are the same bits on both snapshots) and lies outside the DAG
#: band either way (the DAG, and with it every count and sum, is the
#: same).  The widening absorbs the last-ulp asymmetry of float path sums:
#: the rule evaluates ``d(endpoint, s)`` (one pass per endpoint) where the
#: kernels from source ``s`` sum the same undirected path in the opposite
#: order, and the two sums may differ by a few ulps — orders of magnitude
#: inside the band for any realistic path length.
_TIE_SAFETY = 4.0


def _weight_only_region(
    csr: "CSRGraph",
    deltas: Tuple["GraphDelta", ...],
    *,
    max_bfs: int,
) -> AffectedRegion:
    """The edge-tightness rule for weight-only journal windows.

    Every delta is a ``weight-changed`` record on the undirected weighted
    *csr* (the caller has already excluded structural, directed and
    vertex-touching windows).  A source ``s`` is flagged for a mutated
    edge ``(u, v)`` when the edge is *tight or improving* from ``s`` in
    either orientation under either the old or the new weight:

    .. math::

       d(s, a) + w \\le d(s, b) + \\text{tol}
       \\quad (a, b) \\in \\{(u, v), (v, u)\\},\\; w \\in \\{w_{old}, w_{new}\\}

    with ``d`` the **post-mutation** Dijkstra distances and ``tol`` the
    kernels' DAG tie band widened by :data:`_TIE_SAFETY`.  Why the four
    tests cover every change for an unflagged source:

    * tight under ``w_new``: the edge sits in the post-mutation shortest-
      path DAG of ``s`` (every post DAG membership is exactly post
      tightness), so path counts or accumulation may involve it — flag.
    * improving under ``w_old`` (``d(s,a) + w_old < d(s,b)``): the
      pre-mutation graph contained an ``s``-path strictly shorter than the
      post distance of ``b``, so distances changed — flag.  (Improving
      under ``w_new`` is impossible: post distances already satisfy the
      triangle inequality over the post edge.)
    * tight under ``w_old``: if distances did *not* change, the edge sat
      in the pre-mutation DAG — flag.

    For a source failing all four tests (both orientations), the post
    distance function is also valid for the pre-mutation graph — no post
    shortest path crosses a mutated edge (a crossing would be tight under
    ``w_new``), and a strictly shorter pre path would put a first mutated-
    edge crossing ``(a, b)`` with unaffected prefix at
    ``d(s,a) + w_old \\le d(s,b)``, i.e. tight-or-improving under
    ``w_old``.  The exact distances are therefore the same bits, the DAG
    rule (the band applied to those distances, inside the safety band)
    keeps the same arcs, the kernels replay the same float operations, and
    the cached row is bit-identical — the same retention contract as the
    unweighted distance rule.
    """
    pairs = []
    for delta in deltas:
        ui = csr.find_index(delta.u)
        vi = csr.find_index(delta.v)
        if ui is None or vi is None:
            return _everything("unknown-endpoint")
        if delta.old_weight is None or delta.weight is None:
            # A weight-changed record without both weights cannot be
            # validated against the tightness rule: not provable, so not
            # retained.
            return _everything("unknown-weight")
        pairs.append((ui, vi, float(delta.old_weight), float(delta.weight)))

    unique = sorted({i for ui, vi, _, _ in pairs for i in (ui, vi)})
    if len(unique) > max_bfs:
        return _everything("over-budget")

    from repro.shortest_paths.dijkstra import _EPSILON, dijkstra_distances_csr

    mask = np.zeros(csr.number_of_vertices(), dtype=bool)
    # Undirected: d(s, endpoint) == d(endpoint, s), so one Dijkstra pass
    # per unique endpoint yields the distance of *every* source to it —
    # the weighted twin of the BFS passes above, same max_bfs budget.
    dist = {
        endpoint: dijkstra_distances_csr(csr, endpoint)[0] for endpoint in unique
    }
    for ui, vi, old_weight, new_weight in pairs:
        for a, b in ((ui, vi), (vi, ui)):
            da, db = dist[a], dist[b]
            # The mutated edge keeps both endpoints in one component, so
            # finiteness agrees; the guard keeps inf arithmetic (and the
            # trivially-true inf <= inf comparison) out of the mask.
            reachable = np.isfinite(da) & np.isfinite(db)
            for w in (old_weight, new_weight):
                candidate = da + w
                slack = _TIE_SAFETY * _EPSILON * np.maximum(1.0, candidate)
                mask |= reachable & (candidate <= db + slack)
    return AffectedRegion(mask=mask, endpoints=tuple(unique))
