"""Simplified KADABRA-style path sampler (Borassi & Natale 2016).

KADABRA improves on uniform shortest-path sampling in two ways: it samples
the path with a *balanced bidirectional* BFS (touching far fewer edges per
sample on small-diameter graphs), and it decides the number of samples
*adaptively* from empirical Bernstein bounds.  The reproduction implements
the first ingredient faithfully on top of
:mod:`repro.shortest_paths.bidirectional`, and a simplified, optional
adaptive stopping rule based on the empirical Bernstein inequality — enough
to place the baseline correctly in the E1/E2 comparisons without porting the
full engineering of the original C++ code.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro._rng import RandomState, ensure_rng
from repro.errors import ConfigurationError
from repro.execution import interned_payload, run_sharded, sample_shards
from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import np
from repro.samplers.base import (
    AllVerticesEstimator,
    ExecutionPlanMixin,
    MapEstimate,
    SingleEstimate,
    SingleVertexEstimator,
    timed,
    vertex_keyed,
)
from repro.shortest_paths.bfs import _expand_level
from repro.shortest_paths.bidirectional import sample_path_interior_csr
from repro.shortest_paths.dependencies import csr_spd_builder

__all__ = ["KadabraSampler"]


class KadabraSampler(ExecutionPlanMixin, SingleVertexEstimator, AllVerticesEstimator):
    """Bidirectional-BFS shortest-path sampler with optional adaptive stopping.

    Parameters
    ----------
    adaptive:
        When ``True``, :meth:`estimate` keeps sampling until the empirical
        Bernstein radius drops below ``epsilon`` (or ``num_samples`` is
        reached, whichever comes first).  When ``False`` exactly
        ``num_samples`` samples are drawn.
    epsilon, delta:
        Accuracy / confidence targets for the adaptive stopping rule.

    The balanced bidirectional growth and the path SPD run on the
    vectorised CSR kernels, drawing pairs by dense index.
    """

    name = "kadabra"

    def __init__(
        self,
        *,
        adaptive: bool = False,
        epsilon: float = 0.01,
        delta: float = 0.1,
        n_jobs: Optional[int] = None,
    ) -> None:
        if epsilon <= 0.0:
            raise ConfigurationError("epsilon must be positive")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError("delta must be in (0, 1)")
        self.adaptive = bool(adaptive)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        #: Execution-engine knob, with the same semantics as the RK
        #: sampler: ``n_jobs`` shards the sample loop with per-shard child
        #: rng streams (results identical for any ``n_jobs``).  The adaptive stopping rule is a sequential
        #: decision over one sample stream — part of the algorithm, not a
        #: knob — so :meth:`estimate` runs it inline when ``adaptive=True``.
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------
    def _sample_path_interior_csr(self, csr, rng) -> Tuple[List[int], int]:
        """Sample the interior of one uniform shortest path between a random pair.

        Returns ``(interior_indices, touched_edges)``; the edge count is the
        work metric reported by benchmark E2 (KADABRA's selling point is a
        smaller value here, not a different estimator).  Balanced
        bidirectional growth finds the meeting level; the path itself is
        drawn from the SPD rooted at *s*, whose sigma values make it uniform
        among all shortest s-t paths.  (The full KADABRA reconstruction
        stitches the two half-searches; the simplification here changes
        constants, not the estimator.)
        """
        n = csr.number_of_vertices()
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)

        degrees = csr.degrees()
        dist_s = np.full(n, np.inf)
        dist_t = np.full(n, np.inf)
        dist_s[s] = 0.0
        dist_t[t] = 0.0
        slot = np.empty(n, dtype=np.int64)
        frontier_s = np.array([s], dtype=np.int64)
        frontier_t = np.array([t], dtype=np.int64)
        touched = 0
        met = False
        while frontier_s.size and frontier_t.size and not met:
            work_s = int(degrees[frontier_s].sum())
            work_t = int(degrees[frontier_t].sum())
            if work_s <= work_t:
                frontier_s, met = self._expand_csr(csr, degrees, frontier_s, dist_s, dist_t, slot)
                touched += work_s
            else:
                frontier_t, met = self._expand_csr(csr, degrees, frontier_t, dist_t, dist_s, slot)
                touched += work_t
        if not met:
            return [], touched

        spd = csr_spd_builder(csr)(csr, s)
        if not np.isfinite(spd.dist[t]):
            return [], touched
        return sample_path_interior_csr(spd, s, t, rng), touched

    @staticmethod
    def _expand_csr(csr, degrees, frontier, dist, other_dist, slot):
        """Vectorised one-level growth (every touched neighbour — not just
        newly discovered ones — can signal a meeting)."""
        nbrs, _, _, next_frontier = _expand_level(
            csr, degrees, frontier, dist, slot, parents=False
        )
        return next_frontier, bool(np.isfinite(other_dist[nbrs]).any())

    # ------------------------------------------------------------------
    def estimate_all(
        self,
        graph: Graph,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> MapEstimate:
        """Estimate the betweenness of all vertices from *num_samples* bb-BFS path samples."""
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        if graph.number_of_vertices() < 2:
            raise ConfigurationError("the graph must have at least two vertices")
        rng = ensure_rng(seed)
        touched_total = 0
        plan = self._plan()
        with timed() as clock:
            shards = sample_shards(num_samples, rng)
            csr = graph.csr()
            results = run_sharded(
                _kadabra_all_shard_csr,
                shards,
                n_jobs=plan.n_jobs,
                plan=plan,
                shared=interned_payload(
                    plan,
                    ("kadabra-all-csr", id(self), id(csr)),
                    lambda: (self, csr),
                ),
            )
            buffer = np.zeros(csr.number_of_vertices())
            for shard_buffer, shard_touched in results:
                buffer += shard_buffer
                touched_total += shard_touched
        diagnostics: Dict[str, object] = {
            "n_jobs": plan.n_jobs,
        }
        estimates = vertex_keyed(csr, buffer / num_samples)
        diagnostics["touched_edges"] = touched_total
        return MapEstimate(
            estimates=estimates,
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    def estimate(
        self,
        graph: Graph,
        r: Vertex,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> SingleEstimate:
        """Estimate ``BC(r)``; with ``adaptive=True`` sampling may stop early."""
        graph.validate_vertex(r)
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        rng = ensure_rng(seed)
        hits = 0.0
        drawn = 0
        touched_total = 0
        plan = self._plan()
        if not self.adaptive:
            with timed() as clock:
                shards = sample_shards(num_samples, rng)
                csr = graph.csr()
                results = run_sharded(
                    _kadabra_hits_shard_csr,
                    shards,
                    n_jobs=plan.n_jobs,
                    plan=plan,
                    shared=interned_payload(
                        plan,
                        ("kadabra-hits-csr", id(self), id(csr), csr.index_of(r)),
                        lambda: (self, csr, csr.index_of(r)),
                    ),
                )
                for shard_hits, shard_touched in results:
                    hits += shard_hits
                    touched_total += shard_touched
                drawn = num_samples
            return SingleEstimate(
                vertex=r,
                estimate=hits / drawn,
                samples=drawn,
                elapsed_seconds=clock.elapsed,
                method=self.name,
                diagnostics={
                    "hits": hits,
                    "touched_edges": touched_total,
                    "adaptive": self.adaptive,
                    "n_jobs": plan.n_jobs,
                },
            )
        with timed() as clock:
            csr = graph.csr()
            r_index = csr.index_of(r)
            for i in range(1, num_samples + 1):
                interior, touched = self._sample_path_interior_csr(csr, rng)
                touched_total += touched
                if r_index in interior:
                    hits += 1.0
                drawn = i
                if self.adaptive and i >= 30 and self._bernstein_radius(hits, i) <= self.epsilon:
                    break
        return SingleEstimate(
            vertex=r,
            estimate=hits / drawn,
            samples=drawn,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics={
                "hits": hits,
                "touched_edges": touched_total,
                "adaptive": self.adaptive,
            },
        )

    # ------------------------------------------------------------------
    def _bernstein_radius(self, hits: float, n: int) -> float:
        """Empirical Bernstein confidence radius for a Bernoulli mean after *n* samples."""
        mean = hits / n
        variance = mean * (1.0 - mean)
        log_term = math.log(3.0 / self.delta)
        return math.sqrt(2.0 * variance * log_term / n) + 3.0 * log_term / n


# ----------------------------------------------------------------------
# Shard workers (module-level so the multiprocessing pool can pickle them).
# Each shard is a ``(sample_count, shard_rng)`` pair; every worker returns
# ``(accumulator, touched_edges)``.
# ----------------------------------------------------------------------
def _kadabra_all_shard_csr(shared, shard):
    sampler, csr = shared
    count, rng = shard
    buffer = np.zeros(csr.number_of_vertices())
    touched_total = 0
    for _ in range(count):
        interior, touched = sampler._sample_path_interior_csr(csr, rng)
        touched_total += touched
        for i in interior:
            buffer[i] += 1.0
    return buffer, touched_total


def _kadabra_hits_shard_csr(shared, shard):
    sampler, csr, r_index = shared
    count, rng = shard
    hits = 0.0
    touched_total = 0
    for _ in range(count):
        interior, touched = sampler._sample_path_interior_csr(csr, rng)
        touched_total += touched
        if r_index in interior:
            hits += 1.0
    return hits, touched_total
