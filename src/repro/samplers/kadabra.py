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
from repro.execution import interned_payload, plan_snapshot, run_sharded, sample_shards
from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import np, resolve_backend
from repro.samplers.base import (
    AllVerticesEstimator,
    ExecutionPlanMixin,
    MapEstimate,
    SingleEstimate,
    SingleVertexEstimator,
    timed,
    vertex_keyed,
)
from repro.shortest_paths.bfs import _expand_level, bfs_spd
from repro.shortest_paths.bidirectional import sample_path_interior_csr
from repro.shortest_paths.dependencies import csr_spd_builder
from repro.shortest_paths.dijkstra import dijkstra_spd

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
    backend:
        ``"auto"`` / ``"dict"`` / ``"csr"``.  The CSR backend runs the
        balanced bidirectional growth and the path SPD on the vectorised
        kernels, drawing pairs by dense index with the same rng stream as
        the dict backend (identical samples for a fixed seed).
    """

    name = "kadabra"

    def __init__(
        self,
        *,
        adaptive: bool = False,
        epsilon: float = 0.01,
        delta: float = 0.1,
        backend: str = "auto",
        batch_size: Optional[int] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        if epsilon <= 0.0:
            raise ConfigurationError("epsilon must be positive")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError("delta must be in (0, 1)")
        self.adaptive = bool(adaptive)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.backend = backend
        #: Execution-engine knobs, with the same semantics as the RK
        #: sampler: ``n_jobs`` shards the sample loop with per-shard child
        #: rng streams (results identical for any ``n_jobs``, but a
        #: different stream than the sequential path); ``batch_size`` is
        #: accepted for uniformity and unused (per-sample rng interleaving).
        #: The adaptive stopping rule is a sequential decision over the
        #: global sample stream, so :meth:`estimate` ignores the engine when
        #: ``adaptive=True``.
        self.batch_size = batch_size
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------
    def _sample_path_interior(self, graph: Graph, rng) -> Tuple[List[Vertex], int]:
        """Sample the interior of one uniform shortest path between a random pair.

        Returns ``(interior_vertices, touched_edges)``; the edge count is the
        work metric reported by benchmark E2 (KADABRA's selling point is a
        smaller value here, not a different estimator).
        """
        vertices = graph.vertices()
        n = len(vertices)
        s = vertices[rng.randrange(n)]
        t = vertices[rng.randrange(n)]
        while t == s:
            t = vertices[rng.randrange(n)]

        # Balanced bidirectional growth to find the meeting level, counting
        # touched edges as the work measure.
        dist_s: Dict[Vertex, float] = {s: 0.0}
        dist_t: Dict[Vertex, float] = {t: 0.0}
        frontier_s, frontier_t = [s], [t]
        touched = 0
        met = False
        while frontier_s and frontier_t and not met:
            work_s = sum(graph.degree(v) for v in frontier_s)
            work_t = sum(graph.degree(v) for v in frontier_t)
            if work_s <= work_t:
                frontier_s, hit = self._expand(graph, frontier_s, dist_s, dist_t)
                touched += work_s
            else:
                frontier_t, hit = self._expand(graph, frontier_t, dist_t, dist_s)
                touched += work_t
            met = hit
        if not met:
            return [], touched

        # For the path itself fall back to the SPD rooted at s: the sampled
        # path must be uniform among all shortest s-t paths, and the SPD
        # gives the sigma values needed for that guarantee.  (The full
        # KADABRA reconstruction stitches the two half-searches; the
        # simplification here changes constants, not the estimator.)
        spd = dijkstra_spd(graph, s) if graph.weighted else bfs_spd(graph, s)
        if not spd.is_reachable(t):
            return [], touched
        interior: List[Vertex] = []
        current = t
        while True:
            parents = spd.parents(current)
            if not parents:
                break
            weights = [spd.sigma[p] for p in parents]
            total = sum(weights)
            pick = rng.random() * total
            cumulative = 0.0
            chosen = parents[-1]
            for parent, weight in zip(parents, weights):
                cumulative += weight
                if pick <= cumulative:
                    chosen = parent
                    break
            if chosen == s:
                break
            interior.append(chosen)
            current = chosen
        return interior, touched

    @staticmethod
    def _expand(graph, frontier, dist, other_dist):
        next_frontier = []
        met = False
        level = dist[frontier[0]]
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = level + 1.0
                    next_frontier.append(v)
                if v in other_dist:
                    met = True
        return next_frontier, met

    # ------------------------------------------------------------------
    def _sample_path_interior_csr(self, csr, rng) -> Tuple[List[int], int]:
        """Index-space twin of :meth:`_sample_path_interior` on a CSR snapshot."""
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
        """Vectorised one-level growth; mirrors :meth:`_expand` (every touched
        neighbour — not just newly discovered ones — can signal a meeting)."""
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
        backend = resolve_backend(self.backend)
        plan = self._plan()
        diagnostics: Dict[str, object] = {"backend": backend}
        if plan is not None:
            with timed() as clock:
                shards = sample_shards(num_samples, rng)
                if backend == "csr":
                    csr = plan_snapshot(graph, plan)
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
                    estimates = vertex_keyed(csr, buffer / num_samples)
                else:
                    results = run_sharded(
                        _kadabra_all_shard_dict,
                        shards,
                        n_jobs=plan.n_jobs,
                        plan=plan,
                        shared=interned_payload(
                            plan,
                            ("kadabra-all-dict", id(self), id(graph), graph.version),
                            lambda: (self, graph),
                        ),
                    )
                    counts = {v: 0.0 for v in graph.vertices()}
                    for shard_counts, shard_touched in results:
                        touched_total += shard_touched
                        for v, c in shard_counts.items():
                            counts[v] += c
                    estimates = {v: c / num_samples for v, c in counts.items()}
            diagnostics.update(n_jobs=plan.n_jobs, batch_size=plan.batch_size)
        elif backend == "csr":
            with timed() as clock:
                csr = graph.csr()
                buffer = np.zeros(csr.number_of_vertices())
                for _ in range(num_samples):
                    interior, touched = self._sample_path_interior_csr(csr, rng)
                    touched_total += touched
                    for i in interior:
                        buffer[i] += 1.0
            estimates = vertex_keyed(csr, buffer / num_samples)
        else:
            counts: Dict[Vertex, float] = {v: 0.0 for v in graph.vertices()}
            with timed() as clock:
                for _ in range(num_samples):
                    interior, touched = self._sample_path_interior(graph, rng)
                    touched_total += touched
                    for v in interior:
                        counts[v] += 1.0
            estimates = {v: c / num_samples for v, c in counts.items()}
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
        backend = resolve_backend(self.backend)
        plan = self._plan()
        if plan is not None and not self.adaptive:
            with timed() as clock:
                shards = sample_shards(num_samples, rng)
                if backend == "csr":
                    csr = plan_snapshot(graph, plan)
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
                else:
                    results = run_sharded(
                        _kadabra_hits_shard_dict,
                        shards,
                        n_jobs=plan.n_jobs,
                        plan=plan,
                        shared=interned_payload(
                            plan,
                            ("kadabra-hits-dict", id(self), id(graph), graph.version, r),
                            lambda: (self, graph, r),
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
                    "backend": backend,
                    "n_jobs": plan.n_jobs,
                    "batch_size": plan.batch_size,
                },
            )
        with timed() as clock:
            csr = graph.csr() if backend == "csr" else None
            r_index = csr.index_of(r) if csr is not None else None
            for i in range(1, num_samples + 1):
                if csr is not None:
                    interior, touched = self._sample_path_interior_csr(csr, rng)
                    hit = r_index in interior
                else:
                    interior, touched = self._sample_path_interior(graph, rng)
                    hit = r in interior
                touched_total += touched
                if hit:
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
                "backend": backend,
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


def _kadabra_all_shard_dict(shared, shard):
    sampler, graph = shared
    count, rng = shard
    counts: Dict[Vertex, float] = {v: 0.0 for v in graph.vertices()}
    touched_total = 0
    for _ in range(count):
        interior, touched = sampler._sample_path_interior(graph, rng)
        touched_total += touched
        for v in interior:
            counts[v] += 1.0
    return counts, touched_total


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


def _kadabra_hits_shard_dict(shared, shard):
    sampler, graph, r = shared
    count, rng = shard
    hits = 0.0
    touched_total = 0
    for _ in range(count):
        interior, touched = sampler._sample_path_interior(graph, rng)
        touched_total += touched
        if r in interior:
            hits += 1.0
    return hits, touched_total
