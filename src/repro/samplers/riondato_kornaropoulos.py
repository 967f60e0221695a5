"""Shortest-path sampling of Riondato & Kornaropoulos (2016).

The strongest sampling baseline surveyed in Section 3.2 of the paper: draw a
pair of distinct vertices uniformly at random, sample one of the shortest
paths between them uniformly, and credit every *internal* vertex of the
sampled path.  The expectation of the per-vertex indicator is exactly the
paper-normalised betweenness, and the number of samples needed for a uniform
(ε, δ)-guarantee over all vertices follows from the VC-dimension bound

.. math::

   T \\ge \\frac{c}{\\epsilon^2}\\Bigl(\\lfloor \\log_2 (VD(G) - 2) \\rfloor
            + 1 + \\ln\\frac{1}{\\delta}\\Bigr),

where ``VD(G)`` is the vertex diameter (number of vertices on the longest
shortest path) and ``c ≈ 0.5`` is the universal constant.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro._rng import RandomState, ensure_rng
from repro.errors import ConfigurationError
from repro.execution import (
    interned_payload,
    merge_ordered,
    run_sharded,
    sample_shards,
)
from repro.graphs.components import connected_components
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
from repro.shortest_paths.bfs import bfs_distances_csr
from repro.shortest_paths.bidirectional import sample_path_interior_csr
from repro.shortest_paths.dependencies import csr_spd_builder

__all__ = ["RiondatoKornaropoulosSampler", "vertex_diameter_estimate", "rk_sample_size"]

#: Universal constant of the VC sample-size bound (Riondato & Kornaropoulos
#: use c = 0.5 following Löffler & Phillips).
RK_CONSTANT = 0.5


def vertex_diameter_estimate(graph: Graph, seed: RandomState = None) -> int:
    """Return an upper bound on the vertex diameter ``VD(G)``.

    For unweighted undirected graphs the classic 2-approximation runs per
    connected component: a BFS from one vertex of the component reaches
    all of it within ``ecc`` hops, so no shortest path there has more than
    ``2 * ecc + 1`` vertices.  The first BFS starts at a random vertex,
    each later one at the lowest-indexed vertex not yet reached, and the
    bound is the largest over the components.  BFS hops bound neither
    directed reach nor the hops of a weighted shortest path, so directed or
    weighted graphs get the size of their largest (weakly) connected
    component (Riondato & Kornaropoulos, WSDM 2014).  The bound never
    under-estimates, which keeps the (ε, δ) guarantee valid at the price
    of a few extra samples.
    """
    n = graph.number_of_vertices()
    if n < 2:
        return max(n, 1)
    if graph.directed or graph.weighted:
        return max(len(component) for component in connected_components(graph))
    rng = ensure_rng(seed)
    csr = graph.csr()
    start = rng.randrange(n)
    # Isolated vertices bound nothing beyond the 1 every component gives.
    reached = csr.degrees() == 0
    eccentricity = 0.0
    lowest = 0
    while True:
        dist, order = bfs_distances_csr(csr, start)
        reached[order] = True
        eccentricity = max(eccentricity, float(dist[order[-1]]))
        while lowest < n and reached[lowest]:
            lowest += 1
        if lowest == n:
            return int(2 * eccentricity + 1)
        start = lowest


def rk_sample_size(
    vertex_diameter: int, epsilon: float, delta: float, constant: float = RK_CONSTANT
) -> int:
    """Return the VC-dimension sample size for the requested accuracy.

    Parameters mirror the formula in the module docstring; ``vertex_diameter``
    below 3 degenerates to the additive Hoeffding term only.
    """
    if epsilon <= 0.0:
        raise ConfigurationError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must be in (0, 1)")
    vc_term = math.floor(math.log2(vertex_diameter - 2)) + 1 if vertex_diameter > 3 else 1
    return int(math.ceil(constant / (epsilon * epsilon) * (vc_term + math.log(1.0 / delta))))


class RiondatoKornaropoulosSampler(ExecutionPlanMixin, SingleVertexEstimator, AllVerticesEstimator):
    """Uniform shortest-path sampling estimator for all vertices (or one).

    Pairs are drawn by dense index, the SPD is built by the vectorised CSR
    kernels and hits are accumulated into a numpy buffer.
    """

    name = "riondato-kornaropoulos"

    def __init__(
        self,
        *,
        n_jobs: Optional[int] = None,
    ) -> None:
        #: Execution-engine knob.  ``n_jobs`` spreads the sample loop over
        #: worker processes: samples are cut into fixed shards, each shard
        #: drawing from its own child rng stream
        #: (:func:`repro.execution.sample_shards`), so the estimate is
        #: identical for any ``n_jobs``.  Path sampling interleaves rng
        #: draws with each traversal, so its SPD builds are not batched.
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------
    @staticmethod
    def _sample_internal_indices(csr, rng) -> list:
        """Sample one shortest path between a uniform pair; return its interior indices."""
        n = csr.number_of_vertices()
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        spd = csr_spd_builder(csr)(csr, s)
        if not np.isfinite(spd.dist[t]):
            return []
        return sample_path_interior_csr(spd, s, t, rng)

    # ------------------------------------------------------------------
    def estimate_all(
        self,
        graph: Graph,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> MapEstimate:
        """Estimate the betweenness of every vertex from *num_samples* sampled paths."""
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        if graph.number_of_vertices() < 2:
            raise ConfigurationError("the graph must have at least two vertices")
        rng = ensure_rng(seed)
        plan = self._plan()
        with timed() as clock:
            shards = sample_shards(num_samples, rng)
            csr = graph.csr()
            buffer = merge_ordered(
                run_sharded(
                    _rk_all_shard_csr, shards, n_jobs=plan.n_jobs, plan=plan, shared=csr
                )
            )
        diagnostics: Dict[str, object] = {
            "n_jobs": plan.n_jobs,
        }
        estimates = vertex_keyed(csr, buffer / num_samples)
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
        """Estimate ``BC(r)``: same sampling, read-out restricted to *r*."""
        graph.validate_vertex(r)
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        rng = ensure_rng(seed)
        plan = self._plan()
        with timed() as clock:
            shards = sample_shards(num_samples, rng)
            csr = graph.csr()
            hits = merge_ordered(
                run_sharded(
                    _rk_hits_shard_csr,
                    shards,
                    n_jobs=plan.n_jobs,
                    plan=plan,
                    shared=interned_payload(
                        plan,
                        ("rk-hits-csr", id(csr), csr.index_of(r)),
                        lambda: (csr, csr.index_of(r)),
                    ),
                )
            )
        diagnostics: Dict[str, object] = {
            "n_jobs": plan.n_jobs,
            "hits": hits,
        }
        return SingleEstimate(
            vertex=r,
            estimate=hits / num_samples,
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    def samples_for_accuracy(
        self, graph: Graph, epsilon: float, delta: float, *, seed: RandomState = None
    ) -> int:
        """Return the VC-bound sample size for an (ε, δ)-guarantee on *graph*."""
        return rk_sample_size(vertex_diameter_estimate(graph, seed), epsilon, delta)


# ----------------------------------------------------------------------
# Shard workers (module-level so the multiprocessing pool can pickle them).
# Each shard is a ``(sample_count, shard_rng)`` pair from
# ``repro.execution.sample_shards``.
# ----------------------------------------------------------------------
def _rk_all_shard_csr(shared, shard):
    csr = shared
    count, rng = shard
    buffer = np.zeros(csr.number_of_vertices())
    for _ in range(count):
        for i in RiondatoKornaropoulosSampler._sample_internal_indices(csr, rng):
            buffer[i] += 1.0
    return buffer


def _rk_hits_shard_csr(shared, shard) -> float:
    csr, r_index = shared
    count, rng = shard
    hits = 0.0
    for _ in range(count):
        if r_index in RiondatoKornaropoulosSampler._sample_internal_indices(csr, rng):
            hits += 1.0
    return hits
