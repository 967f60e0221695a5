"""Extension: Metropolis-Hastings estimation of the betweenness of a single edge.

The paper's conclusion suggests extending the technique to other indices.
Edge betweenness is the closest relative: the Girvan–Newman loop from the
paper's introduction needs the most-between *edge*, and the machinery
carries over verbatim — the dependency score of a source vertex *v* on an
edge *e* plays the role δ_v•(r) played for a vertex:

.. math::

   \\delta_{v\\bullet}(e) = \\sum_{t} \\frac{\\sigma_{vt}(e)}{\\sigma_{vt}},
   \\qquad
   BC(e) = \\frac{1}{|V|(|V|-1)} \\sum_{v} \\delta_{v\\bullet}(e).

The sampler below runs the same Independence Metropolis-Hastings chain over
source vertices with acceptance ratio δ_v'•(e)/δ_v•(e) and exposes the same
two read-outs as the vertex sampler (the faithful chain average and the
corrected proposal average).  It is *not* part of the published algorithm —
it demonstrates that the framework generalises, as the conclusion
anticipates — and is exercised by its own tests and the example in
``examples/community_detection.py``'s approximate variant.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro._rng import RandomState, ensure_rng
from repro.errors import ConfigurationError, EdgeNotFoundError, SamplingError
from repro.graphs.core import Graph, Vertex
from repro.mcmc.single import state_contribution
from repro.samplers.base import SingleEstimate, timed
from repro.shortest_paths.dependencies import csr_edge_dependency, csr_spd_builder

__all__ = ["EdgeDependencyOracle", "EdgeMHSampler", "exact_edge_dependency_vector"]

EdgeKey = Tuple[Vertex, Vertex]


class EdgeDependencyOracle:
    """Evaluate (and cache) per-source dependency scores on a fixed edge.

    Each evaluation builds an array-backed SPD and reads the two possible
    DAG orientations of the edge straight from the predecessor arrays
    (:func:`csr_edge_dependency`).
    """

    def __init__(
        self,
        graph: Graph,
        edge: EdgeKey,
        *,
        cache_size: Optional[int] = None,
    ) -> None:
        a, b = edge
        if not graph.has_edge(a, b):
            raise EdgeNotFoundError(a, b)
        self._graph = graph
        self._edge = (a, b)
        self._csr = graph.csr()
        self._csr_build = csr_spd_builder(self._csr)
        self._edge_indices = (self._csr.index_of(a), self._csr.index_of(b))
        self._cache: "OrderedDict[Vertex, float]" = OrderedDict()
        self._cache_size = cache_size
        self.evaluations = 0
        self.lookups = 0

    @property
    def edge(self) -> EdgeKey:
        """The edge whose dependencies are being evaluated."""
        return self._edge

    def dependency(self, source: Vertex) -> float:
        """Return δ_{source·}(edge)."""
        self.lookups += 1
        cache_enabled = self._cache_size is None or self._cache_size > 0
        if cache_enabled and source in self._cache:
            self._cache.move_to_end(source)
            return self._cache[source]
        self.evaluations += 1
        spd = self._csr_build(self._csr, self._csr.index_of(source))
        value = csr_edge_dependency(spd, *self._edge_indices)
        if cache_enabled:
            self._cache[source] = value
            if self._cache_size is not None and len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return value


def exact_edge_dependency_vector(graph: Graph, edge: EdgeKey) -> Dict[Vertex, float]:
    """Return ``{v: delta_{v.}(edge)}`` for every source vertex (exact, O(|V||E|))."""
    oracle = EdgeDependencyOracle(graph, edge, cache_size=None)
    return {v: oracle.dependency(v) for v in graph.vertices()}


@dataclass
class EdgeChainState:
    """One state of the edge chain (mirrors :class:`repro.mcmc.single.ChainState`)."""

    iteration: int
    vertex: Vertex
    dependency: float
    accepted: bool
    proposal_dependency: float


class EdgeMHSampler:
    """Independence Metropolis-Hastings estimator of the betweenness of one edge.

    Parameters mirror :class:`repro.mcmc.single.SingleSpaceMHSampler` with the
    uniform proposal only; ``estimator`` selects the read-out (``"chain"`` for
    the Equation 7 analogue, ``"proposal"`` for the corrected variant).
    """

    name = "mh-edge"

    def __init__(
        self,
        *,
        estimator: str = "proposal",
        cache_size: Optional[int] = None,
    ) -> None:
        if estimator not in ("chain", "proposal"):
            raise ConfigurationError("estimator must be 'chain' or 'proposal'")
        self.estimator = estimator
        self.cache_size = cache_size

    # ------------------------------------------------------------------
    def build_oracle(self, graph: Graph, edge: EdgeKey) -> EdgeDependencyOracle:
        """Return an :class:`EdgeDependencyOracle` configured like this sampler's private one."""
        return EdgeDependencyOracle(graph, edge, cache_size=self.cache_size)

    def run_chain(
        self,
        graph: Graph,
        edge: EdgeKey,
        num_iterations: int,
        *,
        seed: RandomState = None,
        oracle: Optional[EdgeDependencyOracle] = None,
    ) -> List[EdgeChainState]:
        """Run the chain and return its full state record."""
        if num_iterations < 1:
            raise ConfigurationError("num_iterations must be at least 1")
        rng = ensure_rng(seed)
        oracle = oracle or self.build_oracle(graph, edge)
        vertices = graph.vertices()
        if len(vertices) < 2:
            raise SamplingError("the graph must contain at least two vertices")

        current = vertices[rng.randrange(len(vertices))]
        current_delta = oracle.dependency(current)
        states = [
            EdgeChainState(
                iteration=0,
                vertex=current,
                dependency=current_delta,
                accepted=True,
                proposal_dependency=current_delta,
            )
        ]
        for t in range(1, num_iterations + 1):
            candidate = vertices[rng.randrange(len(vertices))]
            candidate_delta = oracle.dependency(candidate)
            # One uniform draw per proposal, unconditionally — see
            # SingleSpaceMHSampler._advance for why a conditional draw breaks
            # rng-stream identity with the reference.
            u = rng.random()
            if current_delta <= 0.0:
                accepted = True
            elif candidate_delta >= current_delta:
                accepted = True
            else:
                accepted = u < candidate_delta / current_delta
            if accepted:
                current, current_delta = candidate, candidate_delta
            states.append(
                EdgeChainState(
                    iteration=t,
                    vertex=current,
                    dependency=current_delta,
                    accepted=accepted,
                    proposal_dependency=candidate_delta,
                )
            )
        return states

    # ------------------------------------------------------------------
    def estimate(
        self,
        graph: Graph,
        edge: EdgeKey,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> SingleEstimate:
        """Return the edge-betweenness estimate for *edge* from a chain of length *num_samples*."""
        a, b = edge
        if not graph.has_edge(a, b):
            raise EdgeNotFoundError(a, b)
        n = graph.number_of_vertices()
        with timed() as clock:
            states = self.run_chain(graph, edge, num_samples, seed=seed)
            total = sum(state_contribution(s, self.estimator) for s in states)
            # The per-source dependency on an edge sums pair fractions over
            # targets, so dividing by n(n-1) * (states) gives the paper-scale
            # edge betweenness; the (n-1) factor is folded into the source
            # average exactly as in Equation 7.
            estimate = total / (len(states) * max(n - 1, 1))
        acceptance = (
            sum(1 for s in states[1:] if s.accepted) / max(len(states) - 1, 1)
        )
        return SingleEstimate(
            vertex=edge,
            estimate=estimate,
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics={"acceptance_rate": acceptance, "estimator": self.estimator},
        )
