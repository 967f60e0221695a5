"""Dict-kernel reference estimators for the CSR-vs-reference test-suite.

Every estimator in the library runs on CSR snapshots.  This module keeps one
plain, sequential loop per estimator written against the dict-backed kernels
of :mod:`repro.shortest_paths` (``bfs_spd`` / ``dijkstra_spd`` plus the
Brandes accumulation over vertex-keyed dicts).  The loops draw from the rng
exactly as the library's estimators do — sources, pairs and proposal
candidates are picked by position in ``graph.vertices()``, the same dense
order the CSR snapshot uses, and the path samplers (RK, KADABRA) draw
through the same :func:`~repro.execution.sample_shards` child streams — so
for a fixed seed a reference estimate matches the library's up to
floating-point accumulation order.

The Metropolis-Hastings family needs no loop of its own: the unchanged
samplers accept an injected oracle, and :class:`DictDependencyOracle`
answers their dependency queries through the dict kernels
(:class:`DictOracleMHSampler` injects it wherever a driver builds oracles).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro._rng import RandomState, ensure_rng
from repro.centrality.api import MCMC_SINGLE_METHODS, SINGLE_VERTEX_METHODS
from repro.exact.brandes import normalization_factor
from repro.execution import sample_shards
from repro.graphs.core import Graph, Vertex
from repro.mcmc.single import SingleSpaceMHSampler
from repro.shortest_paths import (
    accumulate_dependencies,
    accumulate_edge_dependencies,
    bfs_distances,
    dependency_on_target,
    dijkstra_distances,
    spd_builder,
)
from repro.shortest_paths.spd import ShortestPathDAG

__all__ = [
    "DictDependencyOracle",
    "DictOracleMHSampler",
    "reference_estimate",
    "reference_betweenness",
    "reference_edge_dependencies",
    "reference_group_betweenness",
]


class DictDependencyOracle:
    """Uncached dependency oracle over the dict kernels.

    Duck-types the parts of :class:`repro.mcmc.estimates.DependencyOracle`
    the sequential MH samplers use (``dependency``, ``dependencies_for``,
    ``prefetch`` and the ``evaluations`` counter).  Unknown targets read as
    0.0, like the library oracle.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._build = spd_builder(graph)
        self.evaluations = 0
        self.lookups = 0

    def _vector(self, source: Vertex) -> Dict[Vertex, float]:
        self.lookups += 1
        self.evaluations += 1
        return accumulate_dependencies(self._build(self._graph, source))

    def prefetch(self, sources) -> int:
        return 0

    def dependency(self, source: Vertex, target: Vertex) -> float:
        if source == target:
            return 0.0
        return self._vector(source).get(target, 0.0)

    def dependencies_for(self, source: Vertex, targets) -> Dict[Vertex, float]:
        vector = self._vector(source)
        return {t: (0.0 if t == source else vector.get(t, 0.0)) for t in targets}


class DictOracleMHSampler(SingleSpaceMHSampler):
    """The unchanged MH sampler, building :class:`DictDependencyOracle` oracles.

    Lets drivers that construct their own oracles (the multi-chain driver)
    run against the dict kernels.
    """

    def build_oracle(self, graph: Graph, *, shared_store=None) -> DictDependencyOracle:
        return DictDependencyOracle(graph)


# ----------------------------------------------------------------------
# Baselines: one sequential loop each
# ----------------------------------------------------------------------
def _uniform_source(graph: Graph, r: Vertex, samples: int, rng) -> float:
    build = spd_builder(graph)
    vertices = graph.vertices()
    sources = [vertices[rng.randrange(len(vertices))] for _ in range(samples)]
    total = 0.0
    for s in sources:
        if s == r:
            continue
        total += accumulate_dependencies(build(graph, s)).get(r, 0.0)
    return total / (samples * max(len(vertices) - 1, 1))


def _distance_mass(graph: Graph, r: Vertex) -> Dict[Vertex, float]:
    distances = (dijkstra_distances if graph.weighted else bfs_distances)(graph, r)
    return {v: d for v, d in distances.items() if v != r and d != float("inf")}


def _distance(graph: Graph, r: Vertex, samples: int, rng) -> float:
    masses = {v: m for v, m in _distance_mass(graph, r).items() if m > 0.0}
    total_mass = sum(masses.values())
    vertices = list(masses)
    weights = [masses[v] for v in vertices]
    total = 0.0
    for _ in range(samples):
        s = rng.choices(vertices, weights=weights, k=1)[0]
        total += dependency_on_target(graph, s, r) / (masses[s] / total_mass)
    n = graph.number_of_vertices()
    return total / (samples * n * max(n - 1, 1))


def _backtrack(spd: ShortestPathDAG, s: Vertex, t: Vertex, rng) -> List[Vertex]:
    """Interior of one uniform shortest s→t path, from *t* backwards."""
    interior: List[Vertex] = []
    current = t
    while True:
        parents = spd.parents(current)
        if not parents:
            break
        weights = [spd.sigma[p] for p in parents]
        pick = rng.random() * sum(weights)
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
    return interior


def _random_pair(graph: Graph, rng) -> Tuple[Vertex, Vertex]:
    vertices = graph.vertices()
    n = len(vertices)
    s = vertices[rng.randrange(n)]
    t = vertices[rng.randrange(n)]
    while t == s:
        t = vertices[rng.randrange(n)]
    return s, t


def _sharded_streams(samples: int, rng):
    """One child stream per sample, following the library's shard boundaries."""
    for count, shard_rng in sample_shards(samples, rng):
        for _ in range(count):
            yield shard_rng


def _rk(graph: Graph, r: Vertex, samples: int, rng) -> float:
    build = spd_builder(graph)
    hits = 0.0
    for sample_rng in _sharded_streams(samples, rng):
        s, t = _random_pair(graph, sample_rng)
        spd = build(graph, s)
        if spd.is_reachable(t) and r in _backtrack(spd, s, t, sample_rng):
            hits += 1.0
    return hits / samples


def _expand(graph: Graph, frontier, dist, other_dist):
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


def _kadabra(graph: Graph, r: Vertex, samples: int, rng) -> float:
    build = spd_builder(graph)
    hits = 0.0
    for sample_rng in _sharded_streams(samples, rng):
        s, t = _random_pair(graph, sample_rng)
        dist_s: Dict[Vertex, float] = {s: 0.0}
        dist_t: Dict[Vertex, float] = {t: 0.0}
        frontier_s, frontier_t = [s], [t]
        met = False
        while frontier_s and frontier_t and not met:
            work_s = sum(graph.degree(v) for v in frontier_s)
            work_t = sum(graph.degree(v) for v in frontier_t)
            if work_s <= work_t:
                frontier_s, met = _expand(graph, frontier_s, dist_s, dist_t)
            else:
                frontier_t, met = _expand(graph, frontier_t, dist_t, dist_s)
        if not met:
            continue
        spd = build(graph, s)
        if spd.is_reachable(t) and r in _backtrack(spd, s, t, sample_rng):
            hits += 1.0
    return hits / samples


_BASELINES = {
    "uniform-source": _uniform_source,
    "distance": _distance,
    "rk": _rk,
    "kadabra": _kadabra,
}


def reference_estimate(
    graph: Graph, r: Vertex, method: str, samples: int, seed: RandomState
) -> float:
    """Dict-kernel twin of ``betweenness_single(graph, r, method=...)``.

    Covers every method of :data:`SINGLE_VERTEX_METHODS`; no execution knob
    changes a library estimate, so one reference loop serves them all.
    """
    assert set(SINGLE_VERTEX_METHODS) == set(_BASELINES) | set(MCMC_SINGLE_METHODS)
    if method in MCMC_SINGLE_METHODS:
        sampler = SINGLE_VERTEX_METHODS[method]()
        oracle = DictDependencyOracle(graph)
        return sampler.estimate(graph, r, samples, seed=seed, oracle=oracle).estimate
    return _BASELINES[method](graph, r, samples, ensure_rng(seed))


# ----------------------------------------------------------------------
# Exact references
# ----------------------------------------------------------------------
def reference_betweenness(graph: Graph, normalization: str = "paper") -> Dict[Vertex, float]:
    """Brandes over the dict kernels: every source, every vertex."""
    build = spd_builder(graph)
    scores: Dict[Vertex, float] = {v: 0.0 for v in graph.vertices()}
    for s in graph.vertices():
        for v, delta in accumulate_dependencies(build(graph, s)).items():
            if v != s:
                scores[v] += delta
    factor = normalization_factor(
        graph.number_of_vertices(), normalization, directed=graph.directed
    )
    return {v: score * factor for v, score in scores.items()}


def reference_edge_dependencies(graph: Graph, edge) -> Dict[Vertex, float]:
    """``{v: delta_{v.}(edge)}`` over the dict kernels, both DAG orientations summed."""
    a, b = edge
    build = spd_builder(graph)
    result: Dict[Vertex, float] = {}
    for v in graph.vertices():
        edge_deltas = accumulate_edge_dependencies(build(graph, v))
        result[v] = edge_deltas.get((a, b), 0.0) + edge_deltas.get((b, a), 0.0)
    return result


def _avoid_counts(spd: ShortestPathDAG, group: Set[Vertex]) -> Dict[Vertex, float]:
    """Per target, the number of shortest source→target paths avoiding *group*."""
    avoid: Dict[Vertex, float] = {spd.source: 0.0 if spd.source in group else 1.0}
    for t in spd.order:
        if t == spd.source:
            continue
        if t in group:
            avoid[t] = 0.0
            continue
        avoid[t] = sum(avoid.get(p, 0.0) for p in spd.predecessors.get(t, []))
    return avoid


def reference_group_betweenness(graph: Graph, group, normalized: bool = True) -> float:
    """Group betweenness over the dict kernels (paths through >= 1 member)."""
    members = set(group)
    build = spd_builder(graph)
    total = 0.0
    for s in graph.vertices():
        if s in members:
            continue
        spd = build(graph, s)
        avoiding = _avoid_counts(spd, members)
        for t in spd.order:
            if t == s or t in members:
                continue
            sigma = spd.sigma[t]
            if sigma <= 0.0:
                continue
            through = sigma - avoiding.get(t, 0.0)
            if through > 0.0:
                total += through / sigma
    n = graph.number_of_vertices()
    if normalized and n > 1:
        total /= n * (n - 1)
    return total
