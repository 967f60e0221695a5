"""Dict-kernel reference estimators for the CSR-vs-reference test-suite.

Every estimator in the library runs on CSR snapshots.  This module holds
the dict-backed shortest-path kernels (:class:`ShortestPathDAG`,
``bfs_spd`` / ``dijkstra_spd``, the Brandes accumulation over vertex-keyed
dicts, the bidirectional pair query and explicit path enumeration) and one
plain, sequential loop per estimator written against them;
:func:`dag_from_csr` turns a library SPD into a dict DAG for tests that
compare the two field by field.  The loops draw from the rng
exactly as the library's estimators do — sources, pairs and proposal
candidates are picked by position in ``graph.vertices()``, the same dense
order the CSR snapshot uses, and the path samplers (RK, KADABRA) draw
through the same :func:`~repro.execution.sample_shards` child streams — so
for a fixed seed a reference estimate matches the library's up to
floating-point accumulation order.

The Metropolis-Hastings family has per-step reference loops of its own
(:func:`reference_mh_chain`, :func:`reference_mh_extend`,
:func:`reference_joint_chain` and the per-state read-outs): the library
chains are array-native — bulk oracle reads, block-drawn uniforms, column
storage — and must walk exactly the trajectories of these scalar loops,
with every column, read-out and oracle counter bit-identical for the same
oracle type.  Any oracle can drive them; :class:`DependencyOracle` gives
the bit-identity pin, :class:`DictDependencyOracle` answers through the
dict kernels (:class:`DictOracleMHSampler` injects it wherever a driver
builds oracles).

:class:`LRUOracleModel` is the cache the oracle kept as an ``OrderedDict``
of per-source arrays, reduced to its keys and counters: the row store must
evict the same victims and count the same lookups and passes.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.centrality.api import MCMC_SINGLE_METHODS, SINGLE_VERTEX_METHODS
from repro.exact.brandes import normalization_factor
from repro.errors import NegativeWeightError
from repro.execution import sample_shards
from repro.graphs.core import Graph, Vertex
from repro.mcmc.joint import JointChainState
from repro.mcmc.single import ChainState, SingleSpaceMHSampler
from repro.shortest_paths.dijkstra import _EPSILON

__all__ = [
    "DictDependencyOracle",
    "DictOracleMHSampler",
    "LRUOracleModel",
    "reference_degree_choice",
    "reference_mh_chain",
    "reference_mh_extend",
    "reference_mh_readout",
    "reference_running_estimates",
    "reference_joint_chain",
    "reference_relative",
    "reference_ratio",
    "reference_estimate",
    "reference_betweenness",
    "reference_edge_dependencies",
    "reference_group_betweenness",
    "reference_co_betweenness",
    "reference_core_betweenness",
    "reference_edge_betweenness",
    "ShortestPathDAG",
    "dag_from_csr",
    "bfs_spd",
    "bfs_distances",
    "dijkstra_spd",
    "dijkstra_distances",
    "spd_builder",
    "accumulate_dependencies",
    "accumulate_edge_dependencies",
    "dependency_on_target",
    "bidirectional_shortest_path_info",
    "all_shortest_paths",
]


# ----------------------------------------------------------------------
# Dict kernels: the shortest-path DAG over vertex-keyed dicts
# ----------------------------------------------------------------------
@dataclass
class ShortestPathDAG:
    """All shortest paths from a single source vertex, as vertex-keyed dicts.

    Built by :func:`bfs_spd` (unweighted) and :func:`dijkstra_spd`
    (positive weights), or from a library SPD by :func:`dag_from_csr`.
    """

    #: The source (root) vertex of the DAG.
    source: Vertex
    #: Shortest-path distance from the source to each reachable vertex.
    distance: Dict[Vertex, float]
    #: Number of shortest paths from the source to each reachable vertex.
    sigma: Dict[Vertex, float]
    #: Predecessor (parent) lists: ``predecessors[v]`` is P_s(v).
    predecessors: Dict[Vertex, List[Vertex]]
    #: Reachable vertices in non-decreasing distance order (source first).
    order: List[Vertex] = field(default_factory=list)

    def reachable(self) -> List[Vertex]:
        """Return the vertices reachable from the source (including it)."""
        return list(self.order)

    def number_of_reachable(self) -> int:
        """Return how many vertices are reachable from the source."""
        return len(self.order)

    def is_reachable(self, vertex: Vertex) -> bool:
        """Return ``True`` if *vertex* is reachable from the source."""
        return vertex in self.distance

    def path_count(self, vertex: Vertex) -> float:
        """Return sigma_{s,vertex} (0 when unreachable)."""
        return self.sigma.get(vertex, 0.0)

    def distance_to(self, vertex: Vertex) -> float:
        """Return d(source, vertex), or ``inf`` when unreachable."""
        return self.distance.get(vertex, float("inf"))

    def parents(self, vertex: Vertex) -> List[Vertex]:
        """Return the predecessor list P_s(vertex) (empty if none)."""
        return self.predecessors.get(vertex, [])

    def successors(self) -> Dict[Vertex, List[Vertex]]:
        """Return the child lists of the DAG (inverse of the predecessor map)."""
        children: Dict[Vertex, List[Vertex]] = {v: [] for v in self.order}
        for child, parents in self.predecessors.items():
            for parent in parents:
                children[parent].append(child)
        return children

    def paths_through(self, vertex: Vertex) -> Dict[Vertex, float]:
        """Return sigma_{st}(vertex) for every target *t* (endpoints excluded).

        ``sigma[vertex]`` times the number of DAG paths from *vertex* to
        *t*, the latter counted by a forward sweep in distance order.
        """
        if vertex not in self.distance:
            return {}
        paths_from: Dict[Vertex, float] = {vertex: 1.0}
        start_distance = self.distance[vertex]
        for t in self.order:
            if self.distance[t] <= start_distance or t == vertex:
                continue
            total = 0.0
            for parent in self.predecessors.get(t, []):
                total += paths_from.get(parent, 0.0)
            if total:
                paths_from[t] = total
        sigma_v = self.sigma[vertex]
        return {
            t: sigma_v * count
            for t, count in paths_from.items()
            if t != vertex and t != self.source
        }

    def pair_dependencies(self, vertex: Vertex) -> Dict[Vertex, float]:
        """Return delta_{st}(vertex) = sigma_{st}(vertex) / sigma_{st} for all targets *t*."""
        through = self.paths_through(vertex)
        return {
            t: through[t] / self.sigma[t]
            for t in through
            if self.sigma.get(t, 0.0) > 0.0
        }

    def validate(self) -> None:
        """Check the DAG invariants; raises :class:`AssertionError` on violation.

        The source has distance 0, sigma 1 and no parents; every other
        reachable vertex has parents whose sigmas sum to its own.
        """
        assert self.distance.get(self.source) == 0.0, "source must have distance 0"
        assert self.sigma.get(self.source) == 1.0, "source must have sigma 1"
        assert not self.predecessors.get(self.source), "source must have no predecessors"
        for v in self.order:
            if v == self.source:
                continue
            parents = self.predecessors.get(v, [])
            assert parents, f"non-source vertex {v!r} must have at least one predecessor"
            assert self.sigma[v] == sum(self.sigma[p] for p in parents), (
                f"sigma[{v!r}] must equal the sum of predecessor sigmas"
            )


def dag_from_csr(spd) -> ShortestPathDAG:
    """Return the dict DAG of a library (array-backed) SPD, keyed by vertex label."""
    label = spd.csr.vertex_at
    order = spd.order_indices.tolist()
    return ShortestPathDAG(
        source=label(spd.source_index),
        distance={label(i): float(spd.dist[i]) for i in order},
        sigma={label(i): float(spd.sig[i]) for i in order},
        predecessors={label(i): [label(p) for p in spd.parents_of(i).tolist()] for i in order},
        order=[label(i) for i in order],
    )


def bfs_spd(graph: Graph, source: Vertex, *, cutoff: Optional[float] = None) -> ShortestPathDAG:
    """The SPD rooted at *source*, edges of length 1; ``cutoff`` is inclusive."""
    graph.validate_vertex(source)
    distance: Dict[Vertex, float] = {source: 0.0}
    sigma: Dict[Vertex, float] = {source: 1.0}
    predecessors: Dict[Vertex, List[Vertex]] = {source: []}
    order: List[Vertex] = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        d_u = distance[u]
        if cutoff is not None and d_u + 1.0 > cutoff:
            continue
        for v in graph.neighbors(u):
            if v not in distance:
                distance[v] = d_u + 1.0
                sigma[v] = 0.0
                predecessors[v] = []
                queue.append(v)
            if distance[v] == d_u + 1.0:
                sigma[v] += sigma[u]
                predecessors[v].append(u)
    return ShortestPathDAG(source, distance, sigma, predecessors, order)


def bfs_distances(graph: Graph, source: Vertex) -> Dict[Vertex, float]:
    """The BFS distance map from *source*, in discovery order."""
    graph.validate_vertex(source)
    distance: Dict[Vertex, float] = {source: 0.0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d_u = distance[u]
        for v in graph.neighbors(u):
            if v not in distance:
                distance[v] = d_u + 1.0
                queue.append(v)
    return distance


def dijkstra_spd(graph: Graph, source: Vertex) -> ShortestPathDAG:
    """The SPD rooted at *source* over positive weights (a tie band while relaxing)."""
    graph.validate_vertex(source)
    distance: Dict[Vertex, float] = {}
    sigma: Dict[Vertex, float] = {source: 1.0}
    predecessors: Dict[Vertex, List[Vertex]] = {source: []}
    order: List[Vertex] = []
    seen: Dict[Vertex, float] = {source: 0.0}
    counter = itertools.count()
    heap: List = [(0.0, next(counter), source)]
    while heap:
        dist_u, _, u = heapq.heappop(heap)
        if u in distance:
            continue  # already settled via a shorter path
        distance[u] = dist_u
        order.append(u)
        for v, weight in graph.adjacency(u).items():
            if weight <= 0.0:
                raise NegativeWeightError(u, v, weight)
            candidate = dist_u + weight
            band = _EPSILON * max(1.0, abs(candidate))
            if v in distance:
                if abs(candidate - distance[v]) <= band:
                    sigma[v] += sigma[u]
                    predecessors[v].append(u)
                continue
            previous = seen.get(v)
            if previous is None or candidate < previous - band:
                seen[v] = candidate
                sigma[v] = sigma[u]
                predecessors[v] = [u]
                heapq.heappush(heap, (candidate, next(counter), v))
            elif abs(candidate - previous) <= band:
                sigma[v] += sigma[u]
                predecessors[v].append(u)
    return ShortestPathDAG(source, distance, sigma, predecessors, order)


def dijkstra_distances(graph: Graph, source: Vertex) -> Dict[Vertex, float]:
    """The weighted distance map from *source*, in settle order."""
    return dict(dijkstra_spd(graph, source).distance)


def spd_builder(graph: Graph) -> Callable[[Graph, Vertex], ShortestPathDAG]:
    """BFS for unweighted graphs, Dijkstra for weighted ones."""
    return dijkstra_spd if graph.weighted else bfs_spd


def accumulate_dependencies(spd: ShortestPathDAG) -> Dict[Vertex, float]:
    """``{v: delta_{s.}(v)}`` by the Brandes recursion (Equation 4); the source reads 0."""
    delta: Dict[Vertex, float] = {v: 0.0 for v in spd.order}
    for w in reversed(spd.order):
        coefficient = (1.0 + delta[w]) / spd.sigma[w]
        for v in spd.predecessors.get(w, []):
            delta[v] += spd.sigma[v] * coefficient
    delta[spd.source] = 0.0
    return delta


def accumulate_edge_dependencies(spd: ShortestPathDAG) -> Dict[tuple, float]:
    """``{(v, w): delta_{s.}(v, w)}`` per DAG edge, oriented away from the source."""
    delta: Dict[Vertex, float] = {v: 0.0 for v in spd.order}
    edge_delta: Dict[tuple, float] = {}
    for w in reversed(spd.order):
        coefficient = (1.0 + delta[w]) / spd.sigma[w]
        for v in spd.predecessors.get(w, []):
            contribution = spd.sigma[v] * coefficient
            edge_delta[(v, w)] = contribution
            delta[v] += contribution
    return edge_delta


def dependency_on_target(graph: Graph, source: Vertex, target: Vertex) -> float:
    """``delta_{source.}(target)``: one SPD and one accumulation."""
    graph.validate_vertex(target)
    if source == target:
        return 0.0
    deltas = accumulate_dependencies(spd_builder(graph)(graph, source))
    return deltas.get(target, 0.0)


def bidirectional_shortest_path_info(graph: Graph, s: Vertex, t: Vertex) -> Tuple[float, float]:
    """``(d(s, t), sigma_st)`` by a balanced bidirectional BFS; ``(inf, 0.0)`` if apart."""
    graph.validate_vertex(s)
    graph.validate_vertex(t)
    if s == t:
        return 0.0, 1.0
    dist_s: Dict[Vertex, float] = {s: 0.0}
    dist_t: Dict[Vertex, float] = {t: 0.0}
    sigma_s: Dict[Vertex, float] = {s: 1.0}
    sigma_t: Dict[Vertex, float] = {t: 1.0}
    frontier_s: List[Vertex] = [s]
    frontier_t: List[Vertex] = [t]
    while frontier_s and frontier_t:
        # Expand the side whose frontier has the smaller total degree.
        work_s = sum(graph.degree(v) for v in frontier_s)
        work_t = sum(graph.degree(v) for v in frontier_t)
        if work_s <= work_t:
            frontier_s, met = _expand_counting(graph, frontier_s, dist_s, sigma_s, dist_t)
        else:
            frontier_t, met = _expand_counting(graph, frontier_t, dist_t, sigma_t, dist_s)
        if met:
            break
    else:
        return float("inf"), 0.0
    best = min(dist_s[v] + dist_t[v] for v in dist_s if v in dist_t)
    sigma = 0.0
    for v in dist_s:
        if v in dist_t and dist_s[v] + dist_t[v] == best:
            sigma += sigma_s[v] * sigma_t[v]
    return best, sigma


def _expand_counting(graph: Graph, frontier, dist, sigma, other_dist):
    """Expand one level with path counts; return the new frontier and whether the searches met."""
    next_frontier: List[Vertex] = []
    met = False
    level = dist[frontier[0]]
    for u in frontier:
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = level + 1.0
                sigma[v] = 0.0
                next_frontier.append(v)
            if dist[v] == level + 1.0:
                sigma[v] += sigma[u]
                if v in other_dist:
                    met = True
    return next_frontier, met


def all_shortest_paths(graph: Graph, s: Vertex, t: Vertex) -> List[List[Vertex]]:
    """Every shortest s→t path as an explicit vertex list (exponential; small graphs)."""
    graph.validate_vertex(s)
    graph.validate_vertex(t)
    if s == t:
        return [[s]]
    spd = spd_builder(graph)(graph, s)
    if not spd.is_reachable(t):
        return []
    paths: List[List[Vertex]] = []

    def _backtrack(vertex: Vertex, suffix: List[Vertex]) -> None:
        if vertex == s:
            paths.append([s] + suffix)
            return
        for parent in spd.parents(vertex):
            _backtrack(parent, [vertex] + suffix)

    _backtrack(t, [])
    return paths


class DictDependencyOracle:
    """Uncached dependency oracle over the dict kernels.

    Duck-types the parts of :class:`repro.mcmc.estimates.DependencyOracle`
    the MH samplers use (``dependency``, ``dependencies_for``, the bulk
    ``dependency_rows`` by position in its graph's vertex list and
    ``source_indices``, ``prefetch`` and the ``evaluations`` and
    ``screened`` counters; it never screens, computing every row).
    Unknown targets read as 0.0, like the library oracle.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._build = spd_builder(graph)
        self.evaluations = 0
        self.lookups = 0
        self.screened = 0

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

    def source_indices(self, graph: Graph, positions) -> List[int]:
        own = {v: i for i, v in enumerate(self._graph.vertices())}
        vertices = graph.vertices()
        return [own[vertices[i]] for i in positions]

    def dependency_rows(self, sources, targets, *, prefetch=False, skip_self_lookups=False):
        vertices = self._graph.vertices()
        sources = [vertices[i] for i in sources]
        if skip_self_lookups:
            (target,) = targets
            rows = [[self.dependency(s, target)] for s in sources]
        else:
            rows = [list(self.dependencies_for(s, targets).values()) for s in sources]
        return np.array(rows, dtype=float).reshape(len(sources), len(targets))


class DictOracleMHSampler(SingleSpaceMHSampler):
    """The unchanged MH sampler, building :class:`DictDependencyOracle` oracles.

    Lets drivers that construct their own oracles (the multi-chain driver)
    run against the dict kernels.
    """

    def build_oracle(self, graph: Graph, *, shared_store=None) -> DictDependencyOracle:
        return DictDependencyOracle(graph)


class LRUOracleModel:
    """The oracle's ``OrderedDict`` LRU cache, keys and counters only.

    Mirrors :class:`repro.mcmc.estimates.DependencyOracle` without a shared
    store: the same lookups in the same order (``move_to_end`` on a hit, a
    pass and a store on a miss, the least recently used key evicted past
    ``cache_size``), the same prefetch allowance (free slots, else half
    the capacity) and the same bounded prefetch runs.  ``cache`` lists the
    cached sources, least recently used first.
    """

    def __init__(self, graph: Graph, cache_size: Optional[int]) -> None:
        self.graph = graph
        self.cache_size = cache_size
        self.cache: "OrderedDict[Vertex, None]" = OrderedDict()
        self.lookups = self.evaluations = self.prefetch_evaluations = 0

    @property
    def enabled(self) -> bool:
        return self.cache_size is None or self.cache_size > 0

    def _store(self, source: Vertex) -> None:
        self.cache[source] = None
        if self.cache_size is not None and len(self.cache) > self.cache_size:
            self.cache.popitem(last=False)

    def _lookup(self, source: Vertex) -> None:
        self.lookups += 1
        if self.enabled and source in self.cache:
            self.cache.move_to_end(source)
            return
        self.evaluations += 1
        if self.enabled:
            self._store(source)

    def prefetch(self, sources) -> int:
        if not self.enabled:
            return 0
        missing = [s for s in dict.fromkeys(sources) if s not in self.cache]
        if self.cache_size is not None:
            free = self.cache_size - len(self.cache)
            missing = missing[: max(free, 0 if not self.cache else self.cache_size // 2)]
        for source in missing:
            self._store(source)
        self.evaluations += len(missing)
        self.prefetch_evaluations += len(missing)
        return len(missing)

    def dependency(self, source: Vertex, target: Vertex) -> None:
        if source != target:
            self._lookup(source)

    def dependency_rows(self, sources, targets, *, prefetch=False, skip_self_lookups=False):
        skip = targets[0] if skip_self_lookups else None
        begin = 0
        while begin < len(sources):
            end = len(sources)
            if prefetch and self.enabled:
                end = self._prefetch_run(sources, begin, skip)
            for source in sources[begin:end]:
                if not (skip_self_lookups and source == skip):
                    self._lookup(source)
            begin = end

    def _prefetch_run(self, sources, begin: int, skip) -> int:
        if self.cache_size is None:
            self.prefetch([s for s in sources[begin:] if s != skip])
            return len(sources)
        capacity = self.cache_size
        free = capacity - len(self.cache)
        allowance = max(free, capacity // 2 if self.cache else 0, 1)
        run: Dict[Vertex, None] = {}
        misses = 0
        end = begin
        for source in sources[begin:]:
            if source != skip and source not in run:
                miss = source not in self.cache
                if len(run) == capacity or misses + miss > allowance:
                    break
                run[source] = None
                misses += miss
            end += 1
        for source in run:
            if source in self.cache:
                self.cache.move_to_end(source)
        self.prefetch(list(run))
        return end

    def apply_delta(self, affected_mask) -> Tuple[int, int]:
        index = {v: i for i, v in enumerate(self.graph.vertices())}
        evicted = [s for s in self.cache if affected_mask[index[s]]]
        for source in evicted:
            del self.cache[source]
        return len(evicted), len(self.cache)

    def clear(self) -> None:
        self.cache.clear()
        self.lookups = self.evaluations = self.prefetch_evaluations = 0


# ----------------------------------------------------------------------
# Metropolis-Hastings: the per-step chain loops and per-state read-outs
# ----------------------------------------------------------------------
def reference_degree_choice(graph: Graph, vertices: Sequence[Vertex], rng):
    """One degree-proposal draw, rebuilding the cumulative weights per draw."""
    degrees = [max(graph.degree(v), 1) for v in vertices]
    total = sum(degrees)
    pick = rng.random() * total
    cumulative = 0.0
    for vertex, degree in zip(vertices, degrees):
        cumulative += degree
        if pick <= cumulative:
            return vertex
    return vertices[-1]


def _propose_neighbor(graph: Graph, current: Vertex, rng):
    neighbors = list(graph.neighbors(current))
    if not neighbors:
        return current, 1.0
    candidate = neighbors[rng.randrange(len(neighbors))]
    correction = graph.degree(current) / max(graph.degree(candidate), 1)
    return candidate, correction


def _draw_proposals(graph: Graph, vertices, proposal: str, rng, count: int):
    if proposal == "random-walk":
        return None
    proposal_rng = spawn_rng(rng, 0)
    if proposal == "uniform":
        return [vertices[proposal_rng.randrange(len(vertices))] for _ in range(count)]
    return [reference_degree_choice(graph, vertices, proposal_rng) for _ in range(count)]


def _accept(current_delta: float, candidate_delta: float, proposal_correction: float, rng) -> bool:
    u = rng.random()
    if current_delta <= 0.0:
        return True
    ratio = (candidate_delta / current_delta) * proposal_correction
    return ratio >= 1.0 or u < ratio


def _accept_joint(current_delta: float, candidate_delta: float, rng) -> bool:
    u = rng.random()
    if current_delta <= 0.0:
        return True
    ratio = candidate_delta / current_delta
    return ratio >= 1.0 or u < ratio


def _iterate(graph, r, oracle, rng, states, num_iterations, proposals, proposal, block):
    current = states[-1].vertex
    current_delta = states[-1].dependency
    base_iteration = states[-1].iteration
    for step in range(1, num_iterations + 1):
        if proposals is not None:
            candidate = proposals[step - 1]
            if (step - 1) % block == 0:
                oracle.prefetch(proposals[step - 1 : step - 1 + block])
            if proposal == "uniform":
                proposal_correction = 1.0
            else:
                proposal_correction = max(graph.degree(current), 1) / max(
                    graph.degree(candidate), 1
                )
        else:
            candidate, proposal_correction = _propose_neighbor(graph, current, rng)
        candidate_delta = oracle.dependency(candidate, r)
        accepted = _accept(current_delta, candidate_delta, proposal_correction, rng)
        if accepted:
            current = candidate
            current_delta = candidate_delta
        states.append(
            ChainState(
                iteration=base_iteration + step,
                vertex=current,
                dependency=current_delta,
                accepted=accepted,
                proposal_dependency=candidate_delta,
            )
        )


def reference_mh_chain(
    graph: Graph,
    r: Vertex,
    num_iterations: int,
    *,
    oracle,
    proposal: str = "uniform",
    prefetch_block: int = 16,
    seed: RandomState = None,
    initial_state: Optional[Vertex] = None,
) -> List[ChainState]:
    """The single-space chain as a per-step loop: its ``T + 1`` states."""
    rng = ensure_rng(seed)
    vertices = graph.vertices()
    proposals = _draw_proposals(graph, vertices, proposal, rng, num_iterations)
    if initial_state is None:
        current = vertices[rng.randrange(len(vertices))]
    else:
        current = initial_state
    current_delta = oracle.dependency(current, r)
    states = [
        ChainState(
            iteration=0,
            vertex=current,
            dependency=current_delta,
            accepted=True,
            proposal_dependency=current_delta,
        )
    ]
    _iterate(graph, r, oracle, rng, states, num_iterations, proposals, proposal, prefetch_block)
    return states


def reference_mh_extend(
    graph: Graph,
    r: Vertex,
    states: List[ChainState],
    num_iterations: int,
    *,
    oracle,
    proposal: str = "uniform",
    prefetch_block: int = 16,
    rng: RandomState = None,
) -> List[ChainState]:
    """Continue a per-step chain by *num_iterations* steps (a new list)."""
    rng = ensure_rng(rng)
    vertices = graph.vertices()
    proposals = _draw_proposals(graph, vertices, proposal, rng, num_iterations)
    states = list(states)
    _iterate(graph, r, oracle, rng, states, num_iterations, proposals, proposal, prefetch_block)
    return states


def _contribution(state, estimator: str) -> float:
    if estimator == "chain":
        return state.dependency
    if estimator == "proposal":
        return state.proposal_dependency
    return state.proposal_dependency if state.accepted else 0.0


def reference_mh_readout(
    states: List[ChainState], burn_in: int, num_vertices: int, estimator: str
) -> float:
    """Equation 7 (or its variants) summed state by state."""
    kept = states[burn_in:]
    if not kept:
        return 0.0
    scale = max(num_vertices - 1, 1)
    return sum(_contribution(s, estimator) for s in kept) / (len(kept) * scale)


def reference_running_estimates(
    states: List[ChainState], burn_in: int, num_vertices: int, estimator: str
) -> List[float]:
    scale = max(num_vertices - 1, 1)
    estimates: List[float] = []
    total = 0.0
    for i, state in enumerate(states[burn_in:], start=1):
        total += _contribution(state, estimator)
        estimates.append(total / (i * scale))
    return estimates


def reference_joint_chain(
    graph: Graph,
    members: List[Vertex],
    num_iterations: int,
    *,
    oracle,
    prefetch_block: int = 16,
    seed: RandomState = None,
    initial_state: Optional[Tuple[Vertex, Vertex]] = None,
) -> List[JointChainState]:
    """The joint-space chain as a per-step loop: its ``T + 1`` states."""
    rng = ensure_rng(seed)
    vertices = graph.vertices()
    proposal_rng = spawn_rng(rng, 0)
    pair_proposals = [
        (
            members[proposal_rng.randrange(len(members))],
            vertices[proposal_rng.randrange(len(vertices))],
        )
        for _ in range(num_iterations)
    ]
    if initial_state is None:
        current_r = members[rng.randrange(len(members))]
        current_v = vertices[rng.randrange(len(vertices))]
    else:
        current_r, current_v = initial_state
    current_deps = oracle.dependencies_for(current_v, members)
    states = [
        JointChainState(
            iteration=0, r=current_r, v=current_v, dependencies=current_deps, accepted=True
        )
    ]
    for t in range(1, num_iterations + 1):
        candidate_r, candidate_v = pair_proposals[t - 1]
        if (t - 1) % prefetch_block == 0:
            oracle.prefetch([v for _, v in pair_proposals[t - 1 : t - 1 + prefetch_block]])
        candidate_deps = oracle.dependencies_for(candidate_v, members)
        accepted = _accept_joint(states[-1].dependency, candidate_deps.get(candidate_r, 0.0), rng)
        if accepted:
            current_r, current_v, current_deps = candidate_r, candidate_v, candidate_deps
        states.append(
            JointChainState(
                iteration=t, r=current_r, v=current_v, dependencies=current_deps, accepted=accepted
            )
        )
    return states


def reference_relative(states: List[JointChainState], burn_in: int, ri: Vertex, rj: Vertex):
    """Equation 23 summed state by state; ``None`` when ``M(j)`` is empty."""
    samples = [s for s in states[burn_in:] if s.r == rj]
    if not samples:
        return None
    total = 0.0
    for state in samples:
        di = state.dependencies.get(ri, 0.0)
        dj = state.dependencies.get(rj, 0.0)
        if dj > 0.0:
            total += min(1.0, di / dj)
        elif di > 0.0:
            total += 1.0
    return total / len(samples)


def reference_ratio(states: List[JointChainState], burn_in: int, ri: Vertex, rj: Vertex):
    """Equation 22; ``None`` where the library reports NaN."""
    numerator = reference_relative(states, burn_in, ri, rj)
    denominator = reference_relative(states, burn_in, rj, ri)
    if numerator is None or denominator is None or denominator <= 0.0:
        return None
    return numerator / denominator


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
        states = reference_mh_chain(
            graph,
            r,
            samples,
            oracle=DictDependencyOracle(graph),
            proposal=sampler.proposal,
            seed=seed,
        )
        return reference_mh_readout(
            states, sampler.burn_in, graph.number_of_vertices(), sampler.estimator
        )
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


def reference_co_betweenness(graph: Graph, group, normalized: bool = True) -> float:
    """Co-betweenness by explicit path enumeration (|group| >= 2 only).

    Over ordered pairs outside the group, the fraction of shortest paths
    whose interior contains every member.
    """
    member_set = set(group)
    vertices = [v for v in graph.vertices() if v not in member_set]
    total = 0.0
    for s in vertices:
        for t in vertices:
            if s == t:
                continue
            paths = all_shortest_paths(graph, s, t)
            if not paths:
                continue
            passing = sum(1 for path in paths if member_set.issubset(path[1:-1]))
            total += passing / len(paths)
    n = graph.number_of_vertices()
    if normalized and n > 1:
        total /= n * (n - 1)
    return total


def reference_core_betweenness(compressed) -> Dict[Vertex, float]:
    """The multiplicity-weighted Brandes loop over a compressed graph's core.

    A source *s* stands for ``multiplicity[s]`` original sources and a
    target *w* for ``multiplicity[w]`` targets; only survivors strictly
    between them are credited.
    """
    core = compressed.graph
    mult = compressed.multiplicity
    build = spd_builder(core)
    raw: Dict[Vertex, float] = {v: 0.0 for v in core.vertices()}
    for s in core.vertices():
        spd = build(core, s)
        delta: Dict[Vertex, float] = {v: 0.0 for v in spd.order}
        for w in reversed(spd.order):
            coefficient = (mult[w] + delta[w]) / spd.sigma[w]
            for v in spd.predecessors.get(w, []):
                delta[v] += spd.sigma[v] * coefficient
        for v in spd.order:
            if v != s:
                raw[v] += mult[s] * delta[v]
    return raw


def reference_edge_betweenness(graph: Graph) -> Dict[tuple, float]:
    """Unnormalised edge betweenness over the dict kernels.

    Undirected edges key by the frozenset of their endpoints, directed
    ones by the arc ``(u, v)``.
    """
    scores: Dict[tuple, float] = {}
    build = spd_builder(graph)
    for s in graph.vertices():
        for (u, v), delta in accumulate_edge_dependencies(build(graph, s)).items():
            key = (u, v) if graph.directed else frozenset((u, v))
            scores[key] = scores.get(key, 0.0) + delta
    return scores
