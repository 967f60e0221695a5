"""Property-based equivalence suite: the CSR kernels must match the dict reference.

The flat-array kernels every estimator runs on are drop-in twins of the
dict-backed reference implementations: same distances, same path counts,
same traversal order, same predecessor lists (and ordering, which the
rng-driven path samplers rely on), same dependency scores, and — for every
registered estimator — the same estimate for a fixed seed as the
dict-kernel reference loops of ``tests/reference.py``.  This module checks
those promises on randomly generated graphs (Erdős–Rényi, Barabási–Albert,
barbell, random weighted), plus the cache-invalidation contract of
``Graph.csr()``.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import (
    DictDependencyOracle,
    reference_betweenness,
    reference_edge_dependencies,
    reference_estimate,
    reference_group_betweenness,
)
from repro.centrality.api import SINGLE_VERTEX_METHODS, betweenness_single
from repro.exact.brandes import betweenness_centrality
from repro.exact.group import group_betweenness_centrality
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    barbell_graph,
    erdos_renyi_graph,
    grid_graph,
)
from repro.graphs.components import largest_connected_component
from repro.shortest_paths import (
    accumulate_dependencies,
    accumulate_dependencies_batch_csr,
    accumulate_dependencies_csr,
    bfs_distances,
    bfs_distances_csr,
    bfs_spd,
    bfs_spd_batch_csr,
    bfs_spd_csr,
    bidirectional_shortest_path_info,
    bidirectional_shortest_path_info_csr,
    csr_source_dependencies,
    dijkstra_spd,
    dijkstra_spd_csr,
)

# ----------------------------------------------------------------------
# Graph strategies: one generator family per draw, seeded by hypothesis.
# ----------------------------------------------------------------------


def _random_weighted_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph(weighted=True)
    n = rng.randint(6, 18)
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
    return largest_connected_component(graph)


def _make_graph(family: str, seed: int) -> Graph:
    if family == "er":
        return largest_connected_component(erdos_renyi_graph(24, 0.12, seed=seed))
    if family == "ba":
        return barabasi_albert_graph(22, 2, seed=seed)
    if family == "barbell":
        rng = random.Random(seed)
        return barbell_graph(rng.randint(3, 6), rng.randint(1, 4))
    return _random_weighted_graph(seed)


graph_cases = st.tuples(
    st.sampled_from(["er", "ba", "barbell", "weighted"]),
    st.integers(min_value=0, max_value=10_000),
).map(lambda case: _make_graph(*case)).filter(lambda g: g.number_of_vertices() >= 3)


# ----------------------------------------------------------------------
# SPD equivalence
# ----------------------------------------------------------------------


@given(graph_cases, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_spd_construction_matches_dict_backend(graph, source_seed):
    """BFS/Dijkstra CSR SPDs equal the dict SPDs field for field."""
    vertices = graph.vertices()
    source = vertices[source_seed % len(vertices)]
    csr = graph.csr()
    if graph.weighted:
        dict_spd = dijkstra_spd(graph, source)
        csr_spd = dijkstra_spd_csr(csr, csr.index_of(source))
    else:
        dict_spd = bfs_spd(graph, source)
        csr_spd = bfs_spd_csr(csr, csr.index_of(source))
    assert csr_spd.source == source
    assert csr_spd.distance == dict_spd.distance
    assert csr_spd.sigma == dict_spd.sigma
    assert csr_spd.order == dict_spd.order
    assert csr_spd.predecessors == dict_spd.predecessors
    # The compat view must satisfy the same structural invariants.
    csr_spd.to_dag().validate()


@given(graph_cases, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dependency_accumulation_matches_dict_backend(graph, source_seed):
    """Brandes dependency scores match the dict kernels (float tolerance only)."""
    vertices = graph.vertices()
    source = vertices[source_seed % len(vertices)]
    csr = graph.csr()
    if graph.weighted:
        deltas = accumulate_dependencies(dijkstra_spd(graph, source))
        array = accumulate_dependencies_csr(dijkstra_spd_csr(csr, csr.index_of(source)))
    else:
        deltas = accumulate_dependencies(bfs_spd(graph, source))
        array = accumulate_dependencies_csr(bfs_spd_csr(csr, csr.index_of(source)))
    for v, value in deltas.items():
        assert math.isclose(value, float(array[csr.index_of(v)]), rel_tol=1e-9, abs_tol=1e-12)


@given(graph_cases.filter(lambda g: not g.weighted), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bfs_distances_and_bidirectional_match(graph, pair_seed):
    """Distance-only BFS and the bidirectional pair query match the dict kernels."""
    vertices = graph.vertices()
    s = vertices[pair_seed % len(vertices)]
    t = vertices[(3 * pair_seed + 1) % len(vertices)]
    csr = graph.csr()
    dist, order = bfs_distances_csr(csr, csr.index_of(s))
    dict_distances = bfs_distances(graph, s)
    assert {csr.vertex_at(i): dist[i] for i in order.tolist()} == dict_distances
    assert [csr.vertex_at(i) for i in order.tolist()] == list(dict_distances)
    assert bidirectional_shortest_path_info(graph, s, t) == (
        bidirectional_shortest_path_info_csr(csr, csr.index_of(s), csr.index_of(t))
    )


# ----------------------------------------------------------------------
# Whole-algorithm equivalence
# ----------------------------------------------------------------------


@given(graph_cases)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_brandes_betweenness_matches_dict_reference(graph):
    """Exact Brandes centrality agrees with the dict reference on every vertex."""
    dict_scores = reference_betweenness(graph)
    csr_scores = betweenness_centrality(graph)
    assert dict_scores.keys() == csr_scores.keys()
    for v in dict_scores:
        assert math.isclose(
            dict_scores[v], csr_scores[v], rel_tol=1e-9, abs_tol=1e-12
        )


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(sorted(SINGLE_VERTEX_METHODS)),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_estimator_matches_the_dict_reference(seed, method):
    """For a fixed seed, every registered estimator returns the estimate of
    its dict-kernel reference loop (identical rng streams; float-accumulation
    tolerance)."""
    graph = barabasi_albert_graph(20, 2, seed=seed % 50)
    target = graph.vertices()[seed % graph.number_of_vertices()]
    reference = reference_estimate(graph, target, method, samples=40, seed=seed)
    csr_result = betweenness_single(graph, target, method=method, samples=40, seed=seed)
    assert math.isclose(reference, csr_result.estimate, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("normalization", ["paper", "count", "pairs"])
@pytest.mark.parametrize("directed", [False, True])
def test_brandes_normalizations_match_the_dict_reference(normalization, directed):
    graph = Graph(directed=directed)
    rng = random.Random(17)
    for u in range(16):
        for v in range(16):
            if u != v and rng.random() < 0.2:
                graph.add_edge(u, v)
    reference = reference_betweenness(graph, normalization)
    scores = betweenness_centrality(graph, normalization=normalization)
    assert scores.keys() == reference.keys()
    for v in reference:
        assert math.isclose(scores[v], reference[v], rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
def test_all_dependencies_on_target_matches_the_dict_reference(weighted):
    from repro.shortest_paths import all_dependencies_on_target, dependency_on_target

    graph = _random_weighted_graph(5) if weighted else barabasi_albert_graph(25, 2, seed=6)
    target = graph.vertices()[2]
    values = all_dependencies_on_target(graph, target)
    assert list(values) == graph.vertices()
    for v, value in values.items():
        expected = 0.0 if v == target else dependency_on_target(graph, v, target)
        assert math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("seed", [3, 19, 42])
def test_joint_sampler_matches_the_dict_reference(seed):
    """The unchanged joint-space sampler walks the same chain whether its
    oracle runs the CSR kernels or the dict-kernel reference."""
    from repro.mcmc.joint import JointSpaceMHSampler

    graph = barabasi_albert_graph(24, 2, seed=seed)
    members = graph.vertices()[:3]
    csr_est = JointSpaceMHSampler().estimate_relative(graph, members, 120, seed=seed)
    dict_est = JointSpaceMHSampler().estimate_relative(
        graph, members, 120, seed=seed, oracle=DictDependencyOracle(graph)
    )
    assert csr_est.sample_counts == dict_est.sample_counts
    for pair, ratio in dict_est.ratios.items():
        if math.isnan(ratio):
            assert math.isnan(csr_est.ratios[pair])
        else:
            assert math.isclose(csr_est.ratios[pair], ratio, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize(
    "make_graph, edge",
    [
        (lambda: barbell_graph(5, 2), (5, 6)),
        (lambda: barabasi_albert_graph(30, 2, seed=8), (0, 2)),
        (lambda: _random_weighted_graph(11), None),
        (lambda: Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), (1, 2)),
    ],
    ids=["barbell-bridge", "ba", "weighted", "diamond"],
)
def test_edge_dependencies_match_the_dict_reference(make_graph, edge):
    """The CSR edge oracle reads both DAG orientations of the edge exactly
    like a full dict edge-dependency accumulation."""
    from repro.mcmc.edge import exact_edge_dependency_vector

    graph = make_graph()
    edge = edge if edge is not None else next(iter(graph.edges()))
    reference = reference_edge_dependencies(graph, edge)
    values = exact_edge_dependency_vector(graph, edge)
    assert values.keys() == reference.keys()
    for v in reference:
        assert math.isclose(values[v], reference[v], rel_tol=1e-9, abs_tol=1e-12)


def test_group_betweenness_matches_dict_reference(barbell):
    for group in ([5], [5, 6], [0, 5]):
        assert math.isclose(
            reference_group_betweenness(barbell, group),
            group_betweenness_centrality(barbell, group),
            rel_tol=1e-9,
        )


# ----------------------------------------------------------------------
# Cache / invalidation contract
# ----------------------------------------------------------------------


def test_csr_view_is_cached_until_mutation():
    graph = erdos_renyi_graph(12, 0.3, seed=1)
    view = graph.csr()
    assert graph.csr() is view, "repeated csr() calls must return the cached view"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda g: g.add_edge(0, 5),
        lambda g: g.add_vertex("fresh"),
        lambda g: g.remove_edge(*next(iter(g.edges()))),
        lambda g: g.remove_vertex(g.vertices()[-1]),
    ],
    ids=["add_edge", "add_vertex", "remove_edge", "remove_vertex"],
)
def test_mutation_invalidates_cached_view(mutate):
    graph = largest_connected_component(erdos_renyi_graph(14, 0.3, seed=2))
    stale = graph.csr()
    mutate(graph)
    fresh = graph.csr()
    assert fresh is not stale, "mutation must drop the cached CSR view"
    # The fresh snapshot reflects the mutation; the stale one still
    # describes the old graph (immutability of the snapshot itself).
    assert fresh.number_of_vertices() == graph.number_of_vertices()
    assert fresh.number_of_edges() == graph.number_of_edges()


def test_updating_an_edge_weight_invalidates_the_view():
    graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 2.0)], weighted=True)
    stale = graph.csr()
    graph.add_edge(0, 1, 5.0)  # same edge, new weight
    fresh = graph.csr()
    assert fresh is not stale
    i, j = fresh.index_of(0), 0
    neighbors = fresh.neighbors_of(i).tolist()
    weights = fresh.weights_of(i).tolist()
    assert weights[neighbors.index(fresh.index_of(1))] == 5.0


def test_weight_mutation_invalidates_snapshot_and_matches_the_reference():
    """Mutating edge weights after ``.csr()`` drops the cached snapshot, and
    the Dijkstra-based estimators agree with the dict reference on the new
    weights."""
    graph = _random_weighted_graph(37)
    target = graph.vertices()[1]
    stale = graph.csr()
    before = betweenness_centrality(graph)

    # Re-weight a few existing edges (same endpoints, new weights): the
    # mutation must invalidate the cache even though the topology is intact.
    reweighted = [edge for edge, _ in zip(graph.edges(data=True), range(3))]
    for u, v, w in reweighted:
        graph.add_edge(u, v, w + 2.5)
    fresh = graph.csr()
    assert fresh is not stale, "weight mutation must drop the cached CSR view"
    for u, v, w in reweighted:
        i = fresh.index_of(u)
        position = fresh.neighbors_of(i).tolist().index(fresh.index_of(v))
        assert fresh.weights_of(i)[position] == w + 2.5

    # Dijkstra-backed exact scores: CSR and the reference agree on the new
    # weights...
    dict_scores = reference_betweenness(graph)
    csr_scores = betweenness_centrality(graph)
    assert dict_scores.keys() == csr_scores.keys()
    for v in dict_scores:
        assert math.isclose(dict_scores[v], csr_scores[v], rel_tol=1e-9, abs_tol=1e-12)
    # ... and the scores moved with the weights (the stale snapshot's values
    # would not have).
    assert any(
        not math.isclose(before[v], csr_scores[v], rel_tol=1e-9, abs_tol=1e-12)
        for v in before
    )

    # Dijkstra-based sampling estimates stay rng-stream identical too.
    for method in ("uniform-source", "distance"):
        dict_est = reference_estimate(graph, target, method, samples=30, seed=7)
        csr_est = betweenness_single(
            graph, target, method=method, samples=30, seed=7, check_connected=False
        )
        assert math.isclose(dict_est, csr_est.estimate, rel_tol=1e-9, abs_tol=1e-12)


def test_spd_compat_readers_are_lenient_for_unknown_labels():
    """Absent labels read as unreachable on both DAG flavours, never raise."""
    graph = barbell_graph(3, 1)
    for spd in (bfs_spd(graph, 0), bfs_spd_csr(graph.csr(), 0)):
        assert spd.is_reachable("ghost") is False
        assert spd.distance_to("ghost") == float("inf")
        assert spd.path_count("ghost") == 0.0
        assert spd.parents("ghost") == []


def test_oracle_unknown_target_reads_zero():
    """The dict reference's `.get(target, 0.0)` contract holds on CSR."""
    from repro.mcmc.estimates import DependencyOracle

    graph = barbell_graph(4, 1)
    oracle = DependencyOracle(graph)
    assert oracle.dependency(0, "not-a-vertex") == 0.0
    assert oracle.dependencies_for(0, ["not-a-vertex", 4])["not-a-vertex"] == 0.0


def test_from_edges_builds_the_same_graph_as_add_edge_loops():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    via_classmethod = Graph.from_edges(edges)
    by_hand = Graph()
    for u, v in edges:
        by_hand.add_edge(u, v)
    assert sorted(via_classmethod.edges()) == sorted(by_hand.edges())
    weighted = Graph.from_edges([(0, 1, 2.5), (1, 2, 0.5)], weighted=True)
    assert weighted.edge_weight(0, 1) == 2.5
    assert weighted.edge_weight(1, 2) == 0.5


# ----------------------------------------------------------------------
# Vectorised snapshot builder + scipy adjacency caching
# ----------------------------------------------------------------------


def _reference_from_graph(graph):
    """The original per-edge Python loop, kept as the byte-identity oracle
    for the vectorised ``CSRGraph.from_graph``."""
    vertices = graph.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    indptr = np.zeros(len(vertices) + 1, dtype=np.int64)
    flat_indices = []
    flat_weights = []
    for i, v in enumerate(vertices):
        adj = graph.adjacency(v)
        flat_indices.extend(index[u] for u in adj)
        flat_weights.extend(adj.values())
        indptr[i + 1] = len(flat_indices)
    return (
        indptr,
        np.asarray(flat_indices, dtype=np.int64),
        np.asarray(flat_weights, dtype=np.float64),
    )


def _isolated_vertex_graph():
    g = Graph()
    g.add_vertex(9)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


def _directed_weighted_graph():
    g = Graph(directed=True, weighted=True)
    g.add_edge("a", "b", 2.0)
    g.add_edge("b", "c", 0.5)
    g.add_edge("c", "a", 1.5)
    g.add_edge("a", "c", 3.0)
    return g


@pytest.mark.parametrize(
    "builder",
    [
        lambda: barabasi_albert_graph(25, 2, seed=3),
        lambda: erdos_renyi_graph(20, 0.2, seed=8),
        lambda: _random_weighted_graph(5),
        _isolated_vertex_graph,
        _directed_weighted_graph,
        Graph,  # empty graph
    ],
)
def test_vectorized_from_graph_is_byte_identical_to_the_loop(builder):
    from repro.graphs.csr import CSRGraph

    graph = builder()
    csr = CSRGraph.from_graph(graph)
    indptr, indices, weights = _reference_from_graph(graph)
    assert np.array_equal(csr.indptr, indptr)
    assert np.array_equal(csr.indices, indices)
    assert np.array_equal(csr.weights, weights)
    assert csr.indptr.dtype == indptr.dtype
    assert csr.indices.dtype == indices.dtype
    assert csr.weights.dtype == weights.dtype
    assert csr.vertices == tuple(graph.vertices())


def test_scipy_adjacency_directed_builds_a_cached_transpose():
    pytest.importorskip("scipy")
    from scipy.sparse import csr_matrix

    g = Graph(directed=True, weighted=True)
    g.add_edge(0, 1, 2.0)
    g.add_edge(1, 2, 0.5)
    g.add_edge(2, 0, 1.5)
    g.add_edge(0, 2, 3.0)
    csr = g.csr()
    forward = csr.scipy_adjacency()
    backward = csr.scipy_adjacency(transpose=True)
    # Built once, cached: repeated calls return the same objects.
    assert csr.scipy_adjacency() is forward
    assert csr.scipy_adjacency(transpose=True) is backward
    assert isinstance(backward, csr_matrix)
    assert backward is not forward
    # Consistency: the backward view is exactly the forward transpose.
    assert (backward.toarray() == forward.toarray().T).all()
    n = csr.number_of_vertices()
    dense = np.zeros((n, n))
    for u, v, w in g.edges(data=True):
        dense[csr.index_of(u), csr.index_of(v)] = w
    assert (forward.toarray() == dense).all()


def test_scipy_adjacency_undirected_backward_is_forward():
    pytest.importorskip("scipy")
    g = barbell_graph(3, 1)
    csr = g.csr()
    assert csr.scipy_adjacency(transpose=True) is csr.scipy_adjacency()


def _random_unweighted_graph(seed: int, directed: bool) -> Graph:
    """Random unweighted graph, possibly disconnected, sparse or dense."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    graph = Graph(directed=directed)
    for v in range(n):
        graph.add_vertex(v)
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_unweighted_dependency_path_is_bit_identical(seed, directed):
    """One Brandes arithmetic: the fused per-source pass, build-then-
    accumulate, the numpy batched wave, the sparse-matmul sweep (called
    directly, so graphs the router keeps off it are pinned too) and the
    routed call streamed in blocks of one and two rows return the same bits
    for every source."""
    from repro.shortest_paths.batch import _batch_dependencies_spmm, _scipy_sparse

    csr = _random_unweighted_graph(seed, directed).csr()
    n = csr.number_of_vertices()
    sources = np.arange(n, dtype=np.int64)
    batched = [accumulate_dependencies_batch_csr(bfs_spd_batch_csr(csr, sources))]
    if _scipy_sparse is not None:
        batched.append(_batch_dependencies_spmm(csr, sources, None))
    fused = np.array([csr_source_dependencies(csr, s) for s in range(n)])
    batched.extend(_streamed_in_narrow_blocks(csr, sources, fused))
    for s in range(n):
        assert np.array_equal(fused[s], accumulate_dependencies_csr(bfs_spd_csr(csr, s)))
        for matrix in batched:
            assert np.array_equal(fused[s], matrix[s])


def _streamed_in_narrow_blocks(csr, sources, fused):
    """Run ``batch_source_dependencies`` with its block width forced to 1 and
    to 2 rows, collecting the streamed blocks through a *sink*; return one
    matrix per width.  Several blocks per call pin the sink offsets and the
    running *out* sum across blocks, and an odd count at width 2 leaves a
    one-row block that takes the K = 1 route inside the call."""
    from repro.shortest_paths import batch as batch_module

    n = csr.number_of_vertices()
    expected_sum = np.zeros(n)
    for row in fused:
        expected_sum += row
    matrices = []
    for width in (1, 2):
        rows = np.full((len(sources), n), np.nan)

        def sink(begin, block):
            rows[begin : begin + len(block)] = block

        out = np.zeros(n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batch_module, "_block_width", lambda csr: width)
            batch_module.batch_source_dependencies(csr, sources, out=out, sink=sink)
        assert np.array_equal(out, expected_sum)
        matrices.append(rows)
    return matrices


#: Weight palettes of the weighted identity property: dyadic weights sum
#: exactly (true ties, path counts above 1), decimal ones make near-ties
#: such as 0.1 + 0.2 against 0.3 that only the exact distance rule settles
#: one way on every path.
WEIGHT_PALETTES = {"dyadic": [0.5, 1.0, 1.5, 2.0], "decimal": [0.1, 0.2, 0.3]}


def _random_weighted_identity_graph(seed: int, directed: bool, palette: str) -> Graph:
    """Random weighted graph, possibly disconnected, sparse or dense."""
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    graph = Graph(directed=directed, weighted=True)
    for v in range(n):
        graph.add_vertex(v)
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, rng.choice(WEIGHT_PALETTES[palette]))
    return graph


@given(
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
    st.sampled_from(sorted(WEIGHT_PALETTES)),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_weighted_dependency_path_is_bit_identical(seed, directed, palette):
    """One weighted rule: exact distances (the fixpoint min fl(D[u] + w),
    equal from the heap and from Bellman-Ford), one DAG and the one Brandes
    arithmetic, so the batched sweep (called directly, through the depth
    gate either way and with its DAG mask cut into 2-row chunks), the
    routed call streamed in blocks of one and two rows, the K = 1 route and
    build-then-accumulate return the same bits for every source."""
    from repro.shortest_paths import batch as batch_module
    from repro.shortest_paths.batch import (
        _batch_distances,
        _dijkstra_sweep_batch,
        batch_source_dependencies,
    )
    from repro.shortest_paths.dijkstra import dijkstra_distances_csr

    graph = _random_weighted_identity_graph(seed, directed, palette)
    csr = graph.csr()
    n = csr.number_of_vertices()
    sources = np.arange(n, dtype=np.int64)
    heap = np.array([dijkstra_distances_csr(csr, s)[0] for s in range(n)])
    # The heap distances are the exact fixpoint: no arc improves them, and
    # every reached non-source vertex attains its distance through an arc.
    tails = np.repeat(np.arange(n), np.diff(csr.indptr))
    attained = np.full((n, n), np.inf)
    np.minimum.at(attained.T, csr.indices, (heap[:, tails] + csr.weights).T)
    reached = np.isfinite(heap)
    np.fill_diagonal(reached, False)
    assert (heap <= attained).all()
    assert np.array_equal(heap[reached], attained[reached])
    bellman_ford, _ = _batch_distances(csr, sources, n + 1)
    assert np.array_equal(bellman_ford.reshape(n, n), heap)

    batched = [_dijkstra_sweep_batch(csr, sources, n + 1)]
    two_rows = 2 * max(1, int(csr.indices.shape[0]))
    # Both sides of the depth gate, then the sweep's DAG-mask and arc
    # chunks at two rows (the block itself stays whole).
    for round_cost, chunk in ((1, 10**9), (10**9, 10**9), (1, two_rows)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batch_module, "_SWEEP_ROUND_COST", round_cost)
            patch.setattr(batch_module, "_SWEEP_BLOCK_ELEMENTS", chunk)
            csr._sweep_rounds = None
            batched.append(batch_source_dependencies(csr, sources))
    fused = np.array([csr_source_dependencies(csr, s) for s in range(n)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_module, "_SWEEP_ROUND_COST", 1)
        csr._sweep_rounds = None
        batched.extend(_streamed_in_narrow_blocks(csr, sources, fused))
    for s in range(n):
        assert np.array_equal(fused[s], batch_source_dependencies(csr, [s])[0])
        assert np.array_equal(fused[s], accumulate_dependencies_csr(dijkstra_spd_csr(csr, s)))
        for matrix in batched:
            assert np.array_equal(fused[s], matrix[s])


def _weighted_grid_csr(side: int = 30):
    """A weighted grid with uniform(1, 3) weights — the shape of the
    benchmark's weighted-traffic graph."""
    rng = random.Random(2019)
    edges = [(u, v, rng.uniform(1.0, 3.0)) for u, v in grid_graph(side, side).edges()]
    return Graph.from_edges(edges, weighted=True).csr()


def _gate_minimum(csr) -> int:
    """The fewest rows for which the depth gate takes the batched sweep."""
    from repro.shortest_paths import batch as batch_module

    n = csr.number_of_vertices()
    per_row = n + int(csr.indices.shape[0])
    k = 1
    while k * per_row // batch_module._SWEEP_ROUND_COST < csr._sweep_rounds:
        k += 1
    return k


def test_weighted_sweep_block_fits_its_byte_budget():
    """One sweep block at the width the kernels choose on a weighted 30×30
    grid peaks (tracemalloc, numpy buffers included) within the byte budget
    the width was chosen from."""
    import tracemalloc

    from repro.shortest_paths import batch as batch_module

    csr = _weighted_grid_csr()
    width = batch_module._block_width(csr)
    assert width >= 32, "the budget should afford wide blocks on this grid"
    sources = np.array(random.Random(7).sample(range(csr.number_of_vertices()), width))
    batch_module._dijkstra_sweep_batch(csr, sources[:2], 10**9)  # snapshot caches
    tracemalloc.start()
    try:
        rows = batch_module._dijkstra_sweep_batch(csr, sources, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows is not None and rows.shape == (width, csr.number_of_vertices())
    assert peak <= batch_module._SWEEP_BLOCK_BYTES, peak


def test_even_blocks_never_fall_under_the_depth_gate_minimum():
    """On the weighted grid, any set of at least two gate-minimums splits
    into blocks that all take the batched sweep — no remainder is left for
    solitary per-source heaps."""
    from repro.shortest_paths import batch as batch_module

    csr = _weighted_grid_csr()
    sources = np.array(random.Random(3).sample(range(csr.number_of_vertices()), 16))
    batch_module._dijkstra_sweep_batch(csr, sources, 10**9)  # observe the rounds
    gate = _gate_minimum(csr)
    width = batch_module._block_width(csr)
    assert 2 * gate <= width
    for count in range(2 * gate, 4 * width + 2):
        blocks = list(batch_module.source_blocks(csr, count))
        sizes = [end - begin for begin, end in blocks]
        assert [begin for begin, _ in blocks] == [0] + list(np.cumsum(sizes)[:-1])
        assert sum(sizes) == count and max(sizes) <= width
        assert min(sizes) >= gate, (count, sizes)


@given(st.integers(1, 400), st.integers(1, 50), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_even_blocks_split_without_a_tail_remainder(count, width, gate):
    """The fewest blocks of at most *width* rows, sizes within one of each
    other; with ``width >= 2 * gate`` no block of a set of at least two
    gates falls under *gate*."""
    from repro.shortest_paths.batch import _even_blocks

    sizes = [end - begin for begin, end in _even_blocks(count, width)]
    assert sum(sizes) == count and max(sizes) <= width
    assert len(sizes) == -(-count // width)
    assert max(sizes) - min(sizes) <= 1
    if width >= 2 * gate and count >= 2 * gate:
        assert min(sizes) >= gate


def test_weighted_distances_csr_matches_spd_and_dict_backend():
    """dijkstra_distances_csr: dist bit-equals the SPD's dist field, and the
    settle-order dict rebuild equals the dict route's settle-order dict."""
    from repro.shortest_paths.dijkstra import (
        dijkstra_distances,
        dijkstra_distances_csr,
    )

    graph = _random_weighted_graph(23)
    csr = graph.csr()
    for source in graph.vertices()[:4]:
        i = csr.index_of(source)
        dist, order = dijkstra_distances_csr(csr, i)
        assert np.array_equal(dist, dijkstra_spd_csr(csr, i).dist)
        rebuilt = {csr.vertex_at(j): float(dist[j]) for j in order.tolist()}
        assert rebuilt == dijkstra_distances(graph, source)
        assert list(rebuilt) == list(dijkstra_distances(graph, source))
