"""The unweighted batch kernels visit only the BFS levels that feed an answer.

The sparse-matmul sweep stops its forward products once every (vertex,
column) pair is reached and its backward products at level 1; the numpy
wave expands no level past the last reached vertex and sums no edge into
the roots.  These tests pin that the trimmed kernels still return the
per-source pass's bits on the graphs where the trims differ: a
disconnected graph, where the forward loop never reaches ``n × K`` and
still ends on an empty product, blocks with duplicate sources, and every
block width from 1 to 16.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graphs import Graph, barabasi_albert_graph, path_graph
from repro.graphs.csr import CSRGraph
from repro.shortest_paths import (
    accumulate_dependencies_batch_csr,
    bfs_spd_batch_csr,
    bfs_spd_csr,
    csr_source_dependencies,
)
from repro.shortest_paths import batch as batch_module

needs_scipy = pytest.mark.skipif(
    batch_module._scipy_sparse is None, reason="the spmm sweep needs scipy"
)


def _disconnected_graph() -> Graph:
    """A path, a triangle with a tail, a single edge and an isolated vertex."""
    g = Graph()
    g.add_edges_from([(i, i + 1) for i in range(6)])
    g.add_edges_from([(10, 11), (11, 12), (12, 10), (12, 13)])
    g.add_edge(20, 21)
    g.add_vertex(30)
    return g


GRAPHS = {
    "disconnected": _disconnected_graph,
    "ba": lambda: barabasi_albert_graph(120, 2, seed=3),
}


def _sources(n: int, width: int, seed: int):
    """*width* source indices with the first repeated at the end."""
    rng = random.Random(seed)
    sources = [rng.randrange(n) for _ in range(width)]
    if width > 1:
        sources[-1] = sources[0]
    return np.array(sources, dtype=np.int64)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("width", range(1, 17))
def test_trimmed_kernels_match_the_per_source_pass(name, width):
    csr = GRAPHS[name]().csr()
    n = csr.number_of_vertices()
    sources = _sources(n, width, seed=width)
    fused = np.array([csr_source_dependencies(csr, int(s)) for s in sources])
    batch = bfs_spd_batch_csr(csr, sources)
    matrices = [accumulate_dependencies_batch_csr(batch)]
    if batch_module._scipy_sparse is not None:
        matrices.append(batch_module._batch_dependencies_spmm(csr, sources, None))
    for matrix in matrices:
        assert np.array_equal(matrix, fused)
    for row, s in enumerate(sources):
        single = bfs_spd_csr(csr, int(s))
        assert np.array_equal(batch.dist[row], single.dist)
        assert np.array_equal(batch.sig[row], single.sig)


class _CountingMatrix:
    """Wraps a scipy matrix and counts the products taken through it."""

    def __init__(self, matrix, counter):
        self.matrix = matrix
        self.counter = counter

    def __matmul__(self, dense):
        self.counter.append(1)
        return self.matrix @ dense


def _spmm_products(csr, sources):
    counter = []
    view = CSRGraph.scipy_adjacency
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            CSRGraph,
            "scipy_adjacency",
            lambda self, transpose=False: _CountingMatrix(view(self, transpose=transpose), counter),
        )
        batch_module._batch_dependencies_spmm(csr, np.asarray(sources, dtype=np.int64), None)
    return len(counter)


@needs_scipy
def test_spmm_skips_the_dead_products_on_a_connected_graph():
    # A path of 5 from one end has 4 levels below the root: 4 forward
    # products find them (no fifth, empty one) and 3 backward products
    # credit levels 3..1 (none into the root).
    assert _spmm_products(path_graph(5).csr(), [0]) == 4 + 3


@needs_scipy
def test_spmm_ends_on_the_empty_product_when_pairs_stay_unreached():
    # Vertex 30 is never reached from 0, so the forward loop learns the
    # wave is over from one product that finds nothing: 6 levels found,
    # one empty product, 5 backward products.
    csr = _disconnected_graph().csr()
    assert _spmm_products(csr, [csr.index_of(0)]) == 6 + 1 + 5
