"""E19 — weighted fast path: the dict rung against the array-native passes.

Two measurements on a weighted Barabási–Albert graph (BA(n, 3) topology,
weights drawn from {0.5, 1.0, 1.5, 2.0, 3.0} with a fixed seed):

* **dict vs array-native (per-source and batched)** — the weighted rungs
  run the same Brandes pass (Dijkstra + dependency accumulation) over the
  timed sources.  The dict rung is the original heapq-over-dicts reference
  (:func:`dijkstra_spd` + :func:`accumulate_dependencies`); the
  array-native per-source rung is :func:`dijkstra_source_dependencies_csr`
  (exact heap + DAG sweep); the batched row hands every timed source to
  :func:`batch_source_dependencies` in one call, which runs them in the
  blocks it chooses (the batched Bellman–Ford sweep where its depth gate
  allows).  Measured on weighted BA(5000, 3) (``REPRO_BENCH_SIZE=small``,
  256 sources, 2-vCPU VM): array-native per-source 2.0x dict, batched with
  kernel-chosen blocks 9.9x dict (4.9x per-source).  The pytest assert
  below only guards an interpreter-level sanity floor so a loaded runner
  cannot flake the suite.
* **bit-identity across n_jobs** — fixed-seed estimates asserted identical
  over n_jobs ∈ {1, 2, 4}: every weighted path computes the one weighted
  rule of :mod:`repro.shortest_paths.dijkstra` (exact distances, one DAG
  rule, one Brandes arithmetic), and the shard scheduler merges in shard
  order, so the worker count never moves a bit.

Run directly (``python benchmarks/bench_e19_weighted.py``) or through
pytest with the other ``bench_e*`` modules.  ``REPRO_BENCH_SIZE=tiny``
(the default) uses a smaller graph for smoke runs; the weighted
BA(5000, 3) acceptance configuration is ``REPRO_BENCH_SIZE=small``.
"""

from __future__ import annotations

import random
import time

import pytest

from harness import bench_seed, bench_size, emit_table

from repro.graphs import Graph, barabasi_albert_graph
from repro.graphs.csr import np
from repro.samplers.uniform_source import UniformSourceSampler
from repro.shortest_paths import accumulate_dependencies, dijkstra_spd
from repro.shortest_paths.batch import batch_source_dependencies
from repro.shortest_paths.dijkstra import dijkstra_source_dependencies_csr

#: Graph size per REPRO_BENCH_SIZE tier (attachment parameter fixed at 3;
#: ``small`` is the weighted BA(5000, 3) acceptance configuration).
GRAPH_SIZES = {"tiny": 1000, "small": 5000, "medium": 5000}
#: Sources timed in the per-source comparison (the weighted dict rung
#: costs O(m log n) per source in pure Python, so the tiny tier keeps the
#: count modest).
SOURCES = {"tiny": 64, "small": 256, "medium": 512}
#: Edge-weight palette (strictly positive, paper Section 2 model).
WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0)
#: The bit-identity axis.
JOBS_GRID = (1, 2, 4)


def _graph_size() -> int:
    return GRAPH_SIZES.get(bench_size(), GRAPH_SIZES["tiny"])


def _num_sources() -> int:
    return SOURCES.get(bench_size(), SOURCES["tiny"])


def _graph() -> Graph:
    """Weighted BA graph with seeded weight assignment."""
    base = barabasi_albert_graph(_graph_size(), 3, seed=bench_seed())
    rng = random.Random(bench_seed() + 1)
    graph = Graph(weighted=True)
    for v in base.vertices():
        graph.add_vertex(v)
    for u, v in base.edges():
        graph.add_edge(u, v, weight=rng.choice(WEIGHTS))
    return graph


def _per_source_rows():
    graph = _graph()
    csr = graph.csr()
    n = csr.number_of_vertices()
    sources = list(range(_num_sources()))

    start = time.perf_counter()
    dict_buffer = np.zeros(n)
    for s in sources:
        deltas = accumulate_dependencies(dijkstra_spd(graph, csr.vertex_at(s)))
        for v, value in deltas.items():
            dict_buffer[csr.index_of(v)] += value
    dict_seconds = time.perf_counter() - start

    start = time.perf_counter()
    array_buffer = np.zeros(n)
    for s in sources:
        array_buffer += dijkstra_source_dependencies_csr(csr, s)
    array_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_buffer = np.zeros(n)
    batch_source_dependencies(csr, sources, out=batched_buffer)
    batched_seconds = time.perf_counter() - start

    # The dict rung iterates label dicts (float tolerance); the array-native
    # passes share the one weighted rule (bitwise).
    assert np.allclose(array_buffer, dict_buffer, rtol=1e-9, atol=1e-12), (
        "array-native weighted Brandes diverged from the dict rung"
    )
    assert np.array_equal(batched_buffer, array_buffer), (
        "batched weighted Brandes diverged bitwise from the per-source pass"
    )

    shared = {
        "vertices": graph.number_of_vertices(),
        "edges": graph.number_of_edges(),
        "sources": len(sources),
    }
    return [
        {"rung": "dict", "seconds": dict_seconds, "speedup": 1.0, **shared},
        {
            "rung": "array-native",
            "seconds": array_seconds,
            "speedup": dict_seconds / array_seconds if array_seconds > 0 else float("inf"),
            **shared,
        },
        {
            "rung": "array-native batched (kernel-chosen blocks)",
            "seconds": batched_seconds,
            "speedup": dict_seconds / batched_seconds if batched_seconds > 0 else float("inf"),
            **shared,
        },
    ]


def _grid_row():
    graph = _graph()
    estimates = [
        UniformSourceSampler(n_jobs=n_jobs)
        .estimate(graph, graph.vertices()[1], 48, seed=bench_seed())
        .estimate
        for n_jobs in JOBS_GRID
    ]
    identical = all(value == estimates[0] for value in estimates)
    assert identical, (
        f"fixed-seed weighted estimates differ across the n_jobs grid: {estimates}"
    )
    return {
        "check": "uniform-source weighted estimate, seed fixed",
        "n_jobs_grid": "/".join(str(j) for j in JOBS_GRID),
        "bit_identical": identical,
        "estimate": estimates[0],
    }


PER_SOURCE_COLUMNS = ["rung", "vertices", "edges", "sources", "seconds", "speedup"]
GRID_COLUMNS = ["check", "n_jobs_grid", "bit_identical", "estimate"]


def _emit_all():
    per_source = _per_source_rows()
    grid = _grid_row()
    size = _graph_size()
    emit_table(
        "E19",
        f"weighted Brandes rungs (dict/array-native) on weighted BA({size}, 3)",
        per_source,
        PER_SOURCE_COLUMNS,
    )
    emit_table(
        "E19-determinism",
        "fixed-seed bit-identity across n_jobs (weighted)",
        [grid],
        GRID_COLUMNS,
    )
    return per_source


@pytest.mark.benchmark(group="e19")
def test_e19_weighted(benchmark):
    """Regenerate the E19 tables and time one fused weighted pass."""
    per_source = _emit_all()

    csr = _graph().csr()
    benchmark.pedantic(
        lambda: dijkstra_source_dependencies_csr(csr, 0),
        rounds=5,
        iterations=1,
    )
    array_speedup = per_source[1]["speedup"]
    benchmark.extra_info["array_speedup"] = array_speedup
    # The emitted table is the receipt (see the module docstring for the
    # measured figures); the pytest assert guards a sanity floor so a
    # loaded runner cannot flake.
    assert array_speedup >= 1.2, (
        f"array-native weighted rung slower than the dict rung ({array_speedup:.2f}x)"
    )


if __name__ == "__main__":
    _emit_all()
