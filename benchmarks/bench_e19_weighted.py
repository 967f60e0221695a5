"""E19 — weighted fast path: array-native + compiled Dijkstra rungs.

Four measurements on a weighted Barabási–Albert graph (BA(n, 3) topology,
weights drawn from {0.5, 1.0, 1.5, 2.0, 3.0} with a fixed seed):

* **dict vs array-native (per-source and batched) vs compiled** — the
  weighted rungs run the same Brandes pass (Dijkstra + dependency
  accumulation) over the timed sources.  The dict rung is the original
  heapq-over-dicts reference (:func:`dijkstra_spd` +
  :func:`accumulate_dependencies`); the array-native per-source rung is
  :func:`dijkstra_source_dependencies_csr` (exact heap + DAG sweep); the
  batched row hands every timed source to :func:`batch_source_dependencies`
  in one call, which runs them in the blocks it chooses (the batched
  Bellman–Ford sweep where its depth gate allows); the compiled rung is the
  ``@njit`` twin :func:`source_dependencies_compiled`.
  Measured on weighted BA(5000, 3) (``REPRO_BENCH_SIZE=small``, 256
  sources, 2-vCPU VM, numba absent): array-native per-source 2.0x dict,
  batched with kernel-chosen blocks 10.2x dict (5.1x per-source).  The pytest assert below only
  guards interpreter-level sanity floors so a numba-less or loaded runner
  cannot flake the suite.
* **threads curve** — the batched weighted sweep
  (:func:`batch_dependencies_compiled`) at kernel_threads ∈ {1, 2, 4}.
  The ``prange`` rows stride independent sources with private scratch, so
  every count must produce the bit-identical matrix; the curve documents
  what the knob buys in wall-clock on this machine.  Without numba the
  compiled row and the curve are not timed (their cells read "skipped:
  numba absent"): the plain-Python fallback bodies cost minutes and would
  time the interpreter, not a kernel.  Their bit-identity assertions still
  run, on :data:`FALLBACK_SOURCES` sources.
* **bit-identity grid** — fixed-seed estimates asserted identical over
  kernel ∈ {csr, compiled} × kernel_threads ∈ {1, 2, 4} × n_jobs ∈
  {1, 2, 4}: every weighted path computes the one weighted rule of
  :mod:`repro.shortest_paths.dijkstra` (exact distances, one DAG rule,
  one Brandes arithmetic), so every rung returns the same bits at any
  parallelism.
* **fallback receipt** — which rung ``kernel="compiled"`` actually
  resolved to in this environment, so a committed result is
  self-describing.

Run directly (``python benchmarks/bench_e19_weighted.py``) or through
pytest with the other ``bench_e*`` modules.  ``REPRO_BENCH_SIZE=tiny``
(the default) uses a smaller graph for smoke runs; the weighted
BA(5000, 3) acceptance configuration is ``REPRO_BENCH_SIZE=small``.
"""

from __future__ import annotations

import random
import time
import warnings

import pytest

from harness import bench_seed, bench_size, emit_table

from repro.graphs import Graph, barabasi_albert_graph
from repro.graphs.csr import np, resolve_kernel
from repro.samplers.uniform_source import UniformSourceSampler
from repro.shortest_paths import (
    NUMBA_AVAILABLE,
    accumulate_dependencies,
    dijkstra_spd,
)
from repro.shortest_paths.batch import batch_source_dependencies
from repro.shortest_paths.compiled import (
    batch_dependencies_compiled,
    source_dependencies_compiled,
    warm_up,
)
from repro.shortest_paths.dijkstra import dijkstra_source_dependencies_csr

#: Graph size per REPRO_BENCH_SIZE tier (attachment parameter fixed at 3;
#: ``small`` is the weighted BA(5000, 3) acceptance configuration).
GRAPH_SIZES = {"tiny": 1000, "small": 5000, "medium": 5000}
#: Sources timed in the per-source and threads-curve comparisons (the
#: weighted dict rung costs O(m log n) per source in pure Python, so the
#: tiny tier keeps the count modest).
SOURCES = {"tiny": 64, "small": 256, "medium": 512}
#: Block width of the compiled threads curve (a mid-range E11 winner).
BATCH_SIZE = 16
#: Sources the plain-Python compiled bodies are checked on without numba
#: (untimed: identity only).
FALLBACK_SOURCES = 2
#: Cell text of a row that is not timed without numba.
SKIPPED = "skipped: numba absent"
#: Edge-weight palette (strictly positive, paper Section 2 model).
WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0)
#: The bit-identity grid.
KERNELS_GRID = ("csr", "compiled")
THREADS_GRID = (1, 2, 4)
JOBS_GRID = (1, 2, 4)


def _graph_size() -> int:
    return GRAPH_SIZES.get(bench_size(), GRAPH_SIZES["tiny"])


def _num_sources() -> int:
    return SOURCES.get(bench_size(), SOURCES["tiny"])


def _graph() -> Graph:
    """Weighted BA graph: the E16 topology with seeded weight assignment."""
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
    warm_up()  # JIT compilation is a one-off cost, never billed to a row

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
    batch_source_dependencies(csr, sources, out=batched_buffer, kernel="csr")
    batched_seconds = time.perf_counter() - start

    compiled_sources = sources if NUMBA_AVAILABLE else sources[:FALLBACK_SOURCES]
    start = time.perf_counter()
    compiled_rows = [source_dependencies_compiled(csr, s) for s in compiled_sources]
    compiled_seconds = time.perf_counter() - start

    # The dict rung iterates label dicts (float tolerance); the array and
    # compiled rungs share the exact settle order (bitwise).
    assert np.allclose(array_buffer, dict_buffer, rtol=1e-9, atol=1e-12), (
        "array-native weighted Brandes diverged from the dict rung"
    )
    assert np.array_equal(batched_buffer, array_buffer), (
        "batched weighted Brandes diverged bitwise from the per-source pass"
    )
    for s, row in zip(compiled_sources, compiled_rows):
        assert np.array_equal(row, dijkstra_source_dependencies_csr(csr, s)), (
            "compiled weighted Brandes diverged bitwise from the array-native rung"
        )

    shared = {
        "vertices": graph.number_of_vertices(),
        "edges": graph.number_of_edges(),
        "sources": len(sources),
        "numba": NUMBA_AVAILABLE,
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
        {
            "rung": "compiled" if NUMBA_AVAILABLE else "compiled (python fallback)",
            "seconds": compiled_seconds if NUMBA_AVAILABLE else SKIPPED,
            "speedup": (
                (dict_seconds / compiled_seconds if compiled_seconds > 0 else float("inf"))
                if NUMBA_AVAILABLE
                else SKIPPED
            ),
            **shared,
        },
    ]


def _threads_rows():
    graph = _graph()
    csr = graph.csr()
    sources = list(range(_num_sources() if NUMBA_AVAILABLE else FALLBACK_SOURCES))
    warm_up()

    def sweep(threads: int):
        buffer = np.zeros(csr.number_of_vertices())
        for begin in range(0, len(sources), BATCH_SIZE):
            batch_dependencies_compiled(
                csr, sources[begin : begin + BATCH_SIZE], out=buffer, threads=threads
            )
        return buffer

    baseline = None
    base_seconds = None
    rows = []
    for threads in THREADS_GRID:
        start = time.perf_counter()
        buffer = sweep(threads)
        seconds = time.perf_counter() - start
        if baseline is None:
            baseline, base_seconds = buffer, seconds
        else:
            assert np.array_equal(buffer, baseline), (
                f"kernel_threads={threads} changed the weighted batch matrix"
            )
        rows.append(
            {
                "kernel_threads": threads,
                "vertices": graph.number_of_vertices(),
                "sources": len(sources),
                "batch_size": BATCH_SIZE,
                "numba": NUMBA_AVAILABLE,
                "seconds": seconds if NUMBA_AVAILABLE else SKIPPED,
                "speedup_vs_1": (
                    (base_seconds / seconds if seconds > 0 else float("inf"))
                    if NUMBA_AVAILABLE
                    else SKIPPED
                ),
                "bit_identical": True,
            }
        )
    return rows


def _grid_row():
    graph = _graph()
    estimates = []
    for kernel in KERNELS_GRID:
        for threads in THREADS_GRID:
            for n_jobs in JOBS_GRID:
                sampler = UniformSourceSampler(n_jobs=n_jobs)
                sampler.kernel = kernel
                sampler.kernel_threads = threads
                with warnings.catch_warnings():
                    # Without numba, kernel="compiled" warns once per
                    # resolution; the fallback row is this table's receipt.
                    warnings.simplefilter("ignore", RuntimeWarning)
                    estimates.append(
                        sampler.estimate(
                            graph, graph.vertices()[1], 48, seed=bench_seed()
                        ).estimate
                    )
    identical = all(value == estimates[0] for value in estimates)
    assert identical, (
        f"fixed-seed weighted estimates differ across the "
        f"kernel x threads x n_jobs grid: {estimates}"
    )
    return {
        "check": "uniform-source weighted estimate, seed fixed",
        "kernel_grid": "/".join(KERNELS_GRID),
        "threads_grid": "/".join(str(t) for t in THREADS_GRID),
        "n_jobs_grid": "/".join(str(j) for j in JOBS_GRID),
        "bit_identical": identical,
        "estimate": estimates[0],
    }


def _fallback_row():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resolved = resolve_kernel("compiled")
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    if NUMBA_AVAILABLE:
        assert resolved == "compiled" and not warned
    else:
        assert resolved == "csr" and warned, (
            "numba-less resolution must fall back to the numpy rung with a warning"
        )
    return {
        "numba_importable": NUMBA_AVAILABLE,
        "requested": "compiled",
        "resolved": resolved,
        "fallback_warning": warned,
        "results_changed": False,  # guaranteed by the grid row's assertion
    }


PER_SOURCE_COLUMNS = ["rung", "vertices", "edges", "sources", "numba", "seconds", "speedup"]
THREADS_COLUMNS = [
    "kernel_threads", "vertices", "sources", "batch_size", "numba",
    "seconds", "speedup_vs_1", "bit_identical",
]
GRID_COLUMNS = [
    "check", "kernel_grid", "threads_grid", "n_jobs_grid", "bit_identical", "estimate",
]
FALLBACK_COLUMNS = [
    "numba_importable", "requested", "resolved", "fallback_warning", "results_changed",
]


def _emit_all():
    per_source = _per_source_rows()
    threads = _threads_rows()
    grid = _grid_row()
    fallback = _fallback_row()
    size = _graph_size()
    emit_table(
        "E19",
        f"weighted Brandes rungs (dict/array/compiled) on weighted BA({size}, 3)",
        per_source,
        PER_SOURCE_COLUMNS,
    )
    emit_table(
        "E19-threads",
        f"compiled weighted batch at kernel_threads 1/2/4 on weighted BA({size}, 3)",
        threads,
        THREADS_COLUMNS,
    )
    emit_table(
        "E19-determinism",
        "fixed-seed bit-identity across kernel x kernel_threads x n_jobs (weighted)",
        [grid],
        GRID_COLUMNS,
    )
    emit_table(
        "E19-fallback",
        "kernel='compiled' resolution without numba (weighted route)",
        [fallback],
        FALLBACK_COLUMNS,
    )
    return per_source


@pytest.mark.skipif(np is None, reason="the weighted fast path requires numpy")
@pytest.mark.benchmark(group="e19")
def test_e19_weighted(benchmark):
    """Regenerate the E19 tables and time one fused weighted pass."""
    per_source = _emit_all()

    graph = _graph()
    csr = graph.csr()
    warm_up()
    benchmark.pedantic(
        lambda: dijkstra_source_dependencies_csr(csr, 0),
        rounds=5,
        iterations=1,
    )
    array_speedup = per_source[1]["speedup"]
    compiled_speedup = per_source[3]["speedup"]
    benchmark.extra_info["array_speedup"] = array_speedup
    benchmark.extra_info["compiled_speedup"] = compiled_speedup if NUMBA_AVAILABLE else None
    benchmark.extra_info["numba"] = NUMBA_AVAILABLE
    # The emitted table is the receipt (see the module docstring for the
    # measured figures); the pytest asserts guard sanity floors so a loaded
    # runner cannot flake.
    assert array_speedup >= 1.2, (
        f"array-native weighted rung slower than the dict rung ({array_speedup:.2f}x)"
    )
    if NUMBA_AVAILABLE:
        assert compiled_speedup >= 2.0 * array_speedup / 3.0 or compiled_speedup >= 2.0, (
            f"compiled weighted rung did not clear its floor ({compiled_speedup:.2f}x)"
        )


if __name__ == "__main__":
    _emit_all()
