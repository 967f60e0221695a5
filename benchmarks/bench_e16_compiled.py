"""E16 — compiled kernel rung (numba-jitted BFS wave + dependency accumulation).

Four measurements on the reference Barabási–Albert graph:

* **per-source: compiled vs numpy CSR** — both rungs run the same
  build-plus-accumulate pass over the timed sources; the compiled rung
  (:mod:`repro.shortest_paths.compiled`) replaces the level-synchronous
  numpy orchestration with one fused ``@njit`` pass.  The expectation this
  benchmark guards is **compiled >= 2x numpy-CSR** on BA(5000, 3).
* **batched: compiled vs numpy wave** — the batched ``(K, n)`` twins,
  compared kernel-to-kernel (``batch_dependencies_compiled`` against
  ``accumulate_dependencies_batch_csr(bfs_spd_batch_csr(...))``).  The
  scipy spmm sweep is deliberately bypassed here: it outranks *both* wave
  rungs in the ``batch_source_dependencies`` dispatch (see that module),
  so comparing through the public entry point would time spmm twice.
* **bit-identity grid** — fixed-seed estimates are asserted identical over
  kernel ∈ {csr, compiled} × n_jobs ∈ {1, 2, 4}: the compiled twins replay
  the numpy rung's exact float summation order, extending the execution
  layer's determinism contract to the kernel knob.
* **fallback receipt** — in a numba-less environment ``kernel="compiled"``
  resolves to ``csr`` with a RuntimeWarning and unchanged results; the
  table records which path this run actually took, so a committed result
  from either environment is self-describing.

Run directly (``python benchmarks/bench_e16_compiled.py``) or through
pytest with the other ``bench_e*`` modules.  ``REPRO_BENCH_SIZE=tiny`` (the
default) uses a smaller graph for smoke runs; the BA(5000, 3) acceptance
configuration is ``REPRO_BENCH_SIZE=small``.  The >= 2x assertion is only
armed when numba is importable — without it both "rungs" are the same
numpy kernels and the speedup column reads 1.0 by construction.
"""

from __future__ import annotations

import time
import warnings

import pytest

from harness import bench_seed, bench_size, emit_table

from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import np, resolve_kernel
from repro.samplers.uniform_source import UniformSourceSampler
from repro.shortest_paths import (
    NUMBA_AVAILABLE,
    accumulate_dependencies_batch_csr,
    accumulate_dependencies_csr,
    bfs_spd_batch_csr,
    bfs_spd_csr,
    csr_source_dependencies,
)
from repro.shortest_paths.compiled import (
    batch_dependencies_compiled,
    source_dependencies_compiled,
    warm_up,
)

#: Graph size per REPRO_BENCH_SIZE tier (attachment parameter fixed at 3;
#: ``small`` is the BA(5000, 3) acceptance configuration).
GRAPH_SIZES = {"tiny": 1000, "small": 5000, "medium": 5000}
#: Sources timed in the per-source and batched comparisons.
SOURCES = {"tiny": 128, "small": 256, "medium": 1024}
#: Batch size of the batched comparison (a mid-range E11 winner).
BATCH_SIZE = 16
#: The bit-identity grid.
KERNELS_GRID = ("csr", "compiled")
JOBS_GRID = (1, 2, 4)


def _graph_size() -> int:
    return GRAPH_SIZES.get(bench_size(), GRAPH_SIZES["tiny"])


def _num_sources() -> int:
    return SOURCES.get(bench_size(), SOURCES["tiny"])


def _graph():
    return barabasi_albert_graph(_graph_size(), 3, seed=bench_seed())


def _per_source_rows():
    graph = _graph()
    csr = graph.csr()
    sources = list(range(_num_sources()))
    warm_up()  # JIT compilation is a one-off cost, never billed to a row

    start = time.perf_counter()
    baseline = np.zeros(csr.number_of_vertices())
    for s in sources:
        baseline += accumulate_dependencies_csr(bfs_spd_csr(csr, s, kernel="csr"), kernel="csr")
    numpy_seconds = time.perf_counter() - start

    if NUMBA_AVAILABLE:
        compiled_pass = lambda s: source_dependencies_compiled(csr, s)
    else:
        # Fallback path: the dispatch resolves back to the numpy kernels
        # (results unchanged); the row then times the same rung twice and
        # its speedup column documents ~1.0 rather than a compiled win.
        compiled_pass = lambda s: csr_source_dependencies(csr, s, kernel="csr")
    start = time.perf_counter()
    compiled_buffer = np.zeros(csr.number_of_vertices())
    for s in sources:
        compiled_buffer += compiled_pass(s)
    compiled_seconds = time.perf_counter() - start
    assert np.array_equal(compiled_buffer, baseline), (
        "compiled per-source Brandes diverged bitwise from the numpy rung"
    )

    shared = {
        "vertices": graph.number_of_vertices(),
        "edges": graph.number_of_edges(),
        "sources": len(sources),
        "numba": NUMBA_AVAILABLE,
    }
    return [
        {"kernel": "csr", "seconds": numpy_seconds, "speedup": 1.0, **shared},
        {
            "kernel": "compiled" if NUMBA_AVAILABLE else "compiled->csr (fallback)",
            "seconds": compiled_seconds,
            "speedup": numpy_seconds / compiled_seconds if compiled_seconds > 0 else float("inf"),
            **shared,
        },
    ]


def _batched_rows():
    graph = _graph()
    csr = graph.csr()
    sources = list(range(_num_sources()))
    warm_up()

    def numpy_sweep():
        buffer = np.zeros(csr.number_of_vertices())
        for begin in range(0, len(sources), BATCH_SIZE):
            accumulate_dependencies_batch_csr(
                bfs_spd_batch_csr(csr, sources[begin : begin + BATCH_SIZE]), out=buffer
            )
        return buffer

    def compiled_sweep():
        buffer = np.zeros(csr.number_of_vertices())
        for begin in range(0, len(sources), BATCH_SIZE):
            batch_dependencies_compiled(
                csr, sources[begin : begin + BATCH_SIZE], out=buffer
            )
        return buffer

    start = time.perf_counter()
    baseline = numpy_sweep()
    numpy_seconds = time.perf_counter() - start
    start = time.perf_counter()
    compiled_buffer = compiled_sweep()
    compiled_seconds = time.perf_counter() - start
    assert np.array_equal(compiled_buffer, baseline), (
        "compiled batched Brandes diverged bitwise from the numpy wave"
    )

    shared = {
        "vertices": graph.number_of_vertices(),
        "edges": graph.number_of_edges(),
        "sources": len(sources),
        "batch_size": BATCH_SIZE,
        "numba": NUMBA_AVAILABLE,
    }
    return [
        {"kernel": "csr-wave", "seconds": numpy_seconds, "speedup": 1.0, **shared},
        {
            "kernel": "compiled" if NUMBA_AVAILABLE else "compiled (python fallback)",
            "seconds": compiled_seconds,
            "speedup": numpy_seconds / compiled_seconds if compiled_seconds > 0 else float("inf"),
            **shared,
        },
    ]


def _grid_row():
    graph = _graph()
    estimates = []
    for kernel in KERNELS_GRID:
        for n_jobs in JOBS_GRID:
            sampler = UniformSourceSampler(n_jobs=n_jobs)
            sampler.kernel = kernel
            with warnings.catch_warnings():
                # Without numba, kernel="compiled" warns once per resolution;
                # the fallback row below is this table's receipt for that.
                warnings.simplefilter("ignore", RuntimeWarning)
                estimates.append(
                    sampler.estimate(
                        graph, graph.vertices()[1], 64, seed=bench_seed()
                    ).estimate
                )
    identical = all(value == estimates[0] for value in estimates)
    assert identical, (
        f"fixed-seed estimates differ across the kernel x n_jobs grid: {estimates}"
    )
    return {
        "check": "uniform-source estimate, seed fixed",
        "kernel_grid": "/".join(KERNELS_GRID),
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


PER_SOURCE_COLUMNS = ["kernel", "vertices", "edges", "sources", "numba", "seconds", "speedup"]
BATCHED_COLUMNS = [
    "kernel", "vertices", "edges", "sources", "batch_size", "numba", "seconds", "speedup",
]
GRID_COLUMNS = ["check", "kernel_grid", "n_jobs_grid", "bit_identical", "estimate"]
FALLBACK_COLUMNS = [
    "numba_importable", "requested", "resolved", "fallback_warning", "results_changed",
]


def _emit_all():
    per_source = _per_source_rows()
    batched = _batched_rows()
    grid = _grid_row()
    fallback = _fallback_row()
    size = _graph_size()
    emit_table(
        "E16",
        f"compiled vs numpy-CSR per-source Brandes on a BA({size}, 3) graph",
        per_source,
        PER_SOURCE_COLUMNS,
    )
    emit_table(
        "E16-batched",
        f"compiled vs numpy batched wave on a BA({size}, 3) graph",
        batched,
        BATCHED_COLUMNS,
    )
    emit_table(
        "E16-determinism",
        "fixed-seed bit-identity across kernel x n_jobs",
        [grid],
        GRID_COLUMNS,
    )
    emit_table(
        "E16-fallback",
        "kernel='compiled' resolution without numba",
        [fallback],
        FALLBACK_COLUMNS,
    )
    return per_source


@pytest.mark.skipif(np is None, reason="the kernel rungs require numpy")
@pytest.mark.benchmark(group="e16")
def test_e16_compiled(benchmark):
    """Regenerate the E16 tables and time one per-source pass per rung."""
    per_source = _emit_all()

    graph = _graph()
    csr = graph.csr()
    warm_up()
    benchmark.pedantic(
        lambda: csr_source_dependencies(csr, 0),
        rounds=5,
        iterations=1,
    )
    speedup = per_source[-1]["speedup"]
    benchmark.extra_info["compiled_speedup"] = speedup
    benchmark.extra_info["numba"] = NUMBA_AVAILABLE
    if NUMBA_AVAILABLE:
        # The emitted table is the receipt for the >= 2x acceptance bar at
        # REPRO_BENCH_SIZE=small; the pytest assert guards a sanity floor so
        # a loaded CI runner cannot flake the suite.
        assert speedup >= 1.2, f"compiled rung slower than numpy ({speedup:.2f}x)"


if __name__ == "__main__":
    _emit_all()
