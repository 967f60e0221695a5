"""E13 — cross-process shared dependency-vector arena receipt.

The E12 receipt showed that on few-core machines the dominant residual
cost of the multi-chain engine is *duplicated Brandes passes*: with
private per-worker caches a dependency vector computed for one chain is
recomputed for every other chain that proposes the same source.  Every
multi-chain run whose chains go to a pool therefore shares one arena
(:mod:`repro.execution.shared_cache`); this benchmark is its receipt, on
the reference BA graph with K=4 chains over ``n_jobs=4`` worker processes:

* **E13 (dedup + wall-clock)** — the inline single-process run (all
  chains share one in-process oracle, so its ``evaluations`` count *is*
  the run's unique-source count ``U``), the pass total of private
  per-chain caches (each chain run on its own on the driver's streams and
  budgets — deterministic, so counted rather than timed: no run can ask
  for private caches any more), and the pooled run with its arena.  The
  acceptance property is ``evaluations(pooled) <= 1.2 x U`` — the arena
  collapses total passes to the unique sources plus at most a few benign
  races — with ``cpu_count`` stamped so parallelism and dedup
  contributions stay attributable.
* **E13-determinism** — the pooled estimate is asserted bit-identical to
  the inline estimate for every ``n_jobs`` ∈ {1, 2, 4} at a fixed seed
  (cache sharing moves work counters, never results).
* **E13-overflow** — the free space the arena sees is cut to twice the
  segment of 8 rows (the clamp keeps half as headroom), so
  ``create_shared_store`` clamps it and it overflows immediately; the
  estimate is asserted unchanged (the store refuses new rows, private
  caches absorb the rest).

Run directly (``python benchmarks/bench_e13_shared_cache.py``) or through
pytest with the other ``bench_e*`` modules.  ``REPRO_BENCH_SIZE=tiny`` (the
default) uses a smaller graph for smoke runs; the committed receipt under
``benchmarks/results/`` is produced with ``REPRO_BENCH_SIZE=small`` — the
BA(5000, 3), K=4, n_jobs=4 configuration of the acceptance criterion.
"""

from __future__ import annotations

import multiprocessing
import time
from unittest import mock

import pytest

from harness import bench_seed, bench_size, emit_table

from repro._rng import ensure_rng, spawn_rng
from repro.execution import shared_cache
from repro.execution.shared_cache import shared_memory_available
from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import np
from repro.mcmc.multichain import MultiChainMHSampler, split_budget

#: Graph size per REPRO_BENCH_SIZE tier (attachment parameter fixed at 3;
#: ``small`` is the BA(5000, 3) acceptance configuration).
GRAPH_SIZES = {"tiny": 600, "small": 5000, "medium": 5000}
#: Total sampling budget split over the K chains of every run.
TOTAL_SAMPLES = {"tiny": 96, "small": 4096, "medium": 8192}
#: Chains and worker processes of the acceptance configuration.
CHAINS = 4
BENCH_JOBS = 4
#: n_jobs values of the determinism check.
JOBS = (1, 2, 4)
#: The acceptance bound: total passes over unique sources with the arena.
EVALS_OVER_UNIQUE_BOUND = 1.2
#: Rows the overflow row's arena is clamped to.
OVERFLOW_ROWS = 8
#: Engine labels of the dedup rows main() and the pytest entry point read.
PRIVATE_ENGINE = "private per-chain caches (counted)"
SHARED_ENGINE = "shared arena"


def _graph_size() -> int:
    return GRAPH_SIZES.get(bench_size(), GRAPH_SIZES["tiny"])


def _total_samples() -> int:
    return TOTAL_SAMPLES.get(bench_size(), TOTAL_SAMPLES["tiny"])


def _bench_graph():
    graph = barabasi_albert_graph(_graph_size(), 3, seed=bench_seed())
    graph.csr()  # take the snapshot outside every timed region
    return graph, graph.vertices()[0]  # an early BA vertex: hub, positive BC


def _run(n_jobs: int):
    graph, r = _bench_graph()
    sampler = MultiChainMHSampler(n_chains=CHAINS, n_jobs=n_jobs)
    start = time.perf_counter()
    estimate = sampler.estimate(graph, r, _total_samples(), seed=bench_seed())
    return estimate, time.perf_counter() - start


def _private_chain_evaluations() -> int:
    """Brandes passes the K chains pay when each keeps a private oracle.

    Every chain runs on its own, on the driver's per-chain streams and
    budgets; the sum of their counters is what a pool whose workers share
    nothing would pay with one chain per worker.
    """
    graph, r = _bench_graph()
    base = MultiChainMHSampler(n_chains=CHAINS).base
    streams = [spawn_rng(ensure_rng(bench_seed()), i) for i in range(CHAINS)]
    budgets = split_budget(_total_samples(), CHAINS)
    return sum(
        base.run_chain(graph, r, budget, seed=stream).evaluations
        for stream, budget in zip(streams, budgets)
    )


def _dedup_rows():
    inline, inline_seconds = _run(n_jobs=1)
    shared, shared_seconds = _run(n_jobs=BENCH_JOBS)
    # One in-process oracle serves every chain of the inline run, so its
    # pass count is the number of unique sources the workload touches.
    unique = inline.diagnostics["evaluations"]
    assert inline.estimate == shared.estimate, (
        f"the arena changed the pooled estimate: {inline.estimate} / {shared.estimate}"
    )

    def row(engine, evaluations, **fields):
        return {
            "engine": engine,
            "chains": CHAINS,
            "total_samples": _total_samples(),
            "evaluations": evaluations,
            "unique_sources": unique,
            "evals_over_unique": evaluations / unique,
            **fields,
        }

    def timed(engine, estimate, seconds):
        diag = estimate.diagnostics
        stats = diag["shared_cache_stats"]
        return row(
            engine,
            diag["evaluations"],
            n_jobs=diag["n_jobs"],
            shared_cache=diag["shared_cache"],
            seconds=seconds,
            estimate=estimate.estimate,
            published=stats["published"] if stats else None,
        )

    return [
        timed("inline, one oracle", inline, inline_seconds),
        row(PRIVATE_ENGINE, _private_chain_evaluations(), shared_cache=False),
        timed(SHARED_ENGINE, shared, shared_seconds),
    ]


def _determinism_rows():
    total = min(_total_samples(), 512)  # the identity check needs no scale
    graph, r = _bench_graph()
    reference = MultiChainMHSampler(n_chains=CHAINS).estimate(graph, r, total, seed=bench_seed())
    rows = []
    for n_jobs in JOBS:
        pooled = MultiChainMHSampler(n_chains=CHAINS, n_jobs=n_jobs).estimate(
            graph, r, total, seed=bench_seed()
        )
        identical = pooled.estimate == reference.estimate
        assert identical, (
            f"the pooled estimate diverged from the inline run at "
            f"n_jobs={n_jobs}: {pooled.estimate} != {reference.estimate}"
        )
        rows.append(
            {
                "check": "pooled run vs inline run, seed fixed",
                "n_jobs": n_jobs,
                "shared_cache": pooled.diagnostics["shared_cache"],
                "bit_identical": identical,
                "value": pooled.estimate,
            }
        )
    return rows


def _overflow_row():
    total = min(_total_samples(), 512)
    graph, r = _bench_graph()
    reference = MultiChainMHSampler(n_chains=CHAINS).estimate(graph, r, total, seed=bench_seed())
    # Report room for OVERFLOW_ROWS rows only: create_shared_store clamps
    # the arena to them (it sizes an arena to half the free bytes).
    free = 2 * shared_cache._segment_bytes(graph.number_of_vertices(), OVERFLOW_ROWS)
    with mock.patch.object(shared_cache, "_shared_memory_free_bytes", return_value=free):
        tiny = MultiChainMHSampler(n_chains=CHAINS, n_jobs=2).estimate(
            graph, r, total, seed=bench_seed()
        )
    identical = tiny.estimate == reference.estimate
    assert identical, (
        f"arena overflow changed the estimate: {tiny.estimate} != {reference.estimate}"
    )
    stats = tiny.diagnostics["shared_cache_stats"]
    assert stats["capacity"] == OVERFLOW_ROWS
    return {
        "n_jobs": 2,
        "arena_capacity": stats["capacity"],
        "published": stats["published"],
        "full": stats["full"],
        "bit_identical": identical,
        "evaluations": tiny.diagnostics["evaluations"],
        "estimate": tiny.estimate,
    }


DEDUP_COLUMNS = [
    "engine", "chains", "n_jobs", "shared_cache", "total_samples",
    "evaluations", "unique_sources", "evals_over_unique", "seconds",
    "estimate", "published",
]
DETERMINISM_COLUMNS = ["check", "n_jobs", "shared_cache", "bit_identical", "value"]
OVERFLOW_COLUMNS = [
    "n_jobs", "arena_capacity", "published", "full", "bit_identical", "evaluations",
    "estimate",
]


def _emit_all():
    size = _graph_size()
    dedup_rows = _dedup_rows()
    emit_table(
        "E13",
        f"shared dependency arena vs private per-chain caches on a BA({size}, 3) "
        f"graph (K={CHAINS}, n_jobs={BENCH_JOBS}, "
        f"cpu_count={multiprocessing.cpu_count()})",
        dedup_rows,
        DEDUP_COLUMNS,
    )
    emit_table(
        "E13-determinism",
        "fixed-seed bit-identity of the pooled estimate, pooled vs inline run",
        _determinism_rows(),
        DETERMINISM_COLUMNS,
    )
    emit_table(
        "E13-overflow",
        f"arena clamped to {OVERFLOW_ROWS} rows on a BA({size}, 3) graph "
        "(result-neutral overflow)",
        [_overflow_row()],
        OVERFLOW_COLUMNS,
    )
    return dedup_rows


def _row(rows, engine):
    return next(row for row in rows if row["engine"] == engine)


@pytest.mark.skipif(
    np is None or not shared_memory_available(),
    reason="the shared-arena benchmark requires numpy and working shared memory",
)
@pytest.mark.benchmark(group="e13")
def test_e13_shared_cache(benchmark):
    """Regenerate the E13 tables and time one pooled estimate with its arena."""
    rows = _emit_all()

    graph, r = _bench_graph()
    sampler = MultiChainMHSampler(n_chains=CHAINS, n_jobs=2)
    benchmark.pedantic(
        lambda: sampler.estimate(graph, r, 64, seed=bench_seed()),
        rounds=3,
        iterations=1,
    )
    shared = _row(rows, SHARED_ENGINE)
    benchmark.extra_info["evals_over_unique"] = shared["evals_over_unique"]
    # The bit-identity assertions inside _emit_all are the hard gate at
    # every size.  The dedup ratio is asserted at the receipt sizes only:
    # at tiny scale K chains barely overlap on 600 vertices, so the ratio
    # is trivially close to the private run and proves nothing.
    if bench_size() != "tiny":
        assert shared["evals_over_unique"] <= EVALS_OVER_UNIQUE_BOUND, (
            f"shared arena did not deduplicate: {shared['evaluations']} passes "
            f"for {shared['unique_sources']} unique sources"
        )


def main() -> None:
    if np is None or not shared_memory_available():
        raise SystemExit(
            "the shared-arena benchmark requires numpy and working shared memory"
        )
    rows = _emit_all()
    shared = _row(rows, SHARED_ENGINE)
    private = _row(rows, PRIVATE_ENGINE)
    print(
        f"shared-arena passes / unique sources: {shared['evals_over_unique']:.3f} "
        f"(target: <= {EVALS_OVER_UNIQUE_BOUND} at REPRO_BENCH_SIZE=small), "
        f"private per-chain caches: {private['evals_over_unique']:.3f}"
    )


if __name__ == "__main__":
    main()
