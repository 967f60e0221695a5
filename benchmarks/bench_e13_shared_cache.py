"""E13 — cross-process shared dependency-vector cache receipt.

The PR 3 receipt (E12) showed that on few-core machines the dominant
residual cost of the multi-chain engine is *duplicated Brandes passes*:
with ``n_jobs > 1`` every worker process keeps a private oracle cache, so a
dependency vector computed for one chain is recomputed for every other
chain that proposes the same source.  The shared arena
(:mod:`repro.execution.shared_cache`) removes the duplication; this
benchmark is its receipt, on the reference BA graph with K=4 chains over
``n_jobs=4`` worker processes:

* **E13 (dedup + wall-clock)** — three runs of the same fixed-seed
  workload: the inline single-process run (all chains share one in-process
  oracle, so its ``evaluations`` count *is* the run's unique-source count
  ``U``), the private-cache multi-process run (``~K×`` duplicated passes),
  and the shared-arena multi-process run.  The acceptance property is
  ``evaluations(shared) <= 1.2 x U`` — the arena collapses total passes to
  the unique sources plus at most a few benign races — with the wall-clock
  improvement over the private-cache run in the ``speedup`` column and
  ``cpu_count`` stamped so parallelism and dedup contributions stay
  attributable.
* **E13-determinism** — the pooled estimate with ``shared_cache=True`` is
  asserted bit-identical to the private-cache estimate for every
  ``n_jobs`` ∈ {1, 2, 4} at a fixed seed (cache sharing moves work
  counters, never results).
* **E13-overflow** — a deliberately tiny arena (8 rows) overflows
  immediately; the estimate is asserted unchanged (the store refuses new
  rows, private caches absorb the rest).

Run directly (``python benchmarks/bench_e13_shared_cache.py``) or through
pytest with the other ``bench_e*`` modules.  ``REPRO_BENCH_SIZE=tiny`` (the
default) uses a smaller graph for smoke runs; the committed receipt under
``benchmarks/results/`` is produced with ``REPRO_BENCH_SIZE=small`` — the
BA(5000, 3), K=4, n_jobs=4 configuration of the acceptance criterion.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from harness import bench_seed, bench_size, emit_table

from repro.execution.shared_cache import shared_memory_available
from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import np
from repro.mcmc.multichain import MultiChainMHSampler

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


def _graph_size() -> int:
    return GRAPH_SIZES.get(bench_size(), GRAPH_SIZES["tiny"])


def _total_samples() -> int:
    return TOTAL_SAMPLES.get(bench_size(), TOTAL_SAMPLES["tiny"])


def _bench_graph():
    graph = barabasi_albert_graph(_graph_size(), 3, seed=bench_seed())
    graph.csr()  # take the snapshot outside every timed region
    return graph, graph.vertices()[0]  # an early BA vertex: hub, positive BC


def _run(n_jobs: int, shared_cache: bool, **kwargs):
    graph, r = _bench_graph()
    sampler = MultiChainMHSampler(
        n_chains=CHAINS,
        n_jobs=n_jobs,
        shared_cache=shared_cache,
        **kwargs,
    )
    start = time.perf_counter()
    estimate = sampler.estimate(graph, r, _total_samples(), seed=bench_seed())
    return estimate, time.perf_counter() - start


def _dedup_rows():
    inline, inline_seconds = _run(n_jobs=1, shared_cache=False)
    private, private_seconds = _run(n_jobs=BENCH_JOBS, shared_cache=False)
    shared, shared_seconds = _run(n_jobs=BENCH_JOBS, shared_cache=True)
    # One in-process oracle serves every chain of the inline run, so its
    # pass count is the number of unique sources the workload touches.
    unique = inline.diagnostics["evaluations"]
    assert inline.estimate == private.estimate == shared.estimate, (
        "cache policy changed the pooled estimate: "
        f"{inline.estimate} / {private.estimate} / {shared.estimate}"
    )
    rows = []
    for engine, estimate, seconds in (
        ("inline, one oracle", inline, inline_seconds),
        ("private worker caches", private, private_seconds),
        ("shared arena", shared, shared_seconds),
    ):
        diag = estimate.diagnostics
        stats = diag.get("shared_cache_stats")
        rows.append(
            {
                "engine": engine,
                "chains": CHAINS,
                "n_jobs": diag["n_jobs"],
                "shared_cache": diag["shared_cache"],
                "total_samples": _total_samples(),
                "evaluations": diag["evaluations"],
                "unique_sources": unique,
                "evals_over_unique": diag["evaluations"] / unique,
                "seconds": seconds,
                "speedup_vs_private": private_seconds / seconds if seconds else float("inf"),
                "estimate": estimate.estimate,
                "published": stats["published"] if stats else None,
            }
        )
    return rows


def _determinism_rows():
    total = min(_total_samples(), 512)  # the identity check needs no scale
    graph, r = _bench_graph()
    reference = MultiChainMHSampler(n_chains=CHAINS).estimate(graph, r, total, seed=bench_seed())
    rows = []
    for n_jobs in JOBS:
        shared = MultiChainMHSampler(
            n_chains=CHAINS,
            n_jobs=n_jobs,
            shared_cache=True,
        ).estimate(graph, r, total, seed=bench_seed())
        identical = shared.estimate == reference.estimate
        assert identical, (
            f"shared-cache estimate diverged from the private-cache path at "
            f"n_jobs={n_jobs}: {shared.estimate} != {reference.estimate}"
        )
        rows.append(
            {
                "check": "shared arena vs private caches, seed fixed",
                "n_jobs": n_jobs,
                "bit_identical": identical,
                "value": shared.estimate,
            }
        )
    return rows


def _overflow_row():
    total = min(_total_samples(), 512)
    graph, r = _bench_graph()
    reference = MultiChainMHSampler(n_chains=CHAINS).estimate(graph, r, total, seed=bench_seed())
    sampler = MultiChainMHSampler(
        n_chains=CHAINS,
        n_jobs=2,
        shared_cache=True,
        shared_cache_capacity=8,
    )
    tiny = sampler.estimate(graph, r, total, seed=bench_seed())
    identical = tiny.estimate == reference.estimate
    assert identical, (
        f"arena overflow changed the estimate: {tiny.estimate} != {reference.estimate}"
    )
    stats = tiny.diagnostics["shared_cache_stats"]
    return {
        "n_jobs": 2,
        "arena_capacity": 8,
        "published": stats["published"],
        "full": stats["full"],
        "bit_identical": identical,
        "evaluations": tiny.diagnostics["evaluations"],
        "estimate": tiny.estimate,
    }


DEDUP_COLUMNS = [
    "engine", "chains", "n_jobs", "shared_cache", "total_samples",
    "evaluations", "unique_sources", "evals_over_unique", "seconds",
    "speedup_vs_private", "estimate", "published",
]
DETERMINISM_COLUMNS = ["check", "n_jobs", "bit_identical", "value"]
OVERFLOW_COLUMNS = [
    "n_jobs", "arena_capacity", "published", "full", "bit_identical", "evaluations",
    "estimate",
]


def _emit_all():
    size = _graph_size()
    dedup_rows = _dedup_rows()
    emit_table(
        "E13",
        f"shared dependency arena vs private worker caches on a BA({size}, 3) "
        f"graph (K={CHAINS}, n_jobs={BENCH_JOBS}, "
        f"cpu_count={multiprocessing.cpu_count()})",
        dedup_rows,
        DEDUP_COLUMNS,
    )
    emit_table(
        "E13-determinism",
        "fixed-seed bit-identity of the pooled estimate, shared vs private cache",
        _determinism_rows(),
        DETERMINISM_COLUMNS,
    )
    emit_table(
        "E13-overflow",
        f"deliberately tiny arena on a BA({size}, 3) graph (result-neutral overflow)",
        [_overflow_row()],
        OVERFLOW_COLUMNS,
    )
    return dedup_rows


def _shared_row(rows):
    return next(row for row in rows if row["engine"] == "shared arena")


@pytest.mark.skipif(
    np is None or not shared_memory_available(),
    reason="the shared-cache benchmark requires numpy and working shared memory",
)
@pytest.mark.benchmark(group="e13")
def test_e13_shared_cache(benchmark):
    """Regenerate the E13 tables and time one shared-cache pooled estimate."""
    rows = _emit_all()

    graph, r = _bench_graph()
    sampler = MultiChainMHSampler(
        n_chains=CHAINS, n_jobs=2,
        shared_cache=True,
    )
    benchmark.pedantic(
        lambda: sampler.estimate(graph, r, 64, seed=bench_seed()),
        rounds=3,
        iterations=1,
    )
    shared = _shared_row(rows)
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
            "the shared-cache benchmark requires numpy and working shared memory"
        )
    rows = _emit_all()
    shared = _shared_row(rows)
    print(
        f"shared-arena passes / unique sources: {shared['evals_over_unique']:.3f} "
        f"(target: <= {EVALS_OVER_UNIQUE_BOUND} at REPRO_BENCH_SIZE=small), "
        f"speedup vs private caches: {shared['speedup_vs_private']:.2f}x"
    )


if __name__ == "__main__":
    main()
