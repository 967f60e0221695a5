"""E12 — parallel multi-chain MCMC receipt.

Three measurements on the reference Barabási–Albert graph:

* **K-chain speedup at equal total samples** — the baseline is one MH
  chain with the default knobs (inline, prefetching its whole proposal
  set in the blocks the kernels choose);
  the K-chain rows run :class:`repro.mcmc.multichain.MultiChainMHSampler`
  with ``n_jobs=4``, splitting the *same total budget* over K chains.  The expectation this benchmark guards
  is **K-chain >= 2x the single chain** at the best K on BA(5000, 3).
  Each row stamps the cross-chain diagnostics (split-R̂, pooled ESS, mean
  acceptance rate) next to its wall-clock, and ``cpu_count`` is recorded so
  a reader can attribute how much of the ratio came from process
  parallelism versus the batched prefetch kernels.
* **determinism** — the pooled fixed-seed K=4 estimate is asserted
  bit-identical across ``n_jobs`` ∈ {1, 2, 4} (the ordered-reduce promise),
  and the K=1 driver is asserted bit-identical to the single-chain sampler.
* **adaptive early-stop** — the split-R̂-driven mode against a generous
  budget: iterations actually spent, the adopted burn-in and the final R̂.

Run directly (``python benchmarks/bench_e12_multichain.py``) or through
pytest with the other ``bench_e*`` modules.  ``REPRO_BENCH_SIZE=tiny`` (the
default) uses a smaller graph for smoke runs; the committed receipt under
``benchmarks/results/`` is produced with ``REPRO_BENCH_SIZE=small`` — the
BA(5000, 3) configuration of the acceptance criterion.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from harness import bench_seed, bench_size, emit_table

from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import np
from repro.mcmc.multichain import MultiChainMHSampler
from repro.mcmc.single import SingleSpaceMHSampler

#: Graph size per REPRO_BENCH_SIZE tier (attachment parameter fixed at 3;
#: ``small`` is the BA(5000, 3) acceptance configuration).
GRAPH_SIZES = {"tiny": 600, "small": 5000, "medium": 5000}
#: Total sampling budget shared by every chain configuration of a tier.
TOTAL_SAMPLES = {"tiny": 96, "small": 4096, "medium": 8192}
#: Chain counts compared against the single default chain.
CHAIN_COUNTS = (1, 2, 4, 8)
#: Worker processes of the K-chain rows and the adaptive row.
BENCH_JOBS = 4
#: n_jobs values of the determinism check.
JOBS = (1, 2, 4)


def _graph_size() -> int:
    return GRAPH_SIZES.get(bench_size(), GRAPH_SIZES["tiny"])


def _total_samples() -> int:
    return TOTAL_SAMPLES.get(bench_size(), TOTAL_SAMPLES["tiny"])


def _bench_graph():
    graph = barabasi_albert_graph(_graph_size(), 3, seed=bench_seed())
    graph.csr()  # take the snapshot outside every timed region
    return graph, graph.vertices()[0]  # an early BA vertex: hub, positive BC


def _chain_rows():
    graph, r = _bench_graph()
    total = _total_samples()

    start = time.perf_counter()
    baseline = SingleSpaceMHSampler().estimate(
        graph, r, total, seed=bench_seed()
    )
    baseline_seconds = time.perf_counter() - start
    rows = [
        {
            "engine": "default 1-chain",
            "chains": 1,
            "n_jobs": 1,
            "total_samples": total,
            "seconds": baseline_seconds,
            "speedup": 1.0,
            "estimate": baseline.estimate,
            "rhat": None,
            "ess": None,
            "acceptance": baseline.diagnostics["acceptance_rate"],
        }
    ]
    for k in CHAIN_COUNTS:
        sampler = MultiChainMHSampler(n_chains=k, n_jobs=BENCH_JOBS)
        start = time.perf_counter()
        estimate = sampler.estimate(graph, r, total, seed=bench_seed())
        seconds = time.perf_counter() - start
        diag = estimate.diagnostics
        rows.append(
            {
                "engine": "multichain",
                "chains": k,
                "n_jobs": BENCH_JOBS,
                "total_samples": total,
                "seconds": seconds,
                "speedup": baseline_seconds / seconds if seconds > 0 else float("inf"),
                "estimate": estimate.estimate,
                "rhat": diag["rhat"],
                "ess": diag["ess"],
                "acceptance": diag["acceptance_rate"],
            }
        )
    return rows


def _determinism_rows():
    graph, r = _bench_graph()
    total = min(_total_samples(), 512)  # the identity check needs no scale
    estimates = []
    for n_jobs in JOBS:
        sampler = MultiChainMHSampler(n_chains=4, n_jobs=n_jobs)
        estimates.append(sampler.estimate(graph, r, total, seed=bench_seed()).estimate)
    identical = all(value == estimates[0] for value in estimates)
    assert identical, f"fixed-seed pooled estimates differ across n_jobs: {estimates}"

    direct = SingleSpaceMHSampler().estimate(
        graph, r, total, seed=bench_seed()
    )
    single = MultiChainMHSampler(n_chains=1).estimate(
        graph, r, total, seed=bench_seed()
    )
    single_identical = single.estimate == direct.estimate
    assert single_identical, (
        f"K=1 driver diverged from the single-chain sampler: "
        f"{single.estimate} != {direct.estimate}"
    )
    return [
        {
            "check": "pooled K=4 estimate, seed fixed",
            "grid": "n_jobs " + "/".join(str(j) for j in JOBS),
            "n_jobs": "/".join(str(j) for j in JOBS),
            "bit_identical": identical,
            "value": estimates[0],
        },
        {
            "check": "K=1 driver vs single-chain sampler",
            "grid": "n_chains 1",
            "n_jobs": 1,
            "bit_identical": single_identical,
            "value": single.estimate,
        },
    ]


def _adaptive_row():
    graph, r = _bench_graph()
    budget = _total_samples() * 2  # generous: let the R-hat gate stop the run
    sampler = MultiChainMHSampler(
        n_chains=4,
        n_jobs=BENCH_JOBS,
        rhat_target=1.05,
    )
    start = time.perf_counter()
    estimate = sampler.estimate(graph, r, budget, seed=bench_seed())
    seconds = time.perf_counter() - start
    diag = estimate.diagnostics
    return {
        "rhat_target": 1.05,
        "n_jobs": BENCH_JOBS,
        "budget": budget,
        "samples_spent": estimate.samples,
        "converged": diag["converged"],
        "rounds": diag["rounds"],
        "burn_in": diag["burn_in"],
        "rhat": diag["rhat"],
        "seconds": seconds,
    }


CHAIN_COLUMNS = [
    "engine", "chains", "n_jobs", "total_samples", "seconds", "speedup",
    "estimate", "rhat", "ess", "acceptance",
]
DETERMINISM_COLUMNS = ["check", "grid", "n_jobs", "bit_identical", "value"]
ADAPTIVE_COLUMNS = [
    "rhat_target", "n_jobs", "budget", "samples_spent", "converged", "rounds",
    "burn_in", "rhat", "seconds",
]


def _emit_all():
    size = _graph_size()
    chain_rows = _chain_rows()
    emit_table(
        "E12",
        f"multi-chain MH vs one default chain on a BA({size}, 3) graph "
        f"(equal total samples, cpu_count={multiprocessing.cpu_count()})",
        chain_rows,
        CHAIN_COLUMNS,
    )
    emit_table(
        "E12-determinism",
        "fixed-seed bit-identity of the pooled estimate",
        _determinism_rows(),
        DETERMINISM_COLUMNS,
    )
    emit_table(
        "E12-adaptive",
        f"split-R-hat early stop on a BA({size}, 3) graph",
        [_adaptive_row()],
        ADAPTIVE_COLUMNS,
    )
    return chain_rows


@pytest.mark.skipif(np is None, reason="the multi-chain engine benchmark requires numpy")
@pytest.mark.benchmark(group="e12")
def test_e12_multichain(benchmark):
    """Regenerate the E12 tables and time one pooled multi-chain estimate."""
    chain_rows = _emit_all()

    graph, r = _bench_graph()
    sampler = MultiChainMHSampler(n_chains=4)
    benchmark.pedantic(
        lambda: sampler.estimate(graph, r, 64, seed=bench_seed()),
        rounds=3,
        iterations=1,
    )
    best = max(row["speedup"] for row in chain_rows if row["engine"] == "multichain")
    benchmark.extra_info["best_multichain_speedup"] = best
    # The emitted table is the receipt for the >= 2x expectation at
    # REPRO_BENCH_SIZE=small; at tiny sizes the fixed pool cost dominates a
    # sub-second workload, so the pytest entry point only sanity-checks the
    # engine end to end (the determinism assertions inside _emit_all are the
    # hard gate at every size).
    if bench_size() != "tiny":
        assert best > 1.0, (
            f"multi-chain MH is not faster than the default chain at all "
            f"({best:.2f}x on BA({_graph_size()}, 3))"
        )


def main() -> None:
    if np is None:
        raise SystemExit("the multi-chain engine benchmark requires numpy")
    chain_rows = _emit_all()
    best = max(row["speedup"] for row in chain_rows if row["engine"] == "multichain")
    print(f"best multi-chain speedup: {best:.2f}x (target: >= 2x at REPRO_BENCH_SIZE=small)")


if __name__ == "__main__":
    main()
