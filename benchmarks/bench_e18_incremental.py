"""E18 — delta-scoped invalidation / warm-state retention across mutations.

Before this change every graph mutation was a version bump that nuked the
whole warm surface: the dependency arena, the interned payloads, every
warm oracle vector.  The change journal (:mod:`repro.graphs.core`) plus
the affected-source rule (:mod:`repro.incremental`) scope the invalidation
to the sources a mutation can actually touch; everything else keeps
serving, bit-identical to a cold recompute on the mutated graph.  This
benchmark is the receipt, on the reference BA graph under a mutate-heavy
serving workload:

* **E18 (throughput)** — the identical fixed-seed query+mutate workload
  answered twice: once under ``invalidation="full"`` (the legacy
  destroy-everything baseline) and once under ``invalidation="delta"``.
  The mutation is a deterministically chosen low-blast-radius edge toggle
  (two non-adjacent neighbours of the top hub, picked to minimise the
  affected-source count), the shape an online serving workload sees —
  small edits against a big warm graph.  Acceptance:
  ``full_seconds / delta_seconds >= 2`` at the receipt size, with every
  per-query answer asserted bit-identical between the two modes.
* **E18-identity** — a warm session driven through a mutation is compared
  against a cold run on the mutated graph across the worker counts
  (``n_jobs``); every cell must be bit-identical.
* **E18-patch** — the weight-only mutation fast path:
  :meth:`repro.graphs.csr.CSRGraph.patched` must reuse the stale
  snapshot's structure arrays (no rebuild) and match a from-scratch
  snapshot bitwise.
* **E18-serving** — an in-process :class:`repro.serving.ServingApp`
  answers a mutate request; the response receipt and the ``/metrics``
  exposition must agree that warm arena rows were *retained* (> 0), and
  an idempotent repeat must report ``version_changed: false``.

Run directly (``python benchmarks/bench_e18_incremental.py``) or through
pytest with the other ``bench_e*`` modules.  ``REPRO_BENCH_SIZE=tiny``
(the default) uses a smaller graph for smoke runs; the committed receipt
under ``benchmarks/results/`` is produced with ``REPRO_BENCH_SIZE=small``
— the BA(5000, 3) configuration of the acceptance criterion.
"""

from __future__ import annotations

import json
import time

import pytest

from harness import bench_seed, bench_size, emit_table

from repro.centrality import BetweennessSession, betweenness_single
from repro.execution import ExecutionPlan
from repro.execution.shared_cache import shared_memory_available
from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import CSRGraph, np

#: Graph size per REPRO_BENCH_SIZE tier (attachment parameter fixed at 3;
#: ``small`` is the BA(5000, 3) acceptance configuration).
GRAPH_SIZES = {"tiny": 400, "small": 5000, "medium": 5000}
#: Chain budget of each MH estimate query.
EST_SAMPLES = {"tiny": 48, "small": 96, "medium": 96}
#: Query/mutate rounds of the throughput workload.
ROUNDS = {"tiny": 4, "small": 8, "medium": 8}
#: Queries per round (distinct targets, fixed per-template seeds reused
#: across rounds so retained vectors are genuine repeat hits).
QUERIES_PER_ROUND = 4
#: The delta-over-full throughput target of the acceptance criterion.
SPEEDUP_TARGET = 2.0
#: Candidate vertices (hub neighbours) scanned for the lowest-blast toggle.
CANDIDATE_VERTICES = 96


def _graph_size() -> int:
    return GRAPH_SIZES.get(bench_size(), GRAPH_SIZES["tiny"])


def _bench_graph():
    graph = barabasi_albert_graph(_graph_size(), 3, seed=bench_seed())
    graph.csr()  # take the snapshot outside every timed region
    return graph


def _toggle_edge(graph):
    """Pick the deterministic low-blast-radius toggle edge (u, v).

    Scans non-adjacent pairs among the neighbours of the top hubs and
    returns the pair whose insertion flags the fewest affected sources —
    ``|{s : d(s,u) != d(s,v)}|``, the exact quantity the affected-source
    rule of :mod:`repro.incremental` tests, so the scan is a direct
    minimisation of the blast radius.  Deterministic: hubs and neighbours
    are scanned in degree/index order, ties break to the first pair.
    """
    from repro.shortest_paths.bfs import bfs_distances_csr

    csr = graph.csr()
    n = csr.number_of_vertices()
    degrees = csr.indptr[1:] - csr.indptr[:-1]
    hubs = np.argsort(degrees)[::-1][:4]
    candidates = []
    seen = set()
    for hub in hubs:
        for w in csr.indices[csr.indptr[int(hub)] : csr.indptr[int(hub) + 1]]:
            w = int(w)
            if w not in seen:
                seen.add(w)
                candidates.append(w)
    candidates = candidates[:CANDIDATE_VERTICES]
    distances = np.stack(
        [bfs_distances_csr(csr, c)[0] for c in candidates]
    )
    best = None
    for i, a in enumerate(candidates):
        row_a = set(
            int(w) for w in csr.indices[csr.indptr[a] : csr.indptr[a + 1]]
        )
        diff_counts = np.count_nonzero(distances[i + 1 :] != distances[i], axis=1)
        for offset in np.argsort(diff_counts, kind="stable"):
            b = candidates[i + 1 + int(offset)]
            if b in row_a:
                continue
            count = int(diff_counts[offset])
            if best is None or count < best[2]:
                best = (a, b, count)
            break  # later offsets in this row only flag more sources
    assert best is not None, "no non-adjacent candidate pair found"
    vertices = graph.vertices()
    return vertices[best[0]], vertices[best[1]], best[2] / float(n)


def _run_mode(graph_factory, toggle, targets, samples, rounds, invalidation):
    """Run the query+mutate workload under one invalidation mode."""
    graph = graph_factory()
    u, v = toggle
    answers = []
    receipts = []
    start = time.perf_counter()
    with BetweennessSession(
        graph, invalidation=invalidation
    ) as session:
        for round_index in range(rounds):
            for qi, target in enumerate(targets):
                result = session.estimate(
                    target, method="mh", samples=samples, seed=300 + qi
                )
                answers.append(
                    (result.estimate, result.diagnostics.get("evaluations"))
                )
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
            receipts.append(session.refresh_warm_state())
    seconds = time.perf_counter() - start
    return seconds, answers, receipts


def _run_throughput():
    probe = _bench_graph()
    u, v, affected_fraction = _toggle_edge(probe)
    targets = probe.vertices()[:QUERIES_PER_ROUND]
    samples = EST_SAMPLES.get(bench_size(), EST_SAMPLES["tiny"])
    rounds = ROUNDS.get(bench_size(), ROUNDS["tiny"])

    full_seconds, full_answers, _ = _run_mode(
        _bench_graph, (u, v), targets, samples, rounds, "full"
    )
    delta_seconds, delta_answers, delta_receipts = _run_mode(
        _bench_graph, (u, v), targets, samples, rounds, "delta"
    )

    assert len(full_answers) == len(delta_answers)
    for index, (full, delta) in enumerate(zip(full_answers, delta_answers)):
        assert full[0] == delta[0], (
            f"delta-mode answer {index} diverged from the full-mode "
            f"baseline: {delta[0]!r} != {full[0]!r}"
        )

    last = delta_receipts[-1]
    delta_modes = [r.mode for r in delta_receipts]
    full_evals = sum(a[1] or 0 for a in full_answers)
    delta_evals = sum(a[1] or 0 for a in delta_answers)
    row = {
        "rounds": rounds,
        "queries": len(full_answers),
        "mutations": rounds,
        "full_seconds": full_seconds,
        "delta_seconds": delta_seconds,
        "speedup": full_seconds / delta_seconds if delta_seconds else float("inf"),
        "affected_fraction": affected_fraction,
        "delta_mutations": delta_modes.count("delta"),
        "full_passes": full_evals,
        "delta_passes": delta_evals,
        "arena_retained_last": last.arena_rows_retained,
        "oracle_retained_last": last.oracle_vectors_retained,
    }
    return row


# ----------------------------------------------------------------------
# Identity grid
# ----------------------------------------------------------------------
#: n_jobs cells of the warm-vs-cold identity grid (``None``: no plan).
IDENTITY_GRID = (None, 2, 4)
IDENTITY_SIZE = 240
IDENTITY_SAMPLES = 32


def _identity_cell(n_jobs):
    graph = barabasi_albert_graph(IDENTITY_SIZE, 3, seed=bench_seed() + 7)
    u, v, _ = _toggle_edge(graph)
    target = graph.vertices()[5]
    plan = ExecutionPlan(n_jobs=n_jobs) if n_jobs is not None else None
    with BetweennessSession(graph, plan) as session:
        session.estimate(target, method="mh", samples=IDENTITY_SAMPLES, seed=11)
        graph.add_edge(u, v)
        receipt = session.refresh_warm_state()
        warm = session.estimate(
            target, method="mh", samples=IDENTITY_SAMPLES, seed=11
        )
    cold_graph = barabasi_albert_graph(IDENTITY_SIZE, 3, seed=bench_seed() + 7)
    cold_graph.add_edge(u, v)
    cold = betweenness_single(
        cold_graph,
        target,
        method="mh",
        samples=IDENTITY_SAMPLES,
        seed=11,
        n_jobs=n_jobs,
    )
    identical = warm.estimate == cold.estimate
    assert identical, (
        f"warm post-mutation answer diverged from cold at "
        f"n_jobs={n_jobs}: "
        f"{warm.estimate!r} != {cold.estimate!r}"
    )
    return {
        "n_jobs": n_jobs if n_jobs is not None else 1,
        "invalidation_mode": receipt.mode,
        "bit_identical": identical,
    }


def _run_identity_grid():
    return [_identity_cell(n_jobs) for n_jobs in IDENTITY_GRID]


# ----------------------------------------------------------------------
# Weight-only patch path
# ----------------------------------------------------------------------
def _run_patch():
    edges = [(i, i + 1, 1.0 + 0.25 * i) for i in range(63)]
    edges += [(i, i + 7, 2.0) for i in range(0, 56, 7)]
    from repro.graphs.core import Graph

    graph = Graph.from_edges(edges, weighted=True)
    before = graph.csr()
    graph.add_edge(3, 4, weight=9.5)  # existing edge, new weight
    after = graph.csr()
    shares_structure = (
        after.indptr is before.indptr and after.indices is before.indices
    )
    rebuilt = CSRGraph.from_graph(graph)
    weights_identical = bool(np.array_equal(after.weights, rebuilt.weights))
    assert shares_structure, "weight-only mutation must take the patched path"
    assert weights_identical, "patched weights must match a from-scratch build"
    return {
        "mutation": "weight-changed",
        "patched_shares_structure": shares_structure,
        "weights_bit_identical": weights_identical,
        "nnz": int(before.indices.shape[0]),
    }


# ----------------------------------------------------------------------
# Serving receipt + /metrics scrape
# ----------------------------------------------------------------------
def _scrape(metrics_text, name):
    for line in metrics_text.splitlines():
        if line.startswith(name):
            return float(line.rsplit(" ", 1)[1])
    return None


def _run_serving():
    from repro.serving import ServingApp, ServingConfig

    graph = _bench_graph()
    u, v, _ = _toggle_edge(graph)
    app = ServingApp(config=ServingConfig())
    try:
        app.registry.load("bench", graph)
        samples = EST_SAMPLES.get(bench_size(), EST_SAMPLES["tiny"])
        target = graph.vertices()[0]
        body = json.dumps(
            {"vertex": target, "samples": samples, "seed": 5}
        ).encode()
        status = app.dispatch("POST", "/graphs/bench/estimate", body).status
        assert status == 200, f"warming query failed: {status}"
        mutate_body = json.dumps({"add_edges": [[u, v]]}).encode()
        response = app.dispatch("POST", "/graphs/bench/mutate", mutate_body)
        summary = json.loads(response.body)["mutated"]
        receipt = summary["invalidation"]
        repeat = json.loads(
            app.dispatch("POST", "/graphs/bench/mutate", mutate_body).body
        )["mutated"]
        metrics_text = app.dispatch("GET", "/metrics").body.decode()
        scraped_retained = _scrape(
            metrics_text, 'repro_invalidation_arena_rows_retained{graph="bench"}'
        )
        row = {
            "mode": receipt["mode"],
            "version_changed": summary["version_changed"],
            "arena_rows_evicted": receipt["arena_rows_evicted"],
            "arena_rows_retained": receipt["arena_rows_retained"],
            "metrics_rows_retained": scraped_retained,
            "repeat_version_changed": repeat["version_changed"],
            "repeat_mode": repeat["invalidation"]["mode"],
        }
        assert receipt["mode"] == "delta", f"expected delta mode: {receipt!r}"
        assert receipt["arena_rows_retained"] > 0, (
            f"mutate retained no arena rows: {receipt!r}"
        )
        assert scraped_retained == receipt["arena_rows_retained"], (
            "/metrics and the mutate receipt disagree on retained rows"
        )
        assert repeat["version_changed"] is False, (
            "idempotent mutate repeat must not bump the version"
        )
        return row
    finally:
        app.registry.close()


THROUGHPUT_COLUMNS = [
    "rounds", "queries", "mutations", "full_seconds", "delta_seconds",
    "speedup", "affected_fraction", "delta_mutations", "full_passes",
    "delta_passes", "arena_retained_last", "oracle_retained_last",
]
IDENTITY_COLUMNS = ["n_jobs", "invalidation_mode", "bit_identical"]
PATCH_COLUMNS = [
    "mutation", "patched_shares_structure", "weights_bit_identical", "nnz",
]
SERVING_COLUMNS = [
    "mode", "version_changed", "arena_rows_evicted", "arena_rows_retained",
    "metrics_rows_retained", "repeat_version_changed", "repeat_mode",
]


def _emit_all():
    size = _graph_size()
    throughput_row = _run_throughput()
    emit_table(
        "E18",
        f"delta-scoped vs destroy-all invalidation on a BA({size}, 3) graph "
        f"(mutate-heavy warm workload: {QUERIES_PER_ROUND} queries per "
        f"round, one low-blast edge toggle between rounds)",
        [throughput_row],
        THROUGHPUT_COLUMNS,
    )
    emit_table(
        "E18-identity",
        f"warm post-mutation vs cold recompute across the execution grid "
        f"(BA({IDENTITY_SIZE}, 3), one edge insertion mid-session)",
        _run_identity_grid(),
        IDENTITY_COLUMNS,
    )
    emit_table(
        "E18-patch",
        "weight-only mutations take CSRGraph.patched (structure arrays "
        "shared, weights bit-identical to a rebuild)",
        [_run_patch()],
        PATCH_COLUMNS,
    )
    emit_table(
        "E18-serving",
        "mutate receipt and /metrics agree on warm-row retention "
        f"(in-process ServingApp, BA({size}, 3))",
        [_run_serving()],
        SERVING_COLUMNS,
    )
    return throughput_row


@pytest.mark.skipif(
    np is None or not shared_memory_available(),
    reason="the incremental benchmark requires numpy and working shared memory",
)
@pytest.mark.benchmark(group="e18")
def test_e18_incremental(benchmark):
    """Regenerate the E18 tables and time one warm post-mutation query."""
    row = _emit_all()

    graph = _bench_graph()
    u, v, _ = _toggle_edge(graph)
    samples = EST_SAMPLES.get(bench_size(), EST_SAMPLES["tiny"])
    target = graph.vertices()[0]
    with BetweennessSession(graph, invalidation="delta") as session:
        session.estimate(target, method="mh", samples=samples, seed=9)

        def mutate_and_requery():
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
            return session.estimate(target, method="mh", samples=samples, seed=9)

        benchmark.pedantic(mutate_and_requery, rounds=3, iterations=1)
    benchmark.extra_info["speedup"] = row["speedup"]
    # Identity, patch-path and serving-receipt gates are asserted inside
    # the emitters at every size.  The throughput gate holds at the receipt
    # sizes only: at tiny scale per-pass cost is microseconds and session
    # bookkeeping noise dominates both sides of the ratio.
    if bench_size() != "tiny":
        assert row["speedup"] >= SPEEDUP_TARGET, (
            f"delta-scoped invalidation speedup {row['speedup']:.2f}x below "
            f"the {SPEEDUP_TARGET}x target"
        )


def main() -> None:
    if np is None or not shared_memory_available():
        raise SystemExit(
            "the incremental benchmark requires numpy and working shared memory"
        )
    row = _emit_all()
    print(
        f"delta-scoped invalidation: {row['speedup']:.2f}x over destroy-all "
        f"(target: >= {SPEEDUP_TARGET}x at REPRO_BENCH_SIZE=small), "
        f"{row['delta_passes']} vs {row['full_passes']} Brandes passes, "
        f"affected fraction {row['affected_fraction']:.3f}"
    )


if __name__ == "__main__":
    main()
