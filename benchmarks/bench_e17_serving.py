"""E17 — HTTP serving daemon receipt (``repro-bc serve``).

PR 5 made warm sessions a process-local affair: one
:class:`~repro.centrality.session.BetweennessSession` per Python caller.
The serving tier (:mod:`repro.serving`) puts that warmth behind a socket —
one daemon, many clients, a session registry of named graphs, in-flight
request coalescing and a Prometheus ``/metrics`` endpoint.  This benchmark
is the receipt, against a live daemon on an ephemeral port:

* **E17 (throughput)** — the 32-query mixed workload of E14 (8 estimate
  templates x2, 2 relative x4, 2 ranking x4), answered over HTTP by one
  warm daemon and compared against cold per-call API twins.  The served
  answers must be **bit-identical** to the cold answers at the same seed —
  the socket adds transport, never drift.
* **E17-coalesce** — a burst of byte-identical concurrent requests is
  answered by **one** computation: every response shares the same rendered
  bytes, and the daemon's coalesce-hit counter equals the duplicate count
  (the acceptance criterion demands at least one recorded hit).
* **E17-metrics** — the post-workload ``/metrics`` scrape is parsed and its
  load-bearing series asserted non-zero: the request-latency histogram has
  observations and mass, and the per-graph Brandes-pass counter reflects
  the sampler work the workload performed.

Run directly (``python benchmarks/bench_e17_serving.py``) or through pytest
with the other ``bench_e*`` modules.  The committed receipt under
``benchmarks/results/`` is produced with ``REPRO_BENCH_SIZE=small``
(the BA(5000, 3) acceptance configuration).
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import threading
import time

import pytest

from harness import bench_seed, bench_size, emit_table

from repro.centrality import BetweennessSession
from repro.execution import ExecutionPlan
from repro.execution.shared_cache import shared_memory_available
from repro.graphs import barabasi_albert_graph
from repro.graphs.csr import np

if np is not None:
    from repro.serving import ServingApp, ServingConfig, create_server
    from repro.serving.queries import execute_query

#: Graph size per REPRO_BENCH_SIZE tier (``small`` is the BA(5000, 3)
#: acceptance configuration, matching E14).
GRAPH_SIZES = {"tiny": 600, "small": 5000, "medium": 5000}
EST_SAMPLES = {"tiny": 48, "small": 96, "medium": 192}
SET_SAMPLES = {"tiny": 48, "small": 96, "medium": 192}
#: Execution knobs the daemon's sessions and the cold twins share.
BENCH_JOBS = 2
CHAINS = 2
ARENA_CAPACITY = 4096
#: Identical concurrent requests in the coalesce burst (1 leader + 3 hits).
BURST = 4
GRAPH_NAME = "bench"


def _graph_size() -> int:
    return GRAPH_SIZES.get(bench_size(), GRAPH_SIZES["tiny"])


def _bench_graph():
    graph = barabasi_albert_graph(_graph_size(), 3, seed=bench_seed())
    graph.csr()  # take the snapshot outside every timed region
    return graph


def _workload(graph):
    """The 32-query E14 workload, phrased as serving query bodies."""
    v = graph.vertices()
    est = EST_SAMPLES.get(bench_size(), EST_SAMPLES["tiny"])
    rel = SET_SAMPLES.get(bench_size(), SET_SAMPLES["tiny"])
    estimates = [
        ("estimate", {"vertex": v[i], "samples": est, "seed": 100 + i})
        for i in range(8)
    ]
    relatives = [
        ("relative", {"vertices": [v[0], v[3], v[9], v[17]], "samples": rel, "seed": 50}),
        ("relative", {"vertices": [v[1], v[5], v[28]], "samples": rel, "seed": 51}),
    ]
    rankings = [
        ("ranking", {"vertices": [v[i] for i in range(12)], "k": 5, "samples": rel, "seed": 60}),
        ("ranking", {"vertices": [v[i] for i in range(12, 24)], "k": 5, "samples": rel, "seed": 61}),
    ]
    queries = []
    for round_index in range(4):
        offset = (round_index % 2) * 4
        queries.extend(estimates[offset : offset + 4])
        queries.append(relatives[round_index % 2])
        queries.append(relatives[(round_index + 1) % 2])
        queries.append(rankings[round_index % 2])
        queries.append(rankings[(round_index + 1) % 2])
    assert len(queries) == 32
    return queries


def _http(host, port, method, path, body=b""):
    conn = http.client.HTTPConnection(host, port, timeout=600)
    try:
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _answer_fields(op, payload):
    """The deterministic answer a query kind is compared on."""
    if op == "estimate":
        return payload["estimate"]
    if op == "relative":
        return payload["ratios"]
    return payload["ranking"]


def _cold_answers(graph, queries):
    """One fresh session per query: the cold per-call twins."""
    plan = ExecutionPlan(n_jobs=BENCH_JOBS)
    answers = []
    start = time.perf_counter()
    for op, spec in queries:
        with BetweennessSession(graph, plan, arena_capacity=ARENA_CAPACITY) as session:
            payload = execute_query(
                session, dict(spec, op=op), default_chains=CHAINS
            )
        answers.append(_answer_fields(op, json.loads(json.dumps(payload))))
    return answers, time.perf_counter() - start


def _served_workload(host, port, queries):
    """The same 32 queries over HTTP against the warm daemon."""
    answers = []
    start = time.perf_counter()
    for op, spec in queries:
        status, _, raw = _http(
            host, port, "POST", f"/graphs/{GRAPH_NAME}/{op}", json.dumps(spec).encode()
        )
        assert status == 200, raw
        answers.append(_answer_fields(op, json.loads(raw)))
    return answers, time.perf_counter() - start


def _coalesce_burst(app, host, port, spec):
    """Fire BURST byte-identical concurrent requests; return the receipt row."""
    body = json.dumps(spec).encode()
    followers = BURST - 1
    hits_before = app.coalescer.coalesce_hits
    computations_before = app.coalescer.computations

    def hold(key):
        deadline = time.monotonic() + 30
        while app.coalescer.waiters(key) < followers and time.monotonic() < deadline:
            time.sleep(0.002)

    app.before_compute = hold
    responses = [None] * BURST

    def fire(index):
        responses[index] = _http(
            host, port, "POST", f"/graphs/{GRAPH_NAME}/estimate", body
        )

    threads = [
        threading.Thread(target=fire, args=(i,), daemon=True) for i in range(BURST)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
    finally:
        app.before_compute = None
    assert all(r is not None and r[0] == 200 for r in responses)
    bodies = {raw for _, _, raw in responses}
    assert len(bodies) == 1, "coalesced responses must share one rendered body"
    hits = app.coalescer.coalesce_hits - hits_before
    return {
        "burst_requests": BURST,
        "computations": app.coalescer.computations - computations_before,
        "coalesce_hits": hits,
        "byte_identical_bodies": len(bodies) == 1,
    }


def _parse_metric(text, name, labels=""):
    needle = f"{name}{labels} "
    for line in text.splitlines():
        if line.startswith(needle):
            return float(line.rsplit(" ", 1)[1])
    return None


def _run_serving_benchmark():
    graph = _bench_graph()
    queries = _workload(graph)

    plan = ExecutionPlan(n_jobs=BENCH_JOBS)
    config = ServingConfig(
        default_chains=CHAINS,
        arena_capacity=ARENA_CAPACITY,
        request_timeout=600.0,
    )
    app = ServingApp(plan=plan, config=config)
    server = create_server("127.0.0.1", 0, app=app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        app.registry.load(GRAPH_NAME, graph)
        served, served_seconds = _served_workload(host, port, queries)
        burst_row = _coalesce_burst(app, host, port, queries[0][1])

        status, _, raw = _http(host, port, "GET", "/metrics")
        assert status == 200
        metrics_text = raw.decode()
    finally:
        server.close()
        thread.join(timeout=30)

    cold, cold_seconds = _cold_answers(graph, queries)

    identity_rows = []
    for (op, spec), served_answer, cold_answer in zip(queries, served, cold):
        assert served_answer == cold_answer, (
            f"served answer diverged from the cold API for {op} {spec}: "
            f"{served_answer!r} != {cold_answer!r}"
        )
        identity_rows.append({"op": op, "n_jobs": BENCH_JOBS, "bit_identical": True})

    passes = _parse_metric(
        metrics_text, "repro_brandes_passes_total", f'{{graph="{GRAPH_NAME}"}}'
    )
    latency_count = _parse_metric(metrics_text, "repro_request_seconds_count")
    latency_sum = _parse_metric(metrics_text, "repro_request_seconds_sum")
    metrics_row = {
        "n_jobs": BENCH_JOBS,
        "brandes_passes": passes,
        "latency_observations": latency_count,
        "latency_sum_seconds": latency_sum,
        "latency_p50_ms": (_parse_metric(metrics_text, "repro_request_latency_p50_seconds") or 0) * 1000,
        "latency_p95_ms": (_parse_metric(metrics_text, "repro_request_latency_p95_seconds") or 0) * 1000,
    }
    assert passes and passes > 0, "the Brandes-pass counter must be non-zero"
    assert latency_count and latency_count > 0, "the latency histogram is empty"
    assert latency_sum and latency_sum > 0, "the latency histogram has no mass"
    assert burst_row["coalesce_hits"] >= 1, "no coalesce hit recorded"

    throughput_row = {
        "queries": len(queries),
        "n_jobs": BENCH_JOBS,
        "cold_seconds": cold_seconds,
        "served_seconds": served_seconds,
        "speedup": cold_seconds / served_seconds if served_seconds else float("inf"),
        **burst_row,
    }
    return throughput_row, identity_rows, metrics_row


THROUGHPUT_COLUMNS = [
    "queries", "n_jobs", "cold_seconds", "served_seconds", "speedup",
    "burst_requests", "computations", "coalesce_hits", "byte_identical_bodies",
]
IDENTITY_COLUMNS = ["op", "n_jobs", "bit_identical"]
METRICS_COLUMNS = [
    "n_jobs", "brandes_passes", "latency_observations", "latency_sum_seconds",
    "latency_p50_ms", "latency_p95_ms",
]


def _emit_all():
    size = _graph_size()
    throughput_row, identity_rows, metrics_row = _run_serving_benchmark()
    emit_table(
        "E17",
        f"HTTP daemon vs cold per-call API on a BA({size}, 3) graph "
        f"(32-query workload over one warm daemon, K={CHAINS}, "
        f"n_jobs={BENCH_JOBS}, "
        f"cpu_count={multiprocessing.cpu_count()})",
        [throughput_row],
        THROUGHPUT_COLUMNS,
    )
    emit_table(
        "E17-identity",
        "per-query served-vs-cold bit-identity over HTTP",
        identity_rows,
        IDENTITY_COLUMNS,
    )
    emit_table(
        "E17-metrics",
        "post-workload /metrics scrape (daemon-side observability receipt)",
        [metrics_row],
        METRICS_COLUMNS,
    )
    return throughput_row


@pytest.mark.skipif(
    np is None or not shared_memory_available(),
    reason="the serving benchmark requires numpy and working shared memory",
)
@pytest.mark.benchmark(group="e17")
def test_e17_serving(benchmark):
    """Regenerate the E17 tables and time one served warm repeat query."""
    row = _emit_all()

    graph = _bench_graph()
    plan = ExecutionPlan(n_jobs=BENCH_JOBS)
    config = ServingConfig(default_chains=CHAINS, arena_capacity=ARENA_CAPACITY)
    app = ServingApp(plan=plan, config=config)
    server = create_server("127.0.0.1", 0, app=app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        app.registry.load(GRAPH_NAME, graph)
        body = json.dumps(
            {"vertex": graph.vertices()[0], "samples": 48, "seed": 1}
        ).encode()
        warmup = _http(host, port, "POST", f"/graphs/{GRAPH_NAME}/estimate", body)
        assert warmup[0] == 200
        benchmark.pedantic(
            lambda: _http(host, port, "POST", f"/graphs/{GRAPH_NAME}/estimate", body),
            rounds=3,
            iterations=1,
        )
    finally:
        server.close()
        thread.join(timeout=30)
    benchmark.extra_info["speedup"] = row["speedup"]
    benchmark.extra_info["coalesce_hits"] = row["coalesce_hits"]


def main() -> None:
    if np is None or not shared_memory_available():
        raise SystemExit(
            "the serving benchmark requires numpy and working shared memory"
        )
    row = _emit_all()
    print(
        f"served workload: {row['speedup']:.2f}x over cold per-call API, "
        f"{row['coalesce_hits']} coalesce hits across a {row['burst_requests']}"
        f"-request identical burst (byte-identical bodies: "
        f"{row['byte_identical_bodies']})"
    )


if __name__ == "__main__":
    main()
