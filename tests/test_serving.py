"""Tests for the ``repro-bc serve`` HTTP daemon (:mod:`repro.serving`).

Four contract families:

* **Concurrency harness** — a real daemon on an ephemeral port, hammered by
  threads issuing byte-identical and distinct queries concurrently.
  Byte-identical requests coalesce onto one computation and share one
  rendered response (the bodies are literally the same bytes), the
  coalesce-hit counters match the duplicate count exactly, and every served
  answer equals the sequential cold-API answer at the same seed.
* **Fault injection** — the session worker pool killed and respawned
  mid-request, graph mutations racing concurrent queries, overload and
  deadline behaviour.  The daemon's promise: structured errors with correct
  status codes, never a hang, never a stale ``graph_version`` receipt.
* **Prometheus text properties** — hypothesis-driven checks that
  ``/metrics`` output is well-formed exposition text, histogram buckets are
  cumulative-monotone, and counters never decrease.
* **Stamp parity** — the execution stamp emitted by ``repro-bc estimate``,
  ``repro-bc batch`` and the serve daemon is the same mapping from the same
  helper (:mod:`repro.execution.stamp`), pinned value-by-value so the
  surfaces cannot drift.
"""

from __future__ import annotations

import http.client
import io
import json
import math
import re
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.centrality.session import BetweennessSession
from repro.execution import resolve_plan
from repro.execution.stamp import (
    EXECUTION_STAMP_KEYS,
    execution_stamp,
    format_stamp_lines,
)
from repro.graphs import barabasi_albert_graph
from repro.serving import ServingApp, ServingConfig, create_server
from repro.serving.server import MAX_BODY_BYTES
from repro.serving.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.serving.queries import execute_query

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="property tests need hypothesis"
)

SEED = 3


def small_graph():
    """The 40-vertex scale-free graph most tests serve (BA graphs are connected)."""
    return barabasi_albert_graph(40, 2, seed=SEED)


def served_graph():
    """The same graph rebuilt through the serving load path (edge list).

    Cold comparisons must construct the graph exactly as the daemon does —
    vertex insertion order feeds the CSR index order the samplers run over.
    """
    from repro.graphs.core import Graph

    return Graph.from_edges(list(small_graph().edges()))


def make_app(**config_kwargs) -> ServingApp:
    config_kwargs.setdefault("request_timeout", 30.0)
    return ServingApp(config=ServingConfig(**config_kwargs))


def load_graph(app: ServingApp, name: str = "g", graph=None) -> int:
    """Load a graph into *app* through the HTTP surface; return its version."""
    graph = graph if graph is not None else small_graph()
    edges = [[u, v] for u, v in graph.edges()]
    response = app.dispatch(
        "PUT", f"/graphs/{name}", json.dumps({"edges": edges}).encode()
    )
    assert response.status == 200, response.body
    return json.loads(response.body)["loaded"]["graph_version"]


def body_of(response) -> dict:
    return json.loads(response.body)


def stable(payload: dict) -> dict:
    """Drop the timing-dependent fields so payloads compare deterministically."""
    clean = {
        k: v
        for k, v in payload.items()
        if k not in ("elapsed_seconds", "op", "line", "id")
    }
    receipt = clean.pop("receipt", None)
    if receipt is not None:
        clean["receipt"] = {
            k: v for k, v in receipt.items() if k != "server_seconds"
        }
    return clean


def cold_answer(query: dict, op: str) -> dict:
    """The cold per-call API answer for one serve query (fresh session)."""
    with BetweennessSession(served_graph(), None) as session:
        payload = execute_query(session, dict(query, op=op))
    return stable(payload)


#: The mixed workload the concurrency tests and the benchmark share in
#: spirit: estimates on distinct vertices/seeds plus set queries.
WORKLOAD = (
    ("estimate", {"vertex": 0, "samples": 40, "seed": 7}),
    ("estimate", {"vertex": 5, "samples": 40, "seed": 11}),
    ("relative", {"vertices": [0, 5, 9], "samples": 60, "seed": 5}),
    ("ranking", {"vertices": [0, 5, 9, 13], "samples": 60, "seed": 9}),
)


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------


def http_request(host, port, method, path, body=b"", timeout=30.0):
    """One HTTP exchange; returns ``(status, headers dict, body bytes)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


@pytest.fixture
def daemon():
    """A live daemon on an ephemeral port, torn down after the test."""
    app = make_app()
    server = create_server("127.0.0.1", 0, app=app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield SimpleNamespace(app=app, host=host, port=port)
    server.close()
    thread.join(timeout=10)


def raw_exchange(host, port, head: bytes) -> bytes:
    """Send raw request bytes; return everything the daemon answers."""
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestContentLength:
    """A bad or oversized Content-Length is answered, never crashes the handler."""

    @pytest.mark.parametrize(
        "header, status",
        [
            ("abc", 400),
            ("-5", 400),
            ("1.5", 400),
            (str(MAX_BODY_BYTES + 1), 413),
        ],
    )
    def test_daemon_answers_and_keeps_serving(self, daemon, header, status):
        head = (
            f"POST /graphs/g/estimate HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {header}\r\n\r\n"
        ).encode()
        answer = raw_exchange(daemon.host, daemon.port, head)
        status_line, _, rest = answer.partition(b"\r\n")
        assert status_line.split()[1] == str(status).encode()
        assert b"Connection: close" in rest
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert body["error"]["type"] == ("bad_request" if status == 400 else "payload_too_large")
        code, _, payload = http_request(daemon.host, daemon.port, "GET", "/healthz")
        assert code == 200 and json.loads(payload)["status"] == "ok"


class TestTransport:
    """Each response leaves in one write; a stalled client is let go."""

    def test_plain_keep_alive_client_pays_no_delayed_ack_stall(self, daemon):
        # No TCP_QUICKACK: a client that delays its ACK would wait ~40 ms
        # per request if the daemon sent the head and the body separately.
        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=30.0)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.25 * 20 * 0.040, f"20 keep-alive requests took {elapsed:.3f} s"

    def test_stalled_request_is_closed_and_the_daemon_keeps_serving(self, daemon, monkeypatch):
        from repro.serving import server as server_module

        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_SECONDS", 0.3)
        with socket.create_connection((daemon.host, daemon.port), timeout=10.0) as sock:
            sock.sendall(b"GET /heal")
            start = time.perf_counter()
            assert sock.recv(65536) == b"", "the daemon should close a stalled request"
            assert time.perf_counter() - start < 5.0
        code, _, payload = http_request(daemon.host, daemon.port, "GET", "/healthz")
        assert code == 200 and json.loads(payload)["status"] == "ok"


# ----------------------------------------------------------------------
# Route basics (transport-free dispatch)
# ----------------------------------------------------------------------


class TestDispatchBasics:
    def test_healthz_reports_loaded_graphs(self):
        app = make_app()
        try:
            load_graph(app, "alpha")
            payload = body_of(app.dispatch("GET", "/healthz"))
            assert payload["status"] == "ok"
            assert payload["graphs"] == ["alpha"]
        finally:
            app.close()

    def test_lifecycle_load_describe_evict(self):
        app = make_app()
        try:
            load_graph(app, "g")
            described = body_of(app.dispatch("GET", "/graphs/g"))
            assert described["vertices"] == 40
            assert described["queries"] == 0
            listed = body_of(app.dispatch("GET", "/graphs"))
            assert [row["graph"] for row in listed["graphs"]] == ["g"]
            evicted = body_of(app.dispatch("DELETE", "/graphs/g"))
            assert evicted["evicted"]["graph"] == "g"
            assert app.dispatch("GET", "/graphs/g").status == 404
        finally:
            app.close()

    def test_query_matches_cold_api(self):
        app = make_app()
        try:
            load_graph(app)
            for op, query in WORKLOAD:
                response = app.dispatch(
                    "POST", f"/graphs/g/{op}", json.dumps(query).encode()
                )
                assert response.status == 200, response.body
                served = stable(body_of(response))
                expected = cold_answer(query, op)
                assert {k: served[k] for k in expected} == expected, op
        finally:
            app.close()

    def test_structured_errors(self):
        app = make_app(max_sessions=1)
        try:
            # Unknown graph: 404 with the error envelope.
            response = app.dispatch("POST", "/graphs/nope/estimate", b"{}")
            assert response.status == 404
            assert body_of(response)["error"]["type"] == "graph_not_loaded"
            # Unknown route/op: 404.
            load_graph(app, "g")
            assert app.dispatch("POST", "/graphs/g/frobnicate", b"{}").status == 404
            # Malformed body: 400.
            response = app.dispatch("POST", "/graphs/g/estimate", b"{not json")
            assert response.status == 400
            assert body_of(response)["error"]["type"] == "bad_request"
            # Op mismatch between body and endpoint: 400.
            response = app.dispatch(
                "POST", "/graphs/g/estimate", b'{"op": "exact"}'
            )
            assert response.status == 400
            # Registry full: 409.
            response = app.dispatch(
                "PUT", "/graphs/other", b'{"edges": [[0, 1], [1, 2], [0, 2]]}'
            )
            assert response.status == 409
            assert body_of(response)["error"]["type"] == "registry_full"
        finally:
            app.close()

    def test_metrics_endpoint_scrapes(self):
        app = make_app()
        try:
            load_graph(app)
            app.dispatch(
                "POST", "/graphs/g/estimate", b'{"vertex": 0, "samples": 40, "seed": 7}'
            )
            response = app.dispatch("GET", "/metrics")
            assert response.status == 200
            assert response.content_type.startswith("text/plain")
            text = response.body.decode()
            assert 'repro_requests_total{endpoint="estimate",status="200"} 1' in text
            assert 'repro_brandes_passes_total{graph="g"}' in text
            assert "repro_request_seconds_bucket" in text
        finally:
            app.close()


# ----------------------------------------------------------------------
# Satellite 1: the concurrency harness
# ----------------------------------------------------------------------


def fire_concurrently(thunks):
    """Run the thunks on one thread each; return results in thunk order."""
    results = [None] * len(thunks)
    errors = []

    def runner(index, thunk):
        try:
            results[index] = thunk()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i, thunk), daemon=True)
        for i, thunk in enumerate(thunks)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "a request hung"
    if errors:
        raise errors[0]
    return results


class TestConcurrencyHarness:
    N_DUPLICATES = 6

    def test_identical_requests_coalesce_byte_identically(self, daemon):
        load_graph(daemon.app)
        query_bytes = json.dumps({"vertex": 0, "samples": 40, "seed": 7}).encode()

        followers = self.N_DUPLICATES - 1

        def hold_until_followers_joined(key):
            deadline = time.monotonic() + 15
            while (
                daemon.app.coalescer.waiters(key) < followers
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)

        daemon.app.before_compute = hold_until_followers_joined
        try:
            responses = fire_concurrently(
                [
                    lambda: http_request(
                        daemon.host,
                        daemon.port,
                        "POST",
                        "/graphs/g/estimate",
                        query_bytes,
                    )
                ]
                * self.N_DUPLICATES
            )
        finally:
            daemon.app.before_compute = None

        statuses = [status for status, _, _ in responses]
        assert statuses == [200] * self.N_DUPLICATES
        bodies = {raw for _, _, raw in responses}
        assert len(bodies) == 1, "coalesced responses must be byte-identical"
        flags = sorted(
            headers["X-Repro-Coalesced"] for _, headers, _ in responses
        )
        assert flags == ["0"] + ["1"] * followers

        # The counters match the duplicate count exactly: one computation,
        # N-1 coalesce hits, visible both on the coalescer and in /metrics.
        assert daemon.app.coalescer.computations == 1
        assert daemon.app.coalescer.coalesce_hits == followers
        assert daemon.app.coalesce_hits.value() == followers
        assert daemon.app.coalesce_misses.value() == 1

        # And the one shared answer is the cold per-call API answer.
        served = stable(json.loads(bodies.pop()))
        expected = cold_answer({"vertex": 0, "samples": 40, "seed": 7}, "estimate")
        assert {k: served[k] for k in expected} == expected

    def test_mixed_concurrent_workload_matches_sequential_cold(self, daemon):
        load_graph(daemon.app)
        repeats = 3
        requests = [
            (op, query, json.dumps(query, sort_keys=True).encode())
            for op, query in WORKLOAD
            for _ in range(repeats)
        ]
        responses = fire_concurrently(
            [
                lambda op=op, raw=raw: http_request(
                    daemon.host, daemon.port, "POST", f"/graphs/g/{op}", raw
                )
                for op, _, raw in requests
            ]
        )
        assert [status for status, _, _ in responses] == [200] * len(requests)
        for (op, query, _), (_, _, raw) in zip(requests, responses):
            served = stable(json.loads(raw))
            expected = cold_answer(query, op)
            assert {k: served[k] for k in expected} == expected, op

    def test_duplicate_streams_count_in_metrics(self, daemon):
        """Counters add up: requests == computations + hits + rejections."""
        load_graph(daemon.app)
        query_bytes = json.dumps({"vertex": 5, "samples": 40, "seed": 2}).encode()
        for _ in range(3):
            status, _, _ = http_request(
                daemon.host, daemon.port, "POST", "/graphs/g/estimate", query_bytes
            )
            assert status == 200
        app = daemon.app
        total_queries = app.coalesce_hits.value() + app.coalesce_misses.value()
        assert total_queries == 3
        assert (
            app.coalescer.computations + app.coalescer.coalesce_hits == total_queries
        )


# ----------------------------------------------------------------------
# Satellite 2: fault injection
# ----------------------------------------------------------------------


class TestFaultInjection:
    def _pooled_app(self):
        """An app whose sessions run a 2-worker persistent pool.

        The graph must exceed one shard (256 sources) for the scheduler to
        engage the pool at all.
        """
        plan = resolve_plan(None, n_jobs=2)
        config = ServingConfig(request_timeout=30.0)
        app = ServingApp(plan=plan, config=config)
        load_graph(app, "g", barabasi_albert_graph(600, 2, seed=SEED))
        return app

    def test_pool_killed_and_respawned_between_requests(self):
        app = self._pooled_app()
        try:
            first = app.dispatch("POST", "/graphs/g/exact", b"{}")
            assert first.status == 200
            context = app.registry.get("g").session.session._context
            assert context._pool is not None, "the workload must engage the pool"

            # Kill: tear the worker pool down outright.  Respawn: the next
            # query lazily rebuilds it (worker_pool() semantics).
            context._pool.close()
            context._pool = None

            second = app.dispatch("POST", "/graphs/g/exact", b"{}")
            assert second.status == 200
            assert body_of(second)["scores"] == body_of(first)["scores"]
            assert context._pool is not None, "the pool must respawn"
        finally:
            app.close()

    def test_pool_breaks_mid_request_and_degrades_inline(self, monkeypatch):
        """A worker death mid-request (the install/barrier protocol reports
        it as RuntimeError) degrades to inline execution: same answer, no
        hang, and the broken pool is torn down for good."""
        app = self._pooled_app()
        try:
            first = app.dispatch("POST", "/graphs/g/exact", b"{}")
            assert first.status == 200
            context = app.registry.get("g").session.session._context
            pool = context._pool
            assert pool is not None

            monkeypatch.setattr(
                pool.__class__,
                "run",
                lambda self, fn, shards, payload: (_ for _ in ()).throw(
                    RuntimeError("injected worker death")
                ),
            )
            with pytest.warns(RuntimeWarning, match="falls back"):
                second = app.dispatch("POST", "/graphs/g/exact", b"{}")
            assert second.status == 200
            assert body_of(second)["scores"] == body_of(first)["scores"]
            assert context.stats()["pool_active"] is False

            # Later queries keep answering (inline) without re-warning.
            monkeypatch.undo()
            third = app.dispatch(
                "POST", "/graphs/g/estimate", b'{"vertex": 0, "samples": 40, "seed": 7}'
            )
            assert third.status == 200
        finally:
            app.close()

    def test_mutation_mid_flight_never_yields_stale_receipt(self):
        """A query that computes *after* a racing mutation must stamp the
        post-mutation version, even though it was admitted before it."""
        app = make_app()
        try:
            v0 = load_graph(app)
            gate = threading.Event()
            app.before_compute = lambda key: gate.wait(timeout=30)

            query_bytes = b'{"vertex": 0, "samples": 40, "seed": 7}'
            slot = {}

            def query():
                slot["response"] = app.dispatch(
                    "POST", "/graphs/g/estimate", query_bytes
                )

            thread = threading.Thread(target=query, daemon=True)
            thread.start()
            deadline = time.monotonic() + 15
            while app.coalescer.inflight_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.002)
            assert app.coalescer.inflight_count() == 1

            # The mutation completes while the query is gated pre-lock.
            app.before_compute = None
            mutated = app.dispatch(
                "POST", "/graphs/g/mutate", b'{"add_edges": [[0, 39]]}'
            )
            assert mutated.status == 200
            v1 = body_of(mutated)["mutated"]["graph_version"]
            assert v1 > v0

            gate.set()
            thread.join(timeout=60)
            assert not thread.is_alive(), "the gated query hung"
            response = slot["response"]
            assert response.status == 200
            receipt = body_of(response)["receipt"]
            assert receipt["graph_version"] == v1, "stale version receipt"

            # And the answer equals a cold answer against the mutated graph.
            post = app.dispatch("POST", "/graphs/g/estimate", query_bytes)
            assert body_of(post)["estimate"] == body_of(response)["estimate"]
        finally:
            app.before_compute = None
            app.close()

    def test_overload_answers_429_with_retry_after(self):
        app = make_app(max_inflight=1, retry_after=2.5)
        try:
            load_graph(app)
            gate = threading.Event()
            app.before_compute = lambda key: gate.wait(timeout=30)

            def held_query():
                return app.dispatch(
                    "POST", "/graphs/g/estimate", b'{"vertex": 0, "samples": 40}'
                )

            thread_result = {}
            thread = threading.Thread(
                target=lambda: thread_result.update(r=held_query()), daemon=True
            )
            thread.start()
            deadline = time.monotonic() + 15
            while app.coalescer.inflight_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.002)

            # A *distinct* query now exceeds the admission bound...
            rejected = app.dispatch(
                "POST", "/graphs/g/estimate", b'{"vertex": 5, "samples": 40}'
            )
            assert rejected.status == 429
            assert dict(rejected.headers)["Retry-After"] == "2.5"
            assert body_of(rejected)["error"]["type"] == "overloaded"
            # ...while a byte-identical duplicate still coalesces in.
            app.before_compute = None
            gate.set()
            duplicate = app.dispatch(
                "POST", "/graphs/g/estimate", b'{"vertex": 0, "samples": 40}'
            )
            thread.join(timeout=60)
            assert thread_result["r"].status == 200
            assert duplicate.status in (200,)
            assert app.admission_rejections.value() == 1
            assert app.coalescer.rejections == 1
        finally:
            app.before_compute = None
            app.close()

    def test_deadline_expiry_answers_504_and_recovers(self):
        app = make_app(request_timeout=0.3)
        try:
            load_graph(app)
            gate = threading.Event()
            app.before_compute = lambda key: gate.wait(timeout=30)
            response = app.dispatch(
                "POST", "/graphs/g/estimate", b'{"vertex": 0, "samples": 40, "seed": 7}'
            )
            assert response.status == 504
            assert body_of(response)["error"]["type"] == "timeout"
            assert app.request_timeouts.value() == 1

            # Graceful cancellation: the abandoned computation finishes in
            # the background and drains from the in-flight table.
            app.before_compute = None
            gate.set()
            deadline = time.monotonic() + 30
            while app.coalescer.inflight_count() > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert app.coalescer.inflight_count() == 0

            # The daemon recovers: the same query now answers fine.
            retry = app.dispatch(
                "POST", "/graphs/g/estimate", b'{"vertex": 0, "samples": 40, "seed": 7}'
            )
            assert retry.status == 200
        finally:
            app.before_compute = None
            app.close()

    def test_query_failure_propagates_to_every_coalesced_waiter(self, daemon):
        load_graph(daemon.app)
        bad = json.dumps({"vertex": "no-such-vertex", "samples": 40}).encode()

        def hold(key):
            deadline = time.monotonic() + 15
            while (
                daemon.app.coalescer.waiters(key) < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)

        daemon.app.before_compute = hold
        try:
            responses = fire_concurrently(
                [
                    lambda: http_request(
                        daemon.host, daemon.port, "POST", "/graphs/g/estimate", bad
                    )
                ]
                * 3
            )
        finally:
            daemon.app.before_compute = None
        assert [status for status, _, _ in responses] == [400] * 3
        for _, _, raw in responses:
            assert json.loads(raw)["error"]["type"] == "bad_request"


class TestMutateReceipts:
    """Mutate responses carry the invalidation receipt of the warm state."""

    def test_mutate_response_carries_invalidation_receipt(self):
        app = make_app()
        try:
            v0 = load_graph(app)
            # Warm the session first so the receipt has state to account for.
            warm = app.dispatch(
                "POST", "/graphs/g/estimate", b'{"vertex": 0, "samples": 40, "seed": 7}'
            )
            assert warm.status == 200
            mutated = app.dispatch(
                "POST", "/graphs/g/mutate", b'{"add_edges": [[0, 39]]}'
            )
            assert mutated.status == 200
            summary = body_of(mutated)["mutated"]
            assert summary["graph_version"] == v0 + 1
            assert summary["version_changed"] is True
            receipt = summary["invalidation"]
            assert receipt["mode"] in ("delta", "full")
            assert receipt["version_from"] == v0
            assert receipt["version_to"] == v0 + 1
        finally:
            app.close()

    def test_noop_mutation_reports_version_unchanged(self):
        app = make_app()
        try:
            v0 = load_graph(app)
            first = app.dispatch(
                "POST", "/graphs/g/mutate", b'{"add_edges": [[0, 39]]}'
            )
            assert body_of(first)["mutated"]["version_changed"] is True
            repeat = app.dispatch(
                "POST", "/graphs/g/mutate", b'{"add_edges": [[0, 39]]}'
            )
            assert repeat.status == 200
            summary = body_of(repeat)["mutated"]
            assert summary["version_changed"] is False
            assert summary["graph_version"] == v0 + 1
            assert summary["invalidation"]["mode"] == "noop"
        finally:
            app.close()

    def test_batched_mutation_is_one_version_bump(self):
        app = make_app()
        try:
            v0 = load_graph(app)
            mutated = app.dispatch(
                "POST",
                "/graphs/g/mutate",
                b'{"add_edges": [[0, 38], [0, 39], [1, 37]], '
                b'"remove_edges": [[0, 1]]}',
            )
            assert mutated.status == 200
            summary = body_of(mutated)["mutated"]
            assert summary["graph_version"] == v0 + 1
            assert summary["edges_added"] + summary["edges_removed"] >= 2
        finally:
            app.close()

    @pytest.mark.parametrize(
        "bad",
        [
            {"add_edges": [[0, 38], [0, 39], [1]]},
            {"add_edges": [[0, 38], [0, 39], [1, 37, "heavy"]]},
            {"add_edges": [[0, 38], [0, 39], [7, 7]]},
            {"add_edges": [[0, 38]], "remove_edges": [[0, 38], [0, 38]]},
            {"add_edges": [[0, 38]], "remove_edges": "absent"},
        ],
        ids=["shape", "weight", "self-loop", "double-removal", "absent-edge"],
    )
    def test_bad_entry_rejects_the_whole_mutation(self, bad):
        """A request with one bad entry applies none of its entries."""
        app = make_app()
        try:
            load_graph(app)
            graph = app.registry.get("g").graph
            if bad.get("remove_edges") == "absent":
                absent = next(
                    [0, v] for v in range(1, 40) if v != 38 and not graph.has_edge(0, v)
                )
                bad = dict(bad, remove_edges=[[0, 38], absent])
            query = b'{"vertex": 0, "samples": 40, "seed": 7}'
            before = body_of(app.dispatch("POST", "/graphs/g/estimate", query))
            edges, version = graph.number_of_edges(), graph.version
            response = app.dispatch("POST", "/graphs/g/mutate", json.dumps(bad).encode())
            assert response.status == 400, response.body
            assert (graph.number_of_edges(), graph.version) == (edges, version)
            after = body_of(app.dispatch("POST", "/graphs/g/estimate", query))
            assert after["estimate"] == before["estimate"]
        finally:
            app.close()

    def test_removal_may_target_an_edge_added_earlier_in_the_request(self):
        app = make_app()
        try:
            v0 = load_graph(app)
            graph = app.registry.get("g").graph
            v = next(v for v in range(1, 40) if not graph.has_edge(0, v))
            edges = graph.number_of_edges()
            body = json.dumps({"add_edges": [[0, v]], "remove_edges": [[v, 0]]})
            response = app.dispatch("POST", "/graphs/g/mutate", body.encode())
            assert response.status == 200, response.body
            assert graph.number_of_edges() == edges
            assert body_of(response)["mutated"]["graph_version"] == v0 + 1
        finally:
            app.close()

    def test_metrics_expose_invalidation_series_after_warm_mutate(self):
        app = make_app()
        try:
            load_graph(app)
            warm = app.dispatch(
                "POST", "/graphs/g/estimate", b'{"vertex": 0, "samples": 40, "seed": 7}'
            )
            assert warm.status == 200
            mutated = app.dispatch(
                "POST", "/graphs/g/mutate", b'{"add_edges": [[0, 39]]}'
            )
            assert mutated.status == 200
            receipt = body_of(mutated)["mutated"]["invalidation"]
            text = app.dispatch("GET", "/metrics", b"").body.decode()
            mode = receipt["mode"]
            assert f'repro_invalidations_total{{graph="g",mode="{mode}"}} 1' in text
            if mode == "delta":
                assert (
                    f'repro_invalidation_arena_rows_retained{{graph="g"}} '
                    f'{receipt["arena_rows_retained"]}' in text
                )
        finally:
            app.close()


# ----------------------------------------------------------------------
# Satellite 3: Prometheus text properties
# ----------------------------------------------------------------------

_COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*\})?'
    r" (NaN|[+-]Inf|-?\d+(\.\d+)?([eE][+-]?\d+)?)$"
)


def assert_well_formed(text: str) -> None:
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        assert _COMMENT_RE.match(line) or _SAMPLE_RE.match(line), line


def parse_samples(text: str):
    """Parse exposition text into ``{(name, labels-frozenset): value}``."""
    samples = {}
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("#"):
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (.+)$", line)
        assert match, line
        name, labels, raw = match.groups()
        value = {"NaN": math.nan, "+Inf": math.inf, "-Inf": -math.inf}.get(
            raw, None
        )
        samples[(name, labels or "")] = float(raw) if value is None else value
    return samples


@needs_hypothesis
class TestMetricsProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["inc", "observe", "set"]),
                st.floats(
                    min_value=0.0, max_value=50.0, allow_nan=False
                ),
                st.text(min_size=0, max_size=12),
            ),
            max_size=30,
        )
    )
    def test_render_is_well_formed_exposition_text(self, ops):
        registry = MetricsRegistry()
        counter = registry.counter("t_counter", "a counter", ("label",))
        gauge = registry.gauge("t_gauge", "a gauge")
        histogram = registry.histogram("t_histogram", "a histogram")
        for op, value, label in ops:
            if op == "inc":
                counter.inc(value, label=label)
            elif op == "observe":
                histogram.observe(value)
            else:
                gauge.set(value)
        assert_well_formed(registry.render())

    @settings(max_examples=50, deadline=None)
    @given(
        observations=st.lists(
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
            max_size=50,
        )
    )
    def test_histogram_buckets_are_cumulative_monotone(self, observations):
        histogram = Histogram("t_hist", "h")
        for value in observations:
            histogram.observe(value)
        lines = histogram.sample_lines()
        bucket_values = [
            float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("t_hist_bucket")
        ]
        assert len(bucket_values) == len(DEFAULT_BUCKETS) + 1  # finite + +Inf
        assert bucket_values == sorted(bucket_values), "buckets must be cumulative"
        assert bucket_values[-1] == len(observations)  # +Inf == _count
        count = float(
            next(line for line in lines if line.startswith("t_hist_count")).rsplit(
                " ", 1
            )[1]
        )
        assert count == len(observations)
        total = float(
            next(line for line in lines if line.startswith("t_hist_sum")).rsplit(
                " ", 1
            )[1]
        )
        assert total == pytest.approx(sum(observations))

    @settings(max_examples=50, deadline=None)
    @given(
        increments=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            max_size=40,
        )
    )
    def test_counters_never_decrease(self, increments):
        counter = Counter("t_total", "c")
        previous = counter.value()
        for amount in increments:
            counter.inc(amount)
            current = counter.value()
            assert current >= previous
            previous = current
        with pytest.raises(ValueError):
            counter.inc(-1.0)
        assert counter.value() == previous, "a rejected inc must not change the value"

    @settings(max_examples=50, deadline=None)
    @given(
        observations=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantiles_stay_within_bucket_range(self, observations, q):
        histogram = Histogram("t_hist", "h")
        assert histogram.quantile(q) is None  # empty histogram
        for value in observations:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        assert estimate is not None
        assert 0.0 <= estimate <= DEFAULT_BUCKETS[-1]

    def test_broken_callback_gauge_renders_nan_not_crash(self):
        registry = MetricsRegistry()
        registry.gauge("t_broken", "g", fn=lambda: 1 / 0)
        text = registry.render()
        assert "t_broken NaN" in text
        assert_well_formed(text)


class TestServedMetricsProperties:
    """The same properties checked against a real daemon's /metrics."""

    def test_live_scrape_is_well_formed_and_counters_monotone(self, daemon):
        load_graph(daemon.app)
        scrapes = []
        for index in range(3):
            status, _, _ = http_request(
                daemon.host,
                daemon.port,
                "POST",
                "/graphs/g/estimate",
                json.dumps({"vertex": index, "samples": 40, "seed": index}).encode(),
            )
            assert status == 200
            status, _, raw = http_request(daemon.host, daemon.port, "GET", "/metrics")
            assert status == 200
            text = raw.decode()
            assert_well_formed(text)
            scrapes.append(parse_samples(text))
        for earlier, later in zip(scrapes, scrapes[1:]):
            for key, value in earlier.items():
                name = key[0]
                if name.endswith("_total") or name.endswith("_count") or name.endswith(
                    "_bucket"
                ):
                    assert later.get(key, 0.0) >= value, key
        final = scrapes[-1]
        assert final[("repro_brandes_passes_total", '{graph="g"}')] > 0
        assert final[("repro_request_seconds_count", "")] >= 6


# ----------------------------------------------------------------------
# Satellite 4: one execution stamp across every surface
# ----------------------------------------------------------------------


class TestStampParity:
    QUERY = {"vertex": 0, "samples": 40, "seed": 7}

    @pytest.fixture
    def graph_file(self, tmp_path):
        graph = small_graph()
        path = tmp_path / "graph.txt"
        path.write_text(
            "\n".join(f"{u} {v}" for u, v in graph.edges()) + "\n", encoding="utf-8"
        )
        return str(path)

    def _cli_estimate(self, graph_file):
        from repro.cli.commands import main_with_args

        out = io.StringIO()
        code = main_with_args(
            [
                "estimate",
                "--graph",
                graph_file,
                "--vertex",
                str(self.QUERY["vertex"]),
                "--samples",
                str(self.QUERY["samples"]),
                "--seed",
                str(self.QUERY["seed"]),
            ],
            out=out,
        )
        assert code == 0
        return json.loads(out.getvalue())

    def _cli_batch(self, graph_file, tmp_path):
        from repro.cli.commands import main_with_args

        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            json.dumps(dict(self.QUERY, op="estimate")) + "\n", encoding="utf-8"
        )
        out = io.StringIO()
        code = main_with_args(
            [
                "batch",
                "--graph",
                graph_file,
                "--queries",
                str(queries),
            ],
            out=out,
        )
        assert code == 0
        return json.loads(out.getvalue().strip())

    def _served(self):
        app = make_app()
        try:
            load_graph(app)
            response = app.dispatch(
                "POST", "/graphs/g/estimate", json.dumps(self.QUERY).encode()
            )
            assert response.status == 200
            return body_of(response)
        finally:
            app.close()

    def test_all_three_surfaces_emit_the_same_stamp(self, graph_file, tmp_path):
        cli = self._cli_estimate(graph_file)
        batch = self._cli_batch(graph_file, tmp_path)
        served = self._served()
        for key in EXECUTION_STAMP_KEYS:
            assert key in cli and key in batch and key in served, key
            assert cli[key] == batch[key] == served[key], key
            # The receipt restates the stamp the payload carries.
            assert served["receipt"][key] == served[key], key
        assert cli["estimate"] == batch["estimate"] == served["estimate"]

    def test_harness_header_lines_share_the_stamp_vocabulary(self):
        stamp = execution_stamp({"n_jobs": 2})
        lines = format_stamp_lines(stamp).split("\n")
        assert lines == [f"{key}: {stamp[key]}" for key in EXECUTION_STAMP_KEYS]

    def test_receipt_names_graph_and_version(self):
        app = make_app()
        try:
            version = load_graph(app)
            response = app.dispatch(
                "POST", "/graphs/g/estimate", json.dumps(self.QUERY).encode()
            )
            receipt = body_of(response)["receipt"]
            assert receipt["graph"] == "g"
            assert receipt["graph_version"] == version
            assert receipt["op"] == "estimate"
            assert receipt["server_seconds"] >= 0
        finally:
            app.close()
