"""``repro-bc serve``: the HTTP/JSON daemon over the session registry.

A :class:`ServingApp` is the transport-free core — route dispatch, request
coalescing, admission control, receipts and metrics — and
:func:`create_server` mounts it on a stdlib
:class:`~http.server.ThreadingHTTPServer` (one handler thread per
connection, no new dependencies).  Keeping the core separate from the
socket is what lets the test harness drive fault injection from inside the
process while real clients talk over the wire.

Routes
------
===========================================  =====================================
``GET  /healthz``                            liveness probe
``GET  /metrics``                            Prometheus text exposition
``GET  /graphs``                             list loaded graphs
``PUT  /graphs/<name>``                      load/replace a graph (dataset or edges)
``GET  /graphs/<name>``                      describe one graph
``DELETE /graphs/<name>``                    evict a graph (closes its session)
``POST /graphs/<name>/mutate``               batched edge upserts/removals; the
                                             response carries the invalidation
                                             receipt (rows evicted vs retained,
                                             ``version_changed``)
``POST /graphs/<name>/<op>``                 query: estimate/relative/ranking/exact
===========================================  =====================================

Query semantics
---------------
Query bodies are the ``repro-bc batch`` JSONL objects
(:mod:`repro.serving.queries` is the shared implementation).  Byte-identical
bodies hitting the same graph version **coalesce**: they share one
computation and one rendered response — the response body bytes are
identical by construction, and the ``X-Repro-Coalesced`` header (never the
body) tells a client whether it joined an in-flight run.  Every response
carries a ``receipt`` — graph name, the graph version the answer was
computed against (read atomically with the query under the session lock),
and the execution stamp (jobs / batch size / chains) — so an answer is
auditable back to what actually ran.

Overload and deadlines
----------------------
At most ``max_inflight`` distinct computations run at once; an over-limit
request gets ``429`` with a ``Retry-After`` header.  Every request waits on
its computation with ``request_timeout`` seconds; past the deadline the
client gets a structured ``504`` while the computation finishes in the
background (Python cannot kill a thread — the daemon promises to never
hang a client, not to abort an estimator mid-pass; the finished result
still warms the session's caches).
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.execution import ExecutionPlan, resolve_plan
from repro.execution.stamp import EXECUTION_STAMP_KEYS, execution_stamp
from repro.graphs.core import Graph
from repro.serving.coalesce import CoalesceTimeout, OverloadedError, RequestCoalescer
from repro.serving.metrics import MetricsRegistry
from repro.serving.queries import QUERY_OPS, execute_query
from repro.serving.registry import GraphNotLoaded, RegistryFull, SessionRegistry

__all__ = [
    "ServingConfig",
    "ServingApp",
    "Response",
    "BetweennessHTTPServer",
    "create_server",
]


@dataclasses.dataclass
class ServingConfig:
    """Daemon knobs (the ``repro-bc serve`` flags map onto these)."""

    #: Upper bound on concurrently running distinct computations
    #: (``None`` = unbounded); exceeding it answers 429.
    max_inflight: Optional[int] = 16
    #: Per-request wait deadline in seconds (``None`` = wait forever).
    request_timeout: Optional[float] = 60.0
    #: Retry hint (seconds) on 429 responses.
    retry_after: float = 1.0
    #: Default chain count applied to MCMC queries without ``"chains"``.
    default_chains: Optional[int] = None
    #: Bound on simultaneously loaded graphs.
    max_sessions: int = 8
    #: Rows of each session's persistent dependency arena.
    arena_capacity: Optional[int] = None
    #: Verify connectivity on load and after mutation.
    check_connected: bool = True


@dataclasses.dataclass
class Response:
    """One dispatched response: status, JSON/text body bytes, extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()


def _json_response(status: int, payload: dict, headers: Tuple[Tuple[str, str], ...] = ()) -> Response:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return Response(status, body, "application/json", headers)


def _error_response(
    status: int,
    error_type: str,
    message: str,
    headers: Tuple[Tuple[str, str], ...] = (),
    **extra,
) -> Response:
    payload = {"error": {"type": error_type, "message": message, **extra}}
    return _json_response(status, payload, headers)


class ServingApp:
    """Transport-free daemon core: registry + coalescer + metrics + routes."""

    def __init__(
        self,
        *,
        plan: Optional[ExecutionPlan] = None,
        config: Optional[ServingConfig] = None,
        registry: Optional[SessionRegistry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServingConfig()
        self.plan = resolve_plan(plan)
        self.registry = (
            registry
            if registry is not None
            else SessionRegistry(
                plan=self.plan,
                arena_capacity=self.config.arena_capacity,
                check_connected=self.config.check_connected,
                max_sessions=self.config.max_sessions,
            )
        )
        self.coalescer = RequestCoalescer(
            self.config.max_inflight, self.config.retry_after
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.started_at = time.time()
        #: Fault-injection / test hook: called (with the coalesce key) at
        #: the start of every computation, on the computation thread.  The
        #: concurrency harness uses it to hold a coalesce window open; the
        #: fault tests use it to kill pools mid-request.
        self.before_compute = None
        self._passes_lock = threading.Lock()
        self._passes_seen: Dict[str, int] = {}
        self._build_metrics()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _build_metrics(self) -> None:
        m = self.metrics
        self.requests_total = m.counter(
            "repro_requests_total",
            "HTTP requests handled, by endpoint and status code.",
            ("endpoint", "status"),
        )
        self.request_seconds = m.histogram(
            "repro_request_seconds",
            "End-to-end request latency in seconds (all endpoints).",
        )
        m.gauge(
            "repro_request_latency_p50_seconds",
            "Estimated median request latency (bucket interpolation).",
            fn=lambda: self.request_seconds.quantile(0.50) or 0.0,
        )
        m.gauge(
            "repro_request_latency_p95_seconds",
            "Estimated P95 request latency (bucket interpolation).",
            fn=lambda: self.request_seconds.quantile(0.95) or 0.0,
        )
        self.coalesce_hits = m.counter(
            "repro_coalesce_hits_total",
            "Query requests that joined an identical in-flight computation.",
        )
        self.coalesce_misses = m.counter(
            "repro_coalesce_misses_total",
            "Query requests that started a fresh computation.",
        )
        self.admission_rejections = m.counter(
            "repro_admission_rejections_total",
            "Requests refused by the in-flight admission bound (HTTP 429).",
        )
        self.request_timeouts = m.counter(
            "repro_request_timeouts_total",
            "Requests whose wait deadline expired (HTTP 504).",
        )
        m.gauge(
            "repro_inflight_computations",
            "Distinct query computations currently running.",
            fn=self.coalescer.inflight_count,
        )
        m.gauge(
            "repro_sessions",
            "Graphs currently loaded in the session registry.",
            fn=lambda: float(len(self.registry)),
        )
        self.brandes_passes = m.counter(
            "repro_brandes_passes_total",
            "Brandes passes performed by warm sessions, by graph "
            "(delta-accumulated from ExecutionContext.stats, so the series "
            "stays monotone across graph reloads).",
            ("graph",),
        )
        self.arena_rows = m.gauge(
            "repro_arena_rows_published",
            "Dependency-arena rows published, by graph.",
            ("graph",),
        )
        self.arena_occupancy = m.gauge(
            "repro_arena_occupancy",
            "Dependency-arena fill fraction (published / capacity), by graph.",
            ("graph",),
        )
        self.invalidations = m.counter(
            "repro_invalidations_total",
            "Warm-state invalidations applied by mutate requests, by graph "
            'and mode ("noop" idempotent, "delta" affected-region scoped, '
            '"full" destroy-everything).',
            ("graph", "mode"),
        )
        self.invalidation_rows_evicted = m.counter(
            "repro_invalidation_arena_rows_evicted_total",
            "Dependency-arena rows tombstoned by delta-scoped invalidations, "
            "by graph.",
            ("graph",),
        )
        self.invalidation_rows_retained = m.gauge(
            "repro_invalidation_arena_rows_retained",
            "Arena rows that survived the most recent mutation of each graph "
            "(0 after a full invalidation).",
            ("graph",),
        )
        self.invalidation_sources_affected = m.gauge(
            "repro_invalidation_sources_affected",
            "Affected-source count of the most recent delta-scoped "
            "invalidation, by graph.",
            ("graph",),
        )
        self.invalidation_oracle_retained = m.gauge(
            "repro_invalidation_oracle_vectors_retained",
            "Warm oracle vectors that survived the most recent mutation of "
            "each graph.",
            ("graph",),
        )
        self.invalidation_rows_compacted = m.counter(
            "repro_invalidation_arena_rows_compacted_total",
            "Tombstoned dependency-arena rows whose capacity was reclaimed "
            "by compaction during delta-scoped invalidations, by graph.",
            ("graph",),
        )

    def _observe_session(self, name: str, stats: Dict[str, object]) -> None:
        """Fold one session-stats snapshot into the exported metrics."""
        passes = int(stats.get("brandes_passes", 0) or 0)
        with self._passes_lock:
            seen = self._passes_seen.get(name, 0)
            delta = passes - seen
            if delta > 0:
                self._passes_seen[name] = passes
        if delta > 0:
            self.brandes_passes.inc(delta, graph=name)
        context = stats.get("context") or {}
        arena = context.get("arena")
        if arena:
            self.arena_rows.set(arena.get("published", 0), graph=name)
        occupancy = context.get("arena_occupancy")
        if occupancy is not None:
            self.arena_occupancy.set(occupancy, graph=name)

    def _forget_session(self, name: str) -> None:
        with self._passes_lock:
            self._passes_seen.pop(name, None)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, method: str, path: str, body: bytes = b"") -> Response:
        """Route one request; always returns a structured :class:`Response`."""
        start = time.perf_counter()
        endpoint, handler = self._route(method, path.rstrip("/") or "/")
        try:
            if handler is None:
                response = _error_response(
                    404, "not_found", f"no route for {method} {path}"
                )
            else:
                response = handler(body)
        except OverloadedError as exc:
            self.admission_rejections.inc()
            response = _error_response(
                429,
                "overloaded",
                str(exc),
                headers=(("Retry-After", f"{exc.retry_after:g}"),),
                retry_after=exc.retry_after,
            )
        except CoalesceTimeout as exc:
            self.request_timeouts.inc()
            response = _error_response(504, "timeout", str(exc), timeout=exc.timeout)
        except GraphNotLoaded as exc:
            response = _error_response(404, "graph_not_loaded", str(exc))
        except RegistryFull as exc:
            response = _error_response(409, "registry_full", str(exc))
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            response = _error_response(
                400, "bad_request", str(exc) or type(exc).__name__
            )
        except Exception as exc:  # noqa: BLE001 - the daemon must answer
            response = _error_response(
                500, "internal", f"{type(exc).__name__}: {exc}"
            )
        elapsed = time.perf_counter() - start
        self.request_seconds.observe(elapsed)
        self.requests_total.inc(endpoint=endpoint, status=str(response.status))
        return response

    def _route(self, method: str, path: str):
        """Resolve ``(endpoint label, handler)`` for one request line."""
        if path == "/healthz" and method == "GET":
            return "healthz", lambda body: self._handle_health()
        if path == "/metrics" and method == "GET":
            return "metrics", lambda body: self._handle_metrics()
        if path == "/graphs" and method == "GET":
            return "graphs", lambda body: self._handle_list()
        if path.startswith("/graphs/"):
            parts = [part for part in path.split("/") if part]
            if len(parts) == 2:
                name = parts[1]
                if method in ("PUT", "POST"):
                    return "load", lambda body: self._handle_load(name, body)
                if method == "GET":
                    return "describe", lambda body: self._handle_describe(name)
                if method == "DELETE":
                    return "evict", lambda body: self._handle_evict(name)
            elif len(parts) == 3 and method == "POST":
                name, op = parts[1], parts[2]
                if op == "mutate":
                    return "mutate", lambda body: self._handle_mutate(name, body)
                if op in QUERY_OPS:
                    return op, lambda body: self._handle_query(name, op, body)
        return method.lower(), None

    # ------------------------------------------------------------------
    # Lifecycle endpoints
    # ------------------------------------------------------------------
    def _handle_health(self) -> Response:
        return _json_response(
            200,
            {
                "status": "ok",
                "graphs": self.registry.names(),
                "uptime_seconds": time.time() - self.started_at,
            },
        )

    def _handle_metrics(self) -> Response:
        return Response(
            200,
            self.metrics.render().encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _handle_list(self) -> Response:
        return _json_response(200, {"graphs": self.registry.describe_all()})

    def _parse_body(self, body: bytes) -> dict:
        if not body:
            return {}
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ReproError("request body must be a JSON object")
        return parsed

    def _handle_load(self, name: str, body: bytes) -> Response:
        spec = self._parse_body(body)
        graph = self._build_graph(spec)
        entry = self.registry.load(name, graph)
        self._forget_session(name)
        return _json_response(200, {"loaded": entry.describe()})

    def _build_graph(self, spec: dict) -> Graph:
        """Materialise a graph from a load-request body."""
        if ("dataset" in spec) == ("edges" in spec):
            raise ReproError(
                'a load request names exactly one graph source: {"dataset": ...}'
                ' or {"edges": [[u, v], ...]}'
            )
        if "dataset" in spec:
            from repro.datasets.registry import load_dataset

            return load_dataset(
                str(spec["dataset"]),
                size=str(spec.get("size", "small")),
                seed=spec.get("seed", 0),
            )
        edges = spec["edges"]
        if not isinstance(edges, list) or not edges:
            raise ReproError('"edges" must be a non-empty list of [u, v(, w)] pairs')
        weighted = bool(spec.get("weighted", any(len(edge) == 3 for edge in edges)))
        return Graph.from_edges(
            [tuple(edge) for edge in edges],
            directed=bool(spec.get("directed", False)),
            weighted=weighted,
        )

    def _handle_describe(self, name: str) -> Response:
        return _json_response(200, self.registry.get(name).describe())

    def _handle_evict(self, name: str) -> Response:
        summary = self.registry.evict(name)
        self._forget_session(name)
        return _json_response(200, {"evicted": summary})

    def _handle_mutate(self, name: str, body: bytes) -> Response:
        spec = self._parse_body(body)
        add_edges = spec.get("add_edges", [])
        remove_edges = spec.get("remove_edges", [])
        if not isinstance(add_edges, list) or not isinstance(remove_edges, list):
            raise ReproError('"add_edges" / "remove_edges" must be lists of pairs')
        if not add_edges and not remove_edges:
            raise ReproError("a mutation names at least one edge to add or remove")
        entry = self.registry.get(name)
        summary = entry.mutate(add_edges=add_edges, remove_edges=remove_edges)
        receipt = summary.get("invalidation") or {}
        mode = str(receipt.get("mode", "full"))
        self.invalidations.inc(graph=name, mode=mode)
        if mode != "noop":
            self.invalidation_rows_evicted.inc(
                int(receipt.get("arena_rows_evicted", 0) or 0), graph=name
            )
            self.invalidation_rows_retained.set(
                int(receipt.get("arena_rows_retained", 0) or 0), graph=name
            )
            self.invalidation_sources_affected.set(
                int(receipt.get("affected_sources", 0) or 0), graph=name
            )
            self.invalidation_oracle_retained.set(
                int(receipt.get("oracle_vectors_retained", 0) or 0), graph=name
            )
            self.invalidation_rows_compacted.inc(
                int(receipt.get("arena_rows_compacted", 0) or 0), graph=name
            )
        return _json_response(200, {"mutated": summary})

    # ------------------------------------------------------------------
    # Query endpoint
    # ------------------------------------------------------------------
    def _handle_query(self, name: str, op: str, body: bytes) -> Response:
        query = self._parse_body(body)
        if "op" in query and query["op"] != op:
            raise ReproError(
                f'the query body says op {query["op"]!r} but was posted to '
                f"the {op!r} endpoint"
            )
        entry = self.registry.get(name)
        # The coalesce key: byte-identical bodies against the same graph
        # version share one computation.  The version in the key gates
        # cross-mutation sharing; the receipt's version is read under the
        # session lock below and is authoritative.
        key = (name, entry.version, op, bytes(body))

        def compute() -> bytes:
            if self.before_compute is not None:
                self.before_compute(key)
            started = time.perf_counter()
            with entry.session.lock:
                payload = execute_query(
                    entry.session,
                    dict(query, op=op),
                    default_chains=self.config.default_chains,
                )
                version = entry.version
            stats = entry.stats()
            self._observe_session(name, stats)
            record = {
                "op": op,
                **payload,
                "receipt": self._receipt(
                    name, op, version, payload, time.perf_counter() - started
                ),
            }
            return json.dumps(record, sort_keys=True).encode("utf-8")

        rendered, coalesced = self.coalescer.execute(
            key, compute, timeout=self.config.request_timeout
        )
        if coalesced:
            self.coalesce_hits.inc()
        else:
            self.coalesce_misses.inc()
        return Response(
            200,
            rendered,
            "application/json",
            (("X-Repro-Coalesced", "1" if coalesced else "0"),),
        )

    def _receipt(
        self, name: str, op: str, version: int, payload: dict, elapsed: float
    ) -> dict:
        """The per-response audit receipt.

        Execution stamps come from the payload when the estimator reported
        diagnostics (estimate / relative), else from the registry's plan —
        either way every receipt carries the full
        :data:`~repro.execution.stamp.EXECUTION_STAMP_KEYS` set.
        """
        if all(key in payload for key in ("jobs", "kernel")):
            stamp = {key: payload.get(key) for key in EXECUTION_STAMP_KEYS}
        else:
            stamp = execution_stamp({"n_jobs": self.plan.n_jobs})
        return {
            "graph": name,
            "graph_version": version,
            "op": op,
            "server_seconds": elapsed,
            **stamp,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every session (idempotent)."""
        self.registry.close()


#: Largest request body the daemon reads, in bytes; a longer declared
#: ``Content-Length`` is answered 413 without reading the body.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a connection may sit in one socket read or write before the
#: daemon closes it: a client that stalls mid-request (or idles on a
#: keep-alive connection) releases its handler thread instead of holding
#: it forever.  Computation time is not socket time, so a long query is
#: unaffected.
IDLE_TIMEOUT_SECONDS = 60.0


class BetweennessHTTPServer(ThreadingHTTPServer):
    """The daemon socket: one handler thread per connection, app attached."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ServingApp) -> None:
        super().__init__(address, _Handler)
        self.app = app

    def close(self) -> None:
        """Stop serving and release every session."""
        self.shutdown()
        self.server_close()
        self.app.close()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-bc-serve"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request accounting lives in /metrics, not on stderr

    def setup(self) -> None:
        # Read at connection time, so the socket timeout follows the module
        # constant (StreamRequestHandler applies ``timeout`` in setup()).
        self.timeout = IDLE_TIMEOUT_SECONDS
        super().setup()

    def _dispatch(self) -> None:
        raw = self.headers.get("Content-Length") or "0"
        length = int(raw) if raw.strip().isdecimal() else -1
        if length < 0:
            response = _error_response(
                400, "bad_request", f"invalid Content-Length header {raw!r}"
            )
        elif length > MAX_BODY_BYTES:
            response = _error_response(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
            )
        else:
            body = self.rfile.read(length) if length else b""
            response = self.server.app.dispatch(self.command, self.path, body)
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body was left unread and would be parsed as the next
            # request; "Connection: close" also ends this handler's loop.
            self.send_header("Connection", "close")
        for key, value in response.headers:
            self.send_header(key, value)
        # Head and body leave in one write: a second small send would wait
        # under Nagle for the client's (possibly delayed) ACK of the first.
        self._headers_buffer.append(b"\r\n")
        head = b"".join(self._headers_buffer)
        self._headers_buffer = []
        self.wfile.write(head + response.body)

    do_GET = do_POST = do_PUT = do_DELETE = _dispatch


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    plan: Optional[ExecutionPlan] = None,
    config: Optional[ServingConfig] = None,
    app: Optional[ServingApp] = None,
) -> BetweennessHTTPServer:
    """Build a daemon on ``(host, port)`` (port 0 = ephemeral, for tests).

    Call ``serve_forever()`` on the result (typically from a thread or a
    CLI entry point) and ``close()`` to tear it down.
    """
    if app is None:
        app = ServingApp(plan=plan, config=config)
    elif plan is not None or config is not None:
        raise ConfigurationError(
            "pass either a ready ServingApp or plan/config, not both"
        )
    return BetweennessHTTPServer((host, port), app)
