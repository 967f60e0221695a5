"""Implementation of the ``repro-bc`` command-line interface.

Five sub-commands, mirroring the public Python API:

``estimate``
    Estimate the betweenness of a single vertex with any registered method.
``relative``
    Estimate relative betweenness scores / ratios of a set of vertices with
    the joint-space Metropolis-Hastings sampler.
``exact``
    Compute exact betweenness (all vertices or a selection) with Brandes.
``batch``
    Serve many queries from one warm
    :class:`~repro.centrality.session.BetweennessSession`: read a JSONL
    query file (or stdin), stream one JSON result per line.  The graph is
    loaded once, the worker pool / dependency arena persist across queries.
``serve``
    Run the long-lived HTTP/JSON daemon of :mod:`repro.serving`: a session
    registry of named warm graphs, request coalescing, admission control,
    and a Prometheus-text ``/metrics`` endpoint.  Accepts the same query
    objects as ``batch``, one endpoint per op.
``datasets``
    List the built-in synthetic datasets.

Graphs are loaded either from an edge-list file (``--graph PATH``) or from a
named dataset (``--dataset NAME [--size SIZE]``); ``serve`` can also start
empty and load graphs over HTTP.

The payload builders and execution stamp shared by ``estimate`` /
``relative`` / ``batch`` / ``serve`` live in :mod:`repro.serving.queries`
and :mod:`repro.execution.stamp` — one implementation, so the surfaces
cannot drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.centrality.api import (
    SINGLE_VERTEX_METHODS,
    betweenness_exact,
    betweenness_single,
    relative_betweenness,
)
from repro.centrality.session import BetweennessSession
from repro.datasets.registry import SIZES, dataset_names, dataset_table, load_dataset
from repro.execution import resolve_plan
from repro.errors import ReproError
from repro.graphs.core import Graph
from repro.graphs.io import read_edge_list
from repro.serving.queries import (
    estimate_payload,
    execute_query,
    parse_vertex,
    relative_payload,
)

__all__ = ["build_parser", "run", "main_with_args"]


def build_parser() -> argparse.ArgumentParser:
    """Return the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bc",
        description="Metropolis-Hastings betweenness centrality estimation (EDBT 2019 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    estimate = subparsers.add_parser("estimate", help="estimate the betweenness of one vertex")
    _add_graph_arguments(estimate)
    estimate.add_argument("--vertex", required=True, help="target vertex label")
    estimate.add_argument(
        "--method",
        default="mh",
        choices=sorted(SINGLE_VERTEX_METHODS),
        help="estimator to use (default: the paper's MH sampler)",
    )
    estimate.add_argument("--samples", type=int, default=200, help="chain length / sample count")
    estimate.add_argument("--seed", type=int, default=None, help="random seed")
    _add_execution_arguments(estimate)
    estimate.add_argument(
        "--chains",
        type=_positive_int,
        default=None,
        help="independent MH chains the sample budget is split over "
        "(MCMC methods only; per-chain rng streams, pooled deterministically)",
    )
    estimate.add_argument(
        "--rhat",
        type=_rhat_threshold,
        default=None,
        help="split-R-hat target for adaptive burn-in / early stop "
        "(> 1.0; implies --chains 4 when --chains is not given)",
    )

    relative = subparsers.add_parser(
        "relative", help="estimate relative betweenness scores of a vertex set"
    )
    _add_graph_arguments(relative)
    relative.add_argument(
        "--vertices", required=True, help="comma-separated reference vertex labels"
    )
    relative.add_argument("--samples", type=int, default=1000, help="joint chain length")
    relative.add_argument("--seed", type=int, default=None, help="random seed")
    _add_execution_arguments(relative)
    relative.add_argument(
        "--chains",
        type=_positive_int,
        default=None,
        help="independent joint chains the sample budget is split over",
    )

    batch = subparsers.add_parser(
        "batch",
        help="serve a JSONL query stream from one warm session "
        "(graph loaded once, pool and dependency arena reused)",
    )
    _add_graph_arguments(batch)
    batch.add_argument(
        "--queries",
        required=True,
        help="path to a JSONL query file, or '-' for stdin; each line is an "
        'object like {"op": "estimate", "vertex": 3, "samples": 200, '
        '"seed": 7} with op one of estimate/relative/ranking/exact',
    )
    _add_execution_arguments(batch)
    batch.add_argument(
        "--chains",
        type=_positive_int,
        default=None,
        help="default chain count applied to MCMC queries that do not set "
        '"chains" themselves',
    )
    batch.add_argument(
        "--arena-capacity",
        type=_positive_int,
        default=None,
        help="rows of the session's persistent dependency arena "
        "(default: byte-budget heuristic)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP/JSON daemon: named warm graphs, request "
        "coalescing, /metrics (see repro.serving)",
    )
    _add_graph_arguments(serve, required=False)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8035, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--name",
        default="default",
        help="registry name of the graph preloaded from --graph/--dataset",
    )
    _add_execution_arguments(serve)
    serve.add_argument(
        "--chains",
        type=_positive_int,
        default=None,
        help="default chain count applied to MCMC queries that do not set "
        '"chains" themselves',
    )
    serve.add_argument(
        "--arena-capacity",
        type=_positive_int,
        default=None,
        help="rows of each session's persistent dependency arena",
    )
    serve.add_argument(
        "--max-sessions",
        type=_positive_int,
        default=8,
        help="bound on simultaneously loaded graphs (each owns workers and "
        "shared memory)",
    )
    serve.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=16,
        help="bound on concurrently running distinct computations; over-limit "
        "requests get 429 + Retry-After",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-request wait deadline in seconds (expired requests get a "
        "structured 504; the computation finishes in the background)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help="Retry-After hint (seconds) on 429 responses",
    )

    exact = subparsers.add_parser("exact", help="exact betweenness with Brandes's algorithm")
    _add_graph_arguments(exact)
    exact.add_argument(
        "--vertices",
        default=None,
        help="optional comma-separated vertex labels (default: all vertices)",
    )
    exact.add_argument("--top", type=int, default=None, help="print only the top-K vertices")
    _add_execution_arguments(exact)

    datasets = subparsers.add_parser("datasets", help="list the built-in synthetic datasets")
    datasets.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    return parser


def _add_graph_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--graph", help="path to an edge-list file (two integers per line)")
    source.add_argument("--dataset", choices=dataset_names(), help="built-in dataset name")
    parser.add_argument("--size", default="small", choices=SIZES, help="built-in dataset size")
    parser.add_argument(
        "--weighted", action="store_true", help="treat the edge list as weighted (u v w lines)"
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution-engine knobs shared by every estimating sub-command."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for the sharded source loop "
        "(default: REPRO_JOBS, else 1)",
    )


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


def _rhat_threshold(raw: str) -> float:
    value = float(raw)
    if not value > 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a threshold greater than 1.0, got {raw!r}"
        )
    return value


def _load_graph(args: argparse.Namespace) -> Optional[Graph]:
    if args.graph:
        return read_edge_list(args.graph, weighted=args.weighted)
    if args.dataset:
        return load_dataset(args.dataset, size=args.size)
    return None


def run(args: argparse.Namespace, out=sys.stdout) -> int:
    """Execute the parsed arguments; return a process exit code."""
    try:
        if args.command == "datasets":
            return _run_datasets(args, out)
        graph = _load_graph(args)
        if args.command == "serve":
            return _run_serve(args, graph, out)
        if graph is None:
            raise ReproError("a graph source (--graph or --dataset) is required")
        if args.command == "estimate":
            return _run_estimate(args, graph, out)
        if args.command == "relative":
            return _run_relative(args, graph, out)
        if args.command == "exact":
            return _run_exact(args, graph, out)
        if args.command == "batch":
            return _run_batch(args, graph, out)
        raise ReproError(f"unknown command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_estimate(args: argparse.Namespace, graph: Graph, out) -> int:
    vertex = parse_vertex(args.vertex)
    result = betweenness_single(
        graph,
        vertex,
        method=args.method,
        samples=args.samples,
        seed=args.seed,
        n_jobs=args.jobs,
        n_chains=args.chains,
        rhat_target=args.rhat,
    )
    print(json.dumps(estimate_payload(vertex, result), indent=2), file=out)
    return 0


def _run_relative(args: argparse.Namespace, graph: Graph, out) -> int:
    vertices = [parse_vertex(v) for v in args.vertices.split(",") if v.strip() != ""]
    estimate = relative_betweenness(
        graph,
        vertices,
        samples=args.samples,
        seed=args.seed,
        n_jobs=args.jobs,
        n_chains=args.chains,
    )
    print(json.dumps(relative_payload(estimate), indent=2), file=out)
    return 0


def _run_batch(args: argparse.Namespace, graph: Graph, out) -> int:
    """Stream JSONL queries through one warm session (one JSON result per line).

    Every query line is answered independently — a malformed or failing
    query emits an ``error`` record and the stream continues (exit code 1 at
    the end if anything failed).  The session — graph, worker pool, arena,
    oracles — stays warm across the whole stream, which is the point: the
    per-query marginal cost is the estimator work alone.
    """
    plan = resolve_plan(None, n_jobs=args.jobs)
    if args.queries == "-":
        lines = sys.stdin
        close_lines = False
    else:
        try:
            lines = open(args.queries, "r", encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot read the query file: {exc}")
        close_lines = True
    failures = 0
    try:
        with BetweennessSession(graph, plan, arena_capacity=args.arena_capacity) as session:
            for lineno, line in enumerate(lines, start=1):
                line = line.strip()
                if not line:
                    continue
                record: dict = {"line": lineno}
                try:
                    query = json.loads(line)
                    if not isinstance(query, dict):
                        raise ReproError("each query line must be a JSON object")
                    if "id" in query:
                        record["id"] = query["id"]
                    record["op"] = query.get("op", "estimate")
                    record.update(
                        execute_query(session, query, default_chains=args.chains)
                    )
                except (ReproError, ValueError, KeyError, TypeError) as exc:
                    failures += 1
                    record["error"] = str(exc) or type(exc).__name__
                print(json.dumps(record), file=out, flush=True)
    finally:
        if close_lines:
            lines.close()
    return 0 if failures == 0 else 1


def _run_serve(args: argparse.Namespace, graph: Optional[Graph], out) -> int:
    """Run the HTTP daemon until interrupted.

    With ``--graph``/``--dataset`` the named graph is preloaded (warm before
    the first request); without one the daemon starts empty and graphs
    arrive over ``PUT /graphs/<name>``.
    """
    from repro.serving import ServingApp, ServingConfig, create_server

    plan = resolve_plan(None, n_jobs=args.jobs)
    config = ServingConfig(
        max_inflight=args.max_inflight,
        request_timeout=args.timeout,
        retry_after=args.retry_after,
        default_chains=args.chains,
        max_sessions=args.max_sessions,
        arena_capacity=args.arena_capacity,
    )
    app = ServingApp(plan=plan, config=config)
    server = create_server(args.host, args.port, app=app)
    try:
        if graph is not None:
            app.registry.load(args.name, graph)
        host, port = server.server_address[:2]
        print(
            json.dumps(
                {
                    "serving": f"http://{host}:{port}",
                    "graphs": app.registry.names(),
                    "max_inflight": args.max_inflight,
                    "timeout_seconds": args.timeout,
                }
            ),
            file=out,
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _run_exact(args: argparse.Namespace, graph: Graph, out) -> int:
    vertices: Optional[List[object]] = None
    if args.vertices:
        vertices = [parse_vertex(v) for v in args.vertices.split(",") if v.strip() != ""]
    scores = betweenness_exact(graph, vertices, n_jobs=args.jobs)
    items = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
    if args.top is not None:
        items = items[: args.top]
    payload = {str(v): score for v, score in items}
    print(json.dumps(payload, indent=2), file=out)
    return 0


def _run_datasets(args: argparse.Namespace, out) -> int:
    rows = dataset_table()
    if args.json:
        print(json.dumps(rows, indent=2), file=out)
        return 0
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        print(f"{row['name']:<{width}}  {row['stands_in_for']}", file=out)
    return 0


def main_with_args(argv: Optional[Sequence[str]] = None, out=sys.stdout) -> int:
    """Parse *argv* and run the CLI; returns the exit code (testable entry point)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args, out=out)
