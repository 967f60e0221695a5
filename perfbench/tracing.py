"""Outside-in span tracing of the library's layers, installed from the benchmark.

The library itself carries no tracing.  For a traced run the benchmark
replaces public entry points of each layer (module functions and class
methods) with thin wrappers that record one span per call — name, layer,
start, end, parent span and the op it ran under — into an in-memory list.
Spans are written out once, when the run ends.  Nothing here changes what
a wrapped call computes; it only adds a few microseconds per call, which
the benchmark reports as ``trace.overhead_frac``.

Self time of a span is its duration minus the durations of its direct
children.  Spans of one op share the op id.  A span opened on a thread with
an empty stack (the daemon's handler thread, the coalescer's compute
thread) takes the most recently opened span still open on any thread as
its parent: with one closed-loop client that is the span that caused it,
so serving time nests under the client's round trip.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: Layers the report attributes time to, in report order.
LAYERS = (
    "graphs",
    "shortest_paths",
    "mcmc",
    "samplers",
    "execution",
    "incremental",
    "centrality",
    "serving",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "note")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self.spans = []
        self.counters = Counter()
        self.op = None
        #: Open spans of every thread, in opening order.
        self._open = []
        self._local = threading.local()
        self._installed = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._open[-1] if self._open else None
        span = Span(name, layer, parent, self.op)
        self.spans.append(span)
        stack.append(span)
        self._open.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self._open.remove(span)

    def wrap(self, fn, name: str, layer: str, note=None, counter=None):
        """Return *fn* wrapped in a span.

        ``note(args, kwargs, result)`` annotates the span; *counter* names a
        counter bumped as the span opens.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                tracer.counters[counter] += 1
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def patch_function(self, module, attr: str, wrapper_factory) -> None:
        """Replace function ``module.attr`` everywhere ``repro`` bound it by name.

        Modules import each other's functions with ``from x import f``, so
        the wrapper has to replace every module-level binding of the same
        object, not just the defining one.
        """
        original = getattr(module, attr)
        wrapper = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._installed.append((mod, key, original))

    def patch_method(self, cls, attr: str, wrapper_factory) -> None:
        """Replace method ``cls.attr`` on the class that defines it."""
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapper_factory(raw.__func__))
        elif isinstance(raw, property):
            wrapped = property(wrapper_factory(raw.fget))
        else:
            wrapped = wrapper_factory(raw)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "layer": span.layer,
                    "start_us": round((span.start - origin) * 1e6, 3),
                    "end_us": round((span.end - origin) * 1e6, 3),
                    "parent": None if span.parent is None else index.get(id(span.parent)),
                    "op": span.op,
                }
                handle.write(json.dumps(record) + "\n")


class _TimedLock:
    """Lock proxy that books the wait to acquire it as ``serving.lock_wait``."""

    def __init__(self, lock, tracer: Tracer) -> None:
        self._lock = lock
        self._tracer = tracer

    def __enter__(self):
        started = perf_counter()
        self._lock.acquire()
        self._tracer.counters["serving.lock_wait_s"] += perf_counter() - started
        self._tracer.counters["serving.lock_acquires"] += 1
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


def _rows(args, kwargs, result):
    return len(result)


def _samples(args, kwargs, result):
    return result.samples


def _receipt(args, kwargs, result):
    return result


def _region(args, kwargs, result):
    csr = args[0]
    n = csr.number_of_vertices()
    count = result.count() if not result.everything else n
    return count / n if n else 1.0


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (see the module docstring)."""
    from repro.centrality import api, session
    from repro.execution import runtime, shared_cache
    from repro.graphs import csr
    from repro.mcmc import estimates, joint, single
    from repro.samplers import distance_based, kadabra, riondato_kornaropoulos, uniform_source
    from repro.serving import queries, server
    from repro.shortest_paths import batch, bfs, bidirectional, dependencies, dijkstra
    from repro.incremental import affected

    def span(name, layer, note=None, counter=None):
        return lambda fn: tracer.wrap(fn, name, layer, note=note, counter=counter)

    def pass_span(name, note=None):
        return span(name, "shortest_paths", note=note, counter="passes_opened")

    # graphs: snapshot builds (full) and weight-only patches.
    tracer.patch_method(csr.CSRGraph, "from_graph", span("csr_build", "graphs"))
    tracer.patch_method(csr.CSRGraph, "patched", span("csr_patch", "graphs"))
    # shortest_paths: the dependency passes every estimator funnels through.
    tracer.patch_function(dependencies, "csr_source_dependencies", pass_span("point_pass"))
    tracer.patch_function(dependencies, "accumulate_dependencies_csr", pass_span("accumulate"))
    tracer.patch_function(batch, "batch_source_dependencies", pass_span("batch_pass", note=_rows))
    tracer.patch_function(dijkstra, "dijkstra_source_dependencies_csr", pass_span("dijkstra_pass"))
    tracer.patch_function(bfs, "bfs_spd_csr", span("bfs_spd", "shortest_paths"))
    tracer.patch_function(dijkstra, "dijkstra_spd_csr", span("dijkstra_spd", "shortest_paths"))
    tracer.patch_function(bfs, "bfs_distances_csr", span("bfs_distances", "shortest_paths"))
    tracer.patch_function(
        bidirectional,
        "bidirectional_shortest_path_info_csr",
        span("bidirectional", "shortest_paths"),
    )
    # mcmc: chains (steps from the result) and oracle lookups (counted, not spanned).
    tracer.patch_method(
        single.SingleSpaceMHSampler, "estimate", span("single_chain", "mcmc", note=_samples)
    )
    tracer.patch_method(
        joint.JointSpaceMHSampler, "estimate_relative", span("joint_chain", "mcmc", note=_samples)
    )
    tracer.patch_method(estimates.DependencyOracle, "prefetch", span("prefetch", "mcmc"))
    for attr in ("dependency", "dependencies_for"):
        tracer.patch_method(estimates.DependencyOracle, attr, lambda fn: _count_lookup(tracer, fn))
    # samplers: the four baselines.
    for cls in (
        uniform_source.UniformSourceSampler,
        distance_based.DistanceBasedSampler,
        riondato_kornaropoulos.RiondatoKornaropoulosSampler,
        kadabra.KadabraSampler,
    ):
        tracer.patch_method(cls, "estimate", span("baseline", "samplers"))
    # execution: warm-state refresh and arena reads.
    tracer.patch_method(
        runtime.ExecutionContext, "refresh", span("refresh", "execution", note=_receipt)
    )
    tracer.patch_method(
        shared_cache.SharedDependencyStore, "get", lambda fn: _count_arena(tracer, fn)
    )
    # incremental: the affected-region proof.
    tracer.patch_function(affected, "affected_sources", span("proof", "incremental", note=_region))
    # centrality: one-shot API, warm session queries and eager re-sync.
    tracer.patch_function(api, "betweenness_single", span("query", "centrality"))
    tracer.patch_function(api, "relative_betweenness", span("query", "centrality"))
    tracer.patch_method(session.BetweennessSession, "estimate", span("query", "centrality"))
    tracer.patch_method(session.BetweennessSession, "relative", span("query", "centrality"))
    tracer.patch_method(
        session.BetweennessSession,
        "refresh_warm_state",
        span("resync", "centrality", note=_receipt),
    )
    # serving: request dispatch, query execution and the session lock.
    tracer.patch_method(server.ServingApp, "dispatch", span("dispatch", "serving"))
    tracer.patch_function(queries, "execute_query", span("execute_query", "serving"))
    tracer.patch_method(
        session.ThreadSafeSession, "lock", lambda fget: lambda self: _TimedLock(fget(self), tracer)
    )


def _count_lookup(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        passes = tracer.counters["passes_opened"]
        result = fn(*args, **kwargs)
        tracer.counters["mcmc.oracle_lookups"] += 1
        if tracer.counters["passes_opened"] == passes:
            tracer.counters["mcmc.oracle_hits"] += 1
        return result

    return counted


def _count_arena(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        row = fn(*args, **kwargs)
        if row is not None:
            tracer.counters["execution.arena_hits"] += 1
        return row

    return counted


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------
PASS_SPANS = ("point_pass", "dijkstra_pass", "accumulate")


def self_times(spans):
    """Return ``{span id: self seconds}`` (duration minus direct children)."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.duration
    return {id(span): span.duration - child_time[id(span)] for span in spans}


def layer_metrics(tracer: Tracer, op_seconds):
    """Reduce the recorded spans of the traced phase to the per-layer metrics.

    *op_seconds* lists each traced op's duration.  Spans of layer
    ``client`` are the benchmark's own HTTP round trips (mutate-serve):
    their self time is the transport share of a request.
    """
    client_spans = [s for s in tracer.spans if s.layer == "client"]
    spans = [s for s in tracer.spans if s.layer != "client"]
    own = self_times(tracer.spans)
    total = sum(op_seconds) or 1.0
    ops = len(op_seconds)

    def outermost(span):
        return span.parent is None or span.parent.layer != span.layer

    def per(seconds, count, scale=1e3):
        return scale * seconds / count if count else 0.0

    def mean_ms(selected):
        return per(sum(s.duration for s in selected), len(selected))

    def mean_self_ms(selected):
        return per(sum(own[id(s)] for s in selected), len(selected))

    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    sp_outer = [s for s in spans if s.layer == "shortest_paths" and outermost(s)]
    batch_spans = [s for s in by_name["batch_pass"] if outermost(s)]
    batch_rows = sum(s.note or 0 for s in batch_spans)
    passes = sum(1 for s in sp_outer if s.name in PASS_SPANS) + batch_rows
    chains = by_name["single_chain"] + by_name["joint_chain"]
    steps = sum(s.note or 0 for s in chains)
    lookups = tracer.counters["mcmc.oracle_lookups"]

    # Invalidation: refresh receipts (execution) and the final, session-
    # extended receipts of the eager re-syncs (centrality).
    refreshes = [s for s in by_name["refresh"] if s.note is not None and s.note.mode != "noop"]
    resyncs = [s.note for s in by_name["resync"] if s.note is not None and s.note.mode != "noop"]
    retained = sum(r.oracle_vectors_retained for r in resyncs)
    evicted = sum(r.oracle_vectors_evicted for r in resyncs)
    proofs = by_name["proof"]

    queries = [s for s in spans if s.layer == "centrality" and s.name == "query" and outermost(s)]
    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span.layer] += own[id(span)]
    top_level = sum(s.duration for s in tracer.spans if s.parent is None)

    metrics = {
        "shortest_paths.passes": (passes, "count"),
        "shortest_paths.point_pass_ms": (mean_ms(by_name["point_pass"]), "ms"),
        "shortest_paths.busy_share": (sum(s.duration for s in sp_outer) / total, "frac"),
        "shortest_paths.batch_row_ms": (
            per(sum(s.duration for s in batch_spans), batch_rows),
            "ms",
        ),
        "shortest_paths.dijkstra_pass_ms": (mean_ms(by_name["dijkstra_pass"]), "ms"),
        "mcmc.steps": (steps, "count"),
        "mcmc.step_us": (per(sum(own[id(s)] for s in chains), steps, 1e6), "us"),
        "mcmc.oracle_lookups": (lookups, "count"),
        "mcmc.oracle_hit_ratio": (per(tracer.counters["mcmc.oracle_hits"], lookups, 1), "ratio"),
        "centrality.query_self_ms": (mean_self_ms(queries), "ms"),
        "incremental.affected_frac": (per(sum(s.note for s in proofs), len(proofs), 1), "frac"),
        "incremental.retained_ratio": (per(retained, retained + evicted, 1), "ratio"),
        "incremental.fallbacks": (sum(1 for s in refreshes if s.note.mode == "full"), "count"),
        "incremental.proof_ms": (mean_ms(proofs), "ms"),
        "graphs.csr_builds": (len(by_name["csr_build"]) + len(by_name["csr_patch"]), "count"),
        "graphs.csr_build_ms": (mean_ms(by_name["csr_build"] + by_name["csr_patch"]), "ms"),
        "execution.refresh_ms": (mean_ms(refreshes), "ms"),
        "execution.arena_hits": (tracer.counters["execution.arena_hits"], "count"),
        "execution.arena_rows_compacted": (
            sum(s.note.arena_rows_compacted for s in refreshes),
            "count",
        ),
        "samplers.baseline_ms": (mean_ms(by_name["baseline"]), "ms"),
        "serving.dispatch_self_ms": (mean_self_ms(by_name["dispatch"]), "ms"),
        "serving.transport_ms": (mean_self_ms(client_spans), "ms"),
        "serving.transport_share": (sum(own[id(s)] for s in client_spans) / total, "frac"),
        "serving.lock_wait_ms": (
            per(tracer.counters["serving.lock_wait_s"], tracer.counters["serving.lock_acquires"]),
            "ms",
        ),
        "trace.unattributed_ms": (per(max(total - top_level, 0.0), ops), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_self[layer] / total, "frac")
    return metrics
