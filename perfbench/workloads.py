"""The four closed-loop workloads: one client, one op at a time.

Every workload runs on a fixed graph (built from ``GRAPH_SEED``) and draws
its measured requests — targets and chain seeds — from the run's seed.
Set-up (including the warm-up ops) and the mutation and congestion traces
use the fixed ``GRAPH_SEED`` stream, so runs at different seeds differ in
what they ask, not in how much set-up or invalidation work they do.  Each
workload calls only public entry points of ``repro.centrality``,
``repro.serving`` and ``repro.graphs`` and returns one answer record per
op.  Op ``i`` is a pure function of ``(seed, i)`` and of the state ops
``0..i-1`` left behind, so a run at a given seed replays the same ops in
the same order whatever the machine's speed; only how many ops fit into
the measured window varies.

Why each workload exists (each puts most of its time in a different layer):

``cold-query``
    One-shot API calls on a fixed unweighted BA graph.  Every call builds a
    fresh oracle, so point Brandes passes (``shortest_paths``) dominate.
``warm-session``
    One pre-warmed ``BetweennessSession``; the timed phase runs no Brandes
    pass at all, so time goes to MH steps, oracle lookups and session
    plumbing.  The control where a kernel change must show nothing.
``mutate-serve``
    The HTTP daemon over one keep-alive ``http.client`` connection that
    acknowledges at once (see ``QUICKACK``), a mutation before every three
    estimates on Zipf-skewed targets.
    Exercises the invalidation proof, CSR rebuilds, arena eviction,
    re-paid batched rows, JSON and transport.
``weighted-traffic``
    A weighted grid with congestion updates: the only Dijkstra workload,
    and the weight-only ``CSRGraph.patched`` / tight-edge proof path.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import socket
import threading

#: Graph sizes and op parameters; ``tiny`` is the smoke-test scale.
SIZES = {
    "cold-query": {
        "full": dict(
            n=800, mh_samples=200, rel_samples=300, base_samples=100, warmup=4, trace_ops=40
        ),
        "tiny": dict(
            n=120, mh_samples=60, rel_samples=400, base_samples=40, warmup=2, trace_ops=30
        ),
    },
    "warm-session": {
        "full": dict(
            n=2000, mh_samples=2000, rel_samples=4000, prewarm=20000, warmup=40, trace_ops=300
        ),
        "tiny": dict(n=150, mh_samples=300, rel_samples=600, prewarm=3000, warmup=4, trace_ops=30),
    },
    "mutate-serve": {
        "full": dict(n=2000, samples=200, pool=200, warmup=12, trace_ops=80, checkpoint_every=10),
        "tiny": dict(n=150, samples=80, pool=40, warmup=8, trace_ops=16, checkpoint_every=2),
    },
    "weighted-traffic": {
        "full": dict(side=30, samples=100, warmup=4, trace_ops=60, checkpoint_every=12),
        "tiny": dict(side=8, samples=60, warmup=4, trace_ops=16, checkpoint_every=2),
    },
}

#: Seed of every workload's fixed graph.
GRAPH_SEED = 2019
#: The daemon writes a response's headers and body in two sends with Nagle
#: on, so a client that delays its ACK of the headers waits out the
#: kernel's delayed-ACK timer (~40 ms) before the body arrives.  The client
#: acknowledges at once (Linux ``TCP_QUICKACK``, re-armed per request), so
#: a round trip measures the daemon's work, not that timer, whose firing
#: drifts with host load and made the served workload the least steady.
#: The figures therefore exclude a stall every plain HTTP client of the
#: daemon pays; a change that makes the daemon send each response at once
#: should drop this option in the same change, or its gain will not show.
QUICKACK = getattr(socket, "TCP_QUICKACK", None)
#: Batch size of the warm session and the daemon (the configuration README
#: recommends for serving: ``ExecutionPlan(batch_size=16)``, ``n_jobs=1``).
SERVE_BATCH_SIZE = 16


def op_seed(seed: int, i: int) -> int:
    """The rng seed of op *i* in a run seeded with *seed*."""
    return (seed * 1_000_003 + i * 7919) % (2**31 - 1)


def nonclique_vertices(graph, vertices):
    """Vertices with two non-adjacent neighbours: betweenness > 0 when unweighted."""
    chosen = []
    for v in vertices:
        nbrs = list(graph.neighbors(v))
        if any(
            not graph.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]
        ):
            chosen.append(v)
    return chosen


def cold_estimate(session, record) -> float:
    """Re-run an estimate record's query on *session*."""
    return session.estimate(
        record["target"], samples=record["samples"], seed=record["seed"]
    ).estimate


def estimate_record(i, target, samples, seed, value, method="mh"):
    return {
        "op": i,
        "kind": "estimate",
        "method": method,
        "target": target,
        "samples": samples,
        "seed": seed,
        "value": float(value),
    }


def relative_record(i, members, samples, seed, estimate):
    return {
        "op": i,
        "kind": "relative",
        "targets": list(members),
        "samples": samples,
        "seed": seed,
        "relative": [
            float(estimate.relative[a][b]) for a in members for b in members if a != b
        ],
        "ratios": [
            float(estimate.ratios[(a, b)]) for a in members for b in members if a != b
        ],
    }


class Workload:
    """Base class: ``setup`` / ``run_op`` / ``capture`` / ``checkpoints`` / ``close``."""

    name = ""
    #: Ops per repeating unit of the mix; measured windows hold whole cycles.
    cycle = 4
    #: Whether re-running ops ``i..j`` repeats their work exactly (no op
    #: changes state a later op depends on beyond warm caches).
    replayable = False
    #: The tracer of a traced phase, for spans the workload opens itself.
    span_hook = None

    def __init__(self, size: str = "full") -> None:
        self.params = SIZES[self.name][size]
        self.warmup_ops = self.params["warmup"]
        self.trace_ops = self.params["trace_ops"]

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op_seed(self, i: int) -> int:
        """The rng seed of op *i*.

        Warm-up ops are part of set-up, so they draw from the fixed
        ``GRAPH_SEED`` stream: set-up does the same work at every seed.
        """
        return op_seed(GRAPH_SEED if i < self.warmup_ops else self.seed, i)

    def run_op(self, i: int) -> dict:
        raise NotImplementedError

    def capture(self, i: int, record: dict) -> None:
        """Untimed hook after each valid op: keep what the checks need."""
        self.records.append(record)

    def checkpoints(self):
        """``(graph, [records])`` pairs whose answers the checker verifies."""
        return [(self.graph, self.records)]

    def cold_answer(self, graph, record) -> float:
        """Recompute *record* on a cold session over *graph* (bit-for-bit check)."""
        return None

    def stamp(self) -> dict:
        """Diagnostics (or receipt) of the last answer, for the execution stamp."""
        return getattr(self, "last_diagnostics", {})

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class ColdQuery(Workload):
    """One-shot API calls: ≈60 % MH, ≈25 % relative, ≈15 % baselines."""

    name = "cold-query"
    replayable = True
    BASELINES = ("uniform-source", "distance", "rk", "kadabra")
    #: One block of 20 ops: 12 MH (6 on hubs, 6 on low-betweenness targets),
    #: 5 relative (on 4 or 5 hubs) and 3 baselines, shuffled per block.
    BLOCK = ("mh-hub",) * 6 + ("mh-low",) * 6 + ("rel-4",) * 2 + ("rel-5",) * 3 + ("baseline",) * 3
    cycle = len(BLOCK)

    def setup(self, seed: int) -> None:
        from repro.graphs import barabasi_albert_graph

        p = self.params
        self.seed = seed
        self.graph = barabasi_albert_graph(p["n"], 3, seed=GRAPH_SEED)
        self.graph.csr()
        by_degree = sorted(self.graph.vertices(), key=lambda v: (-self.graph.degree(v), v))
        self.hubs = by_degree[:5]
        rng = random.Random(seed)
        low = nonclique_vertices(self.graph, [v for v in by_degree if self.graph.degree(v) <= 4])
        self.low = rng.sample(low, min(50, len(low)))
        self.records = []
        self._schedule = {}
        for i in range(self.warmup_ops):
            self.run_op(i)

    def _kind(self, i: int):
        """``(kind, baseline index)`` of op *i*.

        Blocks start where the warm-up ends, so every measured window of
        whole cycles holds exactly the block mix; the baselines rotate
        through the block's baseline slots in a fixed order.
        """
        block, slot = divmod(i - self.warmup_ops, len(self.BLOCK))
        if block not in self._schedule:
            # Block -1 is the warm-up: fixed stream, like its op seeds.
            stream = GRAPH_SEED if block < 0 else self.seed
            order = list(self.BLOCK)
            random.Random(op_seed(stream, -block - 1)).shuffle(order)
            self._schedule[block] = order
        order = self._schedule[block]
        rank = order[:slot].count("baseline")
        return order[slot], (block * self.BLOCK.count("baseline") + rank) % len(self.BASELINES)

    def run_op(self, i: int) -> dict:
        from repro.centrality import betweenness_single, relative_betweenness

        p = self.params
        seed = self.op_seed(i)
        rng = random.Random(seed)
        kind, baseline = self._kind(i)
        if kind.startswith("rel"):
            members = self.hubs[: int(kind[-1])]
            estimate = relative_betweenness(
                self.graph, members, samples=p["rel_samples"], seed=seed
            )
            return relative_record(i, members, p["rel_samples"], seed, estimate)
        if kind == "baseline":
            method = self.BASELINES[baseline]
            target = self.hubs[rng.randrange(len(self.hubs))]
            samples = p["base_samples"]
        else:
            method = "mh"
            pool = self.hubs if kind == "mh-hub" else self.low
            target = pool[rng.randrange(len(pool))]
            samples = p["mh_samples"]
        result = betweenness_single(self.graph, target, method=method, samples=samples, seed=seed)
        record = estimate_record(i, target, samples, seed, result.estimate, method)
        self.last_diagnostics = result.diagnostics
        return record


# ----------------------------------------------------------------------
class WarmSession(Workload):
    """One pre-warmed session: 75 % MH estimates, 25 % relative, Zipf targets."""

    name = "warm-session"
    replayable = True

    def setup(self, seed: int) -> None:
        from repro.centrality import BetweennessSession
        from repro.execution import ExecutionPlan
        from repro.graphs import barabasi_albert_graph

        p = self.params
        self.seed = seed
        self.graph = barabasi_albert_graph(p["n"], 3, seed=GRAPH_SEED)
        plan = ExecutionPlan(batch_size=SERVE_BATCH_SIZE, n_jobs=1)
        self.session = BetweennessSession(self.graph, plan)
        by_degree = sorted(self.graph.vertices(), key=lambda v: (-self.graph.degree(v), v))
        self.hubs = by_degree[:5]
        rng = random.Random(seed)
        self.pool = nonclique_vertices(self.graph, by_degree)[:100]
        rng.shuffle(self.pool)
        # Zipf(1) over the pool: a few targets take most of the traffic.
        self.weights = [1.0 / (rank + 1) for rank in range(len(self.pool))]
        # Pre-warm until one full-length round pays no Brandes pass, so every
        # dependency vector sits in the session's oracles before timing.
        for round_ in range(10):
            target = self.hubs[round_ % len(self.hubs)]
            result = self.session.estimate(
                target, samples=p["prewarm"], seed=op_seed(GRAPH_SEED, -round_ - 1)
            )
            self.session.relative(
                self.hubs, samples=p["prewarm"], seed=op_seed(GRAPH_SEED, -round_ - 101)
            )
            if result.diagnostics["evaluations"] == 0:
                break
        self.records = []
        for i in range(self.warmup_ops):
            self.run_op(i)

    def run_op(self, i: int) -> dict:
        p = self.params
        seed = self.op_seed(i)
        rng = random.Random(seed)
        if i % 4 == 3:
            members = rng.sample(self.hubs, len(self.hubs))
            estimate = self.session.relative(members, samples=p["rel_samples"], seed=seed)
            return relative_record(i, members, p["rel_samples"], seed, estimate)
        target = rng.choices(self.pool, weights=self.weights)[0]
        result = self.session.estimate(target, samples=p["mh_samples"], seed=seed)
        self.last_diagnostics = result.diagnostics
        return estimate_record(i, target, p["mh_samples"], seed, result.estimate)

    def close(self) -> None:
        if getattr(self, "session", None) is not None:
            self.session.close()


# ----------------------------------------------------------------------
class Mutating(Workload):
    """A workload whose op ``4k`` changes the graph and ops ``4k+1..4k+3`` query it.

    Every ``checkpoint_every``-th graph state is a checkpoint: its three
    answers are checked against that state, rebuilt by replaying the
    mutation log from the base graph (``replay``).
    """

    def capture(self, i: int, record: dict) -> None:
        super().capture(i, record)
        state = i // 4
        if record["kind"] == "estimate" and state % self.params["checkpoint_every"] == 0:
            self.snapshots.setdefault(len(self.log), []).append(record)

    def checkpoints(self):
        for mutations, records in self.snapshots.items():
            yield self.replay(mutations), records

    def replay(self, mutations: int):
        """The graph after the first *mutations* entries of the log."""
        raise NotImplementedError


class MutateServe(Mutating):
    """HTTP daemon, one keep-alive client: mutate, then three estimates, repeat.

    Targets come from a fixed pool, the ``pool`` highest-degree vertices
    with betweenness > 0, drawn Zipf(1) by degree rank: the five hubs take
    about 40 % of the queries, the tail is low-betweenness vertices.
    Mutations are triadic closures ``u - v - w`` → edge ``(u, w)``; each added
    edge is removed again four mutations later, so the edge count stays
    stationary and the base graph (hence connectivity) is never touched.
    The mutations replay one fixed trace (drawn from ``GRAPH_SEED``, see
    WeightedTraffic); the seed draws the targets and chain seeds.
    The client mirrors every mutation on its own graph to pick closures,
    and logs them: a checkpoint graph is rebuilt by replaying the log the
    way the daemon applied it, because ``Graph.copy`` does not keep
    adjacency order and the kernels' float sums follow that order.
    """

    name = "mutate-serve"
    GRAPH = "g"

    def setup(self, seed: int) -> None:
        from repro.execution import ExecutionPlan
        from repro.graphs import Graph, barabasi_albert_graph
        from repro.serving import create_server

        p = self.params
        self.seed = seed
        base = barabasi_albert_graph(p["n"], 3, seed=GRAPH_SEED)
        edges = [[u, v] for u, v in base.edges()]
        self.base_edges = [tuple(e) for e in edges]
        self.mirror = Graph.from_edges(self.base_edges)
        self.log = []
        self.server = create_server(plan=ExecutionPlan(batch_size=SERVE_BATCH_SIZE, n_jobs=1))
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-daemon", daemon=True
        )
        self.thread.start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.server.server_address[1])
        status, _ = self.request("PUT", f"/graphs/{self.GRAPH}", {"edges": edges})
        if status != 200:
            raise RuntimeError(f"graph load failed with HTTP {status}")
        by_degree = sorted(self.mirror.vertices(), key=lambda v: (-self.mirror.degree(v), v))
        self.pool = nonclique_vertices(self.mirror, by_degree)[: p["pool"]]
        self.weights = [1.0 / (rank + 1) for rank in range(len(self.pool))]
        self.trace = random.Random(GRAPH_SEED)
        self.added = []
        self.records = []
        self.snapshots = {}
        for i in range(self.warmup_ops):
            self.run_op(i)

    def request(self, method: str, path: str, body: dict):
        payload = json.dumps(body).encode("utf-8")
        hook = self.span_hook
        span = hook.open("request", "client") if hook is not None else None
        try:
            self.conn.request(method, path, payload, {"Content-Type": "application/json"})
            if QUICKACK is not None:
                self.conn.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)
            response = self.conn.getresponse()
            data = response.read()
        finally:
            if span is not None:
                hook.close(span)
        return response.status, json.loads(data.decode("utf-8"))

    def _closure(self, rng: random.Random):
        vertices = self.mirror.vertices()
        while True:
            u = vertices[rng.randrange(len(vertices))]
            nbrs = list(self.mirror.neighbors(u))
            v = nbrs[rng.randrange(len(nbrs))]
            second = [
                w for w in self.mirror.neighbors(v) if w != u and not self.mirror.has_edge(u, w)
            ]
            if second:
                return u, second[rng.randrange(len(second))]

    def run_op(self, i: int) -> dict:
        p = self.params
        seed = self.op_seed(i)
        rng = random.Random(seed)
        if i % 4 == 0:
            add = list(self._closure(self.trace))
            remove = [self.added.pop(0)] if len(self.added) >= 4 else []
            status, body = self.request(
                "POST", f"/graphs/{self.GRAPH}/mutate", {"add_edges": [add], "remove_edges": remove}
            )
            if status != 200:
                raise RuntimeError(f"mutate failed with HTTP {status}: {body}")
            self._apply(self.mirror, add, remove)
            self.log.append((add, remove))
            self.added.append(add)
            receipt = body["mutated"]["invalidation"]
            return {
                "op": i, "kind": "mutate", "add": add, "remove": remove, "mode": receipt["mode"]
            }
        target = rng.choices(self.pool, weights=self.weights)[0]
        status, body = self.request(
            "POST",
            f"/graphs/{self.GRAPH}/estimate",
            {"vertex": target, "samples": p["samples"], "seed": seed},
        )
        if status != 200:
            raise RuntimeError(f"estimate failed with HTTP {status}: {body}")
        self.last_diagnostics = body["receipt"]
        return estimate_record(i, target, p["samples"], seed, body["estimate"])

    @staticmethod
    def _apply(graph, add, remove) -> None:
        """Apply one mutation the way the daemon's mutate endpoint does."""
        with graph.batch_mutations():
            graph.add_edge(*add)
            for edge in remove:
                graph.remove_edge(*edge)

    def replay(self, mutations: int):
        from repro.graphs import Graph

        graph = Graph.from_edges(self.base_edges)
        for add, remove in self.log[:mutations]:
            self._apply(graph, add, remove)
        return graph

    def cold_answer(self, graph, record) -> float:
        from repro.centrality import BetweennessSession
        from repro.execution import ExecutionPlan

        plan = ExecutionPlan(batch_size=SERVE_BATCH_SIZE, n_jobs=1)
        with BetweennessSession(graph, plan) as cold:
            return cold_estimate(cold, record)

    def close(self) -> None:
        if getattr(self, "conn", None) is not None:
            self.conn.close()
            self.conn = None
        if getattr(self, "server", None) is not None:
            self.server.close()
            self.thread.join(timeout=30)
            self.server = None


# ----------------------------------------------------------------------
class WeightedTraffic(Mutating):
    """Weighted grid session: one congestion update per three MH estimates.

    The congestion updates replay one fixed trace (drawn from
    ``GRAPH_SEED``): a single weight change invalidates anywhere from 5 %
    to 90 % of the sources, so with some 40 updates per run a seed-drawn
    trace would make runs differ more in work than the bounds allow.  The
    seed draws the targets, from a fixed pool of central junctions, and the
    chain seeds.
    """

    name = "weighted-traffic"

    def setup(self, seed: int) -> None:
        from repro.centrality import BetweennessSession
        from repro.graphs import Graph, grid_graph

        p = self.params
        self.seed = seed
        side = p["side"]
        weights = random.Random(GRAPH_SEED)
        self.base = [(u, v, weights.uniform(1.0, 3.0)) for u, v in grid_graph(side, side).edges()]
        self.edges = [(u, v) for u, v, _ in self.base]
        self.graph = Graph.from_edges(self.base, weighted=True)
        self.trace = random.Random(GRAPH_SEED)
        self.log = []
        self.session = BetweennessSession(self.graph)
        # The 100 interior junctions nearest the centre: the through-routes'
        # junctions, where most shortest paths, and the queries, concentrate.
        middle = (side - 1) / 2.0
        interior = [r * side + c for r in range(1, side - 1) for c in range(1, side - 1)]
        interior.sort(key=lambda v: (abs(v // side - middle) + abs(v % side - middle), v))
        self.pool = interior[:100]
        self.records = []
        self.snapshots = {}
        for i in range(self.warmup_ops):
            self.run_op(i)

    def run_op(self, i: int) -> dict:
        p = self.params
        seed = self.op_seed(i)
        rng = random.Random(seed)
        if i % 4 == 0:
            u, v = self.edges[self.trace.randrange(len(self.edges))]
            factor = 0.8 if self.trace.random() < 0.5 else 1.25
            weight = self.graph.edge_weight(u, v) * factor
            self.graph.add_edge(u, v, weight=weight)
            self.log.append((u, v, weight))
            receipt = self.session.refresh_warm_state()
            return {
                "op": i, "kind": "update", "edge": [u, v], "factor": factor, "mode": receipt.mode
            }
        target = self.pool[rng.randrange(len(self.pool))]
        result = self.session.estimate(target, samples=p["samples"], seed=seed)
        self.last_diagnostics = result.diagnostics
        return estimate_record(i, target, p["samples"], seed, result.estimate)

    def replay(self, mutations: int):
        # Rebuilt by replay, not Graph.copy: see MutateServe.
        from repro.graphs import Graph

        graph = Graph.from_edges(self.base, weighted=True)
        for u, v, weight in self.log[:mutations]:
            graph.add_edge(u, v, weight=weight)
        return graph

    def cold_answer(self, graph, record) -> float:
        from repro.centrality import BetweennessSession

        with BetweennessSession(graph) as cold:
            return cold_estimate(cold, record)

    def close(self) -> None:
        if getattr(self, "session", None) is not None:
            self.session.close()


WORKLOADS = {cls.name: cls for cls in (ColdQuery, WarmSession, MutateServe, WeightedTraffic)}


def valid_record(record: dict) -> bool:
    """Per-op answer check: finite estimates inside their range."""
    if record["kind"] == "estimate":
        return math.isfinite(record["value"]) and 0.0 <= record["value"] <= 1.0
    if record["kind"] == "relative":
        return all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in record["relative"]) and all(
            math.isnan(x) or (math.isfinite(x) and x >= 0.0) for x in record["ratios"]
        )
    return True
