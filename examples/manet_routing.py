#!/usr/bin/env python
"""MANET-style routing: pick relay nodes by (estimated) betweenness ratio.

Daly & Haahr (cited in the paper's introduction) route messages in mobile
ad-hoc networks by preferring relays with high betweenness.  The full scores
are never needed — only how candidate relays compare to each other.  This
example:

1. builds a random-geometric "wireless" topology (the ``adhoc`` dataset),
2. takes the neighbours of a source node as candidate relays,
3. estimates their pairwise betweenness ratios with the joint-space sampler,
4. picks the relay that dominates the others, and
5. shows that messages routed through the chosen relay reach more of the
   network within a 2-hop budget than through the worst candidate —
   the practical pay-off of ranking by betweenness.

Run with:  python examples/manet_routing.py
"""

from __future__ import annotations

from repro import betweenness_exact, load_dataset, relative_betweenness
from repro.graphs import Graph
from repro.graphs.utils import random_vertex
from repro.shortest_paths import bfs_distances_csr

SEED = 23
SAMPLES = 3000
HOP_BUDGET = 2


def reachable_within(graph: Graph, start, hops: int) -> int:
    """Number of vertices reachable from *start* in at most *hops* hops."""
    csr = graph.csr()
    dist, _ = bfs_distances_csr(csr, csr.index_of(start))
    return int(((dist > 0) & (dist <= hops)).sum())


def main() -> None:
    graph = load_dataset("adhoc", size="tiny", seed=SEED)
    print(f"wireless topology: {graph.number_of_vertices()} nodes, "
          f"{graph.number_of_edges()} links")

    # A node with several neighbours acts as the message source.
    source = max(graph.vertices(), key=graph.degree)
    candidates = sorted(graph.neighbors(source))[:5]
    if len(candidates) < 2:
        raise SystemExit("the source node needs at least two neighbours for this demo")
    print(f"source node: {source}; candidate relays: {candidates}")

    estimate = relative_betweenness(graph, candidates, samples=SAMPLES, seed=SEED)
    ranking = estimate.ranking()
    best, worst = ranking[0], ranking[-1]
    print(f"\nestimated relay ranking (best to worst): {ranking}")
    print("pairwise ratios against the chosen relay:")
    for other in candidates:
        if other == best:
            continue
        ratio = estimate.ratios.get((best, other), float("nan"))
        print(f"  BC({best}) / BC({other}) ~= {ratio:.2f}")

    exact = betweenness_exact(graph, candidates)
    exact_best = max(candidates, key=lambda v: exact[v])
    print(f"\nexact best relay (for verification): {exact_best}"
          f"{'  -- matches the estimate' if exact_best == best else ''}")

    covered_best = reachable_within(graph, best, HOP_BUDGET)
    covered_worst = reachable_within(graph, worst, HOP_BUDGET)
    print(f"\nnodes reachable within {HOP_BUDGET} hops")
    print(f"  via estimated-best relay {best}: {covered_best}")
    print(f"  via estimated-worst relay {worst}: {covered_worst}")


if __name__ == "__main__":
    main()
