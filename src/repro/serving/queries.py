"""One query-dictionary → result-payload mapping for every serving surface.

Both streaming front ends — ``repro-bc batch`` (JSONL over stdin) and
``repro-bc serve`` (HTTP/JSON) — accept the same query objects
(``{"op": "estimate", "vertex": 3, "samples": 200, "seed": 7}`` and
friends) and must answer with the same payload shape, execution stamp
included.  This module is the single implementation both delegate to, so
the two surfaces cannot drift (``tests/test_serving.py`` pins them against
each other and against the one-shot CLI commands).

The payload builders stamp provenance through
:func:`repro.execution.stamp.execution_stamp` — the same helper the
benchmark harness uses for its table headers.
"""

from __future__ import annotations

from typing import Optional

from repro.centrality.api import MCMC_SINGLE_METHODS
from repro.errors import ReproError
from repro.execution.stamp import execution_stamp

__all__ = [
    "parse_vertex",
    "estimate_payload",
    "relative_payload",
    "execute_query",
    "QUERY_OPS",
]

#: The query operations every serving surface accepts.
QUERY_OPS = ("estimate", "relative", "ranking", "exact")


def parse_vertex(label: str) -> object:
    """Interpret a vertex label as an int when possible, else as a string."""
    try:
        return int(label)
    except ValueError:
        return label


def estimate_payload(vertex, result) -> dict:
    """JSON payload of one single-vertex estimate (all serving surfaces)."""
    return {
        "vertex": str(vertex),
        "method": result.method,
        "estimate": result.estimate,
        "samples": result.samples,
        "elapsed_seconds": result.elapsed_seconds,
        "acceptance_rate": result.diagnostics.get("acceptance_rate"),
        **execution_stamp(result.diagnostics),
        # Multi-chain extras: null unless the chains/rhat driver ran.
        "converged": result.diagnostics.get("converged"),
    }


def relative_payload(estimate) -> dict:
    """JSON payload of one relative-betweenness estimate (all serving surfaces)."""
    return {
        **execution_stamp(estimate.diagnostics),
        "reference_set": [str(v) for v in estimate.reference_set],
        "sample_counts": {str(v): c for v, c in estimate.sample_counts.items()},
        "acceptance_rate": estimate.acceptance_rate,
        "ranking": [str(v) for v in estimate.ranking()],
        "relative": {
            str(ri): {str(rj): value for rj, value in row.items()}
            for ri, row in estimate.relative.items()
        },
        "ratios": {f"{ri}/{rj}": value for (ri, rj), value in estimate.ratios.items()},
    }


def execute_query(
    session,
    query: dict,
    default_chains: Optional[int] = None,
) -> dict:
    """Execute one parsed query dictionary against a warm session.

    *session* is a :class:`~repro.centrality.session.BetweennessSession`
    or its :class:`~repro.centrality.session.ThreadSafeSession` wrapper —
    both expose the same query surface.  *default_chains* applies to MCMC
    queries that do not set ``"chains"`` themselves.
    """
    op = query.get("op", "estimate")
    seed = query.get("seed")
    if op == "estimate":
        method = query.get("method", "mh")
        chains = query.get(
            "chains", default_chains if method in MCMC_SINGLE_METHODS else None
        )
        vertex = parse_vertex(str(query["vertex"]))
        result = session.estimate(
            vertex,
            method=method,
            samples=int(query.get("samples", 200)),
            seed=seed,
            n_chains=chains,
            rhat_target=query.get("rhat"),
        )
        return estimate_payload(vertex, result)
    chains = query.get("chains", default_chains)
    if op == "relative":
        vertices = [parse_vertex(str(v)) for v in query["vertices"]]
        estimate = session.relative(
            vertices, samples=int(query.get("samples", 1000)), seed=seed, n_chains=chains
        )
        return relative_payload(estimate)
    if op == "ranking":
        vertices = query.get("vertices")
        members = (
            [parse_vertex(str(v)) for v in vertices] if vertices is not None else None
        )
        ranked = session.ranking(
            members,
            k=query.get("k"),
            samples=int(query.get("samples", 1000)),
            seed=seed,
            n_chains=chains,
        )
        return {"ranking": [str(v) for v in ranked]}
    if op == "exact":
        vertices = query.get("vertices")
        members = (
            [parse_vertex(str(v)) for v in vertices] if vertices is not None else None
        )
        scores = session.exact(members)
        items = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
        if query.get("top") is not None:
            items = items[: int(query["top"])]
        return {"scores": {str(v): score for v, score in items}}
    raise ReproError(
        f"unknown query op {op!r}; expected one of {'/'.join(QUERY_OPS)}"
    )
