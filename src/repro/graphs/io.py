"""Graph serialisation: edge lists, adjacency lists and JSON.

These formats cover the common ways betweenness benchmarks distribute
graphs (SNAP-style edge lists, adjacency dumps) so a user can drop in a real
trace when one is available, even though the offline reproduction ships only
synthetic datasets.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.errors import GraphError, NegativeWeightError
from repro.graphs.core import Graph
from repro.graphs.csr import CSRGraph, np

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "parse_edge_list",
    "format_edge_list",
    "read_edge_list_csr",
    "parse_edge_list_csr",
    "to_dict",
    "from_dict",
    "write_json",
    "read_json",
    "to_networkx",
    "from_networkx",
]

PathLike = Union[str, Path]

#: Lines buffered per write in :func:`write_edge_list` and edges buffered
#: per numpy flush in :func:`parse_edge_list_csr` — the unit of "O(chunk)
#: memory" for streaming import/export.
EDGE_LIST_CHUNK = 1 << 16


# ----------------------------------------------------------------------
# Edge lists
# ----------------------------------------------------------------------
def _edge_list_lines(graph: Graph, with_weights: bool) -> Iterator[str]:
    """Yield the edge-list lines of *graph* one at a time (no trailing newline)."""
    if with_weights:
        for u, v, w in graph.edges(data=True):
            yield f"{u} {v} {w:g}"
    else:
        for u, v in graph.edges():
            yield f"{u} {v}"


def format_edge_list(graph: Graph, *, with_weights: Optional[bool] = None) -> str:
    """Return the graph as edge-list text, one ``u v [w]`` line per edge."""
    if with_weights is None:
        with_weights = graph.weighted
    lines = list(_edge_list_lines(graph, with_weights))
    return "\n".join(lines) + ("\n" if lines else "")


def write_edge_list(graph: Graph, path: PathLike, *, with_weights: Optional[bool] = None) -> None:
    """Write *graph* to *path* in edge-list format.

    Lines are streamed to the file handle in batches of
    :data:`EDGE_LIST_CHUNK`, so exporting a multi-million-edge graph costs
    O(chunk) memory instead of materialising the whole file as one string.
    The bytes written are identical to :func:`format_edge_list` output.
    """
    if with_weights is None:
        with_weights = graph.weighted
    with open(path, "w", encoding="utf-8") as handle:
        batch: List[str] = []
        for line in _edge_list_lines(graph, with_weights):
            batch.append(line)
            if len(batch) >= EDGE_LIST_CHUNK:
                handle.write("\n".join(batch) + "\n")
                batch.clear()
        if batch:
            handle.write("\n".join(batch) + "\n")


def parse_edge_list(
    lines: Iterable[str],
    *,
    directed: bool = False,
    weighted: bool = False,
    comment: str = "#",
    vertex_type: type = int,
) -> Graph:
    """Parse an iterable of edge-list *lines* into a :class:`Graph`.

    Lines starting with *comment* and blank lines are skipped.  Each data
    line must contain two vertex tokens and, for weighted graphs, an optional
    third weight token (missing weights default to 1).
    """
    graph = Graph(directed=directed, weighted=weighted)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphError(f"line {lineno}: expected at least two tokens, got {line!r}")
        try:
            u = vertex_type(parts[0])
            v = vertex_type(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: cannot parse vertices from {line!r}") from exc
        if u == v:
            # Real-world edge lists often contain self-loops; the paper's
            # model is loop-free, so they are silently dropped on ingest —
            # before the weight token is even looked at, so a malformed
            # weight on a skipped line cannot raise.
            continue
        weight = 1.0
        if weighted and len(parts) >= 3:
            try:
                weight = float(parts[2])
            except ValueError as exc:
                raise GraphError(f"line {lineno}: cannot parse weight from {line!r}") from exc
        graph.add_edge(u, v, weight)
    return graph


def read_edge_list(
    path: PathLike,
    *,
    directed: bool = False,
    weighted: bool = False,
    comment: str = "#",
    vertex_type: type = int,
) -> Graph:
    """Read an edge-list file from *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(
            handle, directed=directed, weighted=weighted, comment=comment, vertex_type=vertex_type
        )


def parse_edge_list_csr(
    lines: Iterable[str],
    *,
    directed: bool = False,
    weighted: bool = False,
    comment: str = "#",
    vertex_type: type = int,
    chunk_edges: int = EDGE_LIST_CHUNK,
) -> CSRGraph:
    """Parse edge-list *lines* straight into a :class:`CSRGraph`.

    The streaming twin of ``parse_edge_list(...).csr()`` for SNAP-scale
    files: instead of materialising a dict-of-dicts :class:`Graph` (two
    Python dict entries per edge) and converting, tokens are parsed into
    flat index/weight buffers flushed to numpy arrays every *chunk_edges*
    edges, and the CSR arrays are assembled in vectorised passes —
    duplicate collapse, adjacency ordering and ``indptr`` construction all
    happen in numpy.  Peak overhead beyond the output arrays is O(chunk) +
    one label-interning dict of size ``n``.

    Semantics match :func:`parse_edge_list` exactly — comment/blank
    skipping, self-loops dropped before the weight token is inspected,
    per-line error reporting, last-duplicate-wins weights — and the
    resulting arrays are byte-identical to what the dict route's
    ``graph.csr()`` would build, including vertex first-appearance order.
    """
    index: Dict[object, int] = {}
    src_parts: List = []
    dst_parts: List = []
    w_parts: List = []
    srcs: List[int] = []
    dsts: List[int] = []
    ws: List[float] = []

    def flush() -> None:
        src_parts.append(np.asarray(srcs, dtype=np.int64))
        dst_parts.append(np.asarray(dsts, dtype=np.int64))
        w_parts.append(np.asarray(ws, dtype=np.float64))
        srcs.clear()
        dsts.clear()
        ws.clear()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphError(f"line {lineno}: expected at least two tokens, got {line!r}")
        try:
            u = vertex_type(parts[0])
            v = vertex_type(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: cannot parse vertices from {line!r}") from exc
        if u == v:
            continue
        weight = 1.0
        if weighted and len(parts) >= 3:
            try:
                weight = float(parts[2])
            except ValueError as exc:
                raise GraphError(f"line {lineno}: cannot parse weight from {line!r}") from exc
        if weighted and weight <= 0.0:
            raise NegativeWeightError(u, v, weight)
        iu = index.get(u)
        if iu is None:
            iu = index[u] = len(index)
        iv = index.get(v)
        if iv is None:
            iv = index[v] = len(index)
        srcs.append(iu)
        dsts.append(iv)
        ws.append(weight)
        if len(srcs) >= chunk_edges:
            flush()
    flush()

    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    w = np.concatenate(w_parts)
    n = len(index)
    vertices = list(index)

    if not directed:
        # Each undirected input edge is two arcs, interleaved in the order
        # Graph.add_edge inserts them (u->v then v->u) so first-appearance
        # positions match the dict route.
        arc_src = np.empty(2 * src.shape[0], dtype=np.int64)
        arc_dst = np.empty_like(arc_src)
        arc_w = np.empty(2 * src.shape[0], dtype=np.float64)
        arc_src[0::2] = src
        arc_src[1::2] = dst
        arc_dst[0::2] = dst
        arc_dst[1::2] = src
        arc_w[0::2] = w
        arc_w[1::2] = w
    else:
        arc_src, arc_dst, arc_w = src, dst, w

    indptr = np.zeros(n + 1, dtype=np.int64)
    if arc_src.shape[0] == 0:
        return CSRGraph(
            indptr,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            vertices,
            directed=directed,
            weighted=weighted,
        )

    # Collapse duplicate arcs: the dict adjacency keeps an arc at its
    # *first* insertion position with its *last* assigned weight.
    seq = np.arange(arc_src.shape[0], dtype=np.int64)
    key = arc_src * np.int64(n) + arc_dst
    order = np.lexsort((seq, key))
    sorted_key = key[order]
    first_mask = np.empty(sorted_key.shape[0], dtype=bool)
    first_mask[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first_mask[1:])
    last_mask = np.empty_like(first_mask)
    last_mask[-1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=last_mask[:-1])
    first_idx = order[first_mask]
    last_idx = order[last_mask]

    row_src = arc_src[first_idx]
    row_dst = arc_dst[first_idx]
    row_w = arc_w[last_idx]
    row_seq = seq[first_idx]

    # Rows grouped by source, arcs within a row in first-insertion order —
    # exactly the dict adjacency's neighbour iteration order.
    final = np.lexsort((row_seq, row_src))
    flat_indices = np.ascontiguousarray(row_dst[final])
    flat_weights = np.ascontiguousarray(row_w[final])
    np.cumsum(np.bincount(row_src, minlength=n), out=indptr[1:])
    return CSRGraph(
        indptr,
        flat_indices,
        flat_weights,
        vertices,
        directed=directed,
        weighted=weighted,
    )


def read_edge_list_csr(
    path: PathLike,
    *,
    directed: bool = False,
    weighted: bool = False,
    comment: str = "#",
    vertex_type: type = int,
    chunk_edges: int = EDGE_LIST_CHUNK,
) -> CSRGraph:
    """Read an edge-list file straight into a :class:`CSRGraph`.

    See :func:`parse_edge_list_csr` for semantics; equivalent to (but much
    lighter than) ``read_edge_list(path, ...).csr()`` on large files.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list_csr(
            handle,
            directed=directed,
            weighted=weighted,
            comment=comment,
            vertex_type=vertex_type,
            chunk_edges=chunk_edges,
        )


# ----------------------------------------------------------------------
# JSON / dict round trip
# ----------------------------------------------------------------------
def to_dict(graph: Graph) -> dict:
    """Return a JSON-serialisable dictionary describing *graph*."""
    return {
        "directed": graph.directed,
        "weighted": graph.weighted,
        "vertices": list(graph.vertices()),
        "edges": [[u, v, w] for u, v, w in graph.edges(data=True)],
    }


def from_dict(data: dict) -> Graph:
    """Rebuild a :class:`Graph` from :func:`to_dict` output."""
    try:
        graph = Graph(directed=bool(data["directed"]), weighted=bool(data["weighted"]))
        graph.add_vertices_from(data["vertices"])
        for u, v, w in data["edges"]:
            graph.add_edge(u, v, w)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph dictionary: {exc}") from exc
    return graph


def write_json(graph: Graph, path: PathLike) -> None:
    """Write *graph* to *path* as JSON."""
    Path(path).write_text(json.dumps(to_dict(graph)), encoding="utf-8")


def read_json(path: PathLike) -> Graph:
    """Read a JSON graph written by :func:`write_json`."""
    return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# networkx interoperability (optional, used by tests as an oracle)
# ----------------------------------------------------------------------
def to_networkx(graph: Graph):
    """Convert to a :mod:`networkx` graph (requires networkx to be installed)."""
    import networkx as nx  # imported lazily: networkx is an optional dependency

    nx_graph = nx.DiGraph() if graph.directed else nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    for u, v, w in graph.edges(data=True):
        nx_graph.add_edge(u, v, weight=w)
    return nx_graph


def from_networkx(nx_graph, *, weighted: bool = False) -> Graph:
    """Convert a :mod:`networkx` graph into a :class:`Graph`."""
    directed = bool(nx_graph.is_directed())
    graph = Graph(directed=directed, weighted=weighted)
    graph.add_vertices_from(nx_graph.nodes())
    for u, v, data in nx_graph.edges(data=True):
        if u == v:
            continue
        weight = float(data.get("weight", 1.0)) if weighted else 1.0
        graph.add_edge(u, v, weight)
    return graph
