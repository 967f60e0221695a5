"""Shortest-path substrate: SPDs, BFS/Dijkstra builders and dependency accumulation.

Every builder and accumulator ships in two flavours: the dict-backed
reference implementation over :class:`~repro.graphs.core.Graph` (what the
test-suite checks the kernels against) and a ``*_csr`` kernel over the
flat-array :class:`~repro.graphs.csr.CSRGraph` snapshot, which is what every
estimator runs on.  The numpy CSR kernels are the one kernel rung.
"""

from repro.shortest_paths.batch import (
    BatchedSPD,
    accumulate_dependencies_batch_csr,
    batch_source_dependencies,
    bfs_spd_batch_csr,
)
from repro.shortest_paths.bfs import (
    bfs_distances,
    bfs_distances_csr,
    bfs_spd,
    bfs_spd_csr,
    single_pair_distance,
)
from repro.shortest_paths.bidirectional import (
    all_shortest_paths,
    bidirectional_shortest_path_info,
    bidirectional_shortest_path_info_csr,
    sample_shortest_path,
)
from repro.shortest_paths.dependencies import (
    accumulate_dependencies,
    accumulate_dependencies_csr,
    accumulate_edge_dependencies,
    all_dependencies_on_target,
    csr_source_dependencies,
    csr_spd_builder,
    dependency_on_target,
    source_dependencies,
    spd_builder,
)
from repro.shortest_paths.dijkstra import dijkstra_distances, dijkstra_spd, dijkstra_spd_csr
from repro.shortest_paths.spd import CSRShortestPathDAG, ShortestPathDAG

__all__ = [
    "ShortestPathDAG",
    "CSRShortestPathDAG",
    "BatchedSPD",
    "bfs_spd",
    "bfs_spd_csr",
    "bfs_spd_batch_csr",
    "accumulate_dependencies_batch_csr",
    "batch_source_dependencies",
    "bfs_distances",
    "bfs_distances_csr",
    "single_pair_distance",
    "dijkstra_spd",
    "dijkstra_spd_csr",
    "dijkstra_distances",
    "accumulate_dependencies",
    "accumulate_dependencies_csr",
    "accumulate_edge_dependencies",
    "source_dependencies",
    "dependency_on_target",
    "all_dependencies_on_target",
    "csr_source_dependencies",
    "spd_builder",
    "csr_spd_builder",
    "bidirectional_shortest_path_info",
    "bidirectional_shortest_path_info_csr",
    "sample_shortest_path",
    "all_shortest_paths",
]
