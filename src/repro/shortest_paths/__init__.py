"""Shortest-path substrate: SPDs, BFS/Dijkstra builders and dependency accumulation.

Every builder and accumulator runs on the flat-array
:class:`~repro.graphs.csr.CSRGraph` snapshot in vertex-index space: the
numpy CSR kernels are the one kernel family, and vertex labels are mapped
at the callers' boundary.  :mod:`repro.shortest_paths.screen` decides
from distance passes alone which sources have a zero dependency on a
target, so their Brandes passes need not run.
"""

from repro.shortest_paths.batch import (
    BatchedSPD,
    accumulate_dependencies_batch_csr,
    batch_source_dependencies,
    bfs_distances_batch_csr,
    bfs_spd_batch_csr,
)
from repro.shortest_paths.bfs import bfs_distances_csr, bfs_spd_csr
from repro.shortest_paths.bidirectional import bidirectional_shortest_path_info_csr
from repro.shortest_paths.dependencies import (
    accumulate_dependencies_csr,
    all_dependencies_on_target,
    csr_source_dependencies,
    csr_spd_builder,
)
from repro.shortest_paths.dijkstra import dijkstra_spd_csr
from repro.shortest_paths.screen import screen_sources, zero_dependency_sources
from repro.shortest_paths.spd import CSRShortestPathDAG

__all__ = [
    "CSRShortestPathDAG",
    "BatchedSPD",
    "bfs_spd_csr",
    "bfs_spd_batch_csr",
    "bfs_distances_batch_csr",
    "accumulate_dependencies_batch_csr",
    "batch_source_dependencies",
    "bfs_distances_csr",
    "dijkstra_spd_csr",
    "accumulate_dependencies_csr",
    "all_dependencies_on_target",
    "csr_source_dependencies",
    "csr_spd_builder",
    "bidirectional_shortest_path_info_csr",
    "screen_sources",
    "zero_dependency_sources",
]
