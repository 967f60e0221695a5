"""The library names ``perfbench/`` relies on keep resolving.

The benchmark of record (``perfbench/run.py``, ``perfbench/workloads.py``
and ``perfbench/tracing.py``) imports a few library names and patches the
public entry points of every layer.  A library change that drops one of
them breaks the benchmark, so these checks fail the test-suite first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.execution import (
    EXECUTION_STAMP_KEYS,
    ExecutionPlan,
    execution_stamp,
    resolve_kernel_threads,
)
from repro.execution.stamp import resolve_kernel_quiet
from repro.graphs import barabasi_albert_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: The shortest-path and oracle entry points the tracer wraps, as
#: ``(module, attribute)``.
PATCH_TARGETS = (
    ("repro.shortest_paths.dependencies", "csr_source_dependencies"),
    ("repro.shortest_paths.dependencies", "accumulate_dependencies_csr"),
    ("repro.shortest_paths.batch", "batch_source_dependencies"),
    ("repro.shortest_paths.dijkstra", "dijkstra_source_dependencies_csr"),
    ("repro.shortest_paths.bfs", "bfs_spd_csr"),
    ("repro.shortest_paths.dijkstra", "dijkstra_spd_csr"),
    ("repro.shortest_paths.bfs", "bfs_distances_csr"),
    ("repro.shortest_paths.bidirectional", "bidirectional_shortest_path_info_csr"),
    ("repro.mcmc.estimates", "DependencyOracle.prefetch"),
)


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_retired_batch_size_still_constructs_a_plan():
    plan = ExecutionPlan(batch_size=16, n_jobs=1)
    assert plan.n_jobs == 1


def test_kernel_shims_return_the_one_rung():
    assert resolve_kernel_threads(None) == 1
    assert resolve_kernel_quiet("auto") == "csr"


def test_every_stamp_carries_every_key():
    for stamp in (
        execution_stamp({}),
        execution_stamp({"n_jobs": 2}, resolve_kernel_quiet("auto"), resolve_kernel_threads(None)),
    ):
        assert set(EXECUTION_STAMP_KEYS) <= set(stamp)
        assert stamp["kernel"] == "csr" and stamp["kernel_threads"] == 1


def test_every_tracer_patch_target_resolves_and_stays_on_the_call_path():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        # Imported after install, as the workloads do, so the call goes
        # through the patched binding.
        from repro.centrality import betweenness_single

        graph = barabasi_albert_graph(60, 2, seed=1)
        betweenness_single(graph, graph.vertices()[3], samples=30, seed=1)
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"query", "single_chain", "prefetch", "batch_pass"} <= names


@pytest.mark.parametrize(
    "module,attr", PATCH_TARGETS, ids=[attr for _, attr in PATCH_TARGETS]
)
def test_tracer_wraps_and_restores_each_patch_target(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[name]
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert vars(owner)[name] is not original
    finally:
        tracer.uninstall()
    assert vars(owner)[name] is original


@pytest.mark.parametrize("method,spans", [
    ("mh", {"single_chain", "prefetch", "batch_pass"}),
    ("mh-random-walk", {"single_chain", "point_pass"}),
    ("rk", {"baseline", "bfs_spd"}),
    ("distance", {"baseline", "bfs_distances", "batch_pass"}),
])
def test_each_estimator_reaches_its_traced_passes(method, spans):
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        from repro.centrality import betweenness_single

        graph = barabasi_albert_graph(40, 2, seed=1)
        betweenness_single(graph, graph.vertices()[3], method=method, samples=20, seed=1)
    finally:
        tracer.uninstall()
    assert spans <= {span.name for span in tracer.spans}
