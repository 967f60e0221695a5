"""Adaptive execution tuning: a timed probe for the worker count.

Pool spin-up and per-shard pickling make extra workers a net loss on small
workloads, and the break-even point of ``n_jobs`` is a machine property no
constant can capture.  This module replaces the guess with a short timed
probe: run a handful of real sweeps at each candidate setting and keep the
fastest.
How many sources one kernel call traverses is not probed here: the batched
kernels choose their block widths from the snapshot
(:func:`repro.shortest_paths.batch.source_blocks`).

Timing is inherently nondeterministic, but the choice it produces cannot
leak into results: the batch kernels are bit-identical per source row for
*any* batch composition, and the shard scheduler merges per-shard buffers
in shard order with shard boundaries fixed by
:data:`~repro.execution.plan.DEFAULT_SHARD_SIZE` (the execution engine's
determinism contract) — so a calibrated worker count changes
wall-clock only, never an estimate.  The shard size is not probed: it is
part of the determinism contract itself (it fixes both the reduction
association and the per-shard rng streams), so it is a constant, never a
knob.  Each probe costs real Brandes passes — size it against the workload
it is meant to speed up.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.graphs.core import Graph

__all__ = [
    "default_jobs_candidates",
    "probe_n_jobs",
    "calibrate_n_jobs",
]

def _csr_of(graph):
    """Accept either a mutable :class:`Graph` or a ready CSR snapshot."""
    if isinstance(graph, Graph):
        return graph.csr()
    return graph


def default_jobs_candidates() -> Tuple[int, ...]:
    """Return the worker counts the n_jobs probe sweeps on this machine.

    Powers of two from 1 up to the CPU count (the count itself is appended
    when it is not a power of two): ``(1, 2, 4, 6)`` on a 6-core box,
    ``(1,)`` on a single core.  Small by design — each candidate costs a
    real pool spin-up to time honestly.
    """
    try:
        cores = multiprocessing.cpu_count()
    except NotImplementedError:  # pragma: no cover - exotic platforms
        cores = 1
    candidates = []
    jobs = 1
    while jobs <= cores:
        candidates.append(jobs)
        jobs *= 2
    if candidates[-1] != cores:
        candidates.append(cores)
    return tuple(candidates)


def probe_n_jobs(
    graph,
    *,
    candidates: Sequence[int] = (),
    probe_sources: int = 64,
    repeats: int = 1,
) -> List[Tuple[int, float]]:
    """Time one sharded dependency sweep per worker count; return ``[(n_jobs, seconds)]``.

    Each candidate runs the real sharded pipeline —
    :func:`~repro.execution.scheduler.run_sharded` over
    :func:`~repro.shortest_paths.dependencies.dependency_sum_shard_csr` —
    including pool spin-up, so the timings reflect exactly the cost an
    engaged plan would pay (spin-up is how parallelism loses on small
    workloads, so it must be billed).  The scheduler's determinism contract
    makes every candidate produce the same buffer bit-for-bit; only
    wall-clock differs, so the calibrated count can never change an
    estimate.  On a single-core machine the probe is skipped and
    ``[(1, 0.0)]`` returned.
    """
    if probe_sources < 1:
        raise ConfigurationError("probe_sources must be a positive integer")
    if repeats < 1:
        raise ConfigurationError("repeats must be a positive integer")
    if not candidates:
        candidates = default_jobs_candidates()
    for candidate in candidates:
        if not isinstance(candidate, int) or isinstance(candidate, bool) or candidate < 1:
            raise ConfigurationError(
                f"n_jobs candidates must be positive integers, got {candidate!r}"
            )
    if max(candidates) == 1:
        return [(1, 0.0)]
    from repro.execution.scheduler import run_sharded, split_shards
    from repro.shortest_paths.dependencies import dependency_sum_shard_csr

    csr = _csr_of(graph)
    sources = list(range(min(probe_sources, csr.number_of_vertices())))
    if not sources:
        return [(1, 0.0)]
    shards = split_shards(sources)

    def sweep(jobs: int) -> None:
        run_sharded(dependency_sum_shard_csr, shards, n_jobs=jobs, shared=csr)

    sweep(1)  # warm-up, untimed (snapshot + cached adjacency first touch)
    timings: List[Tuple[int, float]] = []
    for jobs in candidates:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            sweep(jobs)
            best = min(best, time.perf_counter() - start)
        timings.append((jobs, best))
    return timings


def calibrate_n_jobs(
    graph,
    *,
    candidates: Sequence[int] = (),
    probe_sources: int = 64,
    repeats: int = 1,
) -> int:
    """Return the candidate worker count whose probe sweep ran fastest.

    Ties go to the smaller count (fewer idle processes for the same speed).
    This is what ``n_jobs="auto"`` resolves to at the API and CLI layers;
    the engine's sharded discipline is n_jobs-invariant, so the timed
    choice never changes a result.
    """
    timings = probe_n_jobs(
        graph,
        candidates=candidates,
        probe_sources=probe_sources,
        repeats=repeats,
    )
    best_jobs, best_seconds = timings[0]
    for jobs, seconds in timings[1:]:
        if seconds < best_seconds or (seconds == best_seconds and jobs < best_jobs):
            best_jobs, best_seconds = jobs, seconds
    return best_jobs

