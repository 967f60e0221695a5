"""Source-sharded parallel execution layer.

Every estimation layer of the library (exact Brandes, the baseline
samplers, the Metropolis-Hastings oracles) reduces to "run many per-source
passes and accumulate".  This package owns *how* those passes are executed:

* :class:`~repro.execution.plan.ExecutionPlan` bundles the execution
  knobs — multiprocessing ``n_jobs``, the start method and the persistent
  runtime — and
  :func:`~repro.execution.plan.resolve_plan` resolves them (explicit
  arguments win over the ``REPRO_JOBS`` environment override; with nothing
  set the plan defaults apply — every estimator always runs through a
  plan).  Block widths are not a knob: callers hand the batched kernels
  whole sets and the kernels choose
  (:func:`repro.shortest_paths.batch.source_blocks`).
* :mod:`~repro.execution.scheduler` splits a source list into fixed-size
  shards, derives an independently-seeded child rng stream per shard, runs
  shards inline or on a multiprocessing pool, and merges per-shard buffers
  in deterministic shard order — so results are identical for any
  ``n_jobs`` given a fixed seed.
* :mod:`~repro.execution.shared_cache` provides the row store of
  per-source dependency vectors,
  :class:`~repro.execution.shared_cache.DependencyStore`: the MCMC oracle's
  private cache, and on a shared-memory backing the cross-process
  :class:`~repro.execution.shared_cache.SharedDependencyStore` arena the
  multi-chain MCMC drivers publish into whenever their chains go to a
  pool, so a Brandes pass paid by one worker process is a cache hit for
  every other.
* :mod:`~repro.execution.runtime` provides the *persistent* execution
  path: :class:`~repro.execution.runtime.ExecutionContext` owns a reusable
  worker pool (payloads installed once, referenced by token afterwards), a
  payload memo and a cross-request dependency arena guarded by a
  graph-version stamp — the warm state behind the
  :class:`~repro.centrality.session.BetweennessSession` serving API.
"""

from repro.execution.plan import DEFAULT_SHARD_SIZE, ExecutionPlan, resolve_plan
from repro.execution.runtime import (
    ExecutionContext,
    PersistentWorkerPool,
    interned_payload,
)
from repro.execution.scheduler import (
    merge_ordered,
    run_sharded,
    sample_shards,
    shard_rngs,
    split_shards,
)
from repro.execution.shared_cache import (
    DependencyStore,
    SharedDependencyStore,
    create_shared_store,
    shared_memory_available,
)
from repro.execution.stamp import (
    EXECUTION_STAMP_KEYS,
    execution_stamp,
    format_stamp_lines,
    resolve_kernel_quiet,
    resolve_kernel_threads,
)

__all__ = [
    "ExecutionPlan",
    "resolve_plan",
    "resolve_kernel_threads",
    "ExecutionContext",
    "PersistentWorkerPool",
    "interned_payload",
    "DEFAULT_SHARD_SIZE",
    "split_shards",
    "shard_rngs",
    "sample_shards",
    "run_sharded",
    "merge_ordered",
    "DependencyStore",
    "SharedDependencyStore",
    "create_shared_store",
    "shared_memory_available",
    "EXECUTION_STAMP_KEYS",
    "execution_stamp",
    "format_stamp_lines",
    "resolve_kernel_quiet",
]
