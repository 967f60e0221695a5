"""Source-shard scheduler: fixed shards, child rng streams, pool, ordered merge.

The scheduler turns "run this per-source worker over these sources" into a
deterministic parallel computation:

1. :func:`split_shards` cuts the source list into contiguous shards of a
   fixed size (:data:`~repro.execution.plan.DEFAULT_SHARD_SIZE`).  Shard
   boundaries depend only on the list itself — never on ``n_jobs`` — so the
   reduction tree of step 4 is invariant to the degree of parallelism.
2. :func:`shard_rngs` derives one independently-seeded child
   :class:`random.Random` per shard from the caller's stream (via
   :func:`repro._rng.spawn_rng`), so stochastic per-sample workers consume
   per-shard streams that do not depend on which process runs the shard.
3. :func:`run_sharded` executes the worker over every shard — inline when
   ``n_jobs == 1``, else on a worker pool.  Pools are pluggable: the
   default provider creates an ephemeral :mod:`multiprocessing` pool per
   call (the large read-only payload — graph or CSR snapshot — shipped once
   per worker process through the pool initializer instead of once per
   shard), while a
   :class:`~repro.execution.runtime.ExecutionContext` passed as *runtime*
   routes the shards through its **persistent** pool, whose workers and
   installed payloads survive across calls.
4. :func:`merge_ordered` folds the per-shard buffers together strictly in
   shard order (numpy buffers, vertex-keyed dicts, lists or scalars).

Steps 1 + 4 are what make results bit-identical for any ``n_jobs``: every
float lands in the accumulator through the same sequence of additions no
matter how many processes computed the shards.  Which pool provider ran
them — inline, ephemeral or persistent — never enters the reduction.
"""

from __future__ import annotations

import multiprocessing
import warnings
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro._rng import spawn_rng
from repro.execution.plan import DEFAULT_SHARD_SIZE

__all__ = ["split_shards", "shard_rngs", "sample_shards", "run_sharded", "merge_ordered"]

T = TypeVar("T")

# Per-process slot for the shared read-only payload (set by the pool
# initializer in workers, passed directly on the inline path).
_WORKER_SHARED: Any = None


def split_shards(items: Sequence[T], shard_size: int = DEFAULT_SHARD_SIZE) -> List[List[T]]:
    """Split *items* into contiguous shards of at most *shard_size* elements.

    The boundaries are a pure function of ``len(items)`` and *shard_size* —
    the determinism contract relies on them being independent of ``n_jobs``.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be a positive integer")
    items = list(items)
    return [items[i : i + shard_size] for i in range(0, len(items), shard_size)]


def shard_rngs(rng: Random, num_shards: int) -> List[Random]:
    """Derive *num_shards* independently-seeded child generators from *rng*.

    The children are a deterministic function of the parent's state and the
    shard index, so shard *i* replays the same stream whether it runs
    inline, first on a pool, or last — and the parent advances by exactly
    *num_shards* spawns regardless of ``n_jobs``.
    """
    return [spawn_rng(rng, i) for i in range(num_shards)]


def sample_shards(num_samples: int, rng: Random):
    """Split a per-sample workload into ``(count, child_rng)`` shard payloads.

    The shape the stochastic path samplers (RK, KADABRA) hand to
    :func:`run_sharded`: sample counts follow the fixed
    :func:`split_shards` boundaries and each shard draws from its own
    :func:`shard_rngs` child stream, so the sampled paths are identical for
    any ``n_jobs``.

    The shard lengths are computed arithmetically — only the *counts* of the
    :func:`split_shards` boundaries matter here, so materialising an
    ``O(num_samples)`` index list (as an earlier revision did) would cost
    memory proportional to the sample budget for nothing.
    """
    if num_samples <= 0:
        return []
    full, remainder = divmod(num_samples, DEFAULT_SHARD_SIZE)
    counts = [DEFAULT_SHARD_SIZE] * full
    if remainder:
        counts.append(remainder)
    return list(zip(counts, shard_rngs(rng, len(counts))))


def _init_worker(shared: Any) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _call_worker(args):
    fn, shard = args
    return fn(_WORKER_SHARED, shard)


def run_sharded(
    fn: Callable[[Any, Any], Any],
    shards: Sequence[Any],
    *,
    n_jobs: int = 1,
    shared: Any = None,
    plan: Any = None,
    mp_context: Optional[str] = None,
    runtime: Any = None,
) -> List[Any]:
    """Run ``fn(shared, shard)`` for every shard and return results in shard order.

    Parameters
    ----------
    fn:
        A module-level (picklable) worker.  It receives the shared payload
        first and one shard second, and must not mutate the payload in any
        way that can change results.  (Result-neutral mutation — memoizing
        a per-process cache on the payload, as the multi-chain driver does
        with its oracle — is fine, but remember the inline path shares one
        payload instance across every shard and call, while pool workers
        each hold their own copy — which on the persistent provider lives
        across *calls*, so warm caches carry over between requests.)
    shards:
        The shard list from :func:`split_shards` (any per-shard value works;
        stochastic workers typically get ``(sources, shard_rng)`` tuples).
    n_jobs:
        Worker processes.  ``1`` (or a single shard) runs inline with no
        multiprocessing import cost; larger values use a pool of
        ``min(n_jobs, len(shards))`` processes (the persistent provider
        uses its own fixed process count — results are provider-invariant
        by the ordered-merge contract).
    shared:
        Read-only payload shipped once per worker process (the graph or CSR
        snapshot plus the per-call constants).
    plan:
        Optional :class:`~repro.execution.plan.ExecutionPlan` supplying the
        ``mp_context`` / ``runtime`` fields below when the caller has one in
        hand (the explicit keyword arguments win over the plan's fields).
    mp_context:
        Start-method name for the ephemeral pool (``None`` = interpreter
        default), from :attr:`ExecutionPlan.mp_context` — spawn deployments
        configure the pool and the shared arena consistently with it.
    runtime:
        Optional :class:`~repro.execution.runtime.ExecutionContext`.  When
        it has a usable persistent pool, the shards run there — same worker
        signature, same ordered results — and the per-call pool below is
        never created; otherwise (inline context, pool-creation failure)
        the call falls through to the ephemeral paths.

    Results arrive in shard order on every path, so downstream merges are
    deterministic.  If the platform cannot spawn processes (sandboxes,
    restricted containers), the scheduler falls back to the inline path with
    a warning — results are identical by construction, only slower.
    """
    if plan is not None:
        if mp_context is None:
            mp_context = getattr(plan, "mp_context", None)
        if runtime is None:
            runtime = getattr(plan, "runtime", None)
    if n_jobs <= 1 or len(shards) <= 1:
        return [fn(shared, shard) for shard in shards]
    if runtime is not None:
        results = runtime.map_sharded(fn, shards, shared)
        if results is not None:
            return results
    try:
        with multiprocessing.get_context(mp_context).Pool(
            processes=min(n_jobs, len(shards)),
            initializer=_init_worker,
            initargs=(shared,),
        ) as pool:
            return pool.map(_call_worker, [(fn, shard) for shard in shards], chunksize=1)
    except (OSError, PermissionError) as exc:  # pragma: no cover - platform dependent
        warnings.warn(
            f"multiprocessing unavailable ({exc}); running {len(shards)} shards inline",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(shared, shard) for shard in shards]


def merge_ordered(buffers: Sequence[Any]):
    """Fold per-shard buffers together strictly in shard order.

    Supports the three accumulator shapes the estimators use:

    * numpy arrays — element-wise sums, one vector addition per shard;
    * ``{vertex: float}`` dicts — per-key sums, shards applied in order;
    * lists — concatenation (per-source values, e.g. dependency-on-target);
    * floats/ints — plain sequential sums.

    Raises :class:`ValueError` on an empty sequence: the caller knows the
    workload's shape and should handle "no sources" explicitly.
    """
    if not buffers:
        raise ValueError("cannot merge zero buffers; handle the empty workload upstream")
    first = buffers[0]
    if isinstance(first, list):
        merged_list: List[Any] = []
        for buffer in buffers:
            merged_list.extend(buffer)
        return merged_list
    if isinstance(first, dict):
        merged: Dict[Any, float] = dict(first)
        for buffer in buffers[1:]:
            for key, value in buffer.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged
    if isinstance(first, (int, float)):
        total = first
        for buffer in buffers[1:]:
            total += buffer
        return total
    # numpy array (or anything supporting +=): copy to keep inputs intact.
    out = first.copy()
    for buffer in buffers[1:]:
        out += buffer
    return out
