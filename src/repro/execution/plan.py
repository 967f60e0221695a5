"""The :class:`ExecutionPlan` — the library's execution knobs in one value.

A plan's ``n_jobs`` says how many worker processes the shard scheduler
spreads the source shards over.  Whether parallel multi-chain runs share
a dependency arena is not a knob: they do whenever their chains go to a
pool (:mod:`repro.mcmc.multichain`).

How many sources one kernel call traverses is not a knob: callers hand
the batched kernels whole sets and :mod:`repro.shortest_paths.batch`
picks the block widths from the snapshot.  ``ExecutionPlan(batch_size=…)``
still constructs, for callers written against the retired knob, and the
value is ignored.

Resolution: explicit arguments always win, and the ``REPRO_JOBS`` /
``REPRO_MP_CONTEXT`` environment variables fill in anything left
unspecified (one env knob steers every call site, which is how the
benchmark harness runs a whole suite under a given parallelism setting).
Whatever is still unset takes the :class:`ExecutionPlan` defaults —
``n_jobs=1`` (inline) — so :func:`resolve_plan` always returns a plan and
every estimator runs one execution discipline.

Determinism contract
--------------------
Every estimator draws its samples and fixes its floating-point
accumulation order independently of the knobs: per-source results are
accumulated sequentially in source order inside each fixed-size shard
(shard boundaries depend only on :data:`DEFAULT_SHARD_SIZE`, never on
``n_jobs``), and shard buffers are merged in shard order.  Together with
the bit-identical per-row contract of the batch kernels (whatever block
widths they choose) this makes every estimate **bit-identical across
any** ``n_jobs`` — set or unset — for a fixed seed.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "ExecutionPlan",
    "resolve_plan",
    "DEFAULT_SHARD_SIZE",
]

#: Number of sources per shard.  A constant (not a knob) on purpose: shard
#: boundaries are part of the determinism contract, so they must not vary
#: with ``n_jobs``.  256 keeps per-shard pickling traffic small.
DEFAULT_SHARD_SIZE = 256


@dataclass(frozen=True)
class ExecutionPlan:
    """How a per-source workload is executed (see the module docstring).

    Attributes
    ----------
    batch_size:
        Retired and ignored: the batched kernels choose their own block
        widths.  Still accepted so plans written against the old knob keep
        constructing.
    n_jobs:
        Worker processes for the shard scheduler (>= 1; 1 means inline).
    mp_context:
        Multiprocessing start method for the scheduler's pools (``"fork"`` /
        ``"spawn"`` / ``"forkserver"``; ``None`` keeps the interpreter
        default).  :mod:`repro.execution.shared_cache` already accepted a
        context knob, so exposing the same knob here lets spawn deployments
        configure the pool and the shared arena consistently.  Never changes
        a result — the scheduler's determinism contract is start-method
        independent.
    runtime:
        Optional :class:`~repro.execution.runtime.ExecutionContext` the
        scheduler routes its pool work through — a *persistent* worker pool
        plus warm payload/arena state reused across calls instead of a
        per-call pool.  Never changes a result; it only moves where (and
        how often) work is paid for.  The context deliberately pickles to
        ``None`` so a plan or sampler captured inside a worker payload can
        never smuggle pool handles across process boundaries.
    """

    batch_size: Optional[int] = None
    n_jobs: int = 1
    mp_context: Optional[str] = None
    runtime: Optional[object] = None

    def __post_init__(self) -> None:
        if (
            not isinstance(self.n_jobs, int)
            or isinstance(self.n_jobs, bool)
            or self.n_jobs < 1
        ):
            raise ConfigurationError(
                f"n_jobs must be a positive integer, got {self.n_jobs!r}"
            )
        if self.mp_context is not None:
            _validate_mp_context(self.mp_context)


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be a positive integer, got {raw!r}")
    if value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {raw!r}")
    return value


def _validate_mp_context(value: str) -> str:
    methods = multiprocessing.get_all_start_methods()
    if value not in methods:
        raise ConfigurationError(
            f"unknown multiprocessing start method {value!r}; expected one of "
            f"{methods}"
        )
    return value


def resolve_plan(
    plan: Optional[ExecutionPlan] = None,
    *,
    n_jobs: Optional[int] = None,
    mp_context: Optional[str] = None,
    runtime: Optional[object] = None,
) -> ExecutionPlan:
    """Resolve the execution knobs of one estimator call into a plan.

    Parameters
    ----------
    plan:
        A ready-made :class:`ExecutionPlan`; returned as-is when provided
        (it always wins over the individual knobs).
    n_jobs, mp_context:
        The individual knobs.  ``None`` means "not requested": the
        ``REPRO_JOBS`` / ``REPRO_MP_CONTEXT`` environment variables are
        consulted, then the :class:`ExecutionPlan` defaults apply.
    runtime:
        Optional persistent :class:`~repro.execution.runtime.ExecutionContext`.

    No knob changes a result (see the module docstring), so resolution
    only ever decides how fast an estimate is computed.
    """
    if plan is not None:
        return plan
    if n_jobs is None:
        # Still unset after the env: the ExecutionPlan default.
        n_jobs = _env_int("REPRO_JOBS") or ExecutionPlan.n_jobs
    if mp_context is None:
        mp_context = os.environ.get("REPRO_MP_CONTEXT") or None
    return ExecutionPlan(
        n_jobs=n_jobs,
        mp_context=mp_context,
        runtime=runtime,
    )

