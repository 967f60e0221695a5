"""Shared helpers for the benchmark harness.

Every ``bench_e*.py`` module reproduces one experiment from DESIGN.md
(Section 2, "Experiment index").  The modules use the ``benchmark`` fixture of
pytest-benchmark to time one representative unit of work, and additionally
emit the full experiment table — the rows a reader would compare against the
paper — both to stdout and to a results file so the numbers survive the run:
``benchmarks/results/<experiment>.txt`` for the committed ``small`` tier,
``benchmarks/results/<tier>/<experiment>.txt`` (git-ignored) for every other
tier, so a ``tiny`` smoke run never overwrites a committed receipt.

Environment knobs
-----------------
``REPRO_BENCH_SIZE``
    Dataset size used by the benchmarks: ``tiny`` (default, seconds),
    ``small`` (minutes) or ``medium`` (pure-Python: be patient).
``REPRO_BENCH_SEED``
    Base seed for every stochastic component (default 2019, the venue year).
``REPRO_BENCH_JOBS``
    Worker processes for the sharded execution engine (default ``1``,
    inline).  Exported as ``REPRO_JOBS`` so every estimator constructed
    inside the ``bench_e*`` modules runs under the requested parallelism;
    the value is stamped as a ``jobs:`` line in every emitted table, so
    trajectories across commits attribute speedups to the knob rather than
    to dataset or seed drift.
``REPRO_BENCH_SHARED_GRAPH``
    Whether CSR snapshots ship to workers as zero-copy shared-memory
    handles (default ``0``, pickled shipping).  Exported as
    ``REPRO_SHARED_GRAPH`` so every estimator in the ``bench_e*``
    modules honours it, and stamped as a ``shared_graph:`` line in every
    emitted table.
``REPRO_BENCH_INVALIDATION``
    Mutation invalidation scoping the benchmarks run under: ``delta``
    (default; journal-proved affected-region retention) or ``full``
    (destroy-everything on every mutation).  Exported as
    ``REPRO_INVALIDATION`` and stamped as an ``invalidation:`` line in
    every emitted table — the modes are result-identical by contract, so
    the stamp attributes warm-start wall-clock, never result drift.
(``n_chains`` is deliberately *not* an env knob: it is an explicit API
argument, and the multi-chain benchmark — ``bench_e12_multichain.py`` —
sweeps chain counts itself, recording the count plus the cross-chain
diagnostics as columns of every row.)
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Dataset families exercised by the cross-dataset experiments (one per
#: topology family keeps the tables readable and the runtime bounded).
BENCH_DATASETS = ("collaboration", "email", "social", "road")


def bench_size() -> str:
    """Return the dataset size tier selected through ``REPRO_BENCH_SIZE``."""
    return os.environ.get("REPRO_BENCH_SIZE", "tiny")


def results_dir() -> Path:
    """Return the directory the emitted tables of this size tier go to.

    The ``small`` tier writes the committed receipts directly under
    ``benchmarks/results/``; any other tier writes to its own git-ignored
    subdirectory.
    """
    tier = bench_size()
    return RESULTS_DIR if tier == "small" else RESULTS_DIR / tier


def bench_seed() -> int:
    """Return the base seed selected through ``REPRO_BENCH_SEED``."""
    return int(os.environ.get("REPRO_BENCH_SEED", "2019"))


def bench_jobs() -> int:
    """Return the worker-process count selected through ``REPRO_BENCH_JOBS``."""
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_invalidation() -> str:
    """Return the requested invalidation mode (``REPRO_BENCH_INVALIDATION``)."""
    return os.environ.get("REPRO_BENCH_INVALIDATION", "delta")


def bench_shared_graph() -> bool:
    """Return whether ``REPRO_BENCH_SHARED_GRAPH`` asks for shared snapshots."""
    raw = os.environ.get("REPRO_BENCH_SHARED_GRAPH", "0").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(
        f"REPRO_BENCH_SHARED_GRAPH must be a boolean flag (0/1), got {raw!r}"
    )


# Export the parallelism knob as the library-wide override: REPRO_JOBS
# sets n_jobs at every call site that resolves an ExecutionPlan.
if bench_jobs() != 1:
    if bench_jobs() < 1:
        raise ValueError(f"REPRO_BENCH_JOBS must be a positive integer, got {bench_jobs()!r}")
    os.environ["REPRO_JOBS"] = str(bench_jobs())

# And for the snapshot-shipping knob: REPRO_SHARED_GRAPH fills the
# shared_graph field of every resolved plan (see
# repro.execution.plan.resolve_plan).
if bench_shared_graph():
    os.environ["REPRO_SHARED_GRAPH"] = "1"

# And for the invalidation mode: REPRO_INVALIDATION steers how every
# session scopes mutation invalidation (repro.incremental
# .resolve_invalidation); both modes answer identically, only warm-start
# cost differs.
if bench_invalidation() != "delta":
    if bench_invalidation() != "full":
        raise ValueError(
            f"REPRO_BENCH_INVALIDATION must be 'delta' or 'full', "
            f"got {bench_invalidation()!r}"
        )
    os.environ["REPRO_INVALIDATION"] = bench_invalidation()


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render a list of row-dictionaries as a fixed-width text table."""
    widths = {
        column: max(len(column), *(len(_fmt(row.get(column))) for row in rows)) if rows else len(column)
        for column in columns
    }
    lines = ["  ".join(column.ljust(widths[column]) for column in columns)]
    lines.append("  ".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.5f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def emit_table(
    experiment: str,
    title: str,
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str],
) -> str:
    """Print the experiment table and persist it under :func:`results_dir`.

    The execution stamp (:func:`repro.execution.stamp.execution_stamp`:
    ``jobs``, ``batch_size``, ``kernel``, ``kernel_threads``) plus
    ``shared_graph: <bool>`` and ``invalidation: <delta|full>`` lines are
    stamped under the title so every stored result records which degree of
    parallelism, snapshot-shipping mode and invalidation scoping produced
    it.
    """
    from repro.execution.stamp import execution_stamp, format_stamp_lines

    table = format_table(rows, columns)
    execution = execution_stamp({"n_jobs": bench_jobs()})
    stamp = format_stamp_lines(
        {
            **{key: value for key, value in execution.items() if value is not None},
            "shared_graph": bench_shared_graph(),
            "invalidation": bench_invalidation(),
        }
    )
    text = (
        f"{experiment}: {title}\n"
        f"{'=' * (len(experiment) + 2 + len(title))}\n"
        f"{stamp}\n"
        f"{table}\n"
    )
    print("\n" + text)
    target = results_dir()
    target.mkdir(parents=True, exist_ok=True)
    (target / f"{experiment.lower()}.txt").write_text(text, encoding="utf-8")
    return text
