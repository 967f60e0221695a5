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
    the value is stamped as a ``jobs:`` line in every emitted table whose
    rows do not set their own worker count (a table with an ``n_jobs``
    column stamps the counts its rows ran), so trajectories across commits
    attribute speedups to the knob rather than to dataset or seed drift.
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


# Export the parallelism knob as the library-wide override: REPRO_JOBS
# sets n_jobs at every call site that resolves an ExecutionPlan.
if bench_jobs() != 1:
    if bench_jobs() < 1:
        raise ValueError(f"REPRO_BENCH_JOBS must be a positive integer, got {bench_jobs()!r}")
    os.environ["REPRO_JOBS"] = str(bench_jobs())


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


def _jobs_stamp(rows: Sequence[Dict[str, object]], columns: Sequence[str]):
    """The ``jobs:`` stamp value: the rows' own worker counts, if they carry any."""
    # A grid row may carry its counts as one string ("1/2/4"), so order by text.
    counts = sorted({row["n_jobs"] for row in rows if row.get("n_jobs") is not None}, key=str)
    if "n_jobs" not in columns or not counts:
        return bench_jobs()
    if len(counts) == 1:
        return counts[0]
    return "per row " + ", ".join(str(count) for count in counts)


def emit_table(
    experiment: str,
    title: str,
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str],
) -> str:
    """Print the experiment table and persist it under :func:`results_dir`.

    The execution stamp (:func:`repro.execution.stamp.execution_stamp`:
    ``jobs``, ``batch_size``, ``kernel``, ``kernel_threads``) is stamped
    under the title so every stored result records which degree of
    parallelism produced it.  When the rows carry an ``n_jobs`` column
    the ``jobs:`` line repeats what they ran (the one count, or every
    distinct count ``per row``); otherwise it is ``REPRO_BENCH_JOBS``.
    """
    from repro.execution.stamp import execution_stamp, format_stamp_lines

    table = format_table(rows, columns)
    execution = execution_stamp({"n_jobs": _jobs_stamp(rows, columns)})
    stamp = format_stamp_lines(
        {key: value for key, value in execution.items() if value is not None}
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
