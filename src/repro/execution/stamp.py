"""The one execution stamp every result surface shares.

Three surfaces attach "what actually ran" provenance to their output: the
CLI's JSON payloads (``repro-bc estimate`` / ``relative`` / ``batch``), the
HTTP daemon's per-response receipts (``repro-bc serve``,
:mod:`repro.serving`), and the benchmark harness's table headers
(``benchmarks/harness.py``).  They used to each assemble their own copy of
the key list, which is exactly how provenance drifts: a knob added to one
surface but not the others silently disappears from the receipts readers
compare.  This module is the single assembly point — the key set and the
diagnostics-to-stamp mapping live here and nowhere else
(``tests/test_serving.py`` pins the three surfaces against each other).
"""

from __future__ import annotations

from typing import Mapping, Optional

__all__ = [
    "EXECUTION_STAMP_KEYS",
    "KERNEL_CHOSEN",
    "execution_stamp",
    "format_stamp_lines",
    "resolve_kernel_quiet",
    "resolve_kernel_threads",
]

#: The stamp's ``batch_size``: block widths are the kernels' choice.
KERNEL_CHOSEN = "kernel-chosen"

#: The stamp's ``kernel`` and ``kernel_threads``: the numpy CSR kernels are
#: the one rung, on one thread.
KERNEL_RUNG = "csr"
KERNEL_THREADS = 1

#: The keys of every execution stamp, in emission order.  ``jobs`` is
#: always set (every estimate runs through a resolved plan);
#: ``batch_size`` always reads :data:`KERNEL_CHOSEN` (the batched kernels
#: pick their own block widths) and ``kernel`` / ``kernel_threads`` read
#: :data:`KERNEL_RUNG` / :data:`KERNEL_THREADS` — the keys stay so
#: receipts keep one shape; null ``chains`` / ``rhat`` / ``ess`` means the
#: multi-chain driver did not run — so every surface emits all of them.
EXECUTION_STAMP_KEYS = (
    "jobs",
    "batch_size",
    "kernel",
    "kernel_threads",
    "chains",
    "rhat",
    "ess",
    "shared_cache",
)


def execution_stamp(
    diagnostics: Mapping[str, object],
    kernel: Optional[str] = None,
    kernel_threads: Optional[int] = None,
) -> dict:
    """Build the execution stamp from a result's ``diagnostics`` mapping.

    *diagnostics* is the dictionary every estimator result carries
    (``SingleEstimate.diagnostics`` / ``RelativeBetweennessEstimate
    .diagnostics``); the stamp renames its internal keys (``n_jobs`` →
    ``jobs``, ``n_chains`` → ``chains``) to the stable receipt vocabulary.
    *kernel* and *kernel_threads* are accepted and ignored: the stamp
    always reads the one rung.  They stay only because ``perfbench/``
    passes them, until a benchmark-side change drops them.
    """
    return {
        "jobs": diagnostics.get("n_jobs"),
        "batch_size": KERNEL_CHOSEN,
        "kernel": KERNEL_RUNG,
        "kernel_threads": KERNEL_THREADS,
        "chains": diagnostics.get("n_chains"),
        "rhat": diagnostics.get("rhat"),
        "ess": diagnostics.get("ess"),
        "shared_cache": diagnostics.get("shared_cache"),
    }


def format_stamp_lines(stamp: Mapping[str, object]) -> str:
    """Render a stamp mapping as ``key: value`` lines (text receipts).

    The benchmark harness stamps its table headers through this so the
    text receipts under ``benchmarks/results/`` spell provenance the same
    way the JSON surfaces do.
    """
    return "\n".join(f"{key}: {value}" for key, value in stamp.items())


def resolve_kernel_quiet(kernel: object = None) -> str:
    """Return the one kernel rung, :data:`KERNEL_RUNG`, whatever is asked.

    Stays only because ``perfbench/`` imports it, until a benchmark-side
    change drops it.
    """
    return KERNEL_RUNG


def resolve_kernel_threads(kernel_threads: object = None) -> int:
    """Return the one kernel thread count, :data:`KERNEL_THREADS`, whatever is asked.

    Stays only because ``perfbench/`` imports it, until a benchmark-side
    change drops it.
    """
    return KERNEL_THREADS
