"""The one execution stamp every result surface shares.

Three surfaces attach "what actually ran" provenance to their output: the
CLI's JSON payloads (``repro-bc estimate`` / ``relative`` / ``batch``), the
HTTP daemon's per-response receipts (``repro-bc serve``,
:mod:`repro.serving`), and the benchmark harness's table headers
(``benchmarks/harness.py``).  They used to each assemble their own copy of
the key list, which is exactly how provenance drifts: a knob added to one
surface but not the others silently disappears from the receipts readers
compare.  This module is the single assembly point — the key set, the
diagnostics-to-stamp mapping and the quiet kernel resolution live here and
nowhere else (``tests/test_serving.py`` pins the three surfaces against
each other).
"""

from __future__ import annotations

from typing import Mapping, Optional

__all__ = [
    "EXECUTION_STAMP_KEYS",
    "KERNEL_CHOSEN",
    "execution_stamp",
    "format_stamp_lines",
    "resolve_kernel_quiet",
]

#: The stamp's ``batch_size``: block widths are the kernels' choice.
KERNEL_CHOSEN = "kernel-chosen"

#: The keys of every execution stamp, in emission order.  ``jobs`` is
#: always set (every estimate runs through a resolved plan) and
#: ``batch_size`` always reads :data:`KERNEL_CHOSEN` (the batched kernels
#: pick their own block widths; the key stays so receipts keep one
#: shape); null ``chains`` / ``rhat`` / ``ess`` means the multi-chain
#: driver did not run — so every surface emits all of them.
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
    *kernel* is the resolved CSR kernel rung the caller ran and
    *kernel_threads* the per-kernel thread count (estimator diagnostics
    predate both knobs, so they travel separately).
    """
    return {
        "jobs": diagnostics.get("n_jobs"),
        "batch_size": KERNEL_CHOSEN,
        "kernel": kernel,
        "kernel_threads": kernel_threads,
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


def resolve_kernel_quiet(kernel: str) -> str:
    """Resolve a kernel request to the rung that actually runs, silently.

    For stamps only: when ``compiled`` degrades to ``csr`` without numba,
    the run itself already warned once — the stamp just records what ran,
    so the fallback warning is suppressed here.
    """
    import warnings

    from repro.graphs.csr import resolve_kernel

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return resolve_kernel(kernel)
