"""Benchmark entry point: one workload, one seed, one measured window.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-query --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``ops_per_s``, ``p90_ms``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from a
traced phase (see ``tracing.py``).  The line before it carries what the
metrics do not: the execution stamp, environment, p50, the answers digest
and the check details.

Each run is one closed loop with one client in this fresh process, with
every ``REPRO_*`` knob pinned before the library is imported, so no worker
pool starts.  Set-up (graph build, CSR, session or daemon open, pre-warm
and a discarded warm-up prefix of ops) is repeated ``SETUP_REPEATS`` times
and ``setup_s`` is the median; a traced run sets up once.  Then ops run
until ``--seconds`` of op time have been measured, rounded up to whole
cycles of the workload's op mix.
Op times are wall-clock; the info line also gives the process's CPU time
per wall second over the measured window, which falls below 1 when the
host takes the CPU away (steal on a shared VM).

A traced run first times ``trace_ops`` ops untraced, then times ops traced,
so per-layer counts repeat exactly at a given seed and the two phases give
the tracing overhead ``trace.overhead_frac``.  On the read-only workloads
(``replayable``) the traced phase replays the same ops, and their answers
must match the untraced ones bit for bit; on the two mutating workloads it
runs the next ``trace_ops`` ops, so there the figure also carries the
op-mix difference between two sets of ops (its seed-to-seed spread shows
how much).  The spans go to ``.bench_out/spans/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

#: ``REPRO_*`` knobs pinned for every workload process (all others are cleared).
PINNED_ENV = {
    "REPRO_BACKEND": "csr",
    "REPRO_KERNEL": "csr",
    "REPRO_KERNEL_THREADS": "1",
    "REPRO_SHARED_CACHE": "0",
    "REPRO_SHARED_GRAPH": "0",
    "REPRO_MP_CONTEXT": "spawn",
    "REPRO_INVALIDATION": "delta",
}
#: Native thread pools pinned to one thread: one client on a shared box.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
#: Answers hashed into the digest: the first timed ops of the run (no more
#: than ``trace_ops`` of a replayable workload, so traced runs cover them).
DIGEST_OPS = 30
#: Hard stop on the measured loop, as a multiple of ``--seconds`` of wall time.
WALL_FACTOR = 3.0


def pin_environment() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    for key in THREAD_ENV:
        os.environ[key] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--corrupt",
        type=int,
        choices=(0, 1),
        default=0,
        help="scale every checked answer by 2 before the checks (smoke test)",
    )
    return parser.parse_args(argv)


def run_ops(workload, first: int, stop, records, latencies):
    """Run ops from *first* until ``stop(count, op_seconds, wall_seconds)``.

    Appends each op's record and latency; returns the number of failed ops.
    """
    from workloads import valid_record

    failed = 0
    i = first
    busy = 0.0
    started = time.perf_counter()
    while not stop(i - first, busy, time.perf_counter() - started):
        t0 = time.perf_counter()
        try:
            record = workload.run_op(i)
            ok = valid_record(record)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            record = {"op": i, "kind": "error", "error": f"{type(exc).__name__}: {exc}"}
            ok = False
        elapsed = time.perf_counter() - t0
        busy += elapsed
        latencies.append(elapsed)
        failed += not ok
        records.append(record)
        if ok:
            workload.capture(i, record)
        i += 1
    return failed


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def environment(workload) -> dict:
    import numpy
    import scipy

    from repro.execution import resolve_kernel_threads
    from repro.execution.stamp import EXECUTION_STAMP_KEYS, execution_stamp, resolve_kernel_quiet

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    stamp = workload.stamp()
    if "kernel" not in stamp:
        stamp = execution_stamp(stamp, resolve_kernel_quiet("auto"), resolve_kernel_threads(None))
    return {
        "stamp": {key: stamp.get(key) for key in EXECUTION_STAMP_KEYS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


def stop_resource_tracker() -> None:
    """Stop (and wait for) the helper process shared memory starts.

    Registered with ``atexit`` before ``multiprocessing`` is imported, so it
    runs after multiprocessing's own exit hook has released every segment
    and semaphore: the tracker then exits with nothing left to clean.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def run(args) -> tuple:
    from checks import answers_digest, verify
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size)
    setup_times = []
    first = workload.warmup_ops
    records, latencies = [], []
    info = {"workload": args.workload, "seed": args.seed, "size": args.size}
    try:
        # setup_s is not a per-layer metric: a traced run sets up once.
        for repeat in range(1 if args.trace else SETUP_REPEATS):
            if repeat:
                workload.close()
            gc.collect()  # the last set-up's garbage is not this one's cost
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if args.trace:
            n = workload.trace_ops
            failed = run_ops(workload, first, lambda c, b, w: c >= n, records, latencies)
            untraced = sum(latencies)
            start = first if workload.replayable else first + n
            spans = f".bench_out/spans/{args.workload}-seed{args.seed}.jsonl"
            traced_records = []
            metrics, traced, failed_traced = trace_phase(
                workload, start, n, traced_records, spans
            )
            if workload.replayable:
                # A replay must answer exactly as the untraced pass did.
                failed_traced += sum(
                    answers_digest([a]) != answers_digest([b])
                    for a, b in zip(records, traced_records)
                )
            records += traced_records
            failed += failed_traced
            metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
        else:
            budget = args.seconds
            cycle = workload.cycle
            failed = run_ops(
                workload,
                first,
                lambda c, b, w: (b >= budget and c % cycle == 0) or w >= WALL_FACTOR * budget,
                records,
                latencies,
            )
            metrics = {
                "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
                "p90_ms": (1e3 * percentile(latencies, 0.90), "ms"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
        info["cpu_per_wall"] = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        info.update(environment(workload))
        info["p50_ms"] = 1e3 * percentile(latencies, 0.5)
        info["timed_ops"] = len(latencies)
        info["setup_s_each"] = setup_times
        info["peak_rss_mb"] = peak_rss_mb
        first_answers = {}
        for record in records:  # a traced replay repeats op ids: keep the first
            first_answers.setdefault(record["op"], record)
        info["digest"] = answers_digest(list(first_answers.values())[:DIGEST_OPS])
        info["errors"] = sorted({r["error"] for r in records if r["kind"] == "error"})[:5]
        t0 = time.perf_counter()
        check = verify(workload, corrupt=bool(args.corrupt))
        info["check"] = check
        info["check_s"] = time.perf_counter() - t0
    finally:
        workload.close()
    result = {
        "correct": check["correct"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return result, info


def trace_phase(workload, first, n, records, spans_path):
    """Run *n* ops traced; return (metrics, op seconds, failed ops)."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    workload.span_hook = tracer
    latencies = []
    failed = 0
    try:
        for i in range(first, first + n):
            tracer.op = i
            failed += run_ops(workload, i, lambda c, b, w: c >= 1, records, latencies)
    finally:
        tracer.uninstall()
        workload.span_hook = None
    metrics = tracing.layer_metrics(tracer, latencies)
    Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path)
    return metrics, sum(latencies), failed


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(src))
    atexit.register(stop_resource_tracker)
    result, info = run(args)
    print(json.dumps(info, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
