"""Smoke test of the benchmark itself (tiny sizes, about a minute).

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run exit 0 and
print every metric ``BENCHMARK.json`` names, with its unit; that two runs
at the same seed print the same answers digest; and that answers scaled
by 2 (``--corrupt 1``, a plausible normalisation slip) fail the run through
the pooled-error check alone, not only through the bit-for-bit one.  It also
checks that the benchmark refuses to run, printing no result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "2"
BARE = ROOT / ".bench_out" / "smoke-bare"


def run(workload: str, *extra: str, cwd: Path = ROOT):
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", SECONDS]
    command += ["--size", "tiny", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    return done.returncode, lines, done.stderr


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_result(workload: str, trace: int) -> str:
    code, lines, stderr = run(workload, "--trace", str(trace))
    expect(code == 0, f"{workload} trace={trace} exited {code}: {stderr[-2000:]}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
    expect(result["correct"] is True, f"{workload} trace={trace}: checker failed {info['check']}")
    expect(result["attempted"] >= 1 and result["failed"] == 0, f"{workload}: failed ops")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        expect(got is not None, f"{workload} trace={trace}: missing {metric['name']}")
        expect(got["unit"] == metric["unit"], f"{workload}: unit of {metric['name']}")
        expect(isinstance(got["value"], (int, float)), f"{workload}: value of {metric['name']}")
    expect(set(result["metrics"]) == {m["name"] for m in wanted}, f"{workload}: extra metrics")
    return info["digest"]


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        first = check_result(workload, 0)
        second = check_result(workload, 1)
        expect(first == second, f"{workload}: digest differs between two runs at one seed")
        code, lines, _ = run(workload, "--corrupt", "1")
        check = json.loads(lines[-2])["check"] if code == 0 else {}
        caught = code == 0 and json.loads(lines[-1])["correct"] is False
        expect(caught and check["accurate"] is False, f"{workload}: corrupted answers passed {check}")
        print(f"ok {workload}")
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, BARE / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(SPEC["workloads"][0]["name"], cwd=BARE)
    shutil.rmtree(BARE)
    expect(code != 0 and not lines, "a checkout without the library must fail without a result")
    print("ok bare checkout refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
