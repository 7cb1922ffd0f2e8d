"""The benchmark's own check: every workload at smoke scale, both trace modes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For each workload and ``--trace 0/1`` it runs ``run.py --smoke`` and checks
the result line against ``BENCHMARK.json``: exactly the four keys, every
declared metric (and no other) with its declared unit, all outputs correct,
nothing failed.  It also checks that the benchmark refuses to run, without
printing a result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Smoke runs cross-check the exact pair set against
ALLPAIRS.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_once(spec: dict, workload: str, trace: int) -> None:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
               "--seconds", "3", "--trace", str(trace), "--smoke"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if completed.returncode != 0:
        fail(f"{workload} trace={trace} exited {completed.returncode}:\n{completed.stderr[-3000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={result['correct']} failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if reported != declared:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(reported))}, extra {sorted(set(reported) - set(declared))}, "
             f"units {[(n, reported[n], declared[n]) for n in declared if n in reported and reported[n] != declared[n]]}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            fail(f"{workload} trace={trace}: {name} is not a number")
    print(f"smoke: {workload} trace={trace} ok ({result['attempted']} attempted)", file=sys.stderr)


def refuses_without_program(spec: dict) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        command = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                     "--seconds", "3", "--trace", "0"]
        completed = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or completed.stdout.strip():
        fail("the benchmark ran (or printed a result) without the program's source")
    print("smoke: refuses to run without the program ok", file=sys.stderr)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    refuses_without_program(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            run_once(spec, workload["name"], trace)
    print("smoke: all ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
