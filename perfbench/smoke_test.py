#!/usr/bin/env python3
"""Smoke test for the perfbench benchmark at a tiny input size.

Usage (from the repository root):
    python3 perfbench/smoke_test.py

For every workload in workloads.json (BENCHMARK.json's and any kept for
runs by hand), runs perfbench/run.py on the workload's smoke_sequences
inputs (each solved once) with --trace 0 and --trace 1
and checks that the last stdout line is the result object, that it names
exactly the end-to-end (resp. per-layer) metrics of BENCHMARK.json, each
with its unit, and that every solve passed. Then injects a defect into the
family output and checks that every solve is counted as failed rather than
passed. Exits non-zero on the first violation.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, size, trace, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace),
           "--size", str(size), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in workloads:
        size = workloads[name]["smoke_sequences"]
        for trace in (0, 1):
            result = run(name, size, trace)
            where = f"{name} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{where}: metrics/units differ from BENCHMARK.json: "
                  f"missing {sorted(set(expected[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected[trace]))}, "
                  f"units {[k for k in got if got[k] != expected[trace].get(k)]}")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{where}: non-numeric metric value")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{where}: {result}")
            print(f"ok   {where}: {len(got)} metrics, "
                  f"{result['attempted']} solves passed")

    for name in workloads:
        for trace in (0, 1):
            result = run(name, workloads[name]["smoke_sequences"], trace,
                         ["--corrupt-families"])
            check(not result["correct"]
                  and result["failed"] == result["attempted"] >= 1,
                  f"{name} trace={trace}: corrupted families passed: "
                  f"{result['attempted']} attempted, {result['failed']} failed")
            print(f"ok   {name} trace={trace}: corrupted families counted as "
                  f"{result['failed']}/{result['attempted']} failed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
