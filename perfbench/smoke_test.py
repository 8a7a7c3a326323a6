#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at the tiny size, untraced and traced, and asserts that
each run prints a well-formed result line in which every metric that
BENCHMARK.json names is present, finite and carries its declared unit, and
that the run's own checks passed.  It takes about a minute (most of it the
first build).  The tiny size exercises the code paths only; its numbers are
not measurements.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload} trace {trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: run reported incorrect output"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and result["failed"] == 0, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, (
        f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{label}: {m['name']} = {value!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} trace {trace}"
            check(run(w["name"], trace), spec[key], label)
            print(f"[ OK ] {label}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
