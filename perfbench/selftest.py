#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

Runs every workload of BENCHMARK.json at toy size (8 ranks, LU fraction
0.05) with --trace 0 and --trace 1 and asserts that

  * the run exits 0 and its last stdout line is the JSON result,
  * every run passed the correctness gate (correct, failed == 0),
  * exactly the metrics BENCHMARK.json names are emitted, each with its
    unit and a finite value (end_to_end with --trace 0, per_layer with 1).

Usage, from anywhere:

    python3 perfbench/selftest.py                 # builds via run.py
    python3 perfbench/selftest.py --binary PATH   # an existing perfbench
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(cmd, expected):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    where = " ".join(cmd[-8:])
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correctness gate failed\n{proc.stdout}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", help="perfbench binary (default: build via run.py)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base = [args.binary] if args.binary else [sys.executable, os.path.join(HERE, "run.py")]
    sets = {"0": bench["end_to_end"], "1": bench["per_layer"]}
    errors = []
    for workload in bench["workloads"]:
        for trace, metrics in sets.items():
            expected = {m["name"]: m["unit"] for m in metrics}
            cmd = base + ["--workload", workload["name"], "--seed", "3", "--seconds", "1",
                          "--trace", trace, "--toy"]
            found = check(cmd, expected)
            print(f"{'FAIL' if found else 'ok  '} {workload['name']} --trace {trace}")
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
