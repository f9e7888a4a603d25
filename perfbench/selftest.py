#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced with small inputs
and asserts, for each run, that it exits 0, passes its correctness gate with
no failed operation, and prints exactly the metrics BENCHMARK.json names for
its mode, each with its unit and a finite value.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if (result.get("correct") is not True or result.get("failed") != 0
            or not result.get("attempted", 0) >= 1):
        problems.append("correctness gate: correct={} attempted={} failed={}"
                        .format(result.get("correct"), result.get("attempted"),
                                result.get("failed")))
    got = result.get("metrics", {})
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        problems.append(f"missing metrics {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(w["name"], trace, expected[trace])
            print(("ok    " if not problems else "FAIL  ")
                  + f"{w['name']} --trace {trace}")
            for p in problems:
                print("      " + p)
            failures += bool(problems)
    if failures:
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
