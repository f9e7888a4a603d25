#!/usr/bin/env python3
"""Check the perfbench trajectory ledger against the benchmark definition.

    python3 tools/check_bench_ledger.py [LEDGER] [BENCHMARK]

Defaults: BENCH_perfbench.json and BENCHMARK.json at the repository root.
Exits 1 and prints one line per problem, each naming the offending path in
the ledger, unless all of these hold:

  * every entry names a 40-hex parent sha and a 16-hex change source_digest;
  * in every workload of an entry (and of its held_out runs), pairs equals
    the number of seeds;
  * every end-to-end metric of BENCHMARK.json is present with its unit and
    direction;
  * each side's quartiles are ordered: q1 <= median <= q3;
  * change_wins <= pairs;
  * the newest entry covers every workload of BENCHMARK.json.
"""
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHA = re.compile(r"[0-9a-f]{40}")
DIGEST = re.compile(r"[0-9a-f]{16}")
SIDES = ("parent", "change")


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_workload(path, run, metrics, problems):
    seeds = run.get("seeds")
    pairs = run.get("pairs")
    if not isinstance(seeds, list) or not seeds:
        problems.append(f"{path}.seeds: missing or empty")
    elif pairs != len(seeds):
        problems.append(f"{path}.pairs: {pairs!r}, but {len(seeds)} seeds")
    got = run.get("metrics")
    if not isinstance(got, dict):
        problems.append(f"{path}.metrics: missing")
        return
    for name, spec in metrics.items():
        mpath = f"{path}.metrics.{name}"
        m = got.get(name)
        if not isinstance(m, dict):
            problems.append(f"{mpath}: missing")
            continue
        if m.get("unit") != spec["unit"]:
            problems.append(f"{mpath}.unit: {m.get('unit')!r}, "
                            f"want {spec['unit']!r}")
        if m.get("better") != spec["better"]:
            problems.append(f"{mpath}.better: {m.get('better')!r}, "
                            f"want {spec['better']!r}")
        for side in SIDES:
            q = m.get(side)
            values = [q.get(k) for k in ("q1", "median", "q3")] \
                if isinstance(q, dict) else []
            if len(values) != 3 or not all(is_number(v) for v in values):
                problems.append(f"{mpath}.{side}: needs numeric q1, median "
                                "and q3")
            elif not values[0] <= values[1] <= values[2]:
                problems.append(f"{mpath}.{side}: quartiles out of order "
                                f"(q1 {values[0]}, median {values[1]}, "
                                f"q3 {values[2]})")
        wins = m.get("change_wins")
        if not isinstance(wins, int) or isinstance(wins, bool) or wins < 0:
            problems.append(f"{mpath}.change_wins: {wins!r} is not a count")
        elif is_number(pairs) and wins > pairs:
            problems.append(f"{mpath}.change_wins: {wins} > pairs {pairs}")


def check(ledger, bench):
    problems = []
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    entries = ledger.get("entries")
    if not isinstance(entries, list) or not entries:
        return ["entries: missing or empty"]
    for i, entry in enumerate(entries):
        path = f"entries[{i}]"
        sha = (entry.get("parent") or {}).get("sha")
        if not isinstance(sha, str) or not SHA.fullmatch(sha):
            problems.append(f"{path}.parent.sha: {sha!r} is not a 40-hex sha")
        digest = (entry.get("change_tree") or {}).get("source_digest")
        if not isinstance(digest, str) or not DIGEST.fullmatch(digest):
            problems.append(f"{path}.change_tree.source_digest: {digest!r} "
                            "is not a 16-hex digest")
        for group in ("workloads", "held_out"):
            runs = entry.get(group, {})
            if not isinstance(runs, dict):
                problems.append(f"{path}.{group}: not an object")
                continue
            for name, run in runs.items():
                check_workload(f"{path}.{group}.{name}", run, metrics,
                               problems)
    newest = entries[-1].get("workloads")
    newest = newest if isinstance(newest, dict) else {}
    for name in workloads:
        if name not in newest:
            problems.append(f"entries[{len(entries) - 1}].workloads.{name}: "
                            "missing from the newest entry")
    return problems


def main():
    ledger_path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "BENCH_perfbench.json")
    bench_path = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
        ROOT, "BENCHMARK.json")
    with open(ledger_path) as f:
        ledger = json.load(f)
    with open(bench_path) as f:
        bench = json.load(f)
    problems = check(ledger, bench)
    for p in problems:
        print(f"{ledger_path}: {p}")
    if problems:
        return 1
    print(f"{ledger_path}: {len(ledger['entries'])} entries check out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
