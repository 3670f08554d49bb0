#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, tiny inputs, about a second.

The workloads are those BENCHMARK.json lists plus `churn`, which runs on
demand only (see README.md).

For each workload and both trace modes it checks that the result line has
exactly the metrics BENCHMARK.json lists (end-to-end untraced, per-layer
traced), each with its unit and a finite value, that no operation failed,
and that equal seeds give identical inputs (the printed digest) while
different seeds do not.

    python3 perfbench/selftest.py

Run it from the repository root (the first run builds the benchmark).
Exits non-zero on the first failed check.
"""

import json
import math
import subprocess
import sys


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    digest = next(l for l in lines if l.startswith("inputs_digest="))
    return json.loads(lines[-1]), digest


def check(bench, workload, trace):
    result, digest = run(bench, workload, 1, trace)
    catalogue = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in catalogue}
    got = result["metrics"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(got) != set(want):
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"failed_frac {result['failed']}/{result['attempted']}")
    if problems:
        sys.exit(f"FAIL {workload} trace={trace}:\n  " + "\n  ".join(problems))
    print(f"ok   {workload} trace={trace}: {len(got)} metrics, "
          f"0 of {result['attempted']} failed")
    return digest


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for name in [w["name"] for w in bench["workloads"]] + ["churn"]:
        first = check(bench, name, 0)
        check(bench, name, 1)
        again = run(bench, name, 1, 0)[1]
        other = run(bench, name, 2, 0)[1]
        if first != again or first == other:
            sys.exit(f"FAIL {name}: digests seed1={first} seed1={again} seed2={other}")
        print(f"ok   {name}: seed 1 repeats its inputs ({first}), seed 2 differs")
    print("self-test passed")


if __name__ == "__main__":
    main()
