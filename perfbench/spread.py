#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, for every end-to-end metric,
the median, the quartiles and the interquartile range as a share of the
median (quartiles as `statistics.quantiles(values, n=4)` gives them),
beside the metric's bound from BENCHMARK.json. A metric is steady when its
spread stays below a third of its bound.

    python3 perfbench/spread.py --workload notify --seeds 1-5

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed",
                  file=sys.stderr)
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in metrics:
        vs = values[m["name"]]
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s":
            flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
        print(f"{m['name']:<34} {len(vs):>3} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} "
              f"{spread:>8.3f} {bound if bound is not None else '':>6} {flag}")


if __name__ == "__main__":
    main()
