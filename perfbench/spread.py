#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload exec-n32 --seeds 1-10 --seconds 25 [--trace 0]

For each end-to-end metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound from BENCHMARK.json: a spread
under a third of the bound is what the benchmark aims for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="seeds, as 1-10 or 3,5,8")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in seed_list(args.seeds):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} " +
              " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        if len(xs) < 2 or med == 0:
            print(f"{name:28s} median={med:.6g}")
            continue
        q = statistics.quantiles(xs, n=4)
        spread = (q[2] - q[0]) / med
        bound = bounds.get(name)
        note = "" if bound is None else f" bound={bound} spread/bound={spread / bound:.2f}"
        print(f"{name:28s} median={med:.6g} spread={spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
