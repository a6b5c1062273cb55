#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each end-to-end
metric's median and quartile spread, the way the benchmark's steadiness
is judged: (Q3 - Q1) / median with statistics.quantiles(values, n=4).

    python3 perfbench/spread.py attach 5            # seeds 1..5
    python3 perfbench/spread.py data 10 --first 11  # seeds 11..20

Run it from the repository root; it calls perfbench/run.sh.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("runs", type=int)
    ap.add_argument("--first", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    values = {}
    for seed in range(args.first, args.first + args.runs):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        line = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(line.items())), flush=True)
        for k, v in line.items():
            values.setdefault(k, []).append(v)
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:16s} median {med:12.4f}  spread {(q3 - q1) / med:.3f}")


if __name__ == "__main__":
    main()
