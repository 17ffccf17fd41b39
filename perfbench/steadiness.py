#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each end-to-end metric's
run-to-run spread: the distance between the first and third quartile of
its values (statistics.quantiles, n=4) as a share of their median, next to
the metric's bound in BENCHMARK.json.

Run from the repository root, for example:

    python3 perfbench/steadiness.py --workload jobs-open --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {line}",
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for k in sorted(values):
        vs = values[k]
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        print(f"{k:<14} {med:>12.5g} {(q3 - q1) / med:>8.3f} {bounds.get(k, float('nan')):>6}")


if __name__ == "__main__":
    main()
