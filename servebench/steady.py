#!/usr/bin/env python3
"""Steadiness check: run one workload k times and report the spread.

    python3 servebench/steady.py --workload NAME [--runs 10]

Run k gets seed k (1, 2, ...) and BENCHMARK.json's run_seconds. For every
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread, the distance between the quartiles as a share of the
median. For end-to-end metrics it also prints the bound from
BENCHMARK.json and whether the spread fits it ("ok"), fits a third of
it ("steady"), or not ("WIDE"). The share of failed operations must be
the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, shares = {}, set()
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "servebench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect output" % seed)
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
        for n, m in result["metrics"].items():
            values.setdefault(n, []).append(m["value"])
    print("%-32s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for n, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(n)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread <= bound / 3 else "ok" if spread <= bound else "WIDE"
        print("%-32s %12.5g %12.5g %12.5g %8.3f %6s %s" % (
            n, med, q1, q3, spread, "" if bound is None else bound, verdict))
    failed_shares = sorted(shares, key=str)
    print("failed share: %s" % ("0 in every run" if failed_shares == [0] else failed_shares))


if __name__ == "__main__":
    main()
