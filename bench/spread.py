"""Two sets of runs of one workload, and each metric's spread against its bound.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs bench/run.py --runs times per set, one seed per run (the second set
continues the seed sequence), one run at a time.  For every end-to-end
metric it prints each set's median and spread (the distance between the
first and third quartile over the median) and the shift of the second
median against the first, both as shares next to the metric's bound from
BENCHMARK.json, and the share of failed operations in each set.  Exits 1
if a spread or a shift exceeds its bound, or if the failed shares differ.
"""

from __future__ import annotations

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_set(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=600, check=True).stdout
        doc = json.loads(out.strip().splitlines()[-1])
        if not doc["correct"]:
            raise SystemExit("seed %d: outputs incorrect" % seed)
        runs.append(doc)
        print("  seed %d: %s" % (seed, ", ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in doc["metrics"].items())),
            flush=True)
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    s0 = args.first_seed
    sets = []
    for k in range(2):
        seeds = range(s0 + k * args.runs, s0 + (k + 1) * args.runs)
        print("set %d, seeds %d..%d" % (k + 1, seeds[0], seeds[-1]), flush=True)
        sets.append(one_set(args.workload, seeds, seconds))
    ok = True
    print("%-12s %8s %10s %8s %10s %8s %8s" % (
        "metric", "bound", "median1", "spread1", "median2", "spread2", "shift"))
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        (sp1, med1), (sp2, med2) = (
            spread([r["metrics"][name]["value"] for r in runs]) for runs in sets)
        shift = (med2 - med1) / med1
        if m["better"] == "higher":
            shift = -shift
        bad = shift > bound or max(sp1, sp2) > bound
        ok = ok and not bad
        print("%-12s %8.3f %10.4g %8.3f %10.4g %8.3f %8.3f%s" % (
            name, bound, med1, sp1, med2, sp2, shift, "  OVER" if bad else ""))
    shares = [sorted({(r["failed"], r["attempted"]) for r in runs})
              for runs in sets]
    shares_exact = [{fractions.Fraction(f, a) for f, a in s} for s in shares]
    print("failed/attempted per set:", shares)
    if len(shares_exact[0] | shares_exact[1]) != 1:
        print("failed shares differ")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
