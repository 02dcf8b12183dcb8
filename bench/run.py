"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh interpreter
against the package under ./src.  Set-up time (interpreter start, imports,
input generation up to the first timed item) is measured in several fresh
interpreters, before and after the run, and reported as the median.  The
workload then runs whole rounds over its input set until the next round
would end past S seconds (at least one round), and every output is
checked.  With --trace 1 the run
makes one untraced round, then one round with per-layer spans, and reports
the per-layer metrics and the tracing overhead instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("census-exact", "census-geometry", "exact-large", "ors")
SETUP_SAMPLES = 9          # fresh interpreters timed for setup_s, the run's own included
CHILD_TIMEOUT_S = 170


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten items beyond it, or
    100 (the maximum) when there are fewer than 40 items."""
    if n < 40:
        return 100
    return int(100 - 1000 / n)


def item_stats(rounds):
    """Median per item over rounds, then the median and the tail over items."""
    per_item = [statistics.median(ts) for ts in zip(*(r.times for r in rounds))]
    p = tail_percentile(len(per_item))
    if p == 100:
        tail = max(per_item)
    else:
        tail = statistics.quantiles(per_item, n=100, method="inclusive")[p - 1]
    return statistics.median(per_item), tail


# -- child: one fresh interpreter -----------------------------------------


def child(args):
    sys.path.insert(0, HERE)
    import workloads  # imports twobridge and mpmath

    import twobridge
    if os.path.dirname(os.path.abspath(twobridge.__file__)) != \
            os.path.join(SRC, "twobridge"):
        raise SystemExit("twobridge imported from %s, not from %s"
                         % (twobridge.__file__, SRC))
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT_DIR)
    ready = time.perf_counter()
    if args.child == "setup":
        print(json.dumps({"ready": ready}))
        return
    result = {"ready": ready}
    rounds = []
    if args.trace:
        import tracing

        rounds.append(wl.run_round())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds.append(wl.run_round())
        finally:
            tracer.remove()
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = (rounds[1].wall, "s")
        metrics["trace.overhead_s"] = (rounds[1].wall - rounds[0].wall, "s")
    else:
        start = time.perf_counter()
        while True:
            rounds.append(wl.run_round())
            elapsed = time.perf_counter() - start
            if elapsed + rounds[-1].wall > args.seconds:
                break
        p50, tail = item_stats(rounds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(r.wall for r in rounds), "s"),
            "item_p50_s": (p50, "s"),
            "item_tail_s": (tail, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    # Every round repeats the same operations: check the first round's
    # outputs, and that the other rounds gave the same.
    problems = wl.check(rounds[0])
    for i, rnd in enumerate(rounds[1:], start=1):
        if rnd.outputs != rounds[0].outputs or rnd.failed != rounds[0].failed:
            problems.append("round %d differs from round 0" % i)
    for p in problems[:20]:
        print("check failed: %s" % p, file=sys.stderr)
    result.update({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "rounds": len(rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    print(json.dumps(result))


# -- parent: set-up samples, the run, the result line ---------------------


def spawn(args, mode, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s child exited with code %d"
                           % (mode, proc.returncode))
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc, doc["ready"] - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args)
        return 0
    if not os.path.isfile(os.path.join(SRC, "twobridge", "__init__.py")):
        print("error: no package at %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    def setup_samples(n):
        return [spawn(args, "setup", deadline - time.perf_counter())[1]
                for _ in range(n)]

    # Half the set-up samples before the run and half after it, so that
    # their median does not follow a short slow spell of the machine.
    try:
        setups = setup_samples((SETUP_SAMPLES - 1) // 2)
        doc, setup = spawn(args, "run", deadline - time.perf_counter())
        setups += setup_samples(SETUP_SAMPLES - 1 - len(setups)) + [setup]
    except (RuntimeError, ValueError, KeyError, IndexError,
            subprocess.TimeoutExpired) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    metrics = doc["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
