#!/usr/bin/env python3
"""Run one workload several times and report how steady its metrics are.

Usage, from the root of the repository:

    python3 perfbench/repeat.py --workload live-write --runs 10 [--first-seed 1]
        [--seconds 20] [--trace 0]

Run i uses seed first-seed + i. For every metric it prints the median,
the first and third quartiles (statistics.quantiles with n=4), the spread
(Q3 - Q1) / median, and for end-to-end metrics the bound from
BENCHMARK.json and whether the spread is under a third of it. It also
prints the failed share of every run, which must be the same in all of
them. The exit code is 1 when a run fails, is incorrect, or the failed
share differs between runs.
"""

import argparse
import json
import os
import statistics
from fractions import Fraction
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(a.runs):
        seed = a.first_seed + i
        r = one_run(a.workload, seed, seconds, a.trace)
        share = r["failed"] / r["attempted"]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} failed share={share:.6f}", flush=True)
        results.append(r)

    ok = all(r["correct"] for r in results)
    if len({Fraction(r["failed"], r["attempted"]) for r in results}) > 1:
        print("failed share differs between runs")
        ok = False
    print(f"\n{'metric':32} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}  steady")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
