#!/usr/bin/env python3
"""Steadiness tool: runs workloads repeatedly and derives metric bounds.

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--workloads a,b]
                                [--seconds S] [--out results.json]

Each workload runs --runs times, each with its own seed (--seed, --seed+1,
...), through perfbench/run.py with --trace 0. For every end-to-end metric
the tool prints the median, the quartiles (statistics.quantiles, n=4) and
the spread, (q3 - q1) / median, flagged WIDE when it is not below a third
of the metric's bound in BENCHMARK.json.

The suggested bound of a metric is four times its widest spread over the
workloads (so that spread stays below a third of the bound with room to
spare), rounded up to 0.01, within [floor, 0.25]. The floor is 0.05 for
simulated and counted metrics (ticks, bytes, MB) and 0.15 for wall-clock
ones (s, ms, us, ops/s): two sets of ten runs of the same code on one host
were seen to differ by 12% in median throughput, more than their spreads
showed, and the bound is what a second set of runs is compared with.
setup_s is then raised to the largest bound of any metric, so that set-up
carries the loosest one. Those are the bounds recorded in BENCHMARK.json.
The share of failed ops must be the same in every run; the tool flags it
when it is not.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CAP = 0.25
FLOOR = 0.05
WALL_FLOOR = 0.15
WALL_UNITS = {"s", "ms", "us", "ops/s"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().split("\n")[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args()

    names = [m["name"] for m in spec["end_to_end"]]
    raw = {}
    widest = {n: 0.0 for n in names}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed + i, args.seconds)
            results.append(r)
            print(f"{workload} seed {args.seed + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr)
        raw[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed share "
              f"{'steady' if len(shares) == 1 else 'VARIES'} {sorted(shares)}")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if len(values) < 2:
                print(f"  {name:30} missing")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else math.inf
            widest[name] = max(widest[name], spread)
            bound = next(m["bound"] for m in spec["end_to_end"]
                         if m["name"] == name)
            flag = "" if spread < bound / 3 else "  WIDE"
            print(f"  {name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.2f}{flag}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    suggested = {}
    for name in names:
        floor = WALL_FLOOR if units[name] in WALL_UNITS else FLOOR
        suggested[name] = min(
            CAP, max(floor, math.ceil(4 * widest[name] * 100) / 100))
    suggested["setup_s"] = max(suggested.values())
    print("\nsuggested bounds (4 x widest spread, within [floor, 0.25]; "
          "setup_s the largest):")
    for name in names:
        floor = WALL_FLOOR if units[name] in WALL_UNITS else FLOOR
        print(f"  {name:30} {suggested[name]:.2f}  (widest spread "
              f"{widest[name]:.4f}, floor {floor:.2f})")
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
