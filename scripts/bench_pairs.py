#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, alternating which goes first.

Usage: python scripts/bench_pairs.py BASE CHANGE WORKLOAD N [--first-seed S] [--seconds T]

Runs `python3 perfbench/run.py --workload WORKLOAD --seed s --seconds T
--trace 0` from the root of each checkout for the N seeds S, S+1, ...,
one pair per seed; even pairs run BASE first and odd pairs CHANGE first,
so a drift in machine load does not favour one side.  Prints each run's
end-to-end metrics, then for every metric both sides' median and
quartiles, the change in the median, the number of pairs the change won
(by the metric's `better` direction in CHANGE's BENCHMARK.json), the
median gap against BASE's interquartile spread, and a verdict against the
metric's `bound` there, a share of BASE's median:
- `worse beyond bound` if CHANGE's median is worse than BASE's by more
  than the bound;
- otherwise `unresolved` if BASE's interquartile spread over its median
  exceeds the bound and not every CHANGE run beats every BASE run, since
  runs that spread that widely cannot show that the metric held;
- otherwise `within bound`.
It only calls the benchmark; nothing under either checkout is written
apart from what the benchmark itself writes and deletes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The change's median against BASE's and the bound (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0  # on sign * value, lower is better
    base, change = [sign * x for x in base], [sign * x for x in change]
    b1, b2, b3 = quartiles(base)
    if statistics.median(change) - b2 > bound * abs(b2):
        return "worse beyond bound"
    if b3 - b1 > bound * abs(b2) and max(change) >= min(base):
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("workload")
    ap.add_argument("n", type=int, help="number of pairs (seeds)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("n must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    for i in range(args.n):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {side:6s} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {values}", flush=True)

    print(f"\n{args.workload}, {args.n} pairs, seeds {args.first_seed}-{args.first_seed + args.n - 1}")
    for side in sides:
        rs = runs[side]
        print(f"{side}: all correct={all(r['correct'] for r in rs)}, "
              f"failed {sum(r['failed'] for r in rs)} of {sum(r['attempted'] for r in rs)} operations")
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        print(f"{name}: base {b2:.4g} [{b1:.4g}-{b3:.4g}]  change {c2:.4g} [{c1:.4g}-{c3:.4g}]  "
              f"{100.0 * (c2 - b2) / b2:+.1f}%  change better in {wins}/{args.n}  "
              f"median gap {abs(c2 - b2):.4g} vs base IQR {b3 - b1:.4g}  "
              f"{verdict(base, change, direction, metric['bound'])} "
              f"({100.0 * metric['bound']:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
