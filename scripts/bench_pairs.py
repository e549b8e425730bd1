#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, alternating which goes first.

Usage: python scripts/bench_pairs.py BASE CHANGE WORKLOAD N [--first-seed S] [--seconds T]
       python scripts/bench_pairs.py BASE CHANGE stages N --out BENCH_<pr>.json

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
Next to it, a gain verdict: `gain shown` if CHANGE won at least 9 of every
10 pairs (ties count for neither) and its median beats BASE's by more than
BASE's interquartile spread, else `no gain shown`.

With the workload `stages`, each round runs this script's sibling
`bench_stages.py` once per checkout instead, in a fresh interpreter from
the checkout's root with the checkout's `src` first on PYTHONPATH, so both
sides run the same stage code and settings on their own package; rounds
alternate which side goes first as above.  Every row except the settings
(SETTINGS) is a time or a resident set, where lower is better.  It prints,
per row, both sides' medians and ranges, the change in the median, the
rounds the change won and the gain verdict above, and writes the JSON
file --out: every round's rows for both sides (`parent` and `change`, in
round order, as BENCH_24.json), which side went first in each round, and
each row's summary.
It only calls the benchmark; nothing under either checkout is written
apart from what the benchmark itself writes and deletes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from fresh import fresh_python

STAGES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_stages.py")
# bench_stages.py's fields that describe its run rather than time it
SETTINGS = ("n", "angles", "seed", "repeat", "unit", "distinct_columns", "noisy_distinct_columns")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    out = fresh_python(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"], cwd=checkout)
    return json.loads(out.strip().splitlines()[-1])


def run_stages(checkout: str) -> dict:
    paths = [os.path.join(os.path.abspath(checkout), "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return json.loads(fresh_python([STAGES], cwd=checkout, env=env).strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def gain(base: list[float], change: list[float], better: str) -> tuple[int, bool]:
    """The pairs the change won, and whether that shows a gain (see the
    module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b1, b2, b3 = quartiles(base)
    c2 = statistics.median(change)
    return wins, 10 * wins >= 9 * len(base) and sign * (b2 - c2) > b3 - b1


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


def pair_order(i: int) -> tuple[str, str]:
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def workload_pairs(args) -> None:
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    for i in range(args.n):
        seed = args.first_seed + i
        for side in pair_order(i):
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
        wins, shown = gain(base, change, direction)
        print(f"{name}: base {b2:.4g} [{b1:.4g}-{b3:.4g}]  change {c2:.4g} [{c1:.4g}-{c3:.4g}]  "
              f"{100.0 * (c2 - b2) / b2:+.1f}%  change better in {wins}/{args.n}  "
              f"median gap {abs(c2 - b2):.4g} vs base IQR {b3 - b1:.4g}  "
              f"{verdict(base, change, direction, metric['bound'])} "
              f"({100.0 * metric['bound']:.0f}%), {'gain shown' if shown else 'no gain shown'}")


def stage_pairs(args) -> None:
    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    for i in range(args.n):
        for side in pair_order(i):
            runs[side].append(run_stages(sides[side]))
            print(f"round {i + 1} {side} done", flush=True)

    rows = [k for k in runs["change"][0] if k not in SETTINGS]
    summary = {}
    print(f"\nstages, {args.n} rounds")
    for name in rows:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        b1, b2, b3 = quartiles(base)
        c2 = statistics.median(change)
        wins, shown = gain(base, change, "lower")
        summary[name] = {
            "parent_median": b2, "parent_range": [min(base), max(base)],
            "parent_iqr": [b1, b3],
            "change_median": c2, "change_range": [min(change), max(change)],
            "change_lower_in": wins, "rounds": args.n,
            "change_pct": round(100.0 * (c2 - b2) / b2, 2) if b2 else None,
            "gain_shown": shown,
        }
        pct = f"{100.0 * (c2 - b2) / b2:+.1f}%" if b2 else "n/a"
        print(f"{name}: base {b2:.4g} [{min(base):.4g}-{max(base):.4g}]  "
              f"change {c2:.4g} [{min(change):.4g}-{max(change):.4g}]  {pct}  "
              f"change lower in {wins}/{args.n}  median gap {abs(c2 - b2):.4g} vs base IQR "
              f"{b3 - b1:.4g}  {'gain shown' if shown else 'no gain shown'}")
    record = {
        "script": "scripts/bench_stages.py",
        "command": "python scripts/bench_pairs.py BASE CHANGE stages "
                   f"{args.n} --out {os.path.basename(args.out)}",
        "machine": f"{os.cpu_count()} cores, {platform.machine()}, Python {platform.python_version()}",
        "first": [pair_order(i)[0].replace("base", "parent") for i in range(args.n)],
        "parent": runs["base"],
        "change": runs["change"],
        "summary": summary,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("workload", help="a benchmark workload, or `stages`")
    ap.add_argument("n", type=int, help="number of pairs (seeds, or stage rounds)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", help="the JSON file of a `stages` run")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("n must be at least 1")
    if (args.workload == "stages") != (args.out is not None):
        ap.error("--out goes with the workload `stages`, and only with it")
    if args.workload == "stages":
        stage_pairs(args)
    else:
        workload_pairs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
