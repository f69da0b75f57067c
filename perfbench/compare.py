#!/usr/bin/env python3
"""Compare two sets of perfbench results against the bounds in BENCHMARK.json.

Each input file holds the standard output of one or more benchmark runs
(the `perfbench-stamp` line and the JSON result line of each run, as the
benchmark prints them). Runs are grouped by workload; for every end-to-end
metric the medians of the two sets are compared, and a change worse than the
metric's bound is a regression.

Results are only comparable when they were measured at the same thread count
and SIMD tier: the script refuses to compare runs whose `nproc` or `simd`
differ, within or across the two sets.

    python3 perfbench/compare.py base.log new.log [--bench BENCHMARK.json]

Exit status: 0 no regression, 1 regression, 2 the inputs cannot be compared.
"""

import argparse
import json
import statistics
import sys


def load_runs(path):
    """(stamp, result) pairs in file order."""
    runs, stamp = [], None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("perfbench-stamp "):
                stamp = json.loads(line[len("perfbench-stamp "):])
            elif line.startswith('{"correct"') and stamp is not None:
                runs.append((stamp, json.loads(line)))
                stamp = None
    return runs


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    sets = {"base": load_runs(args.base), "new": load_runs(args.new)}
    all_runs = sets["base"] + sets["new"]
    if not sets["base"] or not sets["new"]:
        print("compare: each input needs at least one run", file=sys.stderr)
        return 2
    machines = {(s["nproc"], s["simd"]) for s, _ in all_runs}
    if len(machines) != 1:
        print(f"compare: refusing to compare runs from different machines "
              f"(nproc, simd): {sorted(machines)}", file=sys.stderr)
        return 2
    if any(not r["correct"] for _, r in all_runs):
        print("compare: a run reported wrong outputs", file=sys.stderr)
        return 2

    regressed = False
    workloads = sorted({s["workload"] for s, _ in all_runs})
    print(f"{'workload':18} {'metric':18} {'base':>12} {'new':>12} {'change':>8} "
          f"{'bound':>6} {'spread b/n':>12}  verdict")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {
                side: [r["metrics"][name]["value"] for s, r in runs
                       if s["workload"] == workload and not s["trace"] and name in r["metrics"]]
                for side, runs in sets.items()
            }
            if not values["base"] or not values["new"]:
                continue
            base, new = statistics.median(values["base"]), statistics.median(values["new"])
            change = (new - base) / base if base else 0.0
            worse = -change if metric["better"] == "higher" else change
            spreads = spread(values["base"]), spread(values["new"])
            if worse > bound:
                verdict = "REGRESSED"
                regressed = True
            elif spreads[0] > bound:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"{workload:18} {name:18} {base:12.4f} {new:12.4f} {change:+8.3f} "
                  f"{bound:6.2f} {spreads[0]:5.3f}/{spreads[1]:5.3f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
