#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the BENCHMARK.json bounds.

    python3 bench/perf/compare.py BASE_DIR NEW_DIR [--spec BENCHMARK.json]

Each directory holds the captured stdout of runs of bench/perf (one
file per run; the detail line names the workload, seed and trace mode,
the last line is the result object).  For every metric x workload the
table gives each side's median and quartiles, the share of seed-matched
pairs NEW won, and a verdict:

  worse       NEW's median is worse than BASE's by more than the bound,
              and both spreads are within the bound or every NEW run
              is worse than every BASE run
  unresolved  the spread (quartile distance / median) of either side
              exceeds the bound and the runs do not separate
  better      NEW wins at least 9 pairs in 10 and the medians differ
              by more than BASE's quartile distance
  unchanged   otherwise

Per-layer metrics have no bound: the pair rule decides "better" and,
mirrored, "worse".  Exits 1 when any verdict is "worse".
"""
import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        lines = [l for l in open(path, encoding="utf-8").read().splitlines() if l.strip()]
        if len(lines) < 2:
            continue
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if "workload" not in detail or "metrics" not in result:
            continue
        runs.append((detail, result))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(base, new, higher_better, bound):
    """base/new: {seed: value}."""
    sign = 1.0 if higher_better else -1.0
    b, n = list(base.values()), list(new.values())
    _, b_med, _ = quartiles(b)
    _, n_med, _ = quartiles(n)
    pairs = [(base[s], new[s]) for s in base if s in new]
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    lost = sum(1 for x, y in pairs if sign * (y - x) < 0)
    won_share = won / len(pairs) if pairs else float("nan")
    b_q1, _, b_q3 = quartiles(b)
    moved = abs(n_med - b_med) > (b_q3 - b_q1)
    if bound is not None:
        all_better = min(sign * y for y in n) > max(sign * x for x in b)
        all_worse = max(sign * y for y in n) < min(sign * x for x in b)
        noisy = max(spread(b), spread(n)) > bound
        if sign * (b_med - n_med) > bound * abs(b_med):
            return won_share, "worse" if all_worse or not noisy else "unresolved"
        if noisy and not all_better:
            return won_share, "unresolved"
    if pairs and won >= 0.9 * len(pairs) and moved:
        return won_share, "better"
    if bound is None and pairs and lost >= 0.9 * len(pairs) and moved:
        return won_share, "worse"
    return won_share, "unchanged"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()
    spec = json.load(open(args.spec, encoding="utf-8"))
    sides = [load_runs(args.base), load_runs(args.new)]
    groups = [("end_to_end", False), ("per_layer", True)]
    print("%-20s %-30s %-10s %-36s %-36s %-6s %s"
          % ("workload", "metric", "unit", "base median [q1, q3]",
             "new median [q1, q3]", "won", "verdict"))
    any_worse = False
    for wl in spec["workloads"]:
        for key, traced in groups:
            for metric in spec[key]:
                name = metric["name"]
                values = []
                for runs in sides:
                    values.append({
                        d["seed"]: r["metrics"][name]["value"]
                        for d, r in runs
                        if d["workload"] == wl["name"] and d["trace"] == traced
                        and name in r["metrics"]
                    })
                if not values[0] or not values[1]:
                    continue
                won, v = verdict(values[0], values[1],
                                 metric["better"] == "higher", metric.get("bound"))
                any_worse |= v == "worse"
                print("%-20s %-30s %-10s %-36s %-36s %-6s %s"
                      % (wl["name"], name, metric["unit"],
                         fmt(list(values[0].values())), fmt(list(values[1].values())),
                         "%.2f" % won, v))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
