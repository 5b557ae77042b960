#!/usr/bin/env python3
"""Bench wall-clock gate.

Compares a fresh `hft bench --quick --jobs ...` run against the
committed BENCH_hft.json baseline on the two properties that need a
real host to measure:

- ATPG wall time, row by (bench, flow) row: reported as a speedup
  ratio, and a failure only when the fresh run is slower than the
  baseline by more than --atpg-slack (wall clock is noisy on shared
  runners).
- `--min-speedup X`: the best multi-job speedup of the fresh run's
  `jobs_matrix` legs must reach X on at least one cell, enforced only
  when the producing host had at least as many cores (`host_cores`) as
  the largest jobs count.  A fresh run without any `jobs_matrix` fails.

Every deterministic field (counters, coverages, waterfalls, the guided
leg, each jobs leg's engine work) is compared exactly by test_core's
"documents pinned" case, and the scheduler's conservation laws by
test_par's "stats conservation" case.

Exit status 0 = pass, 1 = regression, 2 = usage/schema problem.
"""

import argparse
import json
import sys


def rows_by_key(doc):
    if doc.get("schema") != "hft-bench/1":
        sys.exit(f"unexpected bench schema: {doc.get('schema')!r}")
    return {(r["bench"], r["flow"]): r for r in doc["results"]}


def check_wall(base, fresh, slack):
    """ATPG wall time per row, failing only beyond the slack factor."""
    missing = sorted(set(base) - set(fresh))
    if missing:
        print(f"FAIL: rows missing from fresh run: {missing}")
        return 1
    failures = 0
    print(f"{'bench':8} {'flow':14} {'atpg ms':>16}")
    for key in sorted(base):
        b_ms = base[key]["wall_ms"]["atpg"]
        f_ms = fresh[key]["wall_ms"]["atpg"]
        ratio = b_ms / f_ms if f_ms > 0 else float("inf")
        slow = f_ms > b_ms * slack
        status = f"FAIL atpg {b_ms}ms -> {f_ms}ms" if slow else "ok"
        print(f"{key[0]:8} {key[1]:14} {b_ms:7.2f}->{f_ms:6.2f} [{ratio:4.1f}x] {status}")
        failures += slow
    return failures


def check_speedup(fresh, host_cores, min_speedup):
    """Best multi-job speedup over the jobs_matrix legs."""
    best = None  # (speedup, key, jobs)
    max_jobs = 0
    for key in sorted(fresh):
        walls = {
            leg["jobs"]: leg.get("wall_ms_atpg")
            for leg in fresh[key].get("jobs_matrix") or []
        }
        max_jobs = max([max_jobs, *walls])
        w1 = walls.get(1)
        speedups = {
            j: w1 / w for j, w in sorted(walls.items()) if j != 1 and w1 and w
        }
        if speedups:
            print(
                f"jobs     {key[0]:8} {key[1]:14} "
                + " ".join(f"-j{j}:{s:4.2f}x" for j, s in speedups.items())
            )
        for j, s in speedups.items():
            if best is None or s > best[0]:
                best = (s, key, j)
    if not max_jobs:
        print("FAIL: no jobs_matrix in the fresh run (bench --jobs leg missing)")
        return 1
    if best is None:
        print("jobs     no multi-job leg to measure a speedup on")
        return 0
    s, key, j = best
    print(
        f"jobs     best speedup {s:.2f}x at -j{j} on {key[0]}/{key[1]} "
        f"(host cores: {host_cores})"
    )
    if host_cores is not None and host_cores < max_jobs:
        print(
            f"jobs     speedup threshold {min_speedup}x not enforced: "
            f"host has {host_cores} core(s) < {max_jobs} jobs"
        )
        return 0
    if s < min_speedup:
        print(f"FAIL: best jobs speedup {s:.2f}x below required {min_speedup}x")
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="committed BENCH_hft.json")
    ap.add_argument("--fresh", required=True, help="bench output from this run")
    ap.add_argument(
        "--atpg-slack",
        type=float,
        default=3.0,
        help="fail when fresh atpg wall time exceeds baseline by this factor",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        help="require a jobs_matrix in the fresh run and its best speedup to "
        "reach this factor on at least one cell (the factor only when "
        "host_cores >= max jobs)",
    )
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            base = rows_by_key(json.load(f))
        with open(args.fresh) as f:
            fresh_doc = json.load(f)
        fresh = rows_by_key(fresh_doc)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"cannot load bench files: {e}")

    failures = check_wall(base, fresh, args.atpg_slack)
    if args.min_speedup is not None:
        failures += check_speedup(
            fresh, fresh_doc.get("host_cores"), args.min_speedup
        )
    if failures:
        print(f"\n{failures} check(s) regressed")
        return 1
    print("\nall rows within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
