#!/usr/bin/env python3
"""A/B comparison of two builds of this repository on the benchmark.

    python3 perfbench/ab.py --base PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        [--workloads tcp-bulk,tls-flows-zipf] [--pairs 10]

Each checkout is a directory with its own perfbench/ and sources; each
side runs its own perfbench/run.py from its own root (the first run
builds it). Metric names, units, directions, bounds and the run length
come from the base side's BENCHMARK.json.

For every workload it runs --pairs pairs. Pair i uses seed
1000 + i on both sides and alternates which side runs first. It
then reports, per workload and end-to-end metric, each side's median
and quartiles, how many pairs the change won (ties count for neither)
and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the base runs' interquartile spread
  regression  the change's median is worse than the base median by more
              than the metric's bound
  unresolved  the base runs spread wider than the bound, and not every
              change run beats every base run
  held        none of the above: within the bound

A workload whose share of failed operations grows is reported as a
regression whatever its metrics say. Exit status: 0 when nothing
regressed, 1 otherwise, 2 on a usage or run error.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SEED_BASE = 1000


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-4000:])
        sys.stderr.write("ab: %s: %s seed %d failed (exit %d)\n"
                         % (root, workload, seed, r.returncode))
        sys.exit(2)
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Applies the pairwise gain rule and the bound to one metric."""
    lower = better == "lower"
    won = sum(1 for b, c in zip(base, change)
              if (c < b if lower else c > b))
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    worse = (mc - mb) if lower else (mb - mc)
    if won >= math.ceil(0.9 * len(base)) and -worse > spread:
        return "gain", won
    if worse > bound * abs(mb):
        return "regression", won
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if mb != 0 and spread / abs(mb) > bound and not all_better:
        return "unresolved", won
    return "held", won


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="parent checkout root")
    ap.add_argument("--change", required=True, help="changed checkout root")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    a = ap.parse_args()
    if a.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = load_spec(a.base)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if a.workloads:
        wanted = a.workloads.split(",")
        unknown = [w for w in wanted if w not in names]
        if unknown:
            ap.error("unknown workloads: " + ", ".join(unknown))
        names = wanted
    metrics = spec["end_to_end"]

    regressed = False
    print("%-18s %-20s %-6s %14s %25s %14s %25s %6s  %s"
          % ("workload", "metric", "unit", "base median", "base q1..q3",
             "change median", "change q1..q3", "wins", "verdict"))
    for wl in names:
        runs = {"base": [], "change": []}
        for i in range(a.pairs):
            seed = SEED_BASE + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                root = a.base if side == "base" else a.change
                runs[side].append(run_once(root, wl, seed, seconds))
        for side in runs:
            for res in runs[side]:
                if not res["correct"]:
                    print("%s: %s side reported incorrect output" % (wl, side))
                    regressed = True
        share = {s: sum(r["failed"] for r in runs[s]) /
                 max(1, sum(r["attempted"] for r in runs[s])) for s in runs}
        if share["change"] > share["base"]:
            print("%s: failed share grew %.6f -> %.6f: regression"
                  % (wl, share["base"], share["change"]))
            regressed = True
        for m in metrics:
            name = m["name"]
            base = [r["metrics"][name]["value"] for r in runs["base"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            v, won = verdict(base, change, m["better"], m["bound"])
            regressed |= v == "regression"
            bq, cq = quartiles(base), quartiles(change)
            print("%-18s %-20s %-6s %14.6g %12.6g..%-12.6g %14.6g %12.6g..%-12.6g %3d/%-2d  %s"
                  % (wl, name, m["unit"], statistics.median(base), bq[0], bq[1],
                     statistics.median(change), cq[0], cq[1], won, a.pairs, v))
        sys.stdout.flush()
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
