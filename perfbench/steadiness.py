#!/usr/bin/env python3
"""Measures whether the benchmark is steady on one commit.

Usage (from the repository root):

  python3 perfbench/steadiness.py

Runs two sets of ten untraced runs of every workload of BENCHMARK.json
through perfbench/run.py, each run as long as BENCHMARK.json's run_seconds.
Set 1 uses seeds 101-110 and set 2 seeds 1101-1110. For every end-to-end
metric on every workload it prints each set's median, first and third
quartile and spread, (Q3 - Q1) / median with statistics.quantiles(n=4). The
sets agree when every spread but setup_s's is within the metric's bound,
the two medians of every metric differ by no more than the bound (in
either direction, relative to set 1), and the share of failed operations
is the same in both sets. setup_s is held to its medians only: it is the
median of a run's short, memory-bound set-ups, and its run-to-run spread
follows the host's page-fault and memory costs (README.md, Steadiness).
Exits 0 when they agree, 1 otherwise.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = (range(101, 111), range(1101, 1111))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                        result.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    results = {}  # (set index, workload) -> run results
    for s, seeds in enumerate(SETS):
        for w in workloads:
            results[(s, w)] = []
            for seed in seeds:
                results[(s, w)].append(run_once(w, seed, seconds))
                print("set %d %-20s seed %d done" % (s + 1, w, seed),
                      file=sys.stderr, flush=True)

    agree = True
    print("%-20s %-18s %5s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        shares = [sum(r["failed"] for r in results[(s, w)]) /
                  sum(r["attempted"] for r in results[(s, w)])
                  for s in range(len(SETS))]
        if shares[0] != shares[1]:
            agree = False
            print("%-20s failed share differs between sets: %s" % (w, shares))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(len(SETS)):
                stats = summarize([r["metrics"][name]["value"]
                                   for r in results[(s, w)]])
                medians.append(stats["median"])
                ok = name == "setup_s" or stats["spread"] <= bound
                agree &= ok
                print("%-20s %-18s %5d %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s" %
                      (w, name, s + 1, stats["median"], stats["q1"], stats["q3"],
                       100 * stats["spread"], 100 * bound,
                       "" if ok else "  SPREAD ABOVE BOUND"))
            change = (medians[1] - medians[0]) / medians[0]
            ok = abs(change) <= bound
            agree &= ok
            print("%-20s %-18s set 2 median vs set 1: %+.2f%%%s" %
                  (w, name, 100 * change,
                   "" if ok else "  DIFFERENCE ABOVE BOUND"))
    print("sets agree within the bounds" if agree else
          "sets DO NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
