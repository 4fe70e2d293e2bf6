#!/usr/bin/env python3
"""Runs spqbench workloads N times each and reports every metric's spread.

    python3 spqbench/repeat.py [--runs 10] [--first-seed 1] [--seconds S]
                               [--trace 0|1] [--save FILE] [--compare FILE]
                               [workload ...]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the table gives the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
for end-to-end metrics the bound from BENCHMARK.json: "ok" when the spread
is within the bound, "ok/3" when it is within a third of it. --save writes
the raw runs as JSON; --compare FILE also reports each metric's median
change against a saved set, flagged when it is worse by more than the
bound. Runs go through run.py, so the first one builds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    # A run with a wrong answer still prints its result (correct: false).
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s seed %d printed no result (exit %d)" %
                           (workload, seed, proc.returncode))
    steal = [l.split()[-1] for l in lines if l.startswith("# steal_frac ")]
    return json.loads(lines[-1]), float(steal[0]) if steal else float("nan")


def spread_stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    config = load_config()
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    specs = config["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in specs}
    better = {m["name"]: m["better"] for m in specs}
    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)

    raw = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, steal = run_once(workload, seed, args.seconds, args.trace)
            result["steal_frac"] = steal
            if not result["correct"] or result["failed"]:
                ok = False
            runs.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d "
                  "steal=%.3f" % (workload, seed, result["correct"],
                                  result["attempted"], result["failed"],
                                  steal), file=sys.stderr)
        raw[workload] = runs
        print("\n== %s (%d runs, %ds each)" % (workload, args.runs,
                                              args.seconds))
        print("%-38s %12s %12s %12s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name in sorted(bounds):
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            if len(values) < 2:
                print("%-38s missing" % name)
                ok = False
                continue
            med, q1, q3 = spread_stats(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = ""
            if bound is not None:
                if spread <= bound / 3:
                    verdict = "ok/3"
                elif spread <= bound:
                    verdict = "ok"
                else:
                    verdict = "WIDE"
                    if name != "setup_s":
                        ok = False
            if baseline and workload in baseline:
                old = [r["metrics"][name]["value"] for r in baseline[workload]
                       if name in r["metrics"]]
                if old:
                    base = statistics.median(old)
                    change = (med - base) / base if base else 0.0
                    worse = change if better[name] == "lower" else -change
                    verdict += "  %+.1f%% vs saved" % (100 * change)
                    if bound is not None and worse > bound:
                        verdict += " WORSE"
                        ok = False
            print("%-38s %12.5g %12.5g %12.5g %8.3f %6s  %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
