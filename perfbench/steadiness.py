#!/usr/bin/env python3
"""Runs every workload on several seeds and prints, for each end-to-end
metric, the median and the quartile spread of its values against the bound
BENCHMARK.json fixes: the tables in STEADINESS.md.

    python3 perfbench/steadiness.py [--seeds 1-10] [--seconds 15]
        [--workload W] [--save SET.json]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Run from the repository root. The spread is (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4). --save keeps every run's
metrics; --compare reads two saved sets of the same code and prints, for
each metric, how much worse the second set's median is than the first's,
against the bound.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(bench, workloads, seeds, seconds):
    """Runs every workload on every seed, seed by seed, so each workload's
    runs spread over the whole set as the machine's speed drifts. Returns
    workload -> list of runs, each {"seed", "wall_s", "correct",
    "reference_ms", "measured_jobs_per_s", "metrics": {name: value}}."""
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(os.path.join(".bench_build", "raw-%s-seed%d-trace0.json"
                                   % (w, seed))) as f:
                phase = json.load(f)["untraced"]
            runs[w].append({
                "seed": seed,
                "wall_s": time.monotonic() - start,
                "correct": proc.returncode == 0 and result["correct"],
                "reference_ms": stats.reference_ms(phase),
                "measured_jobs_per_s": (
                    result["metrics"]["jobs_per_s"]["value"]
                    * stats.speed_scale(phase)),
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()},
            })
            r = runs[w][-1]
            print("%s seed %d: jobs_per_s %.4g (measured %.4g), reference "
                  "%.3f ms, %.0f s" % (
                      w, seed, r["metrics"]["jobs_per_s"],
                      r["measured_jobs_per_s"], r["reference_ms"],
                      r["wall_s"]), file=sys.stderr)
    for w in workloads:
        print_table(bench, w, runs[w], seconds)
    return runs


def print_table(bench, workload, runs, seconds):
    print("\n#### %s (%d seeds, %g s runs)\n" % (workload, len(runs), seconds))
    print("| metric | median | Q1 | Q3 | spread | bound | spread / bound |")
    print("|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        median, q1, q3, s = spread([r["metrics"][m["name"]] for r in runs])
        print("| %s | %.6g | %.6g | %.6g | %.4f | %g | %.2f |"
              % (m["name"], median, q1, q3, s, m["bound"], s / m["bound"]))
    for name in ("reference_ms", "measured_jobs_per_s"):
        median, q1, q3, s = spread([r[name] for r in runs])
        print("| (%s) | %.6g | %.6g | %.6g | %.4f | | |"
              % (name, median, q1, q3, s))
    x = [math.log(r["reference_ms"]) for r in runs]
    y = [-math.log(r["measured_jobs_per_s"]) for r in runs]
    if len(set(x)) > 1 and len(set(y)) > 1:
        print("\nMeasured pass time against the reference work's time, on log "
              "scales: r = %.2f, slope %.2f (1: they slow down alike)." % (
                  statistics.correlation(x, y),
                  statistics.linear_regression(x, y).slope))
    walls = [r["wall_s"] for r in runs]
    print("\nWall time per run: median %.1f s, max %.1f s." % (
        statistics.median(walls), max(walls)))
    sys.stdout.flush()


def compare(bench, first, second):
    """Prints the drift table of two saved sets; returns whether every
    metric of every workload stayed within its bound."""
    ok = True
    print("| workload | metric | median 1 | median 2 | 2 worse than 1 "
          "| bound | within |")
    print("|---|---|---|---|---|---|---|")
    for w in first:
        if w not in second:
            continue
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]] for r in first[w])
            b = statistics.median(r["metrics"][m["name"]] for r in second[w])
            d = worsening(a, b, m["better"])
            within = d <= m["bound"]
            ok &= within
            print("| %s | %s | %.6g | %.6g | %+.1f%% | %g | %s |" % (
                w, m["name"], a, b, 100.0 * d, m["bound"],
                "yes" if within else "**no**"))
    return ok


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10",
                    help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--save", help="write every run's metrics to this file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two files written by --save")
    args = ap.parse_args()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(bench, *sets) else 1

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = run_set(bench, workloads, parse_seeds(args.seeds), args.seconds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
