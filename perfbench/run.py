#!/usr/bin/env python3
"""Host-time benchmark of the ompgpu pipeline, one workload per command.

    python3 perfbench/run.py --workload ladder|fuzz|cg|replay \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the repository's libraries and the
benchmark driver into .bench_build/ (CMake, perfbench/CMakeLists.txt), runs
the workload from one thread in a closed loop, checks every output, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run, whose Chrome trace-event file is written
to .bench_build/traces/. Host times are reported at the reference speed
(stats.py), so that other load on a shared machine cancels out. Exits
non-zero when any output check fails, when the build fails, or when the run
does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("ladder", "fuzz", "cg", "replay")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; build logs go to stderr."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=log, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target", "perfbench"],
        stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "perfbench")


def report(metrics, counts):
    """Prints each metric with its unit and sample count."""
    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        print("  %-30s %16.6f %-8s%s" % (
            name, value, unit, "" if n is None else "  (n=%d)" % n))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 2
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics, counts = stats.per_layer(raw)
    else:
        metrics, counts = stats.end_to_end(raw)
    with open(os.path.join(build_dir, "raw-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(raw, f)

    correct = raw["failed"] == 0
    phase = raw["traced" if args.trace else "untraced"]
    print("perfbench %s seed=%d: %d passes of %d jobs, %d attempted, %d failed"
          % (args.workload, args.seed, phase["passes"],
             raw["jobs_per_pass"], raw["attempted"], raw["failed"]))
    jobs = stats.summarize(phase["job_ms"])
    print("  measured job latency: p50 %.3f ms, p%s %s ms (n=%d); %.1f s "
          "process CPU in %.1f s wall" % (
              jobs["p50"], jobs.get("tail_p", "-"),
              "%.3f" % jobs["tail"] if "tail" in jobs else "-", jobs["count"],
              phase["cpu_s"], phase["wall_s"]))
    print("  reference work: median %.3f ms over %d runs; times below are "
          "at %.1f ms (x%.3f)" % (
              stats.reference_ms(phase), len(phase["ref_us"]),
              stats.REFERENCE_MS, stats.speed_scale(phase)))
    for why in raw["failures"]:
        print("  FAIL " + why)
    report(metrics, counts)
    if args.trace:
        print("  layer shares of traced job time:")
        for name, share in stats.layer_shares(raw).items():
            if share:
                print("    %-28s %6.1f%%" % (name, 100.0 * share))
        print("  trace: " + os.path.relpath(trace_file, root))

    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
