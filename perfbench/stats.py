"""Turns the raw measurements of one perfbench run into the benchmark's metrics.

The C++ driver (src/main.cpp) prints raw per-job timings, per-job layer
values and per-pass counts; this module derives the end-to-end metrics of an
untraced run and the per-layer metrics of a traced run from them.

Every host time is reported at the reference speed: the driver runs a fixed,
benchmark-owned reference work (src/Reference.cpp) between the jobs, and a
time measured while that work took r ms is multiplied by REFERENCE_MS / r.
The program under test cannot change the reference work's time; the load
of other tenants on a shared host changes both alike.
"""

import math
import re
import statistics

# A metric or workload name: starts with a letter or digit, at most 64 of
# [A-Za-z0-9_.-].
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles a timing may report beyond its median, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND = 10

# The reference speed: host times are reported as they would read on a
# machine that runs the reference work in this many milliseconds.
REFERENCE_MS = 5.0


def percentile(values, p):
    """The p-th percentile (0 < p < 100) by linear interpolation between
    closest ranks, as numpy's default method computes it."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of n samples lie beyond the p-th percentile's rank."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n):
    """The highest of TAIL_PERCENTILES with at least MIN_BEYOND of n samples
    beyond it, or None when even the lowest has too few."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(values):
    """Median, the highest percentile with ten samples beyond it, and the
    sample count of one timing."""
    n = len(values)
    out = {"count": n, "p50": statistics.median(values) if n else 0.0}
    p = tail_percentile(n)
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out


# End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "pass_ratio": "ratio",
    "sim_speedup_geomean": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-job layer timings of a traced run: metric -> raw key from the driver.
LAYER_TIMINGS = {
    "frontend.emit_ms": "frontend.emit",
    "driver.compile_ms": "driver.compile",
    "rtl.link_ms": "rtl.link",
    "core.openmp_opt_ms": "core.openmp_opt",
    "transforms.cleanup_ms": "transforms.cleanup",
    "analysis.map_inference_ms": "analysis.map_inference",
    "analysis.lint_ms": "analysis.lint",
    "driver.other_ms": "driver.other",
    "gpusim.launch_ms": "gpusim.launch",
    "gpusim.ms_per_launch": "gpusim.ms_per_launch",
    "workloads.setup_inputs_ms": "workloads.setup_inputs",
    "workloads.check_ms": "workloads.check_outputs",
    "workloads.run_cg_ms": "workloads.run_cg",
    "fuzz.judge_ms": "fuzz.judge",
    "service.overhead_ms": "service.overhead",
    "ir.hash_module_ms": "ir.hash_module",
}

# Deterministic per-pass counts of a traced run.
LAYER_COUNTS = (
    "gpusim.dynamic_instructions",
    "gpusim.cycles",
    "gpusim.launches",
    "gpusim.barriers",
    "gpusim.runtime_calls",
    "gpusim.group.makespan_cycles",
    "gpusim.group.sync_points",
    "gpusim.group.host_link_bytes",
    "core.remarks",
    "driver.passes_run",
)

PER_LAYER_UNITS = dict(
    {name: "ms" for name in LAYER_TIMINGS},
    **{name: "count" for name in LAYER_COUNTS},
    **{
        "gpusim.minst_per_s": "Minst/s",
        "service.cache_hit_ratio": "ratio",
        "trace.overhead_jobs_per_s": "1/s",
        "trace.overhead_share": "ratio",
        "machine.reference_ms": "ms",
    },
)


def reference_ms(phase):
    """Median time of the reference work run between the phase's jobs."""
    return statistics.median(phase["ref_us"]) / 1000.0


def speed_scale(phase):
    """Factor that carries the phase's host times to the reference speed."""
    return REFERENCE_MS / reference_ms(phase)


def jobs_per_s(raw, phase):
    """Jobs of one pass over the median time of a pass: every pass runs the
    same jobs, and the median shrugs off a pass slowed by other load on the
    machine."""
    pass_s = statistics.median(phase["pass_s"]) * speed_scale(phase)
    return raw["jobs_per_pass"] / pass_s


def setup_s(raw):
    """Median of the set-ups, each carried to the reference speed by the
    reference work run right after it."""
    return statistics.median(
        s * REFERENCE_MS * 1000.0 / ref
        for s, ref in zip(raw["setup_s"], raw["setup_ref_us"]))


def pass_ratio(raw):
    return (raw["attempted"] - raw["failed"]) / raw["attempted"]


def end_to_end(raw):
    """End-to-end metrics of an untraced run: name -> (value, unit), plus
    the sample count of each timing."""
    phase = raw["untraced"]
    scale = speed_scale(phase)
    jobs = [ms * scale for ms in phase["job_ms"]]
    if samples_beyond(len(jobs), 90) < MIN_BEYOND:
        raise ValueError(
            "%d jobs leave fewer than %d beyond p90" % (len(jobs), MIN_BEYOND))
    values = {
        "jobs_per_s": jobs_per_s(raw, phase),
        "job_ms_p50": statistics.median(jobs),
        "job_ms_p90": percentile(jobs, 90),
        "pass_ratio": pass_ratio(raw),
        "sim_speedup_geomean": raw["sim_speedup_geomean"],
        "setup_s": setup_s(raw),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    counts = {
        "jobs_per_s": len(phase["pass_s"]),
        "job_ms_p50": len(jobs),
        "job_ms_p90": len(jobs),
        "setup_s": len(raw["setup_s"]),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, counts


def per_layer(raw):
    """Per-layer metrics of a traced run: name -> (value, unit), plus the
    sample count of each timing. A layer the workload never calls reads 0
    with count 0."""
    phase = raw["traced"]
    layers = phase["layers"]
    scale = speed_scale(phase)
    values, counts = {}, {}
    for name, key in LAYER_TIMINGS.items():
        samples = layers.get(key, [])
        values[name] = statistics.median(samples) * scale if samples else 0.0
        counts[name] = len(samples)
    for name in LAYER_COUNTS:
        values[name] = phase["counts"].get(name, 0)

    launch_ms = sum(layers.get("gpusim.launch", [])) * scale
    instructions = sum(layers.get("gpusim.dynamic_instructions", []))
    values["gpusim.minst_per_s"] = (
        instructions / launch_ms / 1000.0 if launch_ms else 0.0)
    requests = sum(layers.get("service.requests", []))
    hits = sum(layers.get("service.cache_hits", []))
    values["service.cache_hit_ratio"] = hits / requests if requests else 0.0
    counts["service.cache_hit_ratio"] = int(requests)

    untraced = jobs_per_s(raw, raw["untraced"])
    traced = jobs_per_s(raw, phase)
    values["trace.overhead_jobs_per_s"] = untraced - traced
    values["trace.overhead_share"] = (untraced - traced) / untraced
    values["machine.reference_ms"] = reference_ms(raw["untraced"])
    counts["machine.reference_ms"] = len(raw["untraced"]["ref_us"])
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in values.items()}, counts


def layer_shares(raw):
    """Share of the traced phase's job time spent in each timed layer (by
    total, not median), for the documentation's layer-share table."""
    phase = raw["traced"]
    total = sum(phase["job_ms"])
    return {name: sum(phase["layers"].get(key, [])) / total
            for name, key in LAYER_TIMINGS.items()
            if name != "gpusim.ms_per_launch"}
