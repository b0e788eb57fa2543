"""Tests of the benchmark's statistics and metric names.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import stats
import steadiness

HERE = os.path.dirname(os.path.abspath(__file__))


def raw_run(n_jobs=120, traced=True):
    """A synthetic raw document as the C++ driver prints it."""
    jobs = [float(i + 1) for i in range(n_jobs)]
    phase = {
        "passes": 3, "cpu_s": 6.0, "wall_s": 6.5, "job_ms": jobs,
        "pass_s": [2.0, 1.0, 3.0], "ref_us": [4000.0, 5000.0, 6000.0],
        "counts": {"gpusim.cycles": 42, "gpusim.launches": 3},
        "layers": {
            "frontend.emit": [0.5] * n_jobs,
            "gpusim.launch": [2.0] * n_jobs,
            "gpusim.dynamic_instructions": [4000.0] * n_jobs,
        },
    }
    raw = {
        "workload": "ladder", "seed": 1, "jobs_per_pass": 40,
        "setup_s": [2.5, 2.4, 2.7], "setup_ref_us": [5000.0] * 3,
        "untraced": phase,
        "sim_speedup_geomean": 2.4475, "peak_rss_mb": 17.0,
        "attempted": 280, "failed": 0, "failures": [],
    }
    if traced:
        raw["traced"] = dict(phase, pass_s=[2.5, 1.25, 3.75])
    return raw


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [float(i) for i in range(1, 11)]
        self.assertEqual(stats.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 9.1)
        self.assertEqual(stats.percentile([3.0], 90), 3.0)

    def test_order_of_samples_does_not_matter(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(xs, 50), 3.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(40), 75)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(199), 90)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(1000), 99)

    def test_summary_reports_its_count(self):
        s = stats.summarize([float(i) for i in range(100)])
        self.assertEqual(s["count"], 100)
        self.assertEqual(s["tail_p"], 90)
        self.assertEqual(s["p50"], 49.5)
        self.assertNotIn("tail", stats.summarize([1.0] * 15))


class MetricTest(unittest.TestCase):
    def test_end_to_end(self):
        metrics, counts = stats.end_to_end(raw_run())
        self.assertEqual(set(metrics), set(stats.END_TO_END_UNITS))
        self.assertEqual(metrics["setup_s"], (2.5, "s"))
        self.assertEqual(metrics["pass_ratio"], (1.0, "ratio"))
        self.assertEqual(metrics["jobs_per_s"], (20.0, "1/s"))
        self.assertEqual(counts["job_ms_p90"], 120)

    def test_times_are_carried_to_the_reference_speed(self):
        # The reference work took twice its reference time: the machine
        # ran at half speed, so every host time halves.
        raw = raw_run()
        raw["untraced"]["ref_us"] = [10000.0]
        raw["setup_ref_us"] = [10000.0, 2500.0, 10000.0]
        metrics, _ = stats.end_to_end(raw)
        self.assertEqual(metrics["jobs_per_s"], (40.0, "1/s"))
        self.assertEqual(metrics["job_ms_p50"], (30.25, "ms"))
        # Each set-up by its own reference: 1.25, 4.8, 1.35.
        self.assertEqual(metrics["setup_s"], (1.35, "s"))

    def test_p90_needs_ten_jobs_beyond_it(self):
        with self.assertRaises(ValueError):
            stats.end_to_end(raw_run(n_jobs=99))

    def test_per_layer(self):
        metrics, counts = stats.per_layer(raw_run())
        self.assertEqual(set(metrics), set(stats.PER_LAYER_UNITS))
        self.assertEqual(metrics["gpusim.minst_per_s"][0], 2.0)
        self.assertEqual(metrics["fuzz.judge_ms"], (0.0, "ms"))
        self.assertEqual(counts["fuzz.judge_ms"], 0)
        self.assertAlmostEqual(metrics["trace.overhead_share"][0], 0.2)
        self.assertEqual(metrics["machine.reference_ms"], (5.0, "ms"))

    def test_metric_names(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        declared = bench["end_to_end"] + bench["per_layer"]
        names = [m["name"] for m in declared]
        self.assertEqual(len(names), len(set(names)))
        names += [w["name"] for w in bench["workloads"]]
        for name in names:
            self.assertTrue(stats.METRIC_NAME.fullmatch(name), name)
        # Everything the benchmark prints is declared, and vice versa.
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            stats.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            stats.PER_LAYER_UNITS)


class SteadinessTest(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        median, q1, q3, s = steadiness.spread([float(i) for i in range(1, 11)])
        self.assertEqual((median, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(s, 1.0)

    def test_worsening_follows_the_better_direction(self):
        self.assertAlmostEqual(steadiness.worsening(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(steadiness.worsening(10.0, 8.0, "higher"), 0.2)
        self.assertAlmostEqual(steadiness.worsening(10.0, 12.0, "higher"),
                               -0.2)


if __name__ == "__main__":
    unittest.main()
