#!/usr/bin/env python3
"""Unit tests for tools/perf_gate.py: canned google-benchmark JSON goes
through normalize(), fastest(), measure() and compare(); no benchmark
binary is run.

Run: python3 -B -m unittest discover -s tests/tools -p 'perf_gate_test.py'
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import perf_gate  # noqa: E402


def bench_doc(times):
    """A --benchmark_report_aggregates_only document with mean, median
    and stddev rows per benchmark; only the median carries `ns`."""
    rows = []
    for name, ns in times.items():
        for agg, value in (("mean", ns * 1.1), ("median", ns),
                           ("stddev", ns * 0.01)):
            rows.append({"name": f"{name}_{agg}", "run_name": name,
                         "aggregate_name": agg, "real_time": value,
                         "time_unit": "ns"})
    return {"context": {"date": "now"}, "benchmarks": rows}


BASE = {"BM_Calibrate": 10_000_000.0, "BM_Fast": 20.0,
        "BM_Kernel": 1_000.0, "BM_Round": 900_000.0}


def scaled(times, factor, **overrides):
    out = {name: ns * factor for name, ns in times.items()}
    out.update(overrides)
    return out


class NormalizeTest(unittest.TestCase):
    def test_keeps_one_median_per_benchmark_sorted(self):
        doc = perf_gate.normalize(bench_doc({"BM_b": 5.0, "BM_a": 7.25}))
        self.assertEqual(doc["benchmarks"], {"BM_a": 7.2, "BM_b": 5.0})
        self.assertEqual(list(doc["benchmarks"]), ["BM_a", "BM_b"])
        self.assertEqual(doc["schema"], "ctagg-bench-micro-v1")

    def test_rejects_other_time_units_and_empty_output(self):
        doc = bench_doc({"BM_a": 1.0})
        for row in doc["benchmarks"]:
            row["time_unit"] = "us"
        with self.assertRaises(SystemExit):
            perf_gate.normalize(doc)
        with self.assertRaises(SystemExit):
            perf_gate.normalize({"benchmarks": []})


class FastestTest(unittest.TestCase):
    def test_keeps_each_benchmarks_lowest_median(self):
        runs = [{"BM_a": 5.0, "BM_b": 9.0}, {"BM_a": 7.0, "BM_b": 3.0},
                {"BM_b": 4.0, "BM_a": 6.0}]
        got = perf_gate.fastest(runs)
        self.assertEqual(got, {"BM_a": 5.0, "BM_b": 3.0})
        self.assertEqual(list(got), ["BM_a", "BM_b"])

    def test_runs_with_different_benchmarks_are_an_error(self):
        with self.assertRaises(SystemExit):
            perf_gate.fastest([{"BM_a": 1.0}, {"BM_a": 1.0, "BM_b": 2.0}])


class MeasureTest(unittest.TestCase):
    """`run` and `check` share one estimator: each kernel's fastest
    median over BASELINE_RUNS runs of the binary."""

    def setUp(self):
        self.real_run_bench = perf_gate.run_bench
        self.addCleanup(setattr, perf_gate, "run_bench", self.real_run_bench)

    def fake_runs(self, runs):
        calls = []

        def run_bench(bench_path, bench_filter=None):
            calls.append((bench_path, bench_filter))
            return bench_doc(runs[len(calls) - 1])

        perf_gate.run_bench = run_bench
        return calls

    def test_keeps_each_kernels_fastest_median_over_the_runs(self):
        runs = [scaled(BASE, 1.0) for _ in range(perf_gate.BASELINE_RUNS)]
        runs[0]["BM_Kernel"] = 5_000.0
        runs[2]["BM_Kernel"] = 900.0
        runs[1]["BM_Round"] = 850_000.0
        calls = self.fake_runs(runs)
        doc = perf_gate.measure("bench", "BM_")
        self.assertEqual(len(calls), perf_gate.BASELINE_RUNS)
        self.assertEqual(calls[0], ("bench", "BM_"))
        self.assertEqual(doc["benchmarks"],
                         scaled(BASE, 1.0, BM_Kernel=900.0,
                                BM_Round=850_000.0))

    def check(self, runs):
        """cmd_check's exit code against BASE, fed `runs`."""
        self.fake_runs(runs)
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            baseline.write_text(json.dumps({"benchmarks": BASE}))
            args = argparse.Namespace(
                bench="bench", filter=None, baseline=str(baseline),
                threshold=perf_gate.DEFAULT_THRESHOLD,
                min_ns=perf_gate.DEFAULT_MIN_NS)
            with contextlib.redirect_stdout(io.StringIO()):
                return perf_gate.cmd_check(args)

    def test_check_passes_a_kernel_slowed_in_one_run_only(self):
        # One loaded run puts BM_Kernel at x3: a single-run check would
        # flag it, the fastest-median check does not.
        runs = [scaled(BASE, 1.0) for _ in range(perf_gate.BASELINE_RUNS)]
        runs[0]["BM_Kernel"] = BASE["BM_Kernel"] * 3
        self.assertEqual(self.check(runs), 0)

    def test_check_fails_a_kernel_slowed_in_every_run(self):
        runs = [scaled(BASE, 1.0, BM_Kernel=BASE["BM_Kernel"] * 3)
                for _ in range(perf_gate.BASELINE_RUNS)]
        self.assertEqual(self.check(runs), 1)


class CompareTest(unittest.TestCase):
    def check(self, current, threshold=perf_gate.DEFAULT_THRESHOLD):
        return perf_gate.compare(BASE, current, threshold,
                                 perf_gate.DEFAULT_MIN_NS)

    def test_same_host_same_times_pass(self):
        scale, _, failures, missing = self.check(dict(BASE))
        self.assertEqual(scale, 1.0)
        self.assertEqual((failures, missing), ([], []))

    def test_uniformly_slower_host_passes(self):
        scale, lines, failures, _ = self.check(scaled(BASE, 2.5))
        self.assertAlmostEqual(scale, 2.5)
        self.assertEqual(failures, [])
        self.assertIn("x2.500", lines[0])

    def test_one_kernel_three_times_slower_fails_on_any_host(self):
        for host in (0.5, 1.0, 2.0):
            current = scaled(BASE, host, BM_Kernel=BASE["BM_Kernel"] * host * 3)
            _, _, failures, _ = self.check(current)
            self.assertEqual(failures, ["BM_Kernel"], f"host x{host}")

    def test_faster_host_tightens_the_bound(self):
        # Unscaled, 1.5x the baseline passes at x1.6; on a host twice as
        # fast it is 3x the calibrated baseline.
        current = scaled(BASE, 0.5, BM_Round=BASE["BM_Round"] * 1.5)
        _, _, failures, _ = self.check(current)
        self.assertEqual(failures, ["BM_Round"])

    def test_threshold_applies_to_the_calibrated_ratio(self):
        current = scaled(BASE, 2.0, BM_Kernel=BASE["BM_Kernel"] * 2.0 * 1.5)
        self.assertEqual(self.check(current, threshold=1.6)[2], [])
        self.assertEqual(self.check(current, threshold=1.4)[2], ["BM_Kernel"])

    def test_below_min_ns_is_skipped(self):
        current = scaled(BASE, 1.0, BM_Fast=BASE["BM_Fast"] * 10)
        _, lines, failures, _ = self.check(current)
        self.assertEqual(failures, [])
        self.assertTrue(any("BM_Fast" in l and "skip" in l for l in lines))

    def test_missing_and_new_benchmarks_are_reported(self):
        current = dict(BASE)
        del current["BM_Round"]
        current["BM_New"] = 5.0
        _, lines, _, missing = self.check(current)
        self.assertEqual(missing, ["BM_Round"])
        self.assertTrue(any("BM_New" in l and "new" in l for l in lines))

    def test_missing_calibration_is_an_error(self):
        current = dict(BASE)
        del current["BM_Calibrate"]
        with self.assertRaises(SystemExit):
            self.check(current)
        base = dict(BASE)
        del base["BM_Calibrate"]
        with self.assertRaises(SystemExit):
            perf_gate.compare(base, dict(BASE), 1.6, 50.0)


if __name__ == "__main__":
    unittest.main()
