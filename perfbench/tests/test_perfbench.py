"""Self-checks of the repository benchmark.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest discover -s perfbench/tests -v

They pin what the benchmark's figures rely on: a seed fixes the
simulated work exactly (digest and layer counts repeat), the tracing
forwarders are pure (traced digest == untraced digest), the rt progress
stream carries exactly one stamped line per round, rt's traced run is a
single pass that still reports every layer metric, and the command
refuses to run without the source tree it measures.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", "perfbench/run.py"]

# Per-layer figures that count work rather than time it: a fixed seed
# must reproduce them exactly.
COUNTS = (
    "ct.chain_round.calls_per_round",
    "ct.flood.calls_per_round",
    "ct.subslots_per_round",
    "sim.materialize.calls_per_round",
    "sim.is_down.calls_per_round",
    "core.no_aggregate_share",
    "sim_latency_ms",
)


def bench(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def info(lines, prefix):
    found = [line[len(prefix):].strip() for line in lines
             if line.startswith(prefix)]
    return found[0] if found else None


class PerfbenchTest(unittest.TestCase):
    def run_ok(self, workload, seed, trace):
        code, lines, err = bench(workload, seed, trace)
        self.assertEqual(code, 0, err)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return lines, result

    def test_seed_fixes_digest_and_counts_and_tracing_is_pure(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in ("flat_dcube_s4", "hier_grid_dynamic"):
            with self.subTest(workload=workload):
                first, r1 = self.run_ok(workload, 5, trace=1)
                second, r2 = self.run_ok(workload, 5, trace=1)
                self.assertEqual(set(r1["metrics"]),
                                 {m["name"] for m in declared["per_layer"]})
                digest = info(first, "digest ")
                self.assertIsNotNone(digest)
                self.assertEqual(info(first, "traced digest "), digest)
                self.assertEqual(info(second, "digest "), digest)
                self.assertEqual(info(second, "traced digest "), digest)
                for name in COUNTS:
                    self.assertEqual(r1["metrics"][name]["value"],
                                     r2["metrics"][name]["value"], name)
                self.assertGreater(
                    r1["metrics"]["ct.subslots_per_round"]["value"], 0)
                materialize = r1["metrics"]["sim.materialize.calls_per_round"]
                if workload == "flat_dcube_s4":
                    self.assertEqual(materialize["value"], 0)
                else:
                    self.assertGreater(materialize["value"], 0)

    def test_rt_progress_stream_has_one_line_per_round(self):
        lines, result = self.run_ok("rt_loopback", 3, trace=0)
        again, _ = self.run_ok("rt_loopback", 3, trace=0)
        words = info(lines, "rt progress lines ").split()
        stamped, rounds, campaigns = float(words[0]), int(words[2]), int(words[5])
        self.assertEqual(rounds, result["attempted"])
        # One join line per campaign plus one line per finalized round.
        self.assertEqual(stamped, rounds + campaigns)
        self.assertEqual(info(again, "digest "), info(lines, "digest "))

    def test_rt_traced_run_is_one_pass_with_every_layer_metric(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        lines, result = self.run_ok("rt_loopback", 4, trace=1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared["per_layer"]})
        # No forwarder reaches the node processes, so there is no second
        # pass to compare against.
        self.assertIsNone(info(lines, "traced digest "))
        self.assertEqual(result["metrics"]["trace.overhead"]["value"], 0)
        self.assertGreater(
            result["metrics"]["rt.coord_cpu_us_per_round"]["value"], 0)
        trace = ROOT / ".bench_build" / "traces" / "rt_loopback-seed4.json"
        self.assertTrue(trace.is_file())

    def test_end_to_end_metrics_are_reported(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        _, result = self.run_ok("hier_grid_dynamic", 2, trace=0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared["end_to_end"]})
        for metric in declared["end_to_end"]:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"])
            self.assertGreater(got["value"], 0)

    def test_refuses_to_run_without_the_source_tree(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, _ = bench("flat_dcube_s4", 1, 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
