#!/usr/bin/env python3
"""Microbenchmark perf gate.

Runs the google-benchmark binary `bench_micro`, normalizes its JSON
output into a stable, diff-friendly shape, and either writes that as the
committed baseline (BENCH_micro.json) or compares against it and fails
on regression.

Normalization drops everything machine- and run-specific (timestamps,
load average, CPU cache shapes, iteration counts) and keeps one number
per benchmark: median-of-repetitions real time in nanoseconds. The
committed file is therefore byte-stable in *structure*; the values are
measurements and move with the hardware, which is why `check` applies a
ratio threshold instead of exact comparison. Both modes keep each
benchmark's fastest median over BASELINE_RUNS runs: load from other
processes only ever slows a run down, so the fastest figure is the one
closest to what the code costs on a quiet host, and `check` compares
the same estimator against the baseline that `run` wrote.

Host portability: `BM_Calibrate` times a fixed compute kernel unrelated
to ctagg (perfbench's calibration kernel). `check` multiplies every
baseline by current/baseline `BM_Calibrate` time before applying the
threshold, so a baseline recorded on a faster or slower host is compared
at this host's speed. The threshold itself is not scaled.

Usage:
  perf_gate.py run   --bench <path> --out BENCH_micro.json
  perf_gate.py check --bench <path> --baseline BENCH_micro.json \
                     [--threshold 1.6] [--min-ns 50]

Exit codes: 0 ok, 1 regression(s) found, 2 usage/environment error.
"""

import argparse
import json
import subprocess
import sys

# Benchmarks are compared by ratio current/baseline; anything faster or
# within the threshold passes. Sub-`min_ns` benchmarks are skipped in
# `check`: a 4 ns kernel regressing to 7 ns is inside timer jitter on a
# shared CI runner, not a signal.
DEFAULT_THRESHOLD = 1.6
DEFAULT_MIN_NS = 50.0
REPETITIONS = 5
BASELINE_RUNS = 5
CALIBRATION = "BM_Calibrate"


def run_bench(bench_path, bench_filter=None):
    cmd = [
        bench_path,
        "--benchmark_format=json",
        f"--benchmark_repetitions={REPETITIONS}",
        "--benchmark_report_aggregates_only=true",
    ]
    if bench_filter:
        # The calibration kernel always runs: check scales by it.
        cmd.append(f"--benchmark_filter=({bench_filter})|^{CALIBRATION}$")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def normalize(doc):
    """One {name: median_real_time_ns} per benchmark, sorted by name."""
    times = {}
    for b in doc.get("benchmarks", []):
        # With report_aggregates_only we see <name>_mean/_median/_stddev
        # (and _cv on newer versions); keep the median.
        if b.get("aggregate_name") != "median":
            continue
        name = b["run_name"]
        if b.get("time_unit", "ns") != "ns":
            raise SystemExit(f"unexpected time unit for {name}")
        times[name] = round(float(b["real_time"]), 1)
    if not times:
        raise SystemExit("no benchmark medians found in output")
    return {"schema": "ctagg-bench-micro-v1",
            "time_unit": "ns",
            "repetitions": REPETITIONS,
            "benchmarks": dict(sorted(times.items()))}


def fastest(runs):
    """Each benchmark's lowest median over several normalized runs of
    the same binary, sorted by name."""
    names = set(runs[0])
    if any(set(r) != names for r in runs):
        raise SystemExit("runs report different benchmarks")
    return {name: min(r[name] for r in runs) for name in sorted(names)}


def measure(bench_path, bench_filter=None):
    """BASELINE_RUNS normalized runs folded into one document whose
    benchmarks are each kernel's fastest median."""
    docs = [normalize(run_bench(bench_path, bench_filter))
            for _ in range(BASELINE_RUNS)]
    doc = docs[0]
    doc["benchmarks"] = fastest([d["benchmarks"] for d in docs])
    return doc


def cmd_run(args):
    doc = measure(args.bench, args.filter)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")
    print(f"wrote {args.out} ({len(doc['benchmarks'])} benchmarks)")
    return 0


def compare(base, current, threshold, min_ns):
    """Compare {name: ns} medians against a baseline, both containing
    CALIBRATION. Returns (calibration ratio, report lines, regressed
    names, missing names)."""
    if CALIBRATION not in base or CALIBRATION not in current:
        raise SystemExit(f"{CALIBRATION} missing from the baseline or the "
                         "run; regenerate the baseline with `run`")
    scale = current[CALIBRATION] / base[CALIBRATION]
    lines = [f"calibration {CALIBRATION}: {base[CALIBRATION]:.1f} -> "
             f"{current[CALIBRATION]:.1f} ns, baselines scaled x{scale:.3f}"]
    failures = []
    missing = []
    for name, base_ns in sorted(base.items()):
        if name == CALIBRATION:
            continue
        if name not in current:
            missing.append(name)
            continue
        cur_ns = current[name]
        scaled_ns = base_ns * scale
        if base_ns < min_ns:
            status = "skip (below min-ns)"
        elif cur_ns > scaled_ns * threshold:
            status = "REGRESSION"
            failures.append(name)
        else:
            status = "ok"
        ratio = cur_ns / scaled_ns if scaled_ns else float("inf")
        lines.append(f"{name:45s} {scaled_ns:12.1f} -> {cur_ns:12.1f} ns  "
                     f"x{ratio:5.2f}  {status}")
    for name in sorted(set(current) - set(base)):
        lines.append(f"{name:45s} {'(new, no baseline)':>30s}")
    return scale, lines, failures, missing


def cmd_check(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    base = baseline["benchmarks"]
    current = measure(args.bench, args.filter)["benchmarks"]

    _, lines, failures, missing = compare(base, current, args.threshold,
                                          args.min_ns)
    print("\n".join(lines))
    if missing:
        print(f"\nFAIL: {len(missing)} baseline benchmark(s) no longer "
              f"reported: {', '.join(missing)}")
        return 1
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond "
              f"x{args.threshold}: {', '.join(failures)}")
        return 1
    print(f"\nOK: {len(base) - 1} benchmarks within x{args.threshold} "
          "of the calibrated baseline")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    for mode in ("run", "check"):
        p = sub.add_parser(mode)
        p.add_argument("--bench", required=True,
                       help="path to the bench_micro binary")
        p.add_argument("--filter", default=None,
                       help="optional --benchmark_filter regex")
        if mode == "run":
            p.add_argument("--out", default="BENCH_micro.json")
        else:
            p.add_argument("--baseline", default="BENCH_micro.json")
            p.add_argument("--threshold", type=float,
                           default=DEFAULT_THRESHOLD)
            p.add_argument("--min-ns", type=float, default=DEFAULT_MIN_NS)
    args = ap.parse_args()
    return cmd_run(args) if args.mode == "run" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
