#!/usr/bin/env python3
"""Build and run the ctagg repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: flat_dcube_s4, hier_grid_dynamic, rt_loopback (see
perfbench/README.md). The script configures and builds perfbench/ (a
CMake package that compiles the repository's src/ tree) into
.bench_build/perfbench, then runs the benchmark binary, which prints
informational lines and, as the last line of stdout, one JSON object
with "correct", "attempted", "failed" and "metrics". --trace 1 also
writes a Chrome trace-event file under .bench_build/traces/.

Exit code: the binary's (0 iff every output check passed); 2 when the
source tree or the build is missing or broken, without printing a
result.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "ctagg-perfbench"
WORKLOADS = ("flat_dcube_s4", "hier_grid_dynamic", "rt_loopback")


def run_timeout_s(args):
    """Bound on one run of the binary, past which it has stopped making
    progress. A pass does a fixed amount of work sized to take about
    --seconds on the reference host; --trace 1 makes two passes, except
    on rt_loopback. The factor 3 leaves room for a slower host."""
    passes = 2 if args.trace and args.workload != "rt_loopback" else 1
    return 30 + 3 * passes * args.seconds


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Run a build step, echoing its output to stderr only on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        die(f"{cmd[0]} failed: {exc}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        die(f"build step failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no ctagg source tree at {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target",
               "ctagg-perfbench", "-j", jobs], timeout=1500)
    if not BINARY.is_file():
        die(f"build produced no {BINARY}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    # Own process group, so a run that hangs is stopped together with the
    # node processes it forked.
    timeout = run_timeout_s(args)
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{args.workload} did not finish within {timeout} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
