#!/usr/bin/env python3
"""Build layerbench from source, prepare the trained suite, run one workload.

    python3 layerbench/run.py --workload device_suite|fleet_diurnal|fleet_warm
                              --seed N --seconds S --trace 0|1
    python3 layerbench/run.py --selftest

Paths resolve from this file, so any working directory works. Build output goes to .bench_build/layerbench and the trained models
to .bench_build/layerbench-models, both untracked. The first run builds
libmann and trains the 20-task suite (about a minute on 4 cores); later
runs reuse both. The last line of standard output is the benchmark's JSON
result; everything else goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "layerbench"
MODELS = ROOT / ".bench_build" / "layerbench-models"
TRACE_CSV = ROOT / "bench" / "traces" / "sample_diurnal.csv"
WORKLOADS = ("device_suite", "fleet_diurnal", "fleet_warm")

BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"layerbench: {message}", file=sys.stderr)
    sys.exit(2)


def step(cmd, timeout):
    """Runs a build/prepare step with its output on stderr."""
    try:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    except OSError as err:
        fail(f"cannot start {cmd[0]}: {err}")
    if result.returncode != 0:
        fail(f"exit {result.returncode}: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src").is_dir() or not TRACE_CSV.is_file():
        fail(f"{ROOT} holds no mann sources (src/) or no "
             f"{TRACE_CSV.relative_to(ROOT)}; run from a repository checkout")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text(errors="replace"):
        # The checkout moved: a build tree is tied to its source path.
        shutil.rmtree(BUILD)
    if not cache.is_file():
        step(["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(8, os.cpu_count() or 1))
    step(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S)
    step([str(BUILD / "layerbench"), "prepare", "--models", str(MODELS)],
         PREPARE_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the output checks' negative controls")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.selftest:
        cmd = [str(BUILD / "layerbench_selftest"), "--models", str(MODELS),
               "--trace-csv", str(TRACE_CSV)]
    else:
        cmd = [str(BUILD / "layerbench"), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--models", str(MODELS),
               "--trace-csv", str(TRACE_CSV)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
