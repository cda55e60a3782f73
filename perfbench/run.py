#!/usr/bin/env python3
"""Builds the ATIS benchmark program from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first run configures and compiles perfbench/CMakeLists.txt (the
libraries under src/ plus perfbench/atis_perfbench.cc) into .bench_build/;
later runs only re-check the build. Build output goes to stderr. The last
line of stdout is the program's JSON result. The exit status is non-zero,
and no result is printed, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "atis_perfbench")
WORKLOADS = ("paper_mix", "serve_uniform", "serve_hot", "live_traffic")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150


def run_checked(cmd, timeout, stdout):
    """Runs cmd to completion; kills it on timeout or interruption."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[0]} exited with {proc.returncode}")
    return out


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "atis_perfbench"],
                BUILD_TIMEOUT_S, sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        build()
        work_dir = os.path.join(BUILD, f"work-{os.getpid()}")
        os.makedirs(work_dir, exist_ok=True)
        try:
            out = run_checked(
                [BINARY, "--workload", args.workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 args.trace, "--work-dir", work_dir],
                args.seconds + RUN_GRACE_S, subprocess.PIPE)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        lines = out.decode().strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if not isinstance(result, dict) or set(result) != {
                "correct", "attempted", "failed", "metrics"}:
            raise RuntimeError("atis_perfbench printed no result line")
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
