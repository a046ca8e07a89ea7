#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark package (e2e_bench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/ under the repository root, then runs
one workload and relays its output. The last line of standard output is the
workload's JSON result.

    python3 e2e_bench/run.py --workload embed|dispute|forge|serve|all \
        --seed N --seconds S --trace 0|1

`all` runs the four workloads one after another (a convenience for people;
its last line is the serve result). The exit code is non-zero when the
build fails or any correctness or accounting check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("embed", "dispute", "forge", "serve")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds; build chatter goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out, "e2e_bench")
    return binary if os.path.exists(binary) else None


def run_workload(binary, workload, args):
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("e2e_bench: build failed", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}")
        status = max(status, run_workload(binary, workload, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
