#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload wire_stream --seed 7 --seconds 10 \
        --trace 0

Run from the root of a libses checkout. The first run configures and
builds perfbench/ (the libses modules, ses_server and the perfbench
program) into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench
when that is set; later runs only re-check the build. Build output goes to
stderr. The program's last stdout line is the result JSON.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_batch", "wire_stream", "wire_fanout")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "ses_server"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no libses sources at %s/src; run from a checkout"
              % ROOT, file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (subprocess.SubprocessError, OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(build_dir, "ses_server"),
        "--out-dir", os.path.join(build_dir, "out"),
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if result.returncode != 0:
        print("perfbench: benchmark program exited with %d"
              % result.returncode, file=sys.stderr)
        return result.returncode
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
