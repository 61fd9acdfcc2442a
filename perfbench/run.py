#!/usr/bin/env python3
"""Builds and runs the HaoCL wall-clock benchmark from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which pulls in the HaoCL
libraries from ../src) into .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr. The benchmark's stdout is passed
through unchanged: its last line is the JSON result. With --trace 1 the
spans of the last traced instance are written as Chrome trace-event JSON
to .bench_build/perfbench/trace-<workload>.json.

Exit status: the benchmark's own (nonzero on any output mismatch or
exact-count violation), or nonzero without a result when the HaoCL sources
are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "api", "hao_cl.h"))):
        sys.stderr.write("perfbench: HaoCL sources not found in %s\n" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench_e2e"):
        return 1
    command = [os.path.join(BUILD, "perfbench_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
