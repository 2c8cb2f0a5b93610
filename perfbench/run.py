#!/usr/bin/env python3
"""Builds the benchmark from the repository's sources, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build tree is .bench_build/perfbench under the root. The first call
configures and compiles (about half a minute on 4 cores); later calls only
check that the build is up to date. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: the repository's sources are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench", "perfbench_selftest"],
        check=True,
        stdout=sys.stderr,
    )


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    args = sys.argv[1:]
    if args == ["--selftest"]:
        binary, args = "perfbench_selftest", []
    else:
        binary = "perfbench"
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
