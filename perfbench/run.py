#!/usr/bin/env python3
"""Build and run the PREMA host-time and balance-quality benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/ with CMake into .bench_build/perfbench at the
repository root and builds it (incremental after the first run), then runs
the driver with the same arguments. The driver's last line on stdout is the
JSON result; build output goes to .bench_build/build.log. See README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LOG = os.path.join(BUILD_ROOT, "build.log")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "prema", "runtime.hpp")):
        sys.exit("perfbench: the repository's sources are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(LOG, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(LOG) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (see .bench_build/build.log)")


def main():
    build()
    return subprocess.call([os.path.join(BUILD, "perfbench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
