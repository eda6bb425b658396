#!/usr/bin/env python3
"""Builds newsdiff from source and runs one benchmark workload.

    python3 perfbench/run.py --workload serve_refresh --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when
it is set, otherwise to .bench_build; build output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. Exits non-zero,
without a result, when the sources are missing or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no newsdiff sources under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "newsbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    binary = os.path.join(build_dir, "newsbench")
    # The frozen embedding store is trained once per build directory, in
    # its own process, before any timed run.
    prepare = subprocess.run([binary, "prepare", "--work", build_dir],
                             stdout=sys.stderr, stderr=sys.stderr)
    if prepare.returncode:
        fail("prepare failed")
    run = subprocess.run([binary, "run", "--work", build_dir] + sys.argv[1:],
                         cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
