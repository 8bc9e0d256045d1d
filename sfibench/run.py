#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one invocation.

    python3 sfibench/run.py --workload edge_lean --seed 1 --seconds 20 --trace 0

The benchmark is its own CMake project (sfibench/CMakeLists.txt) built on
the repository's libraries. It is configured once into .bench_build/sfibench
and rebuilt incrementally on every call, then the sfibench binary runs from
the checkout root with the same arguments. Build output goes to stderr, so
the last line of stdout is always the benchmark's JSON result, and a failed
build exits nonzero without printing one.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "sfibench")
BUILD = os.path.join(ROOT, ".bench_build", "sfibench")
JOBS = str(min(4, os.cpu_count() or 1))
# Keep the compiler's temporary files inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    rc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr).returncode
    if rc != 0:
        print("sfibench: build step failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(rc)


def main():
    os.makedirs(TMP, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        step(["cmake", "-S", SOURCE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", BUILD, "--target", "sfibench", "-j", JOBS])
    binary = os.path.join(BUILD, "sfibench")
    out_dir = os.path.join(ROOT, ".bench_build", "sfibench-out")
    sys.exit(subprocess.run([binary] + sys.argv[1:] + ["--out-dir", out_dir],
                            cwd=ROOT, env=ENV).returncode)


if __name__ == "__main__":
    main()
