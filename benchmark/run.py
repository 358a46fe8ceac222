#!/usr/bin/env python3
"""Build aitax_bench from this checkout, then run it.

    python3 benchmark/run.py --workload fleet-fuzz --seed 1 --seconds 15 --trace 0

Arguments go to aitax_bench unchanged (see benchmark/README.md). The
build goes to .bench_build/ and span files to .bench_out/, both at the
root of the checkout. Build output goes to standard error, so the last
line of standard output stays the benchmark's JSON result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# A run measures for --seconds (at most 60) and then checks its outputs.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no src/ beside benchmark/, nothing to build")
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "aitax_bench", "-j", "3"],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    build()
    proc = subprocess.Popen(
        [os.path.join(BUILD, "aitax_bench")] + sys.argv[1:],
        cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The benchmark's campaign workers share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: aitax_bench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
