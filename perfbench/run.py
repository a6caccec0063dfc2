#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload sim-original --seed 1 \
        --seconds 30 --trace 0

Workloads: sim-original, sim-optimized, serve-mix. The repository's
libraries, the offchip-serve daemon and the driver are built with CMake
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
build output goes to stderr. The driver's report goes to stdout and its
last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The exit code is the driver's: 0 only when every output
checked out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-original", "sim-optimized", "serve-mix")
# The driver's own limit; a run is expected to take its window plus a few
# seconds of set-up and checks.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected %s)"
             % os.path.join(ROOT, "src"), 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench", "offchip-serve"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    out = build_dir()
    build(out)
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--serve-bin", os.path.join(out, "offchip-serve"),
           "--work-dir", work]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("the driver did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
