#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only rebuild what changed. Build output and progress go to stderr; the last
line of stdout is the result object the benchmark binary printed:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without printing a result, when the sources are missing or
do not build, and non-zero after printing the result when a correctness
check failed. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "prord_perfbench")
WORKLOADS = ("sim_fig8", "live_closed")
# One run must finish within 180 s; the binary itself sizes its work by
# --seconds, so this only catches a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout=None, capture=False):
    """Runs cmd to completion; kills it (and waits) on timeout or signal."""
    # Compilers' scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True, env=dict(os.environ, TMPDIR=tmp))
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.h")):
        log(f"no PRORD sources under {ROOT}/src")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc, _ = run_child(["cmake", "-S", HERE, "-B", BUILD_DIR])
        if rc != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc, _ = run_child(["cmake", "--build", BUILD_DIR, "-j", jobs])
    return rc == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    # A signal from whoever runs us must still stop and reap the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        log("build failed")
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    rc, out = run_child(cmd, timeout=RUN_TIMEOUT_S, capture=True)
    lines = (out or "").strip().splitlines()
    result = valid_result(lines[-1]) if lines else None
    if rc is None or result is None:
        log("the benchmark printed no result")
        return 1
    print(lines[-1], flush=True)
    return 0 if rc == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
