#!/usr/bin/env python3
"""Same-machine events/s A/B between two bench_perf binaries.

Runs `bench_perf --skip-live` three times with each of the base and the
head binary, alternating (base, head, base, ...), each pass into a fresh
directory; reads fig8_memory_sweep's events_per_sec from every
BENCH_sim.json; and fails when the head's median falls below 0.8 times
the base's. Alternating the passes spreads machine drift over both
sides. The bound is loose because shared CI runners are noisy; the exact
simulator gate is bench_perf's --pin. Both binaries must write schema v3
reports (one row per scenario).

    python3 tools/perf_ab.py BASE/bench_perf HEAD/bench_perf

Exit status: 0 pass, 1 regression or a failed pass.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIO = "fig8_memory_sweep"
PASSES = 3
MIN_RATIO = 0.8


def events_per_sec(binary, scenario):
    with tempfile.TemporaryDirectory() as out:
        subprocess.run([binary, "--skip-live", f"--out-dir={out}"],
                       check=True, stdout=subprocess.DEVNULL)
        report = json.loads((Path(out) / "BENCH_sim.json").read_text())
    rows = [s for s in report["scenarios"] if s["name"] == scenario]
    if len(rows) != 1:
        raise SystemExit(f"perf_ab: {binary}: {len(rows)} rows named "
                         f"{scenario!r}")
    return rows[0]["events_per_sec"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the base commit's bench_perf")
    parser.add_argument("head", help="the change's bench_perf")
    args = parser.parse_args()

    runs = {"base": [], "head": []}
    for i in range(PASSES):
        for side in ("base", "head"):
            rate = events_per_sec(getattr(args, side), SCENARIO)
            runs[side].append(rate)
            print(f"pass {i + 1} {side}: {rate:,.0f} events/s", flush=True)

    base = statistics.median(runs["base"])
    head = statistics.median(runs["head"])
    ratio = head / base if base > 0 else 0.0
    print(f"{SCENARIO} median events/s: base {base:,.0f}, "
          f"head {head:,.0f} ({ratio:.3f}x, gate {MIN_RATIO:.2f}x)")
    if ratio < MIN_RATIO:
        print("perf_ab: FAIL: head is slower than the gate allows",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
