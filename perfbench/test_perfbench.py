#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

- BENCHMARK.json keeps the shape and limits its format allows;
- layer_map.json maps every per-layer metric onto end-to-end metrics and
  workloads that exist;
- a tiny-size (--smoke) run of every workload, untraced and traced, passes
  its correctness checks and prints exactly the metrics BENCHMARK.json
  lists, with their units;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  fails without printing a result.

The smoke runs build the benchmark first (about a minute from scratch).
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
REL_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(name):
    with open(name, encoding="utf-8") as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
LAYER_MAP = load(os.path.join(HERE, "layer_map.json"))


def run_bench(cwd, workload, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "0", "--trace", str(trace),
                              "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class ShapeTest(unittest.TestCase):
    def test_keys_and_sizes(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertIsInstance(BENCH["run_seconds"], int)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertTrue(1 <= len(BENCH["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(BENCH["per_layer"]) <= 128)

    def test_command_and_paths(self):
        cmd = BENCH["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        paths = BENCH["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, REL_PATH)
            self.assertNotIn("..", p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        # Every file the command names lies under a benchmark path.
        for arg in cmd[1:]:
            if os.path.exists(os.path.join(ROOT, arg)):
                self.assertTrue(any(arg == p or arg.startswith(p + "/")
                                    for p in paths), arg)

    def test_names_and_units(self):
        names = [w["name"] for w in BENCH["workloads"]]
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is reused")

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in BENCH["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_layer_map(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        workloads = {w["name"] for w in BENCH["workloads"]}
        self.assertEqual(set(LAYER_MAP), {m["name"] for m in BENCH["per_layer"]})
        for name, entry in LAYER_MAP.items():
            self.assertTrue(entry["moves"], name)
            self.assertTrue(entry["on"], name)
            self.assertLessEqual(set(entry["moves"]), e2e, name)
            self.assertLessEqual(set(entry["on"]), workloads, name)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            # Each metric is measured on the workloads the map says.
            for name, entry in LAYER_MAP.items():
                if workload in entry["on"] and name not in (
                        "policies.replicas_pushed", "obs.trace_overhead"):
                    self.assertNotEqual(result["metrics"][name]["value"], 0,
                                        name)

    def test_every_workload(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench(bare, BENCH["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    unittest.main()
