#!/usr/bin/env python3
"""The benchmark's own tests: every workload on a tiny configuration.

    python3 perfbench/test_perfbench.py [--binary PATH]

Without --binary the benchmark is built first (as perfbench/run.py does).
Each workload runs on a 2x2x2 tree with one simulated second of requests,
untraced and traced, in separate processes. The tests check that every
metric of BENCHMARK.json is printed with its unit, that the checksum
repeats across processes and between traced and untraced runs, and that
the operation accounting balances.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BINARY = None


def tiny(workload, trace):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--tiny", "--seconds", "0",
         "--min-reps", "2", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    metrics, fields = run.parse(proc.stdout)
    return proc, metrics, fields


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_workload(self, name):
        plain, plain_metrics, plain_fields = tiny(name, 0)
        traced, traced_metrics, traced_fields = tiny(name, 1)
        for proc in (plain, traced):
            self.assertEqual(proc.returncode, 0, proc.stdout)
            self.assertIn("result correct 1", proc.stdout)

        for group, metrics in (("end_to_end", plain_metrics),
                               ("per_layer", traced_metrics)):
            for m in self.bench[group]:
                self.assertIn(m["name"], metrics, f"{name}: {m['name']}")
                self.assertEqual(metrics[m["name"]][1], m["unit"], m["name"])
        for metric, (value, unit) in traced_metrics.items():
            self.assertTrue(unit, metric)

        # Two processes, and traced against untraced repetitions (the
        # traced process checks its own repetitions against each other).
        self.assertEqual(plain_fields["checksum"], traced_fields["checksum"])

        acct = plain_fields["accounting"]
        counts = dict(zip(acct[0::2], map(int, acct[1::2])))
        self.assertGreater(counts["completed"], 0)
        self.assertEqual(counts["issued"],
                         counts["completed"] + counts["refused"] +
                         counts["failed"] + counts["unfinished"])

    def test_packet_scda(self):
        self.check_workload("packet-scda")

    def test_fluid_scale(self):
        self.check_workload("fluid-scale")

    def test_churn_storage(self):
        self.check_workload("churn-storage")

    def test_packet_randtcp(self):
        self.check_workload("packet-randtcp")

    def test_benchmark_alone_fails_without_result(self):
        # With only BENCHMARK.json and perfbench/ there is nothing to build.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "packet-scda", "--seconds", "1"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--binary"]:
        BINARY, args = os.path.abspath(args[1]), args[2:]
    else:
        BINARY = run.build()
    unittest.main(argv=[sys.argv[0]] + args)
