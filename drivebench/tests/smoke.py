#!/usr/bin/env python3
"""Smoke runs of every drivebench workload.

    smoke.py <drivebench binary> <BENCHMARK.json>

Each workload runs on a tiny world (a seed without a pinned digest, so
the output is checked against another drive on the same world) with
tracing off and on; every metric BENCHMARK.json names must be emitted
with its unit and a finite value.  fleet-golden also runs once on the
pinned seed-1 world, whose digest is the golden one.  A pass made to
throw must fail the run, with a result, and must not hang it.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

BINARY = None
SPEC = None


def run(work_dir, *args, timeout=600):
    p = subprocess.run([BINARY, *args, "--work-dir", work_dir],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=timeout)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


class Smoke(unittest.TestCase):
    def check(self, workload, trace, *extra):
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        with tempfile.TemporaryDirectory() as work:
            code, out, err = run(work, "--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace),
                                 *extra)
        self.assertEqual(code, 0, err)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        got = out["metrics"]
        missing = set(want) - set(got)
        self.assertFalse(missing, f"{workload} trace={trace} lacks {missing}")
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertTrue(math.isfinite(got[name]["value"]), name)
        return got

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    got = self.check(w["name"], trace, "--blocks", "60")
                    if trace:
                        self.assertGreaterEqual(got["trace.coverage"]["value"], 0.9)
                    if trace and w["name"] == "fleet-golden":
                        # The serve layers are measured on this world.
                        self.assertGreater(got["snapshot.queries"]["value"], 0)
                        self.assertGreater(got["util.image_bytes"]["value"], 0)

    def test_golden_world_hits_the_golden_digest(self):
        # Seed 1 at the default size is gated on the pinned digest.
        self.check("fleet-golden", 0)

    def test_a_pass_that_throws_fails_the_run(self):
        # The second in-process pass throws; the run must still end, print
        # its result and count that pass's operations as failed.
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]), \
                    tempfile.TemporaryDirectory() as work:
                code, out, err = run(work, "--workload", w["name"], "--seed",
                                     "3", "--seconds", "1", "--trace", "0",
                                     "--blocks", "60", "--fail-pass", "1",
                                     timeout=120)
                self.assertEqual(code, 1, err)
                self.assertIn("injected pass failure", err)
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["failed"], 1)
                self.assertGreater(out["attempted"], out["failed"])
                self.assertLess(out["metrics"]["ok_frac"]["value"], 1.0)

    def test_bad_arguments_fail_without_a_result(self):
        with tempfile.TemporaryDirectory() as work:
            for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                          "--trace", "0"],
                         ["--workload", "fleet-golden", "--seed", "-4"],
                         ["--workload", "fleet-golden", "--trace", "2"]):
                code, out, _ = run(work, *args)
                self.assertNotEqual(code, 0, args)
                self.assertIsNone(out, args)


if __name__ == "__main__":
    BINARY = os.path.abspath(sys.argv[1])
    with open(sys.argv[2]) as f:
        SPEC = json.load(f)
    unittest.main(argv=sys.argv[:1], verbosity=2)
