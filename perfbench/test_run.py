#!/usr/bin/env python3
"""Tests of the benchmark itself: `python3 perfbench/test_run.py`."""

import json
import math
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_never_reported_with_fewer_than_ten_beyond(self):
        for n in range(1, 260):
            samples = [float(n - i) for i in range(n)]  # unsorted input
            for q in (50, 90, 95, 99):
                rank = math.ceil(q / 100.0 * n)
                if n - rank < 10:
                    with self.assertRaises(ValueError, msg=f"p{q} of {n}"):
                        run.percentile(samples, q)
                else:
                    self.assertEqual(run.percentile(samples, q), float(rank))

    def test_small_runs_get_no_tail(self):
        # A floor-rank p99 of 32 samples is simply the maximum.
        samples = list(range(32))
        with self.assertRaises(ValueError):
            run.percentile(samples, 99)
        self.assertEqual(run.percentile(list(range(200)), 90), 179)


class FailureAccountingTest(unittest.TestCase):
    def test_dropped_request_is_counted_and_metrics_still_print(self):
        # Each daemon's set-up writes 6 responses (a ping and one preload
        # per warm spec), so the 20th write falls inside the timed window.
        env = dict(os.environ, PG_FAULTS="serve.write:throw@20")
        out = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload",
             "serve_mix", "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=run.REPO, env=env, capture_output=True, text=True,
            timeout=600)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], run.request_count(1))
        self.assertFalse(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(name for name, _ in run.END_TO_END))
        for name, unit in run.END_TO_END:
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit)
            self.assertGreater(metric["value"], 0, name)
        fingerprint = next(line for line in out.stdout.splitlines()
                           if line.startswith("fingerprint "))
        record = json.loads(fingerprint[len("fingerprint "):])
        self.assertAlmostEqual(record["failed_fraction"],
                               1 / run.request_count(1))


if __name__ == "__main__":
    unittest.main()
