#!/usr/bin/env python3
"""Self-test of tools/check_perf.py on synthetic runs.

Each case writes a baseline and a current google-benchmark run of nine
benchmarks (the size of the micro_pipeline suite) and checks the verdict:
a uniform host slowdown passes, one benchmark slower than its peers
fails, and a real speed-up of two benchmarks flags none of the others.

Usage:
  check_perf_test.py

Exit code 0 when every case holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "check_perf.py")

BASELINE = {f"BM_Synthetic{i}": 1000.0 * (i + 1) for i in range(9)}


def run_file(times):
    """A google-benchmark JSON dump holding one median per benchmark."""
    return {"benchmarks": [
        {"name": f"{name}_median", "run_name": name, "run_type": "aggregate",
         "aggregate_name": "median", "cpu_time": t, "time_unit": "ns"}
        for name, t in times.items()]}


def check(current):
    """Runs check_perf.py on BASELINE against \\p current; returns
    (exit code, output)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, times in (("baseline", BASELINE), ("current", current)):
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fp:
                json.dump(run_file(times), fp)
            paths.append(path)
        done = subprocess.run([sys.executable, CHECK] + paths,
                              capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


class CheckPerfTest(unittest.TestCase):
    def flagged(self, output):
        return {line.split()[0] for line in output.splitlines()
                if "REGRESSION" in line}

    def test_uniform_host_slowdown_passes(self):
        code, output = check({n: 2.0 * t for n, t in BASELINE.items()})
        self.assertEqual(code, 0, output)
        self.assertEqual(self.flagged(output), set(), output)

    def test_one_benchmark_slower_than_its_peers_fails(self):
        current = dict(BASELINE)
        current["BM_Synthetic4"] *= 1.5
        code, output = check(current)
        self.assertEqual(code, 1, output)
        self.assertEqual(self.flagged(output), {"BM_Synthetic4"}, output)

    def test_two_benchmarks_three_times_faster_flag_nothing(self):
        current = dict(BASELINE)
        current["BM_Synthetic0"] /= 3.0
        current["BM_Synthetic1"] /= 3.0
        code, output = check(current)
        self.assertEqual(code, 0, output)
        self.assertEqual(self.flagged(output), set(), output)


if __name__ == "__main__":
    unittest.main()
