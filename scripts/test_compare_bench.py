#!/usr/bin/env python3
"""Tests for compare_bench.py's host matching and its refusal of
malformed files, on small hand-made files.

Run: python3 scripts/test_compare_bench.py (ctest runs it as
test_compare_bench).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "compare_bench.py"

HOST_A = {"nproc": 4, "cpu_model": "Example CPU A", "compiler": "gcc 12.2.0"}
HOST_B = {"nproc": 8, "cpu_model": "Example CPU B", "compiler": "gcc 12.2.0"}


def bench(host, slots_per_sec, cell_kib, makespan):
    """A minimal BENCH_sim.json: one time row, one memory row, one
    deterministic row, no acceptance section."""
    doc = {
        "results": [{"topology": "SK(4,3,2)", "arbitration": "token",
                     "engine": "phased", "slots_per_sec": slots_per_sec,
                     "route_table_bytes": 1000}],
        "memory": {"cell_kib": cell_kib},
        "collectives": [{"topology": "SK(4,3,2)", "operation": "gossip",
                         "makespan_slots": makespan}],
    }
    if host is not None:
        doc["host"] = host
    return doc


class CompareBenchHosts(unittest.TestCase):
    def compare(self, previous, current):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("prev.json", previous), ("cur.json", current)):
                path = Path(tmp) / name
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            run = subprocess.run([sys.executable, str(SCRIPT), *paths],
                                 capture_output=True, text=True, check=False)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        return run.stdout

    def test_same_host_compares_time_and_memory_rows(self):
        out = self.compare(bench(HOST_A, 1000, 100, 5),
                           bench(HOST_A, 500, 200, 6))
        self.assertNotIn("Different hosts", out)
        self.assertIn("title=Perf regression", out)
        self.assertIn("title=Memory regression", out)
        self.assertIn("title=Makespan regression", out)

    def test_other_host_skips_time_and_memory_rows(self):
        out = self.compare(bench(HOST_A, 1000, 100, 5),
                           bench(HOST_B, 500, 200, 6))
        self.assertEqual(out.count("title=Different hosts"), 1)
        self.assertIn("Example CPU A", out)
        self.assertIn("Example CPU B", out)
        self.assertNotIn("title=Perf regression", out)
        self.assertNotIn("title=Memory regression", out)
        # Deterministic rows are compared whatever the host.
        self.assertIn("title=Makespan regression", out)

    def test_file_without_host_block_is_an_unknown_host(self):
        for previous, current in ((None, HOST_A), (HOST_A, None),
                                  (None, None)):
            out = self.compare(bench(previous, 1000, 100, 5),
                               bench(current, 500, 200, 5))
            self.assertEqual(out.count("title=Different hosts"), 1)
            self.assertIn("an unknown host", out)
            self.assertNotIn("title=Perf regression", out)
            self.assertNotIn("title=Memory regression", out)


class CompareBenchMalformedFiles(unittest.TestCase):
    """A file that is no BENCH document ends in a message naming it,
    never a traceback: exit 1 as the current file, and "no previous
    results" as the previous one."""

    MALFORMED = {
        "deep.json": "[" * 200_000 + "]" * 200_000,
        "list.json": json.dumps([bench(HOST_A, 1000, 100, 5)]),
    }

    def run_script(self, previous, current):
        return subprocess.run([sys.executable, str(SCRIPT), previous, current],
                              capture_output=True, text=True, check=False)

    def test_malformed_files_fail_with_a_message_naming_them(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.json"
            good.write_text(json.dumps(bench(HOST_A, 1000, 100, 5)),
                            encoding="utf-8")
            for name, text in self.MALFORMED.items():
                with self.subTest(name):
                    bad = Path(tmp) / name
                    bad.write_text(text, encoding="utf-8")
                    as_current = self.run_script(str(good), str(bad))
                    out = as_current.stdout + as_current.stderr
                    self.assertEqual(as_current.returncode, 1, out)
                    self.assertIn(f"cannot read current results from {bad}",
                                  out)
                    self.assertNotIn("Traceback", out)

                    as_previous = self.run_script(str(bad), str(good))
                    out = as_previous.stdout + as_previous.stderr
                    self.assertEqual(as_previous.returncode, 0, out)
                    self.assertIn(f"no previous results in {bad}", out)
                    self.assertNotIn("Traceback", out)


if __name__ == "__main__":
    unittest.main()
