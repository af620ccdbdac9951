"""Tests of the benchmark's own logic: the row checks catch a corrupted
row, BENCHMARK.json names the workloads run.py runs, and README.md's
traced-run table covers every per-layer metric.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

# An uncontended gossip cell on SK(8,8,2), as the sinks write it.
ROW = {
    "cell_id": "SK(8,8,2)|token|uniform|load=0.000000|w=1|routes=auto|"
               "timing=none|workload=gossip|seed=1",
    "topology": "SK(8,8,2)", "arbitration": "token", "traffic": "uniform",
    "load": 0.0, "wavelengths": 1, "routes": "auto", "timing": "none",
    "workload": "gossip", "seed": 1, "nodes": 576, "couplers": 648,
    "slots": 10, "offered": 0, "delivered": 1872, "dropped": 0,
    "collisions": 0, "coupler_transmissions": 1872, "backlog": 0,
    "makespan": 10,
}
SCHEDULE = {"SK(8,8,2)|gossip": 10}


def line(**changes):
    return json.dumps(dict(ROW, **changes))


class RowChecks(unittest.TestCase):
    def failures(self, lines, reference=None):
        return checks.failing_cells(lines, SCHEDULE, reference)

    def test_valid_row_passes_oracles_and_digest(self):
        reference = {ROW["cell_id"]: checks.row_digest(line())}
        self.assertEqual(self.failures([line()], reference), {})

    def test_corrupted_row_is_caught_by_the_digest(self):
        reference = {ROW["cell_id"]: checks.row_digest(line())}
        corrupted = line(delivered=1871)
        self.assertIsNone(checks.oracle_failure(json.loads(corrupted),
                                                SCHEDULE))
        self.assertEqual(self.failures([corrupted], reference),
                         {ROW["cell_id"]: "digest differs from the reference"})

    def test_transmissions_beyond_coupler_capacity(self):
        failures = self.failures([line(coupler_transmissions=648 * 10 + 1)])
        self.assertIn("W*couplers*slots", failures[ROW["cell_id"]])

    def test_makespan_below_schedule_length(self):
        failures = self.failures([line(makespan=9, slots=9)])
        self.assertIn("below", failures[ROW["cell_id"]])

    def test_uncontended_makespan_must_equal_schedule_length(self):
        self.assertIn(ROW["cell_id"], self.failures([line(makespan=11)]))
        # With background load the schedule length is only a lower bound.
        self.assertEqual(self.failures([line(makespan=11, load=0.3)]), {})

    def test_missing_and_malformed_rows(self):
        reference = {ROW["cell_id"]: checks.row_digest(line()),
                     "other": "0" * 16}
        failures = self.failures([line(), "{not json"], reference)
        self.assertEqual(failures["other"], "missing row")
        self.assertIn("malformed", failures["row 1"])


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_workloads_run_py_runs(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS))

    def test_readme_says_what_each_per_layer_metric_should_move(self):
        rows = [row for row in (HERE / "README.md").read_text().splitlines()
                if row.startswith("| `")]
        for name in run.benchmark_metrics("per_layer"):
            self.assertTrue(any("`%s`" % name in row for row in rows), name)

    def test_every_workload_has_a_reference(self):
        for workload in run.WORKLOADS:
            reference = json.loads(run.reference_path(workload).read_text())
            self.assertEqual(reference["seed"], run.REFERENCE_SEED)
            self.assertTrue(reference["digests"])


if __name__ == "__main__":
    unittest.main()
