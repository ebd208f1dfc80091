"""Tests of spread.py's statistics and its comparison of two sets of runs.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import spread

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def runs(**metrics):
    """One workload `w` whose metrics have the given values per run."""
    return {"w": {name: list(values) for name, values in metrics.items()}}


class SpreadTest(unittest.TestCase):
    def test_quartiles_over_median(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        # statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        self.assertAlmostEqual(spread.spread([5, 1, 4, 2, 3]), 3.0 / 3.0)
        self.assertEqual(spread.spread([7.0] * 10), 0.0)

    def test_undefined_spread(self):
        self.assertIsNone(spread.spread([1.0]))
        self.assertIsNone(spread.spread([0.0, 0.0, 0.0]))

    def test_worsening_follows_direction(self):
        base, slower = [10.0] * 3, [12.0] * 3
        self.assertAlmostEqual(spread.worsening(base, slower, "lower"), 0.2)
        self.assertAlmostEqual(spread.worsening(base, slower, "higher"), -0.2)
        self.assertIsNone(spread.worsening([0.0], [1.0], "lower"))
        self.assertIsNone(spread.worsening([], [1.0], "lower"))

    def test_worsening_uses_medians(self):
        # One wild outlier in the candidate set does not move its median.
        base = [100.0, 101.0, 99.0, 100.0, 100.0]
        cand = [100.0, 101.0, 99.0, 100.0, 1000.0]
        self.assertAlmostEqual(spread.worsening(base, cand, "lower"), 0.0)


class JudgeTest(unittest.TestCase):
    def test_steady_set_passes(self):
        ok, _ = spread.judge(SPEC, runs(setup_s=[1.0, 1.01, 0.99, 1.0],
                                        jobs_per_s=[50, 51, 49, 50]))
        self.assertTrue(ok)

    def test_setup_spread_is_checked_too(self):
        ok, lines = spread.judge(SPEC, runs(setup_s=[1.0, 2.0, 0.5, 1.5],
                                            jobs_per_s=[50, 51, 49, 50]))
        self.assertFalse(ok)
        self.assertIn("SPREAD ABOVE BOUND", next(l for l in lines if "setup_s" in l))

    def test_missing_metric_fails(self):
        ok, _ = spread.judge(SPEC, runs(setup_s=[1.0, 1.0, 1.0]))
        self.assertFalse(ok)

    def test_candidate_worse_beyond_bound_fails(self):
        base = runs(setup_s=[1.0] * 4, jobs_per_s=[50.0] * 4)
        same = runs(setup_s=[1.1] * 4, jobs_per_s=[48.0] * 4)
        slower = runs(setup_s=[1.0] * 4, jobs_per_s=[40.0] * 4)
        faster = runs(setup_s=[1.0] * 4, jobs_per_s=[80.0] * 4)
        self.assertTrue(spread.judge(SPEC, base, same)[0])
        self.assertFalse(spread.judge(SPEC, base, slower)[0])
        self.assertTrue(spread.judge(SPEC, base, faster)[0])
        # A candidate set whose own spread is beyond its bound fails too.
        noisy = runs(setup_s=[1.0] * 4, jobs_per_s=[40.0, 60.0, 50.0, 50.0])
        self.assertFalse(spread.judge(SPEC, base, noisy)[0])

    def test_reads_run_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "runs.jsonl")
            with open(path, "w") as f:
                for seed, value in [(1, 2.0), (2, 3.0)]:
                    result = {"correct": True, "attempted": 1, "failed": 0,
                              "metrics": {"setup_s": {"value": value, "unit": "s"}}}
                    f.write(json.dumps({"workload": "w", "seed": seed, "trace": 0,
                                        "result": result}) + "\n")
            self.assertEqual(spread.read_runs(path), {"w": {"setup_s": [2.0, 3.0]}})


if __name__ == "__main__":
    unittest.main()
