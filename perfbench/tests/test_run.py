"""Unit tests of run.py's statistics: the tail rule, nearest-rank
percentiles, the fairness dispersion and its per-repetition check.
Run them with

    python3 perfbench/run.py --self-test

or, for these alone, python3 -m unittest discover -s perfbench/tests
"""
import importlib.util
import math
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        # p99.9 needs 10 samples above its rank: 10000 values have them.
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.beyond(10000, 99.9), 10)
        # 9999 values leave only 9 above p99.9, so p99 is the tail.
        self.assertEqual(run.tail_percentile(9999), 99.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(999), 95.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(100), 90.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))
        self.assertIsNone(run.tail_percentile(0))

    def test_every_chosen_tail_keeps_ten_beyond(self):
        for n in range(1, 3000):
            pct = run.tail_percentile(n)
            if pct is not None:
                self.assertGreaterEqual(run.beyond(n, pct), run.MIN_BEYOND)

    def test_summarize_reports_count_median_and_tail(self):
        values = list(range(1, 1001))
        count, median, tail, tail_value = run.summarize(reversed(values))
        self.assertEqual(count, 1000)
        self.assertEqual(median, 500.5)
        self.assertEqual(tail, 99.0)
        self.assertEqual(tail_value, 990)
        self.assertEqual(run.summarize([3.0, 1.0])[2:], (None, None))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        self.assertEqual(run.percentile(values, 50.0), 20.0)
        self.assertEqual(run.percentile(values, 75.0), 30.0)
        self.assertEqual(run.percentile(values, 99.0), 40.0)
        self.assertEqual(run.percentile([5.0], 99.9), 5.0)


class DispersionTest(unittest.TestCase):
    def test_weight_normalised(self):
        tenants = {"a": {"weight": 2.0, "contended": 200},
                   "b": {"weight": 1.0, "contended": 100},
                   "c": {"weight": 1.0, "contended": 125}}
        self.assertAlmostEqual(run.dispersion(tenants), 1.25)

    def test_starved_tenant_is_infinite(self):
        tenants = {"a": {"weight": 1.0, "contended": 10},
                   "b": {"weight": 1.0, "contended": 0}}
        self.assertTrue(math.isinf(run.dispersion(tenants)))

    def test_each_repetition_is_checked(self):
        # One repetition with a favoured tenant fails on its own, even
        # where pooling it with a fair one would stay within the bound.
        def rep(a, b):
            return {"traced": True, "rejected": 0, "refused": 0,
                    "not_done": 0, "wrong_units": 0, "lost": 0,
                    "accepted": 8, "submissions": 8,
                    "tenants": {"a": {"weight": 1.0, "contended": a},
                                "b": {"weight": 1.0, "contended": b}}}
        _, fair = run.check_rep("serve_open", rep(100, 100), 1, {})
        _, unfair = run.check_rep("serve_open", rep(160, 100), 1, {})
        self.assertEqual(fair, [])
        self.assertEqual(len(unfair), 1)
        self.assertIn("fairness dispersion 1.600", unfair[0])


if __name__ == "__main__":
    unittest.main()
