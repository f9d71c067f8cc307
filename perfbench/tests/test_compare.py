"""Tests for the verdict rules of perfbench/compare.py.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (2.75, 5.5, 8.25))
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)


class VerdictTest(unittest.TestCase):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_same_runs_are_unchanged(self):
        self.assertEqual(compare.verdict(self.steady, self.steady, "lower", 0.1), "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        slower = [v * 1.2 for v in self.steady]
        self.assertEqual(compare.verdict(self.steady, slower, "lower", 0.1), "worse")
        # For a higher-is-better metric the same move is an improvement.
        self.assertEqual(compare.verdict(self.steady, slower, "higher", 0.1), "better")

    def test_small_regression_within_bound_is_unchanged(self):
        slower = [v * 1.05 for v in self.steady]
        self.assertEqual(compare.verdict(self.steady, slower, "lower", 0.1), "unchanged")

    def test_gain_needs_to_clear_the_parent_spread(self):
        faster = [v * 0.95 for v in self.steady]
        self.assertEqual(compare.verdict(self.steady, faster, "lower", 0.1), "better")
        noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
        self.assertEqual(compare.verdict(noisy, [v * 0.95 for v in noisy], "lower", 0.3),
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1), "unresolved")

    def test_separated_runs_win_despite_spread(self):
        parent = [100.0, 140.0, 120.0]
        change = [50.0, 70.0, 60.0]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1), "better")


if __name__ == "__main__":
    unittest.main()
