"""Tests of the benchmark's statistics and compare rule.

    python3 -m unittest discover -s .perfbench -p 'test_*.py'
"""

import unittest

import compare
import run
import stats


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        # 180 samples: p95 is 170.05 and only 171..179 lie above it.
        self.assertIsNone(stats.tail_percentile(list(range(180)), 95))
        # 201 samples: 10 lie above p95 (value 190).
        self.assertEqual(stats.tail_percentile(list(range(201)), 95), 190)

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 150 + [2.0] * 60
        self.assertIsNone(stats.tail_percentile(values, 95))

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([0, 10], 50), 5)
        self.assertEqual(stats.percentile([3, 1, 2], 100), 3)


class Mad(unittest.TestCase):
    def test_mad(self):
        self.assertEqual(stats.mad([1, 2, 3, 4, 100]), 1)
        self.assertEqual(stats.mad([5, 5, 5]), 0)

    def test_quartiles_match_statistics(self):
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5]), (1.5, 3.0, 4.5))


class CompareRule(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_gain_is_improved(self):
        change = [x * 1.10 for x in self.parent]
        self.assertEqual(compare.decide(self.parent, change, "higher", 0.25), "improved")

    def test_eight_wins_in_ten_is_not_improved(self):
        change = [x * 1.10 for x in self.parent[:8]] + [x * 0.99 for x in self.parent[8:]]
        self.assertEqual(compare.decide(self.parent, change, "higher", 0.25), "unchanged")

    def test_gain_inside_parent_iqr_is_not_improved(self):
        change = [x + 0.5 for x in self.parent]  # wins every pair, but by < IQR
        self.assertEqual(compare.decide(self.parent, change, "higher", 0.25), "unchanged")

    def test_lower_is_better(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(compare.decide(self.parent, change, "lower", 0.25), "improved")
        self.assertEqual(compare.decide(self.parent, change, "higher", 0.1), "regressed")

    def test_worse_beyond_bound_is_regressed(self):
        change = [x * 0.7 for x in self.parent]
        self.assertEqual(compare.decide(self.parent, change, "higher", 0.25), "regressed")

    def test_too_few_pairs_or_no_alternation_is_unresolved(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(compare.decide(self.parent[:9], change[:9], "higher", 0.25), "unresolved")
        self.assertEqual(compare.decide(self.parent, change, "higher", 0.25, alternated=False), "unresolved")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
        change = [x * 1.01 for x in noisy]
        self.assertEqual(compare.decide(noisy, change, "higher", 0.25), "unresolved")


class Metrics(unittest.TestCase):
    raw = {
        "untraced": {"ms": [100.0, 300.0, 200.0], "frames": 12},
        "setup_s": [0.5, 0.1, 0.3],
        "peak_rss_kb": 2048.0,
        "decode_ok": 3,
        "decode_of": 4,
    }

    def test_end_to_end(self):
        m = run.end_to_end(self.raw)
        self.assertAlmostEqual(m["trials_per_s"][0], 5.0)
        self.assertEqual(m["trial_p50_ms"], (200.0, "ms"))
        self.assertAlmostEqual(m["frames_per_s"][0], 20.0)
        self.assertEqual(m["setup_s"][0], 0.3)
        self.assertEqual(m["peak_rss_mb"][0], 2.0)
        self.assertEqual(m["decode_ratio"][0], 0.75)


if __name__ == "__main__":
    unittest.main()
