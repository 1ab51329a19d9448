"""Self-tests for the benchmark's own statistics.

Run: python3 e2ebench/tests/test_stats.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))  # 100 samples
        pct, value, beyond = stats.tail(values)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)

    def test_more_samples_reach_a_higher_percentile(self):
        values = list(range(1, 1001))
        pct, value, beyond = stats.tail(values)
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(beyond, 10)

    def test_nine_beyond_is_not_enough(self):
        # 95 samples: p90 leaves 9 beyond, so the tail drops to p80.
        values = list(range(1, 96))
        pct, _, beyond = stats.tail(values)
        self.assertEqual(pct, 80.0)
        self.assertGreaterEqual(beyond, 10)

    def test_too_few_samples_report_max(self):
        pct, value, beyond = stats.tail([3.0, 1.0, 2.0])
        self.assertIsNone(pct)
        self.assertEqual(value, 3.0)
        self.assertEqual(beyond, 0)

    def test_failures_count_as_misses(self):
        values = [1.0] * 80 + [math.inf] * 20
        _, value, _ = stats.tail(values)
        self.assertTrue(math.isinf(value))

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 20
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))


class BacklogTest(unittest.TestCase):
    def test_flat_backlog_does_not_grow(self):
        self.assertFalse(stats.backlog_grows([0, 1, 2, 1, 0, 2, 1, 1, 2, 0, 1, 2]))

    def test_linear_ramp_grows(self):
        self.assertTrue(stats.backlog_grows(list(range(0, 30))))

    def test_small_wobble_is_not_growth(self):
        # Mean rises by 1.5x but by less than three requests.
        self.assertFalse(stats.backlog_grows([0, 0, 1, 1, 1, 1, 2, 2, 2]))

    def test_few_samples_never_grow(self):
        self.assertFalse(stats.backlog_grows([0, 5, 10, 20]))

    def test_drain_after_burst_is_not_growth(self):
        self.assertFalse(stats.backlog_grows([0, 4, 8, 9, 8, 6, 4, 2, 1]))


class RungSelectionTest(unittest.TestCase):
    def test_highest_rung_of_a_passing_prefix(self):
        rungs = [(10, True), (20, True), (30, True), (40, False), (50, False)]
        self.assertEqual(stats.max_rate_under_slo(rungs), 30)

    def test_pass_above_a_failure_does_not_count(self):
        rungs = [(10, True), (20, False), (30, True)]
        self.assertEqual(stats.max_rate_under_slo(rungs), 10)

    def test_unsorted_input(self):
        rungs = [(30, False), (10, True), (20, True)]
        self.assertEqual(stats.max_rate_under_slo(rungs), 20)

    def test_first_rung_failing_gives_zero(self):
        self.assertEqual(stats.max_rate_under_slo([(10, False), (20, True)]), 0.0)

    def test_all_pass_gives_top_rung(self):
        self.assertEqual(stats.max_rate_under_slo([(10, True), (20, True)]), 20)

    def test_rung_passes_uses_tail_and_backlog(self):
        flat = [1] * 30
        fast = [10.0] * 100
        self.assertTrue(stats.rung_passes(fast, flat, slo_ms=250.0))
        slow = [10.0] * 80 + [300.0] * 20
        self.assertFalse(stats.rung_passes(slow, flat, slo_ms=250.0))
        self.assertFalse(stats.rung_passes(fast, list(range(30)), slo_ms=250.0))


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_children(self):
        # op [0, 10] with children [1, 3] and [5, 9].
        names = ["op", "a", "b"]
        self.assertEqual(
            stats.self_times(names, [0, 1, 5], [10, 3, 9], [-1, 0, 0]), [4, 2, 4])

    def test_nested_grandchildren(self):
        # op [0, 10] > a [0, 8] > b [2, 4]
        got = stats.self_times(["op", "a", "b"], [0, 0, 2], [10, 8, 4], [-1, 0, 1])
        self.assertEqual(got, [2, 6, 2])

    def test_overlapping_children_count_once(self):
        # Children [1, 5] and [3, 7] cover [1, 7] together.
        got = stats.self_times(["op", "a", "b"], [0, 1, 3], [10, 5, 7], [-1, 0, 0])
        self.assertEqual(got[0], 4)

    def test_child_outside_parent_is_clipped(self):
        got = stats.self_times(["op", "a"], [0, 8], [10, 15], [-1, 0])
        self.assertEqual(got[0], 8)

    def test_span_without_children(self):
        self.assertEqual(stats.self_times(["x"], [2.5], [4.0], [-1]), [1.5])


if __name__ == "__main__":
    unittest.main()
