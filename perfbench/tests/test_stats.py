"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        values = list(range(1, 201))  # 200 samples: 10 lie beyond p95
        v = stats.tail_percentile(values, 95)
        self.assertEqual(v, 190)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_refuses_p95_on_too_few_samples(self):
        # 199 samples leave 9 beyond p95: no value rather than a lower
        # percentile under the p95 name.
        self.assertIsNone(stats.tail_percentile(list(range(1, 200)), 95))
        self.assertIsNone(stats.tail_percentile(list(range(1, 101)), 95))

    def test_p90_needs_a_hundred_samples(self):
        values = list(range(1, 101))
        self.assertEqual(stats.tail_percentile(values, 90), 90)
        self.assertIsNone(stats.tail_percentile(values[:99], 90))

    def test_the_percentile_does_not_drift_with_the_count(self):
        # Every supported count reads the same percentile: the value at the
        # nearest rank, with at least ten samples beyond it.
        for n in range(100, 400, 7):
            values = [float(i) for i in range(n)]
            v = stats.tail_percentile(values, 90)
            self.assertEqual(v, values[math.ceil(0.9 * n) - 1], n)
            self.assertGreaterEqual(sum(1 for x in values if x > v), 10, n)

    def test_no_samples(self):
        self.assertIsNone(stats.tail_percentile([], 95))


class MedianAndSpread(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 5.5)

    def test_iqr_share(self):
        values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.iqr_share(values), (q3 - q1) / q2)
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)

    def test_summary_states_the_count(self):
        s = stats.summary([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(s["n"], 4)
        self.assertEqual(s["median"], 2.5)
        self.assertEqual(stats.summary([7.0]),
                         {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1})


class ChargeToTarget(unittest.TestCase):
    def test_first_crossing(self):
        charge = [10.0, 20.0, 30.0, 40.0]
        adrs = [0.5, 0.2, 0.09, 0.05]
        self.assertEqual(stats.charge_to_target(charge, adrs, 0.1),
                         (30.0, False))

    def test_crossing_counts_equal_target(self):
        self.assertEqual(stats.charge_to_target([1.0, 2.0], [0.3, 0.1], 0.1),
                         (2.0, False))

    def test_censored_campaign_counts_at_full_charge(self):
        charge, censored = stats.charge_to_target([5.0, 9.0, 12.0],
                                                  [0.4, 0.3, 0.2], 0.1)
        self.assertTrue(censored)
        self.assertEqual(charge, 12.0)

    def test_undefined_adrs_never_crosses(self):
        self.assertEqual(stats.charge_to_target([1.0, 2.0], [None, 0.05], 0.1),
                         (2.0, False))

    def test_rejects_mismatched_curves(self):
        with self.assertRaises(ValueError):
            stats.charge_to_target([1.0], [0.1, 0.2], 0.1)
        with self.assertRaises(ValueError):
            stats.charge_to_target([], [], 0.1)


class OpenLoop(unittest.TestCase):
    def test_latency_is_timed_from_the_due_instant(self):
        due = [0.0, 1.0, 2.0]
        sent = [0.0, 1.0, 2.0]
        done = [0.1, 1.2, 2.1]
        lat, late = stats.open_loop_latencies(due, sent, done)
        self.assertEqual([round(x, 9) for x in lat], [0.1, 0.2, 0.1])
        self.assertEqual(late, [0.0, 0.0, 0.0])

    def test_a_stall_charges_the_requests_queued_behind_it(self):
        # The generator stalls for 2.5 s on the first request: the next two
        # are sent late, and their latency includes the lateness.
        due = [0.0, 1.0, 2.0]
        sent = [0.0, 2.5, 2.6]
        done = [2.5, 2.6, 2.7]
        lat, late = stats.open_loop_latencies(due, sent, done)
        self.assertEqual([round(x, 9) for x in late], [0.0, 1.5, 0.6])
        self.assertEqual([round(x, 9) for x in lat], [2.5, 1.6, 0.7])
        # Closed-loop timing from the send instant would hide the stall.
        service = [r - s for s, r in zip(sent, done)]
        self.assertLess(max(service[1:]), min(lat[1:]))

    def test_rejects_impossible_timelines(self):
        with self.assertRaises(ValueError):
            stats.open_loop_latencies([1.0], [0.5], [2.0])
        with self.assertRaises(ValueError):
            stats.open_loop_latencies([0.0], [1.0], [0.5])
        with self.assertRaises(ValueError):
            stats.open_loop_latencies([0.0, 1.0], [0.0], [0.1])


if __name__ == "__main__":
    unittest.main()
