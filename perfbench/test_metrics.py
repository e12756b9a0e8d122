"""Tests of the benchmark's metric code on hand-computed service-time traces.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics as m


def single(services):
    """One call per edge."""
    return [m.Call(i, i, s) for i, s in enumerate(services)]


def uniform(n, rate):
    """Edge i due at i / rate."""
    return [i / rate for i in range(n)]


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        xs = list(range(1, 1001))
        self.assertEqual(m.percentile(xs, 99), 990)   # ranks 991..1000 lie beyond
        with self.assertRaises(ValueError):
            m.percentile(xs[:999], 99)                 # only 9 beyond rank 990

    def test_median_needs_twenty_samples(self):
        self.assertEqual(m.median(list(range(20, 0, -1))), 10)
        with self.assertRaises(ValueError):
            m.median(list(range(19)))


class VirtualTimeQueue(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        # rate 10/s: edges due at 0, .1, .2, .3
        q = m.simulate([single([0.05, 0.25, 0.01, 0.01])], uniform(4, 10.0))
        # finishes .05, .35 (waits for nothing), .36 (waited .15), .37 (waited .06)
        for got, want in zip(q.latencies, [0.05, 0.25, 0.16, 0.07]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(q.waits, [0.0, 0.0, 0.15, 0.06]):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(q.finishes[0][-1], 0.37)

    def test_backlog_counts_calls_in_the_system(self):
        q = m.simulate([single([0.05, 0.25, 0.01, 0.01])], uniform(4, 10.0))
        # at .3 the calls due at .1 (till .35) and .2 (till .36) are still in
        self.assertEqual(q.backlog_max, 3)
        self.assertAlmostEqual(q.busy_share, 0.32 / 0.37)

    def test_batch_waits_to_fill(self):
        calls = [m.Call(0, 3, 0.1), m.Call(4, 7, 0.1)]
        q = m.simulate([calls], uniform(8, 10.0))
        # a batch starts when its last edge is due: .3 and .7
        for got, want in zip(q.latencies, [0.4, 0.3, 0.2, 0.1] * 2):
            self.assertAlmostEqual(got, want)

    def test_each_pass_starts_empty(self):
        one = single([0.5] + [0.0] * 3)
        q = m.simulate([one, one], uniform(4, 10.0))
        self.assertEqual(len(q.latencies), 8)
        self.assertAlmostEqual(q.latencies[4], 0.5)   # not queued behind pass 1

    def test_buffer_wait_ends_at_next_flush(self):
        calls = [m.Call(0, 0, 0.001, reorders=False), m.Call(1, 1, 0.001, reorders=False),
                 m.Call(2, 2, 0.05), m.Call(3, 3, 0.001, reorders=False)]
        q = m.simulate([calls], uniform(4, 10.0))
        # the flush due at .2 finishes at .25; edge 3 is never flushed
        waits = m.buffer_waits([calls], q.finishes, uniform(4, 10.0))
        self.assertEqual(len(waits), 2)
        self.assertAlmostEqual(waits[0], 0.25)
        self.assertAlmostEqual(waits[1], 0.15)

    def test_burst_queues_at_the_stream_times(self):
        # edges 1-3 arrive in a burst, 10 ms apart, each taking 50 ms
        q = m.simulate([single([0.05] * 4)], [0.0, 1.0, 1.01, 1.02])
        # finishes .05, 1.05, 1.10, 1.15
        for got, want in zip(q.latencies, [0.05, 0.05, 0.09, 0.13]):
            self.assertAlmostEqual(got, want)
        self.assertEqual(q.backlog_max, 3)

    def test_scaling_keeps_the_burst_shape(self):
        due = [0.0, 1.0, 1.01, 1.02]
        self.assertAlmostEqual(m.mean_rate(due), 3 / 1.02)
        for got, want in zip(m.scaled(due, 6 / 1.02), [0.0, 0.5, 0.505, 0.51]):
            self.assertAlmostEqual(got, want)


class MaxRateLadder(unittest.TestCase):
    LADDER = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]

    @staticmethod
    def batches(service):
        return [[m.Call(10 * b, 10 * b + 9, service) for b in range(4)]]

    DUE = uniform(40, 1.0)   # any uniform times: the ladder rescales them

    def test_highest_rung_within_limit(self):
        # 10-edge batches of 50 ms saturate at 200/s, so 256 is skipped. Below
        # that nothing queues; edge j of a batch waits (9-j)/r to fill, and
        # the median latency is .05 + 4/r: within .1 from r = 80 up.
        self.assertEqual(m.max_rate(self.batches(0.05), self.DUE, 0.1, self.LADDER, q=50), 128.0)

    def test_no_rung_meets_limit(self):
        # .05 + 4/r <= .06 needs r >= 400, above saturation
        self.assertEqual(m.max_rate(self.batches(0.05), self.DUE, 0.06, self.LADDER, q=50), 0.0)

    def test_growing_backlog_fails_the_rung(self):
        # 200 ms batches saturate at 50/s; at 32/s the median is .2 + 4/32
        self.assertFalse(m.meets_limit(self.batches(0.2), self.DUE, 64.0, 10.0, q=50))
        self.assertEqual(m.max_rate(self.batches(0.2), self.DUE, 0.4, self.LADDER, q=50), 32.0)

    def test_ladder_is_fixed_and_fine(self):
        self.assertAlmostEqual(m.LADDER[m.RUNGS_PER_DOUBLING], 2.0)
        self.assertLess(m.LADDER[1] / m.LADDER[0], 1.025)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [dict(id=0, parent=-1, name="call", start=0, end=100),
                 dict(id=1, parent=0, name="spade.insertEdge", start=10, end=30),
                 dict(id=2, parent=0, name="spade.detect", start=40, end=90)]
        self.assertEqual(m.self_times(spans),
                         {"call": 30, "spade.insertEdge": 20, "spade.detect": 50})


if __name__ == "__main__":
    unittest.main()
