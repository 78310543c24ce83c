"""Tests of the benchmark's own arithmetic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics
from metrics import Sample, Span


def sample(**kw):
    fields = dict(pass_=0, traced=0, query=0, ok=1, rows_ok=1, host_s=0.001,
                  modeled_s=0.002, queue_wait_s=0.0, epoch_s=0.0, cache_hit=0,
                  retries=0, tuples=0, bytes_read=0, far_accesses=0,
                  estimate_s=-1, candidates=-1, instances=-1, edges=-1)
    fields.update(kw)
    return Sample(**fields)


class TailChoiceTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.choose_tail(1000), 99)   # 10 beyond p99
        self.assertEqual(metrics.choose_tail(999), 95)    # 9 beyond p99
        self.assertEqual(metrics.choose_tail(200), 95)    # 10 beyond p95
        self.assertEqual(metrics.choose_tail(199), 90)
        self.assertEqual(metrics.choose_tail(100), 90)
        self.assertIsNone(metrics.choose_tail(99))
        self.assertIsNone(metrics.choose_tail(0))

    def test_samples_beyond_uses_nearest_rank(self):
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.samples_beyond(1001, 99), 10)  # rank 991
        self.assertEqual(metrics.samples_beyond(250, 95), 12)   # rank 238

    def test_tail_value_and_label(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(metrics.tail(values), (990, "p99", 1000, 10))
        values = list(range(1, 201))
        self.assertEqual(metrics.tail(values), (190, "p95", 200, 10))
        self.assertEqual(metrics.tail([3, 1, 2]), (3, "max", 3, 0))

    def test_percentile_is_an_observed_value(self):
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 90), 5)
        self.assertEqual(metrics.percentile([], 90), 0.0)


class ClientLatencyTest(unittest.TestCase):
    def test_adds_queue_wait_to_modeled_time(self):
        s = sample(modeled_s=0.004, queue_wait_s=0.0015)
        self.assertAlmostEqual(metrics.client_latency_s(s), 0.0055)

    def test_solo_latency_is_modeled_time(self):
        self.assertEqual(metrics.client_latency_s(sample(modeled_s=0.01)), 0.01)

    def test_serve_makespan_spans_first_arrival_to_last_completion(self):
        batch0 = [sample(pass_=0, epoch_s=10.0, queue_wait_s=0.0, modeled_s=0.002),
                  sample(pass_=0, epoch_s=10.003, queue_wait_s=0.001, modeled_s=0.004)]
        batch1 = [sample(pass_=1, epoch_s=20.0, modeled_s=0.005)]
        self.assertAlmostEqual(metrics.virtual_makespan_s(batch0 + batch1, True),
                               0.007 + 0.005)
        self.assertAlmostEqual(metrics.virtual_makespan_s(batch0, False), 0.006)


class FailureCountingTest(unittest.TestCase):
    def test_bad_status_and_wrong_rows_both_fail(self):
        samples = [sample(), sample(ok=0, rows_ok=0), sample(ok=1, rows_ok=0)]
        self.assertEqual(metrics.count_failures(samples), 2)

    def test_failure_misses_the_latency_limit(self):
        samples = [sample(modeled_s=0.001), sample(modeled_s=0.001, rows_ok=0),
                   sample(modeled_s=0.030), sample(modeled_s=0.020)]
        # Limit 20 ms: the first and last meet it; the wrong answer does not.
        self.assertEqual(metrics.slo_attainment(samples, 20.0), 0.5)
        self.assertEqual(metrics.slo_attainment([], 20.0), 0.0)


class RecordTest(unittest.TestCase):
    def record(self, samples):
        passes = {s.pass_ for s in samples}
        return {"workload": "ssb-small-solo", "setup_s": [0.3, 0.1, 0.2],
                "peak_rss_mb": [12.0, 10.0, 16.0], "measured_s": 1.0,
                "queries": ["Q1.1", "Q1.2"],
                "samples": [list(s) for s in samples], "spans": [],
                "passes": [{"traced": 0, "wall_s": 0.5, "delta": {}} for _ in passes]}

    def test_end_to_end_counts_and_medians(self):
        samples = [sample(pass_=0, query=0, modeled_s=0.010),
                   sample(pass_=0, query=1, modeled_s=0.030),
                   sample(pass_=1, query=0, modeled_s=0.010),
                   sample(pass_=1, query=1, modeled_s=0.030, ok=0)]
        values, _, attempted, failures = metrics.end_to_end(self.record(samples), 20.0)
        self.assertEqual((attempted, failures), (4, 1))
        self.assertEqual(values["setup_s"], (0.2, "s"))
        self.assertEqual(values["peak_rss_mb"], (12.0, "MiB"))
        self.assertEqual(values["correct_fraction"], (0.75, "fraction"))
        self.assertAlmostEqual(values["modeled_sweep_ms"][0], 40.0)
        self.assertAlmostEqual(values["modeled_latency_p50_ms"][0], 20.0)
        self.assertAlmostEqual(values["modeled_qps"][0], 3 / 0.08)
        self.assertEqual(values["slo_attainment"], (0.5, "fraction"))

    def test_parity_compares_modeled_sweeps(self):
        untraced = [sample(pass_=0, modeled_s=0.010), sample(pass_=0, modeled_s=0.030)]
        traced = [sample(pass_=1, modeled_s=0.011), sample(pass_=1, modeled_s=0.030)]
        self.assertAlmostEqual(metrics.parity_deviation(traced, untraced, False), 0.025)

    def test_serve_sweep_is_the_mean_over_batches(self):
        batches = [sample(pass_=b, modeled_s=0.010 * (b % 2)) for b in range(3)]
        self.assertAlmostEqual(metrics.modeled_sweep_s(batches, True), 0.010 / 3)
        self.assertEqual(metrics.modeled_sweep_s(batches, False), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_parent_self_time_excludes_children_once(self):
        spans = [Span(1, "query", -1, 0.0, 10.0),
                 Span(1, "plan", 0, 1.0, 4.0),
                 Span(1, "core.run", 0, 3.0, 6.0),   # overlaps plan by 1
                 Span(1, "core.lower", 0, 9.0, 12.0)]  # clipped at 10
        self.assertEqual(metrics.self_times(spans), [4.0, 3.0, 3.0, 3.0])


if __name__ == "__main__":
    unittest.main()
