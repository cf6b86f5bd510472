"""Tests of compare.py: summaries, the regression gate and the host check."""
import json
import statistics
import unittest

import compare

SPEC = {"end_to_end": [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
]}
HOST = {"nproc": 4, "cpu_model": "x", "cpuset": "0-3", "kernel": "k", "build_type": "RelWithDebInfo"}


def record(throughput, latency, workload="heat-fine", host=HOST):
    return {"workload": workload, "trace": 0, "host": dict(host), "detail": {},
            "metrics": {"throughput_per_s": {"value": throughput, "unit": "1/s"},
                        "latency_p50_us": {"value": latency, "unit": "us"}}}


class Summary(unittest.TestCase):
    def test_spread_is_quartile_distance_over_median(self):
        values = [100, 102, 98, 101, 99, 103, 97, 100, 100, 101]
        s = compare.summarize([record(v, 1) for v in values], SPEC)["heat-fine"]["throughput_per_s"]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["runs"], 10)
        self.assertAlmostEqual(s["median"], statistics.median(values))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / statistics.median(values))

    def test_workloads_are_summarised_apart(self):
        s = compare.summarize([record(1, 1), record(5, 5, workload="service-poisson")], SPEC)
        self.assertEqual(s["heat-fine"]["throughput_per_s"]["median"], 1)
        self.assertEqual(s["service-poisson"]["throughput_per_s"]["median"], 5)


class Gate(unittest.TestCase):
    base = [record(100 + i % 3, 50 + i % 2) for i in range(10)]

    def test_same_numbers_pass(self):
        self.assertEqual(compare.gate(self.base, list(self.base), SPEC), [])

    def test_small_worsening_within_bound_passes(self):
        new = [record(95, 53) for _ in range(10)]
        self.assertEqual(compare.gate(self.base, new, SPEC), [])

    def test_lower_throughput_beyond_bound_fails(self):
        new = [record(80, 50) for _ in range(10)]
        failed = compare.gate(self.base, new, SPEC)
        self.assertEqual([(f[0], f[1]) for f in failed], [("heat-fine", "throughput_per_s")])

    def test_higher_latency_beyond_bound_fails(self):
        new = [record(101, 60) for _ in range(10)]
        failed = compare.gate(self.base, new, SPEC)
        self.assertEqual([f[1] for f in failed], ["latency_p50_us"])

    def test_improvement_passes(self):
        new = [record(150, 30) for _ in range(10)]
        self.assertEqual(compare.gate(self.base, new, SPEC), [])

    def test_runs_from_another_host_are_refused(self):
        one_cpu = dict(HOST, nproc=1, cpuset="0")
        with self.assertRaises(ValueError):
            compare.gate(self.base, [record(101, 50, host=one_cpu)], SPEC)


class Records(unittest.TestCase):
    def test_only_valid_untraced_records_are_read(self):
        lines = ["noise",
                 compare.RECORD_PREFIX + json.dumps(record(1, 1)),
                 compare.RECORD_PREFIX + json.dumps(dict(record(2, 2), trace=1)),
                 compare.RECORD_PREFIX + json.dumps(dict(record(3, 3), detail={"valid": "false"}))]
        got = compare.parse_records(lines)
        self.assertEqual([r["metrics"]["throughput_per_s"]["value"] for r in got], [1])


if __name__ == "__main__":
    unittest.main()
