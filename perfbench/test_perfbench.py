#!/usr/bin/env python3
"""Self-tests of the benchmark: output checks, metric names, and
repeatability of the traced run's counts.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout. The repeatability tests build
the driver (as run.py does) and run shrunken deployments (--nodes), so
they take about a minute after the build.
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")

GOOD_EPOCH = {
    "rec": "op", "role": "measured", "shards": 4, "wall_s": 5.0,
    "cpu_s": 8.0, "nodes": 20000, "live_sensors": 19999, "events": 2645446,
    "tx_frames": 809871,
    "has_result": True, "count": 4041.0000000002169, "sum": 4041.0000000000414,
    "significant_alarms": 0, "alarms": 35, "heads": 1634, "clusters_failed": 0,
    "compromised": 0, "crosscheck_alarms": 0, "lookahead_violations": 0,
    "lineage_undecided": 0, "lineage_peak": 5000, "max_rss_kb": 76000,
    "heap_after_teardown_b": 400000, "threads_after_teardown": 1,
}
GOOD_ATTACK = dict(GOOD_EPOCH, significant_alarms=347, alarms=515, compromised=41,
                   crosscheck_alarms=542, count=40.0, sum=40.0)
GOOD_QUERY = {
    "rec": "query", "id": 1, "kind": run.SUM_KIND, "completed": True,
    "accepted": True, "abs_error": 20.0, "value": 379.0, "coverage": 0.95,
    "latency_s": 6.63, "has_result": True, "count": 379.0, "sum": 379.0,
    "significant_alarms": 0, "alarms": 7, "heads": 119, "clusters_failed": 0,
    "compromised": 0, "crosscheck_alarms": 0,
}
GOOD_SERVICE = dict(GOOD_EPOCH, shards=1, nodes=400, live_sensors=399, events=2949472,
                    queries=100)


def check(workload, records, trace=0, reading=1.0):
    return run.check(workload, [{"rec": "meta", "reading": reading}] + records, trace)


def service_records(query=GOOD_QUERY):
    qs = [dict(query, id=i + 1) for i in range(100)]
    return qs + [GOOD_SERVICE]


class CheckerFlagsDoctoredOutcomes(unittest.TestCase):
    def assert_fails(self, workload, records, trace=0):
        attempted, failed, problems = check(workload, records, trace)
        self.assertGreater(failed, 0, "doctored records passed")
        self.assertLessEqual(failed, attempted)
        self.assertTrue(problems)

    def test_good_records_pass(self):
        for workload, records in (("epoch_20k_sharded", [GOOD_EPOCH]),
                                  ("attack_2k_serialized", [GOOD_ATTACK]),
                                  ("service_400n_100q", service_records())):
            attempted, failed, problems = check(workload, records)
            self.assertEqual((failed, problems), (0, []), workload)
            self.assertGreater(attempted, 0)
        self.assertEqual(check("service_400n_100q", service_records())[0], 100)

    def test_reading_scales_the_exact_answer(self):
        tripled = dict(GOOD_EPOCH, sum=3 * GOOD_EPOCH["count"])
        self.assertEqual(check("epoch_20k_single", [tripled], reading=3.0)[1], 0)
        self.assertEqual(check("epoch_20k_single", [GOOD_EPOCH], reading=3.0)[1], 1)
        lost = dict(GOOD_QUERY, abs_error=3 * GOOD_QUERY["abs_error"])
        self.assertEqual(check("service_400n_100q", service_records(lost),
                               reading=3.0)[1], 0)

    def test_epoch_doctored(self):
        for field, value in (("count", 20000.0), ("sum", 4040.0),
                             ("significant_alarms", 1), ("lookahead_violations", 1),
                             ("lineage_undecided", 2), ("has_result", False),
                             ("events", 0)):
            with self.subTest(field=field):
                self.assert_fails("epoch_20k_single", [dict(GOOD_EPOCH, **{field: value})])

    def test_teardown_doctored(self):
        self.assert_fails("epoch_20k_sharded",
                          [dict(GOOD_EPOCH, threads_after_teardown=5)])
        leaked = dict(GOOD_EPOCH, heap_after_teardown_b=GOOD_EPOCH["heap_after_teardown_b"]
                      + 3 * run.LEAK_SLACK_B)
        self.assertEqual(check("epoch_20k_sharded", [GOOD_EPOCH, leaked])[:2], (2, 1))
        self.assert_fails("service_400n_100q", service_records()[:-1]
                          + [dict(GOOD_SERVICE, threads_after_teardown=2)])
        # Without /proc the driver reads 0 threads; that is no failure.
        self.assertEqual(check("epoch_20k_sharded",
                               [dict(GOOD_EPOCH, threads_after_teardown=0)])[1], 0)

    def test_one_bad_epoch_counts_once(self):
        records = [GOOD_EPOCH, dict(GOOD_EPOCH, count=1e6), GOOD_EPOCH]
        self.assertEqual(check("epoch_20k_single", records)[:2], (3, 1))

    def test_attack_doctored(self):
        self.assert_fails("attack_2k_serialized", [dict(GOOD_ATTACK, compromised=0)])
        self.assert_fails("attack_2k_serialized",
                          [dict(GOOD_ATTACK, significant_alarms=0, crosscheck_alarms=0)])

    def test_service_doctored(self):
        for field, value in (("completed", False), ("accepted", False),
                             ("abs_error", 25.0), ("count", 401.0)):
            with self.subTest(field=field):
                self.assert_fails("service_400n_100q",
                                  service_records(dict(GOOD_QUERY, **{field: value})))
        avg = dict(GOOD_QUERY, kind=run.AVG_KIND, abs_error=0.01)
        self.assert_fails("service_400n_100q", service_records(avg))
        self.assert_fails("service_400n_100q", service_records()[:50] + [GOOD_SERVICE])

    def test_traced_mismatch(self):
        plain = dict(GOOD_EPOCH, role="plain")
        traced = dict(GOOD_EPOCH, role="traced")
        ref = dict(GOOD_EPOCH, role="reference", shards=1)
        self.assertEqual(check("epoch_20k_sharded", [plain, traced, ref], 1)[1], 0)
        self.assert_fails("epoch_20k_sharded",
                          [plain, traced, dict(ref, events=ref["events"] - 1)], 1)
        self.assert_fails("epoch_20k_sharded",
                          [plain, dict(traced, heads=1), ref], 1)
        self.assert_fails("epoch_20k_sharded", [plain, traced], 1)


class MetricNames(unittest.TestCase):
    def test_spec_names(self):
        with open(SPEC) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, run.METRIC_NAME)
        # service_400n_100q stays out until its over-count defect is
        # fixed, and epoch_20k_single because host drift spreads its
        # wall time wider than any bound (NOTES.md).
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(set(run.WORKLOADS)
                                - {"service_400n_100q", "epoch_20k_single"}))

    def test_reported_names_match_spec(self):
        with open(SPEC) as f:
            spec = json.load(f)
        records = [{"rec": "setup", "s": 0.03}, GOOD_EPOCH,
                   {"rec": "proc", "max_rss_kb": 80000}]
        e2e = run.end_to_end("epoch_20k_single", records)
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})
        for m in spec["end_to_end"]:
            self.assertEqual(e2e[m["name"]]["unit"], m["unit"])


# High-water mark of lineage nodes alive across concurrently draining
# shards: it depends on thread interleaving, so it is not a repeatable
# count (its unit says count, but it is a peak).
NOT_REPEATABLE = {"sim.lineage_peak"}


class EndToEnd(unittest.TestCase):
    def test_wall_statistic(self):
        records = [{"rec": "setup", "s": 0.03},
                   dict(GOOD_EPOCH, wall_s=5.0), dict(GOOD_EPOCH, wall_s=15.0),
                   dict(GOOD_EPOCH, wall_s=6.0)]
        self.assertEqual(run.end_to_end("epoch_20k_single", records)["wall_s"]["value"], 6.0)
        self.assertEqual(run.end_to_end("epoch_20k_sharded", records)["wall_s"]["value"], 5.0)
        self.assertEqual(run.end_to_end("epoch_20k_single", records)["peak_rss_mb"]["value"],
                         GOOD_EPOCH["max_rss_kb"] / 1024.0)


def metric_counts(result):
    """The repeatable count-valued metrics of a traced result."""
    return {k: v["value"] for k, v in result.items()
            if v["unit"] == "count" and k not in NOT_REPEATABLE}


class TracedCountsRepeat(unittest.TestCase):
    """Two traced invocations give identical counts, equal to the
    untraced run's, and every metric of the spec is reported."""

    NODES = 400

    @classmethod
    def setUpClass(cls):
        run.build()
        with open(SPEC) as f:
            cls.spec = json.load(f)

    def traced(self, workload, seed):
        records = run.run_driver(workload, seed, 1, True, nodes=self.NODES)
        return records, run.per_layer(workload, records)

    def test_repeat(self):
        for workload in sorted(run.WORKLOADS):
            with self.subTest(workload=workload):
                rec1, m1 = self.traced(workload, 7)
                _, m2 = self.traced(workload, 7)
                spec_names = {m["name"] for m in self.spec["per_layer"]}
                if workload == "service_400n_100q":
                    self.assertTrue(spec_names < set(m1))
                else:
                    self.assertEqual(set(m1), spec_names)
                self.assertEqual(metric_counts(m1), metric_counts(m2))
                untraced = run.run_driver(workload, 7, 1, False, nodes=self.NODES)
                self.assertEqual(set(run.end_to_end(workload, untraced)),
                                 {m["name"] for m in self.spec["end_to_end"]})
                measured = run.records_of(untraced, "op", "measured")
                traced_op = run.records_of(rec1, "op", "traced")[0]
                for op in measured:
                    for field in run.COUNT_FIELDS:
                        self.assertEqual(op.get(field), traced_op.get(field), field)
                self.assertEqual(m1["sim.events"]["value"], measured[0]["events"])


if __name__ == "__main__":
    unittest.main()
