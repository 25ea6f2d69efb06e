"""Tests of the benchmark's own arithmetic (perfbench/ledger.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import ledger
import run


def span(name, begin, end, sid, parent=0, thread=0):
    return [name, begin, end, sid, parent, thread]


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 200 samples: p95 leaves 10 beyond, p99 only 2.
        self.assertEqual(ledger.tail_percentile(200), 95.0)
        self.assertEqual(ledger.beyond(200, 95.0), 10)
        self.assertEqual(ledger.beyond(200, 99.0), 2)

    def test_one_short_falls_back(self):
        # 199 samples: p95 sits at rank 190, leaving 9 beyond -> p90.
        self.assertEqual(ledger.beyond(199, 95.0), 9)
        self.assertEqual(ledger.tail_percentile(199), 90.0)

    def test_large_counts_stop_at_the_top_of_the_ladder(self):
        self.assertEqual(ledger.tail_percentile(999), 95.0)
        self.assertEqual(ledger.tail_percentile(1000), 99.0)
        self.assertEqual(ledger.tail_percentile(32008), 99.0)
        # Exact arithmetic: 99.9% of 10000 is rank 9990, 10 beyond.
        self.assertEqual(ledger.beyond(10000, 99.9), 10)

    def test_too_few_samples(self):
        self.assertIsNone(ledger.tail_percentile(19))
        with self.assertRaises(ValueError):
            ledger.latency_summary([1.0] * 19)

    def test_nearest_rank_values(self):
        values = [float(v) for v in range(1, 201)]
        summary = ledger.latency_summary(values)
        self.assertEqual(summary["p50"], 100.0)
        self.assertEqual(summary["tail"], 190.0)
        self.assertEqual(summary["tail_percentile"], 95.0)
        self.assertEqual(summary["tail_samples_beyond"], 10)
        self.assertEqual(summary["samples"], 200)


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self):
        spans = [span("wl.run", 0, 100, 1), span("spec.retrieve", 10, 30, 2, 1),
                 span("spec.retrieve", 50, 60, 3, 1)]
        self.assertEqual(ledger.self_times(spans)[1], 70)

    def test_overlapping_children_count_once(self):
        # Children on other threads can overlap: [10, 40] and [30, 60]
        # cover 50, not 60.
        spans = [span("wl.run", 0, 100, 1), span("serve.retrieve", 10, 40, 2, 1),
                 span("serve.retrieve", 30, 60, 3, 1, thread=1)]
        self.assertEqual(ledger.self_times(spans)[1], 50)

    def test_nested_and_contained_children(self):
        spans = [span("wl.run", 0, 100, 1), span("spec.retrieve", 10, 80, 2, 1),
                 span("spec.retrieve", 20, 30, 3, 1), span("lsms.retrieve", 15, 70, 4, 2)]
        own = ledger.self_times(spans)
        self.assertEqual(own[1], 30)  # [10, 80] covers [20, 30]
        self.assertEqual(own[2], 15)  # 70 minus its child's 55
        self.assertEqual(own[4], 55)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("wl.run", 0, 100, 1), span("comm.retrieve", 90, 120, 2, 1)]
        self.assertEqual(ledger.self_times(spans)[1], 90)

    def test_ledger_sums_to_root_and_skips_other_roots(self):
        spans = [span("wl.run", 0, 100, 1), span("spec.retrieve", 10, 80, 2, 1),
                 span("lsms.retrieve", 15, 70, 3, 2), span("calib.zgemm", 200, 300, 4)]
        layers = ledger.ledger(spans)
        self.assertEqual(layers, {"wl": 30, "spec": 15, "lsms": 55})
        self.assertEqual(sum(layers.values()), 100)


def record(workload, **overrides):
    """A minimal traced record, in the harness's shape."""
    base = {
        "workload": workload,
        "steps_requested": 8,
        "untraced_wall_s": 1.0,
        "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_mb": 16.0,
        "oracle": {"checked": 8, "mismatches": 0},
        "calibration": {"zgemm_gflops_1t": 10.0, "zgemm_gflops_team": 40.0,
                        "shard_ms": 0.25, "shard_gemm_frac": 0.5},
        "spans": [span("wl.run", 0, 1.1e6, 1)],
        "pass": {
            "wall_s": 1.1, "thread_wall_s": [1.1], "steps": 8, "resubmissions": 0,
            "comm_errors": 0, "flops": 4e9, "gemm_flops": 3e9, "lsms_threads": 4,
            "flops_per_eval": 1e9, "groups": 2,
            "counters": {}, "histograms": {},
            "boundaries": [],
            "spec": {"proposed": 10, "speculated": 5, "residual_rms_ry": 1e-3,
                     "error_budget_ry": 2e-3, "tripped": False},
        },
    }
    base["pass"].update(overrides)
    return base


def boundary(layer, results, latency=None, submit=None, retrieve=None, failed=0):
    return {"layer": layer, "submitted": results + failed, "results": results,
            "failed": failed, "latency_ms": latency or [1.0] * 20,
            "submit_ms": submit or [0.5], "retrieve_ms": retrieve or [2.0] * results}


class Ratios(unittest.TestCase):
    def test_ratio_of_empty_base_is_zero(self):
        self.assertEqual(ledger.ratio(3, 0), 0.0)

    def test_paper_bases(self):
        r = record("paper_wl", boundaries=[boundary("spec", 10),
                                            boundary("lsms", 4, retrieve=[5.0] * 4)])
        m, _ = ledger.per_layer(r)
        self.assertEqual(m["spec.hit_rate"], 0.5)               # speculated / proposed
        self.assertEqual(m["lsms.exact_eval_ms"], 5.0)          # busy / exact evals
        self.assertAlmostEqual(m["lsms.evals_per_s"], 4 / 1.1)  # exact evals / wall
        self.assertAlmostEqual(m["lsms.evals_per_core_s"], 4 / 1.1 / 4)  # / team
        self.assertAlmostEqual(m["lsms.sustained_gflops"], 4 / 1.1)
        self.assertAlmostEqual(m["lsms.frac_of_zgemm_peak"], 4 / 1.1 / 40)  # team peak
        self.assertEqual(m["lsms.gemm_frac"], 0.75)             # zgemm / all flops
        self.assertAlmostEqual(m["obs.tracing_overhead_frac"], 0.1)  # traced / untraced - 1

    def test_serve_bases(self):
        r = record("serve_mix", lsms_threads=1,
                   boundaries=[boundary("serve", 16, submit=[0.25, 0.75],
                                        retrieve=[1.0, 3.0, 9.0])],
                   counters={"serve.accepted": 16, "serve.batches": 4,
                             "serve.rejects_quota": 0},
                   histograms={"serve.stage_ms.solve": {"sum": 160.0, "count": 16},
                               "serve.stage_ms.queue_wait": {"sum": 8.0, "count": 16},
                               "serve.stage_ms.deliver": {"sum": 1.6, "count": 16},
                               "serve.client.wire_ms": {"sum": 3.2, "count": 16}})
        m, _ = ledger.per_layer(r)
        self.assertEqual(m["serve.occupancy"], 4.0)            # requests / dispatches
        self.assertEqual(m["serve.solve_ms_per_item"], 2.5)    # 10 ms per request / 4
        self.assertEqual(m["serve.queue_ms_mean"], 0.5)
        self.assertEqual(m["serve.admit_ms_mean"], 0.5)
        self.assertAlmostEqual(m["serve.serialize_ms_mean"], 0.1)
        self.assertAlmostEqual(m["serve.wire_ms_mean"], 0.2)
        self.assertEqual(m["serve.client_wait_ms_mean"], 13.0 / 3)
        self.assertAlmostEqual(m["lsms.frac_of_zgemm_peak"], 4 / 1.1 / 10)  # 1-thread peak

    def test_shard_bases(self):
        r = record("shard_fe16", lsms_threads=4,
                   boundaries=[boundary("comm", 10)],
                   counters={"comm.frames_sent": 20, "comm.frames_received": 20,
                             "comm.bytes_sent": 3000, "comm.bytes_received": 1000,
                             "comm.delta_scatters": 3, "comm.full_scatters": 1})
        m, _ = ledger.per_layer(r)
        self.assertEqual(m["comm.frames_per_eval"], 4.0)
        self.assertEqual(m["comm.bytes_per_eval"], 400.0)
        self.assertEqual(m["comm.delta_scatter_frac"], 0.75)   # delta / (delta + full)
        # groups x wall / evals = 220 ms per eval, minus the 0.25 ms shard.
        self.assertAlmostEqual(m["comm.overhead_ms_per_eval"], 220.0 - 0.25)
        self.assertAlmostEqual(m["lsms.sustained_gflops"], 10.0 / 1.1)  # analytic flops
        self.assertEqual(m["lsms.gemm_frac"], 0.5)             # from the calibration


class Checks(unittest.TestCase):
    def test_accounting_counts_every_failure_kind(self):
        r = record("serve_mix", boundaries=[boundary("serve", 6, failed=2)],
                   resubmissions=2, counters={"serve.rejects_queue_full": 2})
        attempted, failed, kinds = ledger.accounting(r)
        self.assertEqual(attempted, 8)
        self.assertEqual(failed, 6)
        self.assertEqual(kinds["serve_refusals"], 2)

    def test_unscreened_moves_fail_the_wiring_guard(self):
        r = record("paper_wl", boundaries=[boundary("spec", 8)])
        r["pass"]["spec"]["proposed"] = 0
        self.assertTrue(any("wiring" in p for p in ledger.checks(r)))

    def test_hit_rate_floor_applies_while_speculating(self):
        r = record("paper_wl", boundaries=[boundary("spec", 8)])
        r["pass"]["spec"]["speculated"] = 1
        self.assertTrue(any("hit rate" in p for p in ledger.checks(r)))
        r["pass"]["spec"]["tripped"] = True
        self.assertEqual(ledger.checks(r), [])

    def test_ledger_closure(self):
        r = record("paper_wl", boundaries=[boundary("spec", 8)])
        self.assertEqual(ledger.checks(r, {"wl": 1.09}), [])
        self.assertTrue(ledger.checks(r, {"wl": 1.0}))

    def test_setup_is_median(self):
        values, _ = ledger.end_to_end(record("shard_fe16",
                                             boundaries=[boundary("comm", 20)]))
        self.assertEqual(values["setup_s"], 0.2)


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json lists exactly what the benchmark reports."""

    def setUp(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "BENCHMARK.json")
        with open(path) as f:
            self.spec = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_metrics(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         ledger.END_TO_END_UNITS)

    def test_per_layer_metrics(self):
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in self.spec["per_layer"]],
                         [(name, v[0], v[1]) for name, v in ledger.PER_LAYER.items()])


if __name__ == "__main__":
    unittest.main()
