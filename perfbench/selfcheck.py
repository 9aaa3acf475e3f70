"""Checks of the benchmark's own arithmetic and bookkeeping.

    python3 perfbench/selfcheck.py

Covers self time of nested spans, failure counting for ops that raise,
exit non-zero or fail their output check, the fig4 output windows, and that
the metric names the code prints are the ones BENCHMARK.json declares.
Needs neither nvecho nor numpy.
"""

import json
import sys
import tempfile
import unittest

import run
from spans import Tracer, layer_metrics
from stats import covered_length, failed_fraction, self_times
from workloads import (
    FIG4_TRUNCATED_MASS,
    REFERENCE,
    ClosedFormSuite,
    Op,
    check_scenario,
    run_child,
)


class SelfTime(unittest.TestCase):
    def test_nested_spans_subtract_only_their_direct_children(self):
        spans = [
            ("a", 0.0, 10.0, None, 0),
            ("b", 1.0, 4.0, 0, 0),
            ("c", 2.0, 3.0, 1, 0),
            ("d", 5.0, 6.0, 0, 0),
        ]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        self.assertEqual(covered_length([(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)], 0.0, 10.0), 5.0)

    def test_tracer_links_parents_and_reports_self_time(self):
        tracer = Tracer()

        def inner():
            return 1

        inner = tracer.wrap("noise.dephasing_factor", inner)

        def outer():
            return inner() + inner()

        outer = tracer.wrap("sequences.simulate_amplitude", outer)
        outer()
        names = [span[0] for span in tracer.spans]
        parents = [span[3] for span in tracer.spans]
        self.assertEqual(names, ["sequences.simulate_amplitude",
                                 "noise.dephasing_factor", "noise.dephasing_factor"])
        self.assertEqual(parents, [None, 0, 0])
        metrics = layer_metrics(tracer, n_ops=1, grid_points=0)
        total = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertAlmostEqual(metrics["sequences.simulate_self_s"] + metrics["noise.closed_form_s"],
                               total, places=12)
        self.assertEqual(metrics["noise.closed_form_calls"], 2)


class _RaisingLibrary:
    @staticmethod
    def load_packaged_scenario(name):
        raise ValueError(f"no scenario {name}")


class FailureCounting(unittest.TestCase):
    def test_raised_nonzero_exit_and_failed_check_each_count(self):
        with tempfile.TemporaryDirectory() as tmp:
            workload = ClosedFormSuite(tmp, seed=1)
            workload.nvecho = _RaisingLibrary
            raised = workload.run_op("fig1d")
            code, _, rss, _, _ = run_child([sys.executable, "-c", "raise SystemExit(3)"], tmp)
        self.assertTrue(raised.error.startswith("raised ValueError"))
        self.assertEqual(code, 3)
        self.assertGreater(rss, 0)

        good = dict(REFERENCE["scenarios"]["fig1d"])
        wrong = dict(good, argmax_flip_fraction=0.2)
        ops = [
            raised,
            Op("fig1d", 0.1, f"exit {code}: error", None),
            Op("fig1d", 0.1, None, wrong),
            Op("fig1d", 0.1, None, good),
        ]
        outcomes = run.check_ops(workload, ops)
        self.assertEqual([o is None for o in outcomes], [False, False, False, True])
        self.assertEqual(failed_fraction(outcomes), 0.75)

    def test_fig4_windows_apply_at_any_seed(self):
        numbers = {"argmax_flip_fraction": 0.174, "improvement": 900.0,
                   "n_samples": 1 << 20, "truncated_mass": FIG4_TRUNCATED_MASS}
        self.assertEqual(check_scenario("fig4", numbers, seed=7), [])
        self.assertEqual(len(check_scenario("fig4", dict(numbers, truncated_mass=0.03), 7)), 1)
        # at the reference seed the recorded numbers must match as well
        self.assertTrue(check_scenario("fig4", numbers, REFERENCE["reference_seed"]))


class MetricNames(unittest.TestCase):
    def test_printed_metrics_are_the_ones_benchmark_json_declares(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        tracer = Tracer()
        tracer.record("cli.import", 0.0, 1.0)
        printed = set(layer_metrics(tracer, 1, 0)) | {"trace.overhead_frac"}
        self.assertEqual(printed, {m["name"] for m in spec["per_layer"]})
        self.assertEqual({"setup_s", "op_s_mean", "ops_per_s", "peak_rss_mb"},
                         {m["name"] for m in spec["end_to_end"]})


if __name__ == "__main__":
    unittest.main()
