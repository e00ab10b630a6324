"""Self-test of the benchmark's own helpers; needs neither numpy nor the solver.

    python3 -m unittest discover -s perfbench
"""

import json
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    cli_failures,
    grid_row_failures,
    kind_medians,
    median_op_ms,
    percentile,
    solve_failures,
    tail_percentile,
)
from run import END_TO_END_UNITS  # noqa: E402
from tracing import Tracer, layer_metrics, layer_totals, root_seconds, solve_calls  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

CLI_OUTPUT = """\
instance: q.lcco (n=10, m=5, quadratic objective)
status: converged after 369 iterations (theoretical bound 377, cap 3770)
max gamma: 0.0015; monitor violations: 0
kkt: primal 1e-15 dual 1e-15 complementarity 9e-07 min_x 1e-09 min_z 1e-09
reference (active-set enumeration): objective 1.5, solver 1.5, |delta| 1e-09, tolerance 2.5e-05 -> agree
"""

GOOD_ROW = {"n": "4", "kind": "linear", "seed": "1", "r": "1", "iterations": "217",
            "bound": "225", "status": "converged", "final_gap": "9.9e-07",
            "monitor_violations": "0"}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(percentile([1, 2, 3, 4, 5], 75), 4)
        self.assertAlmostEqual(percentile([1.0, 2.0], 50), 1.5)
        self.assertEqual(percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(2))
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(40), 75.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(10_000), 99.9)

    def test_median_op_is_taken_per_kind(self):
        ops = [("a", 10.0, 100), ("b", 30.0, 200), ("a", 11.0, 100), ("b", 31.0, 200),
               ("a", 90.0, 100), ("b", 29.0, 200)]
        self.assertEqual(kind_medians(ops), {"a": 11.0, "b": 30.0})
        self.assertEqual(median_op_ms(ops), 20.5)
        three = [("x", 1.0, 1), ("y", 2.0, 1), ("z", 9.0, 1), ("y", 3.0, 1)]
        self.assertEqual(median_op_ms(three), 2.5)


class FailureCountingTest(unittest.TestCase):
    def test_grid_row(self):
        self.assertEqual(grid_row_failures(GOOD_ROW), [])
        for field, value in [("status", "iteration_cap"), ("iterations", "226"),
                             ("monitor_violations", "1"), ("final_gap", "2e-06")]:
            self.assertEqual(len(grid_row_failures({**GOOD_ROW, field: value})), 1, field)
        self.assertEqual(len(grid_row_failures({**GOOD_ROW, "bound": "x"})), 1)

    def test_cli_call(self):
        self.assertEqual(cli_failures("t", 0, CLI_OUTPUT, 370), (369, []))
        cases = [
            (3, CLI_OUTPUT, 370),
            (0, CLI_OUTPUT.replace("-> agree", "-> DISAGREE"), 370),
            (0, CLI_OUTPUT.replace("reference (", "ref ("), 370),
            (0, CLI_OUTPUT.replace("violations: 0", "violations: 2"), 370),
            (0, CLI_OUTPUT.replace("after 369", "after 378"), 379),
            (0, CLI_OUTPUT, 369),
            (0, CLI_OUTPUT, None),
        ]
        for code, text, rows in cases:
            self.assertTrue(cli_failures("t", code, text, rows)[1], (code, rows))
        self.assertEqual(cli_failures("t", 1, "error: bad file", None)[0], 0)
        self.assertEqual(len(cli_failures("t", 1, "error: bad file", None)[1]), 2)

    def test_library_solve(self):
        good = dict(status="converged", iterations=1988, bound=1996, violations=0,
                    trace_len=1988, gap=9e-7, primal_rel=1e-14, dual_rel=1e-13)
        self.assertEqual(solve_failures("t", **good), [])
        for field, value in [("status", "numerical_failure"), ("bound", 1000),
                             ("violations", 3), ("trace_len", 0), ("gap", 1e-5),
                             ("dual_rel", float("nan"))]:
            self.assertEqual(len(solve_failures("t", **{**good, field: value})), 1, field)


class SpanTest(unittest.TestCase):
    def test_self_time_excludes_direct_children(self):
        spans = [
            ["root", 0, 100, -1],
            ["child", 10, 40, 0],
            ["leaf", 20, 30, 1],
            ["child", 50, 60, 0],
            ["root", 200, 210, -1],
        ]
        totals = layer_totals(spans)
        self.assertEqual(totals["root"]["calls"], 2)
        self.assertAlmostEqual(totals["root"]["self_s"], 70e-9)
        self.assertAlmostEqual(totals["child"]["self_s"], 30e-9)
        self.assertAlmostEqual(totals["child"]["total_s"], 40e-9)
        self.assertAlmostEqual(totals["leaf"]["self_s"], 10e-9)
        self.assertAlmostEqual(sum(t["self_s"] for t in totals.values()), root_seconds(spans))
        self.assertEqual(layer_totals(spans, 4), {"root": {"calls": 1, "total_s": 10e-9,
                                                           "self_s": 10e-9}})

    def test_per_step_calls_count_only_inside_solve(self):
        spans = [
            ["cli.main", 0, 100, -1],
            ["solver.solve", 1, 50, 0],
            ["problem.evaluate", 2, 3, 1],
            ["newton.newton_step", 4, 9, 1],
            ["problem.evaluate", 5, 6, 3],
            ["problem.evaluate", 60, 61, 0],
        ]
        self.assertEqual(solve_calls(spans, 0, "problem.evaluate"), 2)

    def test_patch_traces_nesting_and_restores(self):
        module = types.ModuleType("fake")

        class State:
            @classmethod
            def make(cls, value):
                return module.inner(value) + 1

        module.inner = lambda value: value * 2
        module.outer = lambda value: State.make(value)
        original_make = vars(State)["make"]
        original_inner = module.inner
        tracer = Tracer()
        seen = []
        tracer.patch(module, "outer", "outer")
        tracer.patch(State, "make", "make", lambda t, args, result: seen.append(result))
        tracer.patch(module, "inner", "inner")
        tracer.patch(module, "gone", "gone")
        self.assertEqual(module.outer(3), 7)
        self.assertEqual(seen, [7])
        self.assertEqual([(s[0], s[3]) for s in tracer.spans],
                         [("outer", -1), ("make", 0), ("inner", 1)])
        self.assertEqual(tracer.missing, ["fake.gone"])
        tracer.restore()
        self.assertIs(vars(State)["make"], original_make)
        self.assertIs(module.inner, original_inner)
        module.outer(1)
        self.assertEqual(len(tracer.spans), 3)

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap("boom", boom)()
        self.assertGreater(tracer.spans[0][2], 0)
        self.assertEqual(tracer._stack, [])


class BenchmarkJsonTest(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS)
        layers = layer_metrics(Tracer(), 0, 0.0, 0.0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (_, unit) in layers.items()})


if __name__ == "__main__":
    unittest.main()
