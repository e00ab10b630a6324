"""Outside-in tracing: spans around calls into the solver's public functions.

The traced run replaces a public function only at the place its caller
looks it up (a module global such as `lcco_ipm.solver.newton_step`, or a
class attribute such as `IterateState.from_point`), records one span per
call in memory, and puts every original back on `restore()`.  No code
inside the package changes.  A lookup a later refactor removes is
skipped: its time then lands in the caller's self time and the layer
reports 0 calls.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_NS = 1e-9


class Tracer:
    """In-memory span recorder.

    Each span is [name, start_ns, end_ns, parent] with parent the index of
    the enclosing span or -1; one client thread issues every operation, so
    a single stack gives the nesting.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.extras: dict[str, float] = {}

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Trace `owner.attr` where callers look it up; skip it if absent."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, classmethod):
            inner = raw.__func__
            replacement = classmethod(self.wrap(name, inner, on_result))
        else:
            replacement = self.wrap(name, raw, on_result)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def keep_max(self, key: str, value: float) -> None:
        self.extras[key] = max(self.extras.get(key, value), value)

    def keep_min(self, key: str, value: float) -> None:
        self.extras[key] = min(self.extras.get(key, value), value)

    def add(self, key: str, value: float) -> None:
        self.extras[key] = self.extras.get(key, 0.0) + value


def layer_totals(spans, first: int = 0) -> dict[str, dict[str, float]]:
    """Per-name calls, inclusive seconds and self seconds of spans[first:].

    Self time is a span's duration minus the durations of its direct
    children, so the self times of a tree add up to its root's duration.
    """
    child_ns = [0] * len(spans)
    for span in spans[first:]:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for index in range(first, len(spans)):
        name, start, end, _ = spans[index]
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += (end - start) * _NS
        entry["self_s"] += (end - start - child_ns[index]) * _NS
    return dict(totals)


def root_seconds(spans, first: int = 0) -> float:
    """Summed duration of the spans in spans[first:] that have no parent."""
    return sum((s[2] - s[1]) * _NS for s in spans[first:] if s[3] < 0)


def _note_solve(tracer: Tracer, args, result) -> None:
    tracer.add("steps", result.iterations)
    if result.bound:
        tracer.keep_max("bound_used_max", result.iterations / result.bound)


def _note_factor(tracer: Tracer, args, result) -> None:
    problem = args[0]
    dim = problem.n + problem.m
    tracer.add("factor_flops", dim**3 / 3.0)
    tracer.keep_max("condition_max", result.condition_estimate)


def _note_step(tracer: Tracer, args, result) -> None:
    tracer.keep_max("residual_max", result.residual)


def _note_monitor(tracer: Tracer, args, result) -> None:
    tracer.keep_min("monitor_margin_min", result.worst_margin)


def _note_trace_rows(tracer: Tracer, args, result) -> None:
    tracer.add("trace_rows", len(args[0]))


def install(tracer: Tracer, run_grid=None) -> None:
    """Patch every traced lookup site of the package (and of run_grid)."""
    import lcco_ipm
    from lcco_ipm import centralpath, cli, newton, problem, solver

    plan = [
        (lcco_ipm, "solve", "solver.solve", _note_solve),
        (lcco_ipm, "generate_instance", "problem.generate_instance", None),
        (lcco_ipm, "serialize_instance", "problem.serialize_instance", None),
        (solver, "newton_step", "newton.newton_step", _note_step),
        (solver, "scaled_directions", "centralpath.scaled_directions", None),
        (solver, "monitor_step", "centralpath.monitor_step", _note_monitor),
        (newton, "newton_rhs", "newton.newton_rhs", None),
        (newton, "assemble_and_factor", "newton.assemble_and_factor", _note_factor),
        (centralpath.IterateState, "from_point", "centralpath.from_point", None),
        (problem.ObjectiveSpec, "evaluate", "problem.evaluate", None),
        (cli, "main", "cli.main", None),
        (cli, "solve", "solver.solve", _note_solve),
        (cli, "parse_instance", "problem.parse_instance", None),
        (cli, "trace_to_csv", "solver.trace_to_csv", _note_trace_rows),
        (cli, "kkt_residuals", "verifier.kkt_residuals", None),
        (cli, "reference_solve_lp", "verifier.reference_solve_lp", None),
        (cli, "reference_solve_qp", "verifier.reference_solve_qp", None),
    ]
    if run_grid is not None:
        plan += [
            (run_grid, "main", "run_grid.main", None),
            (run_grid, "solve", "solver.solve", _note_solve),
            (run_grid, "generate_instance", "problem.generate_instance", None),
        ]
    for owner, attr, name, hook in plan:
        tracer.patch(owner, attr, name, hook)


def layer_metrics(tracer: Tracer, first: int, traced_wall_s: float,
                  untraced_steps_per_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced round that starts at spans[first].

    Set-up spans (before `first`) feed only the per-call times of the
    instance generator and the serializer.  A layer never called
    reports 0.
    """
    everything = layer_totals(tracer.spans)
    rnd = layer_totals(tracer.spans, first)
    extras = tracer.extras
    steps = extras.get("steps", 0.0)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def per(table, name, key, scale):
        entry = table.get(name, zero)
        return entry[key] * scale / entry["calls"] if entry["calls"] else 0.0

    factor = rnd.get("newton.assemble_and_factor", zero)
    traced_sps = steps / traced_wall_s if traced_wall_s else 0.0
    return {
        "solver.solve.self_us_per_step": (
            rnd.get("solver.solve", zero)["self_s"] * 1e6 / steps if steps else 0.0, "us/step"),
        "solver.trace_to_csv.us_per_row": (
            rnd.get("solver.trace_to_csv", zero)["total_s"] * 1e6 / extras["trace_rows"]
            if extras.get("trace_rows") else 0.0, "us/row"),
        "solver.iterations": (steps, "count"),
        "solver.bound_used_max": (extras.get("bound_used_max", 0.0), "ratio"),
        "newton.assemble_and_factor.us_per_call": (
            per(rnd, "newton.assemble_and_factor", "total_s", 1e6), "us"),
        "newton.factor_gflops": (
            extras.get("factor_flops", 0.0) / factor["total_s"] * 1e-9
            if factor["total_s"] else 0.0, "GFLOP/s"),
        "newton.newton_step.self_us_per_call": (
            per(rnd, "newton.newton_step", "self_s", 1e6), "us"),
        "newton.newton_rhs.us_per_call": (per(rnd, "newton.newton_rhs", "total_s", 1e6), "us"),
        "newton.condition_max": (extras.get("condition_max", 0.0), "ratio"),
        "newton.residual_max": (extras.get("residual_max", 0.0), "ratio"),
        "centralpath.from_point.us_per_call": (
            per(rnd, "centralpath.from_point", "total_s", 1e6), "us"),
        "centralpath.from_point.calls_per_step": (
            solve_calls(tracer.spans, first, "centralpath.from_point") / steps if steps else 0.0,
            "count/step"),
        "centralpath.scaled_directions.us_per_call": (
            per(rnd, "centralpath.scaled_directions", "total_s", 1e6), "us"),
        "centralpath.monitor_step.us_per_call": (
            per(rnd, "centralpath.monitor_step", "total_s", 1e6), "us"),
        "centralpath.monitor_margin_min": (extras.get("monitor_margin_min", 0.0), "ratio"),
        "problem.evaluate.calls_per_step": (
            solve_calls(tracer.spans, first, "problem.evaluate") / steps if steps else 0.0,
            "count/step"),
        "problem.evaluate.us_per_call": (per(rnd, "problem.evaluate", "total_s", 1e6), "us"),
        "problem.generate_instance.ms": (
            per(everything, "problem.generate_instance", "total_s", 1e3), "ms"),
        "problem.parse_instance.ms": (per(rnd, "problem.parse_instance", "total_s", 1e3), "ms"),
        "problem.serialize_instance.ms": (
            per(everything, "problem.serialize_instance", "total_s", 1e3), "ms"),
        "verifier.reference_solve_lp.ms": (
            per(rnd, "verifier.reference_solve_lp", "total_s", 1e3), "ms"),
        "verifier.reference_solve_qp.ms": (
            per(rnd, "verifier.reference_solve_qp", "total_s", 1e3), "ms"),
        "verifier.kkt_residuals.us": (per(rnd, "verifier.kkt_residuals", "total_s", 1e6), "us"),
        "cli.main.self_ms": (per(rnd, "cli.main", "self_s", 1e3), "ms"),
        "run_grid.main.self_ms": (per(rnd, "run_grid.main", "self_s", 1e3), "ms"),
        "trace.overhead_frac": (
            1.0 - traced_sps / untraced_steps_per_s if untraced_steps_per_s else 0.0, "ratio"),
        "trace.accounted_frac": (
            root_seconds(tracer.spans, first) / traced_wall_s if traced_wall_s else 0.0,
            "ratio"),
    }


def solve_calls(spans, first: int, name: str) -> int:
    """Calls of `name` made inside a solver.solve span, in spans[first:].

    Calls made while printing a summary or running an oracle are not part
    of the per-step cost, so per-step ratios count only these.
    """
    inside = [False] * len(spans)
    count = 0
    for index in range(first, len(spans)):
        span_name, _, _, parent = spans[index]
        inside[index] = span_name == "solver.solve" or (parent >= 0 and inside[parent])
        if span_name == name and parent >= 0 and inside[parent]:
            count += 1
    return count
