"""Main-loop behavior: bounds, statuses, traces, and monitor wiring."""

import dataclasses
import math

import numpy as np
import pytest

from lcco_ipm import (
    AUTO,
    TRACE_HEADER,
    IterateState,
    ObjectiveSpec,
    Problem,
    SolverConfig,
    StartPoint,
    Trace,
    TraceRecord,
    default_theta,
    gamma_threshold,
    generate_instance,
    iteration_bound,
    monitor_step,
    newton_step,
    scaled_directions,
    solve,
    solve_many,
    trace_to_csv,
)
from lcco_ipm import centralpath
from lcco_ipm import solver as solver_module


def nonconvex_problem():
    """Feasible start on an indefinite objective.

    The dual equation holds at the start (c - x0/2 = z0 with y0 = 0), so
    admission passes, but the negative curvature makes dx'dz < 0 on the
    first step, which the step monitors must flag.
    """
    spec = ObjectiveSpec(
        kind="quadratic",
        c=[1.5, 1.5],
        Q=[[-0.5, 0.0], [0.0, -0.5]],
    )
    return Problem(
        A=[[1.0, 2.0]],
        b=[3.0],
        objective=spec,
        start=StartPoint(x0=[1.0, 1.0], y0=[0.0], z0=[1.0, 1.0]),
    )


def singular_problem():
    # Dependent constraint rows; consistent, with a feasible start, so
    # the defect only surfaces when the step system is factored.
    return Problem(
        A=[[1.0, 1.0], [1.0, 1.0]],
        b=[2.0, 2.0],
        objective=ObjectiveSpec.linear([1.0, 1.0]),
        start=StartPoint(x0=[1.0, 1.0], y0=[0.0, 0.0], z0=[1.0, 1.0]),
    )


class TestParameters:
    def test_update_factor_frozen_values(self):
        assert default_theta(4, 1) == 0.06766764161830635
        assert default_theta(4, 2) == 0.009157819444367091

    def test_update_factor_formula(self):
        for n, r in ((2, 1), (10, 3), (50, 2)):
            assert default_theta(n, r) == 1.0 / (math.exp(2.0 * r) * math.sqrt(n))

    def test_update_factor_rejects_bad_input(self):
        with pytest.raises(ValueError):
            default_theta(1, 1)
        with pytest.raises(TypeError):
            default_theta(4.0, 1)
        with pytest.raises(ValueError):
            default_theta(4, 0)

    def test_admission_threshold(self):
        assert gamma_threshold(1) == math.exp(-1.0)
        assert gamma_threshold(3) == math.exp(-3.0)

    def test_iteration_bound_frozen_value(self):
        assert iteration_bound(1.0, 4, 1, 1e-6) == 225

    def test_iteration_bound_formula(self):
        for mu0, n, r, eps in ((1.0, 4, 2, 1e-6), (2.5, 10, 3, 1e-4)):
            argument = mu0 * (n + (r - 1) ** 2 * math.exp(-2.0 * r)) / eps
            want = math.ceil(math.exp(2.0 * r) * math.sqrt(n) * math.log(argument))
            assert iteration_bound(mu0, n, r, eps) == want

    def test_iteration_bound_zero_when_start_meets_target(self):
        assert iteration_bound(1.0, 4, 1, 5.0) == 0
        assert iteration_bound(1.0, 4, 1, 4.0) == 0

    def test_iteration_bound_rejects_bad_input(self):
        with pytest.raises(ValueError):
            iteration_bound(0.0, 4, 1, 1e-6)
        with pytest.raises(ValueError):
            iteration_bound(1.0, 4, 1, 0.0)


class TestConfig:
    def test_defaults_resolve_to_the_analysis_values(self):
        cfg = SolverConfig(r=2)
        assert cfg.theta == AUTO
        assert cfg.resolved_theta(4) == default_theta(4, 2)
        assert cfg.resolved_max_iterations(100) == 1000

    def test_explicit_values_pass_through(self):
        cfg = SolverConfig(theta=0.01, max_iterations=7)
        assert cfg.resolved_theta(4) == 0.01
        assert cfg.resolved_max_iterations(100) == 7

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=True)
        with pytest.raises(ValueError):
            SolverConfig(r=13)
        with pytest.raises(ValueError):
            SolverConfig(theta=1.0)
        with pytest.raises(ValueError):
            SolverConfig(theta=-0.1)
        with pytest.raises(TypeError):
            SolverConfig(gamma=0.2)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)


class TestConvergedRuns:
    def test_reference_run_regression_anchor(self):
        # Deterministic end to end; these literals are frozen outputs of
        # the null-space step solver.  The approx asserts pin the answer of
        # the earlier LDL' solver; the full-system LU solver between them
        # differed from both only in the last digits.
        p = generate_instance(4, 2, "linear", 7)
        result = solve(p, SolverConfig(epsilon=1e-6, r=1))
        gamma_max = max(rec.gamma for rec in result.trace)
        assert result.status == "converged"
        assert result.iterations == 217
        assert result.bound == 225
        assert result.gap_final == 9.962801229252331e-07
        assert gamma_max == 0.002247196997541044
        assert result.gap_final == pytest.approx(9.9628012292523335e-07, rel=1e-13)
        assert gamma_max == pytest.approx(0.0022471969975410458, rel=1e-13)
        assert result.monitor_violations == 0

    def test_every_iterate_stays_feasible_and_proximal(self):
        p = generate_instance(6, 3, "quadratic", 11)
        cfg = SolverConfig(epsilon=1e-6, r=2)
        result = solve(p, cfg)
        assert result.status == "converged"
        assert result.iterations <= result.bound
        threshold = gamma_threshold(2)
        for rec in result.trace:
            assert rec.gamma < threshold
            assert rec.primal_res <= 1e-8 * (1.0 + float(np.linalg.norm(p.b)))
            assert rec.dual_res <= 1e-8 * (1.0 + rec.grad_norm)
        assert result.x.min() > 0.0
        assert result.z.min() > 0.0
        assert result.gap_final <= cfg.epsilon

    def test_larger_kernel_power_costs_more_iterations(self):
        p = generate_instance(4, 2, "linear", 7)
        base = solve(p, SolverConfig(epsilon=1e-6, r=1))
        slower = solve(p, SolverConfig(epsilon=1e-6, r=2))
        assert slower.status == "converged"
        assert slower.iterations == 1653
        assert slower.iterations > base.iterations
        assert slower.iterations <= slower.bound

    def test_loose_target_converges_in_zero_iterations(self):
        p = generate_instance(4, 2, "linear", 7)
        result = solve(p, SolverConfig(epsilon=4.0))
        assert result.status == "converged"
        assert result.iterations == 0
        assert result.trace == ()
        assert result.bound == 0
        assert np.array_equal(result.x, p.start.x0)

    def test_is_deterministic_end_to_end(self):
        p = generate_instance(6, 3, "quadratic", 5)
        a = solve(p, SolverConfig(epsilon=1e-4, r=1))
        b = solve(p, SolverConfig(epsilon=1e-4, r=1))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)
        assert a.gap_final == b.gap_final
        assert trace_to_csv(a.trace) == trace_to_csv(b.trace)

    def test_evaluates_the_objective_only_at_the_start(self, monkeypatch):
        # validate_start, then the start for the constant Hessian; each new
        # iterate's gradient is c + Q x over the batch, whose bits the
        # replay below checks against ObjectiveSpec.evaluate.
        p = generate_instance(6, 3, "quadratic", 5)
        evaluate = ObjectiveSpec.evaluate
        calls = []

        def counting(spec, x):
            calls.append(x)
            return evaluate(spec, x)

        monkeypatch.setattr(ObjectiveSpec, "evaluate", counting)
        result = solve(p, SolverConfig(epsilon=1e-6, r=1))
        assert result.status == "converged"
        assert result.iterations > 0
        assert len(calls) == 2

    def test_evaluates_the_kernel_three_times_per_step(self, monkeypatch):
        # The step and its scaled directions share one p(before.w); the
        # monitors evaluate p at both iterates on their own.  validate_start
        # grades the start once more.  Rows of a stacked w count one each.
        kernel = centralpath._p
        rows = []

        def counting(w, r):
            rows.append(math.prod(np.shape(w)[:-1]))
            return kernel(w, r)

        for module in (centralpath, solver_module):
            monkeypatch.setattr(module, "_p", counting)
        p = generate_instance(6, 3, "quadratic", 5)
        result = solve(p, SolverConfig(epsilon=1e-6, r=1))
        assert result.status == "converged"
        assert sum(rows) == 3 * result.iterations + 1


def replay(p, cfg, iterations):
    """The solver's loop rebuilt from the validated public step API."""
    r = cfg.r
    theta = cfg.resolved_theta(p.n)
    x, y, z = p.start.x0, p.start.y0, p.start.z0
    mu = float(x @ z) / p.n
    records = []
    for iteration in range(1, iterations + 1):
        mu *= 1.0 - theta
        before = IterateState.from_point(x, y, z, mu)
        step = newton_step(p, before, r)
        dirs = scaled_directions(step, before, r, check=True)
        x, y, z = x + step.dx_full, y + step.dy_full, z + step.dz_full
        after = IterateState.from_point(x, y, z, mu)
        monitors = monitor_step(before, after, dirs, r)
        gradient = p.objective.evaluate(x)[1]
        records.append(
            TraceRecord(
                iteration=iteration,
                mu=mu,
                gap=after.gap(),
                gamma=monitors.gamma_after,
                min_w=float(after.w.min()),
                norm_pw=float(np.linalg.norm(dirs.pw)),
                norm_qw=float(np.linalg.norm(dirs.qw)),
                dxTdz=dirs.dxTdz,
                primal_res=float(np.linalg.norm(p.A @ x - p.b)),
                dual_res=float(np.linalg.norm(p.A.T @ y + z - gradient)),
                monitors=monitors,
                grad_norm=float(np.linalg.norm(gradient)),
                kernel_defect=float(np.linalg.norm(dirs.dx + dirs.dz - dirs.pw)),
                scaled_primal=float(np.linalg.norm(p.A @ step.dx_full)) / mu,
            )
        )
    return tuple(records), (x, y, z)


class TestReplay:
    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_solver_trace_equals_the_public_api_replay(self, kind, r):
        # The loop calls unchecked kernels; the checked public functions
        # stay the ground truth, down to the last bit of every field.
        p = generate_instance(6, 3, kind, 41)
        cfg = SolverConfig(epsilon=1e-6, r=r, max_iterations=40)
        result = solve(p, cfg)
        assert result.status == "iteration_cap"
        records, (x, y, z) = replay(p, cfg, 40)
        assert len(result.trace) == 40
        for got, want in zip(result.trace, records):
            assert got == want
        assert np.array_equal(result.x, x)
        assert np.array_equal(result.y, y)
        assert np.array_equal(result.z, z)


def shifted(p, delta):
    """p with an off-center start: z0 += delta A[0], y0[0] -= delta keeps it feasible."""
    y0 = np.array(p.start.y0, dtype=float)
    y0[0] -= delta
    start = StartPoint(x0=p.start.x0, y0=y0, z0=p.start.z0 + delta * p.A[0])
    return Problem(A=p.A, b=p.b, objective=p.objective, start=start)


def assert_same_result(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.bound == want.bound
    assert got.monitor_violations == want.monitor_violations
    assert got.trace == want.trace
    for name in ("x", "y", "z"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert repr(got.mu_final) == repr(want.mu_final)
    assert repr(got.gap_final) == repr(want.gap_final)


class TestSolveMany:
    @pytest.mark.parametrize("r", [1, 2])
    def test_mixed_batch_equals_solo_runs(self, r):
        problems = [generate_instance(6, 3, kind, seed)
                    for kind in ("linear", "quadratic") for seed in (11, 12)]
        cfg = SolverConfig(epsilon=1e-6, r=r)
        results = solve_many(problems, cfg)
        assert len(results) == len(problems)
        for p, got in zip(problems, results):
            assert got.status == "converged"
            assert_same_result(got, solve(p, cfg))

    def test_members_that_end_differently_equal_their_solo_runs(self, monkeypatch):
        centered = generate_instance(6, 3, "quadratic", 21)
        off_center = shifted(generate_instance(6, 3, "linear", 22), 0.05)
        base = generate_instance(6, 3, "linear", 23)
        z0 = np.array(base.start.z0)
        z0[2] = -1.0
        inadmissible = Problem(
            A=base.A, b=base.b, objective=base.objective,
            start=StartPoint(x0=base.start.x0, y0=base.start.y0, z0=z0),
        )
        failing = generate_instance(6, 3, "quadratic", 24)
        half_gap = 0.5 * float(failing.start.x0 @ failing.start.z0)
        step_fn = solver_module._newton_step

        def poisoned(A, kkt, hessian, x, z, *rest):
            # NaN in dz of the `failing` member once its gap has halved: a
            # condition on its own iterate, so solo and batched runs agree.
            dx, dy, dz, a_dx, residual = step_fn(A, kkt, hessian, x, z, *rest)
            hit = [np.array_equal(a, failing.A) and xk @ zk < half_gap
                   for a, xk, zk in zip(A, x, z)]
            if any(hit):
                dz = np.array(dz)
                dz[hit, 0] = math.nan
            return dx, dy, dz, a_dx, residual

        monkeypatch.setattr(solver_module, "_newton_step", poisoned)
        problems = [centered, off_center, inadmissible, failing]
        cfg = SolverConfig(epsilon=1e-6, r=1)
        results = solve_many(problems, cfg)
        solo = [solve(p, cfg) for p in problems]
        assert [res.status for res in results] == [
            "converged", "converged", "invalid_start", "numerical_failure",
        ]
        assert results[0].iterations != results[1].iterations
        assert 0 < results[3].iterations < results[0].iterations
        for got, want in zip(results, solo):
            assert_same_result(got, want)

    def test_members_leave_at_their_own_cap(self):
        early = shifted(generate_instance(6, 3, "linear", 22), 0.2)
        late = generate_instance(6, 3, "quadratic", 31)
        free = [solve(p, SolverConfig(epsilon=1e-6)).iterations for p in (early, late)]
        assert free[0] < free[1]
        cfg = SolverConfig(epsilon=1e-6, max_iterations=(free[0] + free[1]) // 2)
        results = solve_many([early, late], cfg)
        assert [result.status for result in results] == ["converged", "iteration_cap"]
        for p, got in zip((early, late), results):
            assert_same_result(got, solve(p, cfg))

    def test_strict_monitor_abort_leaves_the_rest_running(self):
        problems = [nonconvex_problem(), generate_instance(2, 1, "linear", 3)]
        cfg = SolverConfig(epsilon=1e-6, strict_monitors=True)
        results = solve_many(problems, cfg)
        assert [res.status for res in results] == ["numerical_failure", "converged"]
        for p, got in zip(problems, results):
            assert_same_result(got, solve(p, cfg))

    def test_singular_member_leaves_the_others_running(self):
        regular = Problem(
            A=[[1.0, 0.0], [0.0, 1.0]],
            b=[1.0, 1.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
            start=StartPoint(x0=[1.0, 1.0], y0=[0.0, 0.0], z0=[1.0, 1.0]),
        )
        problems = [singular_problem(), regular]
        cfg = SolverConfig(epsilon=1e-6)
        results = solve_many(problems, cfg)
        assert [res.status for res in results] == ["numerical_failure", "converged"]
        for p, got in zip(problems, results):
            assert_same_result(got, solve(p, cfg))

    def test_blocks_stream_to_on_block_instead_of_the_trace(self):
        centered = generate_instance(6, 3, "quadratic", 21)
        off_center = shifted(generate_instance(6, 3, "linear", 22), 0.05)
        problems = [centered, off_center]
        cfg = SolverConfig(epsilon=1e-6)
        received = []
        results = solve_many(
            problems, cfg, on_block=lambda i, block: received.append((i, block))
        )
        for i, (p, got) in enumerate(zip(problems, results)):
            want = solve(p, cfg)
            blocks = [block for j, block in received if j == i]
            assert all(isinstance(block, Trace) and len(block) for block in blocks)
            assert [record for block in blocks for record in block] == list(want.trace)
            assert Trace.concat(blocks) == want.trace
            assert_same_result(got, dataclasses.replace(want, trace=()))
        assert results[0].iterations != results[1].iterations
        # Members step in lockstep, so the blocks of one flush arrive in
        # member order and each starts where the member's last one ended.
        starts = [block.iteration[0] for _, block in received]
        assert starts == sorted(starts)

    def test_mixed_shapes_raise(self):
        mixed = [generate_instance(6, 3, "linear", 1), generate_instance(6, 2, "linear", 1)]
        with pytest.raises(ValueError, match="one shape"):
            solve_many(mixed)

    def test_empty_batch_returns_no_results(self):
        assert solve_many([]) == []


class TestTraceColumns:
    def test_columns_are_read_only_arrays_of_the_record_fields(self):
        cfg = SolverConfig(epsilon=1e-6, max_iterations=30)
        p = generate_instance(6, 3, "quadratic", 5)
        # A batch member's block holds strided views of the batch's rows.
        batch = [p, generate_instance(6, 3, "linear", 5), shifted(p, 0.05)]
        blocks = []
        solve_many(batch, cfg, on_block=lambda i, block: i == 2 and blocks.append(block))
        traces = [solve(p, cfg).trace, *blocks]
        assert len(traces) == 2
        assert traces[1].mu.strides[0] == 3 * traces[0].mu.strides[0]
        floats = [f.name for f in dataclasses.fields(TraceRecord) if f.type == "float"]
        report = [f.name for f in dataclasses.fields(centralpath.MonitorReport)
                  if f.type == "float"]
        assert len(floats) == 12 and len(report) == 5
        for trace in traces:
            assert isinstance(trace, Trace)
            assert trace.iteration.tolist() == list(range(1, 31))
            for name in ("iteration", *floats, *report):
                column = getattr(trace, "gamma" if name == "gamma_after" else name)
                want = [getattr(rec.monitors if name in report else rec, name) for rec in trace]
                assert column.tolist() == want
                with pytest.raises(ValueError):
                    column[0] = 0
            with pytest.raises(AttributeError):
                trace.monitors

    def test_equals_any_sequence_of_equal_records(self):
        p = generate_instance(4, 2, "linear", 7)
        trace = solve(p, SolverConfig(epsilon=1e-6, max_iterations=12)).trace
        records = list(trace)
        assert trace == records and trace == tuple(records) and records == trace
        assert trace != records[:-1]
        assert trace != records[::-1]
        assert trace != 12
        assert trace[-1] == records[-1]
        assert trace[3:7] == records[3:7]
        assert isinstance(trace[3:7], Trace)
        assert Trace.concat([trace[:5], trace[5:]]) == trace
        assert Trace.concat([]) == () == Trace.concat([])
        assert len(Trace.concat([])) == 0

    def test_flag_columns_are_read_only_arrays_of_the_record_flags(self):
        cfg = SolverConfig(epsilon=1e-6, max_iterations=30)
        traces = [solve(p, cfg).trace
                  for p in (nonconvex_problem(), generate_instance(6, 3, "quadratic", 5))]
        assert not traces[0].eq111_ok.all()  # the nonconvex start breaks eq111
        names = [field.name for field in dataclasses.fields(centralpath.MonitorReport)[:6]]
        assert all(name.endswith("_ok") for name in names)
        for trace in traces:
            for name in names:
                column = getattr(trace, name)
                assert column.dtype == bool
                assert column.tolist() == [getattr(rec.monitors, name) for rec in trace]
                with pytest.raises(ValueError):
                    column[0] = True

    def test_condition_and_residual_columns_match_the_public_step_api(self):
        # A replay of the loop: each step's condition estimate and residual
        # are those newton_step reports at its iterate.
        p = generate_instance(6, 3, "quadratic", 41)
        cfg = SolverConfig(epsilon=1e-6, r=2, max_iterations=25)
        trace = solve(p, cfg).trace
        theta = cfg.resolved_theta(p.n)
        x, y, z = p.start.x0, p.start.y0, p.start.z0
        mu = float(x @ z) / p.n
        conditions, residuals = [], []
        for _ in range(25):
            mu *= 1.0 - theta
            before = IterateState.from_point(x, y, z, mu)
            step = newton_step(p, before, cfg.r)
            conditions.append(step.condition)
            residuals.append(step.residual)
            x, y, z = x + step.dx_full, y + step.dy_full, z + step.dz_full
        assert trace.condition.tolist() == conditions
        assert trace.step_residual.tolist() == residuals
        assert min(conditions) >= 1.0


def staggered_batch():
    """Four same-shape problems that stop at four well-spaced steps.

    Scaling b, c and the start by s keeps the start centred at mu0 = s^2,
    and each factor of 10 in s adds some 80 steps at n = 6.
    """
    problems = []
    for k, (kind, scale) in enumerate([("quadratic", 1.0), ("linear", 10.0),
                                       ("quadratic", 100.0), ("linear", 1000.0)]):
        p = generate_instance(6, 3, kind, 21 + k)
        f, start = p.objective, p.start
        problems.append(Problem(
            A=p.A, b=scale * p.b, objective=ObjectiveSpec(kind, c=scale * f.c, Q=f.Q),
            start=StartPoint(scale * start.x0, scale * start.y0, scale * start.z0),
        ))
    return problems


class TestBlocks:
    def counted(self, monkeypatch, name):
        # The shapes of the first argument of each call the loop makes to
        # the kernel `name`.
        kernel = getattr(solver_module, name)
        calls = []

        def counting(*args):
            calls.append(np.shape(args[0]))
            return kernel(*args)

        monkeypatch.setattr(solver_module, name, counting)
        return calls

    @pytest.mark.parametrize("block", [16, 256])
    def test_grader_runs_once_per_block_or_membership_change(self, monkeypatch, block):
        # The scaled directions and the monitor terms are evaluated with
        # the grading, once per block over all of its steps, not per step.
        monkeypatch.setattr(solver_module, "_BLOCK", block)
        calls = self.counted(monkeypatch, "_grade")
        directions = self.counted(monkeypatch, "_directions")
        terms = self.counted(monkeypatch, "_monitor_terms")
        results = solve_many(staggered_batch(), SolverConfig(epsilon=1e-6))
        iterations = [result.iterations for result in results]
        assert len(set(iterations)) == 4
        assert len(calls) <= math.ceil(max(iterations) / block) + len(set(iterations))
        assert len(calls) < max(iterations) < sum(iterations)
        assert sum(rows for rows, _ in calls) == max(iterations)
        steps = [rows for rows, _ in calls]
        assert [shape[0] for shape in directions] == steps
        assert [shape[:2] for shape in terms] == [(2, rows) for rows in steps]

    def test_block_boundaries_change_no_bit(self, monkeypatch):
        cfg = SolverConfig(epsilon=1e-6)
        whole = solve_many(staggered_batch(), cfg)
        monkeypatch.setattr(solver_module, "_BLOCK", 7)
        for got, want in zip(solve_many(staggered_batch(), cfg), whole):
            assert_same_result(got, want)
            assert np.array_equal(got.trace.condition, want.trace.condition)

    def test_strict_monitors_grade_every_step(self, monkeypatch):
        calls = self.counted(monkeypatch, "_grade")
        directions = self.counted(monkeypatch, "_directions")
        terms = self.counted(monkeypatch, "_monitor_terms")
        result = solve(generate_instance(4, 2, "linear", 7),
                       SolverConfig(epsilon=1e-6, strict_monitors=True, max_iterations=20))
        assert result.iterations == 20
        assert calls == [(1, 1)] * 20
        assert directions == [(1, 1, 4)] * 20
        assert terms == [(2, 1, 1, 4)] * 20


class TestRejectedRuns:
    def test_problem_without_a_start_raises(self):
        p = generate_instance(4, 2, "linear", 1)
        bare = Problem(A=p.A, b=p.b, objective=p.objective)
        with pytest.raises(ValueError):
            solve(bare)

    def test_single_variable_problem_raises(self):
        p = Problem(
            A=[[1.0]],
            b=[1.0],
            objective=ObjectiveSpec.linear([1.0]),
            start=StartPoint(x0=[1.0], y0=[0.0], z0=[1.0]),
        )
        with pytest.raises(ValueError):
            solve(p)

    def test_non_interior_start_is_rejected_not_run(self):
        p = generate_instance(4, 2, "linear", 1)
        bad = StartPoint(
            x0=p.start.x0,
            y0=p.start.y0,
            z0=np.array([1.0, 1.0, -1.0, 1.0]),
        )
        result = solve(
            Problem(A=p.A, b=p.b, objective=p.objective, start=bad),
            SolverConfig(epsilon=1e-6),
        )
        assert result.status == "invalid_start"
        assert result.iterations == 0
        assert result.trace == ()
        assert np.array_equal(result.x, p.start.x0)
        assert np.array_equal(result.z, bad.z0)

    def test_off_center_start_below_the_threshold_converges(self):
        p = generate_instance(4, 2, "linear", 3)
        delta = 0.05
        z0 = p.start.z0 + delta * p.A[0]
        y0 = np.array(p.start.y0, dtype=float).copy()
        y0[0] -= delta
        shifted = Problem(
            A=p.A,
            b=p.b,
            objective=p.objective,
            start=StartPoint(x0=p.start.x0, y0=y0, z0=z0),
        )
        default_run = solve(shifted, SolverConfig(epsilon=1e-4))
        assert default_run.status == "converged"


class TestFailureStatuses:
    def test_iteration_cap(self):
        p = generate_instance(4, 2, "linear", 7)
        result = solve(p, SolverConfig(epsilon=1e-6, max_iterations=1))
        assert result.status == "iteration_cap"
        assert result.iterations == 1
        assert len(result.trace) == 1
        assert result.gap_final > 1e-6

    def test_singular_step_system_fails_numerically(self):
        result = solve(singular_problem(), SolverConfig(epsilon=1e-6))
        assert result.status == "numerical_failure"
        assert result.iterations == 0
        assert result.trace == ()
        assert np.array_equal(result.x, [1.0, 1.0])

    def test_non_finite_iterate_fails_numerically(self, monkeypatch):
        # NaN compares false with everything, so the interior check after
        # a step must be phrased to reject it.
        step_fn = solver_module._newton_step

        def poisoned(*args):
            dx, dy, dz, a_dx, residual = step_fn(*args)
            dz = np.array(dz)
            dz[:, 0] = math.nan
            return dx, dy, dz, a_dx, residual

        monkeypatch.setattr(solver_module, "_newton_step", poisoned)
        p = generate_instance(4, 2, "linear", 7)
        result = solve(p, SolverConfig(epsilon=1e-6))
        assert result.status == "numerical_failure"
        assert result.iterations == 0
        assert np.array_equal(result.z, p.start.z0)

    def test_monitors_flag_negative_curvature_in_advisory_mode(self):
        result = solve(
            nonconvex_problem(),
            SolverConfig(epsilon=1e-6, max_iterations=1),
        )
        assert result.status == "iteration_cap"
        assert result.monitor_violations > 0
        first = result.trace[0].monitors
        assert not first.eq111_ok
        assert not first.eq112_ok
        assert result.trace[0].dxTdz < 0.0

    def test_strict_mode_promotes_monitor_breaches(self):
        result = solve(
            nonconvex_problem(),
            SolverConfig(epsilon=1e-6, strict_monitors=True),
        )
        assert result.status == "numerical_failure"
        assert result.iterations == 1
        assert len(result.trace) == 1
        assert result.monitor_violations > 0


def old_trace_to_csv(trace):
    """The per-field formatter trace_to_csv replaced, kept verbatim as its reference."""

    def _g17(value):
        return format(float(value), ".17g")

    lines = [TRACE_HEADER]
    for record in trace:
        lines.append(
            ",".join(
                [
                    str(record.iteration),
                    _g17(record.mu),
                    _g17(record.gap),
                    _g17(record.gamma),
                    _g17(record.min_w),
                    _g17(record.norm_pw),
                    _g17(record.norm_qw),
                    _g17(record.dxTdz),
                    _g17(record.primal_res),
                    _g17(record.dual_res),
                    # lemma2, lemma4, lemma5, eq111, eq112, eq115, as in the header
                    *("1" if ok else "0" for ok in record.monitors.flags.values()),
                ]
            )
        )
    return "\n".join(lines) + "\n"


class TestTraceExport:
    def test_header_and_shape(self):
        p = generate_instance(4, 2, "linear", 7)
        result = solve(p, SolverConfig(epsilon=1e-6, max_iterations=3))
        text = trace_to_csv(result.trace)
        lines = text.splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 4
        assert text.endswith("\n")
        for lineno, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert len(fields) == 16
            assert fields[0] == str(lineno)
            assert set(fields[10:]) <= {"0", "1"}

    def test_numbers_round_trip_through_the_text(self):
        p = generate_instance(4, 2, "linear", 7)
        result = solve(p, SolverConfig(epsilon=1e-6, max_iterations=2))
        lines = trace_to_csv(result.trace).splitlines()[1:]
        for record, line in zip(result.trace, lines):
            fields = line.split(",")
            assert float(fields[1]) == record.mu
            assert float(fields[2]) == record.gap
            assert float(fields[3]) == record.gamma
            assert float(fields[7]) == record.dxTdz

    def test_monitor_flags_render_as_bits(self):
        result = solve(
            nonconvex_problem(),
            SolverConfig(epsilon=1e-6, max_iterations=1),
        )
        line = trace_to_csv(result.trace).splitlines()[1]
        flags = line.split(",")[10:]
        # Column order: lemma2, lemma4, lemma5, eq111, eq112, eq115.
        assert flags[3] == "0"
        assert flags[4] == "0"

    def test_empty_trace_is_just_the_header(self):
        result = solve(shifted(generate_instance(4, 2, "linear", 7), 5.0))
        assert result.status == "invalid_start"
        assert trace_to_csv(result.trace) == TRACE_HEADER + "\n"

    def test_bytes_equal_the_per_field_formatter(self):
        result = solve(nonconvex_problem(), SolverConfig(epsilon=1e-6, max_iterations=3))
        solved = solve(generate_instance(6, 3, "quadratic", 5), SolverConfig(epsilon=1e-6))
        odd = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
               1e300, 0.1, -1.5e-17]
        rows = Trace.concat([solved.trace[:9], result.trace])._rows.copy()
        names = ("mu", "gap", "gamma", "min_w", "norm_pw", "norm_qw", "dxTdz", "primal_res",
                 "dual_res")
        for j, name in enumerate(names):
            rows[name] = [odd[(k + j) % 9] for k in range(len(rows))]
        for trace in (Trace(rows), solved.trace, result.trace, Trace.concat([])):
            assert trace_to_csv(trace) == old_trace_to_csv(trace)
