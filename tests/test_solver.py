"""Main-loop behavior: bounds, statuses, traces, and monitor wiring."""

import dataclasses
import math

import numpy as np
import pytest

from lcco_ipm import (
    AUTO,
    SINGULAR_CONDITION,
    TRACE_HEADER,
    IterateState,
    ObjectiveSpec,
    Problem,
    SolverConfig,
    StartPoint,
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
from lcco_ipm import centralpath, newton
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

    def test_iteration_bound_when_its_log_argument_overflows(self):
        # mu0 n / eps = 2e330 overflows; its log is the sum of the factors' logs.
        log = math.log(1e30) + math.log(2) - math.log(1e-300)
        want = math.ceil(math.exp(2.0) * math.sqrt(2) * log)
        assert iteration_bound(1e30, 2, 1, 1e-300) == want == 7948

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
        # the null-space step solver with its batched inverse.  The approx
        # asserts pin the answer of the earlier LDL' solver; the LU solvers
        # between them differed from both only in the last digits.
        p = generate_instance(4, 2, "linear", 7)
        result = solve(p, SolverConfig(epsilon=1e-6, r=1))
        gamma_max = max(rec.gamma for rec in result.trace)
        assert result.status == "converged"
        assert result.iterations == 217
        assert result.bound == 225
        assert result.gap_final == 9.962801229252333e-07
        assert gamma_max == 0.002247196997541143
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
        assert len(result.trace) == 0
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
        # validate_start, for the start's residuals and its gradient's norm;
        # the loop reads the constant Hessian, and each new iterate's
        # gradient is c + Q x over the batch, whose bits the replay below
        # checks against ObjectiveSpec.evaluate.
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
        assert all(np.array_equal(x, p.start.x0) for x in calls)

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
    """The solver's loop rebuilt from the validated public step API.

    Returns each trace field it derives, as a list over the iterations,
    and the last iterate.
    """
    r = cfg.r
    theta = cfg.resolved_theta(p.n)
    x, y, z = p.start.x0, p.start.y0, p.start.z0
    mu = float(x @ z) / p.n
    columns = {}
    for iteration in range(1, iterations + 1):
        mu *= 1.0 - theta
        before = IterateState.from_point(x, y, z, mu)
        step = newton_step(p, before, r)
        dirs = scaled_directions(step, before, r)
        x, y, z = x + step.dx_full, y + step.dy_full, z + step.dz_full
        after = IterateState.from_point(x, y, z, mu)
        monitors = monitor_step(before, after, dirs, r)
        gradient = p.objective.evaluate(x)[1]
        row = dataclasses.asdict(monitors)
        row.update(
            iteration=iteration,
            mu=mu,
            gap=after.gap(),
            gamma=row.pop("gamma_after"),
            min_w=float(after.w.min()),
            norm_pw=float(np.linalg.norm(dirs.pw)),
            norm_qw=float(np.linalg.norm(dirs.qw)),
            dxTdz=dirs.dxTdz,
            primal_res=float(np.linalg.norm(p.A @ x - p.b)),
            dual_res=float(np.linalg.norm(p.A.T @ y + z - gradient)),
            grad_norm=float(np.linalg.norm(gradient)),
            kernel_defect=float(np.linalg.norm(dirs.dx + dirs.dz - dirs.pw)),
            scaled_primal=float(np.linalg.norm(p.A @ step.dx_full)) / mu,
        )
        for name, value in row.items():
            columns.setdefault(name, []).append(value)
    return columns, (x, y, z)


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
        columns, (x, y, z) = replay(p, cfg, 40)
        assert len(result.trace) == 40
        # Every field but eq115_slack, condition and step_residual, which
        # the column tests cover.
        assert len(columns) == len(solver_module._TRACE_ROW) - 3
        for name, values in columns.items():
            got = getattr(result.trace, name)
            assert got.tobytes() == np.array(values, got.dtype).tobytes(), name
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
    assert got.trace.tobytes() == want.trace.tobytes()
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
        # b, c and the start scaled by 1e-4: still exactly centred, with gap
        # 6e-8, so it has converged before its first step, within a bound of 0.
        small = Problem(
            A=base.A, b=1e-4 * base.b, objective=ObjectiveSpec.linear(1e-4 * base.objective.c),
            start=StartPoint(*(1e-4 * v for v in (base.start.x0, base.start.y0, base.start.z0))),
        )
        # One entry of A is inf, so the start's primal residual is inf; the
        # setup still stacks it and takes the null space of its A.
        infinite = np.array(base.A)
        infinite[1, 4] = math.inf
        infinite_a = Problem(A=infinite, b=base.b, objective=base.objective, start=base.start)
        failing = generate_instance(6, 3, "quadratic", 24)
        half_gap = 0.5 * float(failing.start.x0 @ failing.start.z0)
        # [N; HN] of `failing`, by which the step function knows that member.
        marker = newton._null_space(failing.A[np.newaxis], failing.objective.Q[np.newaxis])[0][0]
        step_fn = solver_module._newton_step

        def poisoned(basis, projector, x, z, *rest):
            # NaN in dz of the `failing` member once its gap has halved: a
            # condition on its own iterate, so solo and batched runs agree.
            dx, dy, dz, h_dx = step_fn(basis, projector, x, z, *rest)
            hit = [np.array_equal(member, marker) and xk @ zk < half_gap
                   for member, xk, zk in zip(basis, x, z)]
            if any(hit):
                dz = np.array(dz)
                dz[hit, 0] = math.nan
            return dx, dy, dz, h_dx

        monkeypatch.setattr(solver_module, "_newton_step", poisoned)
        problems = [centered, off_center, inadmissible, small, infinite_a, failing]
        cfg = SolverConfig(epsilon=1e-6, r=1)
        results = solve_many(problems, cfg)
        solo = [solve(p, cfg) for p in problems]
        assert [res.status for res in results] == [
            "converged", "converged", "invalid_start", "converged", "invalid_start",
            "numerical_failure",
        ]
        assert (results[3].iterations, results[3].bound) == (0, 0)
        assert results[3].gap_final == pytest.approx(6e-8)
        assert results[0].iterations != results[1].iterations
        assert 0 < results[5].iterations < results[0].iterations
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
            assert all(isinstance(block, np.recarray) and len(block) for block in blocks)
            assert not any(block.flags.writeable for block in blocks)
            assert b"".join(block.tobytes() for block in blocks) == want.trace.tobytes()
            assert solver_module._join(blocks).tobytes() == want.trace.tobytes()
            assert_same_result(got, dataclasses.replace(want, trace=want.trace[:0]))
        assert results[0].iterations != results[1].iterations
        # Members step in lockstep, so the parts of one block arrive in
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
        names = solver_module._TRACE_ROW.names
        assert len(names) == 26
        for trace in traces:
            assert isinstance(trace, np.recarray) and trace.dtype.itemsize == 166
            assert trace.iteration.tolist() == list(range(1, 31))
            for name in names:
                column = getattr(trace, name)
                assert type(column) is np.ndarray
                assert column.tolist() == [getattr(rec, name) for rec in trace]
                with pytest.raises(ValueError):
                    column[0] = 0
            with pytest.raises(AttributeError):
                trace.monitors

    def test_slices_and_joins_are_read_only_traces(self):
        p = generate_instance(4, 2, "linear", 7)
        trace = solve(p, SolverConfig(epsilon=1e-6, max_iterations=12)).trace
        assert len(trace) == 12
        assert trace[-1].tobytes() == trace[11:].tobytes()
        assert trace[-1].iteration == 12
        part = trace[3:7]
        assert isinstance(part, np.recarray) and not part.flags.writeable
        assert part.iteration.tolist() == [4, 5, 6, 7]
        joined = solver_module._join([trace[:5], trace[5:]])
        assert not joined.flags.writeable
        assert joined.tobytes() == trace.tobytes()
        empty = solver_module._join([])
        assert len(empty) == 0 and empty.dtype == trace.dtype
        assert not empty.flags.writeable

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
                assert column.tolist() == [getattr(rec, name) for rec in trace]
                with pytest.raises(ValueError):
                    column[0] = True

    def test_condition_and_residual_columns_match_the_public_step_api(self):
        # A replay of the loop over 70 steps, across two block boundaries:
        # each step's condition estimate and residual are those newton_step
        # reports at its iterate, bit for bit, whether the instance runs
        # alone or as the middle member of a batch.
        p = generate_instance(6, 3, "quadratic", 41)
        cfg = SolverConfig(epsilon=1e-6, r=2, max_iterations=70)
        batch = [generate_instance(6, 3, kind, seed)
                 for kind, seed in (("linear", 41), ("quadratic", 41), ("quadratic", 42))]
        traces = [solve(p, cfg).trace, solve_many(batch, cfg)[1].trace]
        theta = cfg.resolved_theta(p.n)
        x, y, z = p.start.x0, p.start.y0, p.start.z0
        mu = float(x @ z) / p.n
        conditions, residuals = [], []
        for _ in range(70):
            mu *= 1.0 - theta
            before = IterateState.from_point(x, y, z, mu)
            step = newton_step(p, before, cfg.r)
            conditions.append(step.condition)
            residuals.append(step.residual)
            x, y, z = x + step.dx_full, y + step.dy_full, z + step.dz_full
        for trace in traces:
            assert len(trace) == 70
            assert trace.condition.tobytes() == np.array(conditions).tobytes()
            assert trace.step_residual.tobytes() == np.array(residuals).tobytes()
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
        # The step checks, the scaled directions and the monitor terms are
        # evaluated with the grading, once per block over all of its steps,
        # not per step.  Blocks hold `block` steps while all four members
        # (B n = 24) run, and more once some have left.
        monkeypatch.setattr(solver_module, "_CHUNK", 24 * block)
        calls = self.counted(monkeypatch, "_grade")
        directions = self.counted(monkeypatch, "_directions")
        terms = self.counted(monkeypatch, "_monitor_terms")
        verified = self.counted(monkeypatch, "_verify")
        results = solve_many(staggered_batch(), SolverConfig(epsilon=1e-6))
        iterations = [result.iterations for result in results]
        assert len(set(iterations)) == 4
        assert len(calls) <= math.ceil(max(iterations) / block) + len(set(iterations))
        assert len(calls) < max(iterations) < sum(iterations)
        assert sum(rows for rows, _ in calls) == max(iterations)
        steps = [rows for rows, _ in calls]
        assert [shape[0] for shape in directions] == steps
        assert [shape[:2] for shape in terms] == [(2, rows) for rows in steps]
        assert [shape[0] for shape in verified] == steps

    def test_block_boundaries_change_no_bit(self, monkeypatch):
        # A block holds _CHUNK // (B n) steps: with _CHUNK = 72 and n = 6
        # that is 3 while all four members run, and never more than
        # 72 // 6 = 12.
        cfg = SolverConfig(epsilon=1e-6)
        whole = solve_many(staggered_batch(), cfg)
        together = min(result.iterations for result in whole)
        for chunk in (168, 72):
            with monkeypatch.context() as patch:
                patch.setattr(solver_module, "_CHUNK", chunk)
                for got, want in zip(solve_many(staggered_batch(), cfg), whole):
                    assert_same_result(got, want)
                    assert got.trace.condition.tobytes() == want.trace.condition.tobytes()
                blocks = []
                solve_many(staggered_batch(), cfg, on_block=lambda i, block: blocks.append(block))
            sizes = [len(block) for block in blocks if block.iteration[-1] <= together]
            assert max(sizes) == chunk // 24
            assert max(len(block) for block in blocks) <= chunk // 6

    def test_a_solo_solve_within_its_depth_is_one_block(self, monkeypatch):
        # 4096 // 10 = 409 steps hold the whole 369-step solve at n = 10.
        verified = self.counted(monkeypatch, "_verify")
        result = solve(generate_instance(10, 5, "quadratic", 1), SolverConfig(epsilon=1e-6))
        assert result.iterations == 369
        assert verified == [(369, 1, 10)]

    def test_a_strict_solve_within_its_depth_is_one_block(self, monkeypatch):
        # Strict monitors take the same blocks as advisory ones: 20 steps
        # at n = 4 are checked and graded together.
        calls = self.counted(monkeypatch, "_grade")
        directions = self.counted(monkeypatch, "_directions")
        terms = self.counted(monkeypatch, "_monitor_terms")
        verified = self.counted(monkeypatch, "_verify")
        result = solve(generate_instance(4, 2, "linear", 7),
                       SolverConfig(epsilon=1e-6, strict_monitors=True, max_iterations=20))
        assert result.iterations == 20
        assert calls == [(20, 1)]
        assert directions == [(20, 1, 4)]
        assert terms == [(2, 20, 1, 4)]
        assert verified == [(20, 1, 4)]


def tiny_x(p, scale=1e-10):
    """p with x0 and b scaled by `scale`, a start as central at a mu `scale` times smaller.

    Its x is then so small that zeroing one component of x + dx leaves
    every step equation within RESIDUAL_LIMIT.
    """
    start = p.start
    return Problem(A=p.A, b=scale * p.b, objective=p.objective,
                   start=StartPoint(scale * start.x0, start.y0, start.z0))


class TestStepChecks:
    def trip(self, monkeypatch, gate, target, gap):
        # Make `target` fail one check, or with gate "monitor" breach eq111,
        # at its first step from an iterate whose gap is below `gap`: a
        # condition on its own iterate, so solo and batched runs trip at
        # the same step.
        if gate == "monitor":
            # Of the members below, only `target` has a gap this small.
            directions = solver_module._directions

            def breached(w, x, z, dx, dz):
                dx_s, dz_s, qw, dxTdz = directions(w, x, z, dx, dz)
                dxTdz[np.vecdot(x, z) < gap] -= 1.0  # dx'dz < 0
                return dx_s, dz_s, qw, dxTdz

            monkeypatch.setattr(solver_module, "_directions", breached)
            return
        hessian = target.objective.evaluate(target.start.x0)[2]
        marker = newton._null_space(target.A[np.newaxis], hessian[np.newaxis])[0][0]

        def hit(basis, x, z):
            return [np.array_equal(member, marker) and xk @ zk < gap
                    for member, xk, zk in zip(basis, x, z)]

        if gate == "condition":
            factor = solver_module._factor

            def tripped(basis, projector, reduced, grade, x, z):
                inverse, condition = factor(basis, projector, reduced, grade, x, z)
                condition[hit(basis, x, z)] = 10.0 * SINGULAR_CONDITION
                return inverse, condition

            monkeypatch.setattr(solver_module, "_factor", tripped)
            return
        step_fn = solver_module._newton_step

        def tripped(basis, projector, x, z, *rest):
            dx, dy, dz, h_dx = step_fn(basis, projector, x, z, *rest)
            rows = hit(basis, x, z)
            if any(rows):
                dx, dy = np.array(dx), np.array(dy)
                if gate == "residual":
                    dy[rows] += 1e-3  # a finite dual residual near 1e-3
                else:
                    dx[rows, 0] = -x[rows, 0]  # x + dx has a zero
            return dx, dy, dz, h_dx

        monkeypatch.setattr(solver_module, "_newton_step", tripped)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("gate", ["residual", "interior", "condition", "monitor"])
    def test_a_member_failing_mid_block_ends_before_that_step(self, monkeypatch, gate, strict):
        # The middle member fails one check, or breaches a monitor, at step
        # 45, the 13th step of its second 32-step block (B n = 18); the
        # others run on to their cap.
        monkeypatch.setattr(solver_module, "_CHUNK", 576)
        cfg = SolverConfig(epsilon=1e-14, max_iterations=70, strict_monitors=strict)
        target = tiny_x(generate_instance(6, 3, "linear", 62))
        problems = [generate_instance(6, 3, "quadratic", 61), target,
                    generate_instance(6, 3, "linear", 63)]
        clean = [solve(target, dataclasses.replace(cfg, max_iterations=cap)) for cap in (44, 45)]
        gaps = clean[1].trace.gap
        self.trip(monkeypatch, gate, target, 0.5 * (gaps[42] + gaps[43]))
        results = solve_many(problems, cfg)
        ends = "iteration_cap" if gate == "monitor" and not strict else "numerical_failure"
        assert [res.status for res in results] == ["iteration_cap", ends, "iteration_cap"]
        for p, got in zip(problems, results):
            want = solve(p, cfg)
            assert_same_result(got, want)
            for name in ("condition", "step_residual"):
                assert getattr(got.trace, name).tobytes() == getattr(want.trace, name).tobytes()
        if gate == "monitor":
            if not strict:  # the breach is counted at every step from 45 on
                assert results[1].iterations == 70
                assert results[1].monitor_violations == 26
                return
            # Under strict monitors it ends on the iterate after step 45,
            # with that step's row and mu: as a run capped at 45 steps ends,
            # but for its status and the breach.
            assert results[1].iterations == 45
            assert not results[1].trace.eq111_ok[44]
            assert results[1].trace[:44].tobytes() == clean[1].trace[:44].tobytes()
            for name in solver_module._TRACE_ROW.names:
                if name not in ("dxTdz", "eq111_ok", "worst_margin"):
                    got, want = getattr(results[1].trace, name), getattr(clean[1].trace, name)
                    assert got.tobytes() == want.tobytes()
            after = dataclasses.replace(clean[1], status="numerical_failure",
                                        trace=results[1].trace, monitor_violations=1)
            assert_same_result(results[1], after)
            return
        # It ends on the iterate before step 45, with that step's mu: as a
        # run capped at 44 steps ends, but for its status and mu.
        assert results[1].iterations == 44
        before = dataclasses.replace(
            clean[0], status="numerical_failure", mu_final=clean[1].mu_final
        )
        assert_same_result(results[1], before)
        assert results[1].trace.condition.tobytes() == clean[0].trace.condition.tobytes()


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

    def test_problem_without_constraints_raises(self):
        # A raw, unvalidated m = 0 problem with an interior start: the loop
        # and the public step reject it through one check.
        x0, y0, z0 = np.ones(3), np.zeros(0), np.ones(3)
        p = Problem(
            A=np.zeros((0, 3)),
            b=np.zeros(0),
            objective=ObjectiveSpec.linear([1.0, 1.0, 1.0]),
            start=StartPoint(x0=x0, y0=y0, z0=z0),
        )
        state = IterateState.from_point(x0, y0, z0, 1.0)
        for run in (lambda: solve(p), lambda: solve_many([p, p]), lambda: newton_step(p, state, 1)):
            with pytest.raises(ValueError, match="m >= 1"):
                run()

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
        assert len(result.trace) == 0
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
        assert len(result.trace) == 0
        assert np.array_equal(result.x, [1.0, 1.0])

    def test_non_finite_iterate_fails_numerically(self, monkeypatch):
        # NaN compares false with everything, so the interior check after
        # a step must be phrased to reject it.
        step_fn = solver_module._newton_step

        def poisoned(*args):
            dx, dy, dz, h_dx = step_fn(*args)
            dz = np.array(dz)
            dz[:, 0] = math.nan
            return dx, dy, dz, h_dx

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
        first = result.trace[0]
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
    """The per-field formatter trace_to_csv replaced, kept as its reference."""

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
                    *(
                        "1" if getattr(record, name + "_ok") else "0"
                        for name in ("lemma2", "lemma4", "lemma5", "eq111", "eq112", "eq115")
                    ),
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
        rows = solver_module._join([solved.trace[:9], result.trace]).copy()
        names = ("mu", "gap", "gamma", "min_w", "norm_pw", "norm_qw", "dxTdz", "primal_res",
                 "dual_res")
        for j, name in enumerate(names):
            rows[name] = [odd[(k + j) % 9] for k in range(len(rows))]
        for trace in (rows, solved.trace, result.trace, solver_module._join([])):
            assert trace_to_csv(trace) == old_trace_to_csv(trace)
