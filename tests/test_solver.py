"""Main-loop behavior: bounds, statuses, traces, and monitor wiring."""

import math

import numpy as np
import pytest

from lcco_ipm import (
    AUTO,
    TRACE_HEADER,
    ObjectiveSpec,
    Problem,
    SolverConfig,
    StartPoint,
    default_theta,
    gamma_threshold,
    generate_instance,
    iteration_bound,
    solve,
    trace_to_csv,
)


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
        assert cfg.resolved_gamma() == gamma_threshold(2)
        assert cfg.resolved_max_iterations(100) == 1000

    def test_explicit_values_pass_through(self):
        cfg = SolverConfig(theta=0.01, gamma=0.2, max_iterations=7)
        assert cfg.resolved_theta(4) == 0.01
        assert cfg.resolved_gamma() == 0.2
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
        with pytest.raises(ValueError):
            SolverConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)


class TestConvergedRuns:
    def test_reference_run_regression_anchor(self):
        # Deterministic end to end; these literals are frozen outputs of
        # the LU step solver.  The approx asserts pin the answer of the
        # earlier LDL' solver, which differed only in the last digits.
        p = generate_instance(4, 2, "linear", 7)
        result = solve(p, SolverConfig(epsilon=1e-6, r=1))
        gamma_max = max(rec.gamma for rec in result.trace)
        assert result.status == "converged"
        assert result.iterations == 217
        assert result.bound == 225
        assert result.gap_final == 9.962801229252331e-07
        assert gamma_max == 0.002247196997541033
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

    def test_proximity_override_tightens_admission(self):
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
        tight_run = solve(shifted, SolverConfig(epsilon=1e-4, gamma=1e-4))
        assert tight_run.status == "invalid_start"


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
        assert trace_to_csv(()) == TRACE_HEADER + "\n"
