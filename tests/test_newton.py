"""Step equations: assembly, factorization, and solve accuracy.

The small hand instance is graded against a dense np.linalg.solve of the
full saddle system, which is an independent path around the package's
equilibrated LU factorization.
"""

import math
import warnings

import numpy as np
import pytest

from lcco_ipm import (
    InteriorError,
    IterateState,
    NumericalError,
    ObjectiveSpec,
    Problem,
    assemble_and_factor,
    generate_instance,
    newton_rhs,
    newton_step,
)


def hand_problem():
    # min x1 + x2  s.t.  x1 + x2 = 2, x >= 0, started at the analytic center.
    return Problem(
        A=[[1.0, 1.0]],
        b=[2.0],
        objective=ObjectiveSpec.linear([1.0, 1.0]),
    ).validate()


def dense_reference_step(p, state, mu, r):
    """Solve the same saddle system with a dense generic solver."""
    n, m = p.n, p.m
    h = newton_rhs(state, mu, r)
    hessian = p.objective.evaluate(state.x)[2]
    top = hessian + np.diag(state.z / state.x)
    kkt = np.block([[top, p.A.T], [p.A, np.zeros((m, m))]])
    rhs = np.concatenate([h / state.x, np.zeros(m)])
    solution = np.linalg.solve(kkt, rhs)
    dx = solution[:n]
    dy = -solution[n:]
    dz = (h - state.z * dx) / state.x
    return dx, dy, dz


class TestNewtonRhs:
    def test_zero_exactly_on_the_center(self):
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        for r in (1, 2, 3):
            assert np.array_equal(newton_rhs(state, 1.0, r), [0.0, 0.0])

    def test_power_of_two_examples_are_exact(self):
        # x z / mu = 4 gives w = 2 componentwise; exact in binary.
        state = IterateState.from_point([1.0], [0.0], [1.0], 1.0)
        assert np.array_equal(newton_rhs(state, 0.25, 1), [-1.0])
        assert np.array_equal(newton_rhs(state, 0.25, 2), [-0.75])
        state = IterateState.from_point([1.0, 4.0], [0.0], [1.0, 1.0], 1.0)
        assert np.array_equal(newton_rhs(state, 1.0, 1), [0.0, -4.0])
        assert np.array_equal(newton_rhs(state, 1.0, 2), [0.0, -3.0])

    def test_uses_the_given_barrier_value_not_the_stored_one(self):
        state = IterateState.from_point([1.0], [0.0], [1.0], 1.0)
        assert np.array_equal(newton_rhs(state, 1.0, 1), [0.0])
        assert newton_rhs(state, 0.25, 1)[0] != 0.0


class TestHandInstance:
    def test_matches_a_dense_solve_to_twelve_digits(self):
        p = hand_problem()
        mu = 0.9
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        for r in (1, 2, 3):
            step = newton_step(p, state, mu, r)
            dx, dy, dz = dense_reference_step(p, state, mu, r)
            assert np.linalg.norm(step.dx_full - dx) <= 1e-12
            assert np.linalg.norm(step.dy_full - dy) <= 1e-12
            assert np.linalg.norm(step.dz_full - dz) <= 1e-12

    def test_closed_form_for_the_symmetric_start(self):
        # Both coordinates match, so dx = 0 and the step is purely dual:
        # dz = h, dy = -h1.  h = mu w p(w) with w = sqrt(1/mu).
        p = hand_problem()
        mu = 0.9
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        step = newton_step(p, state, mu, 1)
        w = math.sqrt(1.0 / mu)
        h = mu * w * (2.0 - 2.0 * w)
        assert np.linalg.norm(step.dx_full) <= 1e-16
        assert step.dz_full == pytest.approx([h, h], rel=1e-14)
        assert step.dy_full == pytest.approx([-h], rel=1e-14)

    def test_center_step_is_exactly_zero(self):
        p = hand_problem()
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        step = newton_step(p, state, 1.0, 1)
        assert np.array_equal(step.dx_full, [0.0, 0.0])
        assert np.array_equal(step.dy_full, [0.0])
        assert np.array_equal(step.dz_full, [0.0, 0.0])
        assert step.residual == 0.0


class TestFactorization:
    def test_factors_reproduce_the_assembled_matrix(self):
        p = generate_instance(8, 4, "quadratic", 21)
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, 1.0)
        factorization = assemble_and_factor(p, state)
        identity = np.eye(factorization.matrix.shape[0])
        inverse = np.column_stack([factorization.solve(e) for e in identity])
        scale = np.abs(factorization.matrix).max()
        assert np.abs(factorization.matrix @ inverse - identity).max() <= 1e-10 * scale

    def test_solve_matches_a_dense_solver(self):
        p = generate_instance(8, 4, "quadratic", 22)
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, 1.0)
        factorization = assemble_and_factor(p, state)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(12)
        got = factorization.solve(rhs)
        want = np.linalg.solve(factorization.matrix, rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_condition_estimate_is_modest_at_the_start(self):
        p = generate_instance(10, 5, "linear", 23)
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, 1.0)
        factorization = assemble_and_factor(p, state)
        assert 1.0 <= factorization.condition_estimate < 1e8

    def test_dependent_rows_raise(self):
        p = Problem(
            A=[[1.0, 1.0], [1.0, 1.0]],
            b=[2.0, 2.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
        )
        state = IterateState.from_point([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
        with pytest.raises(NumericalError):
            assemble_and_factor(p, state)

    def test_exactly_singular_system_raises_without_a_warning(self):
        # Identical rows of A leave an exact zero pivot in the LU factors.
        p = Problem(
            A=[[1.0, 1.0], [1.0, 1.0]],
            b=[2.0, 2.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
        )
        state = IterateState.from_point([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="singular"):
                assemble_and_factor(p, state)

    def test_nearly_dependent_rows_raise_on_the_condition_estimate(self):
        p = Problem(
            A=[[1.0, 1.0], [1.0, 1.0 + 1e-9]],
            b=[2.0, 2.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
        )
        state = IterateState.from_point([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
        with pytest.raises(NumericalError, match="condition estimate"):
            assemble_and_factor(p, state)

    def test_boundary_iterate_raises(self):
        p = hand_problem()
        state = IterateState(
            x=np.array([1.0, 0.0]),
            y=np.array([0.0]),
            z=np.array([1.0, 1.0]),
            mu=1.0,
            w=np.array([1.0, 0.0]),
        )
        with pytest.raises(InteriorError):
            assemble_and_factor(p, state)

    def test_dimension_mismatch_raises(self):
        p = generate_instance(4, 2, "linear", 1)
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            assemble_and_factor(p, state)


class TestNewtonStep:
    def test_step_equations_hold_to_working_accuracy(self):
        for kind in ("linear", "quadratic"):
            p = generate_instance(10, 5, kind, 31)
            mu = 0.9
            state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, mu)
            step = newton_step(p, state, mu, 2)
            h = newton_rhs(state, mu, 2)
            hessian = p.objective.evaluate(state.x)[2]
            primal = np.linalg.norm(p.A @ step.dx_full)
            dual = np.linalg.norm(
                hessian @ step.dx_full
                - p.A.T @ step.dy_full
                - step.dz_full
            )
            comp = np.linalg.norm(
                state.z * step.dx_full + state.x * step.dz_full - h
            )
            assert primal <= 1e-12
            assert dual <= 1e-12
            assert comp <= 1e-12
            assert 0.0 <= step.residual <= 1e-12

    def test_energy_identity(self):
        # A dx = 0 makes dx' (H + Z/X) dx equal dx' (h/x).
        p = generate_instance(10, 5, "quadratic", 32)
        mu = 0.8
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, mu)
        step = newton_step(p, state, mu, 1)
        h = newton_rhs(state, mu, 1)
        hessian = p.objective.evaluate(state.x)[2]
        m_matrix = hessian + np.diag(state.z / state.x)
        left = float(step.dx_full @ (m_matrix @ step.dx_full))
        right = float(step.dx_full @ (h / state.x))
        assert left == pytest.approx(right, abs=1e-9 * (1.0 + abs(right)))

    def test_is_bitwise_deterministic(self):
        p = generate_instance(8, 4, "quadratic", 33)
        mu = 0.85
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, mu)
        a = newton_step(p, state, mu, 3)
        b = newton_step(p, state, mu, 3)
        assert np.array_equal(a.dx_full, b.dx_full)
        assert np.array_equal(a.dy_full, b.dy_full)
        assert np.array_equal(a.dz_full, b.dz_full)
        assert a.residual == b.residual
