"""Step equations: assembly, factorization, and solve accuracy.

The small hand instance and two n = 8 quadratic ones are graded against a
dense np.linalg.solve of the full saddle system, which is an independent
path around the package's null-space factorization.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from lcco_ipm import (
    SINGULAR_CONDITION,
    InteriorError,
    IterateState,
    NumericalError,
    ObjectiveSpec,
    Problem,
    generate_instance,
    newton_rhs,
    newton_step,
    p_vector,
)
from lcco_ipm import newton


def hand_problem():
    # min x1 + x2  s.t.  x1 + x2 = 2, x >= 0, started at the analytic center.
    return Problem(
        A=[[1.0, 1.0]],
        b=[2.0],
        objective=ObjectiveSpec.linear([1.0, 1.0]),
    ).validate()


def dense_reference_step(p, state, r):
    """Solve the same saddle system with a dense generic solver."""
    n, m = p.n, p.m
    h = newton_rhs(state, r)
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
            assert np.array_equal(newton_rhs(state, r), [0.0, 0.0])

    def test_power_of_two_examples_are_exact(self):
        # x z / mu = 4 gives w = 2 componentwise; exact in binary.
        state = IterateState.from_point([1.0], [0.0], [1.0], 0.25)
        assert np.array_equal(newton_rhs(state, 1), [-1.0])
        assert np.array_equal(newton_rhs(state, 2), [-0.75])
        state = IterateState.from_point([1.0, 4.0], [0.0], [1.0, 1.0], 1.0)
        assert np.array_equal(newton_rhs(state, 1), [0.0, -4.0])
        assert np.array_equal(newton_rhs(state, 2), [0.0, -3.0])

    def test_aims_at_the_state_barrier_value(self):
        # One point, two states: it is the center for mu = 1 only.
        on_center = IterateState.from_point([1.0], [0.0], [1.0], 1.0)
        assert np.array_equal(newton_rhs(on_center, 1), [0.0])
        off_center = IterateState.from_point([1.0], [0.0], [1.0], 0.25)
        assert newton_rhs(off_center, 1)[0] != 0.0
        assert np.array_equal(
            newton_rhs(off_center, 1),
            off_center.mu * off_center.w * p_vector(off_center.w, 1),
        )


class TestHandInstance:
    def test_matches_a_dense_solve_to_twelve_digits(self):
        p = hand_problem()
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 0.9)
        for r in (1, 2, 3):
            step = newton_step(p, state, r)
            dx, dy, dz = dense_reference_step(p, state, r)
            assert np.linalg.norm(step.dx_full - dx) <= 1e-12
            assert np.linalg.norm(step.dy_full - dy) <= 1e-12
            assert np.linalg.norm(step.dz_full - dz) <= 1e-12

    def test_closed_form_for_the_symmetric_start(self):
        # Both coordinates match, so dx = 0 and the step is purely dual:
        # dz = h, dy = -h1.  h = mu w p(w) with w = sqrt(1/mu).
        p = hand_problem()
        mu = 0.9
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], mu)
        step = newton_step(p, state, 1)
        w = math.sqrt(1.0 / mu)
        h = mu * w * (2.0 - 2.0 * w)
        assert np.linalg.norm(step.dx_full) <= 1e-16
        assert step.dz_full == pytest.approx([h, h], rel=1e-14)
        assert step.dy_full == pytest.approx([-h], rel=1e-14)

    def test_center_step_is_exactly_zero(self):
        p = hand_problem()
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        step = newton_step(p, state, 1)
        assert np.array_equal(step.dx_full, [0.0, 0.0])
        assert np.array_equal(step.dy_full, [0.0])
        assert np.array_equal(step.dz_full, [0.0, 0.0])
        assert step.residual == 0.0


class TestFactorization:
    @pytest.mark.parametrize("n, m", [(2, 1), (4, 2), (10, 5), (12, 1), (50, 25), (50, 49)])
    def test_pseudo_inverse_has_the_bits_of_a_lapack_triangular_solve(self, n, m):
        # `_null_space` solves R X = Y' for all members by one LAPACK gesv,
        # whose LU of a triangular R is R itself; scipy's trsm and trtrs are
        # threaded by OpenBLAS at these sizes and stall for milliseconds.
        # LAPACK trtrs, behind solve_triangular, is the reference its bits
        # must equal.  A member with a zero row, dependent, sits in the
        # stack; it gets no pseudo-inverse and is graded singular.
        problems = [generate_instance(n, m, "quadratic", seed) for seed in (1, 2, 3)]
        dependent = problems[0].A.copy()
        dependent[0] = 0.0
        A = np.array([problems[0].A, dependent, problems[1].A, problems[2].A])
        hessian = np.array([p.objective.Q for p in (problems[0], *problems)])
        _, projector, _, grade = newton._null_space(A, hessian)
        q, r = np.linalg.qr(A.transpose(0, 2, 1), mode="complete")
        for b in (0, 2, 3):
            want = solve_triangular(r[b, :m], q[b, :, :m].T)
            assert projector[b, n - m:].tobytes() == want.tobytes()
        assert grade[1] == math.inf
        assert not projector[1, n - m:].any()

    @pytest.mark.parametrize("seed", [21, 22])
    def test_step_matches_a_dense_solve_at_n_8(self, seed):
        # At mu = 0.9 the start is off its mu-center, so h and the step are nonzero.
        p = generate_instance(8, 4, "quadratic", seed)
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, 0.9)
        for r in (1, 2):
            step = newton_step(p, state, r)
            for got, want in zip(
                (step.dx_full, step.dy_full, step.dz_full), dense_reference_step(p, state, r)
            ):
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_condition_estimate_is_modest_at_the_start(self):
        p = generate_instance(10, 5, "linear", 23)
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, 1.0)
        step = newton_step(p, state, 1)
        assert 1.0 <= step.condition < 1e8

    def test_dependent_rows_raise(self):
        p = Problem(
            A=[[1.0, 1.0], [1.0, 1.0]],
            b=[2.0, 2.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
        )
        state = IterateState.from_point([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
        with pytest.raises(NumericalError):
            newton_step(p, state, 1)

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
                newton_step(p, state, 1)

    def test_nearly_dependent_rows_raise_on_the_condition_estimate(self):
        p = Problem(
            A=[[1.0, 1.0], [1.0, 1.0 + 1e-9]],
            b=[2.0, 2.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
        )
        state = IterateState.from_point([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
        with pytest.raises(NumericalError, match="condition estimate"):
            newton_step(p, state, 1)

    @pytest.mark.parametrize("n, m", [(2, 2), (6, 3), (20, 10)])
    @pytest.mark.parametrize("condition", [1e5, 1e6, 1e8])
    def test_condition_of_a_gates_the_system(self, n, m, condition):
        # A = U diag(s) V' with cond(A) = condition, at the centred start,
        # where the reduced matrix is the identity: only the grade of A,
        # cond(A)^2, can exceed SINGULAR_CONDITION, and it does at 1e8.
        rng = np.random.default_rng(n)
        u = np.linalg.qr(rng.standard_normal((m, m)))[0]
        v = np.linalg.qr(rng.standard_normal((n, m)))[0]
        A = u @ np.diag(np.geomspace(1.0, 1.0 / condition, m)) @ v.T
        p = Problem(A=A, b=A.sum(axis=1), objective=ObjectiveSpec.linear(np.ones(n)))
        state = IterateState.from_point(np.ones(n), np.zeros(m), np.ones(n), 1.0)
        if condition**2 > SINGULAR_CONDITION:
            with pytest.raises(NumericalError, match="condition estimate"):
                newton_step(p, state, 1)
        else:
            step = newton_step(p, state, 1)
            assert step.condition == pytest.approx(condition**2, rel=1e-6)

    def test_non_finite_a_raises(self):
        p = Problem(
            A=[[math.nan, 1.0]],
            b=[2.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
        )
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        with pytest.raises(NumericalError, match="condition estimate"):
            newton_step(p, state, 1)

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
            newton_step(p, state, 1)
        # A cached w that passes its own check still meets the iterate's.
        with pytest.raises(InteriorError, match="not strictly interior"):
            newton_step(p, dataclasses.replace(state, w=np.ones(2)), 1)

    def test_dimension_mismatch_raises(self):
        p = generate_instance(4, 2, "linear", 1)
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            newton_step(p, state, 1)


class TestNewtonStep:
    def test_step_equations_hold_to_working_accuracy(self):
        for kind in ("linear", "quadratic"):
            p = generate_instance(10, 5, kind, 31)
            mu = 0.9
            state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, mu)
            step = newton_step(p, state, 2)
            h = newton_rhs(state, 2)
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
        step = newton_step(p, state, 1)
        h = newton_rhs(state, 1)
        hessian = p.objective.evaluate(state.x)[2]
        m_matrix = hessian + np.diag(state.z / state.x)
        left = float(step.dx_full @ (m_matrix @ step.dx_full))
        right = float(step.dx_full @ (h / state.x))
        assert left == pytest.approx(right, abs=1e-9 * (1.0 + abs(right)))

    def test_evaluates_the_objective_once(self, monkeypatch):
        # The residual gate reuses the Hessian the system was built from.
        p = generate_instance(6, 3, "quadratic", 34)
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, 0.9)
        evaluate = ObjectiveSpec.evaluate
        points = []

        def counting(spec, x):
            points.append(x)
            return evaluate(spec, x)

        monkeypatch.setattr(ObjectiveSpec, "evaluate", counting)
        newton_step(p, state, 1)
        assert len(points) == 1

    def test_is_bitwise_deterministic(self):
        p = generate_instance(8, 4, "quadratic", 33)
        mu = 0.85
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, mu)
        a = newton_step(p, state, 3)
        b = newton_step(p, state, 3)
        assert np.array_equal(a.dx_full, b.dx_full)
        assert np.array_equal(a.dy_full, b.dy_full)
        assert np.array_equal(a.dz_full, b.dz_full)
        assert a.residual == b.residual
