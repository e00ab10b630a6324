"""Step equations: assembly, inversion, grading, and solve accuracy.

The small hand instance and two n = 8 quadratic ones are graded against a
dense np.linalg.solve of the full saddle system, which is an independent
path around the package's null-space inverse.  The condition that gates
each step is checked against np.linalg.cond and LAPACK's gecon estimate.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgecon, dgetrf

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
        # must equal.  The grade of a full-rank member has the bits of one
        # SVD of its R.  A member with a zero row, dependent, sits in the
        # stack; it gets no pseudo-inverse and is graded singular.  So does
        # one with a NaN entry, graded NaN.  The last member has cond(A) =
        # 1.0204 where m > 1, whose square by one multiply differs in the
        # last bit from libm pow's (x86-64 glibc); a scalar's ** takes pow.
        # Its R is diagonal, where gesv and trtrs give zeros of either sign.
        problems = [generate_instance(n, m, "quadratic", seed) for seed in (1, 2, 3)]
        dependent = problems[0].A.copy()
        dependent[0] = 0.0
        broken = problems[1].A.copy()
        broken[-1, 0] = math.nan
        diagonal = np.eye(m, n)
        diagonal[0, 0] = 1.0204
        A = np.array([problems[0].A, dependent, problems[1].A, problems[2].A, broken, diagonal])
        hessian = np.array([p.objective.Q for p in (problems[0], *problems, *problems[1:])])
        _, projector, _, grade = newton._null_space(A, hessian)
        q, r = np.linalg.qr(A.transpose(0, 2, 1), mode="complete")
        for b in (0, 2, 3):
            want = solve_triangular(r[b, :m], q[b, :, :m].T)
            assert projector[b, n - m:].tobytes() == want.tobytes()
        for b in (0, 2, 3, 5):
            s = np.linalg.svd(r[b, :m], compute_uv=False)
            assert grade[b].tobytes() == ((s[0] / s[-1]) ** 2).tobytes()
        assert grade[1] == math.inf
        assert math.isnan(grade[4])
        assert not projector[[1, 4], n - m:].any()

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

    @pytest.mark.parametrize("seed", [51, 52])
    def test_condition_is_the_exact_one_norm_condition(self, seed):
        # x and z spread over e^10, so the equilibrated G, not cond(A)^2,
        # sets the condition.  gecon only estimates the same quantity from
        # below, so the gate is never looser than one graded by gecon.
        p = generate_instance(10, 4, "quadratic", seed)
        rng = np.random.default_rng(seed)
        x, z = np.exp(rng.uniform(-5.0, 5.0, (2, 10)))
        step = newton_step(p, IterateState.from_point(x, p.start.y0, z, 1.0), 1)
        basis, _, reduced, grade = newton._null_space(p.A[np.newaxis], p.objective.Q[np.newaxis])
        null = basis[0, :10]
        G = reduced[0] + null.T @ np.diag(z / x) @ null
        scale = 1.0 / np.sqrt(np.abs(G).max(axis=1))
        equilibrated = scale[:, np.newaxis] * G * scale
        exact = np.linalg.cond(equilibrated, 1)
        assert grade[0] < exact
        assert step.condition == pytest.approx(exact, rel=1e-12)
        lu, _, info = dgetrf(equilibrated)
        rcond, info_con = dgecon(lu, np.abs(equilibrated).sum(axis=0).max())
        assert info == info_con == 0
        assert step.condition >= (1.0 - 1e-12) / rcond

    def test_an_exactly_singular_member_leaves_the_others_bit_identical(self):
        # With H = 0 and z = 0, G is exactly zero, so the stacked inverse
        # fails and the others are inverted in one call.  The singular one
        # gets an infinite condition, a NaN inverse and an infinite
        # residual; the others keep the bits of their solo `_factor` calls.
        problems = [generate_instance(8, 4, "linear", seed) for seed in (41, 42, 43)]
        A = np.array([p.A for p in problems])
        hessian = np.zeros((3, 8, 8))
        x, z = (np.array([getattr(p.start, key) for p in problems]) for key in ("x0", "z0"))
        z[1] = 0.0
        space = newton._null_space(A, hessian)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inverse, conditions = newton._factor(*space, x, z)
            step = newton._newton_step(*space[:2], x, z, 0.1 * x, inverse)
            residual = newton._verify(x, z, 0.1 * x, *step, A)[1]
        assert conditions[1] == math.inf > SINGULAR_CONDITION
        assert np.isnan(inverse[1]).all()
        assert residual[1] == math.inf
        for b in (0, 2):
            solo = newton._null_space(A[b : b + 1], hessian[b : b + 1])
            solo_inverse, (solo_condition,) = newton._factor(*solo, x[b : b + 1], z[b : b + 1])
            assert inverse[b].tobytes() == solo_inverse[0].tobytes()
            assert conditions[b] == solo_condition
            assert residual[b] < 1e-12

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
        # Identical rows of A give R an exact zero on its diagonal.
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

    def test_exactly_singular_reduced_matrix_raises_on_its_zero_pivot(self):
        # With H = -I at x = z = 1, N'HN = -N'N cancels N' diag(z/x) N
        # exactly, so G = 0 and its LU has an exact zero pivot.
        p = Problem(
            A=[[1.0, 1.0]],
            b=[2.0],
            objective=ObjectiveSpec("quadratic", c=[0.0, 0.0], Q=-np.eye(2)),
        )
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"singular \(G has an exact zero pivot\)"):
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
