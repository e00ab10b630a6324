"""Independent optimum oracles and candidate-point grading.

scipy.optimize.linprog (HiGHS) serves as a second, unrelated LP solver to
cross-check the enumeration oracle; the quadratic oracle is checked by
reconstructing dual multipliers at its answer and verifying the full
optimality system.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from lcco_ipm import (
    DegenerateError,
    InfeasibleError,
    ObjectiveSpec,
    Problem,
    SolverConfig,
    UnboundedError,
    generate_instance,
    kkt_residuals,
    reference_solve_lp,
    reference_solve_qp,
    solve,
)


def lp(A, b, c):
    return Problem(A=A, b=b, objective=ObjectiveSpec.linear(c))


def qp(A, b, c, Q):
    return Problem(A=A, b=b, objective=ObjectiveSpec.quadratic(c, Q))


class TestKktResiduals:
    def test_generated_start_scores_cleanly(self):
        p = generate_instance(6, 3, "quadratic", 17)
        s = p.start
        res = kkt_residuals(p, s.x0, s.y0, s.z0)
        assert res.primal == 0.0
        assert res.dual <= 1e-12
        assert res.complementarity == 6.0
        assert res.min_x == 1.0
        assert res.min_z == 1.0

    def test_boundary_candidate(self):
        p = generate_instance(4, 2, "linear", 17)
        zero = np.zeros(4)
        res = kkt_residuals(p, zero, np.zeros(2), zero)
        assert res.primal == pytest.approx(float(np.linalg.norm(p.b)))
        assert res.complementarity == 0.0
        assert res.min_x == 0.0

    def test_dimension_mismatch_raises(self):
        p = generate_instance(4, 2, "linear", 17)
        with pytest.raises(ValueError):
            kkt_residuals(p, np.ones(3), np.zeros(2), np.ones(4))


class TestLpOracle:
    def test_two_variable_vertex(self):
        sol = reference_solve_lp(lp([[1.0, 1.0]], [2.0], [1.0, 2.0]))
        assert np.array_equal(sol.x_star, [2.0, 0.0])
        assert sol.objective_star == 2.0
        assert sol.method == "vertex_enumeration"

    def test_tie_resolves_to_the_first_basis(self):
        sol = reference_solve_lp(lp([[1.0, 1.0]], [2.0], [1.0, 1.0]))
        assert np.array_equal(sol.x_star, [2.0, 0.0])
        assert sol.objective_star == 2.0

    def test_certificate_names_the_basis(self):
        sol = reference_solve_lp(lp([[1.0, 1.0]], [2.0], [2.0, 1.0]))
        assert np.array_equal(sol.x_star, [0.0, 2.0])
        assert any("1" in c for c in sol.certificates)

    def test_unbounded_ray_is_detected(self):
        with pytest.raises(UnboundedError):
            reference_solve_lp(lp([[1.0, -1.0]], [1.0], [-1.0, 0.0]))

    def test_infeasible_orthant_is_detected(self):
        with pytest.raises(InfeasibleError):
            reference_solve_lp(lp([[1.0, 1.0]], [-1.0], [1.0, 1.0]))

    def test_size_and_kind_guards(self):
        with pytest.raises(ValueError):
            reference_solve_lp(generate_instance(13, 6, "linear", 1))
        with pytest.raises(ValueError):
            reference_solve_lp(generate_instance(4, 2, "quadratic", 1))

    def test_agrees_with_an_unrelated_simplex_code(self):
        for seed in (1, 2, 3, 4, 5):
            p = generate_instance(6, 3, "linear", seed)
            sol = reference_solve_lp(p)
            hi = linprog(
                p.objective.c,
                A_eq=p.A,
                b_eq=p.b,
                bounds=[(0.0, None)] * p.n,
                method="highs",
            )
            assert hi.status == 0
            assert sol.objective_star == pytest.approx(hi.fun, abs=1e-9)
            assert float(np.linalg.norm(p.A @ sol.x_star - p.b)) <= 1e-9
            assert sol.x_star.min() >= -1e-10


class TestQpOracle:
    def test_interior_optimum(self):
        sol = reference_solve_qp(
            qp([[1.0, 1.0]], [2.0], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        )
        assert np.array_equal(sol.x_star, [1.0, 1.0])
        assert sol.objective_star == 1.0
        assert sol.method == "active_set_enumeration"

    def test_bound_becomes_active(self):
        sol = reference_solve_qp(
            qp([[1.0, 1.0]], [2.0], [-2.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        )
        assert np.array_equal(sol.x_star, [2.0, 0.0])
        assert sol.objective_star == -2.0
        assert any("1" in c for c in sol.certificates)

    def test_zero_curvature_matches_the_lp_oracle(self):
        for seed in (1, 2, 3):
            base = generate_instance(5, 2, "linear", seed)
            as_qp = Problem(
                A=base.A,
                b=base.b,
                objective=ObjectiveSpec.quadratic(
                    base.objective.c, np.zeros((5, 5))
                ),
            )
            lp_sol = reference_solve_lp(base)
            qp_sol = reference_solve_qp(as_qp)
            assert qp_sol.objective_star == pytest.approx(
                lp_sol.objective_star, abs=1e-9
            )

    def test_flat_unbounded_face_is_reported_not_guessed(self):
        with pytest.raises(DegenerateError):
            reference_solve_qp(
                qp([[1.0, -1.0]], [0.0], [-1.0, -1.0], np.zeros((2, 2)))
            )

    def test_infeasible_orthant_is_detected(self):
        with pytest.raises(InfeasibleError):
            reference_solve_qp(
                qp([[1.0, 1.0]], [-1.0], [0.0, 0.0], np.eye(2))
            )

    def test_size_and_kind_guards(self):
        with pytest.raises(ValueError):
            reference_solve_qp(generate_instance(11, 5, "quadratic", 1))
        with pytest.raises(ValueError):
            reference_solve_qp(generate_instance(4, 2, "linear", 1))

    def test_answer_satisfies_the_full_optimality_system(self):
        # Rebuild multipliers from the free rows; the pinned slack must be
        # nonnegative and complementarity exact at the reported point.
        for seed in (1, 2, 3, 4, 5):
            p = generate_instance(6, 3, "quadratic", seed)
            sol = reference_solve_qp(p)
            x = sol.x_star
            gradient = p.objective.evaluate(x)[1]
            free = x > 1e-8
            y, *_ = np.linalg.lstsq(p.A.T[free], gradient[free], rcond=None)
            slack = gradient - p.A.T @ y
            assert float(np.linalg.norm(p.A @ x - p.b)) <= 1e-9
            assert x.min() >= -1e-10
            assert slack.min() >= -1e-7
            assert abs(float(slack @ x)) <= 1e-7


class TestOracleAgainstTheSolver:
    def test_interior_point_reaches_the_enumerated_optimum(self):
        p = generate_instance(6, 3, "linear", 7)
        result = solve(p, SolverConfig(epsilon=1e-6))
        assert result.status == "converged"
        sol = reference_solve_lp(p)
        got = p.objective.evaluate(result.x)[0]
        assert abs(got - sol.objective_star) <= 1e-5 * (
            1.0 + abs(sol.objective_star)
        )


class TestAboveTheOracleCaps:
    """Answers at sizes the enumeration oracles refuse, checked another way."""

    @pytest.mark.parametrize("n", [50, 200])
    def test_lp_objective_matches_highs(self, n):
        p = generate_instance(n, n // 2, "linear", 41)
        result = solve(p, SolverConfig(epsilon=1e-6))
        assert result.status == "converged"
        hi = linprog(
            p.objective.c,
            A_eq=p.A,
            b_eq=p.b,
            bounds=[(0.0, None)] * p.n,
            method="highs",
        )
        assert hi.status == 0
        got = p.objective.evaluate(result.x)[0]
        assert abs(got - hi.fun) <= 1e-5 * (1.0 + abs(hi.fun))

    def test_qp_certificate_holds(self):
        # Feasible x and (y, z) with z > 0, dual equation A'y + z = grad f(x),
        # and x'z <= epsilon: x is then within epsilon of the optimum.
        p = generate_instance(50, 25, "quadratic", 42)
        epsilon = 1e-6
        result = solve(p, SolverConfig(epsilon=epsilon))
        assert result.status == "converged"
        x, y, z = result.x, result.y, result.z
        gradient = p.objective.c + p.objective.Q @ x
        assert x.min() > 0.0
        assert z.min() > 0.0
        assert float(x @ z) <= epsilon
        assert np.linalg.norm(p.A @ x - p.b) <= 1e-8 * (1.0 + np.linalg.norm(p.b))
        dual = p.A.T @ y + z - gradient
        assert np.linalg.norm(dual) <= 1e-8 * (1.0 + np.linalg.norm(gradient))
