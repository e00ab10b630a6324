"""Independent optimum oracles and candidate-point grading.

scipy.optimize.linprog (HiGHS) serves as a second, unrelated LP solver to
cross-check the enumeration oracle; the quadratic oracle is checked by
reconstructing dual multipliers at its answer and verifying the full
optimality system.  The stacked oracles are checked bit for bit against
the one-subset-at-a-time walk they replace, kept here as `_walk_lp` and
`_walk_qp`.
"""

import ast
import functools
import itertools
import math
from pathlib import Path

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
from lcco_ipm import verifier
from lcco_ipm.verifier import (
    _FEASIBILITY_TOL,
    _RAY_TOL,
    _REDUCED_COST_TOL,
    _SOLVE_RTOL,
    LP_SIZE_LIMIT,
    QP_SIZE_LIMIT,
    ReferenceSolution,
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


# The per-subset walk the stacked oracles replaced, kept verbatim as the
# reference for their answers, tie rule, unbounded ray and error messages.


def _walk_lp(p: Problem) -> ReferenceSolution:
    if p.objective.kind != "linear":
        raise ValueError("reference_solve_lp requires a linear objective")
    n, m = p.n, p.m
    if n > LP_SIZE_LIMIT:
        raise ValueError(f"vertex enumeration is limited to n <= {LP_SIZE_LIMIT}")
    c = p.objective.c
    b_scale = 1.0 + float(np.linalg.norm(p.b))
    best_objective = math.inf
    best_x = None
    best_columns = None
    feasible_found = False
    for columns in itertools.combinations(range(n), m):
        picked = np.array(columns)
        basis = p.A[:, picked]
        try:
            x_basic = np.linalg.solve(basis, p.b)
        except np.linalg.LinAlgError:
            continue
        if float(np.linalg.norm(basis @ x_basic - p.b)) > _SOLVE_RTOL * b_scale:
            continue
        if float(x_basic.min()) < -_FEASIBILITY_TOL:
            continue
        feasible_found = True
        multipliers = np.linalg.solve(basis.T, c[picked])
        for j in range(n):
            if j in columns:
                continue
            reduced_cost = float(c[j] - p.A[:, j] @ multipliers)
            if reduced_cost < -_REDUCED_COST_TOL:
                direction = np.linalg.solve(basis, p.A[:, j])
                if float(direction.max()) <= _RAY_TOL:
                    raise UnboundedError(
                        f"objective decreases without bound along column {j} "
                        f"from basis {columns}"
                    )
        x = np.zeros(n)
        x[picked] = np.maximum(x_basic, 0.0)
        objective = float(c @ x)
        if objective < best_objective:
            best_objective = objective
            best_x = x
            best_columns = columns
    if best_x is None:
        raise InfeasibleError("no feasible basic solution exists")
    assert feasible_found
    best_x.setflags(write=False)
    return ReferenceSolution(
        x_star=best_x,
        objective_star=best_objective,
        method="vertex_enumeration",
        certificates=f"basis columns {best_columns}",
    )


def _walk_qp(p: Problem) -> ReferenceSolution:
    if p.objective.kind != "quadratic":
        raise ValueError("reference_solve_qp requires a quadratic objective")
    n, m = p.n, p.m
    if n > QP_SIZE_LIMIT:
        raise ValueError(f"active-set enumeration is limited to n <= {QP_SIZE_LIMIT}")
    q = p.objective.Q
    c = p.objective.c
    best_objective = math.inf
    best_x = None
    best_pinned = None
    feasible_found = False
    for size in range(n + 1):
        for pinned in itertools.combinations(range(n), size):
            free = np.array([j for j in range(n) if j not in pinned], dtype=int)
            k = free.shape[0]
            kkt = np.zeros((k + m, k + m))
            kkt[:k, :k] = q[np.ix_(free, free)]
            kkt[:k, k:] = p.A[:, free].T
            kkt[k:, :k] = p.A[:, free]
            rhs = np.concatenate([-c[free], p.b])
            try:
                solution = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            scale = 1.0 + float(np.linalg.norm(rhs))
            if float(np.linalg.norm(kkt @ solution - rhs)) > _SOLVE_RTOL * scale:
                continue
            x_free = solution[:k]
            multipliers = solution[k:]
            if k and float(x_free.min()) < -_FEASIBILITY_TOL:
                continue
            feasible_found = True
            x = np.zeros(n)
            x[free] = np.maximum(x_free, 0.0)
            if pinned:
                reduced = (q @ x + c + p.A.T @ multipliers)[list(pinned)]
                if float(reduced.min()) < -_REDUCED_COST_TOL:
                    continue
            objective = float(c @ x) + 0.5 * float(x @ (q @ x))
            if objective < best_objective:
                best_objective = objective
                best_x = x
                best_pinned = pinned
    if best_x is None:
        if feasible_found:
            raise DegenerateError(
                "feasible candidates exist but none passed the sign certificate; "
                "Q is likely singular on the optimal face"
            )
        raise InfeasibleError("no feasible active-set candidate exists")
    best_x.setflags(write=False)
    return ReferenceSolution(
        x_star=best_x,
        objective_star=best_objective,
        method="active_set_enumeration",
        certificates=f"pinned variables {best_pinned}",
    )


def _outcome(solve_reference, p):
    """Everything a caller can observe of one oracle call."""
    try:
        sol = solve_reference(p)
    except Exception as exc:
        return type(exc), str(exc)
    return sol.x_star.tobytes(), repr(sol.objective_star), sol.method, sol.certificates


# n = 2..8 at every m, plus the benchmark's `cli` instances at the caps.
GENERATED = [
    (kind, n, m, seed)
    for n in range(2, 9)
    for m in range(1, n)
    for seed in (1, 2, 3)
    for kind in ("linear", "quadratic")
] + [("quadratic", 10, 5, seed) for seed in (1, 2)] + [
    ("linear", 12, 6, seed) for seed in (1, 2)
]

EDGE_CASES = {
    # Columns 0 and 1 coincide, so basis (0, 1) is exactly singular.
    "duplicate_columns_lp": lp(
        [[1.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 1.0]], [2.0, 1.0], [1.0, 1.5, 3.0, 0.5]
    ),
    "duplicate_columns_qp": qp(
        [[1.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
        [2.0, 1.0],
        [1.0, -1.0, 0.0, 0.5],
        np.eye(4),
    ),
    # Basis (0, 1) passes its LU, but its transpose meets an exact zero
    # pivot (1.5 - 0.3 * 5 rounds to nonzero, 1.5 - 0.5 * 3 does not), so
    # the multiplier solve raises LinAlgError.
    "singular_transpose_lp": lp(
        [[10.0, 5.0, 1.0], [3.0, 1.5, 1.0]], [15.0, 4.5], [1.0, 1.0, 1.0]
    ),
    # Basis (0, 1) has a ray along column 4, found before basis (2, 3),
    # which is the singular transpose above, fails its multiplier solve.
    "ray_before_singular_transpose_lp": lp(
        [[1.0, 0.0, 10.0, 5.0, -1.0], [0.0, 1.0, 3.0, 1.5, -1.0]],
        [15.0, 4.5],
        [0.0, 0.0, 1.0, 1.0, -1.0],
    ),
    # Feasible bases (0,)..(7,) have negative reduced costs but no ray;
    # (8,) is the first with one (columns 9 and 10), and (11,) has one too.
    "unbounded_lp": lp(
        [[1.0] * 9 + [-1.0, -1.0, 2.0]],
        [1.0],
        [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0, -0.5, -0.5, -10.0],
    ),
    "infeasible_lp": lp([[1.0, 1.0]], [-1.0], [1.0, 1.0]),
    # Every basis ties; the first one must win.
    "all_tied_lp": lp([[1.0] * 9], [2.0], [1.0] * 9),
    "degenerate_qp": qp([[1.0, -1.0]], [0.0], [-1.0, -1.0], np.zeros((2, 2))),
    "infeasible_qp": qp([[1.0, 1.0]], [-1.0], [0.0, 0.0], np.eye(2)),
}


def _oracles(p):
    if p.objective.kind == "linear":
        return _walk_lp, reference_solve_lp
    return _walk_qp, reference_solve_qp


@functools.cache
def _generated(key):
    kind, n, m, seed = key
    return generate_instance(n, m, kind, seed)


@functools.cache
def _expected(key):
    p = _generated(key) if isinstance(key, tuple) else EDGE_CASES[key]
    return _outcome(_oracles(p)[0], p)


class TestStackedWalk:
    """The stacked oracles give the per-subset walk's outcome, bit for bit."""

    def test_generated_instances(self):
        for key in GENERATED:
            p = _generated(key)
            assert _outcome(_oracles(p)[1], p) == _expected(key), key

    def test_edge_cases(self):
        for name, p in EDGE_CASES.items():
            assert _outcome(_oracles(p)[1], p) == _expected(name), name

    def test_all_nan_objectives_are_infeasible(self):
        # Basis (0, 1) alone is feasible, and its objective 1e309 - 1e309
        # is NaN, which never beats inf.
        p = lp([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], [10.0, 10.0], [1e308, -1e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            want = _outcome(_walk_lp, p)
            assert _outcome(reference_solve_lp, p) == want
        assert want == (InfeasibleError, "no feasible basic solution exists")

    def test_one_stack_per_walk_or_pinned_set_size(self, monkeypatch):
        stacks = []
        nonsingular = verifier._nonsingular

        def counting(stack):
            stacks.append(stack.shape)
            return nonsingular(stack)

        monkeypatch.setattr(verifier, "_nonsingular", counting)
        reference_solve_lp(_generated(("linear", 12, 6, 1)))
        assert stacks == [(math.comb(12, 6), 6, 6)]
        stacks.clear()
        reference_solve_qp(_generated(("quadratic", 10, 5, 1)))
        assert [shape[0] for shape in stacks] == [math.comb(10, size) for size in range(11)]

    def test_row_norms_are_the_bits_of_a_one_row_norm(self):
        # Residual norms meet tolerances, so a pairwise sum (as in
        # norm(..., axis=-1)) could flip a verdict the walk would not.
        rng = np.random.default_rng(5)
        for width in range(1, 41):
            rows = rng.standard_normal((6, width)) * 10.0 ** rng.integers(-8, 8, (6, 1))
            got = verifier._row_norms(rows)
            assert [float(v) for v in got] == [float(np.linalg.norm(r)) for r in rows]

    def test_edge_cases_reach_their_branches(self):
        outcomes = {name: _expected(name) for name in EDGE_CASES}
        assert outcomes["singular_transpose_lp"] == (
            np.linalg.LinAlgError, "Singular matrix"
        )
        assert outcomes["ray_before_singular_transpose_lp"] == (
            UnboundedError,
            "objective decreases without bound along column 4 from basis (0, 1)",
        )
        assert outcomes["unbounded_lp"] == (
            UnboundedError,
            "objective decreases without bound along column 9 from basis (8,)",
        )
        assert outcomes["infeasible_lp"][0] is InfeasibleError
        assert outcomes["degenerate_qp"][0] is DegenerateError
        assert outcomes["infeasible_qp"][0] is InfeasibleError
        assert outcomes["all_tied_lp"][3] == "basis columns (0,)"
        for name in ("duplicate_columns_lp", "duplicate_columns_qp"):
            assert isinstance(outcomes[name][0], bytes), name


def test_oracles_import_nothing_from_the_solver():
    # The oracles vouch for the solver, so they must not share its code:
    # not even a helper such as its row dot or norm.
    tree = ast.parse(Path(verifier.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "lcco_ipm" if node.level else ""
            module = ".".join(filter(None, [package, node.module]))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    forbidden = ("lcco_ipm.centralpath", "lcco_ipm.newton", "lcco_ipm.solver")
    assert not [
        name for name in imported
        if any(name == f or name.startswith(f + ".") for f in forbidden)
    ]
