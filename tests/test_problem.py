"""Instance model, text format round-trips, and the seeded generator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcco_ipm import (
    InstanceError,
    ObjectiveSpec,
    ParseError,
    Problem,
    StartPoint,
    generate_instance,
    parse_instance,
    serialize_instance,
    validate_start,
)

MINIMAL_TEXT = """\
LCCO 1
n 2
m 1
A
1 1
b
2
objective linear
c
1 2
start
x 1 1
y 0
z 1 2
"""


def small_problem(with_start=True):
    start = StartPoint(x0=[1.0, 1.0], y0=[0.0], z0=[1.0, 2.0]) if with_start else None
    return Problem(
        A=[[1.0, 1.0]],
        b=[2.0],
        objective=ObjectiveSpec.linear([1.0, 2.0]),
        start=start,
    )


class TestObjective:
    def test_linear_examples(self):
        spec = ObjectiveSpec.linear([1.0, -2.0, 0.5])
        value, gradient, hessian = spec.evaluate([1.0, 1.0, 2.0])
        assert value == 0.0
        assert np.array_equal(gradient, [1.0, -2.0, 0.5])
        assert np.array_equal(hessian, np.zeros((3, 3)))
        assert hessian is spec.hessian and not hessian.flags.writeable
        assert spec.evaluate([2.0, 1.0, 0.0])[0] == 0.0
        # The gradient of a linear objective is c, so a raw one carrying Q
        # has the zero Hessian too.
        raw = ObjectiveSpec(kind="linear", c=[1.0, 1.0], Q=np.eye(2))
        assert np.array_equal(raw.hessian, np.zeros((2, 2)))

    def test_quadratic_examples(self):
        spec = ObjectiveSpec.quadratic([0.0, 0.0], [[2.0, 0.0], [0.0, 4.0]])
        value, gradient, hessian = spec.evaluate([1.0, 1.0])
        assert value == 3.0
        assert np.array_equal(gradient, [2.0, 4.0])
        assert np.array_equal(hessian, [[2.0, 0.0], [0.0, 4.0]])
        assert hessian is spec.hessian and not hessian.flags.writeable
        assert spec.evaluate([2.0, 0.0])[0] == 4.0

    def test_evaluation_is_legal_on_the_boundary(self):
        # The feasible region is closed; only iterates must stay interior.
        spec = ObjectiveSpec.quadratic([1.0], [[2.0]])
        assert spec.evaluate([0.0])[0] == 0.0

    @pytest.mark.parametrize(
        "c, value",
        # 2e308 overflows before -1e308 is added; 2e308 - 2e308 is inf - inf.
        [([2.0, -1.0], 1e308), ([2.0, -2.0], 0.0)],
    )
    def test_a_value_whose_terms_overflow_is_rescaled(self, c, value):
        with np.errstate(over="ignore"):  # as in every caller that may overflow
            assert ObjectiveSpec.linear(c).evaluate([1e308, 1e308])[0] == value

    def test_validate_rejects_asymmetric_curvature(self):
        spec = ObjectiveSpec(kind="quadratic", c=[0.0, 0.0], Q=[[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InstanceError):
            spec.validate()

    def test_validate_rejects_indefinite_curvature(self):
        spec = ObjectiveSpec(kind="quadratic", c=[0.0, 0.0], Q=[[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InstanceError):
            spec.validate()

    def test_constructors_reject_bad_shapes(self):
        with pytest.raises(InstanceError):
            ObjectiveSpec.quadratic([0.0, 0.0], [[1.0]])
        with pytest.raises(InstanceError):
            ObjectiveSpec.linear([[1.0, 2.0]])


class TestProblemValidation:
    def test_well_formed_instance_passes(self):
        p = small_problem()
        p.validate()
        assert p.n == 2
        assert p.m == 1

    def test_rank_deficient_rows_are_rejected(self):
        p = Problem(
            A=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
            b=[1.0, 2.0],
            objective=ObjectiveSpec.linear([1.0, 1.0, 1.0]),
        )
        with pytest.raises(InstanceError):
            p.validate()

    def test_square_constraint_matrix_is_rejected(self):
        p = Problem(
            A=[[1.0, 0.0], [0.0, 1.0]],
            b=[1.0, 1.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
        )
        with pytest.raises(InstanceError):
            p.validate()

    def test_nonfinite_entries_are_rejected(self):
        p = Problem(
            A=[[1.0, math.inf]],
            b=[1.0],
            objective=ObjectiveSpec.linear([1.0, 1.0]),
        )
        with pytest.raises(InstanceError):
            p.validate()


class TestStartValidation:
    def test_generated_start_is_admissible_for_every_power(self):
        p = generate_instance(6, 3, "quadratic", 11)
        for r in range(1, 6):
            report = validate_start(p, p.start, r)
            assert report.admissible
            assert report.gamma0 == 0.0
            assert report.residuals.primal == 0.0
            assert report.residuals.dual <= 1e-12
            assert report.residuals.min_x == 1.0
            assert report.residuals.min_z == 1.0

    def test_boundary_start_reports_infinite_proximity(self):
        p = small_problem()
        start = StartPoint(x0=[0.0, 2.0], y0=[0.0], z0=[1.0, 1.0])
        report = validate_start(p, start, 1)
        assert not report.admissible
        assert report.residuals.min_x == 0.0
        assert report.gamma0 == math.inf

    @pytest.mark.parametrize("x0, z0", [([1.0, 1.0], [1e308, 1e308]),
                                        ([1e-200, 1e-200], [1e-200, 1e-200]),
                                        # mu0 = 1/2, but x0_1 z0_1 / mu0 underflows to 0
                                        ([1e-200, 1.0], [1e-200, 1.0])])
    def test_start_whose_barrier_value_overflows_or_underflows_reports_infinite_proximity(
        self, x0, z0
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_start(small_problem(), StartPoint(x0=x0, y0=[0.0], z0=z0), 1)
        assert not report.admissible
        assert report.residuals.complementarity == sum(a * b for a, b in zip(x0, z0))
        assert report.gamma0 == math.inf

    def test_residuals_whose_squares_overflow_stay_finite(self):
        p = generate_instance(4, 2, "quadratic", 1)
        x0 = np.full(4, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_start(p, StartPoint(x0=x0, y0=p.start.y0, z0=p.start.z0), 1)
        assert report.residuals.primal == pytest.approx(math.hypot(*(p.A @ x0 - p.b)), rel=1e-14)
        assert 0.0 < report.residuals.dual < math.inf
        assert not report.admissible

    def test_dual_residual_reflects_a_shifted_slack(self):
        p = generate_instance(4, 2, "linear", 3)
        start = StartPoint(x0=p.start.x0, y0=p.start.y0, z0=p.start.z0 + 0.1)
        report = validate_start(p, start, 1)
        assert report.residuals.dual == pytest.approx(0.1 * math.sqrt(4), rel=1e-12)

    def test_off_center_start_below_the_threshold_is_admissible(self):
        p = generate_instance(4, 2, "linear", 3)
        delta = 0.05
        z0 = p.start.z0 + delta * p.A[0]
        y0 = np.array(p.start.y0, dtype=float).copy()
        y0[0] -= delta
        start = StartPoint(x0=p.start.x0, y0=y0, z0=z0)
        report = validate_start(p, start, 1)
        assert report.residuals.dual <= 1e-12
        assert 0.0 < report.gamma0 < math.exp(-1)
        assert report.admissible


class TestParser:
    def test_parses_the_minimal_instance(self):
        p = parse_instance(MINIMAL_TEXT)
        assert p.n == 2 and p.m == 1
        assert np.array_equal(p.A, [[1.0, 1.0]])
        assert np.array_equal(p.b, [2.0])
        assert p.objective.kind == "linear"
        assert np.array_equal(p.objective.c, [1.0, 2.0])
        assert np.array_equal(p.start.x0, [1.0, 1.0])
        assert np.array_equal(p.start.z0, [1.0, 2.0])

    def test_start_block_is_optional(self):
        text = MINIMAL_TEXT.split("start\n")[0]
        p = parse_instance(text)
        assert p.start is None

    def test_rejects_a_wrong_header(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("LCCO 2\nn 2\n")
        assert "line 1" in str(exc.value)

    def test_reports_the_column_of_a_bad_number(self):
        text = MINIMAL_TEXT.replace("c\n1 2", "c\n1 abc")
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "line 10, column 3" in str(exc.value)
        assert exc.value.line == 10
        assert exc.value.column == 3

    def test_rejects_an_unknown_objective_kind(self):
        text = MINIMAL_TEXT.replace("objective linear", "objective cubic")
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_rejects_a_short_matrix_row(self):
        text = MINIMAL_TEXT.replace("A\n1 1", "A\n1")
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_rejects_trailing_content(self):
        with pytest.raises(ParseError):
            parse_instance(MINIMAL_TEXT + "extra 1\n")

    def test_comments_and_blank_lines_are_ignored(self):
        text = "# generated by hand\n\n" + MINIMAL_TEXT.replace(
            "objective linear", "# objective follows\nobjective linear"
        )
        p = parse_instance(text)
        assert p.objective.kind == "linear"

    def test_semantic_errors_surface_as_instance_errors(self):
        text = MINIMAL_TEXT.replace("A\n1 1", "A\n0 0")
        with pytest.raises(InstanceError):
            parse_instance(text)

    def test_round_trip_is_exact_for_generated_instances(self):
        for kind in ("linear", "quadratic"):
            p = generate_instance(5, 2, kind, 13)
            q = parse_instance(serialize_instance(p))
            assert np.array_equal(p.A, q.A)
            assert np.array_equal(p.b, q.b)
            assert np.array_equal(p.objective.c, q.objective.c)
            if kind == "quadratic":
                assert np.array_equal(p.objective.Q, q.objective.Q)
            assert np.array_equal(p.start.x0, q.start.x0)
            assert np.array_equal(p.start.y0, q.start.y0)
            assert np.array_equal(p.start.z0, q.start.z0)

    @given(
        values=st.lists(
            st.floats(
                min_value=-1e12,
                max_value=1e12,
                allow_nan=False,
                allow_subnormal=False,
            ),
            min_size=2,
            max_size=2,
        )
    )
    def test_seventeen_digit_rendering_is_lossless(self, values):
        p = Problem(
            A=[[1.0, 1.0]],
            b=[2.0],
            objective=ObjectiveSpec.linear(values),
        )
        q = parse_instance(serialize_instance(p))
        assert np.array_equal(p.objective.c, q.objective.c)


class TestGenerator:
    def test_is_deterministic(self):
        a = generate_instance(6, 3, "quadratic", 42)
        b = generate_instance(6, 3, "quadratic", 42)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.objective.Q, b.objective.Q)
        assert np.array_equal(a.start.y0, b.start.y0)

    def test_seeds_differ(self):
        a = generate_instance(6, 3, "linear", 1)
        b = generate_instance(6, 3, "linear", 2)
        assert not np.array_equal(a.A, b.A)

    def test_start_is_centered_exactly(self):
        # x0 = z0 = e gives mu0 = 1 and scaling vector e: proximity 0.
        for kind in ("linear", "quadratic"):
            p = generate_instance(8, 4, kind, 9)
            assert np.array_equal(p.start.x0, np.ones(8))
            assert np.array_equal(p.start.z0, np.ones(8))
            assert float(p.start.x0 @ p.start.z0) / 8 == 1.0

    def test_constraints_are_well_conditioned(self):
        p = generate_instance(10, 5, "linear", 4)
        sv = np.linalg.svd(p.A, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]

    def test_quadratic_curvature_is_symmetric_psd(self):
        p = generate_instance(7, 3, "quadratic", 6)
        Q = p.objective.Q
        assert np.array_equal(Q, Q.T)
        eigs = np.linalg.eigvalsh(Q)
        assert eigs.min() >= -1e-12

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            generate_instance(1, 1, "linear", 0)
        with pytest.raises(ValueError):
            generate_instance(4, 4, "linear", 0)
        with pytest.raises(ValueError):
            generate_instance(4, 0, "linear", 0)
        with pytest.raises(ValueError):
            generate_instance(4, 2, "cubic", 0)
