"""Central-path algebra: kernel, proximity, directions and monitors.

The contraction coefficient is graded against an independent
high-precision oracle (mpmath, 60 digits) that evaluates the raw formula
with the catastrophic cancellation left in; the package must match the
correctly rounded doubles frozen from that oracle.
"""

import dataclasses
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lcco_ipm import (
    MONITOR_SLACK,
    R_MAX,
    DirectionError,
    InteriorError,
    IterateState,
    MonitorReport,
    ScaledDirections,
    contraction_coefficient,
    generate_instance,
    monitor_step,
    newton_step,
    p_vector,
    proximity,
    scaled_directions,
    scaling_vector,
)
from lcco_ipm import centralpath


def oracle_contraction(r: int) -> float:
    """High-precision evaluation of the raw coefficient formula.

    e^r (e^(r^2) - (e^(2r)-1)^(r/2)) ((r-1)^2 + 1) / (r (e^(2r)-1)^((r-1)/2)),
    evaluated term by term at 60 decimal digits and rounded once to double.
    """
    with mpmath.workdps(60):
        rm = mpmath.mpf(r)
        head = mpmath.exp(rm**2) - (mpmath.exp(2 * rm) - 1) ** (rm / 2)
        value = (
            mpmath.exp(rm)
            * head
            * ((rm - 1) ** 2 + 1)
            / (rm * (mpmath.exp(2 * rm) - 1) ** ((rm - 1) / 2))
        )
        return float(value)


# Frozen package outputs; each sits within one ulp of the correctly
# rounded double (the cancellation-free formula still accumulates
# rounding over its five floating operations).
CONTRACTION_EXPECTED = {
    1: 0.51816867922905918,
    2: 1.0092855692834282,
    3: 2.5046585671469259,
}


def ulp_distance(a: float, b: float) -> int:
    ia = struct.unpack(">q", struct.pack(">d", a))[0]
    ib = struct.unpack(">q", struct.pack(">d", b))[0]
    return abs(ia - ib)


def positive_vectors(max_side=6, low=1e-3, high=1e3):
    return arrays(
        np.float64,
        st.integers(min_value=1, max_value=max_side),
        elements=st.floats(min_value=low, max_value=high),
    )


class TestContractionCoefficient:
    def test_frozen_values_sit_next_to_the_oracle(self):
        for r, expected in CONTRACTION_EXPECTED.items():
            assert ulp_distance(oracle_contraction(r), expected) <= 1

    def test_matches_frozen_values_exactly(self):
        for r, expected in CONTRACTION_EXPECTED.items():
            assert contraction_coefficient(r) == expected

    def test_matches_oracle_over_full_power_range(self):
        # Two ulps covers the worst observed drift (r = 12).
        for r in range(1, R_MAX + 1):
            want = oracle_contraction(r)
            got = contraction_coefficient(r)
            assert ulp_distance(got, want) <= 2

    def test_rejects_out_of_range_powers(self):
        for bad in (0, -1, R_MAX + 1):
            with pytest.raises(ValueError):
                contraction_coefficient(bad)
        with pytest.raises(TypeError):
            contraction_coefficient(1.5)


class TestScalingVector:
    def test_identity_case(self):
        assert np.array_equal(scaling_vector([1.0, 1.0], [1.0, 1.0], 1.0), [1.0, 1.0])

    def test_direct_formula(self):
        assert np.array_equal(scaling_vector([2.0, 0.5], [2.0, 2.0], 1.0), [2.0, 1.0])
        assert np.array_equal(scaling_vector([1.0], [4.0], 4.0), [1.0])

    def test_rejects_boundary_points(self):
        with pytest.raises(InteriorError):
            scaling_vector([1.0, 0.0], [1.0, 1.0], 1.0)
        with pytest.raises(InteriorError):
            scaling_vector([1.0], [-2.0], 1.0)
        with pytest.raises(InteriorError):
            scaling_vector([1.0], [1.0], 0.0)
        with pytest.raises(InteriorError):
            scaling_vector([1.0], [1.0], math.nan)


class TestPVector:
    def test_zero_at_the_center_for_every_power(self):
        w = np.ones(5)
        for r in range(1, R_MAX + 1):
            assert np.array_equal(p_vector(w, r), np.zeros(5))

    def test_small_examples(self):
        assert np.array_equal(p_vector([0.5], 1), [1.0])
        assert np.array_equal(p_vector([0.5, 2.0], 2), [1.5, -1.5])

    @given(w=positive_vectors(), r=st.integers(min_value=1, max_value=R_MAX))
    def test_sign_opposite_to_w_minus_one(self, w, r):
        p = p_vector(w, r)
        assert np.all((w - 1.0) * p <= 0.0)

    @given(w=positive_vectors(), r=st.integers(min_value=1, max_value=R_MAX))
    def test_pointwise_kernel_inequality(self, w, r):
        # w^2 + w p_w >= 1 - p_w^2 / 4 componentwise, for every w > 0.
        p = p_vector(w, r)
        slack = w**2 + w * p - 1.0 + p**2 / 4.0
        assert float(slack.min()) >= -MONITOR_SLACK


class TestProximity:
    def test_zero_on_the_center(self):
        assert proximity([1.0, 1.0], [2.0, 2.0], 2.0, 3) == 0.0

    def test_rejects_a_scaling_vector_that_underflows(self):
        # x, z and mu pass their checks, but x_1 z_1 / mu underflows to w_1 = 0.
        with pytest.raises(InteriorError, match="w must be"):
            proximity([1e-200, 1.0], [1e-200, 1.0], 0.5, 2)

    def test_small_examples(self):
        assert proximity([0.5], [0.5], 1.0, 1) == 0.5
        got = proximity([0.5, 2.0], [0.5, 2.0], 1.0, 2)
        assert got == pytest.approx(1.5 * math.sqrt(2.0) / 2.0, rel=1e-15)

    @given(
        x=positive_vectors(low=1e-2, high=1e2),
        mu=st.floats(min_value=1e-2, max_value=1e2),
        r=st.integers(min_value=1, max_value=R_MAX),
    )
    def test_vanishes_iff_on_the_center(self, x, mu, r):
        z = mu / x
        assert proximity(x, z, mu, r) <= 1e-12

    def test_positive_off_the_center(self):
        assert proximity([1.0, 1.0], [1.0, 2.0], 1.0, 1) > 0.0


class TestRowDot:
    # The batched loop takes every dot product and norm from centralpath._dot;
    # each row must carry the bits ndarray.dot gives that row on its own, which
    # is what keeps batched and solo runs identical.  n >= 32 reaches BLAS's
    # blocked kernels, whose summation order differs from the short tail loop.
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 31, 32, 33, 50, 75, 150])
    @pytest.mark.parametrize("lead", [(1,), (4,), (3, 2)])
    def test_rows_match_ndarray_dot_bit_for_bit(self, n, lead):
        rng = np.random.default_rng(n)
        u = rng.standard_normal((*lead, n))
        v = rng.standard_normal((*lead, n))
        got = centralpath._dot(u, v)
        assert got.shape == lead
        want = [a.dot(b) for a, b in zip(u.reshape(-1, n), v.reshape(-1, n))]
        assert got.ravel().tolist() == want


class TestIterateState:
    def test_from_point_caches_the_scaling_vector(self):
        state = IterateState.from_point([2.0, 0.5], [0.0], [2.0, 2.0], 1.0)
        assert np.array_equal(state.w, [2.0, 1.0])
        assert state.n == 2
        assert state.gap() == 5.0

    def test_from_point_rejects_boundary(self):
        with pytest.raises(InteriorError):
            IterateState.from_point([0.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        with pytest.raises(InteriorError):
            IterateState.from_point([1.0, 1.0], [math.inf], [1.0, 1.0], 1.0)

    def test_arrays_are_read_only(self):
        state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            state.x[0] = 2.0


def center_state(n=4, mu=1.0):
    return IterateState.from_point(np.ones(n), np.zeros(2), mu * np.ones(n), mu)


def zero_directions(n=4):
    zero = np.zeros(n)
    return ScaledDirections(dx=zero, dz=zero, pw=zero, qw=zero, dxTdz=0.0)


class TestScaledDirections:
    def test_center_fixed_point(self):
        p = generate_instance(4, 2, "linear", 7)
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, 1.0)
        step = newton_step(p, state, 1)
        dirs = scaled_directions(step, state, 1)
        assert np.array_equal(dirs.dx, np.zeros(4))
        assert np.array_equal(dirs.dz, np.zeros(4))
        assert np.array_equal(dirs.qw, np.zeros(4))
        assert dirs.dxTdz == 0.0

    def test_kernel_split_identity_on_a_real_step(self):
        p = generate_instance(6, 3, "quadratic", 1)
        mu = 0.9
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, mu)
        for r in (1, 2, 3):
            step = newton_step(p, state, r)
            dirs = scaled_directions(step, state, r)
            assert np.linalg.norm(dirs.dx + dirs.dz - dirs.pw) <= 1e-10
            assert dirs.dxTdz >= -1e-10
            assert np.linalg.norm(dirs.pw) >= np.linalg.norm(dirs.qw) - 1e-10

    def test_check_flag_raises_on_a_corrupted_step(self):
        p = generate_instance(6, 3, "linear", 2)
        mu = 0.9
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, mu)
        step = newton_step(p, state, 1)
        broken = dataclasses.replace(step, dx_full=2.0 * step.dx_full)
        with pytest.raises(DirectionError):
            scaled_directions(broken, state, 1)

    def test_cross_check_against_scaled_curvature(self):
        p = generate_instance(6, 3, "quadratic", 3)
        mu = 0.95
        state = IterateState.from_point(p.start.x0, p.start.y0, p.start.z0, mu)
        step = newton_step(p, state, 2)
        dirs = scaled_directions(step, state, 2)
        # Abar = (1/mu) A diag(x/w) and B = (1/mu) diag(x/w) H diag(x/w):
        # a correct step has Abar dx = 0 and dx'dz = dx' B dx.
        scale = state.x / state.w
        abar = p.A * scale / mu
        curvature = p.objective.evaluate(state.x)[2] * np.outer(scale, scale) / mu
        assert np.linalg.norm(abar @ dirs.dx) <= 1e-9
        assert dirs.dxTdz == pytest.approx(
            float(dirs.dx @ (curvature @ dirs.dx)), abs=1e-9
        )


class TestMonitorStep:
    def test_center_step_all_clear(self):
        before = center_state()
        report = monitor_step(before, before, zero_directions(), 2)
        assert report.lemma2_ok and report.lemma4_ok and report.lemma5_ok
        assert report.eq115_ok and report.eq111_ok and report.eq112_ok
        assert report.gamma_before == 0.0
        assert report.gamma_after == 0.0
        assert report.contraction_bound == 0.0
        assert report.gap_bound == pytest.approx(4.0 + 1.0 * math.exp(-4.0))
        assert report.worst_margin == 0.0
        assert dataclasses.astuple(report)[:6].count(False) == 0

    def test_requires_a_fixed_barrier_value(self):
        with pytest.raises(ValueError):
            monitor_step(center_state(mu=1.0), center_state(mu=0.9), zero_directions(), 1)

    def test_flags_drop_on_a_bad_step(self):
        n = 4
        before = center_state(n)
        after = IterateState.from_point(
            10.0 * np.ones(n), np.zeros(2), 10.0 * np.ones(n), 1.0
        )
        dirs = ScaledDirections(
            dx=np.zeros(n), dz=np.zeros(n), pw=np.zeros(n), qw=np.zeros(n), dxTdz=-1.0
        )
        report = monitor_step(before, after, dirs, 1)
        # Gamma_before = 0, so the contraction bound pins gamma_after to 0
        # and the gap ceiling sits at mu n; the inflated iterate breaks both.
        assert not report.lemma4_ok
        assert not report.lemma5_ok
        assert not report.eq111_ok
        assert report.lemma2_ok  # w = 10 clears the sqrt(1 - 0) floor
        assert report.worst_margin < -1.0
        assert dataclasses.astuple(report)[:6].count(False) == 3

    def test_hypothesis_gates_disable_lemma_checks(self):
        # Proximity far above 1/e^r: lemma 4/5 are vacuous, flags stay true.
        n = 2
        x = np.array([25.0, 0.04])
        before = IterateState.from_point(x, np.zeros(1), np.ones(n), 1.0)
        after = IterateState.from_point(
            100.0 * np.ones(n), np.zeros(1), np.ones(n), 1.0
        )
        r = 1
        gamma = proximity(before.x, before.z, before.mu, r)
        assert gamma > 1.0  # also gates lemma 2
        report = monitor_step(before, after, zero_directions(n), r)
        assert report.lemma2_ok and report.lemma4_ok and report.lemma5_ok
        # The gap ceiling would fail if it were evaluated.
        assert after.gap() > report.gap_bound


def scalar_grade(gamma_before, gamma_after, min_w, eq115_slack, norm_pw, norm_qw,
                 dxTdz, gap, mu, n, r):
    """The one-step grader the array grader replaced, kept verbatim as its reference."""
    contraction_bound = centralpath._contraction(r) * gamma_before**2
    gap_bound = mu * (n + (r - 1) ** 2 * math.exp(-2.0 * r))
    margins = []
    lemma2_ok = lemma4_ok = lemma5_ok = True
    if gamma_before < 1.0:
        margins.append(min_w - math.sqrt(1.0 - gamma_before**2))
        lemma2_ok = margins[-1] >= -MONITOR_SLACK
    if gamma_before < math.exp(-r):
        margins += (contraction_bound - gamma_after, gap_bound - gap)
        lemma4_ok = margins[-2] >= -MONITOR_SLACK
        lemma5_ok = margins[-1] >= -MONITOR_SLACK
    margins += (eq115_slack, dxTdz, norm_pw - norm_qw)
    eq115_ok, eq111_ok, eq112_ok = (m >= -MONITOR_SLACK for m in margins[-3:])

    return MonitorReport(
        lemma2_ok=lemma2_ok,
        lemma4_ok=lemma4_ok,
        lemma5_ok=lemma5_ok,
        eq115_ok=eq115_ok,
        eq111_ok=eq111_ok,
        eq112_ok=eq112_ok,
        gamma_before=gamma_before,
        gamma_after=gamma_after,
        contraction_bound=contraction_bound,
        gap_bound=gap_bound,
        worst_margin=min(margins),
    )


class TestArrayGrader:
    # Python's gamma**2 and numpy's gamma*gamma differ in the last bit here.
    SQUARE_SPLIT = 0.0003959287666420286

    def cases(self, r):
        threshold = math.exp(-r)
        gammas = [
            1.0, math.nextafter(1.0, 0.0), threshold, math.nextafter(threshold, 0.0),
            self.SQUARE_SPLIT, 0.0, 0.3, 2.5, math.nan,
        ]
        rng = np.random.default_rng(r)
        gammas += (rng.random(40) * 0.5).tolist()
        rows = []
        for k, g in enumerate(gammas):
            base = [g, 0.6 * g * g, 1.0 - 0.5 * g, 0.01, 0.8, 0.5, 0.02, 3.9, 1.0]
            rows.append(base)
            # A margin exactly at the slack, then just past it.
            rows.append(base[:3] + [-MONITOR_SLACK] + base[4:6] + [-MONITOR_SLACK] + base[7:])
            rows.append(base[:3] + [-2e-9] + base[4:6] + [math.nextafter(-MONITOR_SLACK, -1.0)]
                        + base[7:])
            # A NaN in each term but gamma_before, one at a time.
            term = 1 + k % 8
            rows.append(base[:term] + [math.nan] + base[term + 1:])
            # Margins that tie at -0.0 and 0.0, and a breach of every check.
            rows.append([g, 0.0, 1.0, -0.0, 0.5, 0.5, 0.0, 0.0, 1.0])
            rows.append([g, 10.0, 0.0, -1.0, 0.1, 0.9, -1.0, 50.0, 1.0])
        return rows

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_equals_the_scalar_grader_bit_for_bit(self, r):
        rows = self.cases(r)
        columns = np.array(rows).T
        n = 4
        flags, *bounds = centralpath._grade(*columns, n, r)
        for k, row in enumerate(rows):
            want = scalar_grade(*row, n, r)
            got = MonitorReport(
                *flags[:, k].tolist(), row[0], row[1], *(float(b[k]) for b in bounds)
            )
            assert repr(got) == repr(want), row

    def test_squares_keep_the_bits_of_python_pow(self):
        g = self.SQUARE_SPLIT
        assert g**2 != g * g
        _, contraction_bound, _, _ = centralpath._grade(
            *np.array([[g, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0]]).T, 4, 1
        )
        assert contraction_bound[0] == centralpath._contraction(1) * g**2

    def test_grades_blocks_of_any_shape(self):
        rows = np.array(self.cases(1))
        flat = centralpath._grade(*rows.T, 4, 1)
        block = centralpath._grade(*rows.T.reshape(9, -1, 6), 4, 1)
        for a, b in zip(flat, block):
            assert np.array_equal(a.reshape(b.shape), b, equal_nan=a.dtype != bool)

