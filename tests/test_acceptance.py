"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every test registers `ACCEPTANCE <k>: PASS/FAIL <detail>` through the
session reporter fixture, which replays the scoreboard after the run in
a terminal-summary section that survives output capture.  The shared
fixture solves the whole evaluation grid once: n in {4, 10, 50},
m = n/2, both objective kinds, seeds {1, 2, 3}, kernel powers {1, 2, 3},
epsilon 1e-6, automatic theta.
"""

import itertools
import math

import numpy as np
import pytest

from lcco_ipm import (
    R_MAX,
    IterateState,
    ObjectiveSpec,
    Problem,
    SolverConfig,
    contraction_coefficient,
    generate_instance,
    newton_rhs,
    newton_step,
    reference_solve_lp,
    reference_solve_qp,
    solve,
    solve_many,
)
from test_scripts import load

GRID_N = (4, 10, 50)
KINDS = ("linear", "quadratic")
SEEDS = (1, 2, 3)
POWERS = (1, 2, 3)
EPSILON = 1e-6


@pytest.fixture(scope="module")
def grid():
    # One solve_many batch per (n, r) group over its (kind, seed) problems;
    # the runs are keyed, and ordered, as (n, kind, seed, r).
    solved = {}
    for n in GRID_N:
        problems = {
            (kind, seed): generate_instance(n, n // 2, kind, seed)
            for kind in KINDS
            for seed in SEEDS
        }
        for r in POWERS:
            cfg = SolverConfig(epsilon=EPSILON, r=r)
            for (kind, seed), result in zip(problems, solve_many(problems.values(), cfg)):
                solved[(n, kind, seed, r)] = (problems[kind, seed], cfg, result)
    return {key: solved[key] for key in itertools.product(GRID_N, KINDS, SEEDS, POWERS)}


def test_criterion_01_iterations_within_the_proven_bound(grid, acceptance_report):
    worst = 0.0
    ok = True
    for key, (_, _, result) in grid.items():
        if result.status != "converged" or result.iterations > result.bound:
            ok = False
        if result.bound:
            worst = max(worst, result.iterations / result.bound)
    acceptance_report(
        1,
        ok,
        f"{len(grid)} runs converged within bound; "
        f"max used fraction {worst:.3f}",
    )


def test_criterion_02_quadratic_proximity_contraction(grid, acceptance_report):
    worst = -math.inf
    evaluated = 0
    for (_, _, _, r), (_, _, result) in grid.items():
        limit = contraction_coefficient(r)
        trace = result.trace
        evaluated += len(trace)
        # float_power is libm pow, the bits of Python's ** on one record.
        excess = trace.gamma - limit * np.float_power(trace.gamma_before, 2.0)
        worst = max(worst, float(excess.max(initial=-math.inf)))
    acceptance_report(
        2,
        worst <= 1e-9,
        f"{evaluated} steps, worst excess over C(r) gamma^2 is {worst:.3e} "
        "(tolerance 1e-9)",
    )


def test_criterion_03_gap_stays_under_the_barrier_ceiling(grid, acceptance_report):
    worst = -math.inf
    for (n, _, _, r), (_, _, result) in grid.items():
        ceiling = n + (r - 1) ** 2 * math.exp(-2.0 * r)
        excess = result.trace.gap - result.trace.mu * ceiling
        worst = max(worst, float(excess.max(initial=-math.inf)))
    acceptance_report(
        3,
        worst <= 1e-9,
        f"worst excess over mu (n + (r-1)^2 e^(-2r)) is {worst:.3e} "
        "(tolerance 1e-9)",
    )


def test_criterion_04_proximity_stays_under_the_threshold(grid, acceptance_report):
    worst = -math.inf
    ok = True
    for (_, _, _, r), (_, _, result) in grid.items():
        threshold = math.exp(-r)
        gamma = result.trace.gamma
        worst = max(worst, float((gamma - threshold).max(initial=-math.inf)))
        if not (gamma < threshold).all():
            ok = False
    acceptance_report(
        4,
        ok,
        f"every recorded gamma below 1/e^r; worst slack {-worst:.3e}",
    )


def test_criterion_05_final_iterates_are_interior_and_feasible(grid, acceptance_report):
    ok = True
    worst_primal = 0.0
    worst_dual = 0.0
    for key, (p, _, result) in grid.items():
        gradient = p.objective.evaluate(result.x)[1]
        primal = float(np.linalg.norm(p.A @ result.x - p.b))
        dual = float(np.linalg.norm(p.A.T @ result.y + result.z - gradient))
        primal_tol = 1e-8 * (1.0 + float(np.linalg.norm(p.b)))
        dual_tol = 1e-8 * (1.0 + float(np.linalg.norm(gradient)))
        if (
            result.x.min() <= 0.0
            or result.z.min() <= 0.0
            or primal > primal_tol
            or dual > dual_tol
        ):
            ok = False
        worst_primal = max(worst_primal, primal / primal_tol)
        worst_dual = max(worst_dual, dual / dual_tol)
    acceptance_report(
        5,
        ok,
        "all final iterates strictly positive and feasible; worst "
        f"residual fractions primal {worst_primal:.3e}, dual {worst_dual:.3e}",
    )


def test_criterion_06_scaled_directions_behave(grid, acceptance_report):
    min_curvature = math.inf
    min_norm_gap = math.inf
    max_defect = 0.0
    max_scaled_primal = 0.0
    for _, (_, _, result) in grid.items():
        trace = result.trace
        min_curvature = min(min_curvature, float(trace.dxTdz.min(initial=math.inf)))
        norm_gap = trace.norm_pw - trace.norm_qw
        min_norm_gap = min(min_norm_gap, float(norm_gap.min(initial=math.inf)))
        max_defect = max(max_defect, float(trace.kernel_defect.max(initial=0.0)))
        max_scaled_primal = max(max_scaled_primal, float(trace.scaled_primal.max(initial=0.0)))
    ok = (
        min_curvature >= -1e-10
        and min_norm_gap >= -1e-10
        and max_defect <= 1e-10
        and max_scaled_primal <= 1e-9
    )
    acceptance_report(
        6,
        ok,
        f"min dx'dz {min_curvature:.3e}, min (|pw|-|qw|) {min_norm_gap:.3e}, "
        f"max kernel defect {max_defect:.3e}, "
        f"max scaled primal {max_scaled_primal:.3e}",
    )


def test_criterion_07_kernel_inequalities_on_trajectories_and_grids(grid, acceptance_report):
    trajectory_ok = all(result.trace.eq115_ok.all() for _, (_, _, result) in grid.items())
    # The exact proof of eq115 and eq117 for every w > 0, run in process.
    proved = load("check_inequalities").main(["--r-max", str(R_MAX)]) == 0
    acceptance_report(
        7,
        trajectory_ok and proved,
        f"pointwise bound on all trajectories; pointwise and ratio bounds "
        f"{'proved' if proved else 'NOT PROVED'} for r=1..{R_MAX}",
    )


def test_criterion_08_scaling_floor_after_each_step(grid, acceptance_report):
    count = 0
    ok = True
    for _, (_, _, result) in grid.items():
        count += len(result.trace)
        if not result.trace.lemma2_ok.all():
            ok = False
    acceptance_report(
        8,
        ok,
        f"componentwise w floor sqrt(1 - gamma^2) held on {count} steps",
    )


def test_criterion_09_solutions_match_enumeration_oracles(acceptance_report):
    worst = 0.0
    checked = 0
    ok = True
    for kind in KINDS:
        oracle = reference_solve_lp if kind == "linear" else reference_solve_qp
        for n in (2, 4, 6, 8):
            for seed in (1, 2, 3, 4, 5):
                p = generate_instance(n, n // 2, kind, seed)
                result = solve(p, SolverConfig(epsilon=EPSILON))
                reference = oracle(p)
                value = p.objective.evaluate(result.x)[0]
                delta = abs(value - reference.objective_star)
                tolerance = 1e-5 * (1.0 + abs(reference.objective_star))
                checked += 1
                worst = max(worst, delta / tolerance)
                if result.status != "converged" or delta > tolerance:
                    ok = False
    acceptance_report(
        9,
        ok,
        f"{checked} instances agree with the enumeration oracles; "
        f"worst delta fraction {worst:.3f}",
    )


def test_criterion_10_linear_kernel_minimizes_iterations(grid, acceptance_report):
    ok = True
    compared = 0
    for n in GRID_N:
        for kind in KINDS:
            for seed in SEEDS:
                counts = {
                    r: grid[(n, kind, seed, r)][2].iterations for r in POWERS
                }
                compared += 1
                if counts[1] != min(counts.values()):
                    ok = False
    acceptance_report(
        10,
        ok,
        f"r=1 attains the fewest iterations in all {compared} sweeps",
    )


def test_criterion_11_hand_system_and_exact_center_step(acceptance_report):
    p = Problem(
        A=[[1.0, 1.0]],
        b=[2.0],
        objective=ObjectiveSpec.linear([1.0, 1.0]),
    ).validate()
    state = IterateState.from_point([1.0, 1.0], [0.0], [1.0, 1.0], 1.0)
    worst = 0.0
    for r in POWERS:
        mu = 0.9
        aimed = IterateState.from_point(state.x, state.y, state.z, mu)
        step = newton_step(p, aimed, r)
        h = newton_rhs(aimed, r)
        kkt = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        solution = np.linalg.solve(kkt, np.array([h[0], h[1], 0.0]))
        worst = max(
            worst,
            float(np.abs(step.dx_full - solution[:2]).max()),
            float(np.abs(step.dy_full - (-solution[2:])).max()),
            float(
                np.abs(step.dz_full - (h - state.z * step.dx_full) / state.x).max()
            ),
        )
    center = newton_step(p, state, 1)
    exact = (
        np.array_equal(center.dx_full, [0.0, 0.0])
        and np.array_equal(center.dy_full, [0.0])
        and np.array_equal(center.dz_full, [0.0, 0.0])
    )
    acceptance_report(
        11,
        worst <= 1e-12 and exact,
        f"hand system matches a dense solve to {worst:.3e} "
        "and the centered step is exactly zero",
    )
