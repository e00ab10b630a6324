"""Command-line front end: solve, generate, and sweep.

Exit codes are part of the interface: 0 converged, 1 usage or input
error, 2 inadmissible (or missing) start, 3 numerical failure, 4
iteration cap.  All CSV output is byte-deterministic for identical
inputs and flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .problem import generate_instance, parse_instance, serialize_instance
from .solver import AUTO, SolveResult, SolverConfig, gamma_threshold, solve, trace_to_csv
from .verifier import (
    LP_SIZE_LIMIT,
    QP_SIZE_LIMIT,
    OracleError,
    ReferenceSolution,
    kkt_residuals,
    reference_solve_lp,
    reference_solve_qp,
)

__all__ = ["SweepRow", "build_parser", "main", "run_generate", "run_solve", "run_sweep"]

SWEEP_HEADER = "r,theta,iterations,bound,final_gap,max_gamma,monitor_violations,status"

_EXIT_BY_STATUS = {
    "converged": 0,
    "invalid_start": 2,
    "numerical_failure": 3,
    "iteration_cap": 4,
}


@dataclass(frozen=True)
class SweepRow:
    """One line of the sweep table: outcome of solving at a single r."""

    r: int
    theta: float
    iterations: int
    bound: int
    final_gap: float
    max_gamma: float
    monitor_violations: int
    status: str

    def to_csv(self) -> str:
        return ",".join(
            [
                str(self.r),
                format(self.theta, ".17g"),
                str(self.iterations),
                str(self.bound),
                format(self.final_gap, ".17g"),
                format(self.max_gamma, ".17g"),
                str(self.monitor_violations),
                self.status,
            ]
        )


class _UsageError(Exception):
    """Bad flags or unusable input; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, but 2 is reserved for
    # inadmissible starts here; route usage failures through an exception
    # so main can map them to 1.
    def error(self, message):
        raise _UsageError(message)


def _theta_flag(text: str):
    return text if text == AUTO else float(text)


def _max_iter_flag(text: str):
    return text if text == AUTO else int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcco-ipm",
        description=(
            "Feasible full-Newton-step interior-point solver for linearly "
            "constrained convex optimization (min f(x) s.t. Ax = b, x >= 0)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_solve = commands.add_parser("solve", help="solve one LCCO-v1 instance")
    p_solve.add_argument("instance", help="path to an LCCO-v1 instance file")
    p_solve.add_argument("--r", type=int, default=1, help="kernel power (default 1)")
    p_solve.add_argument(
        "--eps", type=float, default=1e-6, help="duality-gap target (default 1e-6)"
    )
    p_solve.add_argument(
        "--theta",
        type=_theta_flag,
        default=AUTO,
        help="barrier update factor in (0,1), or 'auto' for 1/(e^(2r) sqrt(n))",
    )
    p_solve.add_argument(
        "--max-iter",
        type=_max_iter_flag,
        default=AUTO,
        help="iteration cap, or 'auto' for 10x the theoretical bound",
    )
    p_solve.add_argument("--trace", help="write the per-iteration CSV trace here")
    p_solve.add_argument(
        "--strict",
        action="store_true",
        help="abort with a numerical failure on any monitor violation",
    )
    p_solve.add_argument(
        "--check",
        action="store_true",
        help="verify the result against KKT residuals and a reference optimum: "
        "the enumeration oracle when the instance is small enough, HiGHS for "
        "larger linear instances",
    )
    p_solve.set_defaults(func=run_solve)

    p_generate = commands.add_parser(
        "generate", help="generate a random instance with a certified start"
    )
    p_generate.add_argument("--n", type=int, required=True, help="variable count")
    p_generate.add_argument("--m", type=int, required=True, help="constraint count")
    p_generate.add_argument(
        "--objective",
        choices=["linear", "quadratic"],
        required=True,
        help="objective family",
    )
    p_generate.add_argument("--seed", type=int, required=True, help="generator seed")
    p_generate.add_argument("--out", required=True, help="output instance path")
    p_generate.set_defaults(func=run_generate)

    p_sweep = commands.add_parser(
        "sweep", help="solve one instance for r = 1..r-max and tabulate"
    )
    p_sweep.add_argument("instance", help="path to an LCCO-v1 instance file")
    p_sweep.add_argument(
        "--r-max", type=int, required=True, help="largest kernel power to run"
    )
    p_sweep.add_argument(
        "--eps", type=float, default=1e-6, help="duality-gap target (default 1e-6)"
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=run_sweep)
    return parser


def _load_problem(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    try:
        return parse_instance(text)
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _build_config(args, r: int) -> SolverConfig:
    try:
        return SolverConfig(
            epsilon=args.eps,
            r=r,
            theta=getattr(args, "theta", AUTO),
            max_iterations=getattr(args, "max_iter", AUTO),
            strict_monitors=getattr(args, "strict", False),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _max_gamma(result: SolveResult) -> float:
    return max(result.trace.gamma.tolist(), default=0.0)


def _print_summary(path: str, problem, cfg: SolverConfig, result: SolveResult) -> None:
    n, m = problem.n, problem.m
    with np.errstate(over="ignore"):  # x0'z0 of an extreme start may overflow
        mu0 = float(problem.start.x0 @ problem.start.z0) / n
    theta = cfg.resolved_theta(n)
    print(f"instance: {path} (n={n}, m={m}, {problem.objective.kind} objective)")
    print(
        f"config: r={cfg.r} epsilon={cfg.epsilon:g} theta={theta:.12g}"
        f"{' (auto)' if cfg.theta == AUTO else ''}"
        f" gamma<{gamma_threshold(cfg.r):.12g}"
    )
    print(
        f"status: {result.status} after {result.iterations} iterations "
        f"(theoretical bound {result.bound}, cap {cfg.resolved_max_iterations(result.bound)})"
    )
    relative = f", {result.gap_final / mu0:.12g} of mu0" if 0.0 < mu0 < math.inf else ""
    print(
        f"gap: {result.gap_final:.12g} absolute{relative}; "
        f"final mu {result.mu_final:.12g}"
    )
    objective_value = problem.objective.evaluate(result.x)[0]
    print(f"objective: {objective_value:.17g}")
    print(
        f"max gamma: {_max_gamma(result):.12g}; "
        f"monitor violations: {result.monitor_violations}"
    )


def _reference_highs(problem) -> ReferenceSolution:
    """LP optimum from HiGHS, for linear instances above the enumeration cap."""
    # Imported here: loading scipy.optimize would slow every other start-up.
    from scipy.optimize import linprog

    found = linprog(
        problem.objective.c,
        A_eq=problem.A,
        b_eq=problem.b,
        bounds=(0.0, None),
        method="highs",
    )
    if found.status != 0:
        raise OracleError(found.message)
    return ReferenceSolution(
        x_star=found.x,
        objective_star=float(found.fun),
        method="highs",
        certificates=found.message,
    )


def _print_check(problem, result: SolveResult) -> None:
    residuals = kkt_residuals(problem, result.x, result.y, result.z)
    print(
        f"kkt: primal {residuals.primal:.3e} dual {residuals.dual:.3e} "
        f"complementarity {residuals.complementarity:.3e} "
        f"min_x {residuals.min_x:.3e} min_z {residuals.min_z:.3e}"
    )
    if result.status != "converged":
        print("reference: skipped (run did not converge)")
        return
    kind = problem.objective.kind
    if kind == "linear" and problem.n <= LP_SIZE_LIMIT:
        solve_reference = reference_solve_lp
    elif kind == "quadratic" and problem.n <= QP_SIZE_LIMIT:
        solve_reference = reference_solve_qp
    elif kind == "linear":
        solve_reference = _reference_highs
    else:
        print(f"reference: skipped (n={problem.n} exceeds the enumeration limit)")
        return
    try:
        reference = solve_reference(problem)
    except (OracleError, np.linalg.LinAlgError) as exc:
        # An exactly singular subset system can stop an oracle's walk early.
        print(f"reference: no certificate ({exc})")
        return
    value = problem.objective.evaluate(result.x)[0]
    delta = abs(value - reference.objective_star)
    tolerance = 1e-5 * (1.0 + abs(reference.objective_star))
    verdict = "agree" if delta <= tolerance else "DISAGREE"
    print(
        f"reference ({reference.method}): objective {reference.objective_star:.12g}, "
        f"solver {value:.12g}, |delta| {delta:.3e}, tolerance {tolerance:.3e} "
        f"-> {verdict}"
    )


def run_solve(args) -> int:
    problem = _load_problem(args.instance)
    cfg = _build_config(args, args.r)
    if problem.start is None:
        print(
            f"error: {args.instance} has no start block; the solver needs an "
            "admissible interior start",
            file=sys.stderr,
        )
        return 2
    result = solve(problem, cfg)
    _print_summary(args.instance, problem, cfg, result)
    if args.trace:
        try:
            Path(args.trace).write_text(trace_to_csv(result.trace))
        except OSError as exc:
            print(f"error: cannot write {args.trace}: {exc}", file=sys.stderr)
            return 1
    if args.check:
        _print_check(problem, result)
    return _EXIT_BY_STATUS[result.status]


def run_generate(args) -> int:
    try:
        problem = generate_instance(args.n, args.m, args.objective, args.seed)
    except (ValueError, TypeError) as exc:
        raise _UsageError(str(exc)) from None
    except MemoryError:
        raise _UsageError(
            f"cannot allocate an instance with n={args.n}, m={args.m}"
        ) from None
    try:
        Path(args.out).write_text(serialize_instance(problem))
    except OSError as exc:
        raise _UsageError(f"cannot write {args.out}: {exc}") from None
    print(
        f"wrote {args.out}: n={problem.n} m={problem.m} "
        f"{problem.objective.kind} objective, certified start"
    )
    return 0


def run_sweep(args) -> int:
    problem = _load_problem(args.instance)
    if args.r_max < 1:
        raise _UsageError(f"--r-max must be at least 1, got {args.r_max}")
    if problem.start is None:
        print(
            f"error: {args.instance} has no start block; the solver needs an "
            "admissible interior start",
            file=sys.stderr,
        )
        return 2
    configs = [_build_config(args, r) for r in range(1, args.r_max + 1)]
    results = [solve(problem, cfg) for cfg in configs]
    rows = [
        SweepRow(
            r=cfg.r,
            theta=cfg.resolved_theta(problem.n),
            iterations=result.iterations,
            bound=result.bound,
            final_gap=result.gap_final,
            max_gamma=_max_gamma(result),
            monitor_violations=result.monitor_violations,
            status=result.status,
        )
        for cfg, result in zip(configs, results)
    ]
    csv_text = "\n".join([SWEEP_HEADER, *(row.to_csv() for row in rows)]) + "\n"
    try:
        Path(args.out).write_text(csv_text)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.out}: {exc}") from None
    best = min(rows, key=lambda row: (row.iterations, row.r))
    print(f"wrote {args.out}: {len(rows)} rows")
    print(f"fewest iterations at r={best.r} ({best.iterations} iterations)")
    for row in rows:
        if row.status != "converged":
            return _EXIT_BY_STATUS[row.status]
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse only raises SystemExit here for --help/--version.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
