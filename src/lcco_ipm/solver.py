"""Main loop: shrink the barrier value, take one full Newton step, record.

Each pass of the loop is

    mu <- (1 - theta) mu
    solve the step equations aimed at the new mu-center
    x <- x + dx,  y <- y + dy,  z <- z + dz

starting from a strictly feasible point whose proximity is below the
admission threshold 1/e^r, and stopping as soon as the duality gap x'z
falls to epsilon.  With the default update factor theta = 1/(e^(2r) sqrt(n))
the iterate count provably stays within `iteration_bound`, every iterate
stays interior, and the proximity stays under the threshold; the advisory
monitors record each step's compliance with the inequalities behind that
guarantee, and a strict mode promotes any breach to a hard failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .centralpath import (
    InteriorError,
    IterateState,
    MonitorReport,
    _checked_power,
    monitor_step,
    scaled_directions,
)
from .newton import NumericalError, newton_step
from .problem import Problem, validate_start

__all__ = [
    "AUTO",
    "TRACE_HEADER",
    "SolverConfig",
    "SolveResult",
    "TraceRecord",
    "default_theta",
    "gamma_threshold",
    "iteration_bound",
    "solve",
    "trace_to_csv",
]

AUTO = "auto"

TRACE_HEADER = (
    "iter,mu,gap,gamma,min_w,norm_pw,norm_qw,dxTdz,"
    "primal_res,dual_res,lemma2,lemma4,lemma5,eq111,eq112,eq115"
)


def default_theta(n: int, r: int) -> float:
    """Barrier update factor 1/(e^(2r) sqrt(n)) behind the iteration bound."""
    r = _checked_power(r)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("n must be an integer")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 1.0 / (math.exp(2.0 * r) * math.sqrt(n))


def gamma_threshold(r: int) -> float:
    """Proximity admission threshold 1/e^r."""
    return math.exp(-float(_checked_power(r)))


def iteration_bound(mu0: float, n: int, r: int, epsilon: float) -> int:
    """Proven iteration ceiling for the default update factor.

    ceil(e^(2r) sqrt(n) ln(mu0 (n + (r-1)^2/e^(2r)) / epsilon)), in the
    natural logarithm, or 0 when the argument of the log is at most 1
    (the start already meets the target).
    """
    r = _checked_power(r)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("n must be an integer")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise ValueError(f"mu0 must be finite and positive, got {mu0}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    argument = mu0 * (n + (r - 1) ** 2 * math.exp(-2.0 * r)) / epsilon
    if argument <= 1.0:
        return 0
    return math.ceil(math.exp(2.0 * r) * math.sqrt(n) * math.log(argument))


@dataclass(frozen=True)
class SolverConfig:
    """Loop parameters; "auto" defers to the analysis defaults.

    Auto resolution: theta to 1/(e^(2r) sqrt(n)), gamma to 1/e^r, and
    max_iterations to ten times the theoretical bound, so a numerical
    stall surfaces as iteration_cap instead of an endless loop.  With
    strict_monitors set, any false monitor flag aborts the run as a
    numerical failure; by default monitors only annotate the trace.
    """

    epsilon: float = 1e-6
    r: int = 1
    theta: Union[float, str] = AUTO
    gamma: Union[float, str] = AUTO
    max_iterations: Union[int, str] = AUTO
    strict_monitors: bool = False

    def __post_init__(self):
        if not (
            isinstance(self.epsilon, (int, float))
            and not isinstance(self.epsilon, bool)
            and math.isfinite(self.epsilon)
            and self.epsilon > 0
        ):
            raise ValueError(f"epsilon must be a positive real, got {self.epsilon!r}")
        _checked_power(self.r)
        if self.theta != AUTO:
            if not (
                isinstance(self.theta, (int, float)) and 0.0 < self.theta < 1.0
            ):
                raise ValueError(
                    f"theta must be in (0, 1) or {AUTO!r}, got {self.theta!r}"
                )
        if self.gamma != AUTO:
            if not (
                isinstance(self.gamma, (int, float))
                and math.isfinite(self.gamma)
                and self.gamma > 0.0
            ):
                raise ValueError(
                    f"gamma must be a positive real or {AUTO!r}, got {self.gamma!r}"
                )
        if self.max_iterations != AUTO:
            if (
                not isinstance(self.max_iterations, (int, np.integer))
                or isinstance(self.max_iterations, bool)
                or self.max_iterations < 1
            ):
                raise ValueError(
                    f"max_iterations must be a positive integer or {AUTO!r}, "
                    f"got {self.max_iterations!r}"
                )

    def resolved_theta(self, n: int) -> float:
        return default_theta(n, self.r) if self.theta == AUTO else float(self.theta)

    def resolved_gamma(self) -> float:
        return gamma_threshold(self.r) if self.gamma == AUTO else float(self.gamma)

    def resolved_max_iterations(self, bound: int) -> int:
        if self.max_iterations == AUTO:
            return 10 * bound
        return int(self.max_iterations)


@dataclass(frozen=True)
class TraceRecord:
    """Diagnostics of one completed iteration.

    `iteration` counts from 1.  mu and gamma describe the iterate after
    the full step at the updated barrier value; primal_res and dual_res
    are the feasibility residuals of the new iterate.  The last three
    fields support cheap offline verification: the gradient norm scales
    the dual tolerance, kernel_defect is ||dx + dz - p_w|| in scaled
    space, and scaled_primal is ||A dx_full|| / mu, the first equation of
    the scaled step system.
    """

    iteration: int
    mu: float
    gap: float
    gamma: float
    min_w: float
    norm_pw: float
    norm_qw: float
    dxTdz: float
    primal_res: float
    dual_res: float
    monitors: MonitorReport
    grad_norm: float
    kernel_defect: float
    scaled_primal: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Final iterate, status, and the per-iteration trace.

    status is one of converged, iteration_cap, numerical_failure, or
    invalid_start.  On converged runs gap_final <= epsilon; on failures
    the vectors hold the last interior iterate reached (the start, for
    invalid_start).  monitor_violations counts false monitor flags summed
    over all recorded iterations.
    """

    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu_final: float
    gap_final: float
    iterations: int
    bound: int
    trace: tuple[TraceRecord, ...]
    monitor_violations: int


def solve(p: Problem, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Run the full-Newton-step loop on a problem with a start point.

    The start is graded first (against cfg's gamma when overridden);
    an inadmissible one yields status invalid_start with the start
    echoed back.  A problem without a start raises ValueError, since
    there is nothing to grade.  See SolveResult for the other statuses.
    """
    if p.start is None:
        raise ValueError("problem carries no start point")
    n = p.n
    if n < 2:
        raise ValueError(f"solver requires n >= 2, got {n}")
    start = p.start
    gamma_limit = cfg.resolved_gamma()
    report = validate_start(p, start, cfg.r, gamma_limit=gamma_limit)
    gap0 = float(start.x0 @ start.z0)
    mu0 = gap0 / n
    bound = (
        iteration_bound(mu0, n, cfg.r, cfg.epsilon)
        if math.isfinite(mu0) and mu0 > 0.0
        else 0
    )
    if not report.admissible:
        return SolveResult(
            status="invalid_start",
            x=start.x0,
            y=start.y0,
            z=start.z0,
            mu_final=mu0,
            gap_final=gap0,
            iterations=0,
            bound=bound,
            trace=(),
            monitor_violations=0,
        )

    theta = cfg.resolved_theta(n)
    limit = cfg.resolved_max_iterations(bound)
    x = np.array(start.x0)
    y = np.array(start.y0)
    z = np.array(start.z0)
    mu = mu0
    gap = gap0
    iterations = 0
    violations = 0
    records: list[TraceRecord] = []
    status = "converged"

    while gap > cfg.epsilon:
        if iterations >= limit:
            status = "iteration_cap"
            break
        mu *= 1.0 - theta
        before = IterateState.from_point(x, y, z, mu)
        try:
            step = newton_step(p, before, mu, cfg.r)
        except (NumericalError, InteriorError):
            status = "numerical_failure"
            break
        x_next = x + step.dx_full
        y_next = y + step.dy_full
        z_next = z + step.dz_full
        if x_next.min() <= 0.0 or z_next.min() <= 0.0:
            status = "numerical_failure"
            break
        x, y, z = x_next, y_next, z_next
        iterations += 1
        gap = float(x @ z)
        after = IterateState.from_point(x, y, z, mu)
        directions = scaled_directions(step, before, cfg.r, check=False)
        monitors = monitor_step(before, after, directions, cfg.r)
        violations += monitors.violation_count
        gradient = p.objective.evaluate(x)[1]
        records.append(
            TraceRecord(
                iteration=iterations,
                mu=mu,
                gap=gap,
                gamma=monitors.gamma_after,
                min_w=float(after.w.min()),
                norm_pw=float(np.linalg.norm(directions.pw)),
                norm_qw=float(np.linalg.norm(directions.qw)),
                dxTdz=directions.dxTdz,
                primal_res=float(np.linalg.norm(p.A @ x - p.b)),
                dual_res=float(np.linalg.norm(p.A.T @ y + z - gradient)),
                monitors=monitors,
                grad_norm=float(np.linalg.norm(gradient)),
                kernel_defect=float(
                    np.linalg.norm(directions.dx + directions.dz - directions.pw)
                ),
                scaled_primal=float(np.linalg.norm(p.A @ step.dx_full)) / mu,
            )
        )
        if cfg.strict_monitors and monitors.violation_count:
            status = "numerical_failure"
            break

    for arr in (x, y, z):
        arr.setflags(write=False)
    return SolveResult(
        status=status,
        x=x,
        y=y,
        z=z,
        mu_final=mu,
        gap_final=gap,
        iterations=iterations,
        bound=bound,
        trace=tuple(records),
        monitor_violations=violations,
    )


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def trace_to_csv(trace) -> str:
    """Render trace records in the fixed comma-separated export layout.

    One row per iteration under the TRACE_HEADER columns, numbers with 17
    significant digits, monitor flags as 1/0.  The output is a pure
    function of the records, so equal traces serialize byte-identically.
    """
    lines = [TRACE_HEADER]
    for record in trace:
        monitors = record.monitors
        lines.append(
            ",".join(
                [
                    str(record.iteration),
                    _g17(record.mu),
                    _g17(record.gap),
                    _g17(record.gamma),
                    _g17(record.min_w),
                    _g17(record.norm_pw),
                    _g17(record.norm_qw),
                    _g17(record.dxTdz),
                    _g17(record.primal_res),
                    _g17(record.dual_res),
                    "1" if monitors.lemma2_ok else "0",
                    "1" if monitors.lemma4_ok else "0",
                    "1" if monitors.lemma5_ok else "0",
                    "1" if monitors.eq111_ok else "0",
                    "1" if monitors.eq112_ok else "0",
                    "1" if monitors.eq115_ok else "0",
                ]
            )
        )
    return "\n".join(lines) + "\n"
