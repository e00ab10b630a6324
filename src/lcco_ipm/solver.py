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
    MonitorReport,
    _checked_power,
    _directions,
    _dot,
    _grade,
    _monitor_terms,
    _norm,
    _p,
    _scaling,
)
from .newton import RESIDUAL_LIMIT, _factor, _newton_step, _null_space
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
    "solve_many",
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

    Auto resolution: theta to 1/(e^(2r) sqrt(n)) and max_iterations to
    ten times the theoretical bound, so a numerical stall surfaces as
    iteration_cap instead of an endless loop.  The admission threshold is
    not a parameter: the analysis fixes it at 1/e^r (`gamma_threshold`).
    With strict_monitors set, any false monitor flag aborts the run as a
    numerical failure; by default monitors only annotate the trace.
    """

    epsilon: float = 1e-6
    r: int = 1
    theta: Union[float, str] = AUTO
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

    def resolved_max_iterations(self, bound: int) -> int:
        if self.max_iterations == AUTO:
            return 10 * bound
        return int(self.max_iterations)


@dataclass(frozen=True, slots=True)
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

    The start is graded first against the admission threshold 1/e^r;
    an inadmissible one yields status invalid_start with the start
    echoed back.  A problem without a start raises ValueError, since
    there is nothing to grade.  See SolveResult for the other statuses.
    This is the one-member case of `solve_many`.
    """
    return solve_many([p], cfg)[0]


def solve_many(
    problems, cfg: SolverConfig = SolverConfig(), *, on_record=None
) -> list[SolveResult]:
    """Run `solve` on problems of one shape (n, m) in lockstep, in order.

    The members share each step's array arithmetic, which pays the
    per-step overhead once per batch.  Each keeps its own barrier value,
    bound, iteration cap, factorization, residual gate, trace and status,
    and leaves the batch when it stops, so every result equals its solo
    `solve` bit for bit.  Problems of mixed shape raise ValueError.

    With on_record, each record goes to on_record(index, record) as soon
    as it is made, index being the member's place in `problems`, and the
    results' traces stay empty; a caller that needs only a summary of the
    trace then never holds it whole.
    """
    problems = list(problems)
    if len({(p.n, p.m) for p in problems}) > 1:
        raise ValueError("solve_many needs problems of one shape (n, m)")
    if any(p.start is None for p in problems):
        raise ValueError("problem carries no start point")
    if problems and problems[0].n < 2:
        raise ValueError(f"solver requires n >= 2, got {problems[0].n}")
    results: list = [None] * len(problems)
    bounds = []
    for i, p in enumerate(problems):
        start = p.start
        gap0 = float(start.x0 @ start.z0)
        mu0 = gap0 / p.n
        positive = math.isfinite(mu0) and mu0 > 0.0
        bounds.append(iteration_bound(mu0, p.n, cfg.r, cfg.epsilon) if positive else 0)
        if not validate_start(p, start, cfg.r).admissible:
            results[i] = SolveResult(
                status="invalid_start",
                x=start.x0,
                y=start.y0,
                z=start.z0,
                mu_final=mu0,
                gap_final=gap0,
                iterations=0,
                bound=bounds[i],
                trace=(),
                monitor_violations=0,
            )
    ids = [i for i, result in enumerate(results) if result is None]
    if not ids:
        return results

    # Starts were checked above and each new iterate is checked once below,
    # so the loop runs the unchecked kernels on (B, .) stacks.  A member that
    # fails inside a step leaves, and the rest retake that step without it.
    n, r = problems[0].n, cfg.r
    shrink = 1.0 - cfg.resolved_theta(n)
    starts = [problems[i].start for i in ids]
    x, y, z = (np.array([getattr(s, key) for s in starts]) for key in ("x0", "y0", "z0"))
    A, b = (np.array([getattr(problems[i], key) for i in ids]) for key in ("A", "b"))
    gap = np.array([float(s.x0 @ s.z0) for s in starts])
    mu = gap / n
    limit = np.array([cfg.resolved_max_iterations(bounds[i]) for i in ids])
    gradient, hessian = np.empty_like(x), np.empty((len(ids), n, n))
    for k, i in enumerate(ids):
        _, gradient[k], hessian[k] = problems[i].objective.evaluate(x[k])
    space = _null_space(A, hessian)  # the Hessian of f is constant
    records = [[] for _ in problems]
    if on_record is None:

        def on_record(i, record):
            records[i].append(record)

    violations = [0] * len(problems)
    steps = 0  # members step in lockstep, so every active one has taken `steps`

    def finish(k, status, mu_k):
        vectors = x[k].copy(), y[k].copy(), z[k].copy()
        for arr in vectors:
            arr.setflags(write=False)
        i = ids[k]
        results[i] = SolveResult(
            status=status,
            x=vectors[0],
            y=vectors[1],
            z=vectors[2],
            mu_final=float(mu_k),
            gap_final=float(gap[k]),
            iterations=steps,
            bound=bounds[i],
            trace=tuple(records[i]),
            monitor_violations=violations[i],
        )

    settle = True  # some member may have stopped
    while True:
        if settle:
            for k in np.flatnonzero(~((gap > cfg.epsilon) & (steps < limit))):
                if results[ids[k]] is None:
                    finish(k, "converged" if not gap[k] > cfg.epsilon else "iteration_cap", mu[k])
            keep = np.array([results[i] is None for i in ids])
            if not keep.all():
                ids = [i for i, kept in zip(ids, keep) if kept]
                if not ids:
                    return results
                mu, gap, limit, x, y, z, A, b, gradient, *space = (
                    a[keep] for a in (mu, gap, limit, x, y, z, A, b, gradient, *space)
                )
            settle, stop = False, limit.min()
        shrunk = mu * shrink
        column = shrunk[:, np.newaxis]
        w = _scaling(x, z, column)
        pw = _p(w, r)
        scale, factors = _factor(*space, x, z)
        dx, dy, dz, a_dx, residual = _newton_step(
            A, *space[:2], x, z, column * w * pw, scale, factors
        )
        x_next, z_next = x + dx, z + dz
        if not (max(residual) <= RESIDUAL_LIMIT and x_next.min() > 0.0 and z_next.min() > 0.0):
            fine = np.array(residual) <= RESIDUAL_LIMIT
            fine &= (x_next.min(axis=1) > 0.0) & (z_next.min(axis=1) > 0.0)
            for k in np.flatnonzero(~fine):
                finish(k, "numerical_failure", shrunk[k])
            settle = True
            continue
        dx_s, dz_s, qw, dxTdz = _directions(w, x, z, dx, dz)
        mu, steps = shrunk, steps + 1
        x, y, z = x_next, y + dy, z_next
        gap = _dot(x, z)
        terms = _monitor_terms(w, _scaling(x, z, column), pw, r)
        for k, i in enumerate(ids):
            gradient[k] = problems[i].objective.evaluate(x[k])[1]
        primal = _norm((A @ x[:, :, np.newaxis])[:, :, 0] - b)
        dual = (A.transpose(0, 2, 1) @ y[:, :, np.newaxis])[:, :, 0] + z - gradient
        norms = _norm(np.array([pw, qw, dual, gradient, dx_s + dz_s - pw]))
        # One list of Python floats per quantity, indexed by member.
        gamma_before, gamma_after, min_w, eq115 = np.array(terms).tolist()
        norm_pw, norm_qw, dual_res, grad_norm, defect = norms.tolist()
        dxTdz, gaps, mus, primal_res, a_dx = np.array([dxTdz, gap, mu, primal, a_dx]).tolist()
        for k, i in enumerate(ids):
            monitors = _grade(
                gamma_before[k], gamma_after[k], min_w[k], eq115[k], norm_pw[k],
                norm_qw[k], dxTdz[k], gaps[k], mus[k], n, r,
            )
            failed = monitors.violation_count
            violations[i] += failed
            on_record(i, TraceRecord(
                iteration=steps,
                mu=mus[k],
                gap=gaps[k],
                gamma=gamma_after[k],
                min_w=min_w[k],
                norm_pw=norm_pw[k],
                norm_qw=norm_qw[k],
                dxTdz=dxTdz[k],
                primal_res=primal_res[k],
                dual_res=dual_res[k],
                monitors=monitors,
                grad_norm=grad_norm[k],
                kernel_defect=defect[k],
                scaled_primal=a_dx[k] / mus[k],
            ))
            if cfg.strict_monitors and failed:
                finish(k, "numerical_failure", mus[k])
            settle = settle or not gaps[k] > cfg.epsilon or results[i] is not None
        settle = settle or steps >= stop


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
                    # lemma2, lemma4, lemma5, eq111, eq112, eq115, as in the header
                    *("1" if ok else "0" for ok in record.monitors.flags.values()),
                ]
            )
        )
    return "\n".join(lines) + "\n"
