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

A step computes only what the next one needs: the scaling, the factored
step system with each member's condition, the directions and H dx, the
update and the gap.  Every step is checked, but with its block, as array
code over a leading step axis: the residuals of the step equations, the
condition against SINGULAR_CONDITION, and x > 0 and z > 0 after the step.
A block of a batch of B members with n coordinates holds 4096 // (B n)
steps, and at least one, so that no (steps, B, n) array of it exceeds
4096 elements.  Each pass of the loop checks the last block, ends every
member that stopped, and runs the next block until a member reaches its
target or its cap.  That is the one place where a member ends: as
invalid_start on the first pass, before any step; as numerical_failure on
the iterate before its first step that fails a check, or under strict
monitors after its first step that breaches a monitor, as if it had been
stopped there; or else as converged or iteration_cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
from .newton import (
    RESIDUAL_LIMIT,
    SINGULAR_CONDITION,
    _factor,
    _newton_step,
    _null_space,
    _verify,
)
from .problem import Problem, validate_start

__all__ = [
    "AUTO",
    "TRACE_HEADER",
    "SolverConfig",
    "SolveResult",
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


def _checked_size(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("n must be an integer")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return n


def default_theta(n: int, r: int) -> float:
    """Barrier update factor 1/(e^(2r) sqrt(n)) behind the iteration bound."""
    r = _checked_power(r)
    return 1.0 / (math.exp(2.0 * r) * math.sqrt(_checked_size(n)))


def gamma_threshold(r: int) -> float:
    """Proximity admission threshold 1/e^r."""
    return math.exp(-float(_checked_power(r)))


def iteration_bound(mu0: float, n: int, r: int, epsilon: float) -> int:
    """Proven iteration ceiling for the default update factor.

    ceil(e^(2r) sqrt(n) ln(mu0 (n + (r-1)^2/e^(2r)) / epsilon)), in the
    natural logarithm, or 0 when the argument of the log is at most 1
    (the start already meets the target).  Where the argument overflows,
    its log is taken as the sum of the logs of its factors.
    """
    r = _checked_power(r)
    n = _checked_size(n)
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise ValueError(f"mu0 must be finite and positive, got {mu0}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    ceiling = n + (r - 1) ** 2 * math.exp(-2.0 * r)
    argument = mu0 * ceiling / epsilon
    if argument <= 1.0:
        return 0
    if argument == math.inf:
        log = math.log(mu0) + math.log(ceiling) - math.log(epsilon)
    else:
        log = math.log(argument)
    return math.ceil(math.exp(2.0 * r) * math.sqrt(n) * log)


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


# One row of a trace, with the fields SolveResult lists, packed: 166 bytes.
# A MonitorReport field has the type its dataclass annotates, a string
# ("float" or "bool") that numpy reads as a dtype.
_TRACE_ROW = np.dtype(
    [("iteration", "int")]
    + [(name, "float") for name in ("mu", "gap", "gamma", "min_w", "norm_pw", "norm_qw",
                                    "dxTdz", "primal_res", "dual_res", "grad_norm",
                                    "kernel_defect", "scaled_primal")]
    + [(f.name, f.type) for f in fields(MonitorReport) if f.name != "gamma_after"]
    + [(name, "float") for name in ("eq115_slack", "condition", "step_residual")]
)
_FLAGS = [name for name in _TRACE_ROW.names if _TRACE_ROW[name].kind == "b"]


def _trace(rows: np.ndarray) -> np.recarray:
    # A read-only recarray view of (T,) rows of dtype _TRACE_ROW.
    trace = rows.view(np.recarray)
    trace.setflags(write=False)
    return trace


def _join(parts) -> np.recarray:
    # One trace of `parts` in order; the empty trace if there are none.
    # Joined as opaque rows: numpy promotes a structured dtype field by
    # field in Python, which took 13 times as long for 12 parts.
    raw = np.dtype((np.void, _TRACE_ROW.itemsize))
    rows = [np.empty(0, raw), *(part.view(raw) for part in parts)]
    return _trace(np.concatenate(rows).view(_TRACE_ROW))


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Final iterate, status, and the per-iteration trace.

    status is one of converged, iteration_cap, numerical_failure, or
    invalid_start.  On converged runs gap_final <= epsilon; on failures
    the vectors hold the last interior iterate reached (the start, for
    invalid_start).  monitor_violations counts false monitor flags summed
    over all recorded iterations.

    trace holds one row per completed iteration as a read-only
    np.recarray: each field reads as a read-only column (`trace.gamma`),
    `trace[i]` is one np.record (`trace[i].gamma`), and a slice is a
    trace.  The fields: `iteration`, counting from 1; mu and gamma of the
    iterate after the full step at the updated barrier value, and its gap,
    min_w, norm_pw, norm_qw and dxTdz; primal_res and dual_res, the
    feasibility residuals of the new iterate; grad_norm, which scales the
    dual tolerance; kernel_defect, ||dx + dz - p_w|| in scaled space;
    scaled_primal, ||A dx_full|| / mu, the first equation of the scaled
    step system; the fields of the step's MonitorReport (the flags
    lemma2_ok, ..., eq112_ok as bools, then gamma_before,
    contraction_bound, gap_bound and worst_margin; its gamma_after is
    gamma); eq115_slack, the smallest eq115 slack; condition, the 1-norm
    condition of the step system, as `NewtonStep` has it; and
    step_residual, the worst relative residual of the step equations.
    """

    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu_final: float
    gap_final: float
    iterations: int
    bound: int
    trace: np.recarray
    monitor_violations: int


# Most elements of one (steps, B, n) array of a block: a block holds
# _CHUNK // (B n) steps, and at least one, before it is checked and graded.
# Checking and grading a block holds some twenty such arrays, so this bounds
# its memory near 0.7 MB whatever B n is.
_CHUNK = 4096


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
    problems, cfg: SolverConfig = SolverConfig(), *, on_block=None
) -> list[SolveResult]:
    """Run `solve` on problems of one shape (n, m) in lockstep, in order.

    The members share each step's array arithmetic, which pays the
    per-step overhead once per batch.  Each keeps its own barrier value,
    bound, iteration cap, factorization, step checks, trace and status,
    and leaves the batch when it stops, so every result equals its solo
    `solve` bit for bit.  Problems of mixed shape raise ValueError.

    A step does only what decides the next one: the scaling, the kernel,
    the factorization with each member's condition, the solve with its
    refinement pass (dx, dy, dz and H dx), the update and the gap.  It
    stores its iterate, step and scalars in a block, and the rest is
    evaluated for the whole block at once, with the same kernels over a
    leading step axis.  First the checks every step must pass: its
    residuals (`step_residual`, at most RESIDUAL_LIMIT), its condition
    (at most SINGULAR_CONDITION) and x > 0 and z > 0 after it.  Then the
    scaled directions, the feasibility residuals, the monitor terms and
    norms, and the grading.  Each pass of the loop does that for the last
    block, ends every member that stopped, and runs the next block.  A
    member whose step t of the block fails a check ends as
    numerical_failure on the iterate before step t, and under
    strict_monitors one whose step t breaches a monitor ends so on the
    iterate after it.  Its mu_final is step t's barrier value, and its
    gap, iterations, trace rows and violations are those up to the
    iterate it ends on; what it computed after that is dropped, and no
    other member's arithmetic depends on it.
    With on_block, each member's part of a graded block goes to
    on_block(index, block), index being the member's place in `problems`
    and block a trace of its next iterations, as SolveResult describes
    one, and the results' traces stay empty; a caller that needs only a
    summary of the trace then never holds it whole.  on_block runs under
    the caller's numpy error state; the steps run with floating-point
    warnings off, since a failing member's NaN or inf raises none before
    its block is checked.
    """
    problems = list(problems)
    if len({(p.n, p.m) for p in problems}) > 1:
        raise ValueError("solve_many needs problems of one shape (n, m)")
    if any(p.start is None for p in problems):
        raise ValueError("problem carries no start point")
    if not problems:
        return []
    if problems[0].n < 2:
        raise ValueError(f"solver requires n >= 2, got {problems[0].n}")
    results: list = [None] * len(problems)
    reports = [validate_start(p, p.start, cfg.r) for p in problems]
    bounds = []
    for p, report in zip(problems, reports):
        mu0 = report.gap0 / p.n
        positive = math.isfinite(mu0) and mu0 > 0.0
        bounds.append(iteration_bound(mu0, p.n, cfg.r, cfg.epsilon) if positive else 0)

    # Starts were checked above and each new iterate is checked once below,
    # so the loop runs the unchecked kernels on (B, .) stacks.  Members with
    # an inadmissible start are stacked too, and end before any step.
    ids = list(range(len(problems)))
    n, r = problems[0].n, cfg.r
    shrink = 1.0 - cfg.resolved_theta(n)
    x, y, z = (np.array([getattr(p.start, key) for p in problems]) for key in ("x0", "y0", "z0"))
    A, b = (np.array([getattr(p, key) for p in problems]) for key in ("A", "b"))
    gap = np.array([report.gap0 for report in reports])
    mu = gap / n
    limit = np.array([cfg.resolved_max_iterations(bound) for bound in bounds])
    with np.errstate(all="ignore"):  # f at an inadmissible start may overflow
        hessian = np.array([p.objective.evaluate(x[k])[2] for k, p in enumerate(problems)])
    space = _null_space(A, hessian)  # the Hessian of f is constant
    # The gradient is c + Q x, as ObjectiveSpec.evaluate has it, with Q = 0
    # for a linear objective.
    c = np.array([p.objective.c for p in problems])
    Q = hessian
    Q[[p.objective.kind == "linear" for p in problems]] = 0.0
    parts = [[] for _ in problems]
    if on_block is None:

        def on_block(i, block):
            parts[i].append(block)

    violations = [0] * len(problems)
    steps = 0  # members step in lockstep, so every active one has taken `steps`
    rows = 0  # steps of the last block, none before the first
    through = [0] * len(problems)  # the steps of that block each member ran through
    caller = np.geterr()  # on_block runs under the caller's error state
    # One pass of the loop per block.  A member whose step failed a check
    # runs on, perhaps on NaN or inf, until its block is checked; until then
    # its arithmetic raises no warning.  Each member's arithmetic is its own,
    # so it disturbs no other.
    with np.errstate(all="ignore"):
        while True:
            if rows:
                # Check, evaluate and grade the block, and pass each member
                # its part up to the step at which it stops.  Matrix-vector
                # products broadcast A over the step axis, which keeps each
                # product a gemv with the bits of the one-step form.
                written = block[:rows]
                # Each step's x and z before and after it, from the iterate history.
                xt, zt = (np.stack((h[:rows], h[1 : rows + 1])) for h in (xs, zs))
                dx, dy, dz, h_dx = dxs[:rows], dys[:rows], dzs[:rows], h_dxs[:rows]
                # ys[t] is y before step t of the block and ys[t + 1] after it,
                # summed in step order, so each has the bits of y + dy step by step.
                ys = np.add.accumulate(np.concatenate([y[np.newaxis], dy]))
                mu_t = written["mu"][..., np.newaxis]
                w = _scaling(xt, zt, mu_t)
                p = _p(w, r)
                a_dx, residual = _verify(xt[0], zt[0], mu_t * w[0] * p[0], dx, dy, dz, h_dx, A)
                # A step passes when its residual and condition are within their
                # limits and its new iterate is interior; each comparison rejects
                # NaN.
                passed = residual <= RESIDUAL_LIMIT
                passed &= written["condition"] <= SINGULAR_CONDITION
                passed &= (xt[1].min(axis=-1) > 0.0) & (zt[1].min(axis=-1) > 0.0)
                (written["gamma_before"], written["gamma"], written["min_w"],
                 written["eq115_slack"]) = _monitor_terms(w, p, p[0])
                dx_s, dz_s, qw, written["dxTdz"] = _directions(w[0], xt[0], zt[0], dx, dz)
                gradient = c + np.matmul(Q, xt[1, ..., np.newaxis])[..., 0]
                a_y = np.matmul(A.transpose(0, 2, 1), ys[1:, ..., np.newaxis])[..., 0]
                dual = a_y + zt[1] - gradient
                written["norm_pw"] = _norm(p[0])
                written["norm_qw"] = _norm(qw)
                written["dual_res"] = _norm(dual)
                written["grad_norm"] = _norm(gradient)
                written["kernel_defect"] = _norm(dx_s + dz_s - p[0])
                written["primal_res"] = _norm(np.matmul(A, xt[1, ..., np.newaxis])[..., 0] - b)
                written["scaled_primal"] = a_dx / written["mu"]
                written["step_residual"] = residual
                # Held through the next block's steps, these would add to the
                # peak memory that _CHUNK bounds.
                del xt, zt, w, p, dx_s, dz_s, qw, gradient, a_y, dual
                graded = ("gamma_before", "gamma", "min_w", "eq115_slack", "norm_pw", "norm_qw",
                          "dxTdz", "gap", "mu")
                (flags, written["contraction_bound"], written["gap_bound"],
                 written["worst_margin"]) = _grade(*(written[name] for name in graded), n, r)
                for name, flag in zip(_FLAGS, flags):
                    written[name] = flag
                written["iteration"] = np.arange(steps - rows + 1, steps + 1)[:, np.newaxis]
                y = ys[rows]
                # A member runs through the steps that pass and, under strict
                # monitors, breach nothing.  It keeps the rows before the first other
                # step, and that step's row too if it passed: a breach ends after it.
                go = passed & flags.all(axis=0) if cfg.strict_monitors else passed
                ran = np.logical_and.accumulate(go, axis=0)
                valid = passed.copy()
                valid[1:] &= ran[:-1]
                failed = np.count_nonzero(~flags & valid, axis=(0, 1)).tolist()
                kept = np.count_nonzero(valid, axis=0).tolist()
                through = np.count_nonzero(ran, axis=0).tolist()
                with np.errstate(**caller):
                    for k, i in enumerate(ids):
                        violations[i] += failed[k]
                        if kept[k]:
                            on_block(i, _trace(written[: kept[k], k]))
            # The one place where a member ends, as the module docstring lists.
            for k, i in enumerate(ids):
                mu_k, iterations = mu[k], steps
                if not reports[i].admissible:  # on the first pass, before any step
                    status = "invalid_start"
                elif through[k] < rows:  # member k stopped at step t and ends on iterate e
                    t, e = through[k], kept[k]
                    x[k], y[k], z[k] = xs[e, k], ys[e, k], zs[e, k]
                    gap[k] = _dot(x[k], z[k])
                    status = "numerical_failure"
                    mu_k, iterations = written["mu"][t, k], steps - rows + e
                elif not gap[k] > cfg.epsilon:
                    status = "converged"
                elif steps >= limit[k]:
                    status = "iteration_cap"
                else:
                    continue
                vectors = x[k].copy(), y[k].copy(), z[k].copy()
                for arr in vectors:
                    arr.setflags(write=False)
                results[i] = SolveResult(
                    status=status,
                    x=vectors[0],
                    y=vectors[1],
                    z=vectors[2],
                    mu_final=float(mu_k),
                    gap_final=float(gap[k]),
                    iterations=iterations,
                    bound=bounds[i],
                    trace=_join(parts[i]),
                    monitor_violations=violations[i],
                )
            keep = np.array([results[i] is None for i in ids])
            if not keep.all():
                ids = [i for i, kept in zip(ids, keep) if kept]
                if not ids:
                    return results
                mu, gap, limit, x, y, z, A, b, c, Q, *space = (
                    a[keep] for a in (mu, gap, limit, x, y, z, A, b, c, Q, *space)
                )
            stop = limit.min()
            depth = max(1, _CHUNK // x.size)
            # Row t of xs and zs is x and z before step t of the block and
            # row t + 1 after it; and each step's dx, dz, H dx and dy.  The
            # block's trace rows belong to its members' traces once graded.
            xs, zs = np.empty((2, depth + 1, *x.shape))
            dxs, dzs, h_dxs = np.empty((3, depth, *x.shape))
            dys = np.empty((depth, *y.shape))
            block = np.empty((depth, len(ids)), _TRACE_ROW)
            xs[0], zs[0] = x, z
            for rows in range(1, depth + 1):
                # A step computes only what the next one needs; its block checks it.
                shrunk = mu * shrink
                column = shrunk[:, np.newaxis]
                w = _scaling(x, z, column)
                inverse, conditions = _factor(*space, x, z)
                dx, dy, dz, h_dx = _newton_step(*space[:2], x, z, column * w * _p(w, r), inverse)
                for stack, value in zip((dxs, dzs, h_dxs, dys), (dx, dz, h_dx, dy)):
                    stack[rows - 1] = value
                mu, steps = shrunk, steps + 1
                x, z = np.add(x, dx, out=xs[rows]), np.add(z, dz, out=zs[rows])
                gap = _dot(x, z)
                step = block[rows - 1]
                step["mu"], step["gap"], step["condition"] = mu, gap, conditions
                if steps >= stop or not gap.min() > cfg.epsilon:
                    break


# The row fields in TRACE_HEADER order ("iter" is iteration, and a flag is
# its MonitorReport field), and one CSV line of them: 17 significant
# digits for a float, 1/0 for a flag.
_CSV_FIELDS = ["iteration"] + [
    name if name in _TRACE_ROW.names else name + "_ok" for name in TRACE_HEADER.split(",")[1:]
]
_CSV_ROW = ",".join(
    "%.17g" if _TRACE_ROW[name].kind == "f" else "%d" for name in _CSV_FIELDS
) + "\n"


def trace_to_csv(trace: np.recarray) -> str:
    """Render a trace in the fixed comma-separated export layout.

    One row per iteration under the TRACE_HEADER columns, numbers with 17
    significant digits, monitor flags as 1/0.  The output is a pure
    function of the rows, so equal traces serialize byte-identically.
    """
    rows = trace[_CSV_FIELDS].tolist()
    return TRACE_HEADER + "\n" + "".join([_CSV_ROW % row for row in rows])
