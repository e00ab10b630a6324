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
import operator
from collections.abc import Sequence
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
from .newton import RESIDUAL_LIMIT, _factor, _newton_step, _null_space
from .problem import Problem, validate_start

__all__ = [
    "AUTO",
    "TRACE_HEADER",
    "SolverConfig",
    "SolveResult",
    "Trace",
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


# One row of a Trace: iteration and the floats of TraceRecord, then the
# flags and floats of its MonitorReport (gamma_after is gamma), then three
# values no record carries.  Every column, the step block and the CSV
# export are fields of this dtype.  Each field has the type its dataclass
# annotates, a string ("int", "float" or "bool") that numpy reads as a dtype.
_TRACE_ROW = np.dtype(
    [(f.name, f.type) for f in fields(TraceRecord) if f.name != "monitors"]
    + [(f.name, f.type) for f in fields(MonitorReport) if f.name != "gamma_after"]
    + [(name, "float") for name in ("eq115_slack", "condition", "step_residual")]
)
_FLAGS = [name for name in _TRACE_ROW.names if _TRACE_ROW[name].kind == "b"]


# Where `_record` finds each field of a record in a row: gamma_after is
# gamma, and the monitor report is appended to the row.
_AT = {name: k for k, name in enumerate(_TRACE_ROW.names)}
_AT.update(gamma_after=_AT["gamma"], monitors=len(_AT))
_REPORT_VALUES = operator.itemgetter(*(_AT[f.name] for f in fields(MonitorReport)))
_RECORD_VALUES = operator.itemgetter(*(_AT[f.name] for f in fields(TraceRecord)))


def _record(row: tuple) -> TraceRecord:
    # One row of a Trace, from the Python values `tolist` gives.
    return TraceRecord(*_RECORD_VALUES((*row, MonitorReport(*_REPORT_VALUES(row)))))


class Trace(Sequence):
    """A run's trace: a read-only sequence of TraceRecord, held as one row array.

    A record is built only when it is read, and a trace equals any
    sequence of equal records, so `trace == ()` holds for an empty one.
    A slice is a Trace.  Each field of the rows reads as a read-only
    array: `trace.iteration`, `trace.gamma`, and likewise every float
    field of TraceRecord (mu, gap, ..., scaled_primal), the fields of its
    monitor report (the flags lemma2_ok, ..., eq112_ok as bools, then
    gamma_before, contraction_bound, gap_bound and worst_margin), and
    three fields no record carries: eq115_slack, the smallest eq115
    slack; condition, the condition estimate of the step system; and
    step_residual, the worst relative residual of the step equations.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        # (T,) rows of dtype _TRACE_ROW.
        rows.setflags(write=False)
        self._rows = rows

    @classmethod
    def concat(cls, parts) -> "Trace":
        """One trace of `parts` in order; the empty trace if there are none."""
        # Joined as opaque rows: numpy promotes a structured dtype field by
        # field in Python, which took 13 times as long for 12 parts.
        raw = np.dtype((np.void, _TRACE_ROW.itemsize))
        rows = [np.empty(0, raw), *(part._rows.view(raw) for part in parts)]
        return cls(np.concatenate(rows).view(_TRACE_ROW))

    def __getattr__(self, name):
        if name in _TRACE_ROW.names:
            return self._rows[name]
        raise AttributeError(f"'Trace' object has no attribute {name!r}")

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._rows[index])
        return _record(self._rows[index].item())

    def __iter__(self):
        return map(_record, self._rows.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<Trace of {len(self)} records>"


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
    trace: Trace
    monitor_violations: int


# Steps recorded in one block before it is evaluated and graded.  A flush
# holds some sixteen (depth, B, n) arrays at once, so a deeper block adds
# resident memory at large B n and saves little more dispatch.
_BLOCK = 32


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
    bound, iteration cap, factorization, residual gate, trace and status,
    and leaves the batch when it stops, so every result equals its solo
    `solve` bit for bit.  Problems of mixed shape raise ValueError.

    A step does only what decides the next one: the scaling, the kernel,
    the factorization and solve with its residual gate, the interior
    test, the update and the gap.  It stores its iterate, step and
    scalars in a block, and the rest is evaluated for the whole block at
    once, with the same kernels over a leading step axis: the scaled
    directions, the feasibility residuals, the monitor terms and norms,
    and the grading.  That happens when the block is full, when a member
    leaves and when the batch ends, and after every step under
    strict_monitors, so that a breach stops the run at its own step.
    With on_block, each member's part of a graded block goes to
    on_block(index, block), index being the member's place in `problems`
    and block a Trace of its next iterations, and the results' traces
    stay empty; a caller that needs only a summary of the trace then
    never holds it whole.
    """
    problems = list(problems)
    if len({(p.n, p.m) for p in problems}) > 1:
        raise ValueError("solve_many needs problems of one shape (n, m)")
    if any(p.start is None for p in problems):
        raise ValueError("problem carries no start point")
    if problems and problems[0].n < 2:
        raise ValueError(f"solver requires n >= 2, got {problems[0].n}")
    results: list = [None] * len(problems)
    reports = [validate_start(p, p.start, cfg.r) for p in problems]
    bounds = []
    for i, (p, report) in enumerate(zip(problems, reports)):
        start = p.start
        mu0 = report.gap0 / p.n
        positive = math.isfinite(mu0) and mu0 > 0.0
        bounds.append(iteration_bound(mu0, p.n, cfg.r, cfg.epsilon) if positive else 0)
        if not report.admissible:
            results[i] = SolveResult(
                status="invalid_start",
                x=start.x0,
                y=start.y0,
                z=start.z0,
                mu_final=mu0,
                gap_final=report.gap0,
                iterations=0,
                bound=bounds[i],
                trace=Trace.concat(()),
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
    gap = np.array([reports[i].gap0 for i in ids])
    mu = gap / n
    limit = np.array([cfg.resolved_max_iterations(bounds[i]) for i in ids])
    hessian = np.array([problems[i].objective.evaluate(x[k])[2] for k, i in enumerate(ids)])
    space = _null_space(A, hessian)  # the Hessian of f is constant
    # The gradient is c + Q x, as ObjectiveSpec.evaluate has it, with Q = 0
    # for a linear objective; a batch of linear ones skips the product.
    linear = np.array([problems[i].objective.kind == "linear" for i in ids])
    c = np.array([problems[i].objective.c for i in ids])
    curved = not linear.all()
    Q = hessian
    Q[linear] = 0.0
    parts = [[] for _ in problems]
    if on_block is None:

        def on_block(i, block):
            parts[i].append(block)

    violations = [0] * len(problems)
    steps = 0  # members step in lockstep, so every active one has taken `steps`
    depth = 1 if cfg.strict_monitors else _BLOCK
    rows = 0  # steps written to the block and not yet graded

    def flush():
        # Evaluate and grade the block, pass each member its part, and
        # return each member's count of false flags.  Matrix-vector
        # products broadcast A over the step axis, which keeps each
        # product a gemv with the bits of the one-step form.
        nonlocal rows
        if not rows:
            return []
        written = block[:rows]
        x, z = xs[:, :rows], zs[:, :rows]
        dx, dz, y = dxs[:rows], dzs[:rows], ys[:rows]
        np.add(x[0], dx, out=x[1])
        np.add(z[0], dz, out=z[1])
        w = _scaling(x, z, written["mu"][..., np.newaxis])
        p = _p(w, r)
        written["gamma_before"], written["gamma"], written["min_w"], written["eq115_slack"] = (
            _monitor_terms(w, p, p[0])
        )
        dx_s, dz_s, qw, written["dxTdz"] = _directions(w[0], x[0], z[0], dx, dz)
        if curved:
            gradient = c + np.matmul(Q, x[1, ..., np.newaxis])[..., 0]
        else:
            gradient = np.broadcast_to(c, dx.shape)
        dual = np.matmul(A.transpose(0, 2, 1), y[..., np.newaxis])[..., 0] + z[1] - gradient
        written["norm_pw"] = _norm(p[0])
        written["norm_qw"] = _norm(qw)
        written["dual_res"] = _norm(dual)
        written["grad_norm"] = _norm(gradient)
        written["kernel_defect"] = _norm(dx_s + dz_s - p[0])
        written["primal_res"] = _norm(np.matmul(A, x[1, ..., np.newaxis])[..., 0] - b)
        written["scaled_primal"] /= written["mu"]
        graded = ("gamma_before", "gamma", "min_w", "eq115_slack", "norm_pw", "norm_qw",
                  "dxTdz", "gap", "mu")
        flags, written["contraction_bound"], written["gap_bound"], written["worst_margin"] = (
            _grade(*(written[name] for name in graded), n, r)
        )
        for name, flag in zip(_FLAGS, flags):
            written[name] = flag
        written["iteration"] = np.arange(steps - rows + 1, steps + 1)[:, np.newaxis]
        failed = np.count_nonzero(~flags, axis=(0, 1)).tolist()
        for k, i in enumerate(ids):
            violations[i] += failed[k]
            on_block(i, Trace(written[:, k]))
        rows = 0
        return failed

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
            trace=Trace.concat(parts[i]),
            monitor_violations=violations[i],
        )

    settle = True  # some member may have stopped
    while True:
        if settle:
            flush()
            for k in np.flatnonzero(~((gap > cfg.epsilon) & (steps < limit))):
                if results[ids[k]] is None:
                    finish(k, "converged" if not gap[k] > cfg.epsilon else "iteration_cap", mu[k])
            keep = np.array([results[i] is None for i in ids])
            if not keep.all():
                ids = [i for i, kept in zip(ids, keep) if kept]
                if not ids:
                    return results
                mu, gap, limit, x, y, z, A, b, c, Q, *space = (
                    a[keep] for a in (mu, gap, limit, x, y, z, A, b, c, Q, *space)
                )
            settle, stop = False, limit.min()
            # Each step's x and z before and after it, its dx and dz, and its new y.
            xs, zs = np.empty((2, 2, depth, *x.shape))
            dxs, dzs = np.empty((2, depth, *x.shape))
            ys = np.empty((depth, *y.shape))
        shrunk = mu * shrink
        column = shrunk[:, np.newaxis]
        w = _scaling(x, z, column)
        scale, factors = _factor(*space, x, z)
        dx, dy, dz, a_dx, residual = _newton_step(
            A, *space[:2], x, z, column * w * _p(w, r), scale, factors
        )
        x_next, z_next = x + dx, z + dz
        if not (max(residual) <= RESIDUAL_LIMIT and x_next.min() > 0.0 and z_next.min() > 0.0):
            fine = np.array(residual) <= RESIDUAL_LIMIT
            fine &= (x_next.min(axis=1) > 0.0) & (z_next.min(axis=1) > 0.0)
            flush()
            for k in np.flatnonzero(~fine):
                finish(k, "numerical_failure", shrunk[k])
            settle = True
            continue
        if not rows:  # a graded block belongs to its Trace parts
            block = np.empty((depth, len(ids)), _TRACE_ROW)
        y = y + dy
        for stack, value in zip((xs[0], zs[0], dxs, dzs, ys), (x, z, dx, dz, y)):
            stack[rows] = value
        mu, steps = shrunk, steps + 1
        x, z = x_next, z_next
        gap = _dot(x, z)
        # scaled_primal holds ||A dx|| until the block is graded.
        step = block[rows]
        step["mu"], step["gap"], step["scaled_primal"] = mu, gap, a_dx
        step["step_residual"], step["condition"] = residual, [f[2] for f in factors]
        rows += 1
        settle = steps >= stop or not gap.min() > cfg.epsilon
        if rows == depth:
            failed = flush()
            if cfg.strict_monitors:
                for k in np.flatnonzero(failed):
                    finish(k, "numerical_failure", mu[k])
                    settle = True


# The row fields in TRACE_HEADER order ("iter" is iteration, and a flag is
# its MonitorReport field), and one CSV line of them: 17 significant
# digits for a float, 1/0 for a flag.
_CSV_FIELDS = ["iteration"] + [
    name if name in _TRACE_ROW.names else name + "_ok" for name in TRACE_HEADER.split(",")[1:]
]
_CSV_ROW = ",".join(
    "%.17g" if _TRACE_ROW[name].kind == "f" else "%d" for name in _CSV_FIELDS
) + "\n"


def trace_to_csv(trace: Trace) -> str:
    """Render a Trace in the fixed comma-separated export layout.

    One row per iteration under the TRACE_HEADER columns, numbers with 17
    significant digits, monitor flags as 1/0.  The output is a pure
    function of the records, so equal traces serialize byte-identically.
    """
    rows = trace._rows[_CSV_FIELDS].tolist()
    return TRACE_HEADER + "\n" + "".join([_CSV_ROW % row for row in rows])
