"""Assembly and solution of the full-Newton-step equations.

At an interior iterate (x, y, z) with barrier value mu the step solves

    A dx = 0
    A' dy + dz = H dx            H = hessian of f at x
    z dx + x dz = h              h = mu w p_w,  w = sqrt(x z / mu)

Eliminating dz = (h - z dx) / x leaves the symmetric indefinite system

    [ M   A' ] [ dx ]   [ h / x ]
    [ A   0  ] [ u  ] = [   0   ],      M = H + diag(z / x),  dy = -u,

solved in the null space of A (Nocedal and Wright, Numerical Optimization,
section 16.2).  With the complete QR factorization A' = [Y N] [R; 0],
dx = N v where G v = N'(h/x) for the k-square G = N'HN + N' diag(z/x) N
(k = n - m), and u = (A')^+ (h/x - M dx) with (A')^+ = R^-1 Y'.  H is
constant (f is linear or quadratic), so the solver's `_null_space` takes
the QR factorization, N'HN, [N; HN] and (A')^+ once per solve.

It also grades A there: a zero on the diagonal of R (dependent rows) is
singular, and cond(A)^2, from the singular values of R (one stacked SVD
over the members), is the floor of every step's condition.  Each step
`_factor` equilibrates G symmetrically, G_eq = S G S, and inverts all
members' G_eq in one batched LAPACK call (np.linalg.inv, an LU with
partial pivoting per member).  With the inverse at hand the condition is
exact: ||G_eq||_1 ||G_eq^-1||_1, where LAPACK gecon would only estimate
it from below.  So the gate, which fails a step past SINGULAR_CONDITION
on the larger of the floor and that condition, is never looser than one
graded by gecon.  If some member's G_eq has an exact zero pivot, the
batched call fails as a whole; the others are then inverted in one call,
and the singular ones, found by slogdet, get an infinite condition.
v = W N'(h/x), with W = S G_eq^-1 S = G^-1, and one pass of iterative
refinement: the residual h/x - M dx against the unscaled M, projected by
N', mapped by the same W.  No regularization is applied: the monitors
downstream must grade the true Newton step, so a near-singular system is
reported as a failure instead of being nudged.

Computing a step and checking it are separate kernels.  `_factor`
returns each member's condition as a float and `_newton_step` returns
dx, dy, dz and H dx, unchecked.  `_verify` then gives ||A dx|| and the
worst relative residual of the three step equations, over any leading
axes.  `solve_many` calls `_null_space` once, and `_factor` and
`_newton_step` every step, on (B, .) stacks of iterates; it runs
`_verify` and the gates once per block of steps, over a (steps, B, .)
stack, and each member keeps its own gates.  `newton_step` checks one
iterate and makes the same four calls on one-member stacks, then raises
NumericalError for a condition past SINGULAR_CONDITION or a residual
past RESIDUAL_LIMIT, so the public step and the loop share one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centralpath import InteriorError, IterateState, _norm, p_vector
from .problem import Problem

__all__ = [
    "SINGULAR_CONDITION",
    "RESIDUAL_LIMIT",
    "NumericalError",
    "NewtonStep",
    "newton_rhs",
    "newton_step",
]

# Condition beyond which the step system is treated as singular.
SINGULAR_CONDITION = 1e14

# Worst relative backsubstitution residual a returned step may carry.
RESIDUAL_LIMIT = 1e-7


class NumericalError(RuntimeError):
    """The step system could not be solved to working accuracy."""


@dataclass(frozen=True, eq=False)
class NewtonStep:
    """Full-space Newton directions, their verification residual and condition.

    `residual` is the largest of the three relative backsubstitution
    residuals of the step equations, each scaled by 1 + the norm of the
    quantity it constrains.  `condition` is the larger of cond(A)^2 and
    the exact 1-norm condition of the equilibrated G, as the trace
    records it.
    """

    dx_full: np.ndarray
    dy_full: np.ndarray
    dz_full: np.ndarray
    residual: float
    condition: float


def newton_rhs(state: IterateState, r: int) -> np.ndarray:
    """Right-hand side h = mu w p_w of the complementarity equation.

    mu is state.mu and w its cached scaling vector: the main loop shrinks
    the barrier value and builds the state at the new value, so the step
    aims at that mu-center.  h is zero exactly on it.
    """
    return state.mu * state.w * p_vector(state.w, r)


def _null_space(A: np.ndarray, hessian: np.ndarray):
    """The once-per-solve part of the step solve for (B, m, n) and (B, n, n) stacks.

    Returns [N; HN], [N'; (A')^+], N'HN and each member's grade of A:
    cond(A)^2, inf where A has exactly dependent rows (or m > n), or NaN
    where it is not finite.  A problem with no constraints raises ValueError.
    """
    count, m, n = A.shape
    if m < 1:
        raise ValueError(f"solver requires m >= 1, got {m}")
    q, r = np.linalg.qr(A.transpose(0, 2, 1), mode="complete")
    null = q[:, :, m:]
    k = null.shape[-1]
    product = hessian @ null
    projector = np.zeros((count, k + m, n))
    projector[:, :k] = null.transpose(0, 2, 1)
    grade = np.full(count, math.inf)
    if m <= n:
        R = r[:, :m]
        finite = np.isfinite(R).all(axis=(1, 2))
        full = finite & np.diagonal(R, axis1=1, axis2=2).all(axis=1)
        grade[~finite] = math.nan
        if full.any():
            # One gesdd per member; the square goes through libm pow, as a
            # scalar's ** does, where an array's ** 2 multiplies.
            singular_values = np.linalg.svd(R[full], compute_uv=False)
            with np.errstate(divide="ignore", over="ignore"):
                grade[full] = np.float_power(singular_values[:, 0] / singular_values[:, -1], 2.0)
            # R^-1 Y' by one LAPACK gesv over the members: with R triangular
            # its LU is R itself, so the bits are those of a triangular solve,
            # and the call does not stall the way scipy's threaded trsm does.
            projector[full, k:] = np.linalg.solve(R[full], q[full, :, :m].transpose(0, 2, 1))
    reduced = projector[:, :k] @ product
    return np.concatenate([null, product], axis=1), projector, reduced, grade


def _factor(basis, projector, reduced, grade, x: np.ndarray, z: np.ndarray):
    """Build G = N'HN + N' diag(z/x) N for each member, grade it and invert it.

    Returns each member's W = S G_eq^-1 S = G^-1 and its condition as a
    float array: the larger of grade, which is cond(A)^2, and the exact
    1-norm condition of G_eq.  That is inf where G_eq has an exact zero
    pivot, whose W is then NaN, and NaN where G is not finite.  The
    caller gates it against SINGULAR_CONDITION, under an np.errstate
    that lets a non-finite iterate or an overflowing condition pass
    silently.
    """
    n, k = x.shape[-1], reduced.shape[-1]
    matrix = reduced + (projector[:, :k] * (z / x)[:, np.newaxis, :]) @ basis[:, :n]
    row_peak = np.abs(matrix).max(axis=2, initial=0.0)
    if not row_peak.all():
        row_peak[row_peak == 0.0] = 1.0
    scale = 1.0 / np.sqrt(row_peak)
    rows, columns = scale[:, :, np.newaxis], scale[:, np.newaxis, :]
    matrix *= rows
    matrix *= columns
    singular = None
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        # Some member has an exact zero pivot, which slogdet reports as sign
        # 0 from the getrf that inv runs: invert the others in one call.
        singular = np.linalg.slogdet(matrix)[0] == 0
        inverse = np.full_like(matrix, math.nan)
        inverse[~singular] = np.linalg.inv(matrix[~singular])
    norms = np.abs(matrix).sum(axis=1).max(axis=1, initial=0.0)
    condition = np.maximum(grade, norms * np.abs(inverse).sum(axis=1).max(axis=1, initial=0.0))
    if singular is not None:
        condition[singular] = math.inf
    inverse *= rows
    inverse *= columns
    return inverse, condition


def newton_step(p: Problem, state: IterateState, r: int) -> NewtonStep:
    """Solve the step equations at state, aimed at its own mu, to working accuracy.

    One iterative-refinement pass against the unscaled matrix follows the
    solve through the inverse; the three step equations are then verified
    and the worst relative residual is returned on the step.  A residual
    above RESIDUAL_LIMIT, like a rejected system, raises NumericalError.
    """
    h = newton_rhs(state, r)
    if state.x.shape != (p.n,) or state.z.shape != (p.n,):
        raise ValueError("iterate dimensions do not match the problem")
    if state.x.min() <= 0.0 or state.z.min() <= 0.0:
        raise InteriorError("iterate is not strictly interior")
    A, x, z, h = p.A[np.newaxis], state.x[np.newaxis], state.z[np.newaxis], h[np.newaxis]
    space = _null_space(A, p.objective.evaluate(state.x)[2][np.newaxis])
    # The gates below reject whatever a non-finite value would warn about.
    with np.errstate(all="ignore"):
        inverse, (condition,) = _factor(*space, x, z)
        # Why a system is rejected, in the order the checks apply.
        if not condition <= SINGULAR_CONDITION:
            if space[3][0] == math.inf:
                raise NumericalError("step system singular (A has linearly dependent rows)")
            if condition == math.inf and np.isnan(inverse).all():
                raise NumericalError("step system singular (G has an exact zero pivot)")
            raise NumericalError(
                f"step system numerically singular "
                f"(condition estimate {condition:.3e} exceeds {SINGULAR_CONDITION:.0e})"
            )
        dx, dy, dz, h_dx = _newton_step(*space[:2], x, z, h, inverse)
        _, (residual,) = _verify(x, z, h, dx, dy, dz, h_dx, A)
    if not residual <= RESIDUAL_LIMIT:
        raise NumericalError(
            f"step residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e} after refinement"
        )
    (dx,), (dy,), (dz,) = dx, dy, dz
    for arr in (dx, dy, dz):
        arr.setflags(write=False)
    return NewtonStep(dx, dy, dz, float(residual), float(condition))


def _newton_step(basis, projector, x, z, h, inverse):
    """The directions of `newton_step` on a (B, .) stack of iterates and their `_factor` inverses.

    Returns dx, dy, dz and H dx, unchecked: `_verify` checks them.
    """
    # [[M, A'], [A, 0]] [dx; u] = [h/x; 0] on (B, n, 1) stacks, M = H + diag(z/x):
    # dx = N v with v = G^-1 N' (h/x), refined once against the unscaled M,
    # and u = (A')^+ (h/x - M dx) = -dy.
    n, k = x.shape[-1], basis.shape[-1]
    weights, rhs = (z / x)[:, :, np.newaxis], (h / x)[:, :, np.newaxis]
    null = projector[:, :k]
    v = inverse @ (null @ rhs)
    image = basis @ v
    v += inverse @ (null @ (rhs - image[:, n:] - weights * image[:, :n]))
    image = basis @ v
    dx, h_dx = image[:, :n], image[:, n:]
    u = projector[:, k:] @ (rhs - h_dx - weights * dx)
    dx = dx[:, :, 0]
    return dx, -u[:, :, 0], (h - z * dx) / x, h_dx[:, :, 0]


def _verify(x, z, h, dx, dy, dz, h_dx, A):
    """Residuals of steps of `_newton_step` over any leading axes.

    Takes the iterate, its right-hand side h and the step's dx, dy, dz
    and H dx, each (..., B, .), and the (B, m, n) stack of A, which
    broadcasts over a leading step axis and keeps each product a gemv
    with the bits of the one-step form.  Returns ||A dx|| and the worst
    relative residual, infinite where it is not finite.
    """
    a_dx = _norm(np.matmul(A, dx[..., np.newaxis])[..., 0])
    dual = np.matmul(A.swapaxes(-1, -2), dy[..., np.newaxis])[..., 0] - h_dx + dz
    # The norms of the dual and complementarity residuals, then of dx, dz
    # and h, which scale the primal, dual and complementarity ratios.
    sizes = _norm(np.array([dual, z * dx + x * dz - h, dx, dz, h]))
    residual = (np.array([a_dx, sizes[0], sizes[1]]) / (1.0 + sizes[2:])).max(axis=0)
    residual[np.isnan(residual)] = math.inf
    return a_dx, residual
