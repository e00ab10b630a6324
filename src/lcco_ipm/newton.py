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
singular, and cond(A)^2, from the singular values of R, is the floor of
every step's condition estimate.  Each step `_factor` equilibrates G
symmetrically, factors it by dense LU with partial pivoting (LAPACK
getrf), and fails the step past SINGULAR_CONDITION on the larger of that
floor and 1/rcond from LAPACK gecon.  v is solved (getrs) with one pass
of iterative refinement: the residual h/x - M dx against the unscaled M,
projected by N', re-solved with the same factors.  No regularization is
applied: the monitors downstream must grade the true Newton step, so a
near-singular system is reported as a failure instead of being nudged.
`solve_many` calls `_null_space`, `_factor` and `_newton_step` on stacks
of already-checked iterates, each member with its own LAPACK calls and
gates.  `newton_step` checks one iterate and makes the same three calls
on one-member stacks, so the public step and the loop share one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

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

# Condition estimate beyond which the factorization is treated as singular.
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
    the gecon estimate of the equilibrated G, as the trace records it.
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
    where it is not finite.
    """
    count, m, n = A.shape
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
        for b in np.flatnonzero(full):
            singular_values = np.linalg.svd(R[b], compute_uv=False)
            with np.errstate(divide="ignore", over="ignore"):
                grade[b] = (singular_values[0] / singular_values[-1]) ** 2
        # R^-1 Y' by one LAPACK gesv over the members: with R triangular its
        # LU is R itself, so the bits are those of a triangular solve, and
        # the call does not stall the way scipy's threaded trsm does.
        if full.any():
            projector[full, k:] = np.linalg.solve(R[full], q[full, :, :m].transpose(0, 2, 1))
    reduced = projector[:, :k] @ product
    return np.concatenate([null, product], axis=1), projector, reduced, grade


def _factor(basis, projector, reduced, grade, x: np.ndarray, z: np.ndarray):
    """Build G = N'HN + N' diag(z/x) N for each member and factor it.

    Returns the equilibration scales and, per member, `_lu`'s answer.
    """
    n, k = x.shape[-1], reduced.shape[-1]
    matrix = reduced + (projector[:, :k] * (z / x)[:, np.newaxis, :]) @ basis[:, :n]
    row_peak = np.abs(matrix).max(axis=2, initial=0.0)
    if not row_peak.all():
        row_peak[row_peak == 0.0] = 1.0
    scale = 1.0 / np.sqrt(row_peak)
    matrix *= scale[:, :, np.newaxis]
    matrix *= scale[:, np.newaxis, :]
    norms = np.abs(matrix).sum(axis=1).max(axis=1, initial=0.0)
    return scale, [_lu(*member) for member in zip(matrix, norms.tolist(), grade.tolist())]


def _lu(matrix: np.ndarray, norm: float, grade: float):
    # (lu, pivots, condition estimate) of one member, or the error that
    # rejects its system.  grade is cond(A)^2, the floor of the estimate.
    if grade == math.inf:
        return NumericalError("step system singular (A has linearly dependent rows)")
    # At m = n, A alone fixes dx = 0 and G is empty.
    lu, pivots, info = dgetrf(matrix) if matrix.size else (matrix, np.zeros(0, np.int32), 0)
    if info > 0:
        return NumericalError(f"step system singular (zero pivot in column {info})")
    rcond = dgecon(lu, norm)[0] if matrix.size else 1.0
    estimate = max(grade, 1.0 / rcond if 0.0 < rcond < math.inf else math.inf)
    if not estimate <= SINGULAR_CONDITION:
        return NumericalError(
            f"step system numerically singular "
            f"(condition estimate {estimate:.3e} exceeds {SINGULAR_CONDITION:.0e})"
        )
    return lu, pivots, estimate


def newton_step(p: Problem, state: IterateState, r: int) -> NewtonStep:
    """Solve the step equations at state, aimed at its own mu, to working accuracy.

    One iterative-refinement pass against the unscaled matrix follows the
    factored solve; the three step equations are then verified and the
    worst relative residual is returned on the step.  A residual above
    RESIDUAL_LIMIT, like a singular factorization, raises NumericalError.
    """
    h = newton_rhs(state, r)
    if state.x.shape != (p.n,) or state.z.shape != (p.n,):
        raise ValueError("iterate dimensions do not match the problem")
    if state.x.min() <= 0.0 or state.z.min() <= 0.0:
        raise InteriorError("iterate is not strictly interior")
    A, x, z = p.A[np.newaxis], state.x[np.newaxis], state.z[np.newaxis]
    space = _null_space(A, p.objective.evaluate(state.x)[2][np.newaxis])
    scale, factors = _factor(*space, x, z)
    if isinstance(factors[0], NumericalError):
        raise factors[0]
    (dx,), (dy,), (dz,), _, (residual,) = _newton_step(
        A, *space[:2], x, z, h[np.newaxis], scale, factors
    )
    if not residual <= RESIDUAL_LIMIT:
        raise NumericalError(
            f"step residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e} after refinement"
        )
    for arr in (dx, dy, dz):
        arr.setflags(write=False)
    return NewtonStep(dx, dy, dz, residual, condition=factors[0][2])


def _solve(factors, scale: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # G v = rhs for (B, k, c) stacks through each member's equilibrated
    # factors; a member without factors gets 0.
    scale = scale[:, :, np.newaxis]
    scaled = rhs * scale
    if scaled.shape[1]:
        for b, f in enumerate(factors):
            scaled[b] = dgetrs(f[0], f[1], scaled[b], overwrite_b=True)[0] if type(f) is tuple else 0
    return scaled * scale


def _reduced_solve(basis, projector, factors, scale, weights, rhs):
    # [[M, A'], [A, 0]] [dx; u] = [rhs; 0] on (B, n, c) stacks, M = H + diag(weights):
    # dx = N v with G v = N' rhs, refined once against the unscaled M, and
    # u = (A')^+ (rhs - M dx).  Returns dx, H dx and u.
    n, k = weights.shape[-1], basis.shape[-1]
    weights = weights[:, :, np.newaxis]
    null = projector[:, :k]
    v = _solve(factors, scale, null @ rhs)
    image = basis @ v
    v += _solve(factors, scale, null @ (rhs - image[:, n:] - weights * image[:, :n]))
    image = basis @ v
    dx, h_dx = image[:, :n], image[:, n:]
    return dx, h_dx, projector[:, k:] @ (rhs - h_dx - weights * dx)


def _newton_step(A, basis, projector, x, z, h, scale, factors):
    """`newton_step` on a (B, .) stack of checked iterates and their `_factor` output.

    Returns dx, dy, dz, ||A dx|| and each member's worst relative residual,
    infinite where its factorization failed or a residual is not finite.
    """
    dx, h_dx, u = _reduced_solve(
        basis, projector, factors, scale, z / x, (h / x)[:, :, np.newaxis]
    )
    dx, dy = dx[:, :, 0], -u[:, :, 0]
    dz = (h - z * dx) / x
    a_dx = _norm((A @ dx[:, :, np.newaxis])[:, :, 0])
    dual = (A.swapaxes(-1, -2) @ dy[:, :, np.newaxis] - h_dx)[:, :, 0] + dz
    norms = _norm(np.array([dual, z * dx + x * dz - h, dx, dz, h])).tolist()
    residual = []
    for f, primal, dual, comp, size_dx, size_dz, size_h in zip(factors, a_dx.tolist(), *norms):
        ratios = (primal / (1.0 + size_dx), dual / (1.0 + size_dz), comp / (1.0 + size_h))
        finite = type(f) is tuple and math.isfinite(sum(ratios))
        residual.append(max(ratios) if finite else math.inf)
    return dx, dy, dz, a_dx, residual
