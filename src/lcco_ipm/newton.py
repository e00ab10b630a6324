"""Assembly and solution of the full-Newton-step equations.

At an interior iterate (x, y, z) with barrier value mu the step solves

    A dx = 0
    A' dy + dz = H dx            H = hessian of f at x
    z dx + x dz = h              h = mu w p_w,  w = sqrt(x z / mu)

Eliminating dz = (h - z dx) / x leaves the symmetric indefinite system

    [ M   A' ] [ dx ]   [ h / x ]
    [ A   0  ] [ u  ] = [   0   ],      M = H + diag(z / x),  dy = -u.

The block matrix is symmetrically equilibrated, factored once per step
by dense LU with partial pivoting (LAPACK getrf), and solved (getrs)
with one pass of iterative refinement against the unscaled matrix.  No
regularization is applied: the monitors downstream must grade the true
Newton step, so a near-singular system is reported as a failure instead
of being nudged.

The condition estimate is 1/rcond from LAPACK gecon, the 1-norm
reciprocal condition estimate computed from the LU factors of the
equilibrated matrix.  The raw matrix legitimately reaches condition
1/mu^2 near convergence, which says nothing about solvability; the
equilibrated estimate stays modest on healthy systems and explodes past
the failure threshold exactly when A loses row rank or M degenerates.

The public functions check the iterate and build a fresh matrix; the
solver calls the unchecked `_factor` and `_newton_step` they share on a
stack of same-shape members, whose A and A' blocks are set once per
solve.  Each member keeps its own LAPACK calls and gates.
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
    "KktFactorization",
    "newton_rhs",
    "assemble_and_factor",
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
    """Full-space Newton directions and their verification residual.

    `residual` is the largest of the three relative backsubstitution
    residuals of the step equations, each scaled by 1 + the norm of the
    quantity it constrains.
    """

    dx_full: np.ndarray
    dy_full: np.ndarray
    dz_full: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class KktFactorization:
    """Factored step system [[M, A'], [A, 0]] with M = H + diag(z/x).

    Stores the assembled matrix, the objective Hessian H it was built
    from, the symmetric equilibration scale s, the LAPACK getrf LU factors
    and row pivots of diag(s) K diag(s), and the gecon 1-norm condition
    estimate of that equilibrated matrix.  `solve` answers the unscaled
    system.
    """

    matrix: np.ndarray
    hessian: np.ndarray
    scale: np.ndarray
    lu: np.ndarray
    pivots: np.ndarray
    condition_estimate: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve matrix @ out = rhs through the equilibrated factors.

        rhs is a vector or a matrix whose columns are right-hand sides;
        the scale applies along its rows either way.
        """
        rhs = np.asarray(rhs, dtype=float)
        scale = self.scale if rhs.ndim == 1 else self.scale[:, np.newaxis]
        return _solve([(self.lu, self.pivots)], scale[np.newaxis], rhs[np.newaxis])[0]


def newton_rhs(state: IterateState, r: int) -> np.ndarray:
    """Right-hand side h = mu w p_w of the complementarity equation.

    mu is state.mu and w its cached scaling vector: the main loop shrinks
    the barrier value and builds the state at the new value, so the step
    aims at that mu-center.  h is zero exactly on it.
    """
    return state.mu * state.w * p_vector(state.w, r)


def _kkt_template(A: np.ndarray) -> np.ndarray:
    """Step matrices for a (B, m, n) stack of A, with the A and A' blocks set."""
    count, m, n = A.shape
    kkt = np.zeros((count, n + m, n + m))
    kkt[:, :n, n:] = A.transpose(0, 2, 1)
    kkt[:, n:, :n] = A
    return kkt


def _factor(kkt: np.ndarray, hessian: np.ndarray, x: np.ndarray, z: np.ndarray):
    """Fill M = H + diag(z/x) into a `_kkt_template` stack and factor each member.

    Returns the equilibration scales and, per member, `_lu`'s answer.
    """
    (count, size, _), n = kkt.shape, x.shape[-1]
    kkt[:, :n, :n] = hessian
    diagonal = kkt.reshape(count, size * size)[:, : n * (size + 1) : size + 1]
    np.add(diagonal, z / x, out=diagonal)
    row_peak = np.abs(kkt).max(axis=2)
    if not row_peak.all():
        row_peak[row_peak == 0.0] = 1.0
    scale = 1.0 / np.sqrt(row_peak)
    equilibrated = kkt * scale[:, :, np.newaxis]
    equilibrated *= scale[:, np.newaxis, :]
    norms = np.abs(equilibrated).sum(axis=1).max(axis=1)
    return scale, [_lu(matrix, norm) for matrix, norm in zip(equilibrated, norms)]


def _lu(matrix: np.ndarray, norm: float):
    # (lu, pivots, gecon condition estimate) of one member, or the error
    # that rejects its system.
    lu, pivots, info = dgetrf(matrix)
    if info > 0:
        return NumericalError(f"step system singular (zero pivot in column {info})")
    rcond = dgecon(lu, norm)[0]
    estimate = 1.0 / rcond if 0.0 < rcond < math.inf else math.inf
    if estimate > SINGULAR_CONDITION:
        return NumericalError(
            f"step system numerically singular "
            f"(condition estimate {estimate:.3e} exceeds {SINGULAR_CONDITION:.0e})"
        )
    return lu, pivots, estimate


def assemble_and_factor(p: Problem, state: IterateState) -> KktFactorization:
    """Assemble the eliminated step system at an iterate and factor it.

    Raises NumericalError when the condition estimate of the equilibrated
    factorization exceeds SINGULAR_CONDITION, which is the solver's
    numerical-failure signal.
    """
    n = p.n
    if state.x.shape != (n,) or state.z.shape != (n,):
        raise ValueError("iterate dimensions do not match the problem")
    if state.x.min() <= 0.0 or state.z.min() <= 0.0:
        raise InteriorError("iterate is not strictly interior")
    kkt = _kkt_template(p.A[np.newaxis])
    hessian = p.objective.evaluate(state.x)[2]
    scale, (factor,) = _factor(kkt, hessian, state.x, state.z)
    if isinstance(factor, NumericalError):
        raise factor
    lu, pivots, estimate = factor
    for arr in (kkt, scale, lu, pivots):
        arr.setflags(write=False)
    return KktFactorization(
        matrix=kkt[0],
        hessian=hessian,
        scale=scale[0],
        lu=lu,
        pivots=pivots,
        condition_estimate=estimate,
    )


def newton_step(p: Problem, state: IterateState, r: int) -> NewtonStep:
    """Solve the step equations at state, aimed at its own mu, to working accuracy.

    One iterative-refinement pass against the unscaled matrix follows the
    factored solve; the three step equations are then verified and the
    worst relative residual is returned on the step.  A residual above
    RESIDUAL_LIMIT, like a singular factorization, raises NumericalError.
    """
    h = newton_rhs(state, r)
    f = assemble_and_factor(p, state)
    (dx,), (dy,), (dz,), _, (residual,) = _newton_step(
        p.A, f.matrix, f.hessian, state.x, state.z, h[np.newaxis],
        f.scale[np.newaxis], [(f.lu, f.pivots)],
    )
    if not residual <= RESIDUAL_LIMIT:
        raise NumericalError(
            f"step residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e} after refinement"
        )
    for arr in (dx, dy, dz):
        arr.setflags(write=False)
    return NewtonStep(dx_full=dx, dy_full=dy, dz_full=dz, residual=residual)


def _solve(factors, scale: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # `KktFactorization.solve` per member; a member without factors gets 0.
    scaled = rhs * scale
    for b, f in enumerate(factors):
        scaled[b] = dgetrs(f[0], f[1], scaled[b], overwrite_b=True)[0] if type(f) is tuple else 0
    return scaled * scale


def _newton_step(A, kkt, hessian, x, z, h, scale, factors):
    """`newton_step` on a (B, .) stack of checked iterates and their `_factor` output.

    Returns dx, dy, dz, ||A dx|| and each member's worst relative residual,
    infinite where its factorization failed or a residual is not finite.
    """
    n = x.shape[-1]
    rhs = np.zeros(scale.shape)
    rhs[:, :n] = h / x
    solution = _solve(factors, scale, rhs)
    solution += _solve(factors, scale, rhs - (kkt @ solution[:, :, np.newaxis])[:, :, 0])
    dx = solution[:, :n]
    dy = -solution[:, n:]
    dz = (h - z * dx) / x
    column = dx[:, :, np.newaxis]
    a_dx = _norm((A @ column)[:, :, 0])
    dual = A.swapaxes(-1, -2) @ dy[:, :, np.newaxis] + dz[:, :, np.newaxis]
    dual = (dual - hessian @ column)[:, :, 0]
    norms = _norm(np.array([dual, z * dx + x * dz - h, dx, dz, h])).tolist()
    residual = []
    for f, primal, dual, comp, size_dx, size_dz, size_h in zip(factors, a_dx.tolist(), *norms):
        ratios = (primal / (1.0 + size_dx), dual / (1.0 + size_dz), comp / (1.0 + size_h))
        finite = type(f) is tuple and math.isfinite(sum(ratios))
        residual.append(max(ratios) if finite else math.inf)
    return dx, dy, dz, a_dx, residual
