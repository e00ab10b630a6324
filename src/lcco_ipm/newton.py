"""Assembly and solution of the full-Newton-step equations.

At an interior iterate (x, y, z) with target barrier value mu the step
solves

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .centralpath import InteriorError, IterateState, p_vector, scaling_vector
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

    Stores the assembled matrix, the symmetric equilibration scale s, the
    LAPACK getrf LU factors and row pivots of diag(s) K diag(s), and the
    gecon 1-norm condition estimate of that equilibrated matrix.  `solve`
    answers the unscaled system.
    """

    matrix: np.ndarray
    scale: np.ndarray
    lu: np.ndarray
    pivots: np.ndarray
    condition_estimate: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve matrix @ out = rhs through the equilibrated factors."""
        v, _ = dgetrs(self.lu, self.pivots, np.asarray(rhs, dtype=float) * self.scale)
        return v * self.scale


def newton_rhs(state: IterateState, mu: float, r: int) -> np.ndarray:
    """Right-hand side h = mu w p_w of the complementarity equation.

    w is recomputed at the given mu, which may differ from state.mu: the
    main loop shrinks the barrier value first and then aims the step at
    the new center.  h is zero exactly on that center.
    """
    w = scaling_vector(state.x, state.z, mu)
    return mu * w * p_vector(w, r)


def assemble_and_factor(p: Problem, state: IterateState) -> KktFactorization:
    """Assemble the eliminated step system at an iterate and factor it.

    Raises NumericalError when the condition estimate of the equilibrated
    factorization exceeds SINGULAR_CONDITION, which is the solver's
    numerical-failure signal.
    """
    n, m = p.n, p.m
    if state.x.shape != (n,) or state.z.shape != (n,):
        raise ValueError("iterate dimensions do not match the problem")
    if state.x.min() <= 0.0 or state.z.min() <= 0.0:
        raise InteriorError("iterate is not strictly interior")
    hessian = p.objective.evaluate(state.x)[2]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = hessian
    diagonal = np.arange(n)
    kkt[diagonal, diagonal] += state.z / state.x
    kkt[:n, n:] = p.A.T
    kkt[n:, :n] = p.A
    row_peak = np.abs(kkt).max(axis=1)
    row_peak[row_peak == 0.0] = 1.0
    scale = 1.0 / np.sqrt(row_peak)
    equilibrated = kkt * scale[:, np.newaxis] * scale[np.newaxis, :]
    lu, pivots, info = dgetrf(equilibrated)
    if info > 0:
        raise NumericalError(f"step system singular (zero pivot in column {info})")
    rcond = dgecon(lu, np.linalg.norm(equilibrated, 1))[0]
    estimate = 1.0 / rcond if 0.0 < rcond < math.inf else math.inf
    if estimate > SINGULAR_CONDITION:
        raise NumericalError(
            f"step system numerically singular "
            f"(condition estimate {estimate:.3e} exceeds {SINGULAR_CONDITION:.0e})"
        )
    for arr in (kkt, scale, lu, pivots):
        arr.setflags(write=False)
    return KktFactorization(
        matrix=kkt, scale=scale, lu=lu, pivots=pivots, condition_estimate=estimate
    )


def newton_step(p: Problem, state: IterateState, mu: float, r: int) -> NewtonStep:
    """Solve the step equations at (state, mu) to working accuracy.

    One iterative-refinement pass against the unscaled matrix follows the
    factored solve; the three step equations are then verified and the
    worst relative residual is returned on the step.  A residual above
    RESIDUAL_LIMIT, like a singular factorization, raises NumericalError.
    """
    h = newton_rhs(state, mu, r)
    factorization = assemble_and_factor(p, state)
    n = p.n
    rhs = np.zeros(n + p.m)
    rhs[:n] = h / state.x
    solution = factorization.solve(rhs)
    solution = solution + factorization.solve(rhs - factorization.matrix @ solution)
    dx = solution[:n]
    dy = -solution[n:]
    dz = (h - state.z * dx) / state.x
    hessian = p.objective.evaluate(state.x)[2]
    primal = float(np.linalg.norm(p.A @ dx)) / (1.0 + float(np.linalg.norm(dx)))
    dual = float(np.linalg.norm(p.A.T @ dy + dz - hessian @ dx)) / (
        1.0 + float(np.linalg.norm(dz))
    )
    complementarity = float(np.linalg.norm(state.z * dx + state.x * dz - h)) / (
        1.0 + float(np.linalg.norm(h))
    )
    residual = max(primal, dual, complementarity)
    if not math.isfinite(residual) or residual > RESIDUAL_LIMIT:
        raise NumericalError(
            f"step residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e} after refinement"
        )
    for arr in (dx, dy, dz):
        arr.setflags(write=False)
    return NewtonStep(dx_full=dx, dy_full=dy, dz_full=dz, residual=residual)
