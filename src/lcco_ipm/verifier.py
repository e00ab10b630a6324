"""Independent correctness oracles for small instances.

The two reference solvers brute-force the exact optimum by enumeration:
vertex enumeration over basis subsets for linear objectives, active-set
enumeration over pinned-variable subsets for convex quadratics.  Both are
deliberately dumb and deterministic, so they share no code path with the
interior-point solver they vouch for.  A candidate's distance from the
optimality system, which also grades a start, is `problem.kkt_residuals`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .problem import Problem

__all__ = [
    "LP_SIZE_LIMIT",
    "QP_SIZE_LIMIT",
    "OracleError",
    "InfeasibleError",
    "UnboundedError",
    "DegenerateError",
    "ReferenceSolution",
    "reference_solve_lp",
    "reference_solve_qp",
]

# Enumeration caps keeping the subset counts near a thousand, and each
# stack of subset systems to a few hundred kilobytes.
LP_SIZE_LIMIT = 12
QP_SIZE_LIMIT = 10

# A basic/free solution is accepted as feasible down to this negativity.
_FEASIBILITY_TOL = 1e-10

# Consistency residual above which a subset system is treated as singular.
_SOLVE_RTOL = 1e-8

# Sign tolerances for optimality certificates.
_REDUCED_COST_TOL = 1e-9
_RAY_TOL = 1e-10


class OracleError(RuntimeError):
    """A reference solver could not certify an optimum."""


class InfeasibleError(OracleError):
    """No nonnegative solution of A x = b exists in the enumerated family."""


class UnboundedError(OracleError):
    """The objective decreases without bound along a feasible ray."""


class DegenerateError(OracleError):
    """Feasible candidates exist but none carries an optimality certificate."""


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """Certified optimum from one of the enumeration oracles.

    x_star is clamped to the nonnegative orthant (enumeration accepts
    components down to -1e-10), objective_star is f evaluated at the
    returned x_star, and certificates names the winning basis or pinned
    set.
    """

    x_star: np.ndarray
    objective_star: float
    method: str
    certificates: str


def _subsets(n: int, size: int) -> np.ndarray:
    """Every size-subset of range(n), one per row in lexicographic order."""
    subsets = list(itertools.combinations(range(n), size))
    return np.array(subsets, dtype=np.intp).reshape(len(subsets), size)


def _nonsingular(stack) -> np.ndarray:
    """Mask of the matrices whose LU meets no exact zero pivot.

    slogdet runs the same getrf as np.linalg.solve and reports a zero pivot
    as sign 0, so the mask drops exactly the systems on which solve raises.
    """
    return np.linalg.slogdet(stack)[0] != 0


def _row_norms(rows) -> np.ndarray:
    # The bits np.linalg.norm gives each 1-D row (sqrt of its dot with
    # itself); norm(..., axis=-1) sums pairwise and can differ.
    return np.sqrt(np.vecdot(rows, rows))


def _matvec(matrices, vectors) -> np.ndarray:
    # One gemv per row, the call `matrix @ vector` makes for a single pair.
    return np.matmul(matrices, vectors[..., None])[..., 0]


def _first_minimum(objectives):
    """Index of the first least objective, or None when none is below inf.

    NaN never wins, as with `<`.
    """
    below = objectives < math.inf
    if not below.any():
        return None
    return int(np.argmin(np.where(below, objectives, math.inf)))


def reference_solve_lp(p: Problem) -> ReferenceSolution:
    """Exact LP optimum by enumeration of basic solutions.

    Walks all m-subsets of columns in lexicographic order, keeps the
    feasible basic solutions, and returns the first one attaining the
    minimal objective.  At every feasible basis the reduced costs are
    inspected: a negative reduced cost whose entering column yields a
    nonnegative ray direction certifies an unbounded objective, reported at
    the first such basis, then column, in walk order.  The walk stacks
    every basis and solves them with one LAPACK call, which runs the same
    dgesv on every basis as a call per basis would.
    """
    if p.objective.kind != "linear":
        raise ValueError("reference_solve_lp requires a linear objective")
    n, m = p.n, p.m
    if n > LP_SIZE_LIMIT:
        raise ValueError(f"vertex enumeration is limited to n <= {LP_SIZE_LIMIT}")
    c = p.objective.c
    b_scale = 1.0 + float(np.linalg.norm(p.b))
    columns = _subsets(n, m)
    # C-contiguous like A[:, picked], so each residual gemv is the same.
    bases = p.A[:, columns].transpose(1, 0, 2).copy()
    solvable = _nonsingular(bases)
    columns, bases = columns[solvable], bases[solvable]
    x_basic = np.linalg.solve(bases, p.b)
    residual = _row_norms(_matvec(bases, x_basic) - p.b)
    feasible = ~(residual > _SOLVE_RTOL * b_scale) & ~(
        x_basic.min(axis=1) < -_FEASIBILITY_TOL
    )
    columns, bases, x_basic = columns[feasible], bases[feasible], x_basic[feasible]
    transposes = bases.transpose(0, 2, 1)
    failure = None
    try:
        multipliers = np.linalg.solve(transposes, c[columns][..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        # A basis can pass its own LU while its transpose meets an exact
        # zero pivot; the walk fails there, after testing the rays of the
        # bases before it.
        failure = exc
        stop = int(np.argmin(_nonsingular(transposes)))
        columns, bases = columns[:stop], bases[:stop]
        multipliers = np.linalg.solve(
            transposes[:stop], c[columns][..., None]
        )[..., 0]
    # One column dot per entry, the product `A[:, j] @ multipliers` takes.
    reduced = c - np.vecdot(p.A.T, multipliers[:, None, :])
    rows = np.arange(len(columns))[:, None]
    nonbasic = np.ones((len(columns), n), dtype=bool)
    nonbasic[rows, columns] = False
    basis_at, entering = np.nonzero(nonbasic & (reduced < -_REDUCED_COST_TOL))
    directions = np.linalg.solve(bases[basis_at], p.A.T[entering][..., None])[..., 0]
    rays = np.flatnonzero(directions.max(axis=1) <= _RAY_TOL)
    if len(rays):
        i = rays[0]
        raise UnboundedError(
            f"objective decreases without bound along column {entering[i]} "
            f"from basis {tuple(map(int, columns[basis_at[i]]))}"
        )
    if failure is not None:
        raise failure
    x = np.zeros((len(columns), n))
    x[rows, columns] = np.maximum(x_basic, 0.0)
    objectives = np.vecdot(c, x)
    i = _first_minimum(objectives)
    if i is None:
        raise InfeasibleError("no feasible basic solution exists")
    x_star = x[i].copy()
    x_star.setflags(write=False)
    return ReferenceSolution(
        x_star=x_star,
        objective_star=float(objectives[i]),
        method="vertex_enumeration",
        certificates=f"basis columns {tuple(map(int, columns[i]))}",
    )


def reference_solve_qp(p: Problem) -> ReferenceSolution:
    """Exact convex-QP optimum by active-set enumeration.

    For each subset S of variables pinned to zero (ordered by size, then
    lexicographically) the equality-constrained optimum over the free
    variables is solved from its KKT system; a candidate is accepted when
    the free part is nonnegative and the reduced gradient on the pinned
    part certifies optimality.  The first accepted candidate with minimal
    objective wins.  Feasible-but-uncertified enumeration (possible when
    Q is singular on a face) is reported as DegenerateError rather than
    guessed at.  The pinned sets of one size are stacked, and their KKT
    systems are solved with one LAPACK call.
    """
    if p.objective.kind != "quadratic":
        raise ValueError("reference_solve_qp requires a quadratic objective")
    n, m = p.n, p.m
    if n > QP_SIZE_LIMIT:
        raise ValueError(f"active-set enumeration is limited to n <= {QP_SIZE_LIMIT}")
    q = p.objective.Q
    c = p.objective.c
    best_objective = math.inf
    best_x = None
    best_pinned = None
    feasible_found = False
    for size in range(n + 1):
        k = n - size
        pinned = _subsets(n, size)
        # Complements reverse the lexicographic order, so row i of `free`
        # holds the variables that row i of `pinned` leaves free.
        free = _subsets(n, k)[::-1]
        a_free = p.A[:, free].transpose(1, 0, 2)
        kkt = np.zeros((len(pinned), k + m, k + m))
        kkt[:, :k, :k] = q[free[:, :, None], free[:, None, :]]
        kkt[:, :k, k:] = a_free.transpose(0, 2, 1)
        kkt[:, k:, :k] = a_free
        rhs = np.concatenate(
            [-c[free], np.broadcast_to(p.b, (len(pinned), m))], axis=1
        )
        solvable = _nonsingular(kkt)
        pinned, free, kkt, rhs = (
            pinned[solvable], free[solvable], kkt[solvable], rhs[solvable]
        )
        solution = np.linalg.solve(kkt, rhs[..., None])[..., 0]
        scale = 1.0 + _row_norms(rhs)
        accepted = ~(_row_norms(_matvec(kkt, solution) - rhs) > _SOLVE_RTOL * scale)
        accepted &= ~(solution[:, :k].min(axis=1, initial=math.inf) < -_FEASIBILITY_TOL)
        if not accepted.any():
            continue
        feasible_found = True
        pinned, free = pinned[accepted], free[accepted]
        solution = solution[accepted]
        x = np.zeros((len(pinned), n))
        x[np.arange(len(pinned))[:, None], free] = np.maximum(solution[:, :k], 0.0)
        qx = _matvec(q, x)
        reduced = qx + c + _matvec(p.A.T, solution[:, k:])
        certified = ~(
            np.take_along_axis(reduced, pinned, axis=1).min(axis=1, initial=math.inf)
            < -_REDUCED_COST_TOL
        )
        pinned, x, qx = pinned[certified], x[certified], qx[certified]
        objectives = np.vecdot(c, x) + 0.5 * np.vecdot(x, qx)
        i = _first_minimum(objectives)
        if i is not None and objectives[i] < best_objective:
            best_objective = float(objectives[i])
            best_x = x[i].copy()
            best_pinned = tuple(map(int, pinned[i]))
    if best_x is None:
        if feasible_found:
            raise DegenerateError(
                "feasible candidates exist but none passed the sign certificate; "
                "Q is likely singular on the optimal face"
            )
        raise InfeasibleError("no feasible active-set candidate exists")
    best_x.setflags(write=False)
    return ReferenceSolution(
        x_star=best_x,
        objective_star=best_objective,
        method="active_set_enumeration",
        certificates=f"pinned variables {best_pinned}",
    )
