"""Central-path algebra for the power-kernel direction family.

Everything here lives in the scaled space of an interior primal-dual pair
(x, z) at barrier value mu.  The scaling vector w = sqrt(x z / mu) equals
the all-ones vector exactly on the mu-center, and the Newton direction is
driven componentwise by the kernel

    p_w = (2 - 2 w^r) / (r w^(r-1)),        r = 1, 2, ...

The proximity Gamma = ||p_w|| / 2 measures distance from the center; r = 1
recovers the classical square-root kernel and larger r steepens the pull
toward the center.  `monitor_step` grades one full Newton step against the
inequalities the convergence guarantee rests on (componentwise lower bound
on the post-step scaling, quadratic proximity contraction, duality-gap
ceiling, the pointwise kernel bound eq115, and the direction bounds
eq111 and eq112).  Monitors are advisory: they report outcomes, the
caller decides what to do with them.

Public functions validate their input, then call the unchecked kernels
that hold each formula once: `_scaling`, `_p`, `_dot`, `_norm`,
`_directions`, `_monitor_terms` and `_grade`.  All take arrays with any
leading axes, so the solver's loop calls `_scaling`, `_p` and `_dot`
once per step on a stack of already-checked iterates, and all of them
once per block of steps, on a stack with a leading step axis.  The
one-member functions (`IterateState`, `scaled_directions` and
`monitor_step`) stay as the checked reference the tests rebuild that
loop from, one step at a time; `scaled_directions` always checks the
identities every correct step satisfies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .newton import NewtonStep

__all__ = [
    "R_MAX",
    "MONITOR_SLACK",
    "InteriorError",
    "DirectionError",
    "IterateState",
    "ScaledDirections",
    "MonitorReport",
    "scaling_vector",
    "p_vector",
    "proximity",
    "scaled_directions",
    "contraction_coefficient",
    "monitor_step",
]

# Largest admissible kernel power.  theta = 1/(e^(2r) sqrt(n)) is already
# below 4e-11 at r = 12, and the contraction coefficient overflows double
# precision in its naive form near r = 27; the cap sits well inside both.
R_MAX = 12

# Additive slack applied to every monitored inequality.
MONITOR_SLACK = 1e-9

# Hard tolerance for the algebraic identities a correct Newton step must
# satisfy in scaled variables.
_IDENTITY_TOL = 1e-10


class InteriorError(ValueError):
    """A point left the strict interior (some x_i <= 0, z_i <= 0, or mu <= 0)."""


class DirectionError(RuntimeError):
    """Scaled directions violate an identity every correct step satisfies."""


def _checked_power(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise TypeError(f"kernel power must be an integer, got {r!r}")
    if not 1 <= r <= R_MAX:
        raise ValueError(f"kernel power must be in [1, {R_MAX}], got {r}")
    return int(r)


def _interior_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise InteriorError(f"{name} must be a one-dimensional vector")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InteriorError(f"{name} must be finite and strictly positive")
    return arr


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Row dot products over any leading axes.  vecdot runs BLAS dot on each
    # row pair, the bits u.dot(v) gives on one contiguous row.
    return np.vecdot(u, v)


def _norm(v: np.ndarray) -> np.ndarray:
    # The bits of np.linalg.norm, which computes sqrt(v.dot(v)) for contiguous v.
    return np.sqrt(_dot(v, v))


def _scaling(x: np.ndarray, z: np.ndarray, mu: float) -> np.ndarray:
    return np.sqrt(x * z / mu)


def _p(w: np.ndarray, r: int) -> np.ndarray:
    return (2.0 - 2.0 * w**r) / (r * w ** (r - 1))


def scaling_vector(x, z, mu: float) -> np.ndarray:
    """Componentwise w = sqrt(x z / mu); the all-ones vector on the mu-center.

    Raises InteriorError if any component of x or z, or mu itself, is not
    strictly positive, which is how the solver notices it left the interior.
    """
    x = _interior_vector(x, "x")
    z = _interior_vector(z, "z")
    if not (math.isfinite(mu) and mu > 0.0):
        raise InteriorError(f"mu must be finite and strictly positive, got {mu}")
    if x.shape != z.shape:
        raise InteriorError("x and z must have the same length")
    return _scaling(x, z, mu)


def p_vector(w, r: int) -> np.ndarray:
    """Direction kernel (2 - 2 w^r) / (r w^(r-1)), componentwise.

    Zero exactly at w = 1, positive below, negative above.  For r = 1 the
    denominator is identically one.
    """
    r = _checked_power(r)
    return _p(_interior_vector(w, "w"), r)


def proximity(x, z, mu: float, r: int) -> float:
    """Distance of the pair (x, z) from the mu-center.

    Gamma = ||p_w|| / 2 = (1/r) ||(1 - w^r) / w^(r-1)||, evaluated through
    `p_vector` so the value is finite at every interior point (the factored
    form (1 - w^r) / (w^(r-1)(1 - w^2)) has a removable singularity at
    w_i = 1 and is never used).  Returns 0 exactly when x z = mu
    componentwise.  scaling_vector checks x, z and mu; w itself is checked
    too, since x_i z_i / mu can underflow to 0 where all three pass.
    """
    w = scaling_vector(x, z, mu)
    r = _checked_power(r)
    return float(0.5 * _norm(_p(_interior_vector(w, "w"), r)))


@dataclass(frozen=True)
class IterateState:
    """One interior primal-dual iterate with its scaling vector cached.

    `w` must equal sqrt(x z / mu) componentwise; `from_point` is the
    validated constructor and the only one most callers should use.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu: float
    w: np.ndarray

    @classmethod
    def from_point(cls, x, y, z, mu: float) -> "IterateState":
        """Build a state from raw vectors, checking strict interiority."""
        w = scaling_vector(x, z, mu)
        x = np.array(x, dtype=float)
        y = np.asarray(y, dtype=float).copy()
        z = np.array(z, dtype=float)
        if y.ndim != 1:
            raise InteriorError("y must be a one-dimensional vector")
        if not np.all(np.isfinite(y)):
            raise InteriorError("y must be finite")
        for arr in (x, y, z, w):
            arr.setflags(write=False)
        return cls(x=x, y=y, z=z, mu=float(mu), w=w)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def gap(self) -> float:
        """Duality gap x'z of this iterate."""
        return float(self.x @ self.z)


@dataclass(frozen=True)
class ScaledDirections:
    """Newton directions mapped into scaled space.

    dx = w dx_full / x and dz = w dz_full / z, so that a correct step
    satisfies dx + dz = p_w, and qw = dx - dz.  dxTdz is nonnegative
    whenever the objective's Hessian oracle is positive semidefinite, and
    ||pw|| >= ||qw|| follows from that by expanding the two squares.
    """

    dx: np.ndarray
    dz: np.ndarray
    pw: np.ndarray
    qw: np.ndarray
    dxTdz: float


def _directions(w, x, z, dx_full, dz_full):
    # dx, dz, qw = dx - dz and dx'dz over any leading axes.
    dx = w * dx_full / x
    dz = w * dz_full / z
    return dx, dz, dx - dz, _dot(dx, dz)


def scaled_directions(step: "NewtonStep", state: IterateState, r: int) -> ScaledDirections:
    """Map a Newton step, computed at `state`, into scaled space.

    dx = w dx_full / x, dz = w dz_full / z, pw = p_w and qw = dx - dz.
    Raises DirectionError if any of the identities dx + dz = p_w (within
    1e-10), dxTdz >= -1e-10 or ||pw|| >= ||qw|| - 1e-10 fails.
    """
    r = _checked_power(r)
    if step.dx_full.shape != state.x.shape or step.dz_full.shape != state.z.shape:
        raise ValueError("step dimensions do not match the iterate")
    pw = _p(state.w, r)
    dx, dz, qw, dxTdz = _directions(state.w, state.x, state.z, step.dx_full, step.dz_full)
    dxTdz = float(dxTdz)
    defect = float(_norm(dx + dz - pw))
    if defect > _IDENTITY_TOL:
        raise DirectionError(f"dx + dz deviates from the kernel by {defect:.3e}")
    if dxTdz < -_IDENTITY_TOL:
        raise DirectionError(f"dx'dz = {dxTdz:.3e} is negative")
    gap = float(_norm(pw) - _norm(qw))
    if gap < -_IDENTITY_TOL:
        raise DirectionError(f"||qw|| exceeds ||pw|| by {-gap:.3e}")
    for arr in (dx, dz, pw, qw):
        arr.setflags(write=False)
    return ScaledDirections(dx=dx, dz=dz, pw=pw, qw=qw, dxTdz=dxTdz)


def contraction_coefficient(r: int) -> float:
    """Coefficient C(r) in the quadratic proximity contraction Gamma+ <= C(r) Gamma^2.

    C(r) = e^r (e^(r^2) - (e^(2r)-1)^(r/2)) ((r-1)^2 + 1)
           / (r (e^(2r)-1)^((r-1)/2)).

    The leading difference cancels catastrophically in doubles (both terms
    reach e^144 at r = 12), so the value is computed from the equivalent
    form e^(2r) (1 - (1-e^(-2r))^(r/2)) ((r-1)^2 + 1) / (r (1-e^(-2r))^((r-1)/2))
    using log1p/expm1, which is accurate to the last digit for every
    admissible r.
    """
    return _contraction(_checked_power(r))


@functools.lru_cache(maxsize=R_MAX)
def _contraction(r: int) -> float:
    t = math.log1p(-math.exp(-2.0 * r))
    head = -math.expm1(0.5 * r * t)
    tail = math.exp(0.5 * (r - 1) * t)
    return math.exp(2.0 * r) * head * ((r - 1) ** 2 + 1) / (r * tail)


@dataclass(frozen=True, slots=True)
class MonitorReport:
    """Outcome of grading one full Newton step at fixed mu.

    Each flag is true iff its inequality holds with additive slack
    >= -1e-9; flags whose hypotheses fail (proximity too large for the
    statement to apply) are vacuously true.  `worst_margin` is the most
    negative slack among the checks actually evaluated, and the two bound
    fields carry the right-hand sides the step was graded against.
    """

    lemma2_ok: bool
    lemma4_ok: bool
    lemma5_ok: bool
    eq115_ok: bool
    eq111_ok: bool
    eq112_ok: bool
    gamma_before: float
    gamma_after: float
    contraction_bound: float
    gap_bound: float
    worst_margin: float


def monitor_step(
    before: IterateState, after: IterateState, dirs: ScaledDirections, r: int
) -> MonitorReport:
    """Grade one full Newton step against the step-analysis inequalities.

    Both iterates must carry the same mu: the checks concern the Newton
    step at fixed barrier value, while the effect of shrinking mu is the
    solver's admission test on the proximity.  Checked, with Gamma the
    proximity of `before` and Gamma+ that of `after`:

      lemma2:  after.w >= sqrt(1 - Gamma^2) componentwise   (needs Gamma < 1)
      lemma4:  Gamma+ <= C(r) Gamma^2                       (needs Gamma < 1/e^r)
      lemma5:  after.x' after.z <= mu (n + (r-1)^2 / e^(2r)) (needs Gamma < 1/e^r)
      eq115:   before.w^2 + before.w p_w >= 1 - p_w^2 / 4   componentwise
      eq111:   dx'dz >= 0
      eq112:   ||pw|| >= ||qw||

    A check whose hypothesis fails is skipped and its flag reported true.
    """
    r = _checked_power(r)
    if before.mu != after.mu:
        raise ValueError("monitors compare iterates at one fixed barrier value")
    w = np.array([before.w, after.w])
    terms = _monitor_terms(w, _p(w, r), dirs.pw)
    norms = _norm(np.array([dirs.pw, dirs.qw]))
    column = np.array([*terms, *norms, dirs.dxTdz, after.gap(), before.mu])[:, np.newaxis]
    flags, *bounds = _grade(*column, before.n, r)
    gamma_before, gamma_after = column[:2, 0].tolist()
    return MonitorReport(
        *flags[:, 0].tolist(), gamma_before, gamma_after, *(float(b[0]) for b in bounds)
    )


def _monitor_terms(w, p, pw):
    # The vector part of `monitor_step` over any leading axes: Gamma,
    # Gamma+, min after.w and the eq115 slack, from w stacked as (before,
    # after), its kernel p and the step's p_w.  Both proximities come from
    # p at the iterates, not from the step.
    w_before, w_after = w
    eq115 = (w_before**2 + w_before * pw - 1.0 + pw**2 / 4.0).min(axis=-1)
    gamma_before, gamma_after = 0.5 * _norm(p)
    return gamma_before, gamma_after, w_after.min(axis=-1), eq115


def _grade(gamma_before, gamma_after, min_w, eq115_slack, norm_pw, norm_qw, dxTdz, gap, mu, n, r):
    # The rest of `monitor_step`, elementwise over arrays of one shape: one
    # step, or a block of steps of a batch.  Returns the six flags stacked in
    # MonitorReport field order, the contraction bound, the gap bound and
    # the worst margin, each with the bits that grading one step in Python
    # floats gives.  So Gamma^2 goes through libm pow, as Python's ** does:
    # numpy's ** squares by multiplying, which can differ in the last bit.
    square = np.float_power(gamma_before, 2.0)
    contraction_bound = _contraction(r) * square
    gap_bound = mu * (n + (r - 1) ** 2 * math.exp(-2.0 * r))
    near = gamma_before < 1.0  # lemma2 applies
    close = gamma_before < math.exp(-r)  # lemma4 and lemma5 apply
    with np.errstate(invalid="ignore"):
        margins = (
            min_w - np.sqrt(1.0 - square),
            contraction_bound - gamma_after,
            gap_bound - gap,
            eq115_slack,
            dxTdz,
            norm_pw - norm_qw,
        )
    held = [margin >= -MONITOR_SLACK for margin in margins]
    flags = np.array([held[0] | ~near, held[1] | ~close, held[2] | ~close, *held[3:]])
    # Python's min over the margins that apply, in the order above: the
    # first, then each later one that compares below it, so NaN and -0.0
    # land as they would there.
    worst = np.where(near, margins[0], eq115_slack)
    for margin, applies in zip(margins[1:], (close, close, True, True, True)):
        worst = np.where(applies & (margin < worst), margin, worst)
    return flags, contraction_bound, gap_bound, worst
