"""Problem data, objective oracles, the LCCO-v1 text format, and a generator.

A problem is min f(x) subject to A x = b, x >= 0, with A full row rank and
f one of the two families `ObjectiveSpec` holds: linear or convex
quadratic.  The solver handles only those two: it takes the Hessian H from
`evaluate` once per solve, as constant, and each gradient as c + H x from
`objective.c` (H = 0 for kind linear), so it would solve any other
objective behind a look-alike `evaluate` wrongly.

The generator certifies its own starting points: it picks x0 = z0 = e and
back-solves the dual equation for c, which puts the start exactly on the
central path (proximity zero at mu = 1) for every kernel power.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .centralpath import InteriorError, _checked_power, proximity

__all__ = [
    "ParseError",
    "InstanceError",
    "ObjectiveSpec",
    "Problem",
    "StartPoint",
    "FeasibilityReport",
    "parse_instance",
    "serialize_instance",
    "generate_instance",
    "validate_start",
]

# Relative rank tolerance: A is rank deficient when the smallest singular
# value falls to 1e-10 of the largest.
_RANK_RTOL = 1e-10

# Symmetry and positive-semidefiniteness tolerances for quadratic terms.
_SYMMETRY_RTOL = 1e-12
_PSD_RTOL = 1e-10

# Residual tolerances a feasible start must meet, relative to 1 + the
# right-hand-side norm.
_START_RTOL = 1e-8

_GENERATOR_DRAW_LIMIT = 100


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InstanceError(ValueError):
    """Structurally valid input that violates a problem invariant."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _vector(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float)
    if arr.ndim != 1:
        raise InstanceError(f"{name} must be a one-dimensional vector")
    return _frozen(arr)


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Convex objective oracle: linear c'x or quadratic c'x + x'Qx/2.

    Construct through `linear` or `quadratic` to get the convexity
    invariants checked; the raw constructor stores what it is given, which
    tests use to feed the solver deliberately broken oracles.
    """

    kind: str
    c: np.ndarray
    Q: Optional[np.ndarray] = None
    _hessian: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "c", _vector(self.c, "c"))
        n = self.c.shape[0]
        if self.Q is not None:
            q = np.array(self.Q, dtype=float)
            if q.shape != (n, n):
                raise InstanceError(f"Q must be {n}x{n}, got {q.shape}")
            object.__setattr__(self, "Q", _frozen(q))
        hessian = self.Q if self.Q is not None else _frozen(np.zeros((n, n)))
        object.__setattr__(self, "_hessian", hessian)

    @classmethod
    def linear(cls, c) -> "ObjectiveSpec":
        spec = cls(kind="linear", c=c)
        spec.validate()
        return spec

    @classmethod
    def quadratic(cls, c, Q) -> "ObjectiveSpec":
        spec = cls(kind="quadratic", c=c, Q=Q)
        spec.validate()
        return spec

    def validate(self) -> "ObjectiveSpec":
        """Check the convexity invariants, raising InstanceError."""
        if self.kind not in ("linear", "quadratic"):
            raise InstanceError(f"unknown objective kind {self.kind!r}")
        if not np.all(np.isfinite(self.c)):
            raise InstanceError("c must be finite")
        if self.kind == "linear":
            if self.Q is not None:
                raise InstanceError("a linear objective must not carry Q")
            return self
        if self.Q is None:
            raise InstanceError("a quadratic objective requires Q")
        if not np.all(np.isfinite(self.Q)):
            raise InstanceError("Q must be finite")
        scale = float(np.abs(self.Q).max())
        if float(np.abs(self.Q - self.Q.T).max()) > _SYMMETRY_RTOL * scale:
            raise InstanceError("Q is not symmetric")
        eigenvalues = np.linalg.eigvalsh(self.Q)
        if eigenvalues[0] < -_PSD_RTOL * max(scale, 1e-300):
            raise InstanceError(
                f"Q is not positive semidefinite (smallest eigenvalue {eigenvalues[0]:.3e})"
            )
        return self

    def evaluate(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        """Return (f(x), grad f(x), hessian f(x)).

        Evaluation is defined for any finite x of matching length,
        including points outside the nonnegative orthant; feasibility is
        the caller's concern.  Where the plain sum overflows, f is rescaled
        by max|x|, so an f that overflows reads +inf or -inf by the sign of
        its true value, never nan.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self.c.shape:
            raise ValueError(
                f"x has length {x.shape}, objective expects {self.c.shape}"
            )
        if self.kind == "linear":
            value, gradient = float(self.c @ x), self.c
        else:
            qx = self.Q @ x
            value, gradient = float(self.c @ x) + 0.5 * float(x @ qx), self.c + qx
        if not math.isfinite(value) and np.all(np.isfinite(x)):
            # f(x) = s (c'u + s u'Qu / 2) at u = x / s, s = max|x|: no product
            # overflows before the last two, so f gets the sign of its true
            # value.  Q is PSD, so u'Qu >= 0 up to rounding.
            scale = float(np.abs(x).max())
            u = x / scale
            curvature = 0.0 if self.Q is None else max(0.0, float(u @ (self.Q @ u)))
            value = scale * (float(self.c @ u) + 0.5 * scale * curvature)
        return value, gradient, self._hessian


@dataclass(frozen=True, eq=False)
class StartPoint:
    """Candidate interior start (x0, y0, z0).

    A usable start has x0 > 0, z0 > 0, A x0 = b, and A'y0 + z0 = grad f(x0)
    within the residual tolerances; `validate_start` grades all of that,
    so construction itself only fixes shapes.
    """

    x0: np.ndarray
    y0: np.ndarray
    z0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", _vector(self.x0, "x0"))
        object.__setattr__(self, "y0", _vector(self.y0, "y0"))
        object.__setattr__(self, "z0", _vector(self.z0, "z0"))


@dataclass(frozen=True, eq=False)
class Problem:
    """One instance: min f(x) s.t. A x = b, x >= 0, plus an optional start.

    `parse_instance` and `generate_instance` return validated problems;
    after direct construction call `validate()` to check full row rank of
    A, m < n, dimension consistency, and the objective's convexity.
    """

    A: np.ndarray
    b: np.ndarray
    objective: ObjectiveSpec
    start: Optional[StartPoint] = None

    def __post_init__(self):
        a = np.array(self.A, dtype=float)
        if a.ndim != 2:
            raise InstanceError("A must be a two-dimensional matrix")
        object.__setattr__(self, "A", _frozen(a))
        object.__setattr__(self, "b", _vector(self.b, "b"))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def validate(self) -> "Problem":
        """Check every instance invariant, raising InstanceError."""
        n, m = self.n, self.m
        if m < 1:
            raise InstanceError("at least one constraint is required")
        if m >= n:
            raise InstanceError(f"need m < n, got m = {m}, n = {n}")
        if not np.all(np.isfinite(self.A)):
            raise InstanceError("A must be finite")
        if self.b.shape != (m,):
            raise InstanceError(f"b has length {self.b.shape[0]}, expected {m}")
        if not np.all(np.isfinite(self.b)):
            raise InstanceError("b must be finite")
        if self.objective.c.shape != (n,):
            raise InstanceError(
                f"c has length {self.objective.c.shape[0]}, expected {n}"
            )
        self.objective.validate()
        singular_values = np.linalg.svd(self.A, compute_uv=False)
        if singular_values[-1] <= _RANK_RTOL * singular_values[0]:
            raise InstanceError("A is rank deficient")
        if self.start is not None:
            s = self.start
            if (
                s.x0.shape != (n,)
                or s.y0.shape != (m,)
                or s.z0.shape != (n,)
            ):
                raise InstanceError("start point dimensions do not match")
        return self


@dataclass(frozen=True)
class FeasibilityReport:
    """Graded start-point check.

    `admissible` is true iff the start is strictly interior, both
    residuals are within 1e-8 (1 + norm of the matched right-hand side),
    and the proximity gamma0 at mu0 = gap0/n, gap0 = x0'z0, is below the
    admission threshold.  gamma0 is reported as inf where the scaling
    vector is undefined: for non-interior starts, where mu0 is not finite
    and positive (x0'z0 overflows or underflows), and where some
    x0_i z0_i / mu0 underflows to zero.
    """

    primal_residual: float
    dual_residual: float
    min_x: float
    min_z: float
    gap0: float
    gamma0: float
    admissible: bool


def _reported_norm(v: np.ndarray) -> float:
    """||v|| as np.linalg.norm gives it, unless that overflows at a finite v.

    norm squares the entries, so it reads inf above about 1.3e154; then v
    is rescaled by its largest entry first.  For reports and grades only:
    the solver's loop keeps centralpath._norm.
    """
    norm = float(np.linalg.norm(v))
    if norm == math.inf and np.all(np.isfinite(v)):
        scale = float(np.abs(v).max())
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def validate_start(p: Problem, s: StartPoint, r: int) -> FeasibilityReport:
    """Grade a candidate start against the solver's admission conditions.

    A start is admissible when it is strictly interior, primal and dual
    feasible within tolerance, and its proximity is below 1/e^r.
    Dimension mismatches raise ValueError; every other defect is
    reported, not raised.
    """
    r = _checked_power(r)
    n, m = p.n, p.m
    if s.x0.shape != (n,) or s.y0.shape != (m,) or s.z0.shape != (n,):
        raise ValueError("start point dimensions do not match the problem")
    # An extreme start may overflow these products and norms: graded, not warned.
    with np.errstate(over="ignore"):
        gradient = p.objective.evaluate(s.x0)[1]
        primal_residual = _reported_norm(p.A @ s.x0 - p.b)
        dual_residual = _reported_norm(p.A.T @ s.y0 + s.z0 - gradient)
        feasible = (
            primal_residual <= _START_RTOL * (1.0 + _reported_norm(p.b))
            and dual_residual <= _START_RTOL * (1.0 + _reported_norm(gradient))
        )
        gap0 = float(s.x0 @ s.z0)
    min_x = float(s.x0.min())
    min_z = float(s.z0.min())
    try:
        gamma0 = proximity(s.x0, s.z0, gap0 / n, r)
    except InteriorError:
        gamma0 = math.inf  # no scaling vector
    return FeasibilityReport(
        primal_residual=primal_residual,
        dual_residual=dual_residual,
        min_x=min_x,
        min_z=min_z,
        gap0=gap0,
        gamma0=gamma0,
        admissible=min_x > 0.0 and min_z > 0.0 and feasible and gamma0 < math.exp(-r),
    )


def generate_instance(n: int, m: int, kind: str, seed: int) -> Problem:
    """Draw a random full-rank instance with a certified start point.

    The construction fixes x0 = z0 = e and b = A e, draws y0 uniformly in
    [-1, 1]^m, then back-solves the dual equation for c, which makes the
    start exactly primal and dual feasible with x0 z0 = e.  Hence mu0 = 1,
    w = e, and the proximity is exactly zero, below the admission
    threshold for every kernel power.  Deterministic in the seed.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("n must be an integer")
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise TypeError("m must be an integer")
    if n < 2:
        raise InstanceError(f"need n >= 2, got {n}")
    if not 1 <= m < n:
        raise InstanceError(f"need 1 <= m < n, got m = {m}, n = {n}")
    if kind not in ("linear", "quadratic"):
        raise InstanceError(f"unknown objective kind {kind!r}")
    rng = np.random.default_rng(seed)
    for _ in range(_GENERATOR_DRAW_LIMIT):
        A = rng.standard_normal((m, n))
        singular_values = np.linalg.svd(A, compute_uv=False)
        if singular_values[-1] > 1e-8 * singular_values[0]:
            break
    else:
        raise InstanceError(
            f"no well-conditioned A in {_GENERATOR_DRAW_LIMIT} draws for seed {seed}"
        )
    x0 = np.ones(n)
    b = A @ x0
    y0 = rng.uniform(-1.0, 1.0, m)
    if kind == "quadratic":
        g = rng.standard_normal((n, n))
        q = g.T @ g / n
        q = 0.5 * (q + q.T)
        c = x0 + A.T @ y0 - q @ x0
    else:
        q = None
        c = x0 + A.T @ y0
    # Problem.validate checks the objective, so it is built raw, as
    # parse_instance builds it.
    objective = ObjectiveSpec(kind=kind, c=c, Q=q)
    start = StartPoint(x0=x0, y0=y0, z0=np.ones(n))
    return Problem(A=A, b=b, objective=objective, start=start).validate()


_TOKEN = re.compile(r"\S+")


class _Lines:
    """Cursor over the significant lines of an instance file."""

    def __init__(self, text: str):
        self._rows: list[tuple[int, str]] = []
        last = 1
        for number, raw in enumerate(text.splitlines(), start=1):
            last = number
            stripped = raw.lstrip()
            if not stripped or stripped.startswith("#"):
                continue
            self._rows.append((number, raw))
        self._pos = 0
        self._end_line = last

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._rows)

    def take(self, expected: str) -> tuple[int, list[tuple[str, int]]]:
        """The next line's number and its (text, column) tokens, of which it has one or more."""
        if self.exhausted:
            raise ParseError(f"unexpected end of input, expected {expected}", self._end_line, 1)
        number, raw = self._rows[self._pos]
        self._pos += 1
        return number, [(match.group(), match.start() + 1) for match in _TOKEN.finditer(raw)]


def _numbers(lineno: int, toks: list[tuple[str, int]], count: int, what: str) -> np.ndarray:
    if len(toks) != count:
        column = toks[count][1] if len(toks) > count else 1
        raise ParseError(
            f"expected {count} numbers for {what}, found {len(toks)}", lineno, column
        )
    values = []
    for token, column in toks:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"invalid number {token!r}", lineno, column) from None
        if not math.isfinite(value):
            raise ParseError(f"number {token!r} is not finite", lineno, column)
        values.append(value)
    return np.array(values)


def _keyword_value(lines: _Lines, keyword: str) -> tuple[int, str, int]:
    lineno, toks = lines.take(f"'{keyword} <value>'")
    if toks[0][0] != keyword:
        raise ParseError(f"expected keyword {keyword!r}", lineno, toks[0][1])
    if len(toks) != 2:
        column = toks[2][1] if len(toks) > 2 else toks[0][1]
        raise ParseError(f"expected exactly one value after {keyword!r}", lineno, column)
    return lineno, toks[1][0], toks[1][1]


def _keyword_int(lines: _Lines, keyword: str) -> int:
    lineno, token, column = _keyword_value(lines, keyword)
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"invalid integer {token!r}", lineno, column) from None
    if value <= 0:
        raise ParseError(f"{keyword} must be positive, got {value}", lineno, column)
    return value


def _bare_keyword(lines: _Lines, keyword: str) -> None:
    lineno, toks = lines.take(f"'{keyword}'")
    if len(toks) != 1 or toks[0][0] != keyword:
        raise ParseError(f"expected keyword {keyword!r}", lineno, toks[0][1])


def _matrix(lines: _Lines, rows: int, cols: int, what: str) -> np.ndarray:
    # Built from the rows actually read, so a header declaring a huge
    # shape fails on its first short row instead of allocating up front.
    parsed = []
    for i in range(rows):
        lineno, toks = lines.take(f"row {i + 1} of {what}")
        parsed.append(_numbers(lineno, toks, cols, f"row {i + 1} of {what}"))
    return np.array(parsed)


def _labelled_row(lines: _Lines, label: str, count: int) -> np.ndarray:
    lineno, toks = lines.take(f"'{label} <{count} numbers>'")
    if toks[0][0] != label:
        raise ParseError(f"expected start row {label!r}", lineno, toks[0][1])
    return _numbers(lineno, toks[1:], count, f"start row {label!r}")


def parse_instance(text: str) -> Problem:
    """Parse LCCO-v1 text into a validated Problem.

    Structural defects raise ParseError with a 1-based line and column;
    semantic defects (rank-deficient A, non-convex Q) raise InstanceError.
    Both are ValueError subclasses.
    """
    lines = _Lines(text)
    lineno, toks = lines.take("header 'LCCO 1'")
    if [t for t, _ in toks] != ["LCCO", "1"]:
        raise ParseError("expected header 'LCCO 1'", lineno, toks[0][1])
    n = _keyword_int(lines, "n")
    m = _keyword_int(lines, "m")
    _bare_keyword(lines, "A")
    a = _matrix(lines, m, n, "A")
    _bare_keyword(lines, "b")
    b = _numbers(*lines.take("b values"), m, "b")
    lineno, kind, column = _keyword_value(lines, "objective")
    if kind not in ("linear", "quadratic"):
        raise ParseError(f"unknown objective kind {kind!r}", lineno, column)
    _bare_keyword(lines, "c")
    c = _numbers(*lines.take("c values"), n, "c")
    q = None
    if kind == "quadratic":
        _bare_keyword(lines, "Q")
        q = _matrix(lines, n, n, "Q")
    start = None
    if not lines.exhausted:
        lineno, toks = lines.take("'start'")
        if len(toks) != 1 or toks[0][0] != "start":
            raise ParseError("expected 'start' or end of input", lineno, toks[0][1])
        start = StartPoint(
            x0=_labelled_row(lines, "x", n),
            y0=_labelled_row(lines, "y", m),
            z0=_labelled_row(lines, "z", n),
        )
    if not lines.exhausted:
        lineno, toks = lines.take("end of input")
        raise ParseError("unexpected trailing content", lineno, toks[0][1])
    objective = ObjectiveSpec(kind=kind, c=c, Q=q)
    return Problem(A=a, b=b, objective=objective, start=start).validate()


def serialize_instance(p: Problem) -> str:
    """Render a Problem as LCCO-v1 text, exact to the bit on re-parse.

    Numbers are written with 17 significant digits, which round-trips
    every finite double.
    """

    def row(values) -> str:
        return " ".join(format(float(v), ".17g") for v in values)

    parts = [
        "LCCO 1",
        f"n {p.n}",
        f"m {p.m}",
        "A",
        *(row(r) for r in p.A),
        "b",
        row(p.b),
        f"objective {p.objective.kind}",
        "c",
        row(p.objective.c),
    ]
    if p.objective.kind == "quadratic":
        parts.append("Q")
        parts.extend(row(r) for r in p.objective.Q)
    if p.start is not None:
        parts.extend(
            [
                "start",
                f"x {row(p.start.x0)}",
                f"y {row(p.start.y0)}",
                f"z {row(p.start.z0)}",
            ]
        )
    return "\n".join(parts) + "\n"
