"""Feasible full-Newton-step interior-point solver for linearly constrained
convex optimization: min f(x) s.t. A x = b, x >= 0, with f linear or convex
quadratic, driven by the power-kernel direction family indexed by r.

Typical use:

    from lcco_ipm import SolverConfig, generate_instance, solve

    problem = generate_instance(n=10, m=5, kind="quadratic", seed=1)
    result = solve(problem, SolverConfig(epsilon=1e-6, r=1))
"""

from .centralpath import (
    MONITOR_SLACK,
    R_MAX,
    DirectionError,
    InteriorError,
    IterateState,
    MonitorReport,
    ScaledDirections,
    contraction_coefficient,
    monitor_step,
    p_vector,
    proximity,
    scaled_directions,
    scaling_vector,
)
from .newton import (
    RESIDUAL_LIMIT,
    SINGULAR_CONDITION,
    NewtonStep,
    NumericalError,
    newton_rhs,
    newton_step,
)
from .problem import (
    FeasibilityReport,
    InstanceError,
    ObjectiveSpec,
    ParseError,
    Problem,
    StartPoint,
    generate_instance,
    parse_instance,
    serialize_instance,
    validate_start,
)
from .solver import (
    AUTO,
    TRACE_HEADER,
    SolveResult,
    SolverConfig,
    default_theta,
    gamma_threshold,
    iteration_bound,
    solve,
    solve_many,
    trace_to_csv,
)
from .verifier import (
    DegenerateError,
    InfeasibleError,
    KktResiduals,
    OracleError,
    ReferenceSolution,
    UnboundedError,
    kkt_residuals,
    reference_solve_lp,
    reference_solve_qp,
)

__version__ = "0.1.0"

__all__ = [
    "AUTO",
    "MONITOR_SLACK",
    "R_MAX",
    "RESIDUAL_LIMIT",
    "SINGULAR_CONDITION",
    "TRACE_HEADER",
    "DegenerateError",
    "DirectionError",
    "FeasibilityReport",
    "InfeasibleError",
    "InstanceError",
    "InteriorError",
    "IterateState",
    "KktResiduals",
    "MonitorReport",
    "NewtonStep",
    "NumericalError",
    "ObjectiveSpec",
    "OracleError",
    "ParseError",
    "Problem",
    "ReferenceSolution",
    "ScaledDirections",
    "SolveResult",
    "SolverConfig",
    "StartPoint",
    "UnboundedError",
    "__version__",
    "contraction_coefficient",
    "default_theta",
    "gamma_threshold",
    "generate_instance",
    "iteration_bound",
    "kkt_residuals",
    "monitor_step",
    "newton_rhs",
    "newton_step",
    "p_vector",
    "parse_instance",
    "proximity",
    "reference_solve_lp",
    "reference_solve_qp",
    "scaled_directions",
    "scaling_vector",
    "serialize_instance",
    "solve",
    "solve_many",
    "trace_to_csv",
    "validate_start",
]
