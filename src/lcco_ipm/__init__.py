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
    check_eq117_inequality,
    contraction_coefficient,
    eq117_ratio,
    monitor_step,
    p_vector,
    proximity,
    proximity_from_scaling,
    scaled_directions,
    scaled_system_matrices,
    scaling_vector,
)
from .newton import (
    RESIDUAL_LIMIT,
    SINGULAR_CONDITION,
    KktFactorization,
    NewtonStep,
    NumericalError,
    assemble_and_factor,
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
    TraceRecord,
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
    "KktFactorization",
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
    "TraceRecord",
    "UnboundedError",
    "__version__",
    "assemble_and_factor",
    "check_eq117_inequality",
    "contraction_coefficient",
    "default_theta",
    "eq117_ratio",
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
    "proximity_from_scaling",
    "reference_solve_lp",
    "reference_solve_qp",
    "scaled_directions",
    "scaled_system_matrices",
    "scaling_vector",
    "serialize_instance",
    "solve",
    "solve_many",
    "trace_to_csv",
    "validate_start",
]
