"""Feasible full-Newton-step interior-point solver for linearly constrained
convex optimization: min f(x) s.t. A x = b, x >= 0, with f linear or convex
quadratic, driven by the power-kernel direction family indexed by r.

Typical use:

    from lcco_ipm import SolverConfig, generate_instance, solve

    problem = generate_instance(n=10, m=5, kind="quadratic", seed=1)
    result = solve(problem, SolverConfig(epsilon=1e-6, r=1))
"""

# Each public name is declared once, in its own module's __all__.
from . import centralpath, newton, problem, solver, verifier
from .centralpath import *
from .newton import *
from .problem import *
from .solver import *
from .verifier import *

__version__ = "0.1.0"

__all__ = [
    *centralpath.__all__,
    *newton.__all__,
    *problem.__all__,
    *solver.__all__,
    *verifier.__all__,
    "__version__",
]
