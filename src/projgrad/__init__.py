"""Projected gradient methods for constrained convex optimization."""

from .core import IterateRecord, SolverConfig, Vec, as_vector, dot, norm
from .objectives import LogSumExp, Objective, PNorm, Quadratic, check_gradient
from .sets import (
    Ball,
    Box,
    FeasibleSet,
    Halfspace,
    Hyperplane,
    IntersectionError,
    Simplex,
    WholeSpace,
    project_intersection,
)
from .solver import (
    AnchoredState,
    MonitorResult,
    ProblemInstance,
    RunReport,
    SolveStatus,
    anchored_step,
    armijo_step,
    natural_residual,
    quasi_fejer_epsilon,
    solve,
)
from .stepsize import (
    LineSearchError,
    LineSearchResult,
    armijo_boundary,
    armijo_feasible_direction,
    exogenous_step,
)
from .registry import get_instance, list_instances

__version__ = "0.1.0"
