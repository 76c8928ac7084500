"""Dense vector arithmetic, solver configuration, and per-iteration records."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

Vec = NDArray[np.float64]

__all__ = [
    "Vec",
    "as_vector",
    "dot",
    "norm",
    "SolverConfig",
    "SolveStatus",
    "IterateRecord",
]


def as_vector(values) -> Vec:
    """Convert to a finite 1-D float64 vector, validating shape and entries."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _check_point(dim: int, owner: str, *points: Vec) -> None:
    """Reject a point that is not a vector of dimension dim, the dimension
    of the owner ("objective" or "set") that it is given to."""
    for x in points:
        if x.shape != (dim,):
            raise ValueError(f"point of shape {x.shape} does not match {owner} dimension {dim}")


def dot(a: Vec, b: Vec) -> float:
    """Inner product of two vectors of equal dimension."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def norm(a: Vec) -> float:
    """Euclidean norm, sqrt(dot(a, a)), as numpy.linalg.norm computes it for
    a vector, without its dispatch."""
    return math.sqrt(float(np.dot(a, a)))


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by every strategy.

    theta is the backtracking contraction factor, delta the
    sufficient-decrease fraction.  beta is the constant gradient stepsize of
    strategies a, c and A2, the first trial stepsize of the boundary search
    (strategy b), and the upper stepsize bound the monitors' inequalities
    read, exact for a constant stepsize.  exo_constant is the c in the
    exogenous schedule c/(k+1) (strategy d).
    trace_stride subsamples the recorded trace for long runs (every
    trace_stride-th step record and the last); the runtime monitors are fed
    every step, so they run at any trace_stride.
    """

    theta: float = 0.5
    delta: float = 1e-4
    beta: float = 1.0
    residual_tol: float = 1e-8
    max_outer_iters: int = 5000
    max_inner_iters: int = 100
    exo_constant: float = 1.0
    trace_stride: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < np.inf):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not (0.0 < self.residual_tol < np.inf):
            raise ValueError(f"residual_tol must be positive and finite, got {self.residual_tol}")
        for name in ("max_outer_iters", "max_inner_iters", "trace_stride"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if not count >= 1:
                raise ValueError(f"{name} must be at least 1")
        if not (0.0 < self.exo_constant < np.inf):
            raise ValueError(f"exo_constant must be positive and finite, got {self.exo_constant}")


class SolveStatus(enum.Enum):
    OPTIMAL_RESIDUAL = "optimal_residual"
    FIXED_POINT_STOP = "fixed_point_stop"
    ITERATION_CAP = "iteration_cap"
    LINE_SEARCH_FAILURE = "line_search_failure"
    INTERSECTION_FAILURE = "intersection_failure"
    NON_FINITE = "non_finite"


@dataclass
class IterateRecord:
    """Snapshot of iterate k together with the step taken from it.

    residual is the natural residual ||x - P_C(x - grad f(x))|| at the iterate.
    f_lev and dist_anchor are filled only by the anchored solver, epsilon_qf
    and gap_margin (<grad f(x), x - w> - gap^2 / beta) only by the Armijo
    solver, and gap (||x - w|| for the projected step w) by both.
    projections counts the base projections of the projected gradient step:
    the projected point, the residual's own projection when the stepsize is
    not 1, and the rejected trials of the boundary search.
    """

    k: int
    x: Vec
    f_val: float
    alpha: float
    beta: float
    inner_trials: int
    residual: float
    f_lev: Optional[float] = None
    epsilon_qf: Optional[float] = None
    dist_anchor: Optional[float] = None
    gap: Optional[float] = None
    gap_margin: Optional[float] = None
    projections: int = 0
