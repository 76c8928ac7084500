"""Dense vector arithmetic, solver configuration, and per-iteration records."""

from __future__ import annotations

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
    "IterateRecord",
]


def as_vector(values) -> Vec:
    """Convert to a finite 1-D float64 vector, validating shape and entries."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _check_same_dim(a: Vec, b: Vec) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def dot(a: Vec, b: Vec) -> float:
    """Inner product of two vectors of equal dimension."""
    _check_same_dim(a, b)
    return float(np.dot(a, b))


def norm(a: Vec) -> float:
    """Euclidean norm, sqrt(dot(a, a))."""
    return float(np.linalg.norm(a))


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by every solver driver.

    beta_min/beta_max bound the gradient stepsizes, theta is the backtracking
    contraction factor, delta the sufficient-decrease fraction.  beta is the
    constant gradient stepsize of strategies a, c and A2 and must lie in
    [beta_min, beta_max].  beta_bar is the initial trial stepsize of the
    boundary line search (strategy b), exo_constant the c in the exogenous
    schedule c/(k+1) (strategy d).  fixed_point_tol detects exact-fixed-point
    stops and is kept well below residual_tol so the two stopping semantics
    stay distinct.
    trace_stride subsamples the recorded trace for long runs (every
    trace_stride-th step record and the last); the runtime monitors are fed
    every step, so they run at any trace_stride.
    """

    beta_min: float = 1e-4
    beta_max: float = 10.0
    theta: float = 0.5
    delta: float = 1e-4
    beta: float = 1.0
    residual_tol: float = 1e-8
    max_outer_iters: int = 5000
    max_inner_iters: int = 100
    exo_constant: float = 1.0
    beta_bar: float = 1.0
    fixed_point_tol: float = 1e-12
    trace_stride: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.beta_min <= self.beta_max < np.inf):
            raise ValueError(f"need 0 < beta_min <= beta_max < inf, got [{self.beta_min}, {self.beta_max}]")
        if not (self.beta_min <= self.beta <= self.beta_max):
            raise ValueError(f"beta {self.beta} lies outside [{self.beta_min}, {self.beta_max}]")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")
        if self.fixed_point_tol <= 0.0:
            raise ValueError("fixed_point_tol must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be at least 1")
        if self.exo_constant <= 0.0:
            raise ValueError("exo_constant must be positive")
        if self.beta_bar <= 0.0:
            raise ValueError("beta_bar must be positive")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be at least 1")


@dataclass
class IterateRecord:
    """Snapshot of iterate k together with the step taken from it.

    residual is the natural residual ||x - P_C(x - grad f(x))|| at the iterate.
    f_lev and dist_anchor are filled only by the anchored solver, epsilon_qf
    and gap_margin (<grad f(x), x - w> - gap^2 / beta) only by the Armijo
    solver, and gap (||x - w|| for the projected step w) by both.  stop
    marks a terminal no-step record: either "fixed_point" (the projected
    point coincides with the iterate) or "residual" (the natural residual is
    below tolerance).
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
    stop: Optional[str] = None
