"""Built-in benchmark instances under stable ids.

quadratic-box     0.5 ||x - (2,2)||^2 over the unit box; solution (1,1).
pnorm4-ball       quartic distance to (2,0) over the unit ball; solution (1,0).
pnorm1p5-box      p=1.5 distance to (2,0.5) over the unit box; solution (1,0.5).
line-1d           0.5 x^2 over [1, inf); solution 1.
flat-quadratic    0.5 (x1-1)^2 over [0,2]^2 from (0,1.7); the solution set is
                  the segment {1} x [0,2] and the solution closest to the
                  start is (1,1.7).
pnorm4-ball-far   quartic distance to (3,0) over the unit ball; solution (1,0).
"""

from __future__ import annotations

import numpy as np

from .objectives import PNorm, Quadratic
from .sets import Ball, Box
from .solver import ProblemInstance

__all__ = ["list_instances", "get_instance"]


def _quadratic_box() -> ProblemInstance:
    return ProblemInstance(
        objective=Quadratic(Q=np.eye(2), b=np.array([-2.0, -2.0]), c=4.0),
        feasible_set=Box(lower=np.zeros(2), upper=np.ones(2)),
        x0=np.zeros(2),
        known_solution=np.array([1.0, 1.0]),
        known_fstar=1.0,
    )


def _pnorm4_ball() -> ProblemInstance:
    return ProblemInstance(
        objective=PNorm(p=4.0, shift=np.array([2.0, 0.0])),
        feasible_set=Ball(center=np.zeros(2), radius=1.0),
        x0=np.array([0.0, 1.0]),
        known_solution=np.array([1.0, 0.0]),
        known_fstar=0.25,
    )


def _pnorm1p5_box() -> ProblemInstance:
    return ProblemInstance(
        objective=PNorm(p=1.5, shift=np.array([2.0, 0.5])),
        feasible_set=Box(lower=np.zeros(2), upper=np.ones(2)),
        x0=np.zeros(2),
        known_solution=np.array([1.0, 0.5]),
        known_fstar=1.0 / 1.5,
    )


def _line_1d() -> ProblemInstance:
    return ProblemInstance(
        objective=Quadratic(Q=np.array([[1.0]]), b=np.zeros(1), c=0.0),
        feasible_set=Box(lower=np.array([1.0]), upper=np.array([np.inf])),
        x0=np.array([2.0]),
        known_solution=np.array([1.0]),
        known_fstar=0.5,
    )


def _flat_quadratic() -> ProblemInstance:
    return ProblemInstance(
        objective=Quadratic(Q=np.diag([1.0, 0.0]), b=np.array([-1.0, 0.0]), c=0.5),
        feasible_set=Box(lower=np.zeros(2), upper=np.full(2, 2.0)),
        x0=np.array([0.0, 1.7]),
        known_solution=np.array([1.0, 1.7]),
        known_fstar=0.0,
    )


def _pnorm4_ball_far() -> ProblemInstance:
    return ProblemInstance(
        objective=PNorm(p=4.0, shift=np.array([3.0, 0.0])),
        feasible_set=Ball(center=np.zeros(2), radius=1.0),
        x0=np.array([0.0, 1.0]),
        known_solution=np.array([1.0, 0.0]),
        known_fstar=4.0,
    )


_REGISTRY = {
    "quadratic-box": _quadratic_box,
    "pnorm4-ball": _pnorm4_ball,
    "pnorm1p5-box": _pnorm1p5_box,
    "line-1d": _line_1d,
    "flat-quadratic": _flat_quadratic,
    "pnorm4-ball-far": _pnorm4_ball_far,
}


def list_instances() -> list[str]:
    return sorted(_REGISTRY)


def get_instance(instance_id: str) -> ProblemInstance:
    if instance_id not in _REGISTRY:
        raise ValueError(f"unknown instance {instance_id!r}; known: {', '.join(list_instances())}")
    return _REGISTRY[instance_id]()
