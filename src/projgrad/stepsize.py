"""Stepsize strategies: two Armijo backtracking searches and the exogenous step.

The feasible-direction search backtracks along the segment from the current
iterate to the projected gradient point and needs a single projection per
outer iteration (done by the caller).  It runs on the objective's segment
evaluator, so for the built-in objectives a trial costs O(n) (O(m) for
log-sum-exp) after one matrix-vector product per search.  The boundary
search backtracks the pre-projection stepsize instead and pays one
projection per rejected trial (the first trial is the caller's projected
step); it tests each trial's decrease on the segment from the iterate to
the trial point.  Both searches compare the segment's decrease, never two
rounded values of the objective.  Both start from the caller's iterate, a
`Point` with the value, the gradient and the carry of the objective's
evaluation there, and from the caller's `Step` to its projected point,
which the first trial's segment reads and no search forms again.
`projected_step` is the one place that forms a projected step, the
caller's and each rejected boundary trial's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Vec
from .objectives import Objective, Point, Segment, Step, segment
from .sets import FeasibleSet

__all__ = [
    "LineSearchResult",
    "LineSearchError",
    "armijo_feasible_direction",
    "armijo_boundary",
    "exogenous_step",
    "projected_step",
]


class LineSearchError(RuntimeError):
    """Backtracking exhausted its trial budget.

    For convex objectives with a correct gradient oracle the search accepts
    after finitely many trials, so hitting the budget signals a broken oracle
    or violated convexity rather than a slow search.
    """

    def __init__(self, message: str, trials: int):
        super().__init__(message)
        self.trials = trials


@dataclass
class LineSearchResult:
    """Accepted trial of a backtracking search.

    alpha is the accepted convex-combination weight (feasible-direction
    search), beta the accepted pre-projection stepsize (boundary search);
    whichever the strategy does not control is left at its fixed value.
    segment is the segment the accepting test ran on, from the iterate
    toward the trial point of the search: segment.gradient(alpha) is the
    gradient at trial_point.  f_trial is the value at the iterate plus the
    accepted decrease.
    """

    alpha: float
    beta: Optional[float]
    trials: int
    trial_point: Vec
    f_trial: float
    segment: Segment


def armijo_feasible_direction(
    obj: Objective, at: Point, step: Step, theta: float, delta: float, max_inner: int
) -> LineSearchResult:
    """Backtrack along the segment from the iterate x = at.x to the
    projected point w = step.w.

    Accepts the smallest j with

        f(x + theta^j (w - x)) - f(x) <= -delta * theta^j * d,

    where d = <grad f(x), x - w>, the step's slope negated, must be positive
    (it is whenever w is the projection of a gradient step from a
    non-stationary x).  The left side is the decrease of the objective's
    segment; the built-in objectives compute it without subtracting two
    rounded values of f, so a decrease below the float resolution of f(x)
    is still seen.  The comparison is an exact float <=; no slack is added.
    f_trial is f(x) plus the accepted decrease.
    """
    d = -step.slope
    if d <= 0.0:
        raise ValueError(f"feasible-direction search needs a descent gap, got <g, x-w> = {d}")
    seg = segment(obj, at, step)
    t = 1.0
    for j in range(max_inner + 1):
        decrease = seg.decrease(t)
        if decrease <= -delta * t * d:
            trial = t * step.w + (1.0 - t) * at.x
            return LineSearchResult(
                alpha=t, beta=None, trials=j, trial_point=trial, f_trial=at.f + decrease, segment=seg
            )
        t *= theta
    raise LineSearchError(
        f"feasible-direction search found no acceptable step within {max_inner} trials", trials=max_inner
    )


def armijo_boundary(
    obj: Objective,
    set_: FeasibleSet,
    at: Point,
    step: Step,
    beta_bar: float,
    theta: float,
    delta: float,
    max_inner: int,
) -> LineSearchResult:
    """Backtrack the pre-projection stepsize, projecting every trial.

    With x = at.x, g = at.g and w_l = P_C(x - beta_bar * theta^l * g),
    accepts the smallest l with

        f(w_l) - f(x) <= -delta * <g, x - w_l>,

    where the left side is the decrease of the objective's segment from x
    to w_l, as in the feasible-direction search, so a decrease below the
    float resolution of f(x) is still seen.  step is the first trial's, to
    w_0 (the caller's projected step), so the search makes l projections.
    At a stationary feasible point the first trial projects back to x and
    is accepted with equality.
    """
    beta = beta_bar
    for ell in range(max_inner + 1):
        if ell:
            step = projected_step(set_, at, beta)
        seg = segment(obj, at, step)
        decrease = seg.decrease(1.0)
        if decrease <= delta * step.slope:
            return LineSearchResult(
                alpha=1.0, beta=beta, trials=ell, trial_point=step.w, f_trial=at.f + decrease, segment=seg
            )
        beta *= theta
    raise LineSearchError(
        f"boundary search found no acceptable step within {max_inner} trials", trials=max_inner
    )


def projected_step(set_: FeasibleSet, at: Point, beta: float) -> Step:
    """The `Step` from at.x to w = P_C(x - beta g), with one projection."""
    # x - beta g in one new vector, with the same bits
    y = at.g * -beta
    y += at.x
    return Step.between(at, set_.project(y))


def exogenous_step(grad_norm: float, k: int, c: float) -> float:
    """Exogenous stepsize (c/(k+1)) / grad_norm.

    The schedule c/(k+1) is divergent in sum and square-summable, and the
    induced step satisfies ||x_{k+1} - x_k|| <= c/(k+1).  A zero gradient
    norm is rejected: the caller must treat that iterate as stationary.
    """
    if grad_norm <= 0.0:
        raise ValueError("exogenous stepsize needs a positive gradient norm; stop at stationary points")
    if c <= 0.0:
        raise ValueError("exogenous constant must be positive")
    return (c / (k + 1)) / grad_norm
