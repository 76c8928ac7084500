"""Stepsize strategies: two Armijo backtracking searches and the exogenous step.

The feasible-direction search backtracks along the segment from the current
iterate to the projected gradient point and needs a single projection per
outer iteration (done by the caller).  It runs on the objective's segment
evaluator, so for the built-in objectives a trial costs O(n) (O(m) for
log-sum-exp) after one matrix-vector product per search.  The boundary
search backtracks the pre-projection stepsize instead and pays one
projection per trial (the first can be the caller's projected step); it
tests each trial's decrease on the segment from the iterate to the trial
point.  Both searches compare the segment's decrease, never two rounded
values of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Vec
from .objectives import Objective, Segment, segment, value_and_grad
from .sets import FeasibleSet

__all__ = [
    "LineSearchResult",
    "LineSearchError",
    "armijo_feasible_direction",
    "armijo_boundary",
    "exogenous_step",
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
    obj: Objective,
    xk: Vec,
    wk: Vec,
    theta: float,
    delta: float,
    max_inner: int,
    f_k: Optional[float] = None,
    grad_k: Optional[Vec] = None,
) -> LineSearchResult:
    """Backtrack along the segment from xk to the projected point wk.

    Accepts the smallest j with

        f(xk + theta^j (wk - xk)) - f(xk) <= -delta * theta^j * d,

    where d = <grad f(xk), xk - wk> must be positive (it is whenever wk is
    the projection of a gradient step from a non-stationary xk).  The left
    side is the decrease of the objective's segment; the built-in objectives
    compute it without subtracting two rounded values of f, so a decrease
    below the float resolution of f(xk) is still seen.
    The comparison is an exact float <=; no slack is added.  f_trial is
    f(xk) plus the accepted decrease.
    """
    if f_k is None or grad_k is None:
        f_k, grad_k = value_and_grad(obj, xk)
    direction = wk - xk
    d = -float(grad_k @ direction)
    if d <= 0.0:
        raise ValueError(f"feasible-direction search needs a descent gap, got <g, x-w> = {d}")
    seg = segment(obj, xk, f_k, grad_k, direction)
    step = 1.0
    for j in range(max_inner + 1):
        decrease = seg.decrease(step)
        if decrease <= -delta * step * d:
            trial = step * wk + (1.0 - step) * xk
            return LineSearchResult(
                alpha=step, beta=None, trials=j, trial_point=trial, f_trial=f_k + decrease, segment=seg
            )
        step *= theta
    raise LineSearchError(
        f"feasible-direction search found no acceptable step within {max_inner} trials", trials=max_inner
    )


def armijo_boundary(
    obj: Objective,
    set_: FeasibleSet,
    xk: Vec,
    beta_bar: float,
    theta: float,
    delta: float,
    max_inner: int,
    f_k: Optional[float] = None,
    grad_k: Optional[Vec] = None,
    w_k: Optional[Vec] = None,
) -> LineSearchResult:
    """Backtrack the pre-projection stepsize, projecting every trial.

    With w_l = P_C(xk - beta_bar * theta^l * g), accepts the smallest l with

        f(w_l) - f(xk) <= -delta * <g, xk - w_l>,

    where the left side is the decrease of the objective's segment from xk
    to w_l, as in the feasible-direction search, so a decrease below the
    float resolution of f(xk) is still seen.  w_k, when given, is the first
    trial w_0 (the caller's projected step); the search then makes l
    projections, otherwise l+1.  At a stationary feasible point the first
    trial projects back to xk and is accepted with equality.
    """
    if f_k is None or grad_k is None:
        f_k, grad_k = value_and_grad(obj, xk)
    beta = beta_bar
    for ell in range(max_inner + 1):
        w = w_k if ell == 0 and w_k is not None else set_.project(xk - beta * grad_k)
        direction = w - xk
        seg = segment(obj, xk, f_k, grad_k, direction)
        decrease = seg.decrease(1.0)
        if decrease <= delta * float(grad_k @ direction):
            return LineSearchResult(
                alpha=1.0, beta=beta, trials=ell, trial_point=w, f_trial=f_k + decrease, segment=seg
            )
        beta *= theta
    raise LineSearchError(
        f"boundary search found no acceptable step within {max_inner} trials", trials=max_inner
    )


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
