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
rounded values of the objective, and start from the value and gradient at
the iterate that the caller holds.  A caller that holds the step to its
projected point, with its slope along the gradient (a `Step`), and the
carry of the objective's evaluation at the iterate hands both over, and the
search forms neither again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import Vec
from .objectives import Objective, Segment, segment
from .sets import FeasibleSet

__all__ = [
    "Step",
    "LineSearchResult",
    "LineSearchError",
    "armijo_feasible_direction",
    "armijo_boundary",
    "exogenous_step",
]


class Step(NamedTuple):
    """The step d = w - x from an iterate x to a projected point w, and its
    slope <g, d> along the gradient g at x."""

    d: Vec
    slope: float

    @classmethod
    def between(cls, x: Vec, w: Vec, g: Vec) -> Step:
        d = w - x
        return cls(d, float(g @ d))


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
    f_k: float,
    grad_k: Vec,
    step: Optional[Step] = None,
    carry: object = None,
) -> LineSearchResult:
    """Backtrack along the segment from xk to the projected point wk.

    f_k and grad_k are the value and gradient at xk, step is wk - xk with
    its slope when the caller holds it, and carry is what the objective's
    evaluation at xk left for its segments (see objectives.evaluate).
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
    direction, slope = Step.between(xk, wk, grad_k) if step is None else step
    d = -slope
    if d <= 0.0:
        raise ValueError(f"feasible-direction search needs a descent gap, got <g, x-w> = {d}")
    seg = segment(obj, xk, f_k, grad_k, direction, carry)
    t = 1.0
    for j in range(max_inner + 1):
        decrease = seg.decrease(t)
        if decrease <= -delta * t * d:
            trial = t * wk + (1.0 - t) * xk
            return LineSearchResult(
                alpha=t, beta=None, trials=j, trial_point=trial, f_trial=f_k + decrease, segment=seg
            )
        t *= theta
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
    f_k: float,
    grad_k: Vec,
    w_k: Vec,
    step: Optional[Step] = None,
    carry: object = None,
) -> LineSearchResult:
    """Backtrack the pre-projection stepsize, projecting every trial.

    With w_l = P_C(xk - beta_bar * theta^l * g), accepts the smallest l with

        f(w_l) - f(xk) <= -delta * <g, xk - w_l>,

    where the left side is the decrease of the objective's segment from xk
    to w_l, as in the feasible-direction search, so a decrease below the
    float resolution of f(xk) is still seen.  f_k and grad_k are the value
    and gradient at xk, and w_k is the first trial w_0 (the caller's
    projected step), so the search makes l projections; step is w_k - xk
    with its slope when the caller holds it, and carry is what the
    objective's evaluation at xk left for its segments.  At a stationary
    feasible point the first trial projects back to xk and is accepted with
    equality.
    """
    beta, w = beta_bar, w_k
    for ell in range(max_inner + 1):
        if ell:
            y = grad_k * -beta
            y += xk
            w = set_.project(y)
        direction, slope = Step.between(xk, w, grad_k) if ell or step is None else step
        seg = segment(obj, xk, f_k, grad_k, direction, carry)
        decrease = seg.decrease(1.0)
        if decrease <= delta * slope:
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
