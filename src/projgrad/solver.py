"""Outer iterations of the projected gradient solvers.

``solve(inst, cfg, strategy)`` is the one driver.  Each strategy supplies a
step and a stop rule:

* ``c`` takes the projected gradient step and moves along the segment to the
  projected point with the backtracked weight (``armijo_step``).
* ``A2`` keeps projecting the initial point onto the feasible set intersected
  with two halfspace cuts (a gradient level cut and an anchor cut), which
  drives the iterates to the solution closest to the start
  (``anchored_step``).
* ``a`` (constant), ``b`` (boundary search) and ``d`` (exogenous) take the
  plain projection step.

The driver owns the loop, the mapping of stops and typed failures to a
``SolveStatus``, the subsampled trace and the final report.  After every
step it feeds the strategy's runtime monitors, accumulators over the
inequalities the iteration is known to satisfy, with values the step
already holds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

from .core import IterateRecord, SolverConfig, Vec, as_vector, dot, norm
from .objectives import Objective, value_and_grad
from .sets import FeasibleSet, Halfspace, IntersectionError, project_intersection
from .stepsize import LineSearchError, armijo_boundary, armijo_feasible_direction, exogenous_step

__all__ = [
    "ProblemInstance",
    "AnchoredState",
    "SolveStatus",
    "MonitorResult",
    "RunReport",
    "natural_residual",
    "quasi_fejer_epsilon",
    "armijo_step",
    "anchored_step",
    "solve",
]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A constrained minimization problem with a feasible starting point.

    known_solution and known_fstar are optional ground truths used by the
    runtime monitors and tests; for the anchored solver known_solution should
    be the solution closest to x0 when the solution set is not a singleton.
    """

    objective: Objective
    feasible_set: FeasibleSet
    x0: Vec
    known_solution: Optional[Vec] = None
    known_fstar: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", as_vector(self.x0))
        if self.known_solution is not None:
            object.__setattr__(self, "known_solution", as_vector(self.known_solution))
        dim = getattr(self.objective, "dim", None)
        if dim is not None and dim != self.x0.shape[0]:
            raise ValueError(f"objective dimension {dim} does not match x0 dimension {self.x0.shape[0]}")
        if not self.feasible_set.contains(self.x0, 1e-9):
            raise ValueError("starting point x0 must be feasible (within 1e-9)")


@dataclass(frozen=True, eq=False)
class AnchoredState:
    """State of the anchored solver: current iterate, running level value
    and the iteration index.  The anchor is always the instance's x0."""

    x: Vec
    f_lev: float
    k: int


class SolveStatus(enum.Enum):
    OPTIMAL_RESIDUAL = "optimal_residual"
    FIXED_POINT_STOP = "fixed_point_stop"
    ITERATION_CAP = "iteration_cap"
    LINE_SEARCH_FAILURE = "line_search_failure"
    INTERSECTION_FAILURE = "intersection_failure"


@dataclass
class MonitorResult:
    """Outcome of one runtime invariant check; worst_margin is the smallest
    slack observed (negative means violated beyond tolerance)."""

    passed: bool
    worst_margin: float


@dataclass
class RunReport:
    """Outcome of a solve.  final_f and final_residual (the natural residual)
    are evaluated afresh at final_x; inner_trials sums the line-search trials
    of every step, whatever the trace keeps."""

    status: SolveStatus
    iterations: int
    trace: list[IterateRecord]
    final_x: Vec
    final_f: float
    final_residual: float
    inner_trials: int
    monitors: dict[str, MonitorResult] = field(default_factory=dict)


def natural_residual(inst: ProblemInstance, x: Vec) -> float:
    """||x - P_C(x - grad f(x))||, zero exactly at solutions."""
    g = inst.objective.gradient(x)
    return norm(x - inst.feasible_set.project(x - g))


def quasi_fejer_epsilon(
    x_k: Vec, x_next: Vec, alpha: float, w_k: Vec, f_k: float, f_next: float, cfg: SolverConfig
) -> float:
    """Per-step slack -alpha ||x - w||^2 + 2 (beta_max / delta) (f_k - f_next).

    These slacks are nonnegative, summable (their sum telescopes against the
    total objective decrease), and bound the growth of the squared distance
    to any solution from one iterate to the next.
    """
    return -alpha * norm(x_k - w_k) ** 2 + 2.0 * (cfg.beta_max / cfg.delta) * (f_k - f_next)


class _Point(NamedTuple):
    """Iterate k, with the value and gradient there when the step carries
    them (strategy c)."""

    x: Vec
    k: int
    f: float = math.nan
    g: Optional[Vec] = None


def _projected_step(
    inst: ProblemInstance, x: Vec, g: Vec, beta: float
) -> tuple[Vec, float, float, float]:
    """Shared per-iteration prelude from the gradient g at x: projected step
    w, gap ||x - w||, natural residual and descent gap <g, x - w>."""
    set_ = inst.feasible_set
    w = set_.project(x - beta * g)
    gap = norm(x - w)
    residual = gap if beta == 1.0 else norm(x - set_.project(x - g))
    return w, gap, residual, dot(g, x - w)


def _entry_stop(cfg: SolverConfig, gap: float, residual: float, descent_gap: float = math.inf) -> Optional[str]:
    """Pre-step stop marker: "fixed_point" when the projected step does not
    move (or gives no descent), "residual" at the residual tolerance."""
    if gap <= cfg.fixed_point_tol or descent_gap <= 0.0:
        return "fixed_point"
    if residual <= cfg.residual_tol:
        return "residual"
    return None


def _armijo_step(inst: ProblemInstance, cfg: SolverConfig, state: _Point) -> tuple[_Point, IterateRecord, Vec]:
    """armijo_step from the value and gradient that state carries; the next
    state carries the value and gradient at the accepted point, both from
    the segment of the search that accepted it.

    The record carries the projection-gap margin <g, x - w> - ||x - w||^2 / beta
    and the gap ||x - w|| of the step, from which the monitors read the
    projection_gap_bound and vanishing_product margins."""
    x, k, f, g = state
    beta = cfg.beta_at(k)
    w, gap, residual, descent_gap = _projected_step(inst, x, g, beta)
    margin = descent_gap - gap**2 / beta
    stop = _entry_stop(cfg, gap, residual, descent_gap)
    if stop is not None:
        rec = IterateRecord(k, x, f, 0.0, beta, 0, residual, epsilon_qf=0.0, gap=gap, gap_margin=margin, stop=stop)
        return state, rec, g
    ls = armijo_feasible_direction(
        inst.objective, x, w, cfg.theta, cfg.delta, cfg.max_inner_iters, f_k=f, grad_k=g
    )
    eps = quasi_fejer_epsilon(x, ls.trial_point, ls.alpha, w, f, ls.f_trial, cfg)
    rec = IterateRecord(k, x, f, ls.alpha, beta, ls.trials, residual, epsilon_qf=eps, gap=gap, gap_margin=margin)
    return _Point(ls.trial_point, k + 1, ls.f_trial, ls.segment.gradient(ls.alpha)), rec, g


def armijo_step(
    inst: ProblemInstance, xk: Vec, cfg: SolverConfig, k: int
) -> tuple[Vec, IterateRecord]:
    """One projected gradient step with the feasible-direction search.

    Computes w = P_C(xk - beta_k grad f(xk)); when xk is a fixed point of
    that map (or the natural residual is already below tolerance) returns xk
    unchanged with the stop marker set.  Otherwise backtracks along the
    segment to w and returns the accepted convex combination.
    """
    state, rec, _ = _armijo_step(inst, cfg, _Point(xk, k, *value_and_grad(inst.objective, xk)))
    return state.x, rec


def _anchored_step(
    inst: ProblemInstance, cfg: SolverConfig, state: AnchoredState
) -> tuple[AnchoredState, IterateRecord, Vec]:
    """anchored_step, also returning the gradient at the iterate."""
    obj = inst.objective
    x, k = state.x, state.k
    beta = cfg.beta_at(k)
    f, g = value_and_grad(obj, x)
    w, gap, residual, descent_gap = _projected_step(inst, x, g, beta)
    dist_anchor = norm(x - inst.x0)
    stop = _entry_stop(cfg, gap, residual, descent_gap)
    if stop is not None:
        rec = IterateRecord(k, x, f, 0.0, beta, 0, residual, f_lev=state.f_lev,
                            dist_anchor=dist_anchor, gap=gap, stop=stop)
        return state, rec, g
    ls = armijo_feasible_direction(obj, x, w, cfg.theta, cfg.delta, cfg.max_inner_iters, f_k=f, grad_k=g)
    # The level is the value at the accepted (feasible) trial point itself,
    # not f + decrease, which carries the rounding of f at x: a level below
    # f* by one ulp makes the level cut exclude the solution, by ~sqrt(ulp)
    # in distance on a curved base.
    f_lev = min(state.f_lev, obj.value(ls.trial_point))
    # g != 0 here: a zero gradient gives descent_gap 0 and the entry stop
    cuts = [Halfspace(normal=g, offset=dot(g, x) - f + f_lev)]
    if dist_anchor > 0.0:
        # the anchor cut is the whole space while the iterate is the anchor
        cuts.append(Halfspace(normal=inst.x0 - x, offset=dot(inst.x0 - x, x)))
    x_next = project_intersection(inst.feasible_set, cuts, inst.x0)
    rec = IterateRecord(k, x, f, ls.alpha, beta, ls.trials, residual, f_lev=f_lev, dist_anchor=dist_anchor, gap=gap)
    return AnchoredState(x=x_next, f_lev=f_lev, k=k + 1), rec, g


def anchored_step(
    inst: ProblemInstance, state: AnchoredState, cfg: SolverConfig
) -> tuple[AnchoredState, IterateRecord]:
    """One step of the anchored variant.

    Evaluates the value and gradient at the iterate (the point the previous
    intersection projection returned), runs the same entry test and
    feasible-direction search as armijo_step, lowers the level value with the
    accepted trial, builds the gradient level cut and (once the iterate has
    left the anchor, so not at the first step) the anchor cut, and projects
    the anchor onto base-set-and-cuts.
    The level cut keeps every solution while excluding the current iterate;
    the anchor cut keeps the iterates moving away from the anchor.
    """
    next_state, rec, _ = _anchored_step(inst, cfg, state)
    return next_state, rec


def _classic_step(
    strategy: str, inst: ProblemInstance, cfg: SolverConfig, state: _Point
) -> tuple[_Point, IterateRecord, Vec]:
    """Plain projection step of strategy "a" (constant stepsize), "b"
    (boundary search of the pre-projection stepsize) or "d" (exogenous
    stepsize c / ((k + 1) ||g||), undefined where the gradient vanishes)."""
    obj, set_ = inst.objective, inst.feasible_set
    x, k = state.x, state.k
    f, g = value_and_grad(obj, x)
    residual = norm(x - set_.project(x - g))
    if strategy == "b":
        stop = _entry_stop(cfg, math.inf, residual)
        if stop is not None:
            return state, IterateRecord(k, x, f, 0.0, cfg.beta_bar, 0, residual, stop=stop), g
        ls = armijo_boundary(obj, set_, x, cfg.beta_bar, cfg.theta, cfg.delta, cfg.max_inner_iters, f_k=f, grad_k=g)
        return _Point(ls.trial_point, k + 1), IterateRecord(k, x, f, 1.0, ls.beta, ls.trials, residual), g
    if strategy == "a":
        beta = cfg.beta_at(k)
    else:
        grad_norm = norm(g)
        if grad_norm == 0.0:
            return state, IterateRecord(k, x, f, 0.0, 0.0, 0, residual, stop="fixed_point"), g
        beta = exogenous_step(grad_norm, k, cfg.exo_constant)
    w = set_.project(x - beta * g)
    stop = _entry_stop(cfg, norm(x - w), residual)
    return (state if stop else _Point(w, k + 1)), IterateRecord(k, x, f, 1.0, beta, 0, residual, stop=stop), g


_STALL_REL = 1e-9
_STALL_PATIENCE = 3


def _never(x: Vec, x_next: Vec) -> bool:
    return False


def _no_move(cfg: SolverConfig):
    """Strategy b stops once a step moves the iterate by at most fixed_point_tol."""
    return lambda x, x_next: norm(x_next - x) <= cfg.fixed_point_tol


def _stall(inst: ProblemInstance, cfg: SolverConfig):
    """Strategy A2 stops on consecutive iterates closer than fixed_point_tol,
    or on a stall: once the level value collapses onto the optimal value at
    working precision, the anchor cut pins the step length near the float
    noise floor while the iterate is already as close to the solution as the
    level information allows.  Several consecutive steps below 1e-9 relative
    to the anchor distance are reported as a fixed-point stop, with the
    residual at the final iterate left in the report rather than claiming
    optimality."""
    stalled = 0

    def stop(x: Vec, x_next: Vec) -> bool:
        nonlocal stalled
        moved = norm(x_next - x)
        if moved <= cfg.fixed_point_tol:
            return True
        stalled = stalled + 1 if moved <= _STALL_REL * max(1.0, norm(x_next - inst.x0)) else 0
        return stalled >= _STALL_PATIENCE

    return stop


def _strategy(inst: ProblemInstance, cfg: SolverConfig, strategy: str):
    """The strategy's initial state, step, post-step stop rule and monitors."""
    if strategy == "c":
        start = _Point(inst.x0, 0, *value_and_grad(inst.objective, inst.x0))
        return start, _armijo_step, _never, _ArmijoMonitors(inst, cfg)
    if strategy == "A2":
        start = AnchoredState(x=inst.x0, f_lev=math.inf, k=0)
        return start, _anchored_step, _stall(inst, cfg), _AnchoredMonitors(inst, cfg)
    if strategy in ("a", "b", "d"):
        stop = _no_move(cfg) if strategy == "b" else _never
        return _Point(inst.x0, 0), partial(_classic_step, strategy), stop, _ClassicMonitors(cfg, strategy)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of 'a', 'b', 'c', 'd', 'A2'")


_STOPS = {"fixed_point": SolveStatus.FIXED_POINT_STOP, "residual": SolveStatus.OPTIMAL_RESIDUAL}


def solve(inst: ProblemInstance, cfg: SolverConfig, strategy: str) -> RunReport:
    """Run strategy "a", "b", "c", "d" or "A2" from inst.x0.

    Stops on the residual tolerance or a fixed point of the projected
    gradient map (tested before each step), on the strategy's post-step
    stop rule, or on the iteration cap.  A failed line search ends the run
    as LINE_SEARCH_FAILURE; a failed intersection projection as
    INTERSECTION_FAILURE: under the anchored method's assumptions the cuts
    always keep the solution set, so a failed projection indicates a bug or
    numerically violated assumption rather than a recoverable event.

    The trace keeps every trace_stride-th step record and the last one; the
    monitors see every step, so they are reported at any trace_stride.
    """
    state, step, stop, monitors = _strategy(inst, cfg, strategy)
    trace: list[IterateRecord] = []
    last: Optional[IterateRecord] = None
    n = trials = 0
    status = SolveStatus.ITERATION_CAP
    try:
        while n < cfg.max_outer_iters:
            next_state, rec, g = step(inst, cfg, state)
            if rec.stop is not None:
                status = _STOPS[rec.stop]
                break
            if n % cfg.trace_stride == 0:
                trace.append(rec)
            n, last, trials = n + 1, rec, trials + rec.inner_trials
            monitors.add(rec, g, next_state)
            x, state = state.x, next_state
            if stop(x, state.x):
                status = SolveStatus.FIXED_POINT_STOP
                break
    except LineSearchError:
        status = SolveStatus.LINE_SEARCH_FAILURE
    except IntersectionError:
        status = SolveStatus.INTERSECTION_FAILURE
    if last is not None and trace[-1] is not last:
        trace.append(last)
    x = state.x
    f, g = value_and_grad(inst.objective, x)
    report = RunReport(status, n, trace, x, f, norm(x - inst.feasible_set.project(x - g)), trials)
    if n:
        report.monitors = monitors.result(report)
    return report


class _Worst:
    """Running worst (smallest) margin of one monitor, gated at -tol.  link
    adds the drop from the previously linked value (the rise when rising)."""

    def __init__(self, tol: float, rising: bool = False) -> None:
        self.tol, self.rising = tol, rising
        self.worst: Optional[float] = None
        self.prev: Optional[float] = None

    def add(self, margin: float) -> None:
        if self.worst is None or margin < self.worst:
            self.worst = margin

    def link(self, value: float) -> None:
        if self.prev is not None:
            self.add(value - self.prev if self.rising else self.prev - value)
        self.prev = value

    def result(self) -> MonitorResult:
        worst = 0.0 if self.worst is None else self.worst
        return MonitorResult(passed=worst >= -self.tol, worst_margin=worst)


class _ArmijoMonitors:
    """Invariant suite for the feasible-direction runs.

    descent: objective nonincreasing along iterates.  The recorded values
        are carried from the accepted decreases, which the search keeps
        negative, so the chain ends at final_f, evaluated afresh at final_x:
        drift of the carried values or a wrong segment decrease shows in
        that last link.
    projection_gap_bound: <g, x - w> >= ||x - w||^2 / beta at every step.
    vanishing_product: running minimum of alpha ||x - w||^2; the terminal
        iterate has no step record, and alpha <= 1 bounds its product by its
        squared projection gap.
    quasi_fejer: ||x+ - x*||^2 <= ||x - x*||^2 + eps_k against the known
        solution, and the sum of eps_k against its telescoped bound.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig) -> None:
        self.inst, self.cfg = inst, cfg
        self.descent = _Worst(1e-12)
        self.gap_bound = _Worst(1e-10)
        self.product = math.inf
        self.quasi_fejer = _Worst(1e-8)
        self.eps_total = 0.0
        self.f0: Optional[float] = None
        self.last: Optional[_Point] = None

    def add(self, rec: IterateRecord, g: Vec, state: _Point) -> None:
        self.descent.link(rec.f_val)
        self.gap_bound.add(rec.gap_margin)
        self.product = min(self.product, rec.alpha * rec.gap**2)
        sol = self.inst.known_solution
        if sol is not None:
            self.quasi_fejer.add(norm(rec.x - sol) ** 2 + rec.epsilon_qf - norm(state.x - sol) ** 2)
        self.eps_total += rec.epsilon_qf
        if self.f0 is None:
            self.f0 = rec.f_val
        self.last = state

    def result(self, report: RunReport) -> dict[str, MonitorResult]:
        inst, cfg, x = self.inst, self.cfg, report.final_x
        self.descent.link(report.final_f)
        beta = cfg.beta_at(report.iterations)
        final_gap = report.final_residual if beta == 1.0 else norm(x - inst.feasible_set.project(x - beta * self.last.g))
        product = min(self.product, final_gap**2)
        out = {
            "descent": self.descent.result(),
            "projection_gap_bound": self.gap_bound.result(),
            "vanishing_product": MonitorResult(passed=product < 1e-8, worst_margin=product),
        }
        if inst.known_solution is not None:
            out["quasi_fejer"] = self.quasi_fejer.result()
        if inst.known_fstar is not None:
            bound = 2.0 * (cfg.beta_max / cfg.delta) * (self.f0 - inst.known_fstar)
            out["epsilon_sum"] = MonitorResult(
                passed=self.eps_total <= bound + 1e-6, worst_margin=bound + 1e-6 - self.eps_total
            )
        return out


class _AnchoredMonitors:
    """Invariant suite for the anchored runs.

    anchor_monotone: distance to the anchor never decreases.
    level_monotone / level_sandwich: the level value is a nonincreasing
        overestimate of the optimal value strictly below the iterate value.
    level_gap_step: step length dominates (f - f_lev)/||g||, which in turn
        dominates delta * alpha * gap^2 / (beta_max ||g||).
    ball_containment / cuts_keep_solution: with the known solution, iterates
        stay in the ball spanned by anchor and solution, and the solution
        satisfies both cuts.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig) -> None:
        self.inst, self.cfg = inst, cfg
        self.anchor_monotone = _Worst(1e-10, rising=True)
        self.level_monotone = _Worst(0.0)
        self.level_sandwich = _Worst(1e-9)
        self.level_gap_step = _Worst(1e-8)
        self.ball_containment = _Worst(1e-7)
        self.cuts_keep_solution = _Worst(1e-8)
        sol = inst.known_solution
        if sol is not None:
            self.center = 0.5 * (inst.x0 + sol)
            self.radius = 0.5 * norm(sol - inst.x0)

    def add(self, rec: IterateRecord, g: Vec, state: AnchoredState) -> None:
        inst, cfg = self.inst, self.cfg
        self.anchor_monotone.link(rec.dist_anchor)
        self.level_monotone.link(rec.f_lev)
        self.level_sandwich.add(rec.f_val - rec.f_lev)
        if inst.known_fstar is not None:
            self.level_sandwich.add(rec.f_lev - inst.known_fstar)
        gn = norm(g)
        if gn != 0.0:
            level_gap = (rec.f_val - rec.f_lev) / gn
            lower = cfg.delta * (rec.alpha / cfg.beta_max) * rec.gap**2 / gn
            self.level_gap_step.add(norm(rec.x - state.x) - level_gap)
            self.level_gap_step.add(level_gap - lower)
        sol = inst.known_solution
        if sol is not None:
            self.ball_containment.add(self.radius - norm(rec.x - self.center))
            self.cuts_keep_solution.add(-(dot(g, sol - rec.x) + rec.f_val - rec.f_lev))
            self.cuts_keep_solution.add(-dot(sol - rec.x, inst.x0 - rec.x))

    def result(self, report: RunReport) -> dict[str, MonitorResult]:
        x = report.final_x
        self.anchor_monotone.link(norm(x - self.inst.x0))
        out = {
            "anchor_monotone": self.anchor_monotone.result(),
            "level_monotone": self.level_monotone.result(),
            "level_sandwich": self.level_sandwich.result(),
            "level_gap_step": self.level_gap_step.result(),
        }
        if self.inst.known_solution is not None:
            self.ball_containment.add(self.radius - norm(x - self.center))
            out["ball_containment"] = self.ball_containment.result()
            out["cuts_keep_solution"] = self.cuts_keep_solution.result()
        return out


class _ClassicMonitors:
    """descent for strategy b (the chain ends at final_f); for strategy d,
    exogenous_step_bound: each step moves at most exo_constant / (k + 1)."""

    _NAMES = {"b": "descent", "d": "exogenous_step_bound"}

    def __init__(self, cfg: SolverConfig, strategy: str) -> None:
        self.cfg, self.strategy = cfg, strategy
        self.margins = _Worst(1e-12)

    def add(self, rec: IterateRecord, g: Vec, state: _Point) -> None:
        if self.strategy == "b":
            self.margins.link(rec.f_val)
        elif self.strategy == "d":
            self.margins.add(self.cfg.exo_constant / (rec.k + 1) - norm(state.x - rec.x))

    def result(self, report: RunReport) -> dict[str, MonitorResult]:
        if self.strategy == "b":
            self.margins.link(report.final_f)
        name = self._NAMES.get(self.strategy)
        return {} if name is None else {name: self.margins.result()}
