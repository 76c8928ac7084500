"""Outer iterations of the projected gradient solvers.

Two main drivers share the feasible-direction Armijo search:

* ``armijo_solve`` takes the projected gradient step and moves along the
  segment to the projected point with the backtracked weight.
* ``anchored_solve`` keeps projecting the initial point onto the feasible set
  intersected with two halfspace cuts (a gradient level cut and an anchor
  cut), which drives the iterates to the solution closest to the start.

``classic_solve`` runs the remaining stepsize strategies (constant, boundary
search, exogenous) through the plain projection step.  Every driver records a
per-iteration trace and evaluates a suite of runtime monitors derived from
the inequalities the iteration is known to satisfy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from .core import IterateRecord, SolverConfig, Vec, as_vector, dot, norm
from .objectives import Objective, value_and_grad
from .sets import FeasibleSet, Halfcut, InfeasibleCutError, IntersectionError, project_intersection
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
    "armijo_solve",
    "anchored_step",
    "anchored_solve",
    "classic_solve",
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
        if not self.feasible_set.contains(self.x0, 1e-9):
            raise ValueError("starting point x0 must be feasible (within 1e-9)")


@dataclass(frozen=True, eq=False)
class AnchoredState:
    """State of the anchored solver: current iterate, running level value,
    the fixed anchor (initial point), and the iteration index."""

    x: Vec
    f_lev: float
    anchor: Vec
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
    are evaluated afresh at final_x."""

    status: SolveStatus
    iterations: int
    trace: list[IterateRecord]
    final_x: Vec
    final_f: float
    final_residual: float
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


def _armijo_step(
    inst: ProblemInstance, xk: Vec, f: float, g: Vec, cfg: SolverConfig, k: int
) -> tuple[Vec, float, Optional[Vec], IterateRecord]:
    """armijo_step from the value f and gradient g at xk; also returns the
    value and gradient at the next iterate (g is None on a stop record).

    The record carries the projection-gap margin <g, x - w> - ||x - w||^2 / beta
    and the gap ||x - w|| of the step, from which the monitors read the
    projection_gap_bound and vanishing_product margins."""
    beta = cfg.beta_at(k)
    w, gap, residual, descent_gap = _projected_step(inst, xk, g, beta)
    margin = descent_gap - gap**2 / beta
    stop = None
    if gap <= cfg.fixed_point_tol or descent_gap <= 0.0:
        stop = "fixed_point"
    elif residual <= cfg.residual_tol:
        stop = "residual"
    if stop is not None:
        rec = IterateRecord(
            k, xk, f, 0.0, beta, 0, residual, epsilon_qf=0.0, gap=gap, gap_margin=margin, stop=stop
        )
        return xk, f, None, rec
    ls = armijo_feasible_direction(
        inst.objective, xk, w, cfg.theta, cfg.delta, cfg.max_inner_iters, f_k=f, grad_k=g
    )
    eps = quasi_fejer_epsilon(xk, ls.trial_point, ls.alpha, w, f, ls.f_trial, cfg)
    rec = IterateRecord(k, xk, f, ls.alpha, beta, ls.trials, residual, epsilon_qf=eps, gap=gap, gap_margin=margin)
    return ls.trial_point, ls.f_trial, ls.segment.gradient(ls.alpha), rec


def armijo_step(
    inst: ProblemInstance, xk: Vec, cfg: SolverConfig, k: int
) -> tuple[Vec, IterateRecord]:
    """One projected gradient step with the feasible-direction search.

    Computes w = P_C(xk - beta_k grad f(xk)); when xk is a fixed point of
    that map (or the natural residual is already below tolerance) returns xk
    unchanged with the stop marker set.  Otherwise backtracks along the
    segment to w and returns the accepted convex combination.
    """
    f, g = value_and_grad(inst.objective, xk)
    x_next, _, _, rec = _armijo_step(inst, xk, f, g, cfg, k)
    return x_next, rec


def armijo_solve(inst: ProblemInstance, cfg: SolverConfig) -> RunReport:
    """Iterate armijo_step until the residual tolerance, a fixed point, or
    the iteration cap; attaches the descent/quasi-Fejer monitor suite.

    The value and gradient of each accepted point come from the segment of
    the search that accepted it, so an iteration evaluates the objective
    only through that segment: one matrix-vector product for a Quadratic."""
    x = inst.x0
    f, g = value_and_grad(inst.objective, x)
    trace: list[IterateRecord] = []
    status = SolveStatus.ITERATION_CAP
    try:
        for k in range(cfg.max_outer_iters):
            x_next, f_next, g_next, rec = _armijo_step(inst, x, f, g, cfg, k)
            if rec.stop == "fixed_point":
                status = SolveStatus.FIXED_POINT_STOP
                break
            if rec.stop == "residual":
                status = SolveStatus.OPTIMAL_RESIDUAL
                break
            trace.append(rec)
            x, f, g = x_next, f_next, g_next
    except LineSearchError:
        status = SolveStatus.LINE_SEARCH_FAILURE
    report = _report(inst, cfg, status, trace, x)
    if cfg.trace_stride == 1:
        beta = cfg.beta_at(len(trace))
        final_gap = report.final_residual if beta == 1.0 else norm(x - inst.feasible_set.project(x - beta * g))
        report.monitors = _armijo_monitors(inst, cfg, trace, x, report.final_f, final_gap)
    return report


def _report(
    inst: ProblemInstance, cfg: SolverConfig, status: SolveStatus, trace: list[IterateRecord], x: Vec
) -> RunReport:
    """The run's report, with the value and natural residual at the final
    point from one evaluation and one projection."""
    f, g = value_and_grad(inst.objective, x)
    residual = norm(x - inst.feasible_set.project(x - g))
    return RunReport(status, len(trace), _strided(trace, cfg), x, f, residual)


def anchored_step(
    inst: ProblemInstance, state: AnchoredState, cfg: SolverConfig
) -> tuple[AnchoredState, IterateRecord]:
    """One step of the anchored variant.

    Evaluates the value and gradient at the iterate (the point the previous
    intersection projection returned), runs the same entry test and
    feasible-direction search as armijo_step, lowers the level value with the
    accepted trial, builds the gradient level cut and the anchor cut, and
    projects the anchor onto base-set-and-cuts.
    The level cut keeps every solution while excluding the current iterate;
    the anchor cut keeps the iterates moving away from the anchor.
    """
    obj = inst.objective
    x, k = state.x, state.k
    beta = cfg.beta_at(k)
    f, g = value_and_grad(obj, x)
    w, gap, residual, descent_gap = _projected_step(inst, x, g, beta)
    dist_anchor = norm(x - state.anchor)
    if gap <= cfg.fixed_point_tol or descent_gap <= 0.0:
        rec = IterateRecord(k, x, f, 0.0, beta, 0, residual, f_lev=state.f_lev,
                            dist_anchor=dist_anchor, stop="fixed_point")
        return state, rec
    if residual <= cfg.residual_tol:
        rec = IterateRecord(k, x, f, 0.0, beta, 0, residual, f_lev=state.f_lev,
                            dist_anchor=dist_anchor, stop="residual")
        return state, rec
    ls = armijo_feasible_direction(obj, x, w, cfg.theta, cfg.delta, cfg.max_inner_iters, f_k=f, grad_k=g)
    # The level is the value at the accepted (feasible) trial point itself,
    # not f + decrease, which carries the rounding of f at x: a level below
    # f* by one ulp makes the level cut exclude the solution, by ~sqrt(ulp)
    # in distance on a curved base.
    f_lev = min(state.f_lev, obj.value(ls.trial_point))
    level_cut = Halfcut(normal=g, offset=dot(g, x) - f + f_lev)
    anchor_cut = Halfcut(normal=state.anchor - x, offset=dot(state.anchor - x, x))
    x_next = project_intersection(inst.feasible_set, [level_cut, anchor_cut], state.anchor)
    rec = IterateRecord(k, x, f, ls.alpha, beta, ls.trials, residual, f_lev=f_lev, dist_anchor=dist_anchor)
    return AnchoredState(x=x_next, f_lev=f_lev, anchor=state.anchor, k=k + 1), rec


_STALL_REL = 1e-9
_STALL_PATIENCE = 3


def anchored_solve(inst: ProblemInstance, cfg: SolverConfig) -> RunReport:
    """Drive anchored_step to termination.

    Stops on the residual tolerance, on a fixed point of the projected
    gradient map, on consecutive iterates closer than fixed_point_tol, or on
    the iteration cap.  Once the level value collapses onto the optimal
    value at working precision, the anchor cut pins the step length near the
    float noise floor while the iterate is already as close to the solution
    as the level information allows; that regime is detected as a stall
    (several consecutive steps below 1e-9 relative to the anchor distance)
    and reported as a fixed-point stop, with the residual at the final
    iterate left in the trace rather than claiming optimality.

    A failed or infeasible intersection projection surfaces as a distinct
    status: under the method's assumptions the cuts always keep the solution
    set, so an infeasible intersection indicates a bug or numerically
    violated assumption rather than a recoverable event.
    """
    state = AnchoredState(x=inst.x0, f_lev=math.inf, anchor=inst.x0, k=0)
    trace: list[IterateRecord] = []
    status = SolveStatus.ITERATION_CAP
    stalled = 0
    try:
        for _ in range(cfg.max_outer_iters):
            next_state, rec = anchored_step(inst, state, cfg)
            if rec.stop == "fixed_point":
                status = SolveStatus.FIXED_POINT_STOP
                break
            if rec.stop == "residual":
                status = SolveStatus.OPTIMAL_RESIDUAL
                break
            trace.append(rec)
            moved = norm(next_state.x - state.x)
            state = next_state
            if moved <= cfg.fixed_point_tol:
                status = SolveStatus.FIXED_POINT_STOP
                break
            if moved <= _STALL_REL * max(1.0, norm(state.x - inst.x0)):
                stalled += 1
                if stalled >= _STALL_PATIENCE:
                    status = SolveStatus.FIXED_POINT_STOP
                    break
            else:
                stalled = 0
    except (IntersectionError, InfeasibleCutError):
        status = SolveStatus.INTERSECTION_FAILURE
    report = _report(inst, cfg, status, trace, state.x)
    if cfg.trace_stride == 1:
        report.monitors = _anchored_monitors(inst, cfg, trace, state.x)
    return report


def classic_solve(inst: ProblemInstance, cfg: SolverConfig, strategy: str) -> RunReport:
    """Plain projection iterations for strategies "a" (constant), "b"
    (boundary search), and "d" (exogenous); the feasible-direction strategy
    "c" is armijo_solve."""
    if strategy not in ("a", "b", "d"):
        raise ValueError(f"classic_solve handles strategies 'a', 'b', 'd'; got {strategy!r}")
    obj, set_ = inst.objective, inst.feasible_set
    x = inst.x0
    trace: list[IterateRecord] = []
    status = SolveStatus.ITERATION_CAP
    try:
        for k in range(cfg.max_outer_iters):
            f, g = value_and_grad(obj, x)
            grad_norm = norm(g)
            residual = norm(x - set_.project(x - g))
            if strategy == "d" and grad_norm == 0.0:
                status = SolveStatus.FIXED_POINT_STOP
                break
            if strategy == "a":
                beta = cfg.beta_at(k)
            elif strategy == "b":
                beta = cfg.beta_bar
            else:
                beta = exogenous_step(grad_norm, k, cfg.exo_constant)
            if strategy == "b":
                if residual <= cfg.residual_tol:
                    status = SolveStatus.OPTIMAL_RESIDUAL
                    break
                ls = armijo_boundary(
                    obj, set_, x, cfg.beta_bar, cfg.theta, cfg.delta, cfg.max_inner_iters, f_k=f, grad_k=g
                )
                rec = IterateRecord(k, x, f, 1.0, ls.beta, ls.trials, residual)
                x_next = ls.trial_point
            else:
                w = set_.project(x - beta * g)
                if norm(x - w) <= cfg.fixed_point_tol:
                    status = SolveStatus.FIXED_POINT_STOP
                    break
                if residual <= cfg.residual_tol:
                    status = SolveStatus.OPTIMAL_RESIDUAL
                    break
                rec = IterateRecord(k, x, f, 1.0, beta, 0, residual)
                x_next = w
            trace.append(rec)
            if strategy == "b" and norm(x_next - x) <= cfg.fixed_point_tol:
                x = x_next
                status = SolveStatus.FIXED_POINT_STOP
                break
            x = x_next
    except LineSearchError:
        status = SolveStatus.LINE_SEARCH_FAILURE
    report = _report(inst, cfg, status, trace, x)
    if cfg.trace_stride == 1:
        report.monitors = _classic_monitors(inst, cfg, strategy, trace, x, report.final_f)
    return report


def _strided(trace: list[IterateRecord], cfg: SolverConfig) -> list[IterateRecord]:
    if cfg.trace_stride == 1 or not trace:
        return trace
    kept = trace[:: cfg.trace_stride]
    if kept[-1] is not trace[-1]:
        kept.append(trace[-1])
    return kept


def _worst(margins) -> MonitorResult:
    margins = list(margins)
    worst = min(margins) if margins else 0.0
    return MonitorResult(passed=True, worst_margin=worst)


def _gate(result: MonitorResult, tol: float) -> MonitorResult:
    result.passed = result.worst_margin >= -tol
    return result


def _armijo_monitors(
    inst: ProblemInstance,
    cfg: SolverConfig,
    trace: list[IterateRecord],
    final_x: Vec,
    final_f: float,
    final_gap: float,
) -> dict[str, MonitorResult]:
    """Invariant suite for the feasible-direction runs.

    descent: objective nonincreasing along iterates.  The recorded values
        are carried from the accepted decreases, which the search keeps
        negative, so the chain ends at final_f, evaluated afresh at final_x:
        drift of the carried values or a wrong segment decrease shows in
        that last link.
    projection_gap_bound: <g, x - w> >= ||x - w||^2 / beta at every step.
    vanishing_product: running minimum of alpha ||x - w||^2; the terminal
        iterate has no step record, and alpha <= 1 bounds its product by its
        squared projection gap final_gap.
    quasi_fejer: ||x+ - x*||^2 <= ||x - x*||^2 + eps_k against the known
        solution, and the sum of eps_k against its telescoped bound.
    """
    if not trace:
        return {}
    out: dict[str, MonitorResult] = {}
    fs = [r.f_val for r in trace] + [final_f]
    out["descent"] = _gate(_worst(fs[i] - fs[i + 1] for i in range(len(fs) - 1)), 1e-12)
    out["projection_gap_bound"] = _gate(_worst(r.gap_margin for r in trace), 1e-10)
    running_min = min([r.alpha * r.gap**2 for r in trace] + [final_gap**2])
    out["vanishing_product"] = MonitorResult(passed=running_min < 1e-8, worst_margin=running_min)

    if inst.known_solution is not None:
        xs = [r.x for r in trace] + [final_x]
        margins = []
        for i, r in enumerate(trace):
            lhs = norm(xs[i] - inst.known_solution) ** 2 + r.epsilon_qf
            margins.append(lhs - norm(xs[i + 1] - inst.known_solution) ** 2)
        out["quasi_fejer"] = _gate(_worst(margins), 1e-8)
    if inst.known_fstar is not None:
        total = sum(r.epsilon_qf for r in trace)
        bound = 2.0 * (cfg.beta_max / cfg.delta) * (trace[0].f_val - inst.known_fstar)
        out["epsilon_sum"] = MonitorResult(passed=total <= bound + 1e-6, worst_margin=bound + 1e-6 - total)
    return out


def _anchored_monitors(
    inst: ProblemInstance, cfg: SolverConfig, trace: list[IterateRecord], final_x: Vec
) -> dict[str, MonitorResult]:
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
    if not trace:
        return {}
    obj = inst.objective
    anchor = inst.x0
    out: dict[str, MonitorResult] = {}
    dists = [r.dist_anchor for r in trace] + [norm(final_x - anchor)]
    out["anchor_monotone"] = _gate(_worst(dists[i + 1] - dists[i] for i in range(len(dists) - 1)), 1e-10)

    levels = [r.f_lev for r in trace]
    out["level_monotone"] = _gate(_worst(levels[i] - levels[i + 1] for i in range(len(levels) - 1)), 0.0)
    sandwich = [r.f_val - r.f_lev for r in trace]
    if inst.known_fstar is not None:
        sandwich += [r.f_lev - inst.known_fstar for r in trace]
    out["level_sandwich"] = _gate(_worst(sandwich), 1e-9)

    xs = [r.x for r in trace] + [final_x]
    step_margins = []
    for i, r in enumerate(trace):
        g = obj.gradient(r.x)
        gn = norm(g)
        if gn == 0.0:
            continue
        step_len = norm(xs[i] - xs[i + 1])
        level_gap = (r.f_val - r.f_lev) / gn
        w = inst.feasible_set.project(r.x - r.beta * g)
        lower = cfg.delta * (r.alpha / cfg.beta_max) * norm(r.x - w) ** 2 / gn
        step_margins.append(step_len - level_gap)
        step_margins.append(level_gap - lower)
    out["level_gap_step"] = _gate(_worst(step_margins), 1e-8)

    if inst.known_solution is not None:
        sol = inst.known_solution
        center = 0.5 * (anchor + sol)
        radius = 0.5 * norm(sol - anchor)
        out["ball_containment"] = _gate(_worst(radius - norm(x - center) for x in xs), 1e-7)
        cut_margins = []
        for r in trace:
            g = obj.gradient(r.x)
            cut_margins.append(-(dot(g, sol - r.x) + r.f_val - r.f_lev))
            cut_margins.append(-dot(sol - r.x, anchor - r.x))
        out["cuts_keep_solution"] = _gate(_worst(cut_margins), 1e-8)
    return out


def _classic_monitors(
    inst: ProblemInstance,
    cfg: SolverConfig,
    strategy: str,
    trace: list[IterateRecord],
    final_x: Vec,
    final_f: float,
) -> dict[str, MonitorResult]:
    if not trace:
        return {}
    out: dict[str, MonitorResult] = {}
    xs = [r.x for r in trace] + [final_x]
    if strategy == "b":
        fs = [r.f_val for r in trace] + [final_f]
        out["descent"] = _gate(_worst(fs[i] - fs[i + 1] for i in range(len(fs) - 1)), 1e-12)
    if strategy == "d":
        margins = []
        for i, r in enumerate(trace):
            delta_k = cfg.exo_constant / (r.k + 1)
            margins.append(delta_k - norm(xs[i + 1] - xs[i]))
        out["exogenous_step_bound"] = _gate(_worst(margins), 1e-12)
    return out
