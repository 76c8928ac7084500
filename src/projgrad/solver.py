"""Outer iterations of the projected gradient solvers.

``solve(inst, cfg, strategy)`` is the one driver and the one entry.  Each
strategy supplies a step:

* ``c`` takes the projected gradient step and moves along the segment to the
  projected point with the backtracked weight.
* ``A2`` keeps projecting the initial point onto the feasible set intersected
  with two halfspace cuts (a gradient level cut and an anchor cut), which
  drives the iterates to the solution closest to the start.
* ``a`` (constant), ``b`` (boundary search) and ``d`` (exogenous) take the
  plain projection step.

The state is an ``objectives.Point``: the iterate with its value and
gradient.  Every step maps the point of step k to the next:
``step(inst, cfg, at, k) -> (next_point, record)``.  It starts with the same
prelude: one base projection of a gradient step at the strategy's own
stepsize beta, whose gap to the iterate over min(beta, 1) is the residual
the stop reads, and which raises the entry stops itself.  The prelude forms
the `Step` from the iterate to that projection once, and the line searches
take it over from the point itself: a point from a fresh evaluation also
carries what the objective's segments from it reuse (see
objectives.evaluate).  The anchored step is an object built once per solve,
which keeps the ``Anchor`` of x0 and the level value from step to step.

Every stop is the step's own: a step that stops raises it with the
``SolveStatus`` that ends the run and the line-search trials it spent, so a
record always describes a step that was taken.  A failed intersection
projection ends the anchored step as such a stop, counting its search's
trials.  The driver owns the loop, the one mapping of a stop or a failed
line search to a ``SolveStatus``, the subsampled trace and the final
report, and names no strategy.  After every step it feeds the strategy's
runtime monitors, accumulators over the inequalities the iteration is known
to satisfy, with the step's record and the two points, values the step
already holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .core import IterateRecord, SolverConfig, SolveStatus, Vec, as_vector, dot, norm
from .objectives import Objective, Point, Step, evaluate
from .sets import Anchor, FeasibleSet, Halfspace, IntersectionError, project_intersection
from .stepsize import LineSearchError, armijo_boundary, armijo_feasible_direction, exogenous_step, projected_step

__all__ = [
    "STRATEGIES",
    "ProblemInstance",
    "SolveStatus",
    "MonitorResult",
    "RunReport",
    "natural_residual",
    "quasi_fejer_epsilon",
    "solve",
]

# a projected step shorter than this is a fixed point of the projected
# gradient map; well below any residual tolerance, so the two stops stay
# distinct
_FIXED_POINT_TOL = 1e-12
_EPS = 2.0**-52

STRATEGIES = ("a", "b", "c", "d", "A2")


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
            if self.known_solution.shape != self.x0.shape:
                raise ValueError(
                    f"known_solution dimension {self.known_solution.shape[0]} "
                    f"does not match x0 dimension {self.x0.shape[0]}"
                )
        if self.known_fstar is not None and not math.isfinite(self.known_fstar):
            raise ValueError(f"known_fstar must be finite, got {self.known_fstar}")
        dim = getattr(self.objective, "dim", None)
        if dim is not None and dim != self.x0.shape[0]:
            raise ValueError(f"objective dimension {dim} does not match x0 dimension {self.x0.shape[0]}")
        if not self.feasible_set.contains(self.x0, 1e-9):
            distance = norm(self.x0 - self.feasible_set.project(self.x0))
            raise ValueError(
                f"starting point x0 is infeasible: {distance:.3e} from the feasible set (tolerance 1e-9)"
            )


@dataclass
class MonitorResult:
    """Outcome of one runtime invariant check; worst_margin is the smallest
    slack observed (negative means violated beyond tolerance)."""

    passed: bool
    worst_margin: float


@dataclass
class RunReport:
    """Outcome of a solve.  final_f and final_residual (the natural residual)
    are evaluated afresh at final_x; inner_trials and projections sum the
    line-search trials and the base projections of every step's projected
    gradient step, whatever the trace keeps."""

    status: SolveStatus
    iterations: int
    trace: list[IterateRecord]
    final_x: Vec
    final_f: float
    final_residual: float
    inner_trials: int
    projections: int
    monitors: dict[str, MonitorResult] = field(default_factory=dict)


def natural_residual(inst: ProblemInstance, x: Vec) -> float:
    """||x - P_C(x - grad f(x))||, zero exactly at solutions."""
    return norm(x - inst.feasible_set.project(x - inst.objective.gradient(x)))


def quasi_fejer_epsilon(alpha: float, gap: float, f_k: float, f_next: float, cfg: SolverConfig) -> float:
    """Per-step slack -alpha gap^2 + 2 (beta / delta) (f_k - f_next), with
    the projection gap = ||x - w||.

    beta stands for the upper bound of the stepsizes, which for the
    constant stepsize cfg.beta is exact.  These slacks are nonnegative,
    summable (their sum telescopes against the total objective decrease),
    and bound the growth of the squared distance to any solution from one
    iterate to the next.
    """
    return -alpha * gap**2 + 2.0 * (cfg.beta / cfg.delta) * (f_k - f_next)


class _Stop(Exception):
    """The end of a run that a step decides, with the line-search trials the
    step spent before it (only the anchored step stops after its search)."""

    def __init__(self, status: SolveStatus, trials: int = 0) -> None:
        super().__init__(status.value)
        self.status, self.trials = status, trials


def _prelude(inst: ProblemInstance, cfg: SolverConfig, at: Point, beta: float, descent: bool = False,
             fixed_point: bool = True) -> tuple[Step, float, float]:
    """Per-iteration prelude of every strategy, from the value f and the
    gradient g at the iterate x: the `Step` to the projected point
    w = P_C(x - beta g), the step's one base projection, the gap
    ||x - w||, the square root of the step's <d, d>, and the residual
    gap / min(beta, 1); the descent gap is <g, x - w>, the step's slope
    negated.  The gap does not
    decrease as beta grows and the gap over beta does not increase (Calamai
    and More 1987, Lemma 2.2), so the residual is the natural residual at
    beta = 1 and bounds it from above at any other beta.

    Raises the entry stops as _Stop: NON_FINITE when f or the gap is not
    finite (a NaN or infinite value or gradient reaches both);
    FIXED_POINT_STOP, when fixed_point, if the projected step does not move
    or, when descent, gives no descent; OPTIMAL_RESIDUAL at the residual
    tolerance."""
    step = projected_step(inst.feasible_set, at, beta)
    gap = math.sqrt(step.dd)
    residual = gap / min(beta, 1.0)
    if not (math.isfinite(at.f) and math.isfinite(gap)):
        raise _Stop(SolveStatus.NON_FINITE)
    if fixed_point and (gap <= _FIXED_POINT_TOL or (descent and step.slope >= 0.0)):
        raise _Stop(SolveStatus.FIXED_POINT_STOP)
    if residual <= cfg.residual_tol:
        raise _Stop(SolveStatus.OPTIMAL_RESIDUAL)
    return step, gap, residual


def _armijo_step(inst: ProblemInstance, cfg: SolverConfig, at: Point, k: int) -> tuple[Point, IterateRecord]:
    """One projected gradient step with the feasible-direction search.

    Computes w = P_C(x - beta grad f(x)); when x is a fixed point of that
    map (or the natural residual is already below tolerance) raises its
    stop.  Otherwise backtracks along the segment to w and moves to the
    accepted convex combination; the next point carries the value and
    gradient there, both from the segment of the search that accepted it.

    The record carries the projection-gap margin <g, x - w> - ||x - w||^2 / beta
    and the gap ||x - w|| of the step, from which the monitors read the
    projection_gap_bound and vanishing_product margins."""
    x, f = at.x, at.f
    beta = cfg.beta
    step, gap, residual = _prelude(inst, cfg, at, beta, descent=True)
    ls = armijo_feasible_direction(inst.objective, at, step, cfg.theta, cfg.delta, cfg.max_inner_iters)
    eps = quasi_fejer_epsilon(ls.alpha, gap, f, ls.f_trial, cfg)
    margin = -step.slope - gap**2 / beta
    rec = IterateRecord(k, x, f, ls.alpha, beta, ls.trials, residual, epsilon_qf=eps, gap=gap, gap_margin=margin)
    return Point(ls.trial_point, ls.f_trial, ls.segment.gradient(ls.alpha)), rec


class _AnchoredStep:
    """The step of the anchored variant, built once per solve, with what
    the solve keeps from step to step: the ``Anchor`` of x0 and the level
    value f_lev, inf until the first step lowers it.

    A step runs the same entry test and feasible-direction search as
    strategy c, lowers the level value with the accepted trial, builds the
    gradient level cut and (once the iterate has left the anchor, so not at
    the first step) the anchor cut, and projects the anchor onto
    base-set-and-cuts.  The level cut keeps every solution while excluding
    the current iterate; the anchor cut keeps the iterates moving away from
    the anchor.  The step raises a FIXED_POINT_STOP instead, with the
    search's trials, once the level lies within the rounding of the cut's
    offset below the value, or once the projection lands within the
    fixed-point tolerance of the iterate: x_{k+1} = x_k leaves the value,
    gradient and level as they are, so every later step would return it
    too.  A projection that fails raises INTERSECTION_FAILURE, with the
    search's trials.

    Each norm is taken once: ||g|| for the rounding stop, the level cut and
    the record, ||x0 - x|| for the record and the anchor cut, and
    ||x_{k+1} - x_k|| for the no-move stop and the record.
    """

    def __init__(self, inst: ProblemInstance) -> None:
        self.anchor = Anchor.of(inst.feasible_set, inst.x0)
        self.f_lev = math.inf

    def __call__(self, inst: ProblemInstance, cfg: SolverConfig, at: Point, k: int) -> tuple[Point, IterateRecord]:
        obj = inst.objective
        x, f, g = at.x, at.f, at.g
        beta = cfg.beta
        step, gap, residual = _prelude(inst, cfg, at, beta, descent=True)
        ls = armijo_feasible_direction(obj, at, step, cfg.theta, cfg.delta, cfg.max_inner_iters)
        # The level is the value at the accepted (feasible) trial point itself,
        # not f + decrease, which carries the rounding of f at x: a level below
        # f* by one ulp makes the level cut exclude the solution, by ~sqrt(ulp)
        # in distance on a curved base.
        f_lev = min(self.f_lev, obj.value(ls.trial_point))
        to_anchor = inst.x0 - x
        # <n, n> as the cuts' validation takes it, and its square root, the norm
        grad_sq, anchor_sq = dot(g, g), dot(to_anchor, to_anchor)
        grad_norm, dist_anchor = math.sqrt(grad_sq), math.sqrt(anchor_sq)
        # a level within the rounding of the cut's offset below the value gives a
        # cut that no longer separates the iterate from the solutions, and where
        # g is nearly normal to a face of the base, as near a solution on that
        # face, that rounding moves it along the face by itself over g's small
        # component there, past the solution
        if f - f_lev > _level_rounding(grad_norm, norm(x), f, f_lev):
            # g != 0 here: a zero gradient gives descent gap 0 and the entry stop;
            # a finite ||g|| makes every entry finite
            cuts = [Halfspace._sized(g, dot(g, x) - f + f_lev, grad_sq)]
            if dist_anchor > 0.0:
                # the anchor cut is the whole space while the iterate is the anchor
                cuts.append(Halfspace._sized(to_anchor, dot(to_anchor, x), anchor_sq))
            try:
                x_next = project_intersection(inst.feasible_set, cuts, self.anchor)
            except IntersectionError:
                raise _Stop(SolveStatus.INTERSECTION_FAILURE, ls.trials)
            moved = norm(x_next - x)
            if moved > _FIXED_POINT_TOL:
                rec = IterateRecord(k, x, f, ls.alpha, beta, ls.trials, residual, f_lev=f_lev, dist_anchor=dist_anchor,
                                    gap=gap, grad_norm=grad_norm, moved=moved)
                self.f_lev = f_lev
                return evaluate(obj, x_next), rec
        raise _Stop(SolveStatus.FIXED_POINT_STOP, ls.trials)


def _level_rounding(grad_norm: float, x_norm: float, f: float, f_lev: float) -> float:
    """A bound on the rounding that the offset <g, x> - f + f_lev of the
    level cut carries from f, f_lev and <g, x>, from the norms of g and x."""
    return 4.0 * _EPS * (grad_norm * x_norm + abs(f) + abs(f_lev))


def _classic_step(
    strategy: str, inst: ProblemInstance, cfg: SolverConfig, at: Point, k: int
) -> tuple[Point, IterateRecord]:
    """Plain projection step of strategy "a" (constant stepsize beta), "b"
    (boundary search of the pre-projection stepsize from beta, whose first
    trial is the prelude's projected point; the entry test reads the
    residual alone) or "d" (exogenous stepsize c / ((k + 1) ||g||),
    undefined where the gradient vanishes)."""
    x, f, g = at.x, at.f, at.g
    beta = cfg.beta
    if strategy == "d":
        grad_norm = norm(g)
        if grad_norm == 0.0:
            raise _Stop(SolveStatus.FIXED_POINT_STOP)
        beta = exogenous_step(grad_norm, k, cfg.exo_constant)
    step, _, residual = _prelude(inst, cfg, at, beta, fixed_point=strategy != "b")
    w, trials = step.w, 0
    if strategy == "b":
        ls = armijo_boundary(
            inst.objective, inst.feasible_set, at, step, beta, cfg.theta, cfg.delta, cfg.max_inner_iters
        )
        w, beta, trials = ls.trial_point, ls.beta, ls.trials
    rec = IterateRecord(k, x, f, 1.0, beta, trials, residual, projections=1 + trials)
    return evaluate(inst.objective, w), rec


def _strategy(inst: ProblemInstance, cfg: SolverConfig, strategy: str):
    """The strategy's step and monitors."""
    if strategy == "c":
        return _armijo_step, _ArmijoMonitors(inst, cfg)
    if strategy == "A2":
        return _AnchoredStep(inst), _AnchoredMonitors(inst, cfg)
    if strategy in STRATEGIES:
        return partial(_classic_step, strategy), _ClassicMonitors(cfg, strategy)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def solve(inst: ProblemInstance, cfg: SolverConfig, strategy: str) -> RunReport:
    """Run strategy "a", "b", "c", "d" or "A2" from inst.x0.

    Stops where a step does: on the residual tolerance, on a fixed point of
    the projected gradient map or of the anchored step, or on an iterate
    whose value or projected step is not finite (NON_FINITE, read from the
    value and the projection gap each step holds anyway); otherwise on the
    iteration cap.  A failed line search ends the run as
    LINE_SEARCH_FAILURE, its trials counted.  The anchored step stops on a
    failed intersection projection as INTERSECTION_FAILURE, its search's
    trials counted: under the anchored method's assumptions the cuts always
    keep the solution set, so a failed projection indicates a bug or
    numerically violated assumption rather than a recoverable event.

    The trace keeps every trace_stride-th step record and the last one; the
    monitors see every step, so they are reported at any trace_stride.
    """
    step, monitors = _strategy(inst, cfg, strategy)
    at = evaluate(inst.objective, inst.x0)
    trace: list[IterateRecord] = []
    last: Optional[IterateRecord] = None
    n = trials = projections = 0
    status = SolveStatus.ITERATION_CAP
    try:
        while n < cfg.max_outer_iters:
            next_at, rec = step(inst, cfg, at, n)
            if n % cfg.trace_stride == 0:
                trace.append(rec)
            n, last = n + 1, rec
            trials, projections = trials + rec.inner_trials, projections + rec.projections
            monitors.add(rec, at, next_at)
            at = next_at
    except _Stop as stop:
        status, trials = stop.status, trials + stop.trials
    except LineSearchError as exc:
        status, trials = SolveStatus.LINE_SEARCH_FAILURE, trials + exc.trials
    if last is not None and trace[-1] is not last:
        trace.append(last)
    # the report reads a fresh value and gradient: c's point carries them
    # from its segments, and its descent chain ends at the fresh value; every
    # other point holds these very values
    x, f, g, _ = evaluate(inst.objective, at.x)
    report = RunReport(status, n, trace, x, f, norm(x - inst.feasible_set.project(x - g)), trials, projections)
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
        self.last: Optional[Point] = None
        self.dist2: Optional[float] = None  # ||x - x*||^2 at the next step's iterate

    def add(self, rec: IterateRecord, at: Point, next_at: Point) -> None:
        self.descent.link(rec.f_val)
        self.gap_bound.add(rec.gap_margin)
        self.product = min(self.product, rec.alpha * rec.gap**2)
        sol = self.inst.known_solution
        if sol is not None:
            dist2 = norm(at.x - sol) ** 2 if self.dist2 is None else self.dist2
            self.dist2 = norm(next_at.x - sol) ** 2
            self.quasi_fejer.add(dist2 + rec.epsilon_qf - self.dist2)
        self.eps_total += rec.epsilon_qf
        if self.f0 is None:
            self.f0 = rec.f_val
        self.last = next_at

    def result(self, report: RunReport) -> dict[str, MonitorResult]:
        inst, cfg, x = self.inst, self.cfg, report.final_x
        self.descent.link(report.final_f)
        beta = cfg.beta
        final_gap = report.final_residual
        if beta != 1.0:
            final_gap = norm(x - inst.feasible_set.project(x - beta * self.last.g))
        product = min(self.product, final_gap**2)
        out = {
            "descent": self.descent.result(),
            "projection_gap_bound": self.gap_bound.result(),
            "vanishing_product": MonitorResult(passed=product < 1e-8, worst_margin=product),
        }
        if inst.known_solution is not None:
            out["quasi_fejer"] = self.quasi_fejer.result()
        if inst.known_fstar is not None:
            bound = 2.0 * (cfg.beta / cfg.delta) * (self.f0 - inst.known_fstar)
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
        dominates delta * alpha * gap^2 / (beta ||g||): the accepted trial
        decreases f by at least delta * alpha * <g, x - w>, which the
        projection bounds below by gap^2 / beta.  The step length and ||g||
        are the record's, the norms the step took.
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

    def add(self, rec: IterateRecord, at: Point, next_at: Point) -> None:
        inst, cfg, x, g, gn = self.inst, self.cfg, at.x, at.g, rec.grad_norm
        self.anchor_monotone.link(rec.dist_anchor)
        self.level_monotone.link(rec.f_lev)
        self.level_sandwich.add(rec.f_val - rec.f_lev)
        if inst.known_fstar is not None:
            self.level_sandwich.add(rec.f_lev - inst.known_fstar)
        if gn != 0.0:
            level_gap = (rec.f_val - rec.f_lev) / gn
            lower = cfg.delta * (rec.alpha / cfg.beta) * rec.gap**2 / gn
            self.level_gap_step.add(rec.moved - level_gap)
            self.level_gap_step.add(level_gap - lower)
        sol = inst.known_solution
        if sol is not None:
            self.ball_containment.add(self.radius - norm(x - self.center))
            to_sol = sol - x
            self.cuts_keep_solution.add(-(dot(g, to_sol) + rec.f_val - rec.f_lev))
            self.cuts_keep_solution.add(-dot(to_sol, inst.x0 - x))

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

    def add(self, rec: IterateRecord, at: Point, next_at: Point) -> None:
        if self.strategy == "b":
            self.margins.link(rec.f_val)
        elif self.strategy == "d":
            self.margins.add(self.cfg.exo_constant / (rec.k + 1) - norm(next_at.x - at.x))

    def result(self, report: RunReport) -> dict[str, MonitorResult]:
        if self.strategy == "b":
            self.margins.link(report.final_f)
        name = self._NAMES.get(self.strategy)
        return {} if name is None else {name: self.margins.result()}
