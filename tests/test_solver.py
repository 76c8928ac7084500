import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from projgrad import (
    Ball,
    Box,
    Halfspace,
    LogSumExp,
    PNorm,
    ProblemInstance,
    Quadratic,
    Simplex,
    SolveStatus,
    SolverConfig,
    Step,
    armijo_boundary,
    armijo_feasible_direction,
    evaluate,
    get_instance,
    list_instances,
    natural_residual,
    quasi_fejer_epsilon,
    solve,
)
from projgrad import solver
from projgrad.bench import status_exit_code
from projgrad.core import dot, norm
from projgrad.oracle import projection_oracle
from projgrad.solver import STRATEGIES

from families import CountingSet, dense_box_qp, pnorm_instances, seed_202_instances


def line_1d(theta=0.5, delta=0.5):
    inst = get_instance("line-1d")
    cfg = SolverConfig(theta=theta, delta=delta)
    return inst, cfg


def test_natural_residual_examples():
    inst = get_instance("quadratic-box")
    assert natural_residual(inst, np.array([1.0, 1.0])) <= 1e-12
    # interior stationary point
    centered = ProblemInstance(
        objective=Quadratic(Q=np.eye(2), b=np.array([-0.5, -0.5])),
        feasible_set=Box(lower=np.zeros(2), upper=np.ones(2)),
        x0=np.zeros(2),
    )
    assert natural_residual(centered, np.array([0.5, 0.5])) == 0.0
    inst1d, _ = line_1d()
    assert natural_residual(inst1d, np.array([2.0])) == pytest.approx(1.0)


def first_step(inst, cfg, strategy):
    """The report of a solve capped at one step."""
    return solve(inst, replace(cfg, max_outer_iters=1), strategy)


def test_armijo_step_worked_example():
    inst, cfg = line_1d()
    assert np.array_equal(inst.x0, [2.0])
    rep = first_step(inst, cfg, "c")
    assert rep.iterations == 1
    rec = rep.trace[0]
    assert rec.alpha == 1.0
    assert rec.inner_trials == 0
    assert np.array_equal(rep.final_x, [1.0])


def test_armijo_step_fixed_point_at_solution():
    base = get_instance("quadratic-box")
    inst = ProblemInstance(objective=base.objective, feasible_set=base.feasible_set, x0=np.array([1.0, 1.0]))
    rep = first_step(inst, SolverConfig(), "c")
    assert rep.status is SolveStatus.FIXED_POINT_STOP
    assert rep.iterations == 0 and rep.trace == []
    assert np.array_equal(rep.final_x, [1.0, 1.0])


def test_armijo_step_descent_on_catalog():
    cfg = SolverConfig(max_outer_iters=10)
    for iid in ("quadratic-box", "pnorm4-ball", "pnorm1p5-box"):
        inst = get_instance(iid)
        rep = solve(inst, cfg, "c")
        xs = [r.x for r in rep.trace] + [rep.final_x]
        assert len(xs) == rep.iterations + 1
        for x, x_next in zip(xs, xs[1:]):
            assert inst.objective.value(x_next) <= inst.objective.value(x)


def test_armijo_solve_quadratic_box():
    inst = get_instance("quadratic-box")
    rep = solve(inst, SolverConfig(residual_tol=1e-6), "c")
    assert rep.status in (SolveStatus.OPTIMAL_RESIDUAL, SolveStatus.FIXED_POINT_STOP)
    assert natural_residual(inst, rep.final_x) <= 1e-6
    assert norm(rep.final_x - np.array([1.0, 1.0])) <= 1e-5
    assert all(m.passed for m in rep.monitors.values())


def test_armijo_solve_pnorm_over_ball():
    inst = get_instance("pnorm4-ball")
    rep = solve(inst, SolverConfig(residual_tol=1e-6), "c")
    assert natural_residual(inst, rep.final_x) <= 1e-6
    assert norm(rep.final_x - np.array([1.0, 0.0])) <= 1e-5


def test_armijo_solve_starts_optimal():
    base = get_instance("quadratic-box")
    inst = ProblemInstance(
        objective=base.objective,
        feasible_set=base.feasible_set,
        x0=np.array([1.0, 1.0]),
        known_solution=base.known_solution,
        known_fstar=base.known_fstar,
    )
    rep = solve(inst, SolverConfig(), "c")
    assert rep.status is SolveStatus.FIXED_POINT_STOP
    assert rep.iterations == 0
    assert np.array_equal(rep.final_x, [1.0, 1.0])


@pytest.mark.parametrize("strategy", ["a", "b", "c", "d", "A2"])
def test_every_strategy_stops_at_an_interior_minimizer_without_a_step(strategy):
    # the gradient vanishes at x0: d's stepsize is undefined there, the
    # others' projected steps do not move (b reads the residual alone)
    inst = ProblemInstance(
        objective=Quadratic(Q=np.eye(2), b=np.array([-0.5, -0.5])),
        feasible_set=Box(lower=np.zeros(2), upper=np.ones(2)),
        x0=np.array([0.5, 0.5]),
    )
    rep = solve(inst, SolverConfig(beta=0.5), strategy)
    expected = SolveStatus.OPTIMAL_RESIDUAL if strategy == "b" else SolveStatus.FIXED_POINT_STOP
    assert rep.status is expected
    assert rep.iterations == 0 and rep.trace == []
    assert np.array_equal(rep.final_x, inst.x0) and rep.final_residual == 0.0


def test_armijo_solve_optimal_status_implies_residual_bound():
    inst = get_instance("pnorm1p5-box")
    cfg = SolverConfig(residual_tol=1e-6)
    rep = solve(inst, cfg, "c")
    if rep.status is SolveStatus.OPTIMAL_RESIDUAL:
        assert natural_residual(inst, rep.final_x) <= cfg.residual_tol


def test_line_search_failure_surfaces_in_status():
    class BrokenGradient:
        def value(self, x):
            return float(x @ x)

        def gradient(self, x):
            return -2.0 * x  # wrong sign

    inst = ProblemInstance(
        objective=BrokenGradient(),
        feasible_set=Box(lower=np.full(2, -10.0), upper=np.full(2, 10.0)),
        x0=np.array([1.0, 1.0]),
    )
    rep = solve(inst, SolverConfig(max_inner_iters=30), "c")
    assert rep.status is SolveStatus.LINE_SEARCH_FAILURE
    # the failed search's trials are counted, though no step was taken
    assert rep.iterations == 0 and rep.inner_trials == 30


def test_anchored_stop_keeps_its_search_trials():
    # A2 stops after its line search; the stop carries that search's trials
    # into the report, though the stop makes no record
    inst = get_instance("pnorm4-ball")
    cfg = SolverConfig(delta=0.9)
    rep = solve(inst, cfg, "A2")
    assert rep.status is SolveStatus.FIXED_POINT_STOP and rep.iterations == 103
    stopping = _search_trials(inst, cfg, rep.final_x)
    assert stopping > 0
    assert rep.inner_trials - sum(r.inner_trials for r in rep.trace) == stopping


def _search_trials(inst, cfg, x):
    """Trials of the feasible-direction search that a step from x runs."""
    at = evaluate(inst.objective, x)
    step = Step.between(at, inst.feasible_set.project(x - cfg.beta * at.g))
    return armijo_feasible_direction(inst.objective, at, step, cfg.theta, cfg.delta, cfg.max_inner_iters).trials


def test_quasi_fejer_epsilon_stationary_is_zero():
    # a zero projection gap and no decrease
    assert quasi_fejer_epsilon(0.5, 0.0, 1.23, 1.23, SolverConfig()) == 0.0


def test_quasi_fejer_sum_bound():
    inst = get_instance("quadratic-box")
    cfg = SolverConfig()
    rep = solve(inst, cfg, "c")
    total = sum(r.epsilon_qf for r in rep.trace)
    bound = 2.0 * (cfg.beta / cfg.delta) * (inst.objective.value(inst.x0) - inst.known_fstar)
    assert total <= bound + 1e-6
    assert rep.monitors["epsilon_sum"].passed
    assert rep.monitors["quasi_fejer"].worst_margin >= -1e-8


def test_armijo_step_uses_one_projection():
    # one projection for the step and one for the final residual
    inst0 = get_instance("pnorm4-ball")
    counting = CountingSet(inst0.feasible_set)
    inst = ProblemInstance(objective=inst0.objective, feasible_set=counting, x0=inst0.x0)
    rep = first_step(inst, SolverConfig(), "c")
    assert rep.status is SolveStatus.ITERATION_CAP and rep.iterations == 1
    assert rep.projections == 1
    assert counting.projections == 2


def test_boundary_search_uses_trials_plus_one_projections():
    class Quartic:
        def value(self, x):
            return float(x[0] ** 4 / 4)

        def gradient(self, x):
            return np.array([x[0] ** 3])

    obj, x = Quartic(), np.array([2.0])
    at = evaluate(obj, x)
    counting = CountingSet(Box(lower=np.array([-10.0]), upper=np.array([10.0])))
    step = Step.between(at, counting.project(x - at.g))
    res = armijo_boundary(obj, counting, at, step, 1.0, 0.5, 0.5, 100)
    assert res.trials > 0
    assert counting.projections == res.trials + 1


def first_level_cut_projection(inst, rec):
    """Enumeration-oracle projection of the anchor onto the base set and the
    level cut of the first step record."""
    g = inst.objective.gradient(inst.x0)
    f = inst.objective.value(inst.x0)
    level = Halfspace(normal=g, offset=dot(g, inst.x0) - f + rec.f_lev)
    return projection_oracle(inst.feasible_set, [level], inst.x0)


def test_anchored_step_first_iteration_builds_no_anchor_cut():
    # at k=0 the iterate is the anchor, so the step builds no anchor cut and
    # projects onto the base intersected with the level cut alone
    inst = get_instance("quadratic-box")
    rep = first_step(inst, SolverConfig(), "A2")
    assert rep.iterations == 1
    assert rep.trace[0].dist_anchor == 0.0
    assert norm(rep.final_x - first_level_cut_projection(inst, rep.trace[0])) <= 1e-8


def test_anchored_step_1d_worked_example():
    inst, cfg = line_1d(theta=0.5, delta=0.5)
    rep = first_step(inst, cfg, "A2")
    assert rep.trace[0].f_lev == 0.5
    assert np.allclose(rep.final_x, [1.25], atol=1e-10)
    # cross-check against the enumeration oracle on the same cut system
    assert np.allclose(first_level_cut_projection(inst, rep.trace[0]), [1.25], atol=1e-10)


def test_anchored_level_value_monotone():
    inst = get_instance("pnorm4-ball")
    rep = solve(inst, SolverConfig(max_outer_iters=8), "A2")
    assert rep.iterations == 8
    levels = [math.inf] + [r.f_lev for r in rep.trace]
    assert all(lev <= prev for prev, lev in zip(levels, levels[1:]))


def test_anchored_solve_flat_instance_hits_closest_solution():
    inst = get_instance("flat-quadratic")
    rep = solve(inst, SolverConfig(), "A2")
    assert norm(rep.final_x - np.array([1.0, 1.7])) <= 1e-5
    assert all(m.passed for m in rep.monitors.values())


def test_anchored_solve_starts_optimal():
    base = get_instance("quadratic-box")
    inst = ProblemInstance(
        objective=base.objective, feasible_set=base.feasible_set, x0=np.array([1.0, 1.0])
    )
    rep = solve(inst, SolverConfig(), "A2")
    assert rep.status is SolveStatus.FIXED_POINT_STOP
    assert rep.iterations == 0


def test_anchored_matches_armijo_on_unique_solutions():
    for iid in ("quadratic-box", "pnorm4-ball-far"):
        inst = get_instance(iid)
        r1 = solve(inst, SolverConfig(), "c")
        r2 = solve(inst, SolverConfig(), "A2")
        assert norm(r1.final_x - r2.final_x) <= 1e-5
        assert all(m.passed for m in r2.monitors.values())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="A2 crawls toward an interior solution (ROADMAP item 9)")
def test_anchored_reaches_tolerance_on_2d_box_qp_with_interior_solution():
    # b and c end optimal_residual here in 19 iterations; A2 ends
    # iteration_cap at 200 with residual 2.2e-3
    inst = ProblemInstance(
        objective=Quadratic(Q=np.array([[4.0, 1.0], [1.0, 2.0]]), b=np.array([-2.0, -1.0])),
        feasible_set=Box(lower=np.zeros(2), upper=np.ones(2)),
        x0=np.array([1.0, 0.0]),
    )
    rep = solve(inst, SolverConfig(max_outer_iters=200), "A2")
    assert rep.status is SolveStatus.OPTIMAL_RESIDUAL


def pnorm_1p5_instance(n, set_name):
    """The p = 1.5 instance of pnorm_instances(n, (1.5,)) over the set named."""
    return next(inst for _, name, inst in pnorm_instances(n, (1.5,)) if name == set_name)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="A2 ends intersection_failure at iteration 9 (ROADMAP item 2)")
def test_anchored_runs_on_the_pnorm_1p5_box_at_beta_4():
    # a well-posed box instance at n = 2000; n = 20 000 at beta 1 fails at
    # iteration 18 the same way (the large suite of tests/sweep.py)
    rep = solve(pnorm_1p5_instance(2000, "box"), SolverConfig(beta=4.0, max_outer_iters=50), "A2")
    assert rep.status is not SolveStatus.INTERSECTION_FAILURE


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="b ends line_search_failure near the solution (ROADMAP item 2)")
@pytest.mark.parametrize("set_name", ["simplex", "halfspace"])
def test_boundary_search_runs_on_the_pnorm_1p5_instances_at_beta_4(set_name):
    # at n = 200 the simplex run fails at iteration 9 (residual 4.4e-8), the
    # halfspace run at iteration 11 (1.2e-8), each after 100 trials
    rep = solve(pnorm_1p5_instance(200, set_name), SolverConfig(beta=4.0, max_outer_iters=50), "b")
    assert rep.status is not SolveStatus.LINE_SEARCH_FAILURE


def test_anchored_monitor_suite_details():
    inst = get_instance("flat-quadratic")
    rep = solve(inst, SolverConfig(), "A2")
    mon = rep.monitors
    assert mon["anchor_monotone"].worst_margin >= -1e-10
    assert mon["ball_containment"].worst_margin >= -1e-7
    assert mon["level_sandwich"].worst_margin >= -1e-9
    assert mon["level_gap_step"].worst_margin >= -1e-8
    assert mon["cuts_keep_solution"].worst_margin >= -1e-8
    assert mon["level_monotone"].passed


def test_armijo_solve_logsumexp_over_simplex():
    # symmetric rows make the barycenter the constrained minimizer
    from projgrad import LogSumExp, Simplex

    obj = LogSumExp(rows=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), offsets=np.zeros(3))
    inst = ProblemInstance(objective=obj, feasible_set=Simplex(scale=1.0), x0=np.array([0.9, 0.1]))
    rep = solve(inst, SolverConfig(), "c")
    assert norm(rep.final_x - np.array([0.5, 0.5])) <= 1e-6


def test_solvers_on_halfspace_and_hyperplane_bases():
    from projgrad import Halfspace, Hyperplane

    quadratic = Quadratic(Q=np.eye(2), b=np.array([-2.0, -2.0]))  # unconstrained min at (2,2)
    halfspace = Halfspace(normal=np.array([1.0, 1.0]), offset=2.0)
    inst = ProblemInstance(objective=quadratic, feasible_set=halfspace, x0=np.zeros(2))
    expected = halfspace.project(np.array([2.0, 2.0]))
    assert norm(solve(inst, SolverConfig(), "c").final_x - expected) <= 1e-6
    assert norm(solve(inst, SolverConfig(), "A2").final_x - expected) <= 1e-5

    hyperplane = Hyperplane(normal=np.array([1.0, 1.0]), offset=2.0)
    inst2 = ProblemInstance(objective=quadratic, feasible_set=hyperplane, x0=np.array([2.0, 0.0]))
    assert norm(solve(inst2, SolverConfig(), "c").final_x - expected) <= 1e-6


def test_classic_constant_step_converges_under_curvature_bound():
    # L = 1 for the unit quadratic, so beta = 0.5 < 2/L converges
    inst = get_instance("quadratic-box")
    cfg = SolverConfig(beta=0.5, residual_tol=1e-6)
    rep = solve(inst, cfg, "a")
    assert natural_residual(inst, rep.final_x) <= 1e-6
    ref = solve(inst, SolverConfig(), "c").final_x
    assert norm(rep.final_x - ref) <= 1e-6


def test_classic_constant_step_divergence_witness():
    # interior minimizer and beta = 2.5 >= 2/L: the iterates oscillate and
    # the run is flagged by the iteration cap, residual stuck well above tol
    inst = ProblemInstance(
        objective=Quadratic(Q=np.eye(2), b=np.array([-0.5, -0.5]), c=0.25),
        feasible_set=Box(lower=np.zeros(2), upper=np.ones(2)),
        x0=np.zeros(2),
    )
    cfg = SolverConfig(beta=2.5, max_outer_iters=300)
    rep = solve(inst, cfg, "a")
    assert rep.status is SolveStatus.ITERATION_CAP
    assert natural_residual(inst, rep.final_x) > 1e-2


def test_classic_boundary_matches_armijo_limit():
    inst, cfg = line_1d(delta=1e-4)
    rep_b = solve(inst, cfg, "b")
    rep_c = solve(inst, cfg, "c")
    assert norm(rep_b.final_x - rep_c.final_x) <= 1e-6
    assert rep_b.monitors["descent"].passed


def test_classic_exogenous_step_bound_and_slow_convergence():
    inst = get_instance("quadratic-box")
    cfg = SolverConfig(exo_constant=1.0, residual_tol=1e-2, max_outer_iters=10_000)
    rep = solve(inst, cfg, "d")
    assert rep.status in (SolveStatus.OPTIMAL_RESIDUAL, SolveStatus.FIXED_POINT_STOP)
    assert rep.iterations <= 10_000
    assert rep.monitors["exogenous_step_bound"].passed
    # the per-step bound, checked directly from the trace
    xs = [r.x for r in rep.trace] + [rep.final_x]
    for i, r in enumerate(rep.trace):
        assert norm(xs[i + 1] - xs[i]) <= cfg.exo_constant / (r.k + 1) + 1e-12


def test_classic_rejects_unknown_strategy():
    inst = get_instance("quadratic-box")
    with pytest.raises(ValueError, match="unknown strategy"):
        solve(inst, SolverConfig(), "A1")


def test_intersection_failure_surfaces_in_status(monkeypatch):
    import projgrad.solver as solver_module
    from projgrad.sets import IntersectionError, project_intersection

    def exploding(base, cuts, anchor):
        raise IntersectionError("forced")

    monkeypatch.setattr(solver_module, "project_intersection", exploding)
    rep = solve(get_instance("flat-quadratic"), SolverConfig(), "A2")
    assert rep.status is SolveStatus.INTERSECTION_FAILURE

    # the failing step's search runs before its projection: the stop counts
    # that search's trials, though the step makes no record
    calls = []

    def fails_at_50th(base, cuts, anchor):
        calls.append(1)
        if len(calls) == 50:
            raise IntersectionError("forced")
        return project_intersection(base, cuts, anchor)

    monkeypatch.setattr(solver_module, "project_intersection", fails_at_50th)
    inst, cfg = get_instance("pnorm4-ball"), SolverConfig(delta=0.9)
    rep = solve(inst, cfg, "A2")
    assert rep.status is SolveStatus.INTERSECTION_FAILURE and rep.iterations == 49
    assert sum(r.inner_trials for r in rep.trace) == 142
    assert rep.inner_trials == 142 + _search_trials(inst, cfg, rep.final_x) == 144


def test_instance_requires_feasible_start():
    # the message gives the distance of x0 to the set: (2, 0) is 1 from [0, 1]^2
    with pytest.raises(ValueError, match=r"x0 is infeasible: 1\.000e\+00 from the feasible set"):
        ProblemInstance(
            objective=Quadratic(Q=np.eye(2), b=np.zeros(2)),
            feasible_set=Box(lower=np.zeros(2), upper=np.ones(2)),
            x0=np.array([2.0, 0.0]),
        )


def test_trace_stride_subsamples():
    inst = get_instance("pnorm4-ball-far")
    rep_full = solve(inst, SolverConfig(), "c")
    rep_strided = solve(inst, SolverConfig(trace_stride=5), "c")
    assert rep_strided.iterations == rep_full.iterations
    assert len(rep_strided.trace) < len(rep_full.trace)
    assert rep_strided.trace[-1].k == rep_full.trace[-1].k
    # the monitors see every step, whatever the stride of the stored trace
    configs = {"a": SolverConfig(beta=0.5), "d": SolverConfig(max_outer_iters=2000)}
    for iid in list_instances():
        inst = get_instance(iid)
        for strategy in ("a", "b", "c", "d", "A2"):
            cfg = configs.get(strategy, SolverConfig())
            full = solve(inst, cfg, strategy).monitors
            strided = solve(inst, replace(cfg, trace_stride=5), strategy).monitors
            assert full or strategy == "a", f"{iid}/{strategy}"
            assert list(strided) == list(full), f"{iid}/{strategy}"
            for name, m in full.items():
                assert strided[name].passed == m.passed, f"{iid}/{strategy}/{name}"
                assert abs(strided[name].worst_margin - m.worst_margin) <= 1e-12, f"{iid}/{strategy}/{name}"


def test_anchored_monitors_make_no_gradient_or_projection_calls(monkeypatch):
    import projgrad.solver as solver_module

    inside = {"monitors": False}
    calls = {"monitors": 0, "steps": 0}

    def counted(method):
        def wrapper(self, *args, **kwargs):
            calls["monitors" if inside["monitors"] else "steps"] += 1
            return method(self, *args, **kwargs)

        return wrapper

    def flagged(method):
        def wrapper(*args, **kwargs):
            inside["monitors"] = True
            try:
                return method(*args, **kwargs)
            finally:
                inside["monitors"] = False

        return wrapper

    for cls in (Quadratic, PNorm):
        for name in ("gradient", "evaluate"):
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    for cls in (Box, Ball):
        monkeypatch.setattr(cls, "project", counted(cls.project))
    for name in ("add", "result"):
        monkeypatch.setattr(solver_module._AnchoredMonitors, name, flagged(getattr(solver_module._AnchoredMonitors, name)))
    for iid in ("quadratic-box", "pnorm4-ball", "flat-quadratic", "pnorm4-ball-far"):
        rep = solve(get_instance(iid), SolverConfig(), "A2")
        assert rep.iterations > 0 and "cuts_keep_solution" in rep.monitors, iid
    assert calls["steps"] > 0
    assert calls["monitors"] == 0


def test_instance_rejects_objective_of_other_dimension():
    from projgrad import Simplex

    with pytest.raises(ValueError, match="dimension"):
        ProblemInstance(objective=PNorm(p=2.0, shift=np.zeros(3)), feasible_set=Simplex(scale=1.0), x0=np.array([0.5, 0.5]))


def test_instance_rejects_known_solution_of_other_dimension():
    # unchecked, the mismatch surfaces mid-run as a numpy broadcast error in the monitors
    base = get_instance("quadratic-box")
    with pytest.raises(ValueError, match="known_solution dimension 3 does not match x0 dimension 2"):
        ProblemInstance(
            objective=base.objective, feasible_set=base.feasible_set, x0=base.x0, known_solution=np.zeros(3)
        )


@pytest.mark.parametrize("fstar", [np.nan, -np.inf])
def test_instance_rejects_non_finite_known_fstar(fstar):
    # a NaN optimal value would fail the epsilon_sum monitor on every run
    base = get_instance("quadratic-box")
    with pytest.raises(ValueError, match="known_fstar"):
        ProblemInstance(objective=base.objective, feasible_set=base.feasible_set, x0=base.x0, known_fstar=fstar)


def test_armijo_solve_sees_decrease_below_value_resolution():
    # f ~ -568 near the solution at n = 500, so a comparison of two values of
    # f cannot see a decrease below ~1e-13; both searches compare the exact
    # decrease, so the runs reach the tolerance
    for strategy, n in (("c", 500), ("b", 50), ("b", 500)):
        inst = dense_box_qp(n, seed=7)
        rep = solve(inst, SolverConfig(residual_tol=1e-8), strategy)
        assert rep.status is SolveStatus.OPTIMAL_RESIDUAL, (strategy, n)
        assert rep.iterations <= 100
        assert rep.final_residual <= 1e-8
        assert all(m.passed for m in rep.monitors.values())


@pytest.mark.parametrize("iid", ["flat-quadratic", "pnorm4-ball", "pnorm4-ball-far"])
def test_boundary_solve_reaches_tol_after_long_backtracks(iid):
    # at delta = 0.9 some boundary searches backtrack 30-50 trials, down to
    # steps whose decrease is below the resolution of f
    rep = solve(get_instance(iid), SolverConfig(delta=0.9), "b")
    assert rep.status is SolveStatus.OPTIMAL_RESIDUAL
    assert rep.final_residual <= 1e-8
    assert rep.monitors["descent"].passed


@pytest.mark.parametrize(
    "iid, strategy, cfg, projections",
    [
        ("pnorm4-ball-far", "b", SolverConfig(), 19),
        ("pnorm1p5-box", "a", SolverConfig(beta=1.0), 5),
        ("pnorm4-ball-far", "c", SolverConfig(), 19),
        ("pnorm1p5-box", "c", SolverConfig(), 5),
        # searches that backtrack: 296 boundary and 61 feasible-direction trials
        ("pnorm4-ball-far", "b", SolverConfig(delta=0.9), 354),
        ("pnorm4-ball-far", "c", SolverConfig(delta=0.9), 36),
    ],
)
def test_solve_projects_once_per_iteration_and_rejected_trial(iid, strategy, cfg, projections):
    # one projection per iteration (the projected step, which is the first
    # trial of b and gives the residual), one per rejected
    # boundary trial, one for the entry test that ends the run and one for
    # the final residual; the feasible-direction trials project nothing
    base = get_instance(iid)
    counting = CountingSet(base.feasible_set)
    inst = ProblemInstance(objective=base.objective, feasible_set=counting, x0=base.x0)
    rep = solve(inst, cfg, strategy)
    assert rep.status is SolveStatus.OPTIMAL_RESIDUAL
    projecting_trials = rep.inner_trials if strategy == "b" else 0
    assert counting.projections == rep.iterations + projecting_trials + 2 == projections
    assert rep.projections == projections - 2


@pytest.mark.parametrize(
    "iid, strategy, cfg, projections",
    [("pnorm4-ball", "a", SolverConfig(beta=0.5), 17), ("quadratic-box", "d", SolverConfig(exo_constant=1.0), 2)],
)
def test_every_stepsize_projects_once_per_step(iid, strategy, cfg, projections):
    # away from stepsize 1 too a step projects once: its residual is read
    # from its own projected point; the entry test that ends the run projects
    # once more, and so does the final residual
    base = get_instance(iid)
    counting = CountingSet(base.feasible_set)
    inst = ProblemInstance(objective=base.objective, feasible_set=counting, x0=base.x0)
    rep = solve(inst, cfg, strategy)
    assert rep.projections == rep.iterations == projections
    assert counting.projections == projections + 2


@pytest.mark.parametrize("iid", list_instances())
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
def test_an_optimal_stop_is_below_tol(iid, strategy, beta):
    # the stop reads ||x - w|| / min(beta, 1), never below the natural
    # residual; ||x - w|| / beta alone is, at beta > 1, and would stop
    # pnorm4-ball under a, b and c at beta 2 with a residual above tol
    cfg = SolverConfig(beta=beta, max_outer_iters=300)
    rep = solve(get_instance(iid), cfg, strategy)
    if rep.status is SolveStatus.OPTIMAL_RESIDUAL:
        assert rep.final_residual <= cfg.residual_tol


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_repeated_solve_gives_the_same_result(strategy):
    # a solve leaves nothing behind for the next: not A2's anchor or level,
    # which its step keeps for one solve, and nothing on the objective or set
    cfg = SolverConfig(beta=0.5 if strategy == "a" else 1.0, max_outer_iters=80)
    instances = [(iid, get_instance(iid)) for iid in list_instances()]
    instances += [(f"202/{trial}", inst) for trial, inst in seed_202_instances()]
    for name, inst in instances:
        first = solve(inst, cfg, strategy)
        second = solve(inst, cfg, strategy)
        assert (second.status, second.iterations, second.inner_trials) == (
            first.status, first.iterations, first.inner_trials
        ), name
        assert second.final_x.tobytes() == first.final_x.tobytes(), name
        verdicts = [{k: (m.passed, float(m.worst_margin).hex()) for k, m in rep.monitors.items()}
                    for rep in (first, second)]
        assert verdicts[1] == verdicts[0], name


def scale_instances():
    """The quadratic registry instances and the twelve random QPs of seed
    202, by name."""
    yield from ((iid, get_instance(iid)) for iid in ("quadratic-box", "line-1d", "flat-quadratic"))
    yield from ((f"202/{trial}", inst) for trial, inst in seed_202_instances())


SCALE_INSTANCES = dict(scale_instances())
# run name -> (strategy, config); A2 at the budget of the A2 sweep
SCALE_RUNS = {"a": ("a", SolverConfig(beta=0.5)), "b": ("b", SolverConfig()), "c": ("c", SolverConfig()),
              "c-beta0.7": ("c", SolverConfig(beta=0.7)), "A2": ("A2", SolverConfig(max_outer_iters=80)),
              "A2-beta0.7": ("A2", SolverConfig(beta=0.7, max_outer_iters=80))}
FACE_SOLVE_SCALE = pytest.mark.xfail(
    strict=True, reason="sets._face_solve pivots its 2x2 system by f's scale (CHANGES.md, FOUND)")


@functools.cache
def scaled_run(name, run, scale):
    """The report of a run on the instance with f scaled by scale, beta by
    1/scale and residual_tol by scale."""
    inst, (strategy, cfg) = SCALE_INSTANCES[name], SCALE_RUNS[run]
    obj, fstar = inst.objective, inst.known_fstar
    inst = ProblemInstance(Quadratic(Q=scale * obj.Q, b=scale * obj.b, c=scale * obj.c), inst.feasible_set,
                           inst.x0, inst.known_solution, None if fstar is None else scale * fstar)
    return solve(inst, replace(cfg, beta=cfg.beta / scale, residual_tol=scale * cfg.residual_tol), strategy)


@pytest.mark.parametrize("name, run, scale, check", [
    pytest.param(name, run, scale, check, id=f"{name}-{run}-2^{exp}-{check}",
                 marks=[FACE_SOLVE_SCALE] if (name, run[:2], check) == ("202/9", "A2", "bits") else [])
    for exp, scale in ((10, 2.0**10), (40, 2.0**40)) for name in SCALE_INSTANCES for run in SCALE_RUNS
    for check in ("stop", "bits")
])
def test_power_of_two_scaling_moves_no_stop(name, run, scale, check):
    """f -> s f with beta -> beta / s and residual_tol -> s tol, s a power of
    two, scales every projected step's gradient part, Armijo test and level
    value exactly, and every stop reads the gap of the step's own projection
    over min(beta, 1): so each run keeps its stop, its iteration count and
    its bits.

    d is left out: its stepsize c / ((k + 1) ||g||) exceeds 1 on some steps,
    where its stop reads the gap itself, which the scaling does not carry
    (seed 202 trial 7 at 2^40 goes from fixed_point_stop in 1840 iterations
    to optimal_residual in 176)."""
    ref, rep = scaled_run(name, run, 1.0), scaled_run(name, run, scale)
    if check == "stop":
        assert (rep.status, rep.iterations) == (ref.status, ref.iterations)
    else:
        assert rep.final_x.tobytes() == ref.final_x.tobytes()


def posthoc_armijo_margins(inst, cfg, rep):
    """Reference: the projection_gap_bound and vanishing_product margins
    recomputed after the solve from a fresh gradient and projection per
    record."""
    obj, set_ = inst.objective, inst.feasible_set
    gap_margins, products = [], []
    for r in rep.trace:
        g = obj.gradient(r.x)
        w = set_.project(r.x - r.beta * g)
        gap = norm(r.x - w)
        gap_margins.append(dot(g, r.x - w) - gap**2 / r.beta)
        products.append(r.alpha * gap**2)
    g_final = obj.gradient(rep.final_x)
    final_gap = norm(rep.final_x - set_.project(rep.final_x - cfg.beta * g_final))
    return min(gap_margins), min(products + [final_gap**2])


def test_in_step_monitor_margins_match_posthoc_recomputation():
    instances = [get_instance(iid) for iid in list_instances()] + [dense_box_qp(200, seed=3)]
    configs = (SolverConfig(), SolverConfig(beta=0.5))
    for inst in instances:
        for cfg in configs:
            rep = solve(inst, cfg, "c")
            if not rep.trace:
                continue
            gap_ref, product_ref = posthoc_armijo_margins(inst, cfg, rep)
            gap, product = rep.monitors["projection_gap_bound"], rep.monitors["vanishing_product"]
            assert abs(gap.worst_margin - gap_ref) <= 1e-12 * max(1.0, abs(gap_ref))
            assert abs(product.worst_margin - product_ref) <= 1e-12 * max(1.0, abs(product_ref))
            assert gap.passed == (gap_ref >= -1e-10)
            assert product.passed == (product_ref < 1e-8)


class SkewedQuadratic(Quadratic):
    """A Quadratic whose segment understates the curvature term of the
    decrease by 2 %: the search still converges, but its carried values run
    below the objective."""

    def segment(self, at, step):
        exact = super().segment(at, step)
        return SimpleNamespace(
            decrease=lambda t: t * exact.gd + 0.49 * t * t * exact.dQd, gradient=exact.gradient
        )


def test_descent_monitor_sees_wrong_segment_decrease():
    inst = dense_box_qp(40, seed=7)
    assert solve(inst, SolverConfig(), "c").monitors["descent"].passed
    obj = inst.objective
    skewed = ProblemInstance(objective=SkewedQuadratic(Q=obj.Q, b=obj.b), feasible_set=inst.feasible_set, x0=inst.x0)
    rep = solve(skewed, SolverConfig(), "c")
    assert rep.status is SolveStatus.OPTIMAL_RESIDUAL
    assert not rep.monitors["descent"].passed


class CountingMatrix:
    """Stands in for a Quadratic's Q and counts products with it: a full
    product, or a gather of the rows on a vector's support (see
    Quadratic._times), which is one product with those rows."""

    __array_ufunc__ = None  # numpy defers x @ Q to __rmatmul__

    def __init__(self, Q):
        self.Q = Q
        self.products = 0
        self.support_products = 0

    def __matmul__(self, v):
        self.products += 1
        return self.Q @ v

    def __rmatmul__(self, v):
        self.products += 1
        return v @ self.Q

    def __getitem__(self, rows):
        self.products += 1
        self.support_products += 1
        return self.Q[rows]


def dense_simplex_qp(n, seed):
    """dense_box_qp's objective over the unit simplex from its barycentre."""
    box = dense_box_qp(n, seed)
    return ProblemInstance(objective=box.objective, feasible_set=Simplex(1.0), x0=np.full(n, 1.0 / n))


def test_feasible_direction_costs_one_product_per_iteration():
    # evaluate at x0 and at the final point, plus Qd once per
    # iteration, whether the product is full or reads the support's rows;
    # on the simplex every direction after the first is sparse
    cases = [
        (dense_box_qp(500, seed=7), 1),  # x0 = 0 has an empty support
        (dense_box_qp(40, seed=11), 0),
        (get_instance("quadratic-box"), 0),
        (dense_simplex_qp(500, seed=7), 26),
    ]
    for inst, support_products in cases:
        counter = CountingMatrix(inst.objective.Q)
        object.__setattr__(inst.objective, "Q", counter)
        rep = solve(inst, SolverConfig(), "c")
        assert rep.iterations > 0
        assert counter.products == rep.iterations + 2
        assert counter.support_products == support_products


def test_feasible_direction_search_makes_no_value_calls(monkeypatch):
    rng = np.random.default_rng(13)
    objectives = [
        Quadratic(Q=np.diag([1.0, 50.0]), b=np.array([-1.0, 3.0])),
        LogSumExp(rows=5.0 * rng.standard_normal((4, 2)), offsets=rng.standard_normal(4)),
        PNorm(p=4.0, shift=np.array([3.0, -2.0])),
    ]
    calls = {"value": 0, "gradient": 0}
    for cls in {type(obj) for obj in objectives}:
        for name in calls:
            original = getattr(cls, name)

            def counted(self, x, original=original, name=name):
                calls[name] += 1
                return original(self, x)

            monkeypatch.setattr(cls, name, counted)
    box = Box(lower=np.full(2, -10.0), upper=np.full(2, 10.0))
    trials = {"feasible_direction": 0, "boundary": 0}
    for obj in objectives:
        at = evaluate(obj, np.array([1.0, 1.0]))
        step = Step.between(at, box.project(at.x - 4.0 * at.g))
        res = armijo_feasible_direction(obj, at, step, 0.5, 0.5, 100)
        trials["feasible_direction"] += res.trials
        res = armijo_boundary(obj, box, at, step, 4.0, 0.5, 0.5, 100)
        assert res.f_trial == at.f + res.segment.decrease(1.0)
        trials["boundary"] += res.trials
    assert min(trials.values()) > 0
    assert calls == {"value": 0, "gradient": 0}


def test_anchored_step_makes_few_base_projections_at_n_1000(monkeypatch):
    # the intersection projection's own base projections, counted on the
    # set classes (a wrapping set would miss the dispatch on the base type)
    inside, counted = [False], [0]
    for cls in (Box, Simplex):
        def counting(self, x, project=cls.project):
            counted[0] += inside[0]
            return project(self, x)

        monkeypatch.setattr(cls, "project", counting)
    intersect = solver.project_intersection

    def flagged(*args):
        inside[0] = True
        try:
            return intersect(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(solver, "project_intersection", flagged)
    for inst in (dense_box_qp(1000, seed=7), dense_simplex_qp(1000, seed=7)):
        counted[0] = 0
        rep = solve(inst, SolverConfig(residual_tol=1e-6, max_outer_iters=20), "A2")
        assert rep.status is SolveStatus.ITERATION_CAP and rep.iterations == 20
        assert counted[0] <= 10 * rep.iterations, type(inst.feasible_set).__name__


def test_non_finite_values_end_in_their_own_status():
    # f is NaN once x1 >= 0.5, where the minimizer (1, 0) lies
    class Cliff:
        dim = 2

        def value(self, x):
            return math.nan if x[0] >= 0.5 else 0.5 * float((x[0] - 1.0) ** 2 + x[1] ** 2)

        def gradient(self, x):
            return np.full(2, math.nan) if x[0] >= 0.5 else x - np.array([1.0, 0.0])

    inst = ProblemInstance(objective=Cliff(), feasible_set=Box(lower=np.zeros(2), upper=np.full(2, 2.0)),
                           x0=np.zeros(2))
    for strategy in ("a", "b", "c", "d", "A2"):
        rep = solve(inst, SolverConfig(max_outer_iters=50), strategy)
        finite = math.isfinite(rep.final_f) and bool(np.all(np.isfinite(rep.final_x)))
        assert (rep.status is SolveStatus.NON_FINITE) != finite, strategy
        if strategy in ("a", "d"):
            # both step onto the cliff at once; the searches of b, c and A2
            # reject the NaN trials and stay off it
            assert rep.status is SolveStatus.NON_FINITE and rep.iterations == 1, strategy
    codes = {status: status_exit_code(status) for status in SolveStatus}
    assert codes[SolveStatus.NON_FINITE] not in (0, *(c for s, c in codes.items() if s is not SolveStatus.NON_FINITE))
