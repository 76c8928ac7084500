"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the suite is the exit bar for the library.
"""

import time

import numpy as np

from projgrad import (
    Halfspace,
    LogSumExp,
    PNorm,
    Point,
    ProblemInstance,
    Quadratic,
    SolverConfig,
    Step,
    armijo_boundary,
    armijo_feasible_direction,
    check_gradient,
    evaluate,
    get_instance,
    natural_residual,
    project_intersection,
    solve,
)
from projgrad.core import dot, norm
from projgrad.oracle import projection_oracle

from families import CountingSet, random_set

EPS = np.finfo(float).eps
ARMIJO_INSTANCES = ("quadratic-box", "pnorm4-ball", "pnorm1p5-box")
UNIQUE_INSTANCES = ("quadratic-box", "pnorm4-ball", "pnorm4-ball-far")


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_projection_property_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        dim = int(rng.integers(1, 11))
        s = random_set(rng, dim)
        x = rng.uniform(-3, 3, dim)
        y = rng.uniform(-3, 3, dim)
        z = s.project(rng.uniform(-3, 3, dim))
        px, py = s.project(x), s.project(y)
        worst = max(worst, dot(x - px, z - px))
        worst = max(worst, norm(z - py) ** 2 - dot(z - y, z - py))
        worst = max(worst, norm(s.project(px) - px) - 1e-10)
        worst = max(worst, norm(px - py) - norm(x - y) - 1e-12)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report("criterion-1 projection properties", ok, f"worst violation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_intersection_oracle_equivalence():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        dim = int(rng.integers(1, 5))
        base = random_set(rng, dim)
        witness = base.project(rng.uniform(-2, 2, dim))
        cuts = []
        for _ in range(int(rng.integers(0, 3))):
            n = rng.standard_normal(dim)
            n *= rng.uniform(0.5, 2.0) / max(norm(n), 1e-12)
            cuts.append(Halfspace(normal=n, offset=float(n @ witness) + rng.uniform(0.05, 1.0)))
        anchor = rng.uniform(-3, 3, dim)
        got = project_intersection(base, cuts, anchor)
        ref = projection_oracle(base, cuts, anchor)
        worst = max(worst, norm(got - ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report("criterion-2 intersection vs QP oracle", ok, f"worst distance {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_armijo_convergence():
    start = time.perf_counter()
    worst_resid, worst_dist, worst_iters = 0.0, 0.0, 0
    for iid in ARMIJO_INSTANCES:
        inst = get_instance(iid)
        rep = solve(inst, SolverConfig(residual_tol=1e-6, max_outer_iters=5000), "c")
        worst_iters = max(worst_iters, rep.iterations)
        worst_resid = max(worst_resid, natural_residual(inst, rep.final_x))
        worst_dist = max(worst_dist, norm(rep.final_x - inst.known_solution))
    elapsed = time.perf_counter() - start
    ok = worst_resid <= 1e-6 and worst_dist <= 1e-5 and worst_iters <= 5000 and elapsed < 10.0
    report(
        "criterion-3 feasible-direction convergence",
        ok,
        f"residual {worst_resid:.2e}, distance {worst_dist:.2e}, iters {worst_iters}, {elapsed:.2f}s",
    )


def test_criterion_4_armijo_monitor_suite():
    details = []
    ok = True
    for iid in ARMIJO_INSTANCES:
        inst = get_instance(iid)
        rep = solve(inst, SolverConfig(residual_tol=1e-6, max_outer_iters=5000), "c")
        mon = rep.monitors
        checks = {
            "descent": mon["descent"].worst_margin >= -1e-12,
            "projection_gap_bound": mon["projection_gap_bound"].worst_margin >= -1e-10,
            "quasi_fejer": mon["quasi_fejer"].worst_margin >= -1e-8,
            "epsilon_sum": mon["epsilon_sum"].passed,
        }
        ok = ok and all(checks.values())
        details.append(f"{iid}:{'/'.join(k for k, v in checks.items() if not v) or 'ok'}")
    report("criterion-4 feasible-direction monitors", ok, "; ".join(details))


def test_criterion_5_anchored_targets():
    start = time.perf_counter()
    inst = get_instance("flat-quadratic")
    rep = solve(inst, SolverConfig(), "A2")
    flat_err = norm(rep.final_x - np.array([1.0, 1.7]))
    agree = 0.0
    for iid in UNIQUE_INSTANCES:
        unique = get_instance(iid)
        r1 = solve(unique, SolverConfig(), "c")
        r2 = solve(unique, SolverConfig(), "A2")
        agree = max(agree, norm(r1.final_x - r2.final_x))
    elapsed = time.perf_counter() - start
    ok = flat_err <= 1e-5 and agree <= 1e-5 and elapsed < 10.0
    report(
        "criterion-5 anchored strong-convergence target",
        ok,
        f"flat error {flat_err:.2e}, worst agreement {agree:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_anchored_monitor_suite():
    details = []
    ok = True
    for iid in ("flat-quadratic",) + UNIQUE_INSTANCES:
        inst = get_instance(iid)
        rep = solve(inst, SolverConfig(), "A2")
        mon = rep.monitors
        checks = {
            "anchor_monotone": mon["anchor_monotone"].worst_margin >= -1e-10,
            "ball_containment": mon["ball_containment"].worst_margin >= -1e-7,
            "level_sandwich": mon["level_sandwich"].worst_margin >= -1e-9,
            "level_gap_step": mon["level_gap_step"].worst_margin >= -1e-8,
            "cuts_keep_solution": mon["cuts_keep_solution"].worst_margin >= -1e-8,
        }
        ok = ok and all(checks.values())
        details.append(f"{iid}:{'/'.join(k for k, v in checks.items() if not v) or 'ok'}")
    report("criterion-6 anchored monitors", ok, "; ".join(details))


def test_criterion_7_strategy_comparison():
    inst = get_instance("line-1d")
    cfg = SolverConfig(residual_tol=1e-2)

    # feasible direction: exactly one projection per outer iteration, plus
    # one for the entry test that ends the run and one for the final residual
    counting = CountingSet(inst.feasible_set)
    counted_inst = ProblemInstance(objective=inst.objective, feasible_set=counting, x0=inst.x0)
    rep_c = solve(counted_inst, cfg, "c")
    c_iters = rep_c.iterations
    one_each = counting.projections == c_iters + 2

    # boundary search: exactly trials + 1 projections per call
    counting_b = CountingSet(inst.feasible_set)
    xb = inst.x0
    b_ok = True
    for _ in range(100):
        before = counting_b.projections
        at = evaluate(inst.objective, xb)
        step = Step.between(at, counting_b.project(xb - at.g))
        res = armijo_boundary(inst.objective, counting_b, at, step, 1.0, cfg.theta, cfg.delta, 100)
        b_ok = b_ok and (counting_b.projections - before == res.trials + 1)
        xb = res.trial_point
        if natural_residual(inst, xb) <= 1e-2:
            break

    # exogenous: per-step bound holds and it is at least 10x slower than (c)
    cfg_d = SolverConfig(exo_constant=0.2, residual_tol=1e-2, max_outer_iters=100_000)
    rep_d = solve(inst, cfg_d, "d")
    bound_ok = rep_d.monitors["exogenous_step_bound"].passed
    ratio = rep_d.iterations / max(1, c_iters)
    ok = one_each and b_ok and bound_ok and ratio >= 10.0
    report(
        "criterion-7 strategy comparison",
        ok,
        f"(c) 1 proj/iter={one_each}, (b) l+1 projs={b_ok}, (d) bound={bound_ok}, "
        f"(d)/(c) iterations {rep_d.iterations}/{max(1, c_iters)} = {ratio:.0f}x",
    )


def test_criterion_8_gradient_validation():
    rng = np.random.default_rng(108)
    variants = [
        PNorm(p=1.5, shift=np.array([0.3, -0.2, 0.1])),
        PNorm(p=4.0, shift=np.array([0.3, -0.2, 0.1])),
        Quadratic(Q=np.diag([1.0, 2.0, 0.5]), b=np.array([0.1, -0.4, 0.2]), c=1.0),
        LogSumExp(rows=rng.standard_normal((4, 3)), offsets=rng.standard_normal(4)),
    ]
    worst = 0.0
    for obj in variants:
        count = 0
        while count < 100:
            x = rng.uniform(-2, 2, 3)
            if isinstance(obj, PNorm) and norm(x - obj.shift) < 0.1:
                continue  # keep central differences away from the gradient singularity
            worst = max(worst, check_gradient(obj, x, 1e-5))
            count += 1
    ok = worst <= 1e-7
    report("criterion-8 gradient validation", ok, f"worst central-difference error {worst:.2e}")


def armijo_slack(obj, x, w, f, d, cfg, j):
    """f(x + t (w - x)) - f + delta t d at t = theta^j, from two values of
    the objective apart from the search, and the rounding allowance of those
    two values: a slack within it decides nothing."""
    t = cfg.theta**j
    f_trial = obj.value(t * w + (1.0 - t) * x)
    return f_trial - f + cfg.delta * t * d, 4.0 * EPS * (abs(f) + abs(f_trial))


def test_criterion_9_armijo_trial_counts_and_minimality():
    # sweep the sufficient-decrease fraction so the search actually
    # backtracks: delta near 1 forces several contraction steps
    worst_trials = 0
    minimality_ok = accepted_ok = True
    backtracked = 0
    for iid in ARMIJO_INSTANCES + ("line-1d", "flat-quadratic", "pnorm4-ball-far"):
        inst = get_instance(iid)
        for delta in (1e-4, 0.5, 0.9):
            cfg = SolverConfig(delta=delta, residual_tol=1e-6, max_outer_iters=5000)
            for rep in (solve(inst, cfg, "c"), solve(inst, cfg, "A2")):
                for rec in rep.trace:
                    worst_trials = max(worst_trials, rec.inner_trials)
                    g = inst.objective.gradient(rec.x)
                    w = inst.feasible_set.project(rec.x - rec.beta * g)
                    f = inst.objective.value(rec.x)
                    d = dot(g, rec.x - w)
                    at = Point(rec.x, f, g)
                    res = armijo_feasible_direction(
                        inst.objective, at, Step.between(at, w), cfg.theta, cfg.delta, cfg.max_inner_iters
                    )
                    if res.trials != rec.inner_trials:
                        minimality_ok = False
                    slack, allowance = armijo_slack(inst.objective, rec.x, w, f, d, cfg, rec.inner_trials)
                    if slack > allowance:
                        accepted_ok = False
                    if rec.inner_trials > 0:
                        backtracked += 1
                        slack, allowance = armijo_slack(inst.objective, rec.x, w, f, d, cfg, rec.inner_trials - 1)
                        if slack < -allowance:
                            minimality_ok = False
    ok = worst_trials < 80 and accepted_ok and minimality_ok and backtracked > 0
    report(
        "criterion-9 line-search trial counts",
        ok,
        f"max trials {worst_trials}, accepted trials satisfy the test: {accepted_ok}, "
        f"minimality rechecked at {backtracked} backtracked steps: {minimality_ok}",
    )
