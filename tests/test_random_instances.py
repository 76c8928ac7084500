"""End-to-end randomized cross-checks of the solvers against the QP oracle.

Strictly convex quadratics over random bounded bases: the feasible-direction
solver must land on the oracle solution; the anchored solver must either
stop there or report honestly that it is still crawling (its level cuts give
no rate guarantee, and near curved boundaries progress per step decays with
the squared distance).
"""

import pytest

from projgrad import Ball, Box, Simplex, SolveStatus, SolverConfig, solve
from projgrad import solver
from projgrad.core import norm

from families import STOPPED, random_instances, seed_202_instances


def test_solvers_track_qp_oracle_on_random_instances():
    for trial, inst in seed_202_instances():
        reference = inst.known_solution
        start_dist = norm(inst.x0 - reference)

        rep_a = solve(inst, SolverConfig(), "c")
        assert norm(rep_a.final_x - reference) <= 1e-5, f"trial {trial}"
        assert {"quasi_fejer", "epsilon_sum"} <= rep_a.monitors.keys()
        assert all(m.passed for m in rep_a.monitors.values()), f"trial {trial}"

        rep_b = solve(inst, SolverConfig(max_outer_iters=80), "A2")
        assert rep_b.status is not SolveStatus.INTERSECTION_FAILURE, f"trial {trial}"
        err = norm(rep_b.final_x - reference)
        if rep_b.status in STOPPED:
            assert err <= 1e-4, f"trial {trial}: stopped at error {err:.2e}"
        else:
            # still crawling; the iterate must have made real progress and
            # never diverge
            assert err <= 0.15, f"trial {trial}: {rep_b.status} at error {err:.2e}"
            assert err <= start_dist / 4 + 1e-12, f"trial {trial}: no progress"
        assert {"ball_containment", "cuts_keep_solution"} <= rep_b.monitors.keys()
        for name, monitor in rep_b.monitors.items():
            assert monitor.passed, f"trial {trial}: {name}"


# A2 at budget 80 on each seed-202 QP, the instances of perfbench's
# anchored-qp workload: (trial, status, iterations, final_x as float.hex
# strings), generated as the tables of tests/test_registry_gate.py were.  A
# change that claims to leave the anchored step's arithmetic as it is keeps
# this table unchanged.
SEED_202_A2 = [
    (0, 'optimal_residual', 6, ('0x1.535bfc78e8f45p+0',)),
    (1, 'optimal_residual', 4, ('-0x1.271e7f9ed8718p-3',)),
    (2, 'iteration_cap', 80, ('-0x1.978f22414b7b2p-1', '-0x1.d7b7f09d7156fp+0')),
    (3, 'iteration_cap', 80, ('-0x1.e5e732d3974a0p-3', '-0x1.40e3ad731532bp+0', '-0x1.567737cd2cfcap-1')),
    (4, 'fixed_point_stop', 6, ('0x1.a002ccf786ed4p-2', '-0x1.0634d00d95928p+0', '-0x1.7fe8a293230c4p-1')),
    (5, 'fixed_point_stop', 4, ('-0x1.3fbc1c8e8cbb8p-2',)),
    (6, 'optimal_residual', 6, ('0x1.bb8c275c47aa9p+0',)),
    (7, 'fixed_point_stop', 26, ('0x1.36d192786a220p-1',)),
    (8, 'iteration_cap', 80, ('-0x1.09b89d9dce593p+0', '0x1.e779c4628ed10p-1')),
    (9, 'iteration_cap', 80, ('0x1.1718d27ddc005p+0', '0x1.e0565ef117910p-3', '0x1.2c98ea81af980p-7')),
    (10, 'fixed_point_stop', 73, ('0x1.16cd95a99ca4ap-1', '0x1.a40295460b705p-2')),
    (11, 'iteration_cap', 80, ('0x1.0723bbe64982bp-1', '0x1.75fe6658f40c9p-3', '0x1.63c1ebefae8fcp-3')),
]


def test_seed_202_table_covers_every_trial():
    assert [trial for trial, *_ in SEED_202_A2] == list(range(12))


@pytest.mark.parametrize("trial, status, iterations, final_x", SEED_202_A2,
                         ids=[f"trial-{trial}" for trial, *_ in SEED_202_A2])
def test_anchored_seed_202_run_is_bit_identical(trial, status, iterations, final_x):
    (_, inst), = random_instances(202, [trial])
    rep = solve(inst, SolverConfig(max_outer_iters=80), "A2")
    assert (rep.status.value, rep.iterations) == (status, iterations)
    assert tuple(float(v).hex() for v in rep.final_x) == final_x


def test_anchored_intersection_base_projections_are_pinned(monkeypatch):
    # base projections made inside the intersection projections of A2 over
    # the twelve QPs, a deterministic count: 7220 over 507 calls for the
    # bisect-until-same-face search that the face-Newton search replaced,
    # and 1149 while every call projected the anchor again, which the solve
    # now projects once
    inside, counted, calls = [False], [0], [0]
    for cls in (Box, Ball, Simplex):
        def counting(self, x, project=cls.project):
            counted[0] += inside[0]
            return project(self, x)

        monkeypatch.setattr(cls, "project", counting)
    intersect = solver.project_intersection

    def flagged(*args):
        inside[0] = True
        calls[0] += 1
        try:
            return intersect(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(solver, "project_intersection", flagged)
    for _, inst in seed_202_instances():
        solve(inst, SolverConfig(max_outer_iters=80), "A2")
    assert (calls[0], counted[0]) == (525, 624)


ROUNDING_FLOOR_RUNS = [(3, 45, 25), (202, 52, 17), (6, 4, 58), (2, 36, 27), (13, 16, 26), (16, 3, 19),
                       (202, 50, 45), (19, 33, 25), (16, 58, 60), (1, 59, 30), (8, 31, 24), (5, 0, 35),
                       (17, 2, 28)]


@pytest.mark.parametrize(
    "seed, trial, iterations", ROUNDING_FLOOR_RUNS, ids=[f"{seed}-{trial}" for seed, trial, _ in ROUNDING_FLOOR_RUNS]
)
def test_anchored_stops_near_the_closest_solution_at_the_rounding_floor(seed, trial, iterations):
    # A2 runs whose level cut, within its rounding of the iterate, excluded
    # P_S(x0), the solution closest to x0: the simplex runs stopped 1e-5
    # away (202/52 and 6/4 outside the ball spanned by x0 and P_S(x0), with
    # cuts_keep_solution failing), the Ball and Box runs 2/36, 13/16 and
    # 16/3 ended in INTERSECTION_FAILURE.  202/50, 19/33, 1/59 and 8/31
    # stop where the projection onto the cuts returns the iterate, and 16/58
    # one step after a move of 1.6e-9.  On the simplex runs 1/59, 8/31, 5/0
    # and 17/2 the level-pinned face point once drifted off the simplex
    # plane, and intersection projections that held the cuts only within a
    # 100x allowance stopped 5/0 and 17/2 1.4e-6 and 2.0e-6 away
    (_, inst), = random_instances(seed, [trial])
    rep = solve(inst, SolverConfig(max_outer_iters=80), "A2")
    assert rep.status in STOPPED
    assert rep.iterations == iterations
    assert norm(rep.final_x - inst.known_solution) <= 1e-6
    assert {"ball_containment", "cuts_keep_solution"} <= rep.monitors.keys()
    for name, monitor in rep.monitors.items():
        assert monitor.passed, name


def test_anchored_ball_run_with_nearly_parallel_pinned_planes_keeps_running():
    # seed 3, trial 58 (Ball): the point pinned to both cuts comes from the
    # Gram solve of two nearly parallel planes, which holds them only within
    # that solve's own allowance; the run must not end INTERSECTION_FAILURE
    (_, inst), = random_instances(3, [58])
    assert isinstance(inst.feasible_set, Ball)
    rep = solve(inst, SolverConfig(max_outer_iters=80), "A2")
    assert rep.status is SolveStatus.ITERATION_CAP
    for name, monitor in rep.monitors.items():
        assert monitor.passed, name
