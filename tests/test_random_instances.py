"""End-to-end randomized cross-checks of the solvers against the QP oracle.

Strictly convex quadratics over random bounded bases: the feasible-direction
solver must land on the oracle solution; the anchored solver must either
stop there or report honestly that it is still crawling (its level cuts give
no rate guarantee, and near curved boundaries progress per step decays with
the squared distance).
"""

import numpy as np

from projgrad import (
    Ball,
    Box,
    ProblemInstance,
    Quadratic,
    Simplex,
    SolveStatus,
    SolverConfig,
    solve,
)
from projgrad.core import norm
from projgrad.oracle import quadratic_oracle, system_from_set

STOPPED = (SolveStatus.OPTIMAL_RESIDUAL, SolveStatus.FIXED_POINT_STOP)


def random_bounded_base(rng, dim):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        lo = rng.uniform(-2, 0, dim)
        return Box(lower=lo, upper=lo + rng.uniform(0.5, 2.5, dim))
    if kind == 1:
        return Ball(center=rng.uniform(-1, 1, dim), radius=rng.uniform(0.5, 2.0))
    return Simplex(scale=rng.uniform(0.5, 2.0))


def test_solvers_track_qp_oracle_on_random_instances():
    rng = np.random.default_rng(202)
    for trial in range(12):
        dim = int(rng.integers(1, 4))
        M = rng.standard_normal((dim, dim))
        obj = Quadratic(Q=M.T @ M + 0.1 * np.eye(dim), b=rng.standard_normal(dim))
        base = random_bounded_base(rng, dim)
        x0 = base.project(rng.uniform(-2, 2, dim))
        # Q is positive definite, so the reference is the only solution
        reference = quadratic_oracle(obj, system_from_set(base, dim))
        inst = ProblemInstance(objective=obj, feasible_set=base, x0=x0,
                               known_solution=reference, known_fstar=obj.value(reference))
        start_dist = norm(x0 - reference)

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
