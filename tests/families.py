"""Instance families and test doubles shared by the test modules and the
sweeps.  Pytest does not collect this file: its name does not match
test_*.py.  It imports only numpy and projgrad, so the sweeps run without
pytest installed.

Every builder draws from its own default_rng(seed) and yields the same
instances, bit for bit, on every call.  A `known_solution` is set only
where the truth P_S(x0) is exact without a projgrad solve: from the QP
oracle, or from a base projection.
"""

import numpy as np

from projgrad import (
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    PNorm,
    ProblemInstance,
    Quadratic,
    Simplex,
    SolveStatus,
    WholeSpace,
)
from projgrad.core import norm
from projgrad.oracle import quadratic_oracle, system_from_set

STOPPED = (SolveStatus.OPTIMAL_RESIDUAL, SolveStatus.FIXED_POINT_STOP)

SET_KINDS = ("box", "ball", "halfspace", "hyperplane", "simplex", "whole")
BOUNDED_KINDS = ("box", "ball", "simplex")


def random_set(rng, dim, kinds=SET_KINDS):
    """A set of one of the kinds, drawn uniformly, with random data."""
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "box":
        lo = rng.uniform(-2, 0, dim)
        return Box(lower=lo, upper=lo + rng.uniform(0.5, 2.5, dim))
    if kind == "ball":
        return Ball(center=rng.uniform(-1, 1, dim), radius=rng.uniform(0.5, 2.0))
    if kind == "halfspace":
        n = rng.standard_normal(dim)
        return Halfspace(normal=n / max(norm(n), 1e-12), offset=rng.uniform(-1, 1))
    if kind == "hyperplane":
        n = rng.standard_normal(dim)
        return Hyperplane(normal=n / max(norm(n), 1e-12), offset=rng.uniform(-1, 1))
    if kind == "simplex":
        return Simplex(scale=rng.uniform(0.5, 2.0))
    return WholeSpace()


def random_instances(seed, trials):
    """The random QPs drawn from default_rng(seed), each with its oracle
    solution, for the trials listed."""
    rng = np.random.default_rng(seed)
    for trial in range(max(trials) + 1):
        dim = int(rng.integers(1, 4))
        M = rng.standard_normal((dim, dim))
        obj = Quadratic(Q=M.T @ M + 0.1 * np.eye(dim), b=rng.standard_normal(dim))
        base = random_set(rng, dim, BOUNDED_KINDS)
        x0 = base.project(rng.uniform(-2, 2, dim))
        if trial not in trials:
            continue
        # Q is positive definite, so the reference is the only solution
        reference = quadratic_oracle(obj, system_from_set(base, dim))
        yield trial, ProblemInstance(objective=obj, feasible_set=base, x0=x0,
                                     known_solution=reference, known_fstar=obj.value(reference))


def seed_202_instances():
    """The twelve random QPs of seed 202."""
    return random_instances(202, range(12))


# distance from the shift to the set, per p: the gradient norm at the
# solution is D^(p-1), so gradients are O(1)
DISTANCE = {1.5: 25.0, 2.5: 0.09, 4.0: 0.45}
START = 3.0  # the start is the projection of a point this far from the shift
SET_NAMES = ("box", "ball", "simplex", "halfspace")


def pnorm_instances(n, ps, seed=0):
    """(p, set name, instance) of (1/p)||x - s||^p over a box, a ball, a
    simplex and a halfspace in dimension n, for each p in ps.  The shift
    lies D (see DISTANCE) along a normal of the set from the solution
    P_C(s); the start is the projection of a point START from the shift.
    The solution set is {P_C(s)}, so it is P_S(x0), the known solution."""
    rng = np.random.default_rng(seed)
    h = 1.0 / np.sqrt(n)
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    sets = {
        "box": Box(lower=np.full(n, -h), upper=np.full(n, h)),
        "ball": Ball(center=np.zeros(n), radius=1.0),
        "simplex": Simplex(scale=1.0),
        "halfspace": Halfspace(normal=a, offset=0.0),
    }
    for p in ps:
        for name in SET_NAMES:
            base = sets[name]
            raw = rng.standard_normal(n) * (2.0 * h)
            if name == "halfspace":
                raw += (abs(float(a @ raw)) + 1.0) * a
            solution = base.project(raw)
            normal = raw - solution
            shift = solution + DISTANCE[p] * normal / np.linalg.norm(normal)
            u = rng.standard_normal(n)
            x0 = base.project(shift + START * u / np.linalg.norm(u))
            yield p, name, ProblemInstance(objective=PNorm(p=p, shift=shift), feasible_set=base, x0=x0,
                                           known_solution=base.project(shift))


def dense_box_qp(n, seed, b_scale=2.0):
    """Q = M'M/n + I/2 with M ~ N(0, 1)^{n x n} and b = b_scale N(0, 1)^n
    over [-1, 1]^n from the origin."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    b = b_scale * rng.standard_normal(n)
    return ProblemInstance(
        objective=Quadratic(Q=M.T @ M / n + 0.5 * np.eye(n), b=b),
        feasible_set=Box(lower=-np.ones(n), upper=np.ones(n)),
        x0=np.zeros(n),
    )


class CountingSet:
    """Wraps a set and counts projection calls."""

    def __init__(self, inner):
        self.inner = inner
        self.projections = 0

    def project(self, x):
        self.projections += 1
        return self.inner.project(x)

    def contains(self, x, tol=0.0):
        return self.inner.contains(x, tol)
