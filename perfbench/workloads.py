"""The benchmark's workloads: seeded inputs, program-side builds and checks.

Each workload is a list of `Case`s.  A case holds the inputs the benchmark
generated (plain numpy data), a `build` function that turns them into a
projgrad `ProblemInstance` (the program's side of set-up, which is timed),
and a `check` that judges a finished solve against references computed in
`reference.py`, apart from the program.  References are computed once per
run by `prepare`, outside every timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref
from projgrad import (
    Ball,
    Box,
    Halfspace,
    LogSumExp,
    PNorm,
    ProblemInstance,
    Quadratic,
    Simplex,
    get_instance,
)

# solve statuses (as written to the summary JSON) that end a solve as failed
FAILED_STATUSES = ("intersection_failure", "line_search_failure")
STOPPED_STATUSES = ("optimal_residual", "fixed_point_stop")

# relative slack between the program's and the benchmark's computation of the
# same natural residual; both are exact up to rounding
ROUNDING_SLACK = 1e-6


@dataclass
class Case:
    """One solve of a workload round.

    build(shared) makes the program's instance; shared is a dict that lives
    for one build of the whole workload, for objects that cases share.
    check(final_x, status, iterates) returns the list of failed checks
    (empty when the solve is correct); iterates are the recorded iterates
    followed by the final point.
    """

    name: str
    strategy: str
    config: dict
    build: Callable[[dict], ProblemInstance]
    check: Callable[[np.ndarray, str, list], list]
    dim: int
    prepare: Callable[[], None] = lambda: None
    repeats: int = 1  # solves of this case per round


def _program_set(spec: ref.SetSpec):
    if spec.kind == "box":
        return Box(lower=spec.lower, upper=spec.upper)
    if spec.kind == "ball":
        return Ball(center=spec.center, radius=spec.radius)
    if spec.kind == "halfspace":
        return Halfspace(normal=spec.normal, offset=spec.offset)
    if spec.kind == "simplex":
        return Simplex(scale=spec.scale)
    raise ValueError(spec.kind)


def _require_stopped(status: str) -> list:
    return [] if status in STOPPED_STATUSES else [f"status {status}, expected a stop at the tolerance"]


def _require_feasible(spec: ref.SetSpec, x: np.ndarray) -> list:
    v = spec.violation(x)
    return [] if v <= 1e-9 * max(1.0, float(np.max(np.abs(x)))) else [f"final point violates the set by {v:.3e}"]


# ------------------------------------------------------------ anchored-qp

ANCHORED_BUDGET = 80  # outer iterations, as in tests/test_random_instances.py
# Trial 9 takes ~15 s, the other seventeen cases ~2.4 s together.  Solving
# each of those six times per round gives every case a median over several
# samples within one round of ~30 s, longer than a 20 s run, so a run is one
# whole round.
ANCHORED_REPEATS = 6
ANCHORED_STOP_ERROR = 1e-4
BALL_SLACK = 1e-7

# closed forms from the registry docstring: solution closest to the start,
# feasible set and start of each registry instance
REGISTRY = {
    "quadratic-box": ((1.0, 1.0), ("box", (0.0, 0.0), (1.0, 1.0)), (0.0, 0.0)),
    "pnorm4-ball": ((1.0, 0.0), ("ball", (0.0, 0.0), 1.0), (0.0, 1.0)),
    "pnorm1p5-box": ((1.0, 0.5), ("box", (0.0, 0.0), (1.0, 1.0)), (0.0, 0.0)),
    "line-1d": ((1.0,), ("box", (1.0,), (np.inf,)), (2.0,)),
    "flat-quadratic": ((1.0, 1.7), ("box", (0.0, 0.0), (2.0, 2.0)), (0.0, 1.7)),
    "pnorm4-ball-far": ((1.0, 0.0), ("ball", (0.0, 0.0), 1.0), (0.0, 1.0)),
}


def _registry_set(desc) -> ref.SetSpec:
    kind, a, b = desc
    if kind == "box":
        return ref.SetSpec("box", lower=np.array(a), upper=np.array(b))
    return ref.SetSpec("ball", center=np.array(a), radius=float(b))


def _anchored_check(set_spec: ref.SetSpec, x0: np.ndarray, solution: Callable[[], np.ndarray]):
    def check(final_x, status, iterates):
        sol = solution()
        problems = _require_feasible(set_spec, final_x)
        if status in STOPPED_STATUSES:
            err = float(np.linalg.norm(final_x - sol))
            if err > ANCHORED_STOP_ERROR:
                problems.append(f"stopped {err:.3e} from the solution closest to x0")
        elif status != "iteration_cap":
            problems.append(f"unexpected status {status}")
        # the paper's ball property: iterates stay in the ball with diameter [x0, x*]
        center, radius = 0.5 * (x0 + sol), 0.5 * float(np.linalg.norm(sol - x0))
        excess = max(float(np.linalg.norm(x - center)) - radius for x in iterates)
        if excess > BALL_SLACK:
            problems.append(f"an iterate leaves the ball [x0, x*] by {excess:.3e}")
        return problems

    return check


def _random_bounded_base(rng, dim) -> ref.SetSpec:
    # same draws, in the same order, as tests/test_random_instances.py
    kind = int(rng.integers(0, 3))
    if kind == 0:
        lo = rng.uniform(-2, 0, dim)
        return ref.SetSpec("box", lower=lo, upper=lo + rng.uniform(0.5, 2.5, dim))
    if kind == 1:
        return ref.SetSpec("ball", center=rng.uniform(-1, 1, dim), radius=rng.uniform(0.5, 2.0))
    return ref.SetSpec("simplex", scale=rng.uniform(0.5, 2.0))


def anchored_qp(seed: int) -> list[Case]:
    """Strategy A2 on the twelve seed-202 QPs of the random-instance test and
    the six registry instances.  The instances do not depend on the seed;
    the seed only orders the solves of each round (see run.py).  A round
    solves trial 9 once and every other case ANCHORED_REPEATS times."""
    config = {"max_outer_iters": ANCHORED_BUDGET}
    cases = []
    rng = np.random.default_rng(202)
    for trial in range(12):
        dim = int(rng.integers(1, 4))
        M = rng.standard_normal((dim, dim))
        Q = M.T @ M + 0.1 * np.eye(dim)
        b = rng.standard_normal(dim)
        set_spec = _random_bounded_base(rng, dim)
        raw_x0 = rng.uniform(-2, 2, dim)
        solution = _memo(lambda Q=Q, b=b, s=set_spec: ref.qp_solution(Q, b, s))

        def build(shared, Q=Q, b=b, s=set_spec, raw=raw_x0):
            base = _program_set(s)
            return ProblemInstance(objective=Quadratic(Q=Q, b=b), feasible_set=base, x0=base.project(raw))

        cases.append(
            Case(
                name=f"seed202-trial{trial}",
                strategy="A2",
                config=config,
                build=build,
                check=_anchored_check(set_spec, set_spec.project(raw_x0), solution),
                prepare=solution,
                dim=dim,
                repeats=1 if trial == 9 else ANCHORED_REPEATS,
            )
        )
    for name, (sol, set_desc, x0) in REGISTRY.items():
        sol_arr = np.array(sol)
        cases.append(
            Case(
                name=name,
                strategy="A2",
                config=config,
                build=lambda shared, name=name: get_instance(name),
                check=_anchored_check(_registry_set(set_desc), np.array(x0), lambda s=sol_arr: s),
                dim=len(sol),
                repeats=ANCHORED_REPEATS,
            )
        )
    return cases


def _memo(fn: Callable[[], np.ndarray]) -> Callable[[], np.ndarray]:
    cache: list = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


# ------------------------------------------------------------ feasible-dense

DENSE_TOL = 1e-6
# right-hand sides per matrix size.  Four independent copies at n = 2000
# average out the seed-to-seed difficulty of the cases that dominate the run
# time, and make them more than half of all cases, so the median solve is an
# n = 2000 box or halfspace solve, whose iteration count varies least.
DENSE_COPIES = {200: 1, 2000: 4}
LSE_DIM = 200
LSE_COPIES = 1
# the unconstrained minimum of each quadratic is -QUAD_FMIN, so |f*| <= 50
# and the float resolution of f stays far below the decrease at tol 1e-6
QUAD_FMIN = 50.0
LSE_SCALE = 3.0


@dataclass
class _DenseQuadratic:
    Q: np.ndarray
    lam_min: Optional[float] = None
    lam_max: Optional[float] = None

    def spectrum(self) -> None:
        if self.lam_min is None:
            eigs = np.linalg.eigvalsh(self.Q)
            self.lam_min, self.lam_max = float(eigs[0]), float(eigs[-1])


def _quadratic_sets(rng, n: int, xu: np.ndarray) -> list[tuple[str, ref.SetSpec, np.ndarray]]:
    """Box, ball, simplex and halfspace sized so that the unconstrained
    minimizer xu lies outside each, with a feasible start."""
    h = 0.5 * float(np.sqrt(np.mean(xu**2)))
    a = xu / np.linalg.norm(xu) + rng.standard_normal(n) / np.sqrt(n)
    a /= np.linalg.norm(a)
    zero = np.zeros(n)
    return [
        ("box", ref.SetSpec("box", lower=np.full(n, -h), upper=np.full(n, h)), zero),
        ("ball", ref.SetSpec("ball", center=zero, radius=0.5 * float(np.linalg.norm(xu))), zero),
        ("simplex", ref.SetSpec("simplex", scale=1.0), np.full(n, 1.0 / n)),
        ("halfspace", ref.SetSpec("halfspace", normal=a, offset=0.5 * float(a @ xu)), zero),
    ]


def _quadratic_check(dq: _DenseQuadratic, b, set_spec, reference_point):
    def check(final_x, status, iterates):
        problems = _require_stopped(status) + _require_feasible(set_spec, final_x)
        r = ref.natural_residual(final_x, dq.Q @ final_x + b, set_spec)
        if r > DENSE_TOL * (1.0 + ROUNDING_SLACK):
            problems.append(f"natural residual {r:.3e} above tol {DENSE_TOL:g}")
        # strong convexity: ||x - x*|| <= (1 + L) / mu * r(x), applied to the
        # point and to the reference and joined by the triangle inequality
        x_ref, r_ref = reference_point()
        bound = (1.0 + dq.lam_max) / dq.lam_min * (r + r_ref) * (1.0 + ROUNDING_SLACK) + 1e-12
        err = float(np.linalg.norm(final_x - x_ref))
        if err > bound:
            problems.append(f"distance {err:.3e} to the reference exceeds the strong-convexity bound {bound:.3e}")
        return problems

    return check


def _lse_check(rows, offsets, set_spec, x0):
    f0 = ref.lse_value(rows, offsets, x0)

    def check(final_x, status, iterates):
        problems = _require_stopped(status) + _require_feasible(set_spec, final_x)
        r = ref.natural_residual(final_x, ref.lse_gradient(rows, offsets, final_x), set_spec)
        if r > DENSE_TOL * (1.0 + ROUNDING_SLACK):
            problems.append(f"natural residual {r:.3e} above tol {DENSE_TOL:g}")
        f = ref.lse_value(rows, offsets, final_x)
        if f > f0 + 1e-12 * max(1.0, abs(f0)):
            problems.append(f"objective rose from {f0!r} to {f!r} in a descent method")
        return problems

    return check


def feasible_dense(seed: int, copies=DENSE_COPIES, lse_dim=LSE_DIM, lse_copies=LSE_COPIES):
    """Strategy c at tol 1e-6 on dense affine-composite objectives: strongly
    convex quadratics Q = M'M/n + 0.5 I over box, ball, simplex and
    halfspace, and log-sum-exp with 2n rows over bounded sets."""
    rng = np.random.default_rng(seed)
    config = {"residual_tol": DENSE_TOL}
    cases = []
    for n, n_copies in copies.items():
        M = rng.standard_normal((n, n))
        dq = _DenseQuadratic(Q=M.T @ M / n + 0.5 * np.eye(n))
        del M
        for copy in range(n_copies):
            b = rng.standard_normal(n)
            xu = np.linalg.solve(dq.Q, -b)
            scale = np.sqrt(2.0 * QUAD_FMIN / float(-b @ xu))
            b, xu = scale * b, scale * xu
            for set_name, spec, x0 in _quadratic_sets(rng, n, xu):
                point = _memo(lambda dq=dq, b=b, spec=spec, x0=x0: _dense_reference(dq, b, spec, x0))

                def build(shared, key=(n, copy), dq=dq, b=b, spec=spec, x0=x0):
                    # the four sets of one right-hand side share one objective,
                    # so each build runs one PSD check per objective
                    if key not in shared:
                        shared[key] = Quadratic(Q=dq.Q, b=b)
                    return ProblemInstance(objective=shared[key], feasible_set=_program_set(spec), x0=x0)

                cases.append(
                    Case(
                        name=f"quad{n}-{set_name}-{copy}",
                        strategy="c",
                        config=config,
                        build=build,
                        check=_quadratic_check(dq, b, spec, point),
                        prepare=point,
                        dim=n,
                    )
                )
    m = 2 * lse_dim
    for copy in range(lse_copies):
        rows = rng.standard_normal((m, lse_dim)) * (LSE_SCALE / np.sqrt(lse_dim))
        offsets = rng.standard_normal(m)
        h = LSE_SCALE / np.sqrt(lse_dim)
        zero = np.zeros(lse_dim)
        lse_sets = [
            ("box", ref.SetSpec("box", lower=np.full(lse_dim, -h), upper=np.full(lse_dim, h)), zero),
            ("ball", ref.SetSpec("ball", center=zero, radius=LSE_SCALE), zero),
            ("simplex", ref.SetSpec("simplex", scale=LSE_SCALE), np.full(lse_dim, LSE_SCALE / lse_dim)),
        ]
        for set_name, spec, x0 in lse_sets:
            cases.append(
                Case(
                    name=f"lse{lse_dim}-{set_name}-{copy}",
                    strategy="c",
                    config=config,
                    build=lambda shared, rows=rows, offsets=offsets, spec=spec, x0=x0: ProblemInstance(
                        objective=LogSumExp(rows=rows, offsets=offsets), feasible_set=_program_set(spec), x0=x0
                    ),
                    check=_lse_check(rows, offsets, spec, x0),
                    dim=lse_dim,
                )
            )
    return cases


def _dense_reference(dq: _DenseQuadratic, b, spec, x0):
    dq.spectrum()
    return ref.dense_qp_solution(dq.Q, b, spec, x0, dq.lam_max)


# ------------------------------------------------------------ boundary-separable

SEPARABLE_TOL = 1e-6
SEPARABLE_DIM = 20_000
# distance D from the shift to the set, per p: the gradient norm at the
# solution is D^(p-1) and f* = D^p / p, so gradients are O(1) and |f*| <= 100;
# rho* = D^(p-2) in (0, 2) sets the linear rate 1 - rho* of the unit step
SEPARABLE_DISTANCE = {1.5: 25.0, 2.5: 0.09, 4.0: 0.45}
SEPARABLE_START = 3.0  # the start is the projection of a point this far from the shift


def _separable_sets(rng, n: int) -> list[tuple[str, ref.SetSpec]]:
    h = 1.0 / np.sqrt(n)
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    return [
        ("box", ref.SetSpec("box", lower=np.full(n, -h), upper=np.full(n, h))),
        ("ball", ref.SetSpec("ball", center=np.zeros(n), radius=1.0)),
        ("simplex", ref.SetSpec("simplex", scale=1.0)),
        ("halfspace", ref.SetSpec("halfspace", normal=a, offset=0.0)),
    ]


def _separable_check(p, shift, spec, solution):
    def check(final_x, status, iterates):
        problems = _require_stopped(status) + _require_feasible(spec, final_x)
        r = ref.natural_residual(final_x, ref.pnorm_gradient(p, shift, final_x), spec)
        if r > SEPARABLE_TOL * (1.0 + ROUNDING_SLACK):
            problems.append(f"natural residual {r:.3e} above tol {SEPARABLE_TOL:g}")
        # With g = rho (x - s), rho = ||x - s||^(p-2), the map
        # T(y) = P_C(y - rho (y - s)) fixes x* = P_C(s) and contracts by
        # |1 - rho|, so ||x - x*|| <= r(x) / (1 - |1 - rho|) for rho in (0, 2).
        rho = float(np.linalg.norm(final_x - shift)) ** (p - 2.0)
        if not 0.0 < rho < 2.0:
            problems.append(f"rho = {rho:.3e} outside (0, 2): the distance bound does not apply")
            return problems
        bound = r / (1.0 - abs(1.0 - rho)) * (1.0 + ROUNDING_SLACK) + 1e-12
        err = float(np.linalg.norm(final_x - solution))
        if err > bound:
            problems.append(f"distance {err:.3e} to P_C(shift) exceeds {bound:.3e}")
        return problems

    return check


def boundary_separable(seed: int, dim: int = SEPARABLE_DIM) -> list[Case]:
    """Strategy b at tol 1e-6 on (1/p)||x - s||^p, p in {1.5, 2.5, 4}, over
    box, ball, simplex and halfspace.  The solution is P_C(s)."""
    rng = np.random.default_rng(seed)
    config = {"residual_tol": SEPARABLE_TOL}
    cases = []
    for p, distance in SEPARABLE_DISTANCE.items():
        for set_name, spec in _separable_sets(rng, dim):
            raw = rng.standard_normal(dim) * (2.0 / np.sqrt(dim))
            if spec.kind == "halfspace":
                raw += (abs(float(spec.normal @ raw)) + 1.0) * spec.normal
            solution = spec.project(raw)
            # moving along raw - P_C(raw), a normal of C at the solution,
            # keeps P_C(shift) = solution at the chosen distance
            normal = raw - solution
            shift = solution + distance * normal / np.linalg.norm(normal)
            u = rng.standard_normal(dim)
            x0 = spec.project(shift + SEPARABLE_START * u / np.linalg.norm(u))
            cases.append(
                Case(
                    name=f"p{p:g}-{set_name}",
                    strategy="b",
                    config=config,
                    build=lambda shared, p=p, shift=shift, spec=spec, x0=x0: ProblemInstance(
                        objective=PNorm(p=p, shift=shift), feasible_set=_program_set(spec), x0=x0
                    ),
                    check=_separable_check(p, shift, spec, spec.project(shift)),
                    dim=dim,
                )
            )
    return cases


WORKLOADS = {
    "anchored-qp": anchored_qp,
    "feasible-dense": feasible_dense,
    "boundary-separable": boundary_separable,
}
