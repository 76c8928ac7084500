"""Reference oracles for small instances.

The projection and quadratic oracles enumerate active sets exhaustively:
every subset of the inequality constraints (plus, optionally, the ball
constraint) is treated as equalities, the equality-constrained problem is
solved in closed form, infeasible candidates are discarded, and the best
feasible candidate is returned.  The true optimum appears under its own
active set, and no feasible candidate can beat it, so the minimum over
candidates is the exact answer.  Intended for dimensions up to ~4 with a
handful of constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Vec, dot, norm
from .objectives import Quadratic
from .sets import Ball, Box, FeasibleSet, Halfspace, Hyperplane, Simplex, WholeSpace

__all__ = [
    "ConstraintSystem",
    "system_from_set",
    "min_distance_point",
    "projection_oracle",
    "quadratic_oracle",
    "quadratic_solution_set",
]


@dataclass
class ConstraintSystem:
    """Linear equalities <n,x> = b, inequalities <n,x> <= b, and at most one
    ball constraint ||x - center|| <= radius."""

    dim: int
    eq_normals: list[Vec] = field(default_factory=list)
    eq_offsets: list[float] = field(default_factory=list)
    ineq_normals: list[Vec] = field(default_factory=list)
    ineq_offsets: list[float] = field(default_factory=list)
    ball: Optional[tuple[Vec, float]] = None

    def add_eq(self, normal: Vec, offset: float) -> None:
        self.eq_normals.append(np.asarray(normal, dtype=np.float64))
        self.eq_offsets.append(float(offset))

    def add_ineq(self, normal: Vec, offset: float) -> None:
        self.ineq_normals.append(np.asarray(normal, dtype=np.float64))
        self.ineq_offsets.append(float(offset))

    def feasible(self, x: Vec, tol: float) -> bool:
        for n, b in zip(self.eq_normals, self.eq_offsets):
            if abs(dot(n, x) - b) > tol:
                return False
        for n, b in zip(self.ineq_normals, self.ineq_offsets):
            if dot(n, x) - b > tol:
                return False
        if self.ball is not None:
            c, r = self.ball
            if norm(x - c) > r + tol:
                return False
        return True


def system_from_set(set_: FeasibleSet, dim: int) -> ConstraintSystem:
    """Translate a feasible set into the oracle's constraint system."""
    sys = ConstraintSystem(dim=dim)
    if isinstance(set_, Box):
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = 1.0
            if np.isfinite(set_.upper[i]):
                sys.add_ineq(e, set_.upper[i])
            if np.isfinite(set_.lower[i]):
                sys.add_ineq(-e, -set_.lower[i])
    elif isinstance(set_, Ball):
        sys.ball = (set_.center, set_.radius)
    elif isinstance(set_, Halfspace):
        sys.add_ineq(set_.normal, set_.offset)
    elif isinstance(set_, Hyperplane):
        sys.add_eq(set_.normal, set_.offset)
    elif isinstance(set_, Simplex):
        sys.add_eq(np.ones(dim), set_.scale)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = -1.0
            sys.add_ineq(e, 0.0)
    elif isinstance(set_, WholeSpace):
        pass
    else:
        raise TypeError(f"unsupported set type {type(set_).__name__}")
    return sys


def _affine_projector(A: np.ndarray, b: np.ndarray):
    """Return (project, nullspace_component) for the affine set {Ax = b}.

    Uses the pseudoinverse so redundant rows are tolerated; callers must
    check consistency of the result against the equations themselves.
    """
    if A.shape[0] == 0:
        return (lambda y: y.copy()), (lambda v: v.copy())
    gram_pinv = np.linalg.pinv(A @ A.T)

    def project(y: Vec) -> Vec:
        return y - A.T @ (gram_pinv @ (A @ y - b))

    def null_component(v: Vec) -> Vec:
        return v - A.T @ (gram_pinv @ (A @ v))

    return project, null_component


def _active_sets(sys: ConstraintSystem):
    """Yield (A, b) for every active set: the equalities stacked with each
    subset of at most dim + 1 inequalities, all read as A x = b."""
    m = len(sys.ineq_normals)
    for active in itertools.chain.from_iterable(
        itertools.combinations(range(m), r) for r in range(min(m, sys.dim + 1) + 1)
    ):
        rows = sys.eq_normals + [sys.ineq_normals[i] for i in active]
        rhs = sys.eq_offsets + [sys.ineq_offsets[i] for i in active]
        yield np.array(rows, dtype=np.float64).reshape(len(rows), sys.dim), np.array(rhs, dtype=np.float64)


def _admissible(sys: ConstraintSystem, A: np.ndarray, b: np.ndarray, x: Vec, tol: float) -> bool:
    """A candidate must meet its own active set's equalities and the system."""
    return norm(A @ x - b) <= tol and sys.feasible(x, tol)


def min_distance_point(sys: ConstraintSystem, anchor: Vec, tol: float = 1e-9) -> Vec:
    """Exact projection of ``anchor`` onto the constraint system.

    Enumerates all subsets of the inequalities (and the ball) as active;
    candidates failing feasibility are dropped and the closest survivor is
    returned.  Raises ValueError when no candidate is feasible, which for a
    consistent system can only happen if it is actually empty.
    """
    best: Optional[Vec] = None
    best_dist = np.inf
    for A, b in _active_sets(sys):
        project, null_component = _affine_projector(A, b)
        for ball_active in (False, True) if sys.ball is not None else (False,):
            if not ball_active:
                x = project(anchor)
            else:
                c, r = sys.ball
                u = project(c) - c
                v = null_component(anchor - c)
                vn = norm(v)
                rho_sq = r**2 - norm(u) ** 2
                # rounding allowance: a plane tangent to the sphere leaves
                # rho_sq on either side of 0 by rounding alone
                if vn <= 1e-14 or rho_sq < -1e-12 * max(1.0, r) * r:
                    continue
                x = project(c) + (np.sqrt(max(rho_sq, 0.0)) / vn) * v
            if not _admissible(sys, A, b, x, tol):
                continue
            d = norm(x - anchor)
            if d < best_dist - 1e-15:
                best, best_dist = x, d
    if best is None:
        raise ValueError("constraint system appears infeasible; no active set produced a feasible point")
    return best


def projection_oracle(base: FeasibleSet, cuts: list[Halfspace], anchor: Vec, tol: float = 1e-9) -> Vec:
    """Projection of ``anchor`` onto base-set-and-halfspace-cuts by enumeration."""
    sys = system_from_set(base, anchor.shape[0])
    for cut in cuts:
        sys.add_ineq(cut.normal, cut.offset)
    return min_distance_point(sys, anchor, tol)


def _kkt_solve(Q: np.ndarray, b: Vec, A: np.ndarray, rhs: np.ndarray, shift: float = 0.0):
    """Solve the stationarity system (Q + shift I) x + A^T lam = -b, A x = rhs.

    Returns x or None when the assembled linear system is inconsistent
    (checked by substituting the least-squares solution back in).
    """
    n = Q.shape[0]
    m = A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = Q + shift * np.eye(n)
    K[:n, n:] = A.T
    K[n:, :n] = A
    target = np.concatenate([-b, rhs])
    sol, *_ = np.linalg.lstsq(K, target, rcond=None)
    if norm(K @ sol - target) > 1e-8 * max(1.0, norm(target)):
        return None
    return sol[:n]


def quadratic_oracle(obj: Quadratic, sys: ConstraintSystem, tol: float = 1e-9) -> Vec:
    """Minimize a convex quadratic over the constraint system by active-set
    enumeration; the ball constraint, when active, is handled by bisecting
    on its multiplier."""
    best: Optional[Vec] = None
    best_val = np.inf
    for A, rhs in _active_sets(sys):
        candidates = []
        x_flat = _kkt_solve(obj.Q, obj.b, A, rhs)
        if x_flat is not None:
            candidates.append(x_flat)
        if sys.ball is not None:
            c, r = sys.ball

            def boundary_gap(mu: float):
                x_mu = _kkt_solve(obj.Q, obj.b - mu * c, A, rhs, shift=mu)
                if x_mu is None:
                    return None, None
                return norm(x_mu - c) - r, x_mu

            g0, _ = boundary_gap(0.0)
            if g0 is not None and g0 > 0.0:
                lo, hi = 0.0, 1.0
                g_hi, x_hi = boundary_gap(hi)
                while g_hi is not None and g_hi > 0.0 and hi < 1e12:
                    hi *= 10.0
                    g_hi, x_hi = boundary_gap(hi)
                if g_hi is not None and g_hi <= 0.0:
                    x_mu = x_hi
                    for _ in range(200):
                        mid = 0.5 * (lo + hi)
                        g_mid, x_mid = boundary_gap(mid)
                        if g_mid is None:
                            break
                        if g_mid > 0.0:
                            lo = mid
                        else:
                            hi = mid
                            x_mu = x_mid
                    if x_mu is not None:
                        candidates.append(x_mu)
        for x in candidates:
            if not _admissible(sys, A, rhs, x, tol):
                continue
            val = obj.value(x)
            if val < best_val - 1e-15:
                best, best_val = x, val
    if best is None:
        raise ValueError("quadratic oracle found no feasible candidate")
    return best


def quadratic_solution_set(obj: Quadratic, sys: ConstraintSystem, x_hat: Vec) -> ConstraintSystem:
    """Constraint system of the full solution set given one minimizer x_hat.

    For a convex quadratic, a feasible x is optimal iff Qx = Qx_hat and
    <grad f(x_hat), x - x_hat> = 0, so the solution set is the feasible set
    intersected with those equalities.
    """
    out = replace(sys, eq_normals=list(sys.eq_normals), eq_offsets=list(sys.eq_offsets))
    Qx = obj.Q @ x_hat
    for i in range(sys.dim):
        out.add_eq(obj.Q[i], float(Qx[i]))
    g = obj.gradient(x_hat)
    out.add_eq(g, dot(g, x_hat))
    return out

