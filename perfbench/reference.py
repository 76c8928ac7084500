"""Reference computations made apart from projgrad.

Everything here uses plain numpy on the benchmark's own description of each
set and objective: closed-form projections (bisection on the threshold for
the simplex), an active-set enumeration for the small QPs, and a constant-step
projected gradient loop for the dense QPs.  Nothing imports projgrad, so a
fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class SetSpec:
    """A feasible set as plain data: box, ball, halfspace or simplex."""

    kind: str
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: float = 0.0
    normal: Optional[np.ndarray] = None
    offset: float = 0.0
    scale: float = 0.0

    def project(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "box":
            return np.minimum(np.maximum(x, self.lower), self.upper)
        if self.kind == "ball":
            d = x - self.center
            dist = float(np.sqrt(d @ d))
            return x.copy() if dist <= self.radius else self.center + (self.radius / dist) * d
        if self.kind == "halfspace":
            excess = float(self.normal @ x) - self.offset
            return x.copy() if excess <= 0.0 else x - (excess / float(self.normal @ self.normal)) * self.normal
        if self.kind == "simplex":
            return simplex_projection(x, self.scale)
        raise ValueError(f"unknown set kind {self.kind!r}")

    def violation(self, x: np.ndarray) -> float:
        """Largest constraint violation of x (0 inside the set)."""
        if self.kind == "box":
            return float(max(np.max(self.lower - x), np.max(x - self.upper), 0.0))
        if self.kind == "ball":
            return max(float(np.linalg.norm(x - self.center)) - self.radius, 0.0)
        if self.kind == "halfspace":
            return max(float(self.normal @ x) - self.offset, 0.0)
        if self.kind == "simplex":
            return max(float(-np.min(x)), abs(float(np.sum(x)) - self.scale), 0.0)
        raise ValueError(f"unknown set kind {self.kind!r}")


def simplex_projection(x: np.ndarray, scale: float) -> np.ndarray:
    """Projection onto {y >= 0, sum y = scale}: bisect the threshold t of
    y = max(x - t, 0), then recompute t exactly on the identified support."""
    lo, hi = float(np.min(x)) - scale / x.size, float(np.max(x))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if float(np.sum(np.maximum(x - mid, 0.0))) > scale:
            lo = mid
        else:
            hi = mid
    support = x > lo
    t = (float(np.sum(x[support])) - scale) / int(np.count_nonzero(support))
    return np.maximum(x - t, 0.0)


def natural_residual(x: np.ndarray, grad: np.ndarray, set_spec: SetSpec) -> float:
    """||x - P_C(x - grad)||, zero exactly at the solutions."""
    return float(np.linalg.norm(x - set_spec.project(x - grad)))


# ---------------------------------------------------------------- small QPs


def qp_solution(Q: np.ndarray, b: np.ndarray, set_spec: SetSpec) -> np.ndarray:
    """Minimizer of 0.5 x'Qx + b'x over a box, ball or simplex in dimension
    <= 3, for Q positive definite (the solution is then unique, so it is also
    the solution closest to any start)."""
    if set_spec.kind == "ball":
        return _ball_qp(Q, b, set_spec.center, set_spec.radius)
    if set_spec.kind == "box":
        return _box_qp(Q, b, set_spec.lower, set_spec.upper)
    if set_spec.kind == "simplex":
        return _simplex_qp(Q, b, set_spec.scale)
    raise ValueError(f"no QP reference for {set_spec.kind!r}")


def _best(candidates: list[np.ndarray], Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    if not candidates:
        raise ArithmeticError("active-set enumeration found no KKT point")
    return min(candidates, key=lambda x: 0.5 * x @ Q @ x + b @ x)


def _box_qp(Q, b, lower, upper) -> np.ndarray:
    n = b.size
    tol = 1e-10 * max(1.0, float(np.max(np.abs(b))))
    candidates = []
    # each coordinate is free (0), at its lower bound (1) or at its upper bound (2)
    for pattern in itertools.product((0, 1, 2), repeat=n):
        x = np.zeros(n)
        fixed = [i for i, p in enumerate(pattern) if p]
        free = [i for i, p in enumerate(pattern) if not p]
        bounds = [lower[i] if pattern[i] == 1 else upper[i] for i in fixed]
        if not np.all(np.isfinite(bounds)):
            continue
        x[fixed] = bounds
        if free:
            rhs = -(b[free] + Q[np.ix_(free, fixed)] @ x[fixed])
            x[free] = np.linalg.solve(Q[np.ix_(free, free)], rhs)
        g = Q @ x + b
        feasible = np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
        kkt = all(g[i] >= -tol if pattern[i] == 1 else g[i] <= tol for i in fixed)
        if feasible and kkt:
            candidates.append(np.clip(x, lower, upper))
    return _best(candidates, Q, b)


def _simplex_qp(Q, b, scale) -> np.ndarray:
    n = b.size
    tol = 1e-10 * max(1.0, float(np.max(np.abs(b))))
    candidates = []
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            s = list(support)
            k = len(s)
            kkt_matrix = np.zeros((k + 1, k + 1))
            kkt_matrix[:k, :k] = Q[np.ix_(s, s)]
            kkt_matrix[:k, k] = 1.0
            kkt_matrix[k, :k] = 1.0
            sol = np.linalg.solve(kkt_matrix, np.concatenate([-b[s], [scale]]))
            x = np.zeros(n)
            x[s] = sol[:k]
            nu = sol[k]
            # multipliers of x_i >= 0 off the support: g_i + nu >= 0
            mu = Q @ x + b + nu
            off = [i for i in range(n) if i not in support]
            if np.all(x[s] >= -1e-12) and np.all(mu[off] >= -tol):
                candidates.append(np.maximum(x, 0.0))
    return _best(candidates, Q, b)


def _ball_qp(Q, b, center, radius) -> np.ndarray:
    x = np.linalg.solve(Q, -b)
    if np.linalg.norm(x - center) <= radius:
        return x
    eye = np.eye(b.size)

    def point(lam: float) -> np.ndarray:
        # stationarity Qx + b + lam (x - center) = 0
        return np.linalg.solve(Q + lam * eye, lam * center - b)

    lo, hi = 0.0, 1.0
    while np.linalg.norm(point(hi) - center) > radius:
        lo, hi = hi, 2.0 * hi
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if np.linalg.norm(point(mid) - center) > radius:
            lo = mid
        else:
            hi = mid
    return point(hi)


# ---------------------------------------------------------------- dense QPs


def dense_qp_solution(
    Q: np.ndarray, b: np.ndarray, set_spec: SetSpec, x0: np.ndarray, lipschitz: float, tol: float = 1e-10
) -> tuple[np.ndarray, float]:
    """Minimizer of a strongly convex QP by projected gradient with the
    constant step 1/L, run until the natural residual is at most tol.
    Returns the point and its natural residual."""
    x = x0.copy()
    step = 1.0 / lipschitz
    for k in range(100_000):
        g = Q @ x + b
        if k % 10 == 0:
            r = natural_residual(x, g, set_spec)
            if r <= tol:
                return x, r
        x = set_spec.project(x - step * g)
    raise ArithmeticError("reference projected gradient did not reach its tolerance")


# ---------------------------------------------------------------- objectives


def lse_value(rows: np.ndarray, offsets: np.ndarray, x: np.ndarray) -> float:
    s = rows @ x + offsets
    m = float(np.max(s))
    return m + float(np.log(np.sum(np.exp(s - m))))


def lse_gradient(rows: np.ndarray, offsets: np.ndarray, x: np.ndarray) -> np.ndarray:
    s = rows @ x + offsets
    w = np.exp(s - np.max(s))
    return rows.T @ (w / np.sum(w))


def pnorm_gradient(p: float, shift: np.ndarray, x: np.ndarray) -> np.ndarray:
    r = x - shift
    dist = float(np.linalg.norm(r))
    return np.zeros_like(x) if dist == 0.0 else dist ** (p - 2.0) * r
