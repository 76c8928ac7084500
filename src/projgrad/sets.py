"""Closed convex sets with exact nearest-point projections.

Every set exposes ``project(x)`` returning the unique closest member and
``contains(x, tol)`` testing membership up to a per-constraint violation of
``tol``.  ``project_intersection`` projects exactly onto the intersection
of a base set with at most two ``Halfspace`` cuts, the cutting planes of the
anchored solver, by solving the dual for the cut multipliers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Vec, as_vector, dot, norm

__all__ = [
    "Box",
    "Ball",
    "Halfspace",
    "Hyperplane",
    "Simplex",
    "WholeSpace",
    "FeasibleSet",
    "IntersectionError",
    "project_intersection",
]


class IntersectionError(RuntimeError):
    """No pattern of binding cuts certifies a projection onto the intersection;
    ``best`` is the candidate that violates the cuts least."""

    def __init__(self, message: str, best: Vec):
        super().__init__(message)
        self.best = best


# relative rounding allowance of the cut and plane checks
_REL_TOL = 1e-12
# allowances within which a pattern is taken when none certifies within one:
# a level gap can fall below the accuracy of an ill-conditioned multiplier
_LOOSE = 100.0
# quadruplings of the multiplier bracket before a plane counts as missing the base
_MAX_GROWTH = 64


def _check_dim(set_dim: Optional[int], x: Vec) -> None:
    if set_dim is not None and x.shape != (set_dim,):
        raise ValueError(f"point of shape {x.shape} does not match set dimension {set_dim}")


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lower <= x <= upper}; bounds may be +-inf."""

    lower: Vec
    upper: Vec

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box bounds must be 1-D vectors of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, x: Vec) -> Vec:
        _check_dim(self.dim, x)
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        _check_dim(self.dim, x)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: Vec
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_vector(self.center))
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def project(self, x: Vec) -> Vec:
        _check_dim(self.dim, x)
        d = x - self.center
        dist = norm(d)
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        _check_dim(self.dim, x)
        return norm(x - self.center) <= self.radius + tol


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Halfspace {x : <normal, x> <= offset}."""

    normal: Vec
    offset: float

    def __post_init__(self) -> None:
        n = as_vector(self.normal)
        if norm(n) == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", n)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def project(self, x: Vec) -> Vec:
        _check_dim(self.dim, x)
        excess = dot(self.normal, x) - self.offset
        if excess <= 0.0:
            return x.copy()
        return x - (excess / dot(self.normal, self.normal)) * self.normal

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        _check_dim(self.dim, x)
        return dot(self.normal, x) <= self.offset + tol


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Hyperplane {x : <normal, x> = offset}."""

    normal: Vec
    offset: float

    def __post_init__(self) -> None:
        n = as_vector(self.normal)
        if norm(n) == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", n)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def project(self, x: Vec) -> Vec:
        _check_dim(self.dim, x)
        excess = dot(self.normal, x) - self.offset
        return x - (excess / dot(self.normal, self.normal)) * self.normal

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        _check_dim(self.dim, x)
        return abs(dot(self.normal, x) - self.offset) <= tol


@dataclass(frozen=True, eq=False)
class Simplex:
    """Scaled simplex {x : x >= 0, sum(x) = scale}.

    Projection uses the sort-and-threshold rule: sort descending, find the
    largest support size whose cumulative-sum threshold keeps all kept
    entries positive, then shift and clip.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"simplex scale must be positive, got {self.scale}")

    @property
    def dim(self) -> Optional[int]:
        return None

    def project(self, x: Vec) -> Vec:
        u = np.sort(x)[::-1]
        cumsum = np.cumsum(u)
        ks = np.arange(1, x.shape[0] + 1)
        candidates = np.nonzero(u * ks > cumsum - self.scale)[0]
        # the first index always qualifies in exact arithmetic; the check can
        # only come up empty when entries dwarf the scale in float
        support = candidates[-1] if candidates.size else 0
        threshold = (cumsum[support] - self.scale) / (support + 1.0)
        return np.maximum(x - threshold, 0.0)

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        return bool(np.all(x >= -tol) and abs(float(np.sum(x)) - self.scale) <= tol)


@dataclass(frozen=True, eq=False)
class WholeSpace:
    """The entire space; projection is the identity."""

    @property
    def dim(self) -> Optional[int]:
        return None

    def project(self, x: Vec) -> Vec:
        return x.copy()

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        return True


FeasibleSet = Union[Box, Ball, Halfspace, Hyperplane, Simplex, WholeSpace]


def project_intersection(base: FeasibleSet, cuts: list[Halfspace], anchor: Vec) -> Vec:
    """Project ``anchor`` onto the intersection of ``base`` with at most two halfspaces.

    Solves the dual exactly.  With multipliers lam >= 0 on the cuts the
    nearest point is x = P_base(anchor - sum_i lam_i n_i), so the patterns
    of binding cuts -- none, each one alone, then both -- are solved in turn
    as equalities <n_i, x> = b_i through their multipliers.  A pattern whose
    multipliers are nonnegative and at whose point every cut holds (pinned
    ones as equalities) satisfies the KKT system of the projection, which
    certifies the point.

    More than two cuts raise ValueError.  When no pattern certifies,
    IntersectionError carries the candidate that violates the cuts least.
    """
    if len(cuts) > 2:
        raise ValueError(f"project_intersection handles at most two cuts, got {len(cuts)}")
    # pattern none always yields a candidate, so tried is never empty below
    loose, tried, anchor_size = [], [], norm(anchor)
    for count in range(len(cuts) + 1):
        for pinned in itertools.combinations(cuts, count):
            found = _pinned_projection(base, [c.normal for c in pinned], [c.offset for c in pinned], anchor)
            if found is None:
                continue
            x, lam = found
            # (violation, allowance) per cut; pinned cuts must hold as equalities
            values = [dot(c.normal, x) - c.offset for c in cuts]
            allowed = [_slack(c.normal, c.offset, x, anchor_size) for c in cuts]
            checks = [(abs(v) if c in pinned else v, s) for c, v, s in zip(cuts, values, allowed)]
            if np.all(lam >= 0.0):
                if all(v <= s for v, s in checks):
                    return x
                if all(v <= _LOOSE * s for v, s in checks):
                    loose.append(x)
            tried.append((max(values, default=0.0), x))
    if loose:
        # several patterns can hold within the loose allowance; the point
        # nearest the anchor is the projection's own choice among them
        return min(loose, key=lambda x: norm(x - anchor))
    best = min(tried, key=lambda entry: entry[0])[1]
    raise IntersectionError("no pattern of binding cuts certifies a projection onto the intersection", best=best)


def _slack(normal: Vec, offset: float, x: Vec, size: float) -> float:
    """Rounding allowance for <normal, x> against offset, x computed from
    vectors of norm up to size; no absolute floor, as level cut normals vanish."""
    return _REL_TOL * (abs(offset) + norm(normal) * (norm(x) + size))


def _pinned_projection(
    base: FeasibleSet, normals: list[Vec], offsets: list[float], anchor: Vec
) -> Optional[tuple[Vec, np.ndarray]]:
    """Projection x of anchor onto base and the hyperplanes <n_i, x> = b_i,
    with the planes' multipliers lam: anchor - x - sum_i lam_i n_i lies in
    the normal cone of base at x.  None when the planes miss the base."""
    if not normals:
        return base.project(anchor), np.zeros(0)
    if isinstance(base, (Box, Simplex)):
        return _polyhedral_pinned(base, normals, offsets, anchor)
    A, b = np.array(normals), np.array(offsets)
    if isinstance(base, Ball):
        return _ball_pinned(base, A, b, anchor)
    if isinstance(base, WholeSpace):
        return _affine_solve(A, b, anchor)
    if isinstance(base, Halfspace):
        found = _affine_solve(A, b, anchor)
        if found is None or base.contains(found[0], _slack(base.normal, base.offset, found[0], norm(anchor))):
            return found
    # a hyperplane base pins its row; a halfspace base pins it once the
    # planes' projection leaves it, and then needs a nonnegative multiplier
    found = _affine_solve(np.vstack([A, base.normal]), np.append(b, base.offset), anchor)
    if found is None or (isinstance(base, Halfspace) and found[1][-1] < 0.0):
        return None
    return found[0], found[1][:-1]


def _affine_solve(A: np.ndarray, b: np.ndarray, anchor: Vec) -> Optional[tuple[Vec, np.ndarray]]:
    """Projection onto {A x = b} with multipliers lam = (A A^T)^+ (A anchor - b);
    the pseudoinverse tolerates dependent rows, inconsistent ones give None.
    Rows are scaled to unit length first: a gradient row that vanishes near
    the solution would otherwise sink the Gram matrix below pinv's cutoff."""
    scale = 1.0 / np.linalg.norm(A, axis=1)
    unit = A * scale[:, None]
    lam = scale * (np.linalg.pinv(unit @ unit.T) @ (scale * (A @ anchor - b)))
    x = anchor - A.T @ lam
    # nearly parallel rows cancel large terms lam_i n_i, and the Gram solve
    # loses digits to their conditioning; inconsistent rows miss by far more
    size = norm(anchor) + float(np.abs(lam) @ (1.0 / scale))
    if any(abs(dot(n, x) - off) > _LOOSE * _slack(n, off, x, size) for n, off in zip(A, b)):
        return None
    return x, lam


def _ball_pinned(base: Ball, A: np.ndarray, b: np.ndarray, anchor: Vec) -> Optional[tuple[Vec, np.ndarray]]:
    """Closed form over a ball.

    Project onto the planes; when that leaves the ball, pull the in-plane
    part toward p, the planes' point closest to the center, onto the sphere:
    x = p + t v with t = rho / ||v||.  Then anchor - x = mu (x - center) +
    A^T lam with mu = (1 - t)/t and lam = lam0 + mu (A A^T)^+ (A center - b).
    """
    flat, closest = _affine_solve(A, b, anchor), _affine_solve(A, b, base.center)
    if flat is None or closest is None:
        return None
    (x_flat, lam0), (p, w) = flat, closest
    # rounding allowance: planes that touch the sphere hold p on it only in rounding
    slack = _REL_TOL * max(1.0, base.radius)
    if norm(x_flat - base.center) <= base.radius + slack:
        return flat
    rho_sq = base.radius**2 - norm(p - base.center) ** 2
    if rho_sq < -slack * base.radius:
        return None
    v = x_flat - p
    t = math.sqrt(max(rho_sq, 0.0)) / norm(v)
    if t == 0.0:
        # tangent planes touch the ball only at p; as t -> 0 the multipliers
        # grow like mu * w, and w >= 0 shows that no other point of the ball
        # satisfies the pinned cuts, so p is the projection
        return p, w
    mu = (1.0 - t) / t
    return p + t * v, lam0 + mu * w


def _polyhedral_pinned(
    base: Union[Box, Simplex], normals: list[Vec], offsets: list[float], anchor: Vec
) -> Optional[tuple[Vec, np.ndarray]]:
    """Box or simplex: lam -> <n, P_C(a - lam n)> is continuous, nonincreasing
    and piecewise affine, so one plane's multiplier is the root of that
    residual.  The first plane's multiplier is searched with the remaining
    planes solved for each of its values; x(lam1) is then the projection of
    a - lam1 n1 onto base and those planes, so its residual has the same
    shape and the same root search applies."""
    n, off = normals[0], offsets[0]

    def evaluate(lam: float):
        inner = _pinned_projection(base, normals[1:], offsets[1:], anchor - lam * n)
        return None if inner is None else (dot(n, inner[0]) - off, inner[0], np.append(lam, inner[1]))

    found = _piecewise_affine_root(base, evaluate, dot(n, n))
    return None if found is None else (found[1], found[2])


def _face(base: Union[Box, Simplex], x: Vec) -> bytes:
    # the exact bound mask that clip (or maximum) leaves: one face, one mask
    if isinstance(base, Box):
        return (x == base.lower).tobytes() + (x == base.upper).tobytes()
    return (x == 0.0).tobytes()


def _piecewise_affine_root(base: Union[Box, Simplex], evaluate, curvature: float):
    """Root of a continuous nonincreasing piecewise-affine residual.

    evaluate(lam) returns (residual, x, multipliers) with x a base
    projection, or None.  A step grows away from 0 until it brackets the
    root; bisection runs only until both ends lie on the same face of the
    base, where the residual is affine, and interpolation is then exact.
    None when the residual keeps its sign (the plane misses the base).
    """
    at_zero = evaluate(0.0)
    if at_zero is None or at_zero[0] == 0.0:
        return at_zero
    sign = math.copysign(1.0, at_zero[0])

    def signed(mu: float):
        # along mu >= 0 in the search direction the residual starts positive
        at = evaluate(sign * mu)
        return None if at is None else (sign * at[0],) + at[1:]

    lo, at_lo = 0.0, (abs(at_zero[0]),) + at_zero[1:]
    hi = abs(at_zero[0]) / curvature  # the step that would close it unclipped
    for _ in range(_MAX_GROWTH):
        at_hi = signed(hi)
        if at_hi is None or at_hi[0] <= 0.0:
            break
        lo, at_lo, hi = hi, at_hi, 4.0 * hi
    else:
        return None
    while at_hi is not None and at_hi[0] < 0.0 and _face(base, at_lo[1]) != _face(base, at_hi[1]):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        at_mid = signed(mid)
        if at_mid is not None and at_mid[0] > 0.0:
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid
    if at_hi is None or at_hi[0] == 0.0:
        return at_hi
    return evaluate(sign * (lo + at_lo[0] * (hi - lo) / (at_lo[0] - at_hi[0])))
