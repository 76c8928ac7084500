"""Closed convex sets with exact nearest-point projections.

Every set exposes ``project(x)`` returning the unique closest member and
``contains(x, tol)`` testing membership up to a per-constraint violation of
``tol``.

``project_intersection(base, cuts, anchor)`` projects exactly onto the
intersection of a base set with at most two ``Halfspace`` cuts, the level
and anchor cuts of the anchored solver, by solving the dual for the cut
multipliers one pattern of binding cuts at a time.  On a box or a simplex
the residual of a pinned cut, <n, P(y - lam n)> - b, is piecewise affine
in its multiplier with an exact slope on each face of the base, so a
face-Newton step lands on the root once it starts on the root's face; a
bracket falls back to bisection.  One cut on a box searches the sorted
breakpoints of that residual instead.  Two cuts solve the 2-D dual on the
face with one 2x2 solve per step.  The point and the multipliers are then
read from the final face in closed form.  On a ball and on affine bases the
planes' unit-row Gram matrix is factored once per pattern and shared by its
solves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import Vec, _check_point, as_vector, dot, norm

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
    ``patterns_tried`` counts the patterns solved and ``base_projections`` the
    base projections made."""

    def __init__(self, message: str, patterns_tried: int = 0, base_projections: int = 0):
        super().__init__(message)
        self.patterns_tried = patterns_tried
        self.base_projections = base_projections


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
        if np.any(lo > hi) or np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValueError("box requires lower <= upper, lower < +inf and upper > -inf componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, x: Vec) -> Vec:
        _check_point(self.dim, "set", x)
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        _check_point(self.dim, "set", x)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: Vec
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_vector(self.center))
        if not (0.0 < self.radius < math.inf):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def project(self, x: Vec) -> Vec:
        _check_point(self.dim, "set", x)
        d = x - self.center
        dist = norm(d)
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        _check_point(self.dim, "set", x)
        return norm(x - self.center) <= self.radius + tol


@dataclass(frozen=True, eq=False)
class _Plane:
    """The body of Halfspace and Hyperplane: a nonzero normal and a finite
    offset, the excess <normal, x> - offset and the shift along the normal."""

    normal: Vec
    offset: float

    def __post_init__(self) -> None:
        n = as_vector(self.normal)
        if norm(n) == 0.0:
            raise ValueError(f"{type(self).__name__.lower()} normal must be nonzero")
        if not math.isfinite(self.offset):
            raise ValueError(f"{type(self).__name__.lower()} offset must be finite, got {self.offset}")
        object.__setattr__(self, "normal", n)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _excess(self, x: Vec) -> float:
        _check_point(self.dim, "set", x)
        return dot(self.normal, x) - self.offset

    def _shift(self, x: Vec, excess: float) -> Vec:
        return x - (excess / dot(self.normal, self.normal)) * self.normal


@dataclass(frozen=True, eq=False)
class Halfspace(_Plane):
    """Halfspace {x : <normal, x> <= offset}."""

    def project(self, x: Vec) -> Vec:
        excess = self._excess(x)
        return x.copy() if excess <= 0.0 else self._shift(x, excess)

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        _check_point(self.dim, "set", x)
        return dot(self.normal, x) <= self.offset + tol


@dataclass(frozen=True, eq=False)
class Hyperplane(_Plane):
    """Hyperplane {x : <normal, x> = offset}."""

    def project(self, x: Vec) -> Vec:
        return self._shift(x, self._excess(x))

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        return abs(self._excess(x)) <= tol


@dataclass(frozen=True, eq=False)
class Simplex:
    """Scaled simplex {x : x >= 0, sum(x) = scale}.

    Projection uses the sort-and-threshold rule: sort descending, find the
    largest support size whose cumulative-sum threshold keeps all kept
    entries positive, then shift and clip.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.scale < math.inf):
            raise ValueError(f"simplex scale must be positive and finite, got {self.scale}")

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

    def project(self, x: Vec) -> Vec:
        return x.copy()

    def contains(self, x: Vec, tol: float = 0.0) -> bool:
        return True


FeasibleSet = Union[Box, Ball, Halfspace, Hyperplane, Simplex, WholeSpace]


# relative rounding allowance of the cut and plane checks
_REL_TOL = 1e-12
# allowances within which the Gram solve of several planes (_planes) still
# counts as holding them: nearly parallel rows lose digits to its
# conditioning, inconsistent rows miss by far more
_LOOSE = 100.0
# relative rounding within which a coordinate of a base projection counts
# as on a bound (a few units in the last place)
_FACE_ROUNDING = 4.0 * np.finfo(float).eps
# quadruplings of the two-cut search's reach before its first cut counts as
# missing the base
_MAX_GROWTH = 64


def project_intersection(base: FeasibleSet, cuts: list[Halfspace], anchor: Vec) -> Vec:
    """Project ``anchor`` onto the intersection of ``base`` with at most two halfspaces.

    Solves the dual exactly.  With multipliers lam >= 0 on the cuts the
    nearest point is x = P_base(anchor - sum_i lam_i n_i), so the patterns
    of binding cuts -- none, each one alone, then both -- are solved in turn
    as equalities <n_i, x> = b_i through their multipliers; the solve
    returns a point only when it holds its pinned planes.  A pattern whose
    multipliers are nonnegative and at whose point every unpinned cut holds
    satisfies the KKT system of the projection, which certifies the point.
    Each pattern starts its search from the pattern that pins its cuts after
    the first, solved before it.

    More than two cuts raise ValueError.  When no pattern certifies,
    IntersectionError carries the number of patterns tried and the base
    projections made.
    """
    if len(cuts) > 2:
        raise ValueError(f"project_intersection handles at most two cuts, got {len(cuts)}")
    spent = 0

    def project(y: Vec) -> Vec:
        nonlocal spent
        spent += 1
        return base.project(y)

    solved = {}
    for count in range(len(cuts) + 1):
        for pinned in itertools.combinations(range(len(cuts)), count):
            found = _pinned_projection(base, project, [cuts[i] for i in pinned], anchor, solved.get(pinned[1:]))
            solved[pinned] = found
            if found is None:
                continue
            x, lam = found
            checks = _excesses(cuts, x, anchor)
            if all(m >= 0.0 for m in lam) and all(v <= s for i, (v, s) in enumerate(checks) if i not in pinned):
                return x
    raise IntersectionError(
        "no pattern of binding cuts certifies a projection onto the intersection",
        patterns_tried=len(solved), base_projections=spent,
    )


def _slack(offset: float, normal_size: float, x_size: float, size: float) -> float:
    """Rounding allowance for <normal, x> against offset, x of norm x_size
    computed from vectors of norm up to size; no absolute floor, as level
    cut normals vanish."""
    return _REL_TOL * (abs(offset) + normal_size * (x_size + size))


def _excesses(cuts: list[Halfspace], x: Vec, anchor: Vec) -> list[tuple[float, float]]:
    """(<n, x> - b, its rounding allowance) for each cut, x projected from anchor."""
    x_size, size = norm(x), norm(anchor)
    return [(float(c.normal @ x) - c.offset, _slack(c.offset, norm(c.normal), x_size, size)) for c in cuts]


Found = Optional[tuple[Vec, np.ndarray]]


def _pinned_projection(base: FeasibleSet, project, pinned: list[Halfspace], anchor: Vec, start: Found) -> Found:
    """Projection x of anchor onto base and the hyperplanes <n_i, x> = b_i
    of the pinned cuts, with the planes' multipliers lam: anchor - x -
    sum_i lam_i n_i lies in the normal cone of base at x.  None when the
    point found does not hold its planes within rounding, as when they miss
    the base.  project is the base projection; start is the projection
    pinned to the planes after the first (None when there is none), where
    the first plane's multiplier is 0."""
    if not pinned:
        return project(anchor), np.zeros(0)
    if isinstance(base, (Box, Simplex)):
        found = None if start is None else _polyhedral_pinned(base, project, pinned, anchor, start)
        # the searches end on the point nearest the planes, which holds them
        # only where they meet the base
        if found is None or any(abs(v) > s for v, s in _excesses(pinned, found[0], anchor)):
            return None
        return found
    A, b = np.array([c.normal for c in pinned]), np.array([c.offset for c in pinned])
    if isinstance(base, Ball):
        return _ball_pinned(base, _planes(A, b), anchor)
    if isinstance(base, WholeSpace):
        return _planes(A, b)(anchor)
    if isinstance(base, Halfspace):
        found = _planes(A, b)(anchor)
        if found is None:
            return None
        if base.contains(found[0], _slack(base.offset, norm(base.normal), norm(found[0]), norm(anchor))):
            return found
    # a hyperplane base pins its row; a halfspace base pins it once the
    # planes' projection leaves it, and then needs a nonnegative multiplier
    found = _planes(np.vstack([A, base.normal]), np.append(b, base.offset))(anchor)
    if found is None or (isinstance(base, Halfspace) and found[1][-1] < 0.0):
        return None
    return found[0], found[1][:-1]


def _planes(A: np.ndarray, b: np.ndarray):
    """Projector onto the planes {A x = b}: point -> (x, lam) with
    lam = (A A^T)^+ (A point - b), or None when the rows are inconsistent.
    The pseudoinverse tolerates dependent rows and is formed once, so the
    ball's two solves share it.  Rows are scaled to unit length first: a
    gradient row that vanishes near the solution would otherwise sink the
    Gram matrix below the rank cutoff."""
    scale = 1.0 / np.linalg.norm(A, axis=1)
    sizes = 1.0 / scale
    unit = A * scale[:, None]
    gram = unit @ unit.T
    # one row: the reciprocal, which is what pinv's SVD returns; more rows
    # keep pinv and its rank cutoff, so nearly parallel planes stay dependent
    gram_pinv = 1.0 / gram if gram.shape[0] == 1 else np.linalg.pinv(gram)

    def solve(point: Vec) -> Found:
        lam = scale * (gram_pinv @ (scale * (A @ point - b)))
        x = point - A.T @ lam
        if len(b) == 1:
            return x, lam  # one plane is never inconsistent
        # nearly parallel rows cancel large terms lam_i n_i, and the Gram
        # solve loses digits to their conditioning; inconsistent rows miss
        # by far more
        size, x_size = norm(point) + float(np.abs(lam) @ sizes), norm(x)
        if any(abs(float(n @ x) - off) > _LOOSE * _slack(off, s, x_size, size) for n, off, s in zip(A, b, sizes)):
            return None
        return x, lam

    return solve


def _ball_pinned(base: Ball, planes, anchor: Vec) -> Found:
    """Closed form over a ball.

    Project onto the planes; when that leaves the ball, pull the in-plane
    part toward p, the planes' point closest to the center, onto the sphere:
    x = p + t v with t = rho / ||v||.  Then anchor - x = mu (x - center) +
    A^T lam with mu = (1 - t)/t and lam = lam0 + mu (A A^T)^+ (A center - b).
    """
    flat, closest = planes(anchor), planes(base.center)
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


class _At(NamedTuple):
    """The dual search at multipliers lam: the base projection x, the pinned
    planes' residuals r_i = <n_i, x> - b_i, and the face of the base at x
    with the Gram matrix of the normals' components along it, which gives
    the residuals' exact slopes there: on a face x moves by -J sum_j dlam_j n_j
    for the face's orthogonal projector J, so dr_i = -sum_j <J n_i, J n_j> dlam_j.
    face keys the face; free marks the coordinates along it (the support on
    a simplex), low those on a box's lower bound, and parts holds J n_i on free."""

    x: Vec
    lam: tuple
    r: tuple
    face: bytes
    gram: tuple
    low: Optional[Vec]
    free: Vec
    parts: list


def _at(base: Union[Box, Simplex], normals: list[Vec], offsets: list[float], x: Vec, lam: tuple, size: float) -> _At:
    """The evaluation at x, the base projection of a point formed from
    terms of sup norm up to size.  A coordinate within rounding of a bound
    (a few ulps of size) counts as on it: such slivers of a face come and go
    with the last bits of the multipliers, so a slope read from them would
    not hold beyond rounding."""
    near = _FACE_ROUNDING * size
    if isinstance(base, Box):
        low, high = x <= base.lower + near, x >= base.upper - near
        free = ~(low | high)
        face, parts = low.tobytes() + high.tobytes(), [n[free] for n in normals]
    else:
        # the support moves with the common shift of the simplex projection
        low, free = None, x > near
        face, parts = free.tobytes(), [_centered(n[free]) for n in normals]
    r = tuple(float(n @ x) - b for n, b in zip(normals, offsets))
    if len(parts) == 1:
        return _At(x, lam, r, face, ((float(parts[0] @ parts[0]),),), low, free, parts)
    p, q = parts
    pq = float(p @ q)
    return _At(x, lam, r, face, ((float(p @ p), pq), (pq, float(q @ q))), low, free, parts)


def _centered(v: Vec) -> Vec:
    return v - v.sum() / v.size if v.size else v


def _polyhedral_pinned(
    base: Union[Box, Simplex], project, pinned: list[Halfspace], anchor: Vec, start: tuple[Vec, np.ndarray]
) -> Found:
    """Box or simplex: lam -> <n, P_C(y - lam n)> is continuous, nonincreasing
    and piecewise affine, so one plane's multiplier is the root of that
    residual (_plane_root).  With two planes the first plane's multiplier is
    searched with the second solved for each of its values; the residual of
    the first then has the same shape, with the Schur complement
    g11 - g12^2/g22 as its slope on a face (see _At), where the second
    multiplier follows the first at the rate -g12/g22.  A step of the first
    thus predicts the second, the 2-D dual solved on the face as one 2x2
    linear solve, and the second plane's own root is searched only when the
    step leaves that face.  The first plane's search starts at lam_1 = 0,
    from start, the projection pinned to the second plane alone (the base
    projection of the anchor for one plane).  The face the search ends on
    then gives the point and the multipliers in closed form (_face_solve).
    A box with one plane searches the plane's breakpoints instead."""
    normals, offsets = [c.normal for c in pinned], [c.offset for c in pinned]
    if isinstance(base, Simplex):
        # on the simplex <n, x> - b = <n - c, x> - (b - c scale) for a constant
        # c, and P(y - lam n) = P(y - lam (n - c)): centering leaves the
        # multipliers as they are and keeps the projected points from
        # growing with lam when a normal is nearly constant
        means = [float(n.sum()) / n.size for n in normals]
        normals = [n - c for n, c in zip(normals, means)]
        offsets = [b - c * base.scale for b, c in zip(offsets, means)]
    # sup norms of the terms of anchor - sum_i lam_i n_i, for the rounding of faces
    sizes = [float(abs(v).max()) for v in (anchor, *normals)]

    def at_point(x: Vec, lam: tuple) -> _At:
        size = sizes[0] + sum(abs(m) * s for m, s in zip(lam, sizes[1:]))
        return _at(base, normals, offsets, x, lam, size)

    def evaluate(lam: tuple) -> _At:
        y = anchor
        for m, n in zip(lam, normals):
            y = y - m * n
        return at_point(project(y), lam)

    if len(pinned) == 1 and isinstance(base, Box):
        # the breakpoint search reads the start's residual alone
        n, b = normals[0], offsets[0]
        r = float(n @ start[0]) - b
        lam = None if r == 0.0 else _box_breakpoint_root(base, anchor, n, b, 0.0, r)
        return (start[0], np.zeros(1)) if lam is None else (project(anchor - lam * n), np.array([lam]))
    first = at_point(start[0], (0.0, *start[1]))
    if len(pinned) == 1:
        found = _plane_root(base, evaluate, first, anchor, normals[0], offsets[0])
    else:
        n1 = normals[0]

        def solved_second(lam1: float, src: _At) -> _At:
            g = src.gram
            tilt = -g[0][1] / g[1][1] if g[1][1] > 0.0 else 0.0
            at = evaluate((lam1, src.lam[1] + tilt * (lam1 - src.lam[0])))
            if at.face == src.face:
                # the prediction is exact on src's face, where the second
                # residual keeps src's value, a root
                return at
            return _plane_root(base, evaluate, at, anchor - lam1 * n1, normals[1], offsets[1])

        found = _face_newton_root(solved_second, first, 0, _schur_slope, dot(n1, n1))
    return None if found is None else _face_solve(base, normals, offsets, anchor, found)


def _face_solve(base: Union[Box, Simplex], normals: list[Vec], offsets: list[float], anchor: Vec, at: _At):
    """The planes' point and multipliers on the face of at, in closed form.

    On that face x = a - sum_j lam_j m_j.  On a box a is the anchor on the
    free coordinates and the bounds elsewhere, and m_j is n_j on the free
    coordinates; on a simplex a is the anchor shifted onto the simplex plane
    over the support and 0 elsewhere, and m_j is n_j centered over the
    support.  The planes hold where gram lam = <n_i, a> - b_i.  The base
    projection of anchor - sum_j lam_j n_j is the same point, but it carries
    rounding of order eps |lam n|: where the normals barely move x along the
    face (a small gram), lam is large, and that rounding moves the point
    along the face by far more.  at stands when the planes are dependent on
    the face or the point leaves it.
    """
    gram = np.array(at.gram)
    if not np.linalg.det(gram) > _FACE_ROUNDING * np.prod(np.diag(gram)):
        return at.x, np.array(at.lam)
    free = at.free
    if isinstance(base, Box):
        a = np.where(at.low, base.lower, base.upper)
        a[free] = anchor[free]
    else:
        count = np.count_nonzero(free)
        a = np.zeros_like(anchor)
        a[free] = _centered(anchor[free]) + base.scale / count
    lam = np.linalg.solve(gram, [float(n @ a) - b for n, b in zip(normals, offsets)])
    x = a
    for m, part in zip(lam, at.parts):
        x[free] -= m * part
    if isinstance(base, Box):
        inside = np.all(x[free] >= base.lower[free]) and np.all(x[free] <= base.upper[free])
    else:
        # the centered parts sum to 0 only up to rounding, which lam scales:
        # put the point back on the simplex plane
        x[free] += (base.scale - x[free].sum()) / count
        inside = np.all(x[free] >= 0.0)
    return (x, lam) if inside else (at.x, np.array(at.lam))


def _schur_slope(at: _At) -> float:
    """The first residual's slope with the second plane kept pinned; 0 when
    the normals are parallel along the face up to the rounding of g11."""
    (g11, g12), (_, g22) = at.gram
    if not g22 > 0.0:
        return g11
    slope = g11 - g12 * g12 / g22
    return slope if slope > _FACE_ROUNDING * g11 else 0.0


def _plane_root(base: Union[Box, Simplex], evaluate, at: _At, y: Vec, n: Vec, offset: float) -> _At:
    """The root in the last multiplier lam of at of the residual
    <n, P_C(y - lam n)> - offset, the other multipliers held.  When the
    residual keeps its sign, the point where it comes closest to 0, past
    which it is constant: a plane that touches the base only in rounding
    then still yields its point of contact, and _pinned_projection's check
    of the planes decides.

    On a box the breakpoints of the residual have closed forms and are
    searched all at once (_box_breakpoint_root), so the root costs one
    projection.  On a simplex the face-Newton search runs in a bracket whose
    far end is a closed form: past it the projection stays on the
    coordinates where n is least along the search, and the residual with it.
    """
    i = len(at.lam) - 1
    if at.r[i] == 0.0:
        return at
    if isinstance(base, Box):
        lam = _box_breakpoint_root(base, y, n, offset, at.lam[i], at.r[i])
        return at if lam is None else evaluate((*at.lam[:i], lam))
    sign = math.copysign(1.0, at.r[i])
    # along the search y - lam n = w - mu m; once every other coordinate of
    # it is at least scale below the largest one where m is least, it is 0
    m, w = sign * n, y - at.lam[i] * n
    low = float(m.min())
    tied = m == low
    rest = ~tied
    far = float(((w[rest] - w[tied].max() + base.scale) / (m[rest] - low)).max()) if rest.any() else 0.0
    if far <= 0.0:
        return at
    if sign * (sign * low * base.scale - offset) > 0.0:
        return evaluate((*at.lam[:i], at.lam[i] + sign * far))
    found = _face_newton_root(lambda lam, src: evaluate((*at.lam[:i], lam)), at, i, lambda a: a.gram[i][i],
                              float(m @ m), far)
    return at if found is None else found


def _face_newton_root(step, at: _At, i: int, slope, curvature: float, far: float = math.inf) -> Optional[_At]:
    """Root in lam_i of a continuous nonincreasing piecewise-affine residual
    r_i, from the evaluation at.

    step(lam_i, src) evaluates at lam_i, given src, the evaluation the step
    is taken from; slope(at) is the residual's exact slope on at's face.  A
    Newton step from the last evaluation lands on the root when that face
    holds it, which the face of the point reached confirms.  A Newton step
    that leaves the bracket, or that follows a Newton step and would be more
    than half as long as it once the bracket is finite (a creep across many
    faces), gives way to bisection (geometric while the bracket spans more
    than a factor 4, as multipliers range over orders of magnitude).  A
    Newton step after a bisection is not held to the bisection's length:
    the first step onto the root's face can be far longer.
    Before the root is bracketed the step grows fourfold from |r_i| /
    curvature, the step that would close it unclipped; far, when known, is
    a distance past which the residual has crossed.  None when the residual
    keeps its sign (the plane misses the base).
    """
    if at.r[i] == 0.0 or curvature == 0.0:
        # a zero normal leaves the residual where it is
        return at if at.r[i] == 0.0 else None
    sign, origin = math.copysign(1.0, at.r[i]), at.lam[i]
    # distances from origin in the direction in which the residual falls
    # from positive; the root lies in (lo, hi]
    lo, hi, ends = 0.0, far, [at, None]
    src, here, reach, grown, last, newton = at, 0.0, abs(at.r[i]) / curvature, 0, math.inf, False
    while True:
        s = slope(src)
        mu = here + sign * src.r[i] / s if s > 0.0 else math.nan
        newton = lo < mu < hi and not (newton and hi < math.inf and 2.0 * abs(mu - here) > last)
        if not newton:
            if hi < math.inf:
                mu = math.sqrt(lo * hi) if hi > 4.0 * lo > 0.0 else 0.5 * (lo + hi)
                if not lo < mu < hi:
                    break
            else:
                grown += 1
                if grown > _MAX_GROWTH:
                    return None
                mu = max(4.0 * lo, lo + reach)
        nxt = step(origin + sign * mu, src)
        rho = sign * nxt.r[i]
        if rho == 0.0 or (newton and nxt.face == src.face):
            return nxt
        last = abs(mu - here)
        if rho > 0.0:
            lo, ends[0] = mu, nxt
        else:
            hi, ends[1] = mu, nxt
        src, here = nxt, mu
    return min((e for e in ends if e is not None), key=lambda e: abs(e.r[i]))


def _box_breakpoint_root(box: Box, y: Vec, n: Vec, offset: float, lam0: float, r0: float) -> Optional[float]:
    """Root of r(lam) = <n, clip(y - lam n, lower, upper)> - offset from
    r0 = r(lam0) != 0; when r keeps its sign, its last breakpoint, past
    which r is constant, or None when there is none ahead.  Coordinate i
    is free, and adds -n_i^2 to the slope, between its two breakpoints
    (y_i - upper_i)/n_i and (y_i - lower_i)/n_i, so sorting the breakpoints
    past lam0 gives r on every piece: the continuous quadratic knapsack
    (Kiwiel, JOTA 2008).  A search to the left is the same search for -n."""
    if r0 < 0.0:
        lam = _box_breakpoint_root(box, y, -n, -offset, -lam0, -r0)
        return None if lam is None else -lam
    lower, upper = box.lower, box.upper
    if not n.all():
        moving = n != 0.0
        y, n, lower, upper = y[moving], n[moving], lower[moving], upper[moving]
    w = n * n
    # infinite bounds give infinite breakpoints, never passed
    a, b = (y - upper) / n, (y - lower) / n
    enter, leave = np.minimum(a, b), np.maximum(a, b)
    points = np.concatenate((enter, leave))
    order = points.argsort()
    points, change = points[order], np.concatenate((-w, w))[order]
    # slopes[k] holds on the piece that ends at points[k]: the changes of
    # the points before it summed (the order of tied points changes no piece)
    slopes = np.concatenate(([0.0], change.cumsum()))
    first, last = int(np.count_nonzero(points <= lam0)), int(np.count_nonzero(points < math.inf))
    ahead = points[first:last]
    # r at every breakpoint past lam0
    values = r0 + (slopes[first:last] * (ahead - np.concatenate(([lam0], ahead[:-1])))).cumsum()
    crossed = values <= 0.0
    k = int(crossed.argmax()) if crossed.any() else ahead.size
    start, value = (lam0, r0) if k == 0 else (float(ahead[k - 1]), float(values[k - 1]))
    # the slope of that piece summed afresh: the running sum loses the
    # small slope left once large terms leave it
    slope = -float(w[(enter <= start) & (start < leave)].sum())
    if slope >= 0.0:
        # past the last breakpoint the residual is constant and positive
        return float(ahead[-1]) if ahead.size else None
    return start - value / slope
