"""Convex differentiable objectives with gradient oracles.

All objectives are total on the whole space, so line-search trial points that
fall outside the feasible set are always evaluable.

The objective protocol has four methods.  ``value(x)`` and ``gradient(x)``
are required; ``evaluate(x)`` returns both from one evaluation, as a `Point`
with a carry, what a segment from x can reuse of that evaluation.
``segment(at, step)`` returns a `Segment` along ``at.x + t step.d`` from the
`Point` at and a `Step` from it.  A step is formed once, by
``Step.between(at, w)``, with d = w - x, its slope <g, d> and <d, d>, which
the segments read rather than form again.  `PNorm` carries r = x - shift and
<r, r>, so its segment from a freshly evaluated point forms neither again;
from a point without a carry, as one that a segment's own gradient reached,
it forms r from x.  Nothing is kept on the objective: a carry lives as long
as the caller keeps its point.  The module functions `evaluate` and
`segment` fall back to ``value``/``gradient`` (and no carry) for objectives
that define only those.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Protocol, Union

import numpy as np

from .core import Vec, _check_point, as_vector, norm

__all__ = [
    "PNorm",
    "Quadratic",
    "LogSumExp",
    "Objective",
    "Segment",
    "Point",
    "Step",
    "evaluate",
    "segment",
    "check_gradient",
]


class Point(NamedTuple):
    """A point x with the objective's value f and gradient g there, and the
    carry of the evaluation that gave them (None when it left none)."""

    x: Vec
    f: float
    g: Vec
    carry: object = None


class Step(NamedTuple):
    """The step d = w - x from a point x to w, with its slope <g, d> along
    the gradient g at x and <d, d>, all formed once by `between`."""

    w: Vec
    d: Vec
    slope: float
    dd: float

    @classmethod
    def between(cls, at: Point, w: Vec) -> Step:
        d = w - at.x
        return cls(w, d, float(at.g @ d), float(d @ d))


class Segment(Protocol):
    """An objective restricted to the line x + t d.

    decrease(t) is f(x + t d) - f(x).  The built-in objectives compute it
    without subtracting two values of f, so a decrease far below the float
    resolution of f stays visible.
    gradient(t) is the gradient at x + t d.
    """

    def decrease(self, t: float) -> float: ...

    def gradient(self, t: float) -> Vec: ...


@dataclass(frozen=True, eq=False)
class PNorm:
    """f(x) = (1/p) ||x - shift||^p with p > 1.

    The gradient ||x - shift||^(p-2) (x - shift) is uniformly continuous but
    globally Lipschitz only for p = 2; at x = shift it is defined as zero,
    the continuous extension.
    """

    p: float
    shift: Vec

    def __post_init__(self) -> None:
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"p must exceed 1 and be finite, got {self.p}")
        object.__setattr__(self, "shift", as_vector(self.shift))

    @property
    def dim(self) -> int:
        return self.shift.shape[0]

    def value(self, x: Vec) -> float:
        _check_point(self.dim, "objective", x)
        return float(norm(x - self.shift) ** self.p / self.p)

    def gradient(self, x: Vec) -> Vec:
        _check_point(self.dim, "objective", x)
        r = x - self.shift
        return _pnorm_gradient(self.p, r, norm(r))

    def evaluate(self, x: Vec) -> Point:
        """The value and the gradient, from one residual r = x - shift and
        one <r, r>, which are the carry."""
        _check_point(self.dim, "objective", x)
        r = x - self.shift
        rr = float(np.dot(r, r))
        dist = math.sqrt(rr)
        return Point(x, float(dist**self.p / self.p), _pnorm_gradient(self.p, r, dist), (r, rr))

    def segment(self, at: Point, step: Step) -> Segment:
        """Reads r and <r, r> from the point's carry, when it has one."""
        _check_point(self.dim, "objective", at.x, step.d)
        if at.carry is not None:
            return _PNormSegment(self.p, *at.carry, step)
        r = at.x - self.shift
        return _PNormSegment(self.p, r, float(np.dot(r, r)), step)


def _pnorm_gradient(p: float, r: Vec, dist: float) -> Vec:
    """The gradient at shift + r, dist = ||r||."""
    if dist == 0.0:
        return np.zeros_like(r)
    return dist ** (p - 2.0) * r


class _PNormSegment:
    """With r = x - shift, ||r + t d||^2 = ||r||^2 (1 + q(t)) for the
    quadratic q(t) = t (2 <r, d> + t ||d||^2) / ||r||^2, so the decrease is
    (||r||^p / p) expm1((p/2) log1p(q)) and no two powers are subtracted.
    rr is <r, r>; ||d||^2 is the step's."""

    def __init__(self, p: float, r: Vec, rr: float, step: Step) -> None:
        self.p, self.r, self.rr, self.d, self.dd = p, r, rr, step.d, step.dd
        self.rd = float(r @ step.d)

    def decrease(self, t: float) -> float:
        p = self.p
        if self.rr == 0.0:
            return (t * t * self.dd) ** (0.5 * p) / p
        q = t * (2.0 * self.rd + t * self.dd) / self.rr
        if q <= -1.0:  # the segment passes through shift (q < -1 by rounding)
            return -(self.rr ** (0.5 * p)) / p
        return self.rr ** (0.5 * p) / p * math.expm1(0.5 * p * math.log1p(q))

    def gradient(self, t: float) -> Vec:
        r = self.r + t * self.d
        return _pnorm_gradient(self.p, r, norm(r))


# keys (see _key) of the last _CERTIFIED_MAX matrices that passed _certify,
# oldest first, each mapped to whether that Q equals its transpose exactly;
# no array is kept.  The lock makes insert-and-trim one step for threads
# that construct at once.
_CERTIFIED: dict[tuple[tuple[int, ...], int], bool] = {}
_CERTIFIED_MAX = 32
_CERTIFIED_LOCK = threading.Lock()


def _key(Q: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Q's shape and a hash of its bytes in C order, so any memory layout of
    one matrix gets one key.  The bytes are hashed in blocks of rows of
    about 256 kB, which stay in cache, rather than as one full copy of Q."""
    step = 1 + (1 << 15) // (Q.shape[1] + 1)
    return Q.shape, hash(tuple(hash(Q[i : i + step].tobytes()) for i in range(0, Q.shape[0], step)))


def _certify(Q: np.ndarray) -> bool:
    """Raise ValueError unless Q is finite, symmetric and positive semidefinite;
    return whether Q equals its transpose exactly."""
    if not np.isfinite(Q).all():
        raise ValueError("Q and c must be finite")
    exact = np.array_equal(Q, Q.T)
    if not (exact or np.allclose(Q, Q.T, atol=1e-12)):
        raise ValueError("Q must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(Q)
        if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
            raise ValueError(f"Q must be positive semidefinite, smallest eigenvalue {eigs.min()}") from None
    return exact


# A product with a vector of at least _SUPPORT_FLOOR entries, at most
# 1/_SUPPORT_SHARE of them nonzero, reads only the rows of an exactly
# symmetric Q on the vector's support.  At n = 2000 the row gather breaks
# even with the full product near n/4 nonzeros.
_SUPPORT_FLOOR = 64
_SUPPORT_SHARE = 8


@dataclass(frozen=True, eq=False)
class Quadratic:
    """f(x) = 0.5 <x, Qx> + <b, x> + c with Q symmetric positive semidefinite.

    Construction checks that Q is symmetric (to np.allclose with atol 1e-12;
    an exactly symmetric Q skips that comparison) and positive semidefinite.
    A Cholesky factorization of Q certifies the latter: it succeeds only
    when Q is positive definite up to rounding.  Only when it fails, as for
    a singular Q, are the eigenvalues computed, and Q is accepted when the
    smallest is at least -1e-10 max(1, |largest|).  Both factorization and
    eigenvalues read the lower triangle of Q.

    Q is certified once per process for each distinct content: a Q whose
    shape and C-order bytes hash like one of the last 32 accepted matrices
    skips these checks and costs only the hash (at n = 2000 on one core,
    0.012-0.016 s against 0.17-0.23 s cold; README.md gives the command).  A
    new construction checks an edited or rejected Q again, but a float64 Q is
    kept, not copied: editing it in place after construction goes unchecked
    and can make the objective nonconvex.  b and c are validated on every
    construction.

    Products with Q also rely on what construction certified: when Q was
    exactly symmetric, a product with a sparse vector reads the rows of Q
    on its support (see _times).  After an asymmetric in-place edit such an
    objective computes products with the transpose of the edited Q.
    """

    Q: np.ndarray
    b: Vec
    c: float = 0.0

    def __post_init__(self) -> None:
        Q = np.asarray(self.Q, dtype=np.float64)
        b = as_vector(self.b)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] != b.shape[0]:
            raise ValueError(f"Q must be square and match b, got Q {Q.shape}, b {b.shape}")
        if not math.isfinite(self.c):
            raise ValueError("Q and c must be finite")
        key = _key(Q)
        exact = _CERTIFIED.get(key)
        if exact is None:
            exact = _certify(Q)
            with _CERTIFIED_LOCK:
                _CERTIFIED[key] = exact
                if len(_CERTIFIED) > _CERTIFIED_MAX:
                    del _CERTIFIED[next(iter(_CERTIFIED))]
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_exactly_symmetric", exact)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def value(self, x: Vec) -> float:
        return self.evaluate(x).f

    def gradient(self, x: Vec) -> Vec:
        return self.evaluate(x).g

    def evaluate(self, x: Vec) -> Point:
        """One product with Q for both the value and the gradient."""
        _check_point(self.dim, "objective", x)
        Qx = self._times(x)
        return Point(x, float(0.5 * (x @ Qx) + self.b @ x + self.c), Qx + self.b)

    def segment(self, at: Point, step: Step) -> Segment:
        """One product with Q, for Qd; each decrease(t) is then O(1)."""
        _check_point(self.dim, "objective", step.d)
        return _QuadraticSegment(at.g, step, self._times(step.d))

    def _times(self, v: Vec) -> Vec:
        """Q v.  For an exactly symmetric Q and a sparse v (see
        _SUPPORT_FLOOR) this is v[S] @ Q[S] over the support S of v: the
        rows on S hold the same entries as the columns Q v sums, so only
        the order of the sum differs.  A zero v then costs no product."""
        n = v.shape[0]
        if self._exactly_symmetric and n >= _SUPPORT_FLOOR:
            S = np.flatnonzero(v)
            if S.size * _SUPPORT_SHARE <= n:
                return v[S] @ self.Q[S]
        return self.Q @ v


@dataclass(frozen=True, eq=False)
class LogSumExp:
    """f(x) = log sum_i exp(<a_i, x> + t_i) over the rows a_i of a matrix."""

    rows: np.ndarray
    offsets: Vec

    def __post_init__(self) -> None:
        A = np.asarray(self.rows, dtype=np.float64)
        t = as_vector(self.offsets)
        if A.ndim != 2 or A.shape[0] != t.shape[0]:
            raise ValueError(f"rows {A.shape} must have one offset per row, got {t.shape}")
        if not np.isfinite(A).all():
            raise ValueError("rows must be finite")
        object.__setattr__(self, "rows", A)
        object.__setattr__(self, "offsets", t)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def _scores(self, x: Vec) -> Vec:
        _check_point(self.dim, "objective", x)
        return self.rows @ x + self.offsets

    def value(self, x: Vec) -> float:
        return _logsumexp(self._scores(x))

    def gradient(self, x: Vec) -> Vec:
        return self.rows.T @ _softmax(self._scores(x))

    def evaluate(self, x: Vec) -> Point:
        s = self._scores(x)
        return Point(x, _logsumexp(s), self.rows.T @ _softmax(s))

    def segment(self, at: Point, step: Step) -> Segment:
        """One pass over the rows for both the scores at x and A d."""
        _check_point(self.dim, "objective", at.x, step.d)
        xd = self.rows @ np.column_stack((at.x, step.d))
        return _LogSumExpSegment(self.rows, xd[:, 0] + self.offsets, xd[:, 1])


def _logsumexp(s: Vec) -> float:
    m = float(np.max(s))
    return m + float(np.log(np.sum(np.exp(s - m))))


def _softmax(s: Vec) -> Vec:
    w = np.exp(s - np.max(s))
    w /= np.sum(w)
    return w


class _QuadraticSegment:
    """f(x + t d) - f(x) = t <g, d> + (t^2 / 2) <d, Qd> and the gradient
    g + t Qd, both exact polynomials in t once Qd is known; <g, d> is the
    step's slope."""

    def __init__(self, g: Vec, step: Step, Qd: Vec) -> None:
        self.g, self.Qd = g, Qd
        self.gd, self.dQd = step.slope, float(step.d @ Qd)

    def decrease(self, t: float) -> float:
        return t * self.gd + 0.5 * t * t * self.dQd

    def gradient(self, t: float) -> Vec:
        return self.g + t * self.Qd


class _LogSumExpSegment:
    """Scores along the segment are s + t u with u = A d, so with
    p = softmax(s) the decrease is log(sum_i p_i exp(t u_i)), evaluated as
    log1p(sum_i p_i expm1(t u_i)): its rounding scales with |t u|, not with
    the value.  When that sum overflows or falls near -1 the decrease is
    at least log 2 in size and the plain difference of values is exact
    enough."""

    def __init__(self, rows: np.ndarray, s: Vec, u: Vec) -> None:
        self.rows, self.s, self.u = rows, s, u
        self.p = _softmax(s)

    def decrease(self, t: float) -> float:
        tu = t * self.u
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(self.p @ np.expm1(tu))
        if -0.5 < total < np.inf:
            return float(np.log1p(total))
        return _logsumexp(self.s + tu) - _logsumexp(self.s)

    def gradient(self, t: float) -> Vec:
        return self.rows.T @ _softmax(self.s + t * self.u)


class _ValueSegment:
    """Segment of an objective that has only value and gradient."""

    def __init__(self, obj, at: Point, step: Step) -> None:
        self.obj, self.x, self.f, self.d = obj, at.x, at.f, step.d

    def decrease(self, t: float) -> float:
        return self.obj.value(self.x + t * self.d) - self.f

    def gradient(self, t: float) -> Vec:
        return self.obj.gradient(self.x + t * self.d)


Objective = Union[PNorm, Quadratic, LogSumExp]


def evaluate(obj: Objective, x: Vec) -> Point:
    """The objective's evaluate, or its value and gradient with no carry."""
    fused = getattr(obj, "evaluate", None)
    return fused(x) if fused is not None else Point(x, obj.value(x), obj.gradient(x))


def segment(obj: Objective, at: Point, step: Step) -> Segment:
    """The objective's segment from at along step.d, or a segment built
    from value and gradient."""
    build = getattr(obj, "segment", None)
    return _ValueSegment(obj, at, step) if build is None else build(at, step)


def check_gradient(obj: Objective, x: Vec, h: float) -> float:
    """Max absolute error between the gradient oracle and central differences.

    The central difference along each coordinate has O(h^2) truncation error
    for smooth objectives, so the returned error should shrink quadratically
    with h away from any gradient singularity.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    g = obj.gradient(x)
    worst = 0.0
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
        worst = max(worst, abs(fd - float(g[i])))
    return worst
