"""Convex differentiable objectives with gradient oracles.

All objectives are total on the whole space, so line-search trial points that
fall outside the feasible set are always evaluable.

The objective protocol has four methods.  ``value(x)`` and ``gradient(x)``
are required; ``value_and_grad(x)`` returns both from one evaluation, and
``segment(x, f, g, d)`` returns a `Segment` along ``x + t d`` given the value
f and gradient g at x.  The module functions `value_and_grad` and `segment`
fall back to ``value``/``gradient`` for objectives that define only those.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Protocol, Union

import numpy as np

from .core import Vec, _check_point, as_vector, norm

__all__ = [
    "PNorm",
    "Quadratic",
    "LogSumExp",
    "Objective",
    "Segment",
    "value_and_grad",
    "segment",
    "check_gradient",
]


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
        return _pnorm_gradient(self.p, x - self.shift)

    def value_and_grad(self, x: Vec) -> tuple[float, Vec]:
        _check_point(self.dim, "objective", x)
        r = x - self.shift
        return float(norm(r) ** self.p / self.p), _pnorm_gradient(self.p, r)

    def segment(self, x: Vec, f: float, g: Vec, d: Vec) -> Segment:
        _check_point(self.dim, "objective", x, d)
        return _PNormSegment(self.p, x - self.shift, d)


def _pnorm_gradient(p: float, r: Vec) -> Vec:
    dist = norm(r)
    if dist == 0.0:
        return np.zeros_like(r)
    return dist ** (p - 2.0) * r


class _PNormSegment:
    """With r = x - shift, ||r + t d||^2 = ||r||^2 (1 + q(t)) for the
    quadratic q(t) = t (2 <r, d> + t ||d||^2) / ||r||^2, so the decrease is
    (||r||^p / p) expm1((p/2) log1p(q)) and no two powers are subtracted."""

    def __init__(self, p: float, r: Vec, d: Vec) -> None:
        self.p, self.r, self.d = p, r, d
        self.rr, self.rd, self.dd = float(r @ r), float(r @ d), float(d @ d)

    def decrease(self, t: float) -> float:
        p = self.p
        if self.rr == 0.0:
            return (t * t * self.dd) ** (0.5 * p) / p
        q = t * (2.0 * self.rd + t * self.dd) / self.rr
        if q <= -1.0:  # the segment passes through shift (q < -1 by rounding)
            return -(self.rr ** (0.5 * p)) / p
        return self.rr ** (0.5 * p) / p * math.expm1(0.5 * p * math.log1p(q))

    def gradient(self, t: float) -> Vec:
        return _pnorm_gradient(self.p, self.r + t * self.d)


# keys (see _key) of the last _CERTIFIED_MAX matrices that passed _certify,
# oldest first; no array is kept.  The lock makes insert-and-trim one step
# for threads that construct at once.
_CERTIFIED: dict[tuple[tuple[int, ...], int], None] = {}
_CERTIFIED_MAX = 32
_CERTIFIED_LOCK = threading.Lock()


def _key(Q: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Q's shape and a hash of its bytes in C order, so any memory layout of
    one matrix gets one key.  The bytes are hashed in blocks of rows of
    about 256 kB, which stay in cache, rather than as one full copy of Q."""
    step = 1 + (1 << 15) // (Q.shape[1] + 1)
    return Q.shape, hash(tuple(hash(Q[i : i + step].tobytes()) for i in range(0, Q.shape[0], step)))


def _certify(Q: np.ndarray) -> None:
    """Raise ValueError unless Q is finite, symmetric and positive semidefinite."""
    if not np.isfinite(Q).all():
        raise ValueError("Q and c must be finite")
    if not (np.array_equal(Q, Q.T) or np.allclose(Q, Q.T, atol=1e-12)):
        raise ValueError("Q must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(Q)
        if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
            raise ValueError(f"Q must be positive semidefinite, smallest eigenvalue {eigs.min()}") from None


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
        if key not in _CERTIFIED:
            _certify(Q)
            with _CERTIFIED_LOCK:
                _CERTIFIED[key] = None
                if len(_CERTIFIED) > _CERTIFIED_MAX:
                    del _CERTIFIED[next(iter(_CERTIFIED))]
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def value(self, x: Vec) -> float:
        return self.value_and_grad(x)[0]

    def gradient(self, x: Vec) -> Vec:
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x: Vec) -> tuple[float, Vec]:
        """One product with Q for both the value and the gradient."""
        _check_point(self.dim, "objective", x)
        Qx = self.Q @ x
        return float(0.5 * (x @ Qx) + self.b @ x + self.c), Qx + self.b

    def segment(self, x: Vec, f: float, g: Vec, d: Vec) -> Segment:
        """One product with Q, for Qd; each decrease(t) is then O(1)."""
        _check_point(self.dim, "objective", d)
        return _QuadraticSegment(g, d, self.Q @ d)


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

    def value_and_grad(self, x: Vec) -> tuple[float, Vec]:
        s = self._scores(x)
        return _logsumexp(s), self.rows.T @ _softmax(s)

    def segment(self, x: Vec, f: float, g: Vec, d: Vec) -> Segment:
        """One pass over the rows for both the scores at x and A d."""
        _check_point(self.dim, "objective", x, d)
        xd = self.rows @ np.column_stack((x, d))
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
    g + t Qd, both exact polynomials in t once Qd is known."""

    def __init__(self, g: Vec, d: Vec, Qd: Vec) -> None:
        self.g, self.Qd = g, Qd
        self.gd, self.dQd = float(g @ d), float(d @ Qd)

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

    def __init__(self, obj, x: Vec, f: float, d: Vec) -> None:
        self.obj, self.x, self.f, self.d = obj, x, f, d

    def decrease(self, t: float) -> float:
        return self.obj.value(self.x + t * self.d) - self.f

    def gradient(self, t: float) -> Vec:
        return self.obj.gradient(self.x + t * self.d)


Objective = Union[PNorm, Quadratic, LogSumExp]


def value_and_grad(obj: Objective, x: Vec) -> tuple[float, Vec]:
    """The objective's value_and_grad, or its value and gradient."""
    fused = getattr(obj, "value_and_grad", None)
    return fused(x) if fused is not None else (obj.value(x), obj.gradient(x))


def segment(obj: Objective, x: Vec, f: float, g: Vec, d: Vec) -> Segment:
    """The objective's segment along x + t d, or one built from value and
    gradient."""
    build = getattr(obj, "segment", None)
    return build(x, f, g, d) if build is not None else _ValueSegment(obj, x, f, d)


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
