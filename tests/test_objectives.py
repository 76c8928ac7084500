import dataclasses
import sys
import threading
import weakref

import numpy as np
import pytest

from projgrad import LogSumExp, PNorm, Point, Quadratic, Step, check_gradient, objectives
from projgrad.core import dot, norm


@pytest.fixture(autouse=True)
def empty_certified_memo(monkeypatch):
    # each test certifies its matrices afresh, whichever tests ran before it
    monkeypatch.setattr(objectives, "_CERTIFIED", {})


def test_pnorm_values():
    f = PNorm(p=2.0, shift=np.zeros(2))
    assert f.value(np.array([3.0, 4.0])) == pytest.approx(12.5)
    assert PNorm(p=4.0, shift=np.zeros(2)).value(np.zeros(2)) == 0.0
    q = Quadratic(Q=np.eye(2), b=np.zeros(2))
    assert q.value(np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_gradients():
    f2 = PNorm(p=2.0, shift=np.zeros(2))
    assert np.allclose(f2.gradient(np.array([3.0, 4.0])), [3.0, 4.0])
    f4 = PNorm(p=4.0, shift=np.zeros(2))
    assert np.allclose(f4.gradient(np.array([1.0, 0.0])), [1.0, 0.0])
    q = Quadratic(Q=np.diag([2.0, 2.0]), b=np.array([-2.0, 0.0]))
    assert np.allclose(q.gradient(np.array([1.0, 0.0])), [0.0, 0.0])


def test_pnorm_gradient_at_shift_is_zero():
    for p in (1.5, 2.0, 3.0, 4.0):
        f = PNorm(p=p, shift=np.array([1.0, -2.0]))
        assert np.array_equal(f.gradient(np.array([1.0, -2.0])), [0.0, 0.0])


def test_check_gradient_examples():
    assert check_gradient(Quadratic(Q=np.eye(2), b=np.zeros(2)), np.array([1.0, 2.0]), 1e-5) <= 1e-9
    assert check_gradient(PNorm(p=4.0, shift=np.zeros(2)), np.array([1.0, 1.0]), 1e-5) <= 1e-7
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2, 2, 3)
        assert check_gradient(PNorm(p=2.0, shift=np.zeros(3)), x, 1e-5) <= 1e-9


def test_logsumexp_value_and_gradient():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 3))
    t = rng.standard_normal(4)
    f = LogSumExp(rows=A, offsets=t)
    x = rng.standard_normal(3)
    scores = A @ x + t
    assert f.value(x) == pytest.approx(np.log(np.exp(scores).sum()))
    assert check_gradient(f, x, 1e-5) <= 1e-8
    # stable for large scores
    big = f.value(np.full(3, 50.0))
    assert np.isfinite(big)


def test_convexity_monotonicity_random():
    rng = np.random.default_rng(17)
    objectives = [
        PNorm(p=1.5, shift=rng.standard_normal(3)),
        PNorm(p=4.0, shift=rng.standard_normal(3)),
        Quadratic(Q=np.diag([1.0, 2.0, 0.5]), b=rng.standard_normal(3)),
        LogSumExp(rows=rng.standard_normal((4, 3)), offsets=rng.standard_normal(4)),
    ]
    for obj in objectives:
        for _ in range(200):
            x = rng.uniform(-3, 3, 3)
            y = rng.uniform(-3, 3, 3)
            # gradient monotonicity
            assert dot(obj.gradient(x) - obj.gradient(y), x - y) >= -1e-10
            # gradient inequality
            assert obj.value(y) >= obj.value(x) + dot(obj.gradient(x), y - x) - 1e-10


def test_check_gradient_error_decays_quadratically():
    f = PNorm(p=4.0, shift=np.zeros(2))
    x = np.array([1.3, -0.7])
    coarse = check_gradient(f, x, 1e-2)
    fine = check_gradient(f, x, 1e-3)
    assert fine <= coarse / 50.0  # h down 10x, error down ~100x


def test_pnorm4_gradient_not_lipschitz():
    # difference quotients of the gradient grow with the base point: the
    # ratio at norm 1e3 exceeds the ratio at norm 1 by at least 1e4
    f = PNorm(p=4.0, shift=np.zeros(2))
    e = np.array([1.0, 0.0])
    h = 1e-3 * np.array([1.0, 0.0])

    def ratio(scale):
        x = scale * e
        return norm(f.gradient(x + h) - f.gradient(x)) / norm(h)

    assert ratio(1e3) >= 1e4 * ratio(1.0)


def test_objective_validation():
    with pytest.raises(ValueError):
        PNorm(p=1.0, shift=np.zeros(2))
    with pytest.raises(ValueError):
        LogSumExp(rows=np.zeros((2, 2)), offsets=np.zeros(3))
    with pytest.raises(ValueError):
        PNorm(p=2.0, shift=np.zeros(2)).value(np.zeros(3))
    with pytest.raises(ValueError):
        check_gradient(Quadratic(Q=np.eye(1), b=np.zeros(1)), np.zeros(1), 0.0)


def _dense_pd(n):
    M = np.random.default_rng(3).standard_normal((n, n))
    return M.T @ M / n + 0.5 * np.eye(n)


def _with_spectrum(eigs):
    """U diag(eigs) U' for a fixed orthogonal U, made exactly symmetric."""
    U, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((len(eigs), len(eigs))))
    Q = (U * eigs) @ U.T
    return 0.5 * (Q + Q.T)


def _skewed(rel):
    """A positive definite Q whose (0, 1) entry exceeds its (1, 0) entry by rel."""
    Q = _dense_pd(5)
    Q[0, 1] *= 1.0 + rel
    return Q


# each Q with the verdict of the rule "symmetric to np.allclose(atol=1e-12)
# and smallest eigenvalue >= -1e-10 max(1, |largest|)": None accepts, a
# string is the start of the rejection message
PSD_VERDICTS = {
    "dense-pd-300": (lambda: _dense_pd(300), None),
    "flat-quadratic": (lambda: np.diag([1.0, 0.0]), None),
    "rank-one-50": (lambda: np.ones((50, 50)), None),
    "lambda-min-minus-1e-12": (lambda: _with_spectrum([1.0, 0.5, 0.25, -1e-12]), None),
    "asymmetric-1e-9": (lambda: _skewed(1e-9), None),
    "lambda-min-minus-1e-8": (lambda: _with_spectrum([1.0, 0.5, 0.25, -1e-8]), "Q must be positive semidefinite"),
    "minus-one": (lambda: np.array([[-1.0]]), "Q must be positive semidefinite"),
    "asymmetric-1e-3": (lambda: _skewed(1e-3), "Q must be symmetric"),
    "upper-triangular": (lambda: np.array([[0.0, 1.0], [0.0, 0.0]]), "Q must be symmetric"),
}


@pytest.mark.parametrize("make, verdict", PSD_VERDICTS.values(), ids=PSD_VERDICTS.keys())
def test_quadratic_psd_verdicts(make, verdict):
    Q = make()
    b = np.zeros(Q.shape[0])
    if verdict is None:
        Quadratic(Q=Q, b=b)
        return
    with pytest.raises(ValueError, match=verdict) as excinfo:
        Quadratic(Q=Q, b=b)
    if "semidefinite" in verdict:
        # the message names the smallest eigenvalue, as eigvalsh computes it
        assert float(str(excinfo.value).rsplit(" ", 1)[1]) == np.linalg.eigvalsh(Q).min()


def test_positive_definite_quadratic_computes_no_eigenvalues(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called on an exactly symmetric positive definite Q")

    Q = _dense_pd(300)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np, "allclose", refuse)
    Quadratic(Q=Q, b=np.zeros(300))


def _verdict(Q):
    """None if Quadratic accepts Q, else its error message."""
    try:
        Quadratic(Q=Q, b=np.zeros(Q.shape[0]))
    except ValueError as exc:
        return str(exc)
    return None


def test_equal_content_is_certified_once(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda Q: calls.append(Q.shape) or cholesky(Q))
    Q = _dense_pd(50)
    Quadratic(Q=Q, b=np.zeros(50))
    # a distinct array with equal content, another b and c: no second factorization
    Quadratic(Q=Q.copy(), b=np.ones(50), c=2.0)
    assert calls == [(50, 50)]


def test_in_place_edit_is_certified_again(monkeypatch):
    Q = _with_spectrum([1.0, 0.5, 0.25, 0.125])
    Quadratic(Q=Q, b=np.zeros(4))
    Q[:] = _with_spectrum([1.0, 0.5, 0.25, -1e-8])
    with pytest.raises(ValueError, match="Q must be positive semidefinite") as excinfo:
        Quadratic(Q=Q, b=np.zeros(4))
    assert float(str(excinfo.value).rsplit(" ", 1)[1]) == np.linalg.eigvalsh(Q).min()

    # an edit that leaves Q symmetric only to np.allclose is certified
    # again, and products with the new objective then read Q, not its rows
    Q = _dense_pd(64)
    assert Quadratic(Q=Q, b=np.zeros(64))._exactly_symmetric
    Q[0, 1] += 1e-13
    calls = _count_certify(monkeypatch)
    edited = Quadratic(Q=Q, b=np.zeros(64))
    assert calls == [(64, 64)] and not edited._exactly_symmetric
    assert edited._times(_unit(64, 1))[0] == Q[0, 1] != Q[1, 0]


def _count_certify(monkeypatch):
    """The shapes of the matrices _certify checks from now on."""
    calls = []
    certify = objectives._certify
    monkeypatch.setattr(objectives, "_certify", lambda Q: calls.append(Q.shape) or certify(Q))
    return calls


def _unit(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _sparse(n, k, seed):
    """A vector of n entries with k standard normal ones at random places."""
    rng = np.random.default_rng(seed)
    v = np.zeros(n)
    v[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    return v


def test_product_is_the_plain_product_below_the_floor_or_the_share():
    floor, share = objectives._SUPPORT_FLOOR, objectives._SUPPORT_SHARE
    cases = [(floor - 1, 1), (3, 1), (floor, floor // share + 1), (2000, 2000 // share + 1), (2000, 2000)]
    for n, k in cases:
        Q = _dense_pd(n)
        q = Quadratic(Q=Q, b=np.zeros(n))
        assert q._exactly_symmetric
        v = _sparse(n, k, seed=n + k)
        assert q._times(v).tobytes() == (Q @ v).tobytes(), (n, k)


def test_nearly_symmetric_q_takes_the_plain_product():
    Q = _dense_pd(64)
    Q[0, 1] += 1e-13  # symmetric to np.allclose, not exactly
    q = Quadratic(Q=Q, b=np.zeros(64))
    assert not q._exactly_symmetric
    for v in (_unit(64, 1), _sparse(64, 8, seed=5), np.zeros(64)):
        assert q._times(v).tobytes() == (Q @ v).tobytes()
    assert q._times(_unit(64, 1))[0] == Q[0, 1]


@pytest.mark.parametrize("n", [64, 2000])
def test_sparse_product_reads_the_support_rows(n):
    Q = _dense_pd(n)
    q = Quadratic(Q=Q, b=np.zeros(n))
    eps = np.finfo(np.float64).eps
    for k in sorted({1, max(1, n // 100), n // objectives._SUPPORT_SHARE}):
        v = _sparse(n, k, seed=k)
        S = np.flatnonzero(v)
        Qv = q._times(v)
        assert Qv.tobytes() == (v[S] @ Q[S]).tobytes(), k
        # each entry is a sum of the same k products as in Q @ v
        assert np.all(np.abs(Qv - Q @ v) <= 4.0 * eps * (np.abs(Q) @ np.abs(v))), k
    assert not q._times(np.zeros(n)).any()


def test_memo_hit_keeps_the_exact_symmetry_fact(monkeypatch):
    exact = _dense_pd(64)
    nearly = exact.copy()
    nearly[0, 1] += 1e-13
    first = [Quadratic(Q=Q, b=np.zeros(64))._exactly_symmetric for Q in (exact, nearly)]
    calls = _count_certify(monkeypatch)
    again = [Quadratic(Q=Q.copy(), b=np.ones(64))._exactly_symmetric for Q in (exact, nearly)]
    assert first == again == [True, False] and calls == []
    # the fact is no dataclass field: fields and repr are those of (Q, b, c)
    q = Quadratic(Q=np.eye(2), b=np.zeros(2))
    assert [f.name for f in dataclasses.fields(q)] == ["Q", "b", "c"]
    assert "_exactly_symmetric" not in repr(q)


REJECTED = {name: make for name, (make, verdict) in PSD_VERDICTS.items() if verdict is not None}


@pytest.mark.parametrize("make", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_matrix_is_never_recorded(make):
    Q = make()
    first = _verdict(Q)
    assert first is not None and _verdict(Q) == first
    assert not objectives._CERTIFIED


def test_memo_hit_still_validates_b_and_c():
    Q = _dense_pd(5)
    Quadratic(Q=Q, b=np.zeros(5))
    with pytest.raises(ValueError, match="match b"):
        Quadratic(Q=Q, b=np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        Quadratic(Q=Q, b=np.zeros(5), c=np.nan)
    with pytest.raises(ValueError, match="finite"):
        Quadratic(Q=Q, b=np.full(5, np.inf))


@pytest.mark.parametrize("make", [make for make, _ in PSD_VERDICTS.values()], ids=PSD_VERDICTS.keys())
def test_fortran_order_gets_the_same_verdict(make):
    Q = make()
    fortran = np.asfortranarray(Q)
    assert objectives._key(fortran) == objectives._key(Q)
    assert _verdict(fortran) == _verdict(Q)


def test_memo_is_bounded_and_keeps_no_array():
    Q = _dense_pd(50)
    ref = weakref.ref(Q)
    Quadratic(Q=Q, b=np.zeros(50))
    del Q
    assert ref() is None
    for k in range(2 * objectives._CERTIFIED_MAX):
        Quadratic(Q=np.array([[k + 1.0]]), b=np.zeros(1))
    assert len(objectives._CERTIFIED) == objectives._CERTIFIED_MAX
    assert objectives._key(np.array([[1.0]])) not in objectives._CERTIFIED


def test_concurrent_constructions_keep_the_bound():
    errors = []

    def construct(first):
        try:
            for k in range(first, first + 2500):
                Quadratic(Q=np.array([[k + 1.0]]), b=np.zeros(1))
        except Exception as exc:  # collected for the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=construct, args=(2500 * t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(objectives._CERTIFIED) == objectives._CERTIFIED_MAX


@pytest.mark.parametrize(
    "make",
    [
        lambda: PNorm(p=np.nan, shift=np.zeros(2)),
        lambda: PNorm(p=np.inf, shift=np.zeros(2)),
        lambda: Quadratic(Q=np.eye(2), b=np.zeros(2), c=np.nan),
        lambda: Quadratic(Q=np.diag([1.0, np.inf]), b=np.zeros(2)),
        lambda: LogSumExp(rows=np.array([[1.0, np.nan], [0.0, 1.0]]), offsets=np.zeros(2)),
    ],
    ids=["pnorm-p-nan", "pnorm-p-inf", "quadratic-c-nan", "quadratic-q-inf", "logsumexp-rows-nan"],
)
def test_objective_rejects_non_finite_parameters(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def _segment_cases():
    rng = np.random.default_rng(41)
    n = 6
    M = rng.standard_normal((n, n))
    return [
        Quadratic(Q=M.T @ M + 0.5 * np.eye(n), b=rng.standard_normal(n), c=500.0),
        LogSumExp(rows=rng.standard_normal((2 * n, n)), offsets=rng.standard_normal(2 * n)),
        PNorm(p=1.5, shift=rng.standard_normal(n)),
        PNorm(p=4.0, shift=rng.standard_normal(n)),
    ], rng


@pytest.mark.parametrize("case", range(4))
def test_segment_matches_value_and_gradient(case):
    objectives, rng = _segment_cases()
    obj = objectives[case]
    theta = 0.5
    eps = np.finfo(float).eps
    for _ in range(20):
        x = rng.uniform(-2, 2, 6)
        _, f, g, _ = obj.evaluate(x)
        assert f == obj.value(x)
        assert np.array_equal(g, obj.gradient(x))
        at = Point(x, f, g)
        step = Step.between(at, x + rng.uniform(-2, 2, 6))
        seg, d = obj.segment(at, step), step.d
        for t in (1.0, theta, theta**10):
            y = x + t * d
            diff = obj.value(y) - f
            # the difference of two values carries their rounding; the
            # segment's decrease must agree up to it
            rounding = 8.0 * eps * (abs(f) + abs(obj.value(y)))
            assert abs(seg.decrease(t) - diff) <= 1e-12 * abs(diff) + rounding
            want = obj.gradient(y)
            assert norm(seg.gradient(t) - want) <= 1e-12 * norm(want)


def test_segment_sees_decrease_below_value_resolution():
    # f ~ 500, so one ulp of f is ~1.1e-13; the decrease at t = 1e-9 is
    # ~1e-18 and vanishes in value(x + t d) - value(x)
    obj = Quadratic(Q=np.eye(2), b=np.zeros(2), c=500.0)
    x, d = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    at = obj.evaluate(x)
    t = 1e-18
    assert obj.value(x + t * d) - at.f == 0.0
    assert obj.segment(at, Step.between(at, x + d)).decrease(t) == pytest.approx(-t + 0.5 * t * t, rel=1e-15)


def test_logsumexp_segment_far_along_the_line():
    # t * (A d) overflows expm1: the decrease falls back to the difference of values
    obj = LogSumExp(rows=np.array([[1.0], [-1.0]]), offsets=np.zeros(2))
    x, d = np.zeros(1), np.array([1000.0])
    at = obj.evaluate(x)
    seg = obj.segment(at, Step.between(at, x + d))
    assert seg.decrease(1.0) == pytest.approx(obj.value(x + d) - at.f, rel=1e-15)
    assert seg.decrease(-1.0) == pytest.approx(obj.value(x - d) - at.f, rel=1e-15)


def test_pnorm_segment_through_the_shift():
    obj = PNorm(p=3.0, shift=np.array([1.0, 1.0]))
    x, d = np.array([2.0, 3.0]), np.array([-1.0, -2.0])
    at = obj.evaluate(x)
    seg = obj.segment(at, Step.between(at, x + d))
    assert seg.decrease(1.0) == pytest.approx(-at.f, rel=1e-15)
    assert np.array_equal(seg.gradient(1.0), [0.0, 0.0])
    shift = Point(obj.shift, 0.0, np.zeros(2))
    at_shift = obj.segment(shift, Step.between(shift, obj.shift + d))
    assert at_shift.decrease(0.5) == pytest.approx(obj.value(obj.shift + 0.5 * d))


def test_carried_quadratic_gradient_drift():
    rng = np.random.default_rng(7)
    n = 50
    M = rng.standard_normal((n, n))
    obj = Quadratic(Q=M.T @ M + 0.5 * np.eye(n), b=rng.standard_normal(n))
    x = rng.uniform(-1, 1, n)
    _, f, g, _ = obj.evaluate(x)
    worst = 0.0
    for _ in range(5000):
        w = rng.uniform(-1, 1, n)
        t = 0.5 ** int(rng.integers(0, 11))
        seg = obj.segment(Point(x, f, g), Step.between(Point(x, f, g), w))
        f, g = f + seg.decrease(t), seg.gradient(t)
        x = t * w + (1.0 - t) * x  # the point the feasible-direction search returns
        exact = obj.Q @ x + obj.b
        worst = max(worst, norm(g - exact) / norm(exact))
    assert worst <= 1e-10
