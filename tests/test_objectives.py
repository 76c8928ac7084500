import numpy as np
import pytest

from projgrad import LogSumExp, PNorm, Quadratic, check_gradient
from projgrad.core import dot, norm


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
        Quadratic(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.zeros(2))  # not symmetric
    with pytest.raises(ValueError):
        Quadratic(Q=np.array([[-1.0]]), b=np.zeros(1))  # not PSD
    with pytest.raises(ValueError):
        LogSumExp(rows=np.zeros((2, 2)), offsets=np.zeros(3))
    with pytest.raises(ValueError):
        PNorm(p=2.0, shift=np.zeros(2)).value(np.zeros(3))
    with pytest.raises(ValueError):
        check_gradient(Quadratic(Q=np.eye(1), b=np.zeros(1)), np.zeros(1), 0.0)


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
        d = rng.uniform(-2, 2, 6)
        f, g = obj.value_and_grad(x)
        assert f == obj.value(x)
        assert np.array_equal(g, obj.gradient(x))
        seg = obj.segment(x, f, g, d)
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
    f, g = obj.value_and_grad(x)
    t = 1e-18
    assert obj.value(x + t * d) - f == 0.0
    assert obj.segment(x, f, g, d).decrease(t) == pytest.approx(-t + 0.5 * t * t, rel=1e-15)


def test_logsumexp_segment_far_along_the_line():
    # t * (A d) overflows expm1: the decrease falls back to the difference of values
    obj = LogSumExp(rows=np.array([[1.0], [-1.0]]), offsets=np.zeros(2))
    x, d = np.zeros(1), np.array([1000.0])
    f, g = obj.value_and_grad(x)
    seg = obj.segment(x, f, g, d)
    assert seg.decrease(1.0) == pytest.approx(obj.value(x + d) - f, rel=1e-15)
    assert seg.decrease(-1.0) == pytest.approx(obj.value(x - d) - f, rel=1e-15)


def test_pnorm_segment_through_the_shift():
    obj = PNorm(p=3.0, shift=np.array([1.0, 1.0]))
    x, d = np.array([2.0, 3.0]), np.array([-1.0, -2.0])
    f, g = obj.value_and_grad(x)
    seg = obj.segment(x, f, g, d)
    assert seg.decrease(1.0) == pytest.approx(-f, rel=1e-15)
    assert np.array_equal(seg.gradient(1.0), [0.0, 0.0])
    at_shift = obj.segment(obj.shift, 0.0, np.zeros(2), d)
    assert at_shift.decrease(0.5) == pytest.approx(obj.value(obj.shift + 0.5 * d))


def test_carried_quadratic_gradient_drift():
    rng = np.random.default_rng(7)
    n = 50
    M = rng.standard_normal((n, n))
    obj = Quadratic(Q=M.T @ M + 0.5 * np.eye(n), b=rng.standard_normal(n))
    x = rng.uniform(-1, 1, n)
    f, g = obj.value_and_grad(x)
    worst = 0.0
    for _ in range(5000):
        w = rng.uniform(-1, 1, n)
        t = 0.5 ** int(rng.integers(0, 11))
        seg = obj.segment(x, f, g, w - x)
        f, g = f + seg.decrease(t), seg.gradient(t)
        x = t * w + (1.0 - t) * x  # the point the feasible-direction search returns
        exact = obj.Q @ x + obj.b
        worst = max(worst, norm(g - exact) / norm(exact))
    assert worst <= 1e-10
