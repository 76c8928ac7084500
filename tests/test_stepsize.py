import numpy as np
import pytest

from projgrad import (
    Ball,
    Box,
    LineSearchError,
    PNorm,
    Quadratic,
    armijo_boundary,
    armijo_feasible_direction,
    exogenous_step,
)
from projgrad.core import dot, norm


def quartic_1d():
    """f(x) = x^4 / 4 as a hand-rolled oracle (no catalog equivalent)."""

    class Quartic:
        def value(self, x):
            return float(x[0] ** 4 / 4)

        def gradient(self, x):
            return np.array([x[0] ** 3])

    return Quartic()


def scan_feasible_direction(obj, xk, wk, theta, delta, j_max=80):
    """Exhaustive-scan oracle for the smallest accepted backtracking index."""
    fk = obj.value(xk)
    d = dot(obj.gradient(xk), xk - wk)
    for j in range(j_max):
        t = theta**j
        if obj.value(t * wk + (1 - t) * xk) <= fk - delta * t * d:
            return j
    return None


def test_feasible_direction_worked_example():
    # f(x) = x^2/2 over [1, inf) from x=2 with unit stepsize: full step accepted
    obj = Quadratic(Q=np.array([[1.0]]), b=np.zeros(1))
    box = Box(lower=np.array([1.0]), upper=np.array([np.inf]))
    xk = np.array([2.0])
    wk = box.project(xk - obj.gradient(xk))
    assert np.array_equal(wk, [1.0])
    res = armijo_feasible_direction(obj, xk, wk, theta=0.5, delta=0.5, max_inner=100)
    assert res.trials == 0
    assert res.alpha == 1.0
    assert np.array_equal(res.trial_point, [1.0])
    assert res.f_trial == 0.5


def test_feasible_direction_quartic_matches_scan():
    obj = quartic_1d()
    box = Box(lower=np.array([-10.0]), upper=np.array([10.0]))
    xk = np.array([2.0])
    wk = box.project(xk - obj.gradient(xk))
    assert np.array_equal(wk, [-6.0])
    res = armijo_feasible_direction(obj, xk, wk, theta=0.5, delta=0.5, max_inner=100)
    want = scan_feasible_direction(obj, xk, wk, 0.5, 0.5)
    assert want == 4
    assert res.trials == want
    assert res.alpha == 0.5**4


def test_feasible_direction_minimality():
    # at the returned index the inequality holds, at index-1 it fails
    rng = np.random.default_rng(23)
    obj = PNorm(p=4.0, shift=np.array([2.0, 0.0]))
    ball = Ball(center=np.zeros(2), radius=1.0)
    for _ in range(50):
        xk = ball.project(rng.uniform(-1, 1, 2))
        wk = ball.project(xk - obj.gradient(xk))
        if norm(xk - wk) < 1e-12:
            continue
        res = armijo_feasible_direction(obj, xk, wk, theta=0.5, delta=1e-4, max_inner=100)
        fk = obj.value(xk)
        d = dot(obj.gradient(xk), xk - wk)
        if res.trials > 0:
            t = 0.5 ** (res.trials - 1)
            assert obj.value(t * wk + (1 - t) * xk) > fk - 1e-4 * t * d
        t = 0.5**res.trials
        assert res.f_trial <= fk - 1e-4 * t * d
        # descent
        assert res.f_trial <= fk


def test_feasible_direction_rejects_nondescent():
    obj = Quadratic(Q=np.eye(1), b=np.zeros(1))
    with pytest.raises(ValueError):
        armijo_feasible_direction(obj, np.array([1.0]), np.array([1.0]), 0.5, 0.5, 10)


def test_feasible_direction_budget_error():
    class Broken:
        def value(self, x):
            return float(x[0])

        def gradient(self, x):
            return np.array([-1.0])  # wrong sign: claims descent toward larger f

    with pytest.raises(LineSearchError):
        armijo_feasible_direction(Broken(), np.array([1.0]), np.array([2.0]), 0.5, 0.5, 20)


def test_boundary_worked_example():
    obj = Quadratic(Q=np.array([[1.0]]), b=np.zeros(1))
    box = Box(lower=np.array([1.0]), upper=np.array([np.inf]))
    res = armijo_boundary(obj, box, np.array([2.0]), beta_bar=1.0, theta=0.5, delta=0.5, max_inner=100)
    assert res.trials == 0
    assert res.beta == 1.0
    assert np.array_equal(res.trial_point, [1.0])
    assert res.alpha == 1.0


def test_boundary_stationary_point_accepts_first_trial():
    # interior optimum: the first trial projects back onto the iterate and the
    # sufficient decrease holds with equality
    obj = Quadratic(Q=2.0 * np.eye(1), b=np.array([-2.0]))
    box = Box(lower=np.zeros(1), upper=np.full(1, 2.0))
    res = armijo_boundary(obj, box, np.array([1.0]), beta_bar=1.0, theta=0.5, delta=0.5, max_inner=100)
    assert res.trials == 0
    assert np.array_equal(res.trial_point, [1.0])


def test_boundary_quartic_matches_scan():
    obj = quartic_1d()
    box = Box(lower=np.array([-10.0]), upper=np.array([10.0]))
    xk = np.array([2.0])
    fk = obj.value(xk)
    g = obj.gradient(xk)
    want = None
    for ell in range(80):
        w = box.project(xk - 0.5**ell * g)
        if obj.value(w) <= fk - 0.5 * dot(g, xk - w):
            want = ell
            break
    assert want == 4
    res = armijo_boundary(obj, box, xk, beta_bar=1.0, theta=0.5, delta=0.5, max_inner=100)
    assert res.trials == want
    assert res.beta == 0.5**4
    assert res.f_trial <= fk


def test_boundary_descent():
    rng = np.random.default_rng(29)
    obj = PNorm(p=1.5, shift=np.array([2.0, 0.5]))
    box = Box(lower=np.zeros(2), upper=np.ones(2))
    for _ in range(30):
        xk = box.project(rng.uniform(0, 1, 2))
        res = armijo_boundary(obj, box, xk, beta_bar=1.0, theta=0.5, delta=1e-4, max_inner=100)
        assert res.f_trial <= obj.value(xk)


def test_exogenous_step():
    assert exogenous_step(2.0, 0, 1.0) == 0.5
    assert exogenous_step(1.0, 9, 1.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        exogenous_step(0.0, 0, 1.0)
    with pytest.raises(ValueError):
        exogenous_step(1.0, 0, 0.0)
    # the schedule c/(k+1) diverges in sum and is square-summable
    deltas = np.array([1.0 / (k + 1) for k in range(10000)])
    assert deltas.sum() > 9.0
    assert (deltas**2).sum() < np.pi**2 / 6 + 1e-9


def test_finite_termination_across_catalog():
    # every catalog objective/set pair terminates well under the trial budget
    rng = np.random.default_rng(31)
    pairs = [
        (Quadratic(Q=np.eye(2), b=np.array([-2.0, -2.0]), c=4.0), Box(lower=np.zeros(2), upper=np.ones(2))),
        (PNorm(p=4.0, shift=np.array([2.0, 0.0])), Ball(center=np.zeros(2), radius=1.0)),
        (PNorm(p=1.5, shift=np.array([2.0, 0.5])), Box(lower=np.zeros(2), upper=np.ones(2))),
    ]
    for obj, set_ in pairs:
        for _ in range(50):
            xk = set_.project(rng.uniform(-1, 2, 2))
            wk = set_.project(xk - obj.gradient(xk))
            if norm(xk - wk) < 1e-9:
                continue
            res = armijo_feasible_direction(obj, xk, wk, theta=0.5, delta=1e-4, max_inner=100)
            assert res.trials < 80
