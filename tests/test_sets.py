import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from projgrad import (
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    IntersectionError,
    Simplex,
    WholeSpace,
    project_intersection,
)
from projgrad.core import dot, norm
from projgrad.oracle import projection_oracle


def brute_simplex_projection(x, scale):
    """KKT enumeration oracle: zero out every possible support complement,
    shift the rest by a common threshold, keep the feasible candidate closest
    to x."""
    n = len(x)
    best, best_dist = None, np.inf
    for zeros in itertools.chain.from_iterable(itertools.combinations(range(n), r) for r in range(n)):
        keep = [i for i in range(n) if i not in zeros]
        theta = (sum(x[i] for i in keep) - scale) / len(keep)
        cand = np.zeros(n)
        for i in keep:
            cand[i] = x[i] - theta
        if np.any(cand < -1e-12):
            continue
        d = norm(cand - x)
        if d < best_dist:
            best, best_dist = cand, d
    return best


def random_set(rng, dim):
    kind = int(rng.integers(0, 6))
    if kind == 0:
        lo = rng.uniform(-2, 0, dim)
        return Box(lower=lo, upper=lo + rng.uniform(0.5, 2.5, dim))
    if kind == 1:
        return Ball(center=rng.uniform(-1, 1, dim), radius=rng.uniform(0.5, 2.0))
    if kind == 2:
        n = rng.standard_normal(dim)
        return Halfspace(normal=n / max(norm(n), 1e-12), offset=rng.uniform(-1, 1))
    if kind == 3:
        n = rng.standard_normal(dim)
        return Hyperplane(normal=n / max(norm(n), 1e-12), offset=rng.uniform(-1, 1))
    if kind == 4:
        return Simplex(scale=rng.uniform(0.5, 2.0))
    return WholeSpace()


def test_project_examples():
    box = Box(lower=np.zeros(2), upper=np.ones(2))
    assert np.array_equal(box.project(np.array([2.0, -1.0])), [1.0, 0.0])
    ball = Ball(center=np.zeros(2), radius=1.0)
    assert np.allclose(ball.project(np.array([2.0, 0.0])), [1.0, 0.0])
    hs = Halfspace(normal=np.array([1.0, 0.0]), offset=0.0)
    assert np.allclose(hs.project(np.array([3.0, 5.0])), [0.0, 5.0])


def test_simplex_projection_matches_kkt_enumeration():
    simplex = Simplex(scale=1.0)
    x = np.array([0.6, 0.6])
    assert np.allclose(simplex.project(x), [0.5, 0.5], atol=1e-12)
    assert np.allclose(brute_simplex_projection(x, 1.0), [0.5, 0.5], atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        scale = float(rng.uniform(0.5, 3.0))
        v = rng.uniform(-2, 2, dim)
        got = Simplex(scale=scale).project(v)
        want = brute_simplex_projection(v, scale)
        assert np.allclose(got, want, atol=1e-9)


def test_contains_examples():
    assert Box(lower=np.zeros(1), upper=np.ones(1)).contains(np.array([0.5]), 0.0)
    assert Ball(center=np.zeros(1), radius=1.0).contains(np.array([1.0 + 1e-12]), 1e-9)
    assert not Halfspace(normal=np.array([1.0]), offset=0.0).contains(np.array([0.1]), 0.0)


def test_halfcut_projection_examples():
    # a single cut over the whole space: the halfspace projection
    def onto(cut, x):
        return project_intersection(WholeSpace(), [cut], x)

    cut = Halfspace(normal=np.array([0.0, 1.0]), offset=0.0)
    assert np.allclose(onto(cut, np.array([4.0, 3.0])), [4.0, 0.0])
    boundary = Halfspace(normal=np.array([1.0, 1.0]), offset=2.0)
    assert np.allclose(onto(boundary, np.array([1.0, 1.0])), [1.0, 1.0])
    scaled = Halfspace(normal=np.array([2.0, 0.0]), offset=2.0)
    assert np.allclose(onto(scaled, np.array([3.0, 0.0])), [1.0, 0.0])


def test_intersection_examples():
    # single halfspace over the whole space
    got = project_intersection(WholeSpace(), [Halfspace(normal=np.array([1.0, 0.0]), offset=1.0)], np.array([3.0, 0.0]))
    assert np.allclose(got, [1.0, 0.0], atol=1e-9)
    # no cuts reduces exactly to the base projection
    box = Box(lower=np.zeros(2), upper=np.full(2, 2.0))
    got = project_intersection(box, [], np.array([-1.0, 3.0]))
    assert np.array_equal(got, [0.0, 2.0])


def test_intersection_ball_cut_matches_qp_oracle():
    ball = Ball(center=np.zeros(2), radius=1.0)
    cut = Halfspace(normal=np.array([-1.0, 0.0]), offset=-0.5)  # x1 >= 0.5
    anchor = np.array([0.0, 2.0])
    got = project_intersection(ball, [cut], anchor)
    ref = projection_oracle(ball, [cut], anchor)
    expected = np.array([0.5, np.sqrt(0.75)])
    assert np.allclose(got, ref, atol=1e-8)
    assert np.allclose(got, expected, atol=1e-8)


@pytest.mark.parametrize("base", [
    WholeSpace(),
    Ball(center=np.zeros(2), radius=2.0),
    Halfspace(normal=np.array([0.0, 1.0]), offset=5.0),
], ids=["wholespace", "ball", "halfspace"])
def test_contradictory_cuts_fail_after_every_pattern_and_one_base_projection(base):
    # x1 <= -1 and x1 >= 1 share no point: each cut alone is solved on its
    # plane without projecting onto the base, and the two planes are
    # inconsistent, so the base projection of pattern none is the only one
    cuts = [
        Halfspace(normal=np.array([1.0, 0.0]), offset=-1.0),
        Halfspace(normal=np.array([-1.0, 0.0]), offset=-1.0),
    ]
    with pytest.raises(IntersectionError) as err:
        project_intersection(base, cuts, np.zeros(2))
    assert err.value.patterns_tried == 4
    assert err.value.base_projections == 1


def _least_squares_cone_coefficients(normals, residual):
    """Minimum-norm coefficients of residual over the active normals, the
    cone test of a least-squares KKT certificate; with dependent normals they
    can come out negative at a true projection."""
    coef, *_ = np.linalg.lstsq(np.column_stack(normals), residual, rcond=None)
    return coef


def test_intersection_dimension_one_ball_end_with_level_cut():
    # both cuts read x >= 1.3256..., the right end of the interval ball, so
    # the intersection is that point; ball boundary and cut normal are
    # dependent (an anchored-solver step on a seeded random QP)
    ball = Ball(center=np.array([0.37498336156697265]), radius=0.9506389868164933)
    cuts = [
        Halfspace(normal=np.array([-0.24847488407922047]), offset=-0.3293838593333055),
        Halfspace(normal=np.array([-1.565048714847937]), offset=-2.07465309433236),
    ]
    anchor = np.array([-0.23943304892667738])
    ref = projection_oracle(ball, cuts, anchor)
    coef = _least_squares_cone_coefficients([cuts[0].normal, ref - ball.center], anchor - ref)
    assert np.min(coef) < 0.0
    assert norm(project_intersection(ball, cuts, anchor) - ref) <= 1e-9
    # a cut pinned at the end of the interval, which rounding places just
    # outside the ball
    ball = Ball(center=np.array([-0.3410928453123001]), radius=0.99431886688172)
    cut = Halfspace(normal=np.array([-0.5888070572341316]), offset=-0.3846240914690495)
    anchor = np.array([-2.8075560139574836])
    assert norm(project_intersection(ball, [cut], anchor) - projection_oracle(ball, [cut], anchor)) <= 1e-9


def test_intersection_box_vertex_with_three_bounds_and_cut():
    # the projection sits on three box bounds and on both cuts at once, four
    # dependent normals in three dimensions (an anchored-solver step)
    box = Box(
        lower=np.array([-1.6534468043790633, -1.0242433579602057, -1.5587224158621673]),
        upper=np.array([0.40626068363938583, 0.2664513538432305, -0.749821739636467]),
    )
    cuts = [
        Halfspace(normal=np.array([-0.41864680176782115, 0.36730687363531866, -1.7941435263009926]),
                offset=0.7989964585047777),
        Halfspace(normal=np.array([0.0, 1.1830112059206084, 0.0]), offset=-1.2116912771808452),
    ]
    anchor = np.array([0.40626068363938583, 0.15876792646839188, -0.749821739636467])
    ref = projection_oracle(box, cuts, anchor)
    e = np.eye(3)
    coef = _least_squares_cone_coefficients([cuts[0].normal, e[0], -e[1], e[2]], anchor - ref)
    assert np.min(coef) < 0.0
    assert norm(project_intersection(box, cuts, anchor) - ref) <= 1e-9


def test_intersection_halfspace_base_with_two_cuts():
    # base x3 <= 0 and cuts x1 <= 0, x2 <= 0 all bind, multipliers (1, 2, 3)
    base = Halfspace(normal=np.array([0.0, 0.0, 1.0]), offset=0.0)
    e = np.eye(3)
    cuts = [Halfspace(normal=e[0], offset=0.0), Halfspace(normal=e[1], offset=0.0)]
    got = project_intersection(base, cuts, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(got, np.zeros(3), atol=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = rng.standard_normal(3)
        base = Halfspace(normal=n, offset=rng.uniform(-1, 1))
        witness = base.project(rng.uniform(-2, 2, 3))
        cuts = []
        for _ in range(2):
            m = rng.standard_normal(3)
            cuts.append(Halfspace(normal=m, offset=float(m @ witness) + rng.uniform(0.0, 0.5)))
        anchor = rng.uniform(-3, 3, 3)
        assert norm(project_intersection(base, cuts, anchor) - projection_oracle(base, cuts, anchor)) <= 1e-9


def test_intersection_ball_tangent_to_pinned_plane():
    ball = Ball(center=np.zeros(2), radius=1.0)
    # x1 >= 1 touches the ball only at (1, 0): no finite multipliers exist,
    # yet that point is the projection
    touching = Halfspace(normal=np.array([-1.0, 0.0]), offset=-1.0)
    got = project_intersection(ball, [touching], np.array([0.0, 2.0]))
    assert np.allclose(got, [1.0, 0.0], atol=1e-12)
    # x1 <= 1 holds on the whole ball: pinning it must not certify (1, 0)
    outside = Halfspace(normal=np.array([1.0, 0.0]), offset=1.0)
    lifted = Halfspace(normal=np.array([0.0, -1.0]), offset=-0.5)  # x2 >= 0.5
    anchor = np.array([3.0, 0.0])
    got = project_intersection(ball, [outside, lifted], anchor)
    assert np.allclose(got, [np.sqrt(0.75), 0.5], atol=1e-12)
    assert norm(got - projection_oracle(ball, [outside, lifted], anchor)) <= 1e-9


def test_oracle_keeps_ball_candidate_on_tangent_cut():
    # a cut touching the ball only at p = c + r u: rho_sq of the oracle's
    # ball-active candidate falls on either side of 0 by rounding alone.  The
    # intersection is one point, so a rounding d of the cut offset moves it
    # by ~sqrt(2 r d); both projections are held to that scale around p
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        c = rng.standard_normal(dim)
        r = rng.uniform(0.1, 2.0)
        u = rng.standard_normal(dim)
        u /= norm(u)
        n = -rng.uniform(0.1, 3.0) * u
        p = c + r * u
        cut = Halfspace(normal=n, offset=dot(n, p))
        anchor = c + 3.0 * rng.standard_normal(dim)
        ball = Ball(center=c, radius=r)
        ref = projection_oracle(ball, [cut], anchor)
        got = project_intersection(ball, [cut], anchor)
        scale = 8.0 * np.sqrt(eps * r * max(1.0, norm(p)))
        assert norm(ref - p) <= scale
        assert norm(got - p) <= scale
        assert norm(ref - got) <= scale
        # with a second cut that holds on the whole ball, pinned first
        loose = Halfspace(normal=-n, offset=float(-n @ c) + r * norm(n))
        assert norm(project_intersection(ball, [loose, cut], anchor) - p) <= scale


def test_intersection_rejects_more_than_two_cuts():
    e = np.eye(3)
    cuts = [Halfspace(normal=e[i], offset=1.0) for i in range(3)]
    with pytest.raises(ValueError, match="at most two"):
        project_intersection(WholeSpace(), cuts, np.zeros(3))


def test_projection_properties_random():
    rng = np.random.default_rng(11)
    for trial in range(400):
        dim = int(rng.integers(1, 11))
        s = random_set(rng, dim)
        x = rng.uniform(-3, 3, dim)
        y = rng.uniform(-3, 3, dim)
        z = s.project(rng.uniform(-3, 3, dim))
        px, py = s.project(x), s.project(y)
        # idempotence
        assert norm(s.project(px) - px) <= 1e-10
        # nonexpansiveness
        assert norm(px - py) <= norm(x - y) + 1e-12
        # obtuse angle against the member z
        assert dot(x - px, z - px) <= 1e-10
        # squared-distance bound
        assert dot(z - y, z - py) >= norm(z - py) ** 2 - 1e-10


def test_intersection_oracle_equivalence_small():
    rng = np.random.default_rng(21)
    for trial in range(60):
        dim = int(rng.integers(1, 5))
        base = random_set(rng, dim)
        witness = base.project(rng.uniform(-2, 2, dim))
        cuts = []
        for _ in range(int(rng.integers(0, 3))):
            n = rng.standard_normal(dim)
            n *= rng.uniform(0.5, 2.0) / max(norm(n), 1e-12)
            cuts.append(Halfspace(normal=n, offset=float(n @ witness) + rng.uniform(0.05, 1.0)))
        anchor = rng.uniform(-3, 3, dim)
        got = project_intersection(base, cuts, anchor)
        ref = projection_oracle(base, cuts, anchor)
        assert norm(got - ref) <= 1e-6


def test_intersection_oracle_equivalence_regression_seeds():
    # these seeds historically exposed premature convergence certificates:
    # the iterate parking at a vertex while Dykstra's corrections drift, and
    # a loose activity band letting the polish certify suboptimal points
    for seed in (42, 12345, 5):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            base = random_set(rng, dim)
            witness = base.project(rng.uniform(-2, 2, dim))
            cuts = []
            for _ in range(int(rng.integers(0, 3))):
                n = rng.standard_normal(dim)
                n *= rng.uniform(0.5, 2.0) / max(norm(n), 1e-12)
                cuts.append(Halfspace(normal=n, offset=float(n @ witness) + rng.uniform(0.05, 1.0)))
            anchor = rng.uniform(-3, 3, dim)
            got = project_intersection(base, cuts, anchor)
            ref = projection_oracle(base, cuts, anchor)
            assert norm(got - ref) <= 1e-6, f"seed {seed}"


def test_set_validation():
    with pytest.raises(ValueError):
        Box(lower=np.array([1.0]), upper=np.array([0.0]))
    for lower, upper in [(np.zeros((2, 2)), np.ones((2, 2))), (np.zeros(2), np.ones(3))]:
        with pytest.raises(ValueError, match="^box bounds must be 1-D vectors of equal length$"):
            Box(lower=lower, upper=upper)
    with pytest.raises(ValueError, match="^box bounds must not be NaN$"):
        Box(lower=np.array([0.0, np.nan]), upper=np.ones(2))
    with pytest.raises(ValueError):
        Ball(center=np.zeros(2), radius=0.0)
    # Halfspace and Hyperplane share their validation; each message names its own set
    with pytest.raises(ValueError, match="^halfspace normal must be nonzero$"):
        Halfspace(normal=np.zeros(2), offset=1.0)
    with pytest.raises(ValueError, match="^hyperplane offset must be finite, got inf$"):
        Hyperplane(normal=np.ones(2), offset=np.inf)
    with pytest.raises(ValueError):
        Simplex(scale=-1.0)
    with pytest.raises(ValueError):
        Box(lower=np.zeros(2), upper=np.ones(2)).project(np.zeros(3))


@pytest.mark.parametrize("make", [Box, Ball, Halfspace, Hyperplane, Simplex, WholeSpace])
def test_sets_are_frozen(make):
    """No attribute of a set can be assigned, its fields or any other."""
    args = {
        Box: (np.zeros(2), np.ones(2)), Ball: (np.zeros(2), 1.0), Halfspace: (np.ones(2), 1.0),
        Hyperplane: (np.ones(2), 1.0), Simplex: (), WholeSpace: (),
    }[make]
    set_ = make(*args)
    for name in ("normal", "offset", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(set_, name, 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Ball(center=np.zeros(2), radius=np.nan),
        lambda: Simplex(scale=np.nan),
        lambda: Simplex(scale=np.inf),
        lambda: Halfspace(normal=np.ones(2), offset=np.nan),
        lambda: Hyperplane(normal=np.ones(2), offset=np.inf),
        lambda: Box(lower=np.array([0.0, np.inf]), upper=np.full(2, np.inf)),
    ],
    ids=["ball-radius-nan", "simplex-scale-nan", "simplex-scale-inf", "halfspace-offset-nan", "hyperplane-offset-inf",
         "box-lower-inf"],
)
def test_set_rejects_non_finite_parameters(make):
    # Box alone keeps infinite bounds, which make it unbounded, but a lower
    # bound of +inf leaves no real point
    with pytest.raises(ValueError, match="finite|inf"):
        make()


def _random_cut_case(rng, kind, dim, count):
    """A base of the given kind, cuts through a point of it (some with zero
    entries in their normal, some nearly parallel to one another or, on the
    simplex, to (1, ..., 1)), and an anchor."""
    if kind == "box":
        lo = rng.uniform(-2, 0, dim)
        hi = lo + rng.uniform(0.5, 2.5, dim)
        # some bounds infinite; in ten dimensions all but four, which keeps
        # the enumeration oracle's constraint count small
        drop = 0.3 if dim < 10 else 0.8
        lo[rng.random(dim) < drop] = -np.inf
        hi[rng.random(dim) < drop] = np.inf
        base = Box(lower=lo, upper=hi)
    elif kind == "ball":
        base = Ball(center=rng.uniform(-1, 1, dim), radius=rng.uniform(0.5, 2.0))
    else:
        base = Simplex(scale=rng.uniform(0.5, 2.0))
    witness = base.project(rng.uniform(-2, 2, dim))
    cuts = []
    for i in range(count):
        n = rng.standard_normal(dim)
        pick = rng.random()
        if pick < 0.2 and dim > 1:
            n[rng.random(dim) < 0.5] = 0.0
            n[int(rng.integers(dim))] = 1.0
        elif pick < 0.35 and kind == "simplex":
            n = rng.uniform(0.5, 3.0) * np.ones(dim) + 1e-6 * rng.standard_normal(dim)
        elif pick < 0.5 and i == 1:
            n = cuts[0].normal + 1e-6 * rng.standard_normal(dim)
        n *= rng.uniform(0.5, 2.0) / norm(n)
        cuts.append(Halfspace(normal=n, offset=float(n @ witness) + rng.uniform(0.0, 1.0)))
    return base, cuts, rng.uniform(-3, 3, dim)


@pytest.mark.parametrize("kind", ["box", "ball", "simplex"])
def test_intersection_matches_oracle_with_degenerate_cuts(kind):
    # the oracle runs with a feasibility tolerance tighter than its default:
    # a cut nearly parallel to (1, ..., 1) on the simplex moves its point
    # along the simplex by the cut tolerance over the tiny transverse part
    # of the normal, 1e-9 / 1e-6 with the default
    rng = np.random.default_rng({"box": 31, "ball": 32, "simplex": 33}[kind])
    for trial in range(38):
        dim, count = ((1, 2, 3)[trial % 3], 1 + trial // 3 % 2) if trial < 36 else (10, trial - 35)
        base, cuts, anchor = _random_cut_case(rng, kind, dim, count)
        got = project_intersection(base, cuts, anchor)
        ref = projection_oracle(base, cuts, anchor, tol=1e-12)
        assert norm(got - ref) <= 1e-9, f"{kind} trial {trial}"


def test_intersection_level_cut_nearly_parallel_to_simplex_plane():
    # an anchored-solver step on the seed-202 random QPs: the level normal
    # differs from a multiple of (1, 1) by 5e-6; the oracle with its default
    # tolerance certifies a point 2.7e-5 away
    base = Simplex(scale=0.9624386578930018)
    cuts = [
        Halfspace(normal=np.array([4.930512522288963, 4.930342665690436]), offset=5.946891909567706),
        Halfspace(normal=np.array([0.004479220387004879, -0.004479220386982452]), offset=0.0006879768079425697),
    ]
    anchor = np.array([0.0, 0.9624386578930018])
    ref = projection_oracle(base, cuts, anchor, tol=1e-13)
    assert norm(project_intersection(base, cuts, anchor) - ref) <= 1e-9


def _gauss_jordan(G, r):
    """Exact solve of G mu = r over the rationals; None when G is singular."""
    size = len(G)
    M = [row[:] + [v] for row, v in zip(G, r)]
    for c in range(size):
        p = next((i for i in range(c, size) if M[i][c] != 0), None)
        if p is None:
            return None
        M[c], M[p] = M[p], M[c]
        for i in range(size):
            if i != c and M[i][c] != 0:
                f = M[i][c] / M[c][c]
                M[i] = [u - f * v for u, v in zip(M[i], M[c])]
    return [M[i][size] / M[i][i] for i in range(size)]


def _exact_simplex_projection(scale, cuts, anchor):
    """Projection of anchor onto the simplex and the cuts in exact rational
    arithmetic over the float inputs: the KKT point of the first pattern of
    zero coordinates and binding cuts whose multipliers and point pass."""
    dim = len(anchor)
    a = [Fraction(float(v)) for v in anchor]
    cut_rows = [([Fraction(float(v)) for v in c.normal], Fraction(c.offset)) for c in cuts]
    supports = itertools.chain.from_iterable(itertools.combinations(range(dim), k) for k in range(dim))
    for zeros, count in itertools.product(list(supports), range(len(cuts) + 1)):
        for pinned in itertools.combinations(cut_rows, count):
            rows = [([Fraction(int(i == j)) for j in range(dim)], Fraction(0)) for i in zeros]
            rows += [([Fraction(1)] * dim, Fraction(scale))] + list(pinned)
            gram = [[sum(u * v for u, v in zip(p, q)) for q, _ in rows] for p, _ in rows]
            mu = _gauss_jordan(gram, [sum(u * v for u, v in zip(p, a)) - b for p, b in rows])
            if mu is None:
                continue
            x = [a[j] - sum(m * p[j] for m, (p, _) in zip(mu, rows)) for j in range(dim)]
            if (min(x) >= 0 and all(m <= 0 for m in mu[: len(zeros)]) and all(m >= 0 for m in mu[len(zeros) + 1:])
                    and all(sum(u * v for u, v in zip(n, x)) <= b for n, b in cut_rows)):
                return np.array([float(v) for v in x])
    raise AssertionError("no KKT point")


@pytest.mark.parametrize("scale, cuts, anchor", [
    # anchored-solver steps on the random QPs of seed 202, trials 15 and 25:
    # the level normal is constant to 2e-5 and 1e-6 relative on the edge of
    # the simplex that holds the point, so its multiplier is 4e4 and 1e6
    (1.002229426045155,
     [([-0.7025306707392918, -0.7025550242057621, 0.6371713399002481], -0.7041209021431439),
      ([0.0006399577026552361, -0.9851245215777453, 0.9844845638731934], -0.9704593765984133)],
     [0.017744862171961584, 0.0, 0.9844845638731934]),
    (0.693958497548472,
     [([2.1258768064026077, 2.4482680185008143, 2.125879238334799], 1.4752715475298621),
      ([-0.1705122120807366, 0.0, 0.17051221208073664], 0.06017956957188222)],
     [0.0, 0.0, 0.693958497548472]),
])
def test_intersection_level_cut_nearly_constant_on_a_simplex_face(scale, cuts, anchor):
    # the base projection of anchor - lam n carries rounding of order
    # eps |lam n| (1e-11 here), which the tiny slope along the face turns
    # into 1e-8 along it; the point is read from the face instead.  The
    # reference is exact: the enumeration oracle with tol=1e-12 certifies a
    # point 0.024 from the first projection
    cuts = [Halfspace(normal=np.array(n), offset=b) for n, b in cuts]
    got = project_intersection(Simplex(scale=scale), cuts, np.array(anchor))
    assert norm(got - _exact_simplex_projection(scale, cuts, anchor)) <= 1e-9


@pytest.mark.parametrize("cuts", [
    # the level and anchor cuts of A2's 22nd and 23rd steps (from iterates
    # 21 and 22) on the random QP of seed 17, trial 2; the level normal is
    # nearly constant on the support of the point, so its multiplier is large
    [(["0x1.894f38726233cp-1", "-0x1.fc473c25bfddcp-2", "-0x1.fc44ab7741c37p-2"], "-0x1.0b430cee535bcp-2"),
     (["0x1.962eb2d6f5e38p-3", "-0x1.be13722ff2c86p-2", "0x1.e5f83188dee34p-3"], "-0x1.58ce684e5df9ep-3")],
    [(["0x1.894f387260d05p-1", "-0x1.fc473c25c849cp-2", "-0x1.fc44ab774176bp-2"], "-0x1.0b430cee57005p-2"),
     (["0x1.962eb2d6f5e38p-3", "-0x1.be13722fefd29p-2", "0x1.e5f83188e9c1ap-3"], "-0x1.58ce684e5a6aap-3")],
], ids=["step-22", "step-23"])
def test_intersection_face_point_holds_the_simplex_plane_and_the_cuts(cuts):
    # the level-pinned face point a - lam m, with lam near 7e4, leaves the
    # plane sum(x) = scale by the rounding of the centered m's sum unless it
    # is put back on it, and then misses the level plane by more than its
    # rounding allowance; the anchor-pinned point violates the level cut by
    # 6x that allowance, so neither may be taken
    scale = float.fromhex("0x1.0d3843c3442a4p-1")
    anchor = np.array([float.fromhex(v) for v in ("0x1.962eb2d6f5e38p-3", "0x0.0p+0", "0x1.4f592e1b0d62cp-2")])
    cuts = [Halfspace(normal=np.array([float.fromhex(v) for v in n]), offset=float.fromhex(b)) for n, b in cuts]
    x = project_intersection(Simplex(scale=scale), cuts, anchor)
    assert abs(float(x.sum()) - scale) <= 4.0 * np.finfo(float).eps * scale
    for c in cuts:
        allowance = 1e-12 * (abs(c.offset) + norm(c.normal) * (norm(x) + norm(anchor)))
        assert float(c.normal @ x) - c.offset <= allowance


@pytest.mark.parametrize("base", [
    Box(lower=np.zeros(3), upper=np.ones(3)),
    Box(lower=np.array([0.0, -np.inf, 0.0]), upper=np.array([1.0, 1.0, np.inf])),
    Simplex(scale=1.0),
    Ball(center=np.zeros(3), radius=1.0),
])
def test_intersection_raises_when_cuts_miss_the_base(base):
    # x1 >= 3 misses every base, alone or with x1 + x2 + x3 <= -2; that one
    # alone misses every base bounded below, and with x1 <= 0.3 too (on the
    # simplex the sum is constant, which the face search meets as a residual
    # of zero curvature)
    far = Halfspace(normal=-np.eye(3)[0], offset=-3.0)
    below = Halfspace(normal=np.ones(3), offset=-2.0)
    side = Halfspace(normal=np.eye(3)[0], offset=0.3)
    bounded = not isinstance(base, Box) or bool(np.all(np.isfinite(base.lower)))
    for cuts in [[far], [far, below], [below, far]] + [[below], [below, side]] * bounded:
        with pytest.raises(IntersectionError):
            project_intersection(base, cuts, np.array([0.2, 0.3, 0.1]))


def test_intersection_error_names_patterns_and_base_projections(monkeypatch):
    # x1 + x2 <= 0.5 and x1 + x2 >= 1.5: each plane meets the unit box, the
    # two halfspaces share no point of it
    box = Box(lower=np.zeros(2), upper=np.ones(2))
    cuts = [Halfspace(normal=np.ones(2), offset=0.5), Halfspace(normal=-np.ones(2), offset=-1.5)]
    calls = []
    inner = Box.project
    monkeypatch.setattr(Box, "project", lambda self, x: calls.append(1) or inner(self, x))
    with pytest.raises(IntersectionError) as err:
        project_intersection(box, cuts, np.array([0.5, 0.5]))
    assert err.value.patterns_tried == 4
    assert err.value.base_projections == len(calls) > 0


def _kkt_multipliers(base, cuts, anchor, x):
    """Least-squares multipliers of the cuts at x from the coordinates where
    x is off every bound of the base (and the simplex plane's multiplier)."""
    if isinstance(base, Box):
        free = (x > base.lower) & (x < base.upper)
        A = np.column_stack([c.normal[free] for c in cuts])
        lam, *_ = np.linalg.lstsq(A, (anchor - x)[free], rcond=None)
        return lam
    free = x > 0.0
    A = np.column_stack([c.normal[free] for c in cuts] + [np.ones(int(free.sum()))])
    sol, *_ = np.linalg.lstsq(A, (anchor - x)[free], rcond=None)
    return sol[: len(cuts)]


@pytest.mark.parametrize("kind", ["box", "simplex"])
def test_intersection_kkt_certificate_at_n_1000(kind):
    # a cut through the anchor's own projection and one cutting deeper
    # into the base; the point must be a KKT point: every cut holds, the
    # multipliers read back from it are nonnegative, each positive one on
    # a binding cut, and the base projection of anchor - sum lam_i n_i is x
    rng = np.random.default_rng(35)
    n = 1000
    if kind == "box":
        base = Box(lower=-np.ones(n), upper=np.ones(n))
        anchor = rng.uniform(-0.5, 0.5, n)
    else:
        base = Simplex(scale=1.0)
        anchor = np.full(n, 1.0 / n)
    for _ in range(3):
        cuts = []
        for depth in (0.3, 0.1):
            g = rng.standard_normal(n)
            px = base.project(anchor)
            span = float(g @ px) - float(g @ base.project(px - 10.0 * g))
            cuts.append(Halfspace(normal=g, offset=float(g @ px) - depth * span))
        x = project_intersection(base, cuts, anchor)
        assert base.contains(x, 1e-12)
        values = [float(c.normal @ x) - c.offset for c in cuts]
        sizes = [norm(c.normal) * (norm(x) + norm(anchor)) + abs(c.offset) for c in cuts]
        assert all(v <= 1e-10 * s for v, s in zip(values, sizes))
        lam = _kkt_multipliers(base, cuts, anchor, x)
        assert np.all(lam >= -1e-9 * max(1.0, float(np.max(np.abs(lam)))))
        for m, v, s in zip(lam, values, sizes):
            assert m <= 1e-9 or abs(v) <= 1e-10 * s
        y = anchor - sum(m * c.normal for m, c in zip(lam, cuts))
        assert norm(base.project(y) - x) <= 1e-8 * max(1.0, norm(x))
