import numpy as np
import pytest

from projgrad import IterateRecord, SolverConfig, as_vector, dot, norm


def test_dot_examples():
    assert dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    assert dot(np.array([0.0, 0.0]), np.array([5.0, -7.0])) == 0.0
    assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_dot_symmetry_and_dim_mismatch():
    a, b = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.25, -1.0])
    assert dot(a, b) == dot(b, a)
    with pytest.raises(ValueError):
        dot(np.array([1.0]), np.array([1.0, 2.0]))


def test_norm_examples():
    assert norm(np.array([3.0, 4.0])) == 5.0
    assert norm(np.zeros(3)) == 0.0
    assert norm(np.array([-2.0])) == 2.0


def test_norm_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(12)
    for size in (1, 2, 3, 7, 64, 1000, 20000):
        for scale in (1e-20, 1e-8, 1.0, 1e8, 1e20):
            v = scale * rng.standard_normal(size)
            assert norm(v) == float(np.linalg.norm(v))


def test_cauchy_schwarz_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        dim = int(rng.integers(1, 12))
        a = rng.standard_normal(dim) * rng.uniform(0.1, 10)
        b = rng.standard_normal(dim) * rng.uniform(0.1, 10)
        assert abs(dot(a, b)) <= norm(a) * norm(b) * (1 + 1e-12)


def test_parallelogram_law_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        dim = int(rng.integers(1, 12))
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        lhs = norm(a + b) ** 2 + norm(a - b) ** 2
        rhs = 2 * norm(a) ** 2 + 2 * norm(b) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([])


def test_config_validation():
    SolverConfig()  # defaults valid
    with pytest.raises(ValueError):
        SolverConfig(theta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(delta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_outer_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(beta=0.0)


def test_beta_range_enforced():
    # beta need only be positive and finite
    for beta in (0.5, 100.0, 1e-5):
        assert SolverConfig(beta=beta).beta == beta
    for beta in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="beta"):
            SolverConfig(beta=beta)
    # the default stepsize is 1
    assert SolverConfig().beta == 1.0


@pytest.mark.parametrize(
    "field, value",
    [("residual_tol", np.nan), ("exo_constant", np.nan), ("exo_constant", np.inf), ("max_outer_iters", np.nan),
     ("max_inner_iters", np.nan), ("trace_stride", np.nan), ("max_outer_iters", 2.5), ("max_inner_iters", 2.5),
     ("trace_stride", 2.5), ("max_outer_iters", True), ("max_inner_iters", True), ("trace_stride", True)],
)
def test_config_rejects_non_finite_parameters(field, value):
    # a NaN residual_tol could never be met: no residual compares <= to NaN;
    # the counts are integers, and True is a flag, not a count
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_record_defaults():
    rec = IterateRecord(k=0, x=np.zeros(2), f_val=1.0, alpha=1.0, beta=1.0, inner_trials=0, residual=0.5)
    assert rec.f_lev is None and rec.epsilon_qf is None and rec.dist_anchor is None
    assert not hasattr(rec, "stop")  # a record is a step taken; a stop is raised, not recorded
