"""Bit-identity gate for the registry.

Every registry instance is solved by strategies a (beta 0.5), b, c, d and A2
at the default config, and the status, the iteration count and the final
point (as float.hex strings) must match the table exactly.  A change that
claims to leave the arithmetic as it is keeps this table unchanged.

The table was generated with numpy 2.4 and its bundled OpenBLAS on x86-64.
Another BLAS or LAPACK build may round a dot product or pinv's SVD in the
last bit, which the 5000-step capped runs of strategy d carry into their
final points; compare such a build's table at an unchanged commit first.
"""

import pytest

from projgrad import SolverConfig, get_instance, list_instances, solve

CONFIGS = {"a": SolverConfig(beta=0.5), "b": SolverConfig(), "c": SolverConfig(), "d": SolverConfig(),
           "A2": SolverConfig()}

PINNED = [
    ('flat-quadratic', 'a', 'optimal_residual', 27, ('0x1.ffffffc000000p-1', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'b', 'optimal_residual', 1, ('0x1.0000000000000p+0', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'c', 'fixed_point_stop', 1, ('0x1.0000000000000p+0', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'd', 'fixed_point_stop', 1, ('0x1.0000000000000p+0', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'A2', 'optimal_residual', 27, ('0x1.ffffffc000000p-1', '0x1.b333333333333p+0')),
    ('line-1d', 'a', 'fixed_point_stop', 1, ('0x1.0000000000000p+0',)),
    ('line-1d', 'b', 'optimal_residual', 1, ('0x1.0000000000000p+0',)),
    ('line-1d', 'c', 'fixed_point_stop', 1, ('0x1.0000000000000p+0',)),
    ('line-1d', 'd', 'fixed_point_stop', 1, ('0x1.0000000000000p+0',)),
    ('line-1d', 'A2', 'fixed_point_stop', 5, ('0x1.0000000000005p+0',)),
    ('pnorm1p5-box', 'a', 'optimal_residual', 27, ('0x1.0000000000000p+0', '0x1.ffffffa00b49cp-2')),
    ('pnorm1p5-box', 'b', 'optimal_residual', 3, ('0x1.0000000000000p+0', '0x1.fffffffd40f28p-2')),
    ('pnorm1p5-box', 'c', 'optimal_residual', 3, ('0x1.0000000000000p+0', '0x1.fffffffd40f28p-2')),
    ('pnorm1p5-box', 'd', 'iteration_cap', 5000, ('0x1.0000000000000p+0', '0x1.fff19cb1e9583p-2')),
    ('pnorm1p5-box', 'A2', 'fixed_point_stop', 24, ('0x1.0000000000000p+0', '0x1.fffffd8680c0ap-2')),
    ('pnorm4-ball', 'a', 'optimal_residual', 17, ('0x1.0000000000000p+0', '-0x1.66029589ea8f6p-28')),
    ('pnorm4-ball', 'b', 'optimal_residual', 4, ('0x1.0000000000000p+0', '0x1.032db1d6d8433p-40')),
    ('pnorm4-ball', 'c', 'fixed_point_stop', 4, ('0x1.0000000000000p+0', '0x1.032db696d8428p-40')),
    ('pnorm4-ball', 'd', 'iteration_cap', 5000, ('0x1.ffffffffffff0p-1', '0x1.031ffe3b4bcb8p-24')),
    ('pnorm4-ball', 'A2', 'fixed_point_stop', 22, ('0x1.ffffffffffffdp-1', '0x1.019ebfb90cba6p-25')),
    ('pnorm4-ball-far', 'a', 'optimal_residual', 12, ('0x1.0000000000000p+0', '0x1.7d6e2b6ccae79p-28')),
    ('pnorm4-ball-far', 'b', 'optimal_residual', 17, ('0x1.0000000000000p+0', '-0x1.ce9769add6bbep-28')),
    ('pnorm4-ball-far', 'c', 'optimal_residual', 17, ('0x1.0000000000000p+0', '-0x1.ce9769add6bc7p-28')),
    ('pnorm4-ball-far', 'd', 'iteration_cap', 5000, ('0x1.ffffffffea112p-1', '0x1.2bbaae3c297b0p-18')),
    ('pnorm4-ball-far', 'A2', 'fixed_point_stop', 23, ('0x1.ffffffffffff7p-1', '0x1.815cb5510c22fp-25')),
    ('quadratic-box', 'a', 'fixed_point_stop', 1, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'b', 'optimal_residual', 1, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'c', 'fixed_point_stop', 1, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'd', 'fixed_point_stop', 2, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'A2', 'fixed_point_stop', 5, ('0x1.ffffffffffff8p-1', '0x1.ffffffffffff8p-1')),
]


def test_table_covers_every_instance_and_strategy():
    assert [(iid, s) for iid, s, *_ in PINNED] == [(iid, s) for iid in list_instances() for s in CONFIGS]


@pytest.mark.parametrize("instance, strategy, status, iterations, final_x", PINNED,
                         ids=[f"{iid}-{s}" for iid, s, *_ in PINNED])
def test_registry_run_is_bit_identical(instance, strategy, status, iterations, final_x):
    rep = solve(get_instance(instance), CONFIGS[strategy], strategy)
    assert (rep.status.value, rep.iterations) == (status, iterations)
    assert tuple(float(v).hex() for v in rep.final_x) == final_x
