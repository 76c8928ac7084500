"""Bit-identity gate for the registry.

Every registry instance is solved by strategies a (beta 0.5), b, c, d and A2
at the default config, and the status, the iteration count and the final
point (as float.hex strings) must match the table exactly.  A second table
pins the same runs' accounting and monitors: the line-search trials, the
projections, and each monitor's verdict and worst margin (as float.hex).
A change that claims to leave the arithmetic as it is keeps both tables
unchanged.

The tables were generated with numpy 2.4 and its bundled OpenBLAS on
x86-64.  Another BLAS or LAPACK build may round a dot product or pinv's SVD
in the last bit, which the 5000-step capped runs of strategy d carry into
their final points and margins; compare such a build's tables at an
unchanged commit first.
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

# (instance, strategy, inner_trials, projections, {monitor: (passed, worst_margin)})
ACCOUNTING = [
    ('flat-quadratic', 'a', 0, 54, {}),
    ('flat-quadratic', 'b', 0, 1, {'descent': (True, '0x1.0000000000000p-1')}),
    ('flat-quadratic', 'c', 0, 1, {'descent': (True, '0x1.0000000000000p-1'),
        'projection_gap_bound': (True, '0x0.0p+0'), 'vanishing_product': (True, '0x0.0p+0'),
        'quasi_fejer': (True, '0x1.3880000000000p+13'), 'epsilon_sum': (True, '0x1.000010c6f8000p+0')}),
    ('flat-quadratic', 'd', 0, 1, {'exogenous_step_bound': (True, '0x0.0p+0')}),
    ('flat-quadratic', 'A2', 0, 27, {'anchor_monotone': (True, '0x1.0000000000000p-27'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '0x0.0p+0'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('line-1d', 'a', 0, 2, {}),
    ('line-1d', 'b', 0, 1, {'descent': (True, '0x1.8000000000000p+0')}),
    ('line-1d', 'c', 0, 1, {'descent': (True, '0x1.8000000000000p+0'),
        'projection_gap_bound': (True, '0x1.0000000000000p+0'), 'vanishing_product': (True, '0x0.0p+0'),
        'quasi_fejer': (True, '0x1.d4c0000000000p+14'), 'epsilon_sum': (True, '0x1.000010c6f8000p+0')}),
    ('line-1d', 'd', 0, 2, {'exogenous_step_bound': (True, '0x0.0p+0')}),
    ('line-1d', 'A2', 0, 5, {'anchor_monotone': (True, '0x1.8f19240000000p-25'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '-0x1.f800000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '0x0.0p+0')}),
    ('pnorm1p5-box', 'a', 0, 54, {}),
    ('pnorm1p5-box', 'b', 0, 3, {'descent': (True, '0x1.8e7840f600000p-22')}),
    ('pnorm1p5-box', 'c', 0, 3, {'descent': (True, '0x1.8e7840f000000p-22'),
        'projection_gap_bound': (True, '0x1.2000000000000p-69'),
        'vanishing_product': (True, '0x1.e2b2c96d90000p-66'), 'quasi_fejer': (True, '0x1.e669cb4c98874p-8'),
        'epsilon_sum': (True, '0x1.24dfe4862c000p+0')}),
    ('pnorm1p5-box', 'd', 0, 10000, {'exogenous_step_bound': (True, '0x0.0p+0')}),
    ('pnorm1p5-box', 'A2', 0, 24, {'anchor_monotone': (True, '0x1.0b01020000000p-26'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '0x1.0000000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('pnorm4-ball', 'a', 0, 34, {}),
    ('pnorm4-ball', 'b', 0, 4, {'descent': (True, '0x1.45343dc000000p-27')}),
    ('pnorm4-ball', 'c', 0, 4, {'descent': (True, '0x1.4534402000000p-27'),
        'projection_gap_bound': (True, '0x1.45343e4e8ed96p-28'),
        'vanishing_product': (True, '0x1.0665879eecd97p-80'), 'quasi_fejer': (True, '0x1.8cfa4587ee62ep-13'),
        'epsilon_sum': (True, '0x1.764909eca0000p+1')}),
    ('pnorm4-ball', 'd', 0, 10000, {'exogenous_step_bound': (True, '0x1.a36e2b607eef0p-13')}),
    ('pnorm4-ball', 'A2', 0, 22, {'anchor_monotone': (True, '0x1.a035048000000p-26'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '0x1.0000000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('pnorm4-ball-far', 'a', 0, 24, {}),
    ('pnorm4-ball-far', 'b', 0, 17, {'descent': (True, '0x0.0p+0')}),
    ('pnorm4-ball-far', 'c', 0, 17, {'descent': (True, '0x1.6000000000000p-47'),
        'projection_gap_bound': (True, '0x1.d0f9b6bf5270cp-49'),
        'vanishing_product': (True, '0x1.73830bfecb734p-54'), 'quasi_fejer': (True, '0x1.d4bf2f064940bp-35'),
        'epsilon_sum': (True, '0x1.5efc55d600000p+1')}),
    ('pnorm4-ball-far', 'd', 0, 10000, {'exogenous_step_bound': (True, '0x1.a36d7685b8afcp-13')}),
    ('pnorm4-ball-far', 'A2', 0, 23, {'anchor_monotone': (True, '0x1.1b9effe000000p-25'),
        'level_monotone': (True, '0x1.8000000000000p-46'), 'level_sandwich': (True, '0x1.0000000000000p-48'),
        'level_gap_step': (True, '0x1.7ffc90524f197p-48'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('quadratic-box', 'a', 0, 2, {}),
    ('quadratic-box', 'b', 0, 1, {'descent': (True, '0x1.8000000000000p+1')}),
    ('quadratic-box', 'c', 0, 1, {'descent': (True, '0x1.8000000000000p+1'),
        'projection_gap_bound': (True, '0x1.ffffffffffffep+0'), 'vanishing_product': (True, '0x0.0p+0'),
        'quasi_fejer': (True, '0x1.d4c0000000000p+15'), 'epsilon_sum': (True, '0x1.000008637c000p+1')}),
    ('quadratic-box', 'd', 0, 4, {'exogenous_step_bound': (True, '0x1.0000000000000p-53')}),
    ('quadratic-box', 'A2', 0, 5, {'anchor_monotone': (True, '0x1.1a347e3000000p-24'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '-0x1.7000000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
]


def test_table_covers_every_instance_and_strategy():
    assert [(iid, s) for iid, s, *_ in PINNED] == [(iid, s) for iid in list_instances() for s in CONFIGS]
    assert [(iid, s) for iid, s, *_ in ACCOUNTING] == [(iid, s) for iid, s, *_ in PINNED]


@pytest.mark.parametrize("instance, strategy, status, iterations, final_x", PINNED,
                         ids=[f"{iid}-{s}" for iid, s, *_ in PINNED])
def test_registry_run_is_bit_identical(instance, strategy, status, iterations, final_x):
    rep = solve(get_instance(instance), CONFIGS[strategy], strategy)
    assert (rep.status.value, rep.iterations) == (status, iterations)
    assert tuple(float(v).hex() for v in rep.final_x) == final_x


@pytest.mark.parametrize("instance, strategy, inner_trials, projections, monitors", ACCOUNTING,
                         ids=[f"{iid}-{s}" for iid, s, *_ in ACCOUNTING])
def test_registry_run_accounting_and_monitors_are_bit_identical(instance, strategy, inner_trials, projections,
                                                                monitors):
    rep = solve(get_instance(instance), CONFIGS[strategy], strategy)
    assert (rep.inner_trials, rep.projections) == (inner_trials, projections)
    assert {name: (m.passed, float(m.worst_margin).hex()) for name, m in rep.monitors.items()} == monitors
