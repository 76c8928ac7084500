"""Bit-identity gate for the registry.

Every registry instance is solved by strategies a (beta 0.5), b, c, d and A2
at the default config, and by b, c and A2 at delta 0.9, whose searches
backtrack where the default's take no trial.  The status, the iteration
count and the final point (as float.hex strings) must match the table
exactly.  A second table pins the same runs' accounting and monitors: the
line-search trials, the projections, and each monitor's verdict and worst
margin (as float.hex).  A change that claims to leave the arithmetic as it
is keeps both tables unchanged.

The tables were generated with numpy 2.4 and its bundled OpenBLAS on
x86-64.  Another BLAS or LAPACK build may round a dot product or pinv's SVD
in the last bit, which the 5000-step capped runs of strategy d carry into
their final points and margins; compare such a build's tables at an
unchanged commit first.
"""

import pytest

from projgrad import SolverConfig, get_instance, list_instances, solve

# run name -> (strategy, config)
RUNS = {"a": ("a", SolverConfig(beta=0.5)), "b": ("b", SolverConfig()), "c": ("c", SolverConfig()),
        "d": ("d", SolverConfig()), "A2": ("A2", SolverConfig()),
        **{f"{s}-delta0.9": (s, SolverConfig(delta=0.9)) for s in ("b", "c", "A2")}}

PINNED = [
    ('flat-quadratic', 'a', 'optimal_residual', 27, ('0x1.ffffffc000000p-1', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'b', 'optimal_residual', 1, ('0x1.0000000000000p+0', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'c', 'fixed_point_stop', 1, ('0x1.0000000000000p+0', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'd', 'fixed_point_stop', 1, ('0x1.0000000000000p+0', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'A2', 'optimal_residual', 27, ('0x1.ffffffc000000p-1', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'b-delta0.9', 'optimal_residual', 138, ('0x1.ffffffaaab8c7p-1', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'c-delta0.9', 'optimal_residual', 138, ('0x1.ffffffaaab8c7p-1', '0x1.b333333333333p+0')),
    ('flat-quadratic', 'A2-delta0.9', 'fixed_point_stop', 144, ('0x1.ffffff7feaacfp-1', '0x1.b333333333333p+0')),
    ('line-1d', 'a', 'fixed_point_stop', 1, ('0x1.0000000000000p+0',)),
    ('line-1d', 'b', 'optimal_residual', 1, ('0x1.0000000000000p+0',)),
    ('line-1d', 'c', 'fixed_point_stop', 1, ('0x1.0000000000000p+0',)),
    ('line-1d', 'd', 'fixed_point_stop', 1, ('0x1.0000000000000p+0',)),
    ('line-1d', 'A2', 'fixed_point_stop', 5, ('0x1.0000000000005p+0',)),
    ('line-1d', 'b-delta0.9', 'optimal_residual', 5, ('0x1.0000000000000p+0',)),
    ('line-1d', 'c-delta0.9', 'fixed_point_stop', 5, ('0x1.0000000000000p+0',)),
    ('line-1d', 'A2-delta0.9', 'optimal_residual', 7, ('0x1.0000000bd0758p+0',)),
    ('pnorm1p5-box', 'a', 'optimal_residual', 27, ('0x1.0000000000000p+0', '0x1.ffffffa00b49cp-2')),
    ('pnorm1p5-box', 'b', 'optimal_residual', 3, ('0x1.0000000000000p+0', '0x1.fffffffd40f28p-2')),
    ('pnorm1p5-box', 'c', 'optimal_residual', 3, ('0x1.0000000000000p+0', '0x1.fffffffd40f28p-2')),
    ('pnorm1p5-box', 'd', 'iteration_cap', 5000, ('0x1.0000000000000p+0', '0x1.fff19cb1e9583p-2')),
    ('pnorm1p5-box', 'A2', 'fixed_point_stop', 24, ('0x1.0000000000000p+0', '0x1.fffffd8680c0ap-2')),
    ('pnorm1p5-box', 'b-delta0.9', 'optimal_residual', 128, ('0x1.0000000000000p+0', '0x1.ffffff622ad0dp-2')),
    ('pnorm1p5-box', 'c-delta0.9', 'optimal_residual', 113, ('0x1.0000000000000p+0', '0x1.ffffff654d3ccp-2')),
    ('pnorm1p5-box', 'A2-delta0.9', 'fixed_point_stop', 122, ('0x1.0000000000000p+0', '0x1.fffff75efee61p-2')),
    ('pnorm4-ball', 'a', 'optimal_residual', 17, ('0x1.0000000000000p+0', '-0x1.66029589ea8f6p-28')),
    ('pnorm4-ball', 'b', 'optimal_residual', 4, ('0x1.0000000000000p+0', '0x1.032db1d6d8433p-40')),
    ('pnorm4-ball', 'c', 'fixed_point_stop', 4, ('0x1.0000000000000p+0', '0x1.032db696d8428p-40')),
    ('pnorm4-ball', 'd', 'iteration_cap', 5000, ('0x1.ffffffffffff0p-1', '0x1.031ffe3b4bcb8p-24')),
    ('pnorm4-ball', 'A2', 'fixed_point_stop', 22, ('0x1.ffffffffffffdp-1', '0x1.019ebfb90cba6p-25')),
    ('pnorm4-ball', 'b-delta0.9', 'optimal_residual', 85, ('0x1.0000000000000p+0', '0x1.325d2ef5529aep-27')),
    ('pnorm4-ball', 'c-delta0.9', 'optimal_residual', 25, ('0x1.0000000000000p+0', '0x1.6a02b01b1d583p-37')),
    ('pnorm4-ball', 'A2-delta0.9', 'fixed_point_stop', 103, ('0x1.fffffffffffebp-1', '0x1.23b21270dc0abp-24')),
    ('pnorm4-ball-far', 'a', 'optimal_residual', 13, ('0x1.0000000000000p+0', '-0x1.3124ef8a3bec7p-30')),
    ('pnorm4-ball-far', 'b', 'optimal_residual', 17, ('0x1.0000000000000p+0', '-0x1.ce9769add6bbep-28')),
    ('pnorm4-ball-far', 'c', 'optimal_residual', 17, ('0x1.0000000000000p+0', '-0x1.ce9769add6bc7p-28')),
    ('pnorm4-ball-far', 'd', 'iteration_cap', 5000, ('0x1.ffffffffea112p-1', '0x1.2bbaae3c297b0p-18')),
    ('pnorm4-ball-far', 'A2', 'fixed_point_stop', 23, ('0x1.ffffffffffff7p-1', '0x1.815cb5510c22fp-25')),
    ('pnorm4-ball-far', 'b-delta0.9', 'optimal_residual', 56, ('0x1.0000000000000p+0', '0x1.e213072fe32d0p-28')),
    ('pnorm4-ball-far', 'c-delta0.9', 'optimal_residual', 34, ('0x1.ffffffffffffep-1', '-0x1.099ffe4135fc8p-28')),
    ('pnorm4-ball-far', 'A2-delta0.9', 'fixed_point_stop', 159, ('0x1.fffffffffffd9p-1', '0x1.92756ef7fca98p-24')),
    ('quadratic-box', 'a', 'fixed_point_stop', 1, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'b', 'optimal_residual', 1, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'c', 'fixed_point_stop', 1, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'd', 'fixed_point_stop', 2, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'A2', 'fixed_point_stop', 5, ('0x1.ffffffffffff8p-1', '0x1.ffffffffffff8p-1')),
    ('quadratic-box', 'b-delta0.9', 'optimal_residual', 5, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'c-delta0.9', 'fixed_point_stop', 5, ('0x1.0000000000000p+0', '0x1.0000000000000p+0')),
    ('quadratic-box', 'A2-delta0.9', 'optimal_residual', 7, ('0x1.ffffffe85f14ep-1', '0x1.ffffffe85f14ep-1')),
]

# (instance, run, inner_trials, projections, {monitor: (passed, worst_margin)})
ACCOUNTING = [
    ('flat-quadratic', 'a', 0, 27, {}),
    ('flat-quadratic', 'b', 0, 1, {'descent': (True, '0x1.0000000000000p-1')}),
    ('flat-quadratic', 'c', 0, 1, {'descent': (True, '0x1.0000000000000p-1'),
        'projection_gap_bound': (True, '0x0.0p+0'), 'vanishing_product': (True, '0x0.0p+0'),
        'quasi_fejer': (True, '0x1.3880000000000p+13'), 'epsilon_sum': (True, '0x1.000010c6f8000p+0')}),
    ('flat-quadratic', 'd', 0, 1, {'exogenous_step_bound': (True, '0x0.0p+0')}),
    ('flat-quadratic', 'A2', 0, 27, {'anchor_monotone': (True, '0x1.0000000000000p-27'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '0x0.0p+0'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('flat-quadratic', 'b-delta0.9', 414, 552, {'descent': (True, '0x0.0p+0')}),
    ('flat-quadratic', 'c-delta0.9', 414, 138, {'descent': (True, '0x1.de4ad45bef9a0p-58'),
        'projection_gap_bound': (True, '-0x1.8000000000000p-58'),
        'vanishing_product': (True, '0x1.293100c6888ecp-56'), 'quasi_fejer': (True, '0x1.b7987c7a50316p-55'),
        'epsilon_sum': (True, '0x1.1111329f00527p-1')}),
    ('flat-quadratic', 'A2-delta0.9', 435, 144, {'anchor_monotone': (True, '0x1.4a7f670000000p-29'),
        'level_monotone': (True, '0x1.0000000000000p-54'), 'level_sandwich': (True, '0x1.0000000000000p-54'),
        'level_gap_step': (True, '-0x1.382f9380424e0p-31'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('line-1d', 'a', 0, 1, {}),
    ('line-1d', 'b', 0, 1, {'descent': (True, '0x1.8000000000000p+0')}),
    ('line-1d', 'c', 0, 1, {'descent': (True, '0x1.8000000000000p+0'),
        'projection_gap_bound': (True, '0x1.0000000000000p+0'), 'vanishing_product': (True, '0x0.0p+0'),
        'quasi_fejer': (True, '0x1.d4c0000000000p+14'), 'epsilon_sum': (True, '0x1.000010c6f8000p+0')}),
    ('line-1d', 'd', 0, 1, {'exogenous_step_bound': (True, '0x0.0p+0')}),
    ('line-1d', 'A2', 0, 5, {'anchor_monotone': (True, '0x1.8f19240000000p-25'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '-0x1.f800000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '0x0.0p+0')}),
    ('line-1d', 'b-delta0.9', 12, 17, {'descent': (True, '0x1.7f6c100000000p-3')}),
    ('line-1d', 'c-delta0.9', 6, 5, {'descent': (True, '0x1.3440000000000p-3'),
        'projection_gap_bound': (True, '0x1.2000000000000p-3'), 'vanishing_product': (True, '0x0.0p+0'),
        'quasi_fejer': (True, '0x1.5680000000000p-2'), 'epsilon_sum': (True, '0x1.3760218def418p-1')}),
    ('line-1d', 'A2-delta0.9', 6, 7, {'anchor_monotone': (True, '0x1.371962aee0000p-14'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '-0x1.0000000000000p-52'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '0x0.0p+0')}),
    ('pnorm1p5-box', 'a', 0, 27, {}),
    ('pnorm1p5-box', 'b', 0, 3, {'descent': (True, '0x1.8e7840f600000p-22')}),
    ('pnorm1p5-box', 'c', 0, 3, {'descent': (True, '0x1.8e7840f000000p-22'),
        'projection_gap_bound': (True, '0x1.2000000000000p-69'),
        'vanishing_product': (True, '0x1.e2b2c96d90000p-66'), 'quasi_fejer': (True, '0x1.e669cb4c98874p-8'),
        'epsilon_sum': (True, '0x1.24dfe4862c000p+0')}),
    ('pnorm1p5-box', 'd', 0, 5000, {'exogenous_step_bound': (True, '0x0.0p+0')}),
    ('pnorm1p5-box', 'A2', 0, 24, {'anchor_monotone': (True, '0x1.0b01020000000p-26'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '0x1.0000000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('pnorm1p5-box', 'b-delta0.9', 380, 508, {'descent': (True, '0x0.0p+0')}),
    ('pnorm1p5-box', 'c-delta0.9', 332, 113, {'descent': (True, '0x0.0p+0'),
        'projection_gap_bound': (True, '-0x1.0000000000000p-62'),
        'vanishing_product': (True, '0x1.e86632fa70571p-57'), 'quasi_fejer': (True, '0x1.ab596d35d50f8p-57'),
        'epsilon_sum': (True, '0x1.a02c7957ab008p-1')}),
    ('pnorm1p5-box', 'A2-delta0.9', 359, 122, {'anchor_monotone': (True, '0x1.dd91110000000p-28'),
        'level_monotone': (True, '0x1.4000000000000p-49'), 'level_sandwich': (True, '0x1.7000000000000p-49'),
        'level_gap_step': (True, '-0x1.0000000000000p-52'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('pnorm4-ball', 'a', 0, 17, {}),
    ('pnorm4-ball', 'b', 0, 4, {'descent': (True, '0x1.45343dc000000p-27')}),
    ('pnorm4-ball', 'c', 0, 4, {'descent': (True, '0x1.4534402000000p-27'),
        'projection_gap_bound': (True, '0x1.45343e4e8ed96p-28'),
        'vanishing_product': (True, '0x1.0665879eecd97p-80'), 'quasi_fejer': (True, '0x1.8cfa4587ee62ep-13'),
        'epsilon_sum': (True, '0x1.764909eca0000p+1')}),
    ('pnorm4-ball', 'd', 0, 5000, {'exogenous_step_bound': (True, '0x1.a36e2b607eef0p-13')}),
    ('pnorm4-ball', 'A2', 0, 22, {'anchor_monotone': (True, '0x1.a035048000000p-26'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '0x1.0000000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('pnorm4-ball', 'b-delta0.9', 297, 382, {'descent': (True, '0x0.0p+0')}),
    ('pnorm4-ball', 'c-delta0.9', 62, 25, {'descent': (True, '0x1.8152773400000p-24'),
        'projection_gap_bound': (True, '0x1.6513b347f23f7p-24'),
        'vanishing_product': (True, '0x1.ffeb9a13e88f3p-74'), 'quasi_fejer': (True, '0x1.ac22bcd4c01dcp-23'),
        'epsilon_sum': (True, '0x1.3be8e1ad602d0p+0')}),
    ('pnorm4-ball', 'A2-delta0.9', 252, 103, {'anchor_monotone': (True, '0x1.2e14950000000p-27'),
        'level_monotone': (True, '0x1.2000000000000p-49'), 'level_sandwich': (True, '0x1.2000000000000p-49'),
        'level_gap_step': (True, '-0x1.2000000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('pnorm4-ball-far', 'a', 0, 13, {}),
    ('pnorm4-ball-far', 'b', 0, 17, {'descent': (True, '0x0.0p+0')}),
    ('pnorm4-ball-far', 'c', 0, 17, {'descent': (True, '0x1.6000000000000p-47'),
        'projection_gap_bound': (True, '0x1.d0f9b6bf5270cp-49'),
        'vanishing_product': (True, '0x1.73830bfecb734p-54'), 'quasi_fejer': (True, '0x1.d4bf2f064940bp-35'),
        'epsilon_sum': (True, '0x1.5efc55d600000p+1')}),
    ('pnorm4-ball-far', 'd', 0, 5000, {'exogenous_step_bound': (True, '0x1.a36d7685b8afcp-13')}),
    ('pnorm4-ball-far', 'A2', 0, 23, {'anchor_monotone': (True, '0x1.1b9effe000000p-25'),
        'level_monotone': (True, '0x1.8000000000000p-46'), 'level_sandwich': (True, '0x1.0000000000000p-48'),
        'level_gap_step': (True, '0x1.7ffc90524f197p-48'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('pnorm4-ball-far', 'b-delta0.9', 296, 352, {'descent': (True, '0x0.0p+0')}),
    ('pnorm4-ball-far', 'c-delta0.9', 61, 34, {'descent': (True, '0x1.0000000000000p-50'),
        'projection_gap_bound': (True, '0x1.c4e7281834d31p-49'),
        'vanishing_product': (True, '0x1.e9fa00ac224e0p-56'), 'quasi_fejer': (True, '0x1.214a07ee257dfp-49'),
        'epsilon_sum': (True, '0x1.43683f2779e40p+0')}),
    ('pnorm4-ball-far', 'A2-delta0.9', 465, 159, {'anchor_monotone': (True, '0x1.14e40d0000000p-27'),
        'level_monotone': (True, '0x1.8000000000000p-46'), 'level_sandwich': (True, '0x1.8000000000000p-46'),
        'level_gap_step': (True, '-0x1.0000000000000p-56'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('quadratic-box', 'a', 0, 1, {}),
    ('quadratic-box', 'b', 0, 1, {'descent': (True, '0x1.8000000000000p+1')}),
    ('quadratic-box', 'c', 0, 1, {'descent': (True, '0x1.8000000000000p+1'),
        'projection_gap_bound': (True, '0x1.ffffffffffffep+0'), 'vanishing_product': (True, '0x0.0p+0'),
        'quasi_fejer': (True, '0x1.d4c0000000000p+15'), 'epsilon_sum': (True, '0x1.000008637c000p+1')}),
    ('quadratic-box', 'd', 0, 2, {'exogenous_step_bound': (True, '0x1.0000000000000p-53')}),
    ('quadratic-box', 'A2', 0, 5, {'anchor_monotone': (True, '0x1.1a347e3000000p-24'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '-0x1.7000000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
    ('quadratic-box', 'b-delta0.9', 12, 17, {'descent': (True, '0x1.7f6c100000000p-2')}),
    ('quadratic-box', 'c-delta0.9', 6, 5, {'descent': (True, '0x1.3440000000000p-2'),
        'projection_gap_bound': (True, '0x1.2000000000000p-2'), 'vanishing_product': (True, '0x0.0p+0'),
        'quasi_fejer': (True, '0x1.5680000000000p-1'), 'epsilon_sum': (True, '0x1.376010c6f7a0cp+0')}),
    ('quadratic-box', 'A2-delta0.9', 6, 7, {'anchor_monotone': (True, '0x1.b7f5ed6ee4000p-14'),
        'level_monotone': (True, '0x0.0p+0'), 'level_sandwich': (True, '0x0.0p+0'),
        'level_gap_step': (True, '-0x1.0418000000000p-53'), 'ball_containment': (True, '0x0.0p+0'),
        'cuts_keep_solution': (True, '-0x0.0p+0')}),
]


def _solve(instance, run):
    strategy, cfg = RUNS[run]
    return solve(get_instance(instance), cfg, strategy)


def test_table_covers_every_instance_and_strategy():
    assert [(iid, r) for iid, r, *_ in PINNED] == [(iid, r) for iid in list_instances() for r in RUNS]
    assert [(iid, r) for iid, r, *_ in ACCOUNTING] == [(iid, r) for iid, r, *_ in PINNED]


@pytest.mark.parametrize("instance, run, status, iterations, final_x", PINNED,
                         ids=[f"{iid}-{r}" for iid, r, *_ in PINNED])
def test_registry_run_is_bit_identical(instance, run, status, iterations, final_x):
    rep = _solve(instance, run)
    assert (rep.status.value, rep.iterations) == (status, iterations)
    assert tuple(float(v).hex() for v in rep.final_x) == final_x


@pytest.mark.parametrize("instance, run, inner_trials, projections, monitors", ACCOUNTING,
                         ids=[f"{iid}-{r}" for iid, r, *_ in ACCOUNTING])
def test_registry_run_accounting_and_monitors_are_bit_identical(instance, run, inner_trials, projections,
                                                                monitors):
    rep = _solve(instance, run)
    assert (rep.inner_trials, rep.projections) == (inner_trials, projections)
    assert {name: (m.passed, float(m.worst_margin).hex()) for name, m in rep.monitors.items()} == monitors
