"""The sweep runner of tests/sweep.py on a suite of three registry runs:
its report, its --out lines and its gate on the suite's bounds."""

import dataclasses
import json

import pytest

import sweep
from projgrad import SolverConfig, get_instance, solve
from projgrad.core import norm

BUDGET = 50


def _runs():
    # pnorm1p5-box under A2 stops 3.7e-8 from its truth, farther than the
    # other runs, so the report would read that distance if it were kept
    yield "quadratic-box b", "b", get_instance("quadratic-box")
    yield "pnorm4-ball A2", "A2", get_instance("pnorm4-ball")
    yield "pnorm1p5-box A2", "A2", dataclasses.replace(get_instance("pnorm1p5-box"), known_solution=None)


def _line(label, inst, rep):
    return f"{label} {rep.status.value} {rep.iterations}"


def _sweep(monkeypatch, capsys, bounds, runs=_runs, argv=()):
    monkeypatch.setitem(sweep.SUITES, "registry", sweep.Suite(runs, BUDGET, _line))
    monkeypatch.setitem(sweep.BOUNDS, "registry", bounds)
    code = sweep.main(["registry", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_report_and_out_lines(monkeypatch, capsys, tmp_path):
    out = tmp_path / "runs.txt"
    code, report = _sweep(monkeypatch, capsys, (0, 0, 3), argv=("--out", str(out)))
    assert code == 0
    assert list(report) == ["runs", "statuses", "exit_0_above_tol", "worst_stopped_distance",
                            "intersection_failures", "failed_monitors"]
    assert report["runs"] == 3 and sum(report["statuses"].values()) == 3
    reps = [solve(inst, SolverConfig(max_outer_iters=BUDGET), strategy) for _, strategy, inst in _runs()]
    assert out.read_text() == "".join(_line(label, None, rep) + "\n" for (label, _, _), rep in zip(_runs(), reps))
    assert report["exit_0_above_tol"] == sum(rep.final_residual > SolverConfig().residual_tol for rep in reps) > 0


def test_a_run_without_a_truth_adds_no_distance(monkeypatch, capsys):
    _, report = _sweep(monkeypatch, capsys, (0, 0, 3))
    distances = [norm(solve(inst, SolverConfig(max_outer_iters=BUDGET), strategy).final_x - inst.known_solution)
                 for _, strategy, inst in list(_runs())[:2]]
    assert report["worst_stopped_distance"] == max(distances) > 0.0
    _, alone = _sweep(monkeypatch, capsys, (0, 0, 3), runs=lambda: list(_runs())[2:])
    assert alone["statuses"] == {"fixed_point_stop": 1}
    assert alone["worst_stopped_distance"] == 0.0


@pytest.mark.parametrize("count", range(3))
def test_each_bound_gates_its_count(monkeypatch, capsys, count):
    # intersection failures, failed monitors, exits 0 above tol
    _, report = _sweep(monkeypatch, capsys, (0, 0, 3))
    counts = (len(report["intersection_failures"]), len(report["failed_monitors"]), report["exit_0_above_tol"])
    assert _sweep(monkeypatch, capsys, counts)[0] == 0
    below = tuple(c - (i == count) for i, c in enumerate(counts))
    assert _sweep(monkeypatch, capsys, below)[0] == 1
