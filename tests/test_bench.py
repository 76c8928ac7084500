import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest

from projgrad import (
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    IterateRecord,
    LogSumExp,
    PNorm,
    ProblemInstance,
    Quadratic,
    RunReport,
    Simplex,
    SolveStatus,
    SolverConfig,
    WholeSpace,
    get_instance,
    list_instances,
    objectives,
    solve,
)
from projgrad.bench import (
    TRACE_COLUMNS,
    RunSpec,
    compare_specs,
    config_from_json,
    format_comparison,
    load_spec,
    oracle_check,
    parse_trace_csv,
    run_spec,
    status_exit_code,
    summarize,
    write_trace_csv,
)
from projgrad.cli import main
from projgrad.core import norm

CENTERED_QUADRATIC = {
    "objective": {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "b": [-0.5, -0.5], "c": 0.25},
    "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "x0": [0.0, 0.0],
    "known_solution": [0.5, 0.5],
    "known_fstar": 0.0,
}


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_registry_lists_acceptance_instances():
    ids = list_instances()
    for wanted in ("quadratic-box", "pnorm4-ball", "pnorm1p5-box", "line-1d", "flat-quadratic"):
        assert wanted in ids


def test_load_spec_roundtrip(tmp_path):
    # top-level keys that load_spec does not read, such as "seed", are ignored
    path = write_spec(tmp_path, "qb.json", {"problem": "quadratic-box", "strategy": "c", "seed": 3})
    spec = load_spec(path)
    assert spec.problem_id == "quadratic-box"
    assert spec.strategy == "c"
    inline = write_spec(tmp_path, "inline.json", {"problem": CENTERED_QUADRATIC, "strategy": "b"})
    spec = load_spec(inline)
    assert spec.problem_id == "inline"
    assert spec.problem.feasible_set.contains(np.array([0.5, 0.5]), 0.0)


QUADRATIC = {"kind": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]], "b": [-1.0, 0.0], "c": 0.5}
HALF_BOX = {"kind": "box", "lower": [0.0, None], "upper": [1.0, 2.0]}

# one row per documented kind: the part it fills (the other part is QUADRATIC
# or HALF_BOX), its JSON, a feasible start, the type built and its fields
SPEC_KINDS = [
    ("objective", {"kind": "pnorm", "p": 1.5, "shift": [2.0, 0.5]}, [0.5, 0.5], PNorm,
     {"p": 1.5, "shift": [2.0, 0.5]}),
    ("objective", QUADRATIC, [0.5, 0.5], Quadratic, {"Q": [[2.0, 0.0], [0.0, 1.0]], "b": [-1.0, 0.0], "c": 0.5}),
    ("objective", {"kind": "logsumexp", "rows": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], "offsets": [0.0, 0.5, 0.0]},
     [0.5, 0.5], LogSumExp, {"rows": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], "offsets": [0.0, 0.5, 0.0]}),
    ("set", HALF_BOX, [0.5, 0.5], Box, {"lower": [0.0, -np.inf], "upper": [1.0, 2.0]}),
    ("set", {"kind": "ball", "center": [0.0, 1.0], "radius": 0.5}, [0.0, 0.5], Ball,
     {"center": [0.0, 1.0], "radius": 0.5}),
    ("set", {"kind": "halfspace", "normal": [1.0, 1.0], "offset": -1.0}, [-1.0, 0.0], Halfspace,
     {"normal": [1.0, 1.0], "offset": -1.0}),
    ("set", {"kind": "hyperplane", "normal": [1.0, 2.0], "offset": 2.0}, [0.0, 1.0], Hyperplane,
     {"normal": [1.0, 2.0], "offset": 2.0}),
    ("set", {"kind": "simplex", "scale": 2.0}, [0.5, 1.5], Simplex, {"scale": 2.0}),
    ("set", {"kind": "wholespace"}, [3.0, -4.0], WholeSpace, {}),
]


def test_load_spec_builds_every_documented_kind(tmp_path):
    for part, kind, x0, cls, fields in SPEC_KINDS:
        problem = {"objective": QUADRATIC, "set": HALF_BOX, "x0": x0, part: kind}
        spec = load_spec(write_spec(tmp_path, "kind.json", {"problem": problem, "strategy": "c"}))
        built = spec.problem.objective if part == "objective" else spec.problem.feasible_set
        assert type(built) is cls, kind
        for name, value in fields.items():
            assert np.array_equal(getattr(built, name), value), (kind, name)
        row, code = run_spec(spec)
        assert code == 0 and row.final_residual <= 1e-6, (kind, row.status, row.final_residual)
    for part in ("objective", "set"):
        problem = {"objective": QUADRATIC, "set": HALF_BOX, "x0": [0.5, 0.5], part: {"kind": "cubic"}}
        with pytest.raises(ValueError, match=f"unknown {part} kind 'cubic'"):
            load_spec(write_spec(tmp_path, "unknown.json", {"problem": problem, "strategy": "c"}))


def test_load_spec_rejects_infeasible_start(tmp_path):
    bad = dict(CENTERED_QUADRATIC, x0=[5.0, 0.0])
    path = write_spec(tmp_path, "bad.json", {"problem": bad, "strategy": "c"})
    # the message gives the distance of x0 = (5, 0) to [0, 1]^2
    with pytest.raises(ValueError, match=r"infeasible: 4\.000e\+00 from the feasible set"):
        load_spec(path)


def test_load_spec_rejects_bad_theta(tmp_path):
    path = write_spec(
        tmp_path, "theta.json", {"problem": "quadratic-box", "strategy": "c", "config": {"theta": 1.0}}
    )
    with pytest.raises(ValueError, match="theta"):
        load_spec(path)


def test_config_rejects_removed_keys():
    for key in ("beta_min", "beta_max", "beta_bar", "fixed_point_tol"):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_json({key: 1.0})
    assert config_from_json({"beta": 25.0}).beta == 25.0


def test_load_spec_strategy_parameter_presence(tmp_path):
    path_a = write_spec(tmp_path, "a.json", {"problem": "quadratic-box", "strategy": "a"})
    with pytest.raises(ValueError, match="beta"):
        load_spec(path_a)
    path_d = write_spec(tmp_path, "d.json", {"problem": "quadratic-box", "strategy": "d"})
    with pytest.raises(ValueError, match="exo_constant"):
        load_spec(path_d)
    ok = write_spec(tmp_path, "a_ok.json", {"problem": "quadratic-box", "strategy": "a", "config": {"beta": 0.5}})
    assert load_spec(ok).config.beta == 0.5
    # an overriding strategy meets the same rule in place of the spec's own
    assert load_spec(path_a, "c").strategy == "c"
    with pytest.raises(ValueError, match="'exo_constant'"):
        load_spec(ok, "d")


def test_cli_strategy_override_error_names_the_file(tmp_path, capsys):
    path = write_spec(tmp_path, "qb.json", {"problem": "quadratic-box"})
    assert main(["solve", "--spec", str(path), "--strategy", "a"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: strategy 'a' requires an explicit 'beta' in config\n"


def test_load_spec_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"problem": "quadratic-box",\n  "strategy": }')
    with pytest.raises(ValueError, match="line 2"):
        load_spec(path)


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read spec"),
        ("[1, 2]", "a spec must be a JSON object, got list"),
        ('{"problem": "quadratic-box", "config": [1]}', "'config' must be a JSON object, got list"),
        ('{"problem": "quadratic-box", "output": 5}', "'output' must be a string, got int"),
        ('{"problem": "quadratic-box", "strategy": "z"}', "unknown strategy 'z'"),
        ('{"problem": 7}', "'problem' must be a registry id or an inline object"),
        ('{"problem": "quadratic-box", "config": {"max_inner_iters": 1.5}}',
         "bad config: max_inner_iters must be an integer, got 1.5"),
        ('{"problem": {"objective": {"kind": "pnorm", "p": 4}, "set": {"kind": "wholespace"}, "x0": [0]}}',
         "missing field 'shift'"),
        ('{"problem": {"objective": {"kind": "pnorm", "p": null, "shift": [0]}, "set": {"kind": "wholespace"},'
         ' "x0": [0]}}', "'p': float() argument must be a string or a"),
        ('{"problem": {"objective": {"kind": "pnorm", "p": 2, "shift": [0]},'
         ' "set": {"kind": "box", "lower": null, "upper": [1]}, "x0": [0]}}',
         "'lower': 'NoneType' object is not iterable"),
        ('{"problem": {"objective": "quadratic", "set": {"kind": "wholespace"}, "x0": [0]}}',
         "'objective' must be a JSON object, got str"),
        ('{"problem": "no-such"}', "unknown instance 'no-such'; known: flat-quadratic, "),
    ],
    ids=["missing", "top-level-list", "config-list", "output-int", "unknown-strategy", "problem-number",
         "inner-iters-float", "pnorm-without-shift", "p-null", "lower-null", "objective-string", "unknown-instance"],
)
def test_load_spec_rejects_unreadable_or_non_object(tmp_path, capsys, text, message):
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        load_spec(path)
    assert main(["solve", "--spec", str(path)]) == 1
    # one line, no traceback
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_run_spec_writes_roundtrippable_trace(tmp_path):
    spec = load_spec(write_spec(tmp_path, "qb.json", {"problem": "quadratic-box", "strategy": "c"}))
    row, code = run_spec(spec, out_prefix=str(tmp_path / "run"))
    assert code == 0
    assert row.final_residual <= 1e-6
    rows = parse_trace_csv(tmp_path / "run_trace.csv")
    assert len(rows) == row.iterations + 1  # one per step plus the terminal row
    # formatted fields reproduce the in-memory floats exactly
    report_rows = rows[:-1]
    spec2 = load_spec(write_spec(tmp_path, "qb2.json", {"problem": "quadratic-box", "strategy": "c"}))
    report = solve(spec2.problem, spec2.config, spec2.strategy)
    for parsed, rec in zip(report_rows, report.trace):
        assert parsed["k"] == rec.k
        assert parsed["f"] == rec.f_val
        assert parsed["residual"] == rec.residual
        assert parsed["alpha"] == rec.alpha
        assert parsed["epsilon_qf"] == rec.epsilon_qf
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["status"] in ("optimal_residual", "fixed_point_stop")


def test_trace_csv_keeps_infinite_and_nan_values(tmp_path):
    inst = get_instance("flat-quadratic")
    x = inst.x0
    rec = IterateRecord(0, x, -np.inf, np.nan, np.inf, 0, np.inf, f_lev=-np.inf, epsilon_qf=np.nan, dist_anchor=0.0)
    report = RunReport(SolveStatus.NON_FINITE, 1, [rec], x, np.nan, -np.inf, 0, 0)
    write_trace_csv(tmp_path / "trace.csv", report, inst)
    step, final = parse_trace_csv(tmp_path / "trace.csv")
    assert [step[key] for key in ("f", "residual", "beta", "f_lev")] == [-np.inf, np.inf, np.inf, -np.inf]
    assert np.isnan(step["alpha"]) and np.isnan(step["epsilon_qf"])
    assert np.isnan(final["f"]) and final["residual"] == -np.inf and final["f_lev"] == -np.inf


def csv_writer_trace(report, inst) -> bytes:
    """The trace file as csv.writer writes it: each row built by column
    name, a float in shortest round-trip decimal, a missing value empty."""
    known = inst.known_solution

    def row(x, **values):
        if known is not None:
            values["dist_known_solution"] = norm(x - known)
        return ["" if (v := values.get(name)) is None else v if name in ("k", "inner_trials") else repr(float(v))
                for name in TRACE_COLUMNS]

    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(TRACE_COLUMNS)
    for r in report.trace:
        writer.writerow(row(r.x, k=r.k, f=r.f_val, residual=r.residual, alpha=r.alpha, beta=r.beta,
                            inner_trials=r.inner_trials, f_lev=r.f_lev, epsilon_qf=r.epsilon_qf,
                            dist_anchor=r.dist_anchor))
    last, x = report.trace[-1] if report.trace else None, report.final_x
    writer.writerow(row(x, k=report.iterations, f=report.final_f, residual=report.final_residual,
                        f_lev=None if last is None else last.f_lev,
                        dist_anchor=None if last is None or last.dist_anchor is None else norm(x - inst.x0)))
    return out.getvalue().encode()


@pytest.mark.parametrize("strategy", ["A2", "c"])
def test_trace_csv_bytes_are_csv_writers(tmp_path, strategy):
    # pnorm4-ball has a known solution: A2 fills f_lev and dist_anchor, c
    # epsilon_qf, both dist_known_solution
    inst = get_instance("pnorm4-ball")
    report = solve(inst, SolverConfig(), strategy)
    write_trace_csv(tmp_path / "trace.csv", report, inst)
    expected = csv_writer_trace(report, inst)
    assert expected.count(b"\r\n") == len(report.trace) + 2
    assert (tmp_path / "trace.csv").read_bytes() == expected


def test_trace_csv_bytes_with_infinite_and_nan_values_are_csv_writers(tmp_path):
    inst = get_instance("flat-quadratic")
    x = inst.x0
    rec = IterateRecord(0, x, -np.inf, np.nan, np.inf, 0, np.inf, f_lev=-np.inf, epsilon_qf=np.nan, dist_anchor=0.0)
    report = RunReport(SolveStatus.NON_FINITE, 1, [rec], x, np.nan, -np.inf, 0, 0)
    write_trace_csv(tmp_path / "trace.csv", report, inst)
    assert (tmp_path / "trace.csv").read_bytes() == csv_writer_trace(report, inst)


def test_summary_file_is_json_dumps_of_the_row(tmp_path):
    spec = load_spec(write_spec(tmp_path, "flat.json", {"problem": "flat-quadratic", "strategy": "A2"}))
    row, _ = run_spec(spec, out_prefix=str(tmp_path / "run"))
    assert (tmp_path / "run_summary.json").read_text() == json.dumps(dataclasses.asdict(row)) + "\n"
    assert list(json.loads((tmp_path / "run_summary.json").read_text())) == [f.name for f in dataclasses.fields(row)]


def test_summary_final_x_roundtrips_bit_exactly():
    spec = RunSpec(problem_id="pnorm1p5-box", problem=get_instance("pnorm1p5-box"), strategy="c", config=SolverConfig())
    report = solve(spec.problem, spec.config, spec.strategy)
    final_x = summarize(spec, report, 0.0).final_x
    assert all(type(v) is float for v in final_x)
    assert final_x == [float(v) for v in report.final_x]
    assert np.array(json.loads(json.dumps(final_x))).tobytes() == report.final_x.tobytes()


def test_run_spec_deterministic_traces(tmp_path):
    payload = {"problem": "pnorm4-ball", "strategy": "c", "seed": 7}
    spec1 = load_spec(write_spec(tmp_path, "s1.json", payload))
    spec2 = load_spec(write_spec(tmp_path, "s2.json", payload))
    run_spec(spec1, out_prefix=str(tmp_path / "r1"))
    run_spec(spec2, out_prefix=str(tmp_path / "r2"))
    assert (tmp_path / "r1_trace.csv").read_bytes() == (tmp_path / "r2_trace.csv").read_bytes()


def test_run_spec_anchored_flat_reports_distance_to_target(tmp_path):
    spec = load_spec(write_spec(tmp_path, "flat.json", {"problem": "flat-quadratic", "strategy": "A2"}))
    row, code = run_spec(spec)
    assert code == 0
    assert row.dist_known_solution is not None
    assert row.dist_known_solution <= 1e-5


def test_run_spec_iteration_cap_exit_code(tmp_path):
    spec = load_spec(
        write_spec(
            tmp_path,
            "cap.json",
            {"problem": "pnorm4-ball-far", "strategy": "c", "config": {"max_outer_iters": 1}},
        )
    )
    row, code = run_spec(spec)
    assert code == 4
    assert row.status == "iteration_cap"


def test_exit_code_mapping():
    assert status_exit_code(SolveStatus.OPTIMAL_RESIDUAL) == 0
    assert status_exit_code(SolveStatus.FIXED_POINT_STOP) == 0
    assert status_exit_code(SolveStatus.LINE_SEARCH_FAILURE) == 2
    assert status_exit_code(SolveStatus.INTERSECTION_FAILURE) == 3
    assert status_exit_code(SolveStatus.ITERATION_CAP) == 4


def test_compare_projection_accounting(tmp_path):
    spec_b = load_spec(write_spec(tmp_path, "b.json", {"problem": "line-1d", "strategy": "b"}))
    spec_c = load_spec(write_spec(tmp_path, "c.json", {"problem": "line-1d", "strategy": "c"}))
    rows = compare_specs([spec_b, spec_c])
    by_strategy = {r.strategy: r for r in rows}
    # feasible-direction: exactly one projection per outer iteration
    assert by_strategy["c"].total_projections == by_strategy["c"].iterations
    # boundary search: inner trials + 1 per iteration
    assert by_strategy["b"].total_projections == by_strategy["b"].total_inner_trials + by_strategy["b"].iterations
    assert by_strategy["c"].total_projections <= by_strategy["b"].total_projections
    table = format_comparison(rows)
    assert "strategy" in table and " b " not in table.splitlines()[0]


@pytest.mark.parametrize("strategy, delta", [("b", 1e-4), ("c", 0.9)])
def test_summary_totals_count_every_step_at_any_trace_stride(strategy, delta):
    inst = get_instance("pnorm4-ball-far")

    def totals(stride):
        spec = RunSpec(problem=inst, problem_id="pnorm4-ball-far", strategy=strategy,
                       config=SolverConfig(delta=delta, trace_stride=stride))
        row, _code = run_spec(spec)
        return row.iterations, row.total_inner_trials, row.total_projections

    # at stride 1 the trace holds every step: b takes 17 iterations, and the
    # searches of c backtrack at delta = 0.9 (61 trials in 34 iterations)
    rep = solve(inst, SolverConfig(delta=delta), strategy)
    trials = sum(r.inner_trials for r in rep.trace)
    assert totals(1) == (rep.iterations, trials, rep.iterations + (trials if strategy == "b" else 0))
    assert totals(5) == totals(1)


def test_compare_requires_two_specs_and_same_instance(tmp_path):
    spec_c = load_spec(write_spec(tmp_path, "c.json", {"problem": "line-1d", "strategy": "c"}))
    with pytest.raises(ValueError, match="two"):
        compare_specs([spec_c])
    other = load_spec(write_spec(tmp_path, "other.json", {"problem": "quadratic-box", "strategy": "c"}))
    with pytest.raises(ValueError, match="instance"):
        compare_specs([spec_c, other])
    # inline problems of the same kinds from the same start, with other data
    objective = {"kind": "quadratic", "Q": [[5.0, 0.0], [0.0, 1.0]], "b": [3.0, -0.5]}
    box = {"kind": "box", "lower": [0.0, 0.0], "upper": [2.0, 2.0]}
    centered = load_spec(write_spec(tmp_path, "centered.json", {"problem": CENTERED_QUADRATIC, "strategy": "c"}))
    for other in ({"objective": objective, "set": box}, {"objective": objective}, {"set": box}):
        problem = dict(CENTERED_QUADRATIC, known_solution=None, known_fstar=None, **other)
        spec = load_spec(write_spec(tmp_path, "other.json", {"problem": problem, "strategy": "c"}))
        with pytest.raises(ValueError, match="instance"):
            compare_specs([centered, spec])


def test_compare_flags_divergent_constant_step(tmp_path):
    diverging = {"problem": CENTERED_QUADRATIC, "strategy": "a", "config": {"beta": 2.5, "max_outer_iters": 300}}
    fine = {"problem": CENTERED_QUADRATIC, "strategy": "c"}
    rows = compare_specs([load_spec(write_spec(tmp_path, "a.json", diverging)),
                          load_spec(write_spec(tmp_path, "c.json", fine))])
    by_strategy = {r.strategy: r for r in rows}
    assert by_strategy["a"].status == "iteration_cap"
    assert by_strategy["a"].final_residual > 1e-2
    assert by_strategy["c"].final_residual <= 1e-6


def test_oracle_check_quadratic_box_matches_clamp():
    report = oracle_check(get_instance("quadratic-box"))
    assert report.method == "active-set-qp"
    assert norm(np.array(report.reference) - np.array([1.0, 1.0])) <= 1e-10
    assert report.unique is True
    assert report.strategy_distances["c"] <= 1e-6


def test_oracle_check_pnorm_ball_matches_radial_point():
    report = oracle_check(get_instance("pnorm4-ball"))
    assert report.method == "projection"
    assert report.unique is True
    assert norm(np.array(report.reference) - np.array([1.0, 0.0])) <= 1e-8


@pytest.mark.parametrize("n", [50, 1000])
def test_oracle_check_pnorm_reference_is_projection_of_shift(n):
    shift = 2.0 * np.random.default_rng(n).standard_normal(n)
    sets = [
        Box(lower=-np.ones(n), upper=np.ones(n)),
        Ball(center=np.zeros(n), radius=1.0),
        Simplex(scale=1.0),
        Halfspace(normal=np.ones(n), offset=float(shift.sum()) - 1.0),
    ]
    for set_ in sets:
        inst = ProblemInstance(PNorm(p=4.0, shift=shift), set_, set_.project(np.zeros(n)))
        report = oracle_check(inst, strategies=("b",))
        assert report.method == "projection"
        assert report.reference == set_.project(shift).tolist(), type(set_).__name__
        assert report.unique is True
        assert report.projection_of_start == report.reference


def test_oracle_check_rejects_objective_without_exact_reference(tmp_path, capsys):
    problem = {"objective": SPEC_KINDS[2][1], "set": HALF_BOX, "x0": [0.5, 0.5]}
    path = write_spec(tmp_path, "lse.json", {"problem": problem, "strategy": "c"})
    with pytest.raises(ValueError, match="LogSumExp"):
        oracle_check(load_spec(path).problem)
    assert main(["oracle", "--spec", str(path)]) == 1
    assert "LogSumExp" in capsys.readouterr().err


def test_oracle_check_flat_instance_reports_solution_set():
    report = oracle_check(get_instance("flat-quadratic"))
    assert report.unique is False
    assert norm(np.array(report.projection_of_start) - np.array([1.0, 1.7])) <= 1e-8


def test_oracle_check_rejects_large_dimension():
    inst = ProblemInstance(
        objective=Quadratic(Q=np.eye(5), b=np.zeros(5)),
        feasible_set=Box(lower=np.zeros(5), upper=np.ones(5)),
        x0=np.zeros(5),
    )
    with pytest.raises(ValueError, match="quadratics up to dimension 4"):
        oracle_check(inst)


def test_cli_solve_and_instances(tmp_path, capsys):
    spec_path = write_spec(tmp_path, "qb.json", {"problem": "quadratic-box", "strategy": "c"})
    code = main(["solve", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] in ("optimal_residual", "fixed_point_stop")
    assert (tmp_path / "out_trace.csv").exists()
    assert main(["instances"]) == 0
    assert "quadratic-box" in capsys.readouterr().out


def test_cli_solve_prints_the_row_fields(tmp_path, capsys, monkeypatch):
    spec_path = write_spec(tmp_path, "qb.json", {"problem": "quadratic-box", "strategy": "c"})
    rows = []

    def recording(spec, out_prefix):
        row, code = run_spec(spec, out_prefix)
        rows.append(row)
        return row, code

    monkeypatch.setattr("projgrad.cli.run_spec", recording)
    assert main(["solve", "--spec", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(vars(rows[0]), indent=2) + "\n"
    assert out == json.dumps(dataclasses.asdict(rows[0]), indent=2) + "\n"


def test_cli_strategy_and_tolerance_overrides(tmp_path, capsys, monkeypatch):
    spec_path = write_spec(tmp_path, "qb.json", {"problem": "line-1d", "strategy": "c",
                                                 "config": {"residual_tol": 1e-3, "delta": 0.5}})
    configs = []
    monkeypatch.setattr("projgrad.cli.run_spec",
                        lambda spec, out_prefix: configs.append(spec.config) or run_spec(spec, out_prefix))
    code = main(["solve", "--spec", str(spec_path), "--strategy", "A2", "--max-iters", "50", "--tol", "1e-6"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["strategy"] == "A2"
    # the overrides replace the spec's values and keep the rest of its config
    assert [(c.max_outer_iters, c.residual_tol, c.delta) for c in configs] == [(50, 1e-6, 0.5)]


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "-1", "residual_tol must be positive and finite, got -1.0"),
    ("--max-iters", "0", "max_outer_iters must be at least 1"),
])
def test_cli_config_override_fails_like_the_spec_config(tmp_path, capsys, flag, value, message):
    path = write_spec(tmp_path, "qb.json", {"problem": "quadratic-box", "strategy": "c"})
    assert main(["solve", "--spec", str(path), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {path}: bad config: {message}\n"


def test_cli_compare_and_oracle(tmp_path, capsys):
    b = write_spec(tmp_path, "b.json", {"problem": "line-1d", "strategy": "b"})
    c = write_spec(tmp_path, "c.json", {"problem": "line-1d", "strategy": "c"})
    assert main(["compare", "--specs", str(b), str(c)]) == 0
    assert "strategy" in capsys.readouterr().out
    assert main(["oracle", "--spec", str(c)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["reference"][0] - 1.0) <= 1e-8


def test_cli_compare_inline_specs_certify_q_once(tmp_path, capsys, monkeypatch):
    # three specs load three equal Q arrays, which are certified once
    problem = {
        "objective": {"kind": "quadratic", "Q": [[4.0, 1.0], [1.0, 2.0]], "b": [-2.0, -1.0]},
        "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "x0": [1.0, 0.0],
    }
    paths = [
        str(write_spec(tmp_path, f"{s}.json", {"problem": problem, "strategy": s, "config": {"max_outer_iters": 40}}))
        for s in ("b", "c", "A2")
    ]
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda Q: calls.append(Q.shape) or cholesky(Q))
    monkeypatch.setattr(objectives, "_CERTIFIED", {})
    assert main(["compare", "--specs", *paths]) == 0
    assert calls == [(2, 2)]
    assert capsys.readouterr().out == (
        "strategy             status   iters   inner   projs     residual              f\n"
        "       b   optimal_residual      19      29      48    3.725e-09    -0.57142857\n"
        "       c   optimal_residual      19      28      19    3.725e-09    -0.57142857\n"
        "      A2      iteration_cap      40      46      40    8.309e-02    -0.57061971\n"
    )


def test_cli_oracle_pnorm4_ball_is_exact(tmp_path, capsys):
    path = write_spec(tmp_path, "p4.json", {"problem": "pnorm4-ball", "strategy": "c"})
    assert main(["oracle", "--spec", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reference"] == [1.0, 0.0]
    assert report["method"] == "projection" and "converged" not in report


def test_cli_bad_spec_returns_one(tmp_path, capsys):
    path = write_spec(tmp_path, "bad.json", {"problem": "unknown-id", "strategy": "c"})
    assert main(["solve", "--spec", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_run_spec_respects_spec_output_field(tmp_path):
    payload = {"problem": "line-1d", "strategy": "c", "output": str(tmp_path / "auto")}
    spec = load_spec(write_spec(tmp_path, "s.json", payload))
    run_spec(spec)
    assert (tmp_path / "auto_trace.csv").exists()
