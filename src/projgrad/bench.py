"""Benchmark harness: spec files, runs, trace emission, comparisons, oracles.

A run spec is a JSON file:

    {
      "problem": "quadratic-box" | {"objective": {...}, "set": {...},
                                    "x0": [...], "known_solution": [...]?,
                                    "known_fstar": number?},
      "strategy": "a" | "b" | "c" | "d" | "A2",
      "config": {"beta": 0.5, "theta": 0.5, "delta": 1e-4, ...},
      "output": "runs/qb"
    }

Objective kinds: pnorm {p, shift}, quadratic {Q, b, c}, logsumexp
{rows, offsets}.  Set kinds: box {lower, upper; null bounds mean unbounded},
ball {center, radius}, halfspace/hyperplane {normal, offset}, simplex
{scale}, wholespace {}.  Strategy "a" requires config.beta and "d" requires
config.exo_constant.

Trace CSV columns are fixed: k, f, residual, alpha, beta, inner_trials,
f_lev, epsilon_qf, dist_anchor, dist_known_solution.  Floats are written in
shortest round-trip decimal; missing values are empty.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .core import SolverConfig, as_vector, norm
from .objectives import LogSumExp, Objective, PNorm, Quadratic
from .oracle import min_distance_point, quadratic_oracle, quadratic_solution_set, system_from_set
from .registry import get_instance
from .sets import Ball, Box, FeasibleSet, Halfspace, Hyperplane, Simplex, WholeSpace
from .solver import STRATEGIES, ProblemInstance, RunReport, SolveStatus, solve

__all__ = [
    "RunSpec",
    "SummaryRow",
    "OracleReport",
    "load_spec",
    "run_spec",
    "compare_specs",
    "oracle_check",
    "write_trace_csv",
    "parse_trace_csv",
    "status_exit_code",
]

TRACE_COLUMNS = (
    "k",
    "f",
    "residual",
    "alpha",
    "beta",
    "inner_trials",
    "f_lev",
    "epsilon_qf",
    "dist_anchor",
    "dist_known_solution",
)

_EXIT_CODES = {
    SolveStatus.OPTIMAL_RESIDUAL: 0,
    SolveStatus.FIXED_POINT_STOP: 0,
    SolveStatus.LINE_SEARCH_FAILURE: 2,
    SolveStatus.INTERSECTION_FAILURE: 3,
    SolveStatus.ITERATION_CAP: 4,
    SolveStatus.NON_FINITE: 5,
}


@dataclass
class RunSpec:
    problem: ProblemInstance
    problem_id: str
    strategy: str
    config: SolverConfig
    output: Optional[str] = None


@dataclass
class SummaryRow:
    instance: str
    strategy: str
    status: str
    iterations: int
    final_x: list[float]
    final_residual: float
    final_f: float
    total_inner_trials: int
    total_projections: int
    wall_time_s: float
    monitors: dict[str, bool] = field(default_factory=dict)
    dist_known_solution: Optional[float] = None


def _field(d: dict, name: str, convert=as_vector, default=None):
    """convert(d[name]), or convert(d.get(name, default)) when a default is
    given.  A missing field raises KeyError; a value that convert rejects
    raises a ValueError that names the field."""
    value = d[name] if default is None else d.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name!r}: {exc}") from exc


def _matrix(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _bounds(unbounded: float):
    """Box bounds from a list whose null entries mean unbounded."""
    return lambda values: np.array([unbounded if v is None else float(v) for v in values])


def _objective_from_json(d: dict) -> Objective:
    kind = d.get("kind")
    if kind == "pnorm":
        return PNorm(p=_field(d, "p", float), shift=_field(d, "shift"))
    if kind == "quadratic":
        return Quadratic(Q=_field(d, "Q", _matrix), b=_field(d, "b"), c=_field(d, "c", float, 0.0))
    if kind == "logsumexp":
        return LogSumExp(rows=_field(d, "rows", _matrix), offsets=_field(d, "offsets"))
    raise ValueError(f"unknown objective kind {kind!r}")


def _set_from_json(d: dict) -> FeasibleSet:
    kind = d.get("kind")
    if kind == "box":
        return Box(lower=_field(d, "lower", _bounds(-np.inf)), upper=_field(d, "upper", _bounds(np.inf)))
    if kind == "ball":
        return Ball(center=_field(d, "center"), radius=_field(d, "radius", float))
    if kind == "halfspace":
        return Halfspace(normal=_field(d, "normal"), offset=_field(d, "offset", float))
    if kind == "hyperplane":
        return Hyperplane(normal=_field(d, "normal"), offset=_field(d, "offset", float))
    if kind == "simplex":
        return Simplex(scale=_field(d, "scale", float, 1.0))
    if kind == "wholespace":
        return WholeSpace()
    raise ValueError(f"unknown set kind {kind!r}")


def problem_from_json(d: dict) -> ProblemInstance:
    known, fstar = d.get("known_solution"), d.get("known_fstar")
    return ProblemInstance(
        objective=_objective_from_json(_json_object(d["objective"], "'objective'")),
        feasible_set=_set_from_json(_json_object(d["set"], "'set'")),
        x0=_field(d, "x0"),
        known_solution=None if known is None else _field(d, "known_solution"),
        known_fstar=None if fstar is None else _field(d, "known_fstar", float),
    )


_CONFIG_KEYS = frozenset(f.name for f in fields(SolverConfig))


def config_from_json(d: dict) -> SolverConfig:
    """SolverConfig from a spec's config object; its errors read 'bad config: ...'."""
    unknown = set(d) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"bad config: unknown config keys: {sorted(unknown)}")
    try:
        return SolverConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}") from exc


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def load_spec(path: str | Path, strategy: Optional[str] = None) -> RunSpec:
    """Load and validate a run spec file; strategy, when given, replaces the
    spec's own.  Every rejection is a ValueError that names the file; an
    infeasible start gives its distance to the set."""
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read spec: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return _spec_from_json(raw, strategy)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# the parameter each of these strategies reads that has no meaningful default
_STRATEGY_PARAMS = {"a": "beta", "d": "exo_constant"}


def _spec_from_json(raw, strategy: Optional[str]) -> RunSpec:
    """The spec of a parsed spec file, run with strategy when given; a
    missing field raises KeyError."""
    raw = _json_object(raw, "a spec")
    if strategy is None:
        strategy = raw.get("strategy", "c")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    problem_field = raw.get("problem")
    if isinstance(problem_field, str):
        problem, problem_id = get_instance(problem_field), problem_field
    elif isinstance(problem_field, dict):
        problem, problem_id = problem_from_json(problem_field), "inline"
    else:
        raise ValueError("'problem' must be a registry id or an inline object")
    raw_config = _json_object(raw.get("config", {}), "'config'")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ValueError(f"'output' must be a string, got {type(output).__name__}")
    config = config_from_json(raw_config)
    required = _STRATEGY_PARAMS.get(strategy)
    if required is not None and required not in raw_config:
        raise ValueError(f"strategy {strategy!r} requires an explicit {required!r} in config")
    return RunSpec(problem=problem, problem_id=problem_id, strategy=strategy, config=config, output=output)


def summarize(spec: RunSpec, report: RunReport, wall_time: float) -> SummaryRow:
    inst = spec.problem
    dist = None
    if inst.known_solution is not None:
        dist = norm(report.final_x - inst.known_solution)
    return SummaryRow(
        instance=spec.problem_id,
        strategy=spec.strategy,
        status=report.status.value,
        iterations=report.iterations,
        final_x=report.final_x.tolist(),
        final_residual=report.final_residual,
        final_f=report.final_f,
        total_inner_trials=report.inner_trials,
        total_projections=report.projections,
        wall_time_s=wall_time,
        monitors={name: m.passed for name, m in report.monitors.items()},
        dist_known_solution=dist,
    )


def _trace_row(x: np.ndarray, known: Optional[np.ndarray], **values) -> list:
    """One trace row of TRACE_COLUMNS from values by column name, with the
    distance from x to the known solution: k and inner_trials as integers,
    the rest in shortest round-trip decimal, a missing value empty."""
    if known is not None:
        values["dist_known_solution"] = norm(x - known)
    return [
        "" if (v := values.get(name)) is None else v if name in ("k", "inner_trials") else repr(float(v))
        for name in TRACE_COLUMNS
    ]


def write_trace_csv(path: str | Path, report: RunReport, inst: ProblemInstance) -> None:
    """One row per recorded iteration plus a terminal row for the final
    iterate: its step fields empty, its f_lev the last record's, and its
    distance to the anchor when the last record has one."""
    known = inst.known_solution
    last = report.trace[-1] if report.trace else None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in report.trace:
            writer.writerow(_trace_row(
                r.x, known, k=r.k, f=r.f_val, residual=r.residual, alpha=r.alpha, beta=r.beta,
                inner_trials=r.inner_trials, f_lev=r.f_lev, epsilon_qf=r.epsilon_qf, dist_anchor=r.dist_anchor,
            ))
        x = report.final_x
        writer.writerow(_trace_row(
            x, known, k=report.iterations, f=report.final_f, residual=report.final_residual,
            f_lev=None if last is None else last.f_lev,
            dist_anchor=None if last is None or last.dist_anchor is None else norm(x - inst.x0),
        ))


def parse_trace_csv(path: str | Path) -> list[dict[str, Optional[float]]]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for raw in reader:
            rows.append({key: (float(v) if (v := raw[key]) != "" else None) for key in TRACE_COLUMNS})
    return rows


def status_exit_code(status: SolveStatus) -> int:
    return _EXIT_CODES[status]


def _timed_solve(spec: RunSpec) -> tuple[RunReport, SummaryRow]:
    """Solve the spec and summarize the run with its wall time."""
    start = time.perf_counter()
    report = solve(spec.problem, spec.config, spec.strategy)
    return report, summarize(spec, report, time.perf_counter() - start)


def run_spec(spec: RunSpec, out_prefix: Optional[str] = None) -> tuple[SummaryRow, int]:
    """Execute a run spec, write trace CSV and summary JSON when an output
    prefix is known, and return the summary with its exit code."""
    report, row = _timed_solve(spec)
    prefix = out_prefix or spec.output
    if prefix:
        prefix_path = Path(prefix)
        if prefix_path.parent != Path("."):
            os.makedirs(prefix_path.parent, exist_ok=True)
        write_trace_csv(f"{prefix}_trace.csv", report, spec.problem)
        with open(f"{prefix}_summary.json", "w") as fh:
            # json.dumps without indent is the C encoder (json.dump never
            # is); vars, not dataclasses.asdict, which deep-copies each
            # entry of final_x
            fh.write(json.dumps(vars(row)) + "\n")
    return row, status_exit_code(report.status)


def _same_fields(a, b) -> bool:
    """Two objectives (or two sets) of one type with equal data fields."""
    return type(a) is type(b) and all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _same_problem(a: RunSpec, b: RunSpec) -> bool:
    if a.problem_id != "inline" or b.problem_id != "inline":
        return a.problem_id == b.problem_id
    return (
        _same_fields(a.problem.objective, b.problem.objective)
        and _same_fields(a.problem.feasible_set, b.problem.feasible_set)
        and np.array_equal(a.problem.x0, b.problem.x0)
    )


def compare_specs(specs: list[RunSpec]) -> list[SummaryRow]:
    """Run several strategies on one instance and tabulate their cost.
    Requires at least two specs over the same instance."""
    if len(specs) < 2:
        raise ValueError("compare needs at least two specs")
    for other in specs[1:]:
        if not _same_problem(specs[0], other):
            raise ValueError(
                f"compare needs one instance across specs, got {specs[0].problem_id!r} vs {other.problem_id!r}"
            )
    return [_timed_solve(spec)[1] for spec in specs]


def format_comparison(rows: list[SummaryRow]) -> str:
    header = f"{'strategy':>8} {'status':>18} {'iters':>7} {'inner':>7} {'projs':>7} {'residual':>12} {'f':>14}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.strategy:>8} {r.status:>18} {r.iterations:>7d} {r.total_inner_trials:>7d} "
            f"{r.total_projections:>7d} {r.final_residual:>12.3e} {r.final_f:>14.8g}"
        )
    return "\n".join(lines)


@dataclass
class OracleReport:
    reference: list[float]
    f_reference: float
    method: str
    unique: bool
    projection_of_start: list[float]
    strategy_distances: dict[str, float] = field(default_factory=dict)
    strategy_status: dict[str, str] = field(default_factory=dict)


def oracle_check(inst: ProblemInstance, strategies: tuple[str, ...] = ("b", "c", "A2")) -> OracleReport:
    """Cross-check solver limits against an exact reference solution.

    A p-norm f = ||x - shift||^p / p increases with ||x - shift||, so its
    one minimizer over C is P_C(shift), at any dimension.  A quadratic goes
    through the active-set enumeration oracle, up to dimension 4, with the
    solution-set characterization used to report uniqueness and the solution
    closest to the start.  Any other objective has no exact reference and
    raises ValueError.
    """
    obj, set_ = inst.objective, inst.feasible_set
    if isinstance(obj, PNorm):
        reference = closest = set_.project(obj.shift)
        unique = True
        method = "projection"
    elif isinstance(obj, Quadratic):
        dim = inst.x0.shape[0]
        if dim > 4:
            raise ValueError(f"oracle_check enumerates active sets for quadratics up to dimension 4, got {dim}")
        sys = system_from_set(set_, dim)
        reference = quadratic_oracle(obj, sys)
        sol_set = quadratic_solution_set(obj, sys, reference)
        closest = min_distance_point(sol_set, inst.x0)
        rng = np.random.default_rng(0)
        unique = all(
            norm(min_distance_point(sol_set, reference + rng.standard_normal(dim)) - reference) <= 1e-7
            for _ in range(2)
        )
        reference = closest if not unique else reference
        method = "active-set-qp"
    else:
        raise ValueError(f"oracle_check has no exact reference for a {type(obj).__name__} objective")
    report = OracleReport(
        reference=[float(v) for v in reference],
        f_reference=obj.value(reference),
        method=method,
        unique=unique,
        projection_of_start=[float(v) for v in closest],
    )
    for strategy in strategies:
        solver_report = solve(inst, SolverConfig(), strategy)
        report.strategy_distances[strategy] = norm(solver_report.final_x - reference)
        report.strategy_status[strategy] = solver_report.status.value
    return report
