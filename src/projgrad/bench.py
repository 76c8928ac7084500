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
    explicit_config: frozenset = frozenset()

    def require_strategy_params(self) -> None:
        """Strategy-specific parameters must have been given explicitly."""
        if self.strategy == "a" and "beta" not in self.explicit_config:
            raise ValueError("strategy 'a' requires an explicit 'beta' in config")
        if self.strategy == "d" and "exo_constant" not in self.explicit_config:
            raise ValueError("strategy 'd' requires an explicit 'exo_constant' in config")


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


def _objective_from_json(d: dict) -> Objective:
    kind = d.get("kind")
    if kind == "pnorm":
        return PNorm(p=float(d["p"]), shift=as_vector(d["shift"]))
    if kind == "quadratic":
        return Quadratic(Q=np.asarray(d["Q"], dtype=np.float64), b=as_vector(d["b"]), c=float(d.get("c", 0.0)))
    if kind == "logsumexp":
        return LogSumExp(rows=np.asarray(d["rows"], dtype=np.float64), offsets=as_vector(d["offsets"]))
    raise ValueError(f"unknown objective kind {kind!r}")


def _set_from_json(d: dict) -> FeasibleSet:
    kind = d.get("kind")
    if kind == "box":
        lower = [(-np.inf if v is None else float(v)) for v in d["lower"]]
        upper = [(np.inf if v is None else float(v)) for v in d["upper"]]
        return Box(lower=np.array(lower), upper=np.array(upper))
    if kind == "ball":
        return Ball(center=as_vector(d["center"]), radius=float(d["radius"]))
    if kind == "halfspace":
        return Halfspace(normal=as_vector(d["normal"]), offset=float(d["offset"]))
    if kind == "hyperplane":
        return Hyperplane(normal=as_vector(d["normal"]), offset=float(d["offset"]))
    if kind == "simplex":
        return Simplex(scale=float(d.get("scale", 1.0)))
    if kind == "wholespace":
        return WholeSpace()
    raise ValueError(f"unknown set kind {kind!r}")


def problem_from_json(d: dict) -> ProblemInstance:
    known = d.get("known_solution")
    return ProblemInstance(
        objective=_objective_from_json(_json_object(d["objective"], "'objective'")),
        feasible_set=_set_from_json(_json_object(d["set"], "'set'")),
        x0=as_vector(d["x0"]),
        known_solution=None if known is None else as_vector(known),
        known_fstar=None if d.get("known_fstar") is None else float(d["known_fstar"]),
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


def load_spec(path: str | Path) -> RunSpec:
    """Load and validate a run spec file.  Every rejection is a ValueError that
    names the file; an infeasible start gives its distance to the set."""
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read spec: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return _spec_from_json(raw)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _spec_from_json(raw) -> RunSpec:
    """The spec of a parsed spec file; a missing field raises KeyError."""
    raw = _json_object(raw, "a spec")
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
    spec = RunSpec(
        problem=problem,
        problem_id=problem_id,
        strategy=strategy,
        config=config_from_json(raw_config),
        output=output,
        explicit_config=frozenset(raw_config),
    )
    spec.require_strategy_params()
    return spec


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


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def write_trace_csv(path: str | Path, report: RunReport, inst: ProblemInstance) -> None:
    """One row per recorded iteration plus a terminal row for the final
    iterate (step fields left empty)."""
    known = inst.known_solution
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in report.trace:
            writer.writerow(
                [
                    r.k,
                    _fmt(r.f_val),
                    _fmt(r.residual),
                    _fmt(r.alpha),
                    _fmt(r.beta),
                    r.inner_trials,
                    _fmt(r.f_lev),
                    _fmt(r.epsilon_qf),
                    _fmt(r.dist_anchor),
                    _fmt(None if known is None else norm(r.x - known)),
                ]
            )
        writer.writerow(
            [
                report.iterations,
                _fmt(report.final_f),
                _fmt(report.final_residual),
                "",
                "",
                "",
                _fmt(report.trace[-1].f_lev) if report.trace and report.trace[-1].f_lev is not None else "",
                "",
                _fmt(norm(report.final_x - inst.x0)) if report.trace and report.trace[-1].dist_anchor is not None else "",
                _fmt(None if known is None else norm(report.final_x - known)),
            ]
        )


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
