"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

For each workload, solves small instances through projgrad.bench.run_spec
and requires every check to pass, then moves the final point toward the
start (so it stays feasible) and requires a check to reject it.  It also certifies the references: the
active-set QP solutions against scipy.optimize, and the simplex projection
against the variational inequality at every vertex.  Exits 0 when all hold.
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

import run

run._import_program()

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from projgrad import bench  # noqa: E402
from projgrad.core import SolverConfig  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def solve(case, out_dir: str, capture: run.Capture):
    """Returns (final_x, status, iterates) of one solve, as run.py sees it."""
    case.prepare()
    spec = bench.RunSpec(
        problem=case.build({}), problem_id=case.name, strategy=case.strategy, config=SolverConfig(**case.config)
    )
    row, _code = bench.run_spec(spec, f"{out_dir}/{case.name}")
    report = capture.report
    final_x = np.array(row.final_x)
    return final_x, row.status, [r.x for r in report.trace] + [final_x]


def check_workload(label: str, cases: list, out_dir: str, capture: run.Capture, shift: float) -> None:
    for case in cases:
        final_x, status, iterates = solve(case, out_dir, capture)
        problems = case.check(final_x, status, iterates)
        expect(not problems, f"{label} {case.name}: {status} passes its checks {problems or ''}")
        # move toward the start, which keeps the point feasible, so the
        # optimality checks and not the feasibility check must catch it
        toward_start = iterates[0] - final_x
        moved = final_x + shift * toward_start / np.linalg.norm(toward_start)
        problems = case.check(moved, status, iterates[:-1] + [moved])
        expect(bool(problems), f"{label} {case.name}: final point moved by {shift:g} is rejected {problems[:1]}")


def check_references() -> None:
    from scipy.optimize import minimize

    rng = np.random.default_rng(5)
    worst = 0.0
    for case in workloads.anchored_qp(0)[:12]:
        inst = case.build({})
        Q, b = inst.objective.Q, inst.objective.b
        s = inst.feasible_set
        spec = {
            "Box": lambda: ref.SetSpec("box", lower=s.lower, upper=s.upper),
            "Ball": lambda: ref.SetSpec("ball", center=s.center, radius=s.radius),
            "Simplex": lambda: ref.SetSpec("simplex", scale=s.scale),
        }[type(s).__name__]()
        x_ref = ref.qp_solution(Q, b, spec)
        cons = {
            "box": [],
            "ball": [{"type": "ineq", "fun": lambda x: spec.radius**2 - np.sum((x - spec.center) ** 2)}],
            "simplex": [{"type": "eq", "fun": lambda x: np.sum(x) - spec.scale}],
        }[spec.kind]
        bounds = list(zip(spec.lower, spec.upper)) if spec.kind == "box" else (
            [(0.0, None)] * b.size if spec.kind == "simplex" else None
        )
        res = minimize(
            lambda x: 0.5 * x @ Q @ x + b @ x, inst.x0, jac=lambda x: Q @ x + b, method="SLSQP",
            bounds=bounds, constraints=cons, options={"ftol": 1e-14, "maxiter": 500},
        )
        worst = max(worst, float(np.linalg.norm(res.x - x_ref)))
    expect(worst <= 1e-6, f"active-set QP references agree with scipy SLSQP (worst {worst:.1e})")

    worst_vi = 0.0
    for n in (1, 7, 1000):
        x = rng.standard_normal(n) * 3
        p = ref.simplex_projection(x, 2.0)
        # p = P(x) iff <x - p, v - p> <= 0 at every vertex v = 2 e_i
        vi = (2.0 * (x - p)) - float((x - p) @ p)
        worst_vi = max(worst_vi, float(np.max(vi)), abs(float(np.sum(p)) - 2.0), float(-np.min(p)))
    expect(worst_vi <= 1e-12, f"simplex projection certified at every vertex (worst {worst_vi:.1e})")


def main() -> int:
    capture = run.Capture(bench.write_trace_csv)
    bench.write_trace_csv = capture
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as out_dir:
        anchored = [c for c in workloads.anchored_qp(0) if c.name in ("seed202-trial0", "flat-quadratic", "pnorm4-ball")]
        check_workload("anchored-qp", anchored, out_dir, capture, 1e-3)
        check_workload(
            "feasible-dense",
            workloads.feasible_dense(0, copies={20: 1}, lse_dim=10, lse_copies=1),
            out_dir,
            capture,
            1e-4,
        )
        check_workload("boundary-separable", workloads.boundary_separable(0, dim=50), out_dir, capture, 1e-4)
    check_references()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
