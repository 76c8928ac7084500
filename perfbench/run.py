"""Closed-loop solver benchmark for projgrad.

    python3 perfbench/run.py --workload anchored-qp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One process runs one workload, one
solve at a time, on one CPU, with BLAS pinned to one thread.  Each solve
goes through `projgrad.bench.run_spec` with an output prefix under
perfbench/_runs, as `projgrad solve` does, so writing the result files is
part of the measured work.  Every solve is checked (see workloads.py);
failed checks are reported on stderr, and the last line of stdout is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics; --trace 1 runs an untraced, a
traced and another untraced round and reports the per-layer metrics of the
traced round and the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "_runs"
WORKLOADS = ("anchored-qp", "feasible-dense", "boundary-separable")
IMPORT_SAMPLES = 5
BUILD_SAMPLES = 3
WARMUP_ITERS = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import projgrad; print(time.perf_counter() - t); "
    "sys.exit(0 if projgrad.__file__.startswith(sys.argv[1]) else 1)"
)


def _pin_to_one_cpu() -> None:
    """Run on the last CPU this process may use, so that every run sees the
    same core; the benchmark is single-threaded.  Where affinity cannot be
    set, the run goes on unpinned."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)


def _import_program():
    if not (SRC / "projgrad" / "__init__.py").is_file():
        raise SystemExit(f"no projgrad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import projgrad

    if not Path(projgrad.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported projgrad from {projgrad.__file__}, not from {SRC}")
    return projgrad


def _import_seconds() -> float:
    """Time to import projgrad (numpy included) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip())


class Capture:
    """Keeps the RunReport that run_spec hands to write_trace_csv, so the
    checks can see every iterate; the pass-through costs one call."""

    def __init__(self, write_trace_csv) -> None:
        self.write = write_trace_csv
        self.report = None

    def __call__(self, path, report, inst):
        self.report = report
        return self.write(path, report, inst)


class Runner:
    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        from projgrad import bench
        from projgrad.core import SolverConfig

        import workloads

        self.bench, self.SolverConfig = bench, SolverConfig
        self.cases = workloads.WORKLOADS[workload](seed)
        self.failed_statuses = workloads.FAILED_STATUSES
        self.order_rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.capture = Capture(bench.write_trace_csv)
        bench.write_trace_csv = self.capture
        self.run_spec = bench.run_spec
        self.instances = None
        self.attempted = self.failed = 0
        self.correct = True
        self.times: dict[str, list[float]] = defaultdict(list)
        self.iterations = 0
        self.trace_mb = 0.0

    def build(self) -> float:
        """Build every ProblemInstance; returns the seconds it took."""
        start = time.perf_counter()
        shared: dict = {}
        self.instances = [case.build(shared) for case in self.cases]
        return time.perf_counter() - start

    def spec(self, i: int, **overrides):
        case = self.cases[i]
        config = self.SolverConfig(**{**case.config, **overrides})
        return self.bench.RunSpec(problem=self.instances[i], problem_id=case.name, strategy=case.strategy, config=config)

    def warm_up(self) -> None:
        for i in range(len(self.cases)):
            self.run_spec(self.spec(i, max_outer_iters=WARMUP_ITERS), str(self.out_dir / "warmup"))

    def round(self, run_spec=None) -> float:
        """Solve every case its number of repeats, in a seeded order; returns
        the solve time."""
        run_spec = run_spec or self.run_spec
        elapsed = 0.0
        solves = [i for i, case in enumerate(self.cases) for _ in range(case.repeats)]
        for i in self.order_rng.permutation(solves):
            case = self.cases[i]
            spec = self.spec(i)
            prefix = str(self.out_dir / case.name)
            self.capture.report = None
            start = time.perf_counter()
            row, _code = run_spec(spec, prefix)
            wall = time.perf_counter() - start
            elapsed += wall
            self.times[case.name].append(wall)
            self.attempted += 1
            self.iterations += row.iterations
            self._check(case, prefix)
        return elapsed

    def _check(self, case, prefix: str) -> None:
        report, self.capture.report = self.capture.report, None
        with open(f"{prefix}_summary.json") as fh:
            summary = json.load(fh)
        status = summary["status"]
        if status in self.failed_statuses:
            self.failed += 1
            return
        if report is None:
            problems = ["run_spec did not pass its report through bench.write_trace_csv"]
        else:
            final_x = np.array(summary["final_x"])
            with open(f"{prefix}_trace.csv") as fh:
                rows = sum(1 for _ in fh)
            problems = []
            if not np.array_equal(final_x, report.final_x) or status != report.status.value:
                problems.append("summary file disagrees with the solver's report")
            if rows != len(report.trace) + 2:
                problems.append(f"trace file has {rows} lines for {len(report.trace)} records")
            iterates = [r.x for r in report.trace] + [final_x]
            problems += case.check(final_x, status, iterates)
            self.trace_mb = max(self.trace_mb, len(report.trace) * case.dim * 8 / 1e6)
        if problems:
            self.failed += 1
            self.correct = False
            print(f"FAILED CHECK {case.name}: {'; '.join(problems)}", file=sys.stderr)

    def solve_ms_p50(self) -> float:
        return 1e3 * statistics.median(statistics.median(t) for t in self.times.values())


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, seconds: float, setup_s: float) -> dict:
    runner.warm_up()
    elapsed = 0.0
    while elapsed < seconds:  # whole rounds, at least one
        elapsed += runner.round()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solves_per_s": _metric(runner.attempted / elapsed, "1/s"),
        "solve_ms_p50": _metric(runner.solve_ms_p50(), "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_kib * 1024 / 1e6, "MB"),
    }


def trace_layers(runner: Runner, workload: str) -> dict:
    from tracer import INTERSECTION, MONITORS, Tracer

    runner.warm_up()
    before = runner.round()
    iters_before = runner.iterations
    tr = Tracer()
    tr.install()
    try:
        traced = runner.round(tr.span("bench.run_spec", runner.run_spec))
    finally:
        tr.uninstall()
    iters_traced = runner.iterations - iters_before
    # untraced rounds on both sides of the traced one cancel slow drift
    untraced = 0.5 * (before + runner.round())
    tr.save(RUNS / f"spans-{workload}.npz")
    if tr.missing:
        print(f"not traced (absent from projgrad): {', '.join(tr.missing)}", file=sys.stderr)
    fd_calls, b_calls = tr.n_calls("stepsize.feasible_direction"), tr.n_calls("stepsize.boundary")
    fd_trials, b_trials = tr.extra["stepsize.feasible_direction.trials"], tr.extra["stepsize.boundary.trials"]
    searches = fd_calls + b_calls + fd_trials + b_trials
    count, seconds = "count", "s"
    return {
        "objectives.value.calls": _metric(tr.n_calls("objectives.value"), count),
        "objectives.value.self_s": _metric(tr.self_seconds("objectives.value"), seconds),
        "objectives.gradient.calls": _metric(tr.n_calls("objectives.gradient"), count),
        "objectives.gradient.self_s": _metric(tr.self_seconds("objectives.gradient"), seconds),
        "objectives.bytes_computed": _metric(tr.extra["objectives.bytes"] / 1e6, "MB"),
        "sets.project.calls": _metric(tr.n_calls("sets.project") - tr.n_calls("sets.project", INTERSECTION), count),
        "sets.project.self_s": _metric(tr.self_seconds("sets.project", exclude_parent=INTERSECTION), seconds),
        "sets.project_intersection.calls": _metric(tr.n_calls(INTERSECTION), count),
        "sets.project_intersection.s": _metric(tr.seconds(INTERSECTION), seconds),
        "sets.project_intersection.base_projections": _metric(tr.n_calls("sets.project", INTERSECTION), count),
        "sets.project_intersection.cut_projections": _metric(tr.n_calls("sets.cut_project", INTERSECTION), count),
        "sets.project_intersection.failures": _metric(tr.extra[INTERSECTION + ".failures"], count),
        "stepsize.feasible_direction.calls": _metric(fd_calls, count),
        "stepsize.feasible_direction.trials": _metric(fd_trials, count),
        "stepsize.feasible_direction.self_s": _metric(tr.self_seconds("stepsize.feasible_direction"), seconds),
        "stepsize.boundary.calls": _metric(b_calls, count),
        "stepsize.boundary.trials": _metric(b_trials, count),
        "stepsize.boundary.self_s": _metric(tr.self_seconds("stepsize.boundary"), seconds),
        "stepsize.accept_ratio": _metric((fd_calls + b_calls) / searches if searches else 1.0, "ratio"),
        "solver.outer_iters": _metric(iters_traced, count),
        "solver.self_s": _metric(tr.self_seconds("solver.drive"), seconds),
        "solver.monitors.s": _metric(tr.seconds(MONITORS), seconds),
        "solver.monitors.gradient_calls": _metric(tr.n_calls("objectives.gradient", MONITORS), count),
        "solver.monitors.projections": _metric(tr.n_calls("sets.project", MONITORS), count),
        "solver.trace_mb": _metric(runner.trace_mb, "MB"),
        "bench.summarize.s": _metric(tr.seconds("bench.summarize"), seconds),
        "bench.write_trace.s": _metric(tr.seconds("bench.write_trace"), seconds),
        "bench.run_spec.self_s": _metric(tr.self_seconds("bench.run_spec"), seconds),
        "core.dot.calls": _metric(tr.n_calls("core.dot"), count),
        "core.norm.calls": _metric(tr.n_calls("core.norm"), count),
        "trace.overhead_s": _metric(traced - untraced, seconds),
        "trace.overhead_pct": _metric(100.0 * (traced - untraced) / untraced, "%"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_to_one_cpu()
    _import_program()
    RUNS.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        runner = Runner(args.workload, args.seed, out_dir)
        if args.trace:
            runner.build()
        else:
            import_s = statistics.median(_import_seconds() for _ in range(IMPORT_SAMPLES))
            setup_s = import_s + statistics.median(runner.build() for _ in range(BUILD_SAMPLES))
        for case in runner.cases:
            case.prepare()
        metrics = trace_layers(runner, args.workload) if args.trace else measure(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(
        json.dumps(
            {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
