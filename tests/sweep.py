"""The sweeps: suites of solves that check the paper's claims at scale.

    python tests/sweep.py {a2,large} [--out runs.txt]

a2     strategy A2 at budget 80 on the random QPs of seeds 202 and 1-20,
       60 trials each; --out writes seed, trial, base, status, iterations
       and final_x as float.hex.
large  strategies b, c and A2 at budget 50 on (1/p)||x - s||^p, p in
       {1.5, 2.5, 4}, over a box, a ball, a simplex and a halfspace at
       n = 2000 and 20 000, and strategy c on a dense n = 2000 quadratic;
       --out writes the run, status, iterations, line-search trials and
       the sha256 of final_x's bytes.

Prints one JSON line: the count of each status, the runs that exit 0 with
a residual above tol, the largest distance from a stopped run to its
known_solution (runs without one add none), and the runs that end
INTERSECTION_FAILURE or fail a monitor.  The --out lines let the runs of
two checkouts be diffed.  Exits 1 when a count exceeds the suite's BOUNDS.
Instances come from tests/families.py.  Pytest does not collect this file:
its name does not match test_*.py.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from projgrad import ProblemInstance, RunReport, SolveStatus, SolverConfig, solve  # noqa: E402
from projgrad.core import norm  # noqa: E402
from families import STOPPED, dense_box_qp, pnorm_instances, random_instances  # noqa: E402


class Suite(NamedTuple):
    """runs() yields (label, strategy, instance) in order; line(label,
    instance, report) is the run's --out line."""

    runs: Callable[[], Iterable[tuple[str, str, ProblemInstance]]]
    budget: int
    line: Callable[[str, ProblemInstance, RunReport], str]


def _a2_runs():
    for seed in (202, *range(1, 21)):
        for trial, inst in random_instances(seed, range(60)):
            yield f"{seed}/{trial}", "A2", inst


def _a2_line(label, inst, rep):
    x = " ".join(float(v).hex() for v in rep.final_x)
    return f"{label.replace('/', ' ')} {type(inst.feasible_set).__name__} {rep.status.value} {rep.iterations} {x}"


def _large_runs():
    for n in (2000, 20_000):
        for p, set_name, inst in pnorm_instances(n, (1.5, 2.5, 4.0)):
            for strategy in ("b", "c", "A2"):
                yield f"pnorm n={n} p={p:g} {set_name} {strategy}", strategy, inst
    yield "quadratic n=2000 box c", "c", dense_box_qp(2000, seed=7)


def _large_line(label, inst, rep):
    digest = hashlib.sha256(rep.final_x.tobytes()).hexdigest()
    return f"{label} {rep.status.value} {rep.iterations} {rep.inner_trials} {digest}"


SUITES = {"a2": Suite(_a2_runs, 80, _a2_line), "large": Suite(_large_runs, 50, _large_line)}

# the most intersection failures, failed monitors and runs that exit 0 above
# tol each suite allows, measured with numpy 2.4.6; a change may lower a
# bound, never raise it.  large's one failure is pnorm n=20000 p=1.5 box A2
BOUNDS = {"a2": (0, 0, 417), "large": (1, 0, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument("--out", help="file for one line per run")
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    cfg = SolverConfig(max_outer_iters=suite.budget)
    statuses, lines = Counter(), []
    above_tol, worst, failures, failed_monitors = 0, 0.0, [], []
    for label, strategy, inst in suite.runs():
        rep = solve(inst, cfg, strategy)
        statuses[rep.status.value] += 1
        if rep.status in STOPPED:
            if inst.known_solution is not None:
                worst = max(worst, norm(rep.final_x - inst.known_solution))
            above_tol += rep.final_residual > cfg.residual_tol
        if rep.status is SolveStatus.INTERSECTION_FAILURE:
            failures.append(label)
        failed_monitors += [f"{label} {name}" for name, m in rep.monitors.items() if not m.passed]
        lines.append(suite.line(label, inst, rep) + "\n")
    if args.out:
        Path(args.out).write_text("".join(lines))
    print(json.dumps({
        "runs": len(lines),
        "statuses": dict(sorted(statuses.items())),
        "exit_0_above_tol": above_tol,
        "worst_stopped_distance": worst,
        "intersection_failures": failures,
        "failed_monitors": failed_monitors,
    }))
    counts = (len(failures), len(failed_monitors), above_tol)
    return int(any(count > bound for count, bound in zip(counts, BOUNDS[args.suite])))


if __name__ == "__main__":
    sys.exit(main())
