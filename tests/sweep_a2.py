"""The A2 sweep: strategy A2 at budget 80 on the random QPs of
tests/families.py, seeds 202 and 1-20, 60 trials each.

    python tests/sweep_a2.py [--out runs.txt]

Prints one JSON line: the count of each status, the runs that exit 0 with
a residual above tol, the largest distance from a stopped run to P_S(x0)
(the oracle solution), and the runs that end INTERSECTION_FAILURE or fail a
monitor.  --out writes one line per run (seed, trial, base, status,
iterations, final_x as float.hex), so that the runs of two checkouts can be
diffed.  Exits 1 on any INTERSECTION_FAILURE or failed monitor, or when
more runs exit 0 above tol than MAX_EXIT_0_ABOVE_TOL.  Pytest does not
collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from projgrad import SolveStatus, SolverConfig, solve  # noqa: E402
from projgrad.core import norm  # noqa: E402
from families import STOPPED, random_instances  # noqa: E402

SEEDS = (202, *range(1, 21))
TRIALS = range(60)
BUDGET = 80
# runs that exit 0 with a residual above tol, measured with numpy 2.4.6; a
# change may lower this bound, never raise it
MAX_EXIT_0_ABOVE_TOL = 417


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="file for one line per run")
    args = parser.parse_args(argv)
    cfg = SolverConfig(max_outer_iters=BUDGET)
    statuses, lines = Counter(), []
    above_tol, worst, failures, failed_monitors = 0, 0.0, [], []
    for seed in SEEDS:
        for trial, inst in random_instances(seed, TRIALS):
            rep = solve(inst, cfg, "A2")
            run = f"{seed}/{trial}"
            statuses[rep.status.value] += 1
            if rep.status in STOPPED:
                worst = max(worst, norm(rep.final_x - inst.known_solution))
                above_tol += rep.final_residual > cfg.residual_tol
            if rep.status is SolveStatus.INTERSECTION_FAILURE:
                failures.append(run)
            failed_monitors += [f"{run} {name}" for name, m in rep.monitors.items() if not m.passed]
            x = " ".join(float(v).hex() for v in rep.final_x)
            lines.append(f"{seed} {trial} {type(inst.feasible_set).__name__} {rep.status.value} {rep.iterations} {x}\n")
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
    return 1 if failures or failed_monitors or above_tol > MAX_EXIT_0_ABOVE_TOL else 0


if __name__ == "__main__":
    sys.exit(main())
