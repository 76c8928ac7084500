"""The large sweep: strategies b, c and A2 at budget 50 on (1/p)||x - s||^p,
p in {1.5, 2.5, 4}, over a box, a ball, a simplex and a halfspace at
n = 2000 and 20 000, and strategy c on a dense n = 2000 quadratic: the
families pnorm_instances and dense_box_qp of tests/families.py.

    python tests/sweep_large.py [--out runs.txt]

Prints one JSON line with the count of each status.  --out writes one line
per run: the instance, the strategy, status, iterations, line-search
trials and the sha256 of final_x's bytes, so that the runs of two checkouts
can be diffed at dimensions that no pinned table covers.  Pytest does not
collect this file: its name does not match test_*.py.
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from projgrad import SolverConfig, solve  # noqa: E402
from families import dense_box_qp, pnorm_instances  # noqa: E402

DIMS = (2000, 20_000)
PS = (1.5, 2.5, 4.0)
STRATEGIES = ("b", "c", "A2")
BUDGET = 50


def runs():
    """(name, strategy, instance) of every run, in order."""
    for n in DIMS:
        for p, set_name, inst in pnorm_instances(n, PS):
            for strategy in STRATEGIES:
                yield f"pnorm n={n} p={p:g} {set_name}", strategy, inst
    yield "quadratic n=2000 box", "c", dense_box_qp(2000, seed=7)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="file for one line per run")
    args = parser.parse_args(argv)
    cfg = SolverConfig(max_outer_iters=BUDGET)
    statuses, lines = Counter(), []
    for name, strategy, inst in runs():
        rep = solve(inst, cfg, strategy)
        statuses[rep.status.value] += 1
        digest = hashlib.sha256(rep.final_x.tobytes()).hexdigest()
        lines.append(f"{name} {strategy} {rep.status.value} {rep.iterations} {rep.inner_trials} {digest}\n")
    if args.out:
        Path(args.out).write_text("".join(lines))
    print(json.dumps({"runs": len(lines), "statuses": dict(sorted(statuses.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
