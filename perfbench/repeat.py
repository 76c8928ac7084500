"""Repeat mode: run one workload several times and print each end-to-end
metric's spread against the bound in BENCHMARK.json.

    python3 perfbench/repeat.py --workload feasible-dense --runs 10 --first-seed 1

Runs `perfbench/run.py` once per seed, one run at a time, from the checkout
root.  The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median; a steady benchmark keeps it below a third of the metric's bound.
The failed share must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        share = result["failed"] / result["attempted"]
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed {result['failed']}/{result['attempted']} "
              f"({share:.6f}) {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        steady = steady and flag == "ok"
        print(f"{name:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6} {flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0 if steady and len(shares) == 1 and all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
