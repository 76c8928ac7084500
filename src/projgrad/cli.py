"""Command-line interface: solve, compare, and oracle subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import compare_specs, format_comparison, load_spec, oracle_check, run_spec
from .registry import list_instances
from .solver import STRATEGIES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="projgrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one spec and emit trace/summary files")
    solve.add_argument("--spec", required=True, help="path to a run spec JSON file")
    solve.add_argument("--strategy", choices=STRATEGIES, help="override the spec strategy")
    solve.add_argument("--max-iters", type=int, help="override max_outer_iters")
    solve.add_argument("--tol", type=float, help="override residual_tol")
    solve.add_argument("--out", help="output path prefix for trace/summary files")

    compare = sub.add_parser("compare", help="run several specs on one instance and tabulate costs")
    compare.add_argument("--specs", nargs="+", required=True, help="paths to run spec files")

    oracle = sub.add_parser("oracle", help="cross-check strategies against a reference solution")
    oracle.add_argument("--spec", required=True, help="path to a run spec JSON file")

    sub.add_parser("instances", help="list built-in instance ids")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            spec = load_spec(args.spec, args.strategy, max_outer_iters=args.max_iters, residual_tol=args.tol)
            row, code = run_spec(spec, out_prefix=args.out)
            # vars, not dataclasses.asdict, which deep-copies each entry of final_x
            print(json.dumps(vars(row), indent=2))
            return code
        if args.command == "compare":
            rows = compare_specs([load_spec(p) for p in args.specs])
            print(format_comparison(rows))
            return 0
        if args.command == "oracle":
            spec = load_spec(args.spec)
            report = oracle_check(spec.problem)
            print(json.dumps(dataclasses.asdict(report), indent=2))
            return 0
        if args.command == "instances":
            for name in list_instances():
                print(name)
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
