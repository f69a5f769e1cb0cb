"""Command-line entry points.

Exit codes: 0 success, 2 configuration/usage error, 3 failed internal
validation or oracle check.
"""

import argparse
import sys

from .config import ConfigError, StreamConfig, load_config
from .csvio import write_aggregate, write_rows
from .oracles import oracle_check
from .runners import HarnessError, run_multicast, run_streaming


def parse_seeds(spec: str) -> list:
    """'4' -> [4]; '0..9' -> [0..9] inclusive; '1,5,9' -> [1, 5, 9].

    Seeds are nonnegative integers.
    """
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            seeds = list(range(lo, hi + 1))
        elif "," in spec:
            seeds = [int(s) for s in spec.split(",")]
        else:
            seeds = [int(spec)]
    except ValueError:
        raise ConfigError(f"cannot parse seed spec {spec!r}; use 'a', 'a..b', or 'a,b,c'") from None
    if min(seeds) < 0:
        raise ConfigError(f"seed spec {spec!r} has a negative seed")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femtokit",
        description="Femtocell multicast power and video scheduling experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    run = subs.add_parser(
        "run", help="run every sweep point of a scenario at each seed; its kind picks the runner"
    )
    run.add_argument("--config", required=True, help="scenario JSON path")
    run.add_argument("--seeds", default="0..9", help="'a', 'a..b' (inclusive), or 'a,b,c'")
    run.add_argument("--out", default=None, help="results CSV path (default: stdout)")
    run.add_argument("--aggregate", default=None, help="also write mean/ci95 CSV here")
    subs.add_parser("oracle-check", help="cross-check fast solvers against reference ones")
    return parser


def _emit(rows, args) -> None:
    if args.out is None:
        write_rows(sys.stdout, rows)
    else:
        write_rows(args.out, rows)
    if args.aggregate is not None:
        write_aggregate(args.aggregate, rows)


def _run(args) -> int:
    cfg = load_config(args.config)
    seeds = parse_seeds(args.seeds)
    if isinstance(cfg, StreamConfig):
        rows = run_streaming(cfg, seeds)
    else:
        rows = run_multicast(cfg, seeds)
    _emit(rows, args)
    return 0


def _oracle_check() -> int:
    checks = oracle_check()
    failed = 0
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "oracle-check":
        return _oracle_check()
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HarnessError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
