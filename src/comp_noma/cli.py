"""Command-line entry point for running capacity sweeps.

Flags override config-file keys. Exit codes: 0 on success, 2 on configuration
errors, 1 on runtime errors.
"""

import argparse
import sys

from .harness import CONFIG_KEYS, ConfigError, SweepKind, emit_plot, \
    parse_config, run_sweep, write_results
from .schemes import SchemeId


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Ergodic sum capacity sweeps for JT-CoMP VP-NOMA and "
                    "the OMA/NOMA/VP-NOMA baselines.")
    parser.add_argument("--config", metavar="PATH",
                        help="key=value configuration file")
    # --sweep to --seed each set the config key of their name, which is
    # where argparse stores them
    parser.add_argument("--sweep", metavar="KIND",
                        help="swept quantity, one of "
                             + ", ".join(kind.value for kind in SweepKind)
                             + " (default: rho)")
    parser.add_argument("--from", metavar="F", help="sweep range start")
    parser.add_argument("--to", metavar="T", help="sweep range end")
    parser.add_argument("--steps", metavar="N", help="number of sweep points")
    parser.add_argument("--schemes", metavar="LIST",
                        help="comma-separated subset of "
                             + ",".join(scheme.token for scheme in SchemeId))
    parser.add_argument("--trials", metavar="N", help="Monte-Carlo trials per point")
    parser.add_argument("--seed", metavar="S", help="64-bit random seed")
    parser.add_argument("--out", metavar="PATH", default="results.csv",
                        help="output CSV path (default results.csv)")
    parser.add_argument("--plot", metavar="PATH", default=None,
                        help="also write a self-contained SVG chart")
    parser.add_argument("--workers", metavar="N", type=int, default=1,
                        help="worker threads per estimate; a second one shortens "
                             "estimates of more than one 8,192-trial chunk (any "
                             "count reproduces serial results)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"command line: key 'workers': must be >= 1, "
                              f"got {args.workers}")
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {args.config}: {exc}")
        else:
            text = ""
        cfg = parse_config(text, {key: value for key, value in vars(args).items()
                                  if key in CONFIG_KEYS and value is not None})
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        rows = run_sweep(cfg, workers=args.workers)
        write_results(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
        if args.plot is not None:
            emit_plot(rows, args.plot)
            print(f"wrote plot to {args.plot}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())
