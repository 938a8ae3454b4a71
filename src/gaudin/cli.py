"""Command-line entry point.

Subcommands: spectrum, bae, wronski, verify run one instance each from a
JSON config; report pretty-prints a stored report.  Exit status is 0 only
when every enabled check passes (2 for a bad config or an unreadable report).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigError,
    InstanceConfig,
    bae_pipeline,
    dump_report,
    parse_seed,
    parse_tolerance,
    render_table,
    run_report,
    spectrum_pipeline,
    verify_pipeline,
    wronski_pipeline,
)


def _add_common(p):
    p.add_argument("--config", required=True, help="path to the instance JSON")
    p.add_argument("--out", default=None, help="write the report here (default stdout)")
    p.add_argument("--seed", type=int, default=None, help="override the instance seed")
    p.add_argument("--tol-residual", type=float, default=None)
    p.add_argument("--tol-cluster", type=float, default=None)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", default=True)
    fmt.add_argument("--table", dest="as_json", action="store_false")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaudin",
        description="Exact Gaudin Bethe algebra and quasi-exponential cross-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "build the operator, diagonalize, recover kernels"),
        ("bae", "solve the Bethe ansatz equations and verify eigenvectors"),
        ("wronski", "analyze a user-supplied quasi-exponential space"),
        ("verify", "full cross-check suite with count identities"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    p = sub.add_parser("report", help="pretty-print a stored report")
    p.add_argument("path", help="report JSON file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        try:
            with open(args.path) as fh:
                report = json.load(fh)
            text = render_table(report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"report error: cannot read a gaudin report from {args.path}: {exc!r}", file=sys.stderr)
            return 2
        print(text)
        return 0 if report.get("all_passed") else 1
    try:
        config = InstanceConfig.from_file(args.config)
        if args.seed is not None:
            config.seed = parse_seed(args.seed)
        for key, value in (("residual", args.tol_residual), ("cluster", args.tol_cluster)):
            if value is not None:
                setattr(config.tolerances, key, parse_tolerance(key, value))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "spectrum":
            result = spectrum_pipeline(config)
        elif args.command == "bae":
            result = bae_pipeline(config)
        elif args.command == "wronski":
            result = wronski_pipeline(config)
        else:
            result = verify_pipeline(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = run_report(args.command, config, result)
    text = dump_report(report) if args.as_json else render_table(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
