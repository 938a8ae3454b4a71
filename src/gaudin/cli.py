"""Command-line entry point.

Subcommands: spectrum, bae, wronski, verify run one instance each from a
JSON config; report pretty-prints a stored report.  The config alone sets a
run's options and tolerances; --seed is the one setting a flag overrides.
Exit status is 0 only when every enabled check passes (2 for a bad config,
an unreadable report or a report that cannot be written).  An --out path
that is a directory, or whose directory is missing or not writable, is
refused before the run.

One option table feeds both readers of a command line: a plain one is read
from it directly, and everything else (help, usage errors, abbreviations)
goes to the argparse parser, which is built, and imported, only then.
"""

from __future__ import annotations

import json
import os
import sys

from .harness import (
    ConfigError,
    InstanceConfig,
    bae_pipeline,
    dump_report,
    parse_seed,
    render_table,
    run_report,
    spectrum_pipeline,
    verify_pipeline,
    wronski_pipeline,
)

COMMANDS = {
    "spectrum": "build the operator, diagonalize, recover kernels",
    "bae": "solve the Bethe ansatz equations and verify eigenvectors",
    "wronski": "analyze a user-supplied quasi-exponential space",
    "verify": "full cross-check suite with count identities",
}

# The options every command above takes: flag -> (value type, help); --config is required.
OPTIONS = {
    "--config": (str, "path to the instance JSON"),
    "--out": (str, "write the report here (default stdout)"),
    "--seed": (int, "override the instance seed"),
}
# Mutually exclusive flags that set as_json (default True).
FORMATS = {"--json": True, "--table": False}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_common(p):
    for flag, (kind, help_text) in OPTIONS.items():
        p.add_argument(flag, type=kind, required=flag == "--config", help=help_text)
    fmt = p.add_mutually_exclusive_group()
    for flag, value in FORMATS.items():
        fmt.add_argument(flag, dest="as_json", action="store_true" if value else "store_false", default=True)


def build_parser():
    import argparse  # help, usage and errors only: a plain command line never loads it

    parser = argparse.ArgumentParser(
        prog="gaudin",
        description="Exact Gaudin Bethe algebra and quasi-exponential cross-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text))
    p = sub.add_parser("report", help="pretty-print a stored report")
    p.add_argument("path", help="report JSON file")
    return parser


def _plain_args(argv):
    """vars(build_parser().parse_args(argv)) for a plain command line, else None.

    Plain is ``report PATH``, or a command followed by exact long options of
    OPTIONS, each as ``--opt value`` (value not starting with -) or
    ``--opt=value``, with values nonempty and of the option's type, repeats
    last-wins, at most one of FORMATS, and --config present.
    """
    if len(argv) == 2 and argv[0] == "report" and argv[1][:1] not in ("", "-"):
        return {"command": "report", "path": argv[1]}
    if not argv or argv[0] not in COMMANDS:
        return None
    args = {"command": argv[0], **{_dest(flag): None for flag in OPTIONS}, "as_json": True}
    formats = 0
    tokens = iter(argv[1:])
    for token in tokens:
        if token in FORMATS:
            formats += 1
            args["as_json"] = FORMATS[token]
            continue
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "")
        if flag not in OPTIONS or not value or (not eq and value[0] == "-"):
            return None
        try:
            args[_dest(flag)] = OPTIONS[flag][0](value)
        except ValueError:
            return None
    return args if formats <= 1 and args["config"] is not None else None


def _unwritable(path: str):
    """Why a report cannot be written to path, or None; checked without creating or truncating a file."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        return "it is a directory"
    if not os.path.isdir(parent):
        return f"no directory {parent}"
    if not os.access(parent, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        return "permission denied"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    if args["command"] == "report":
        try:
            with open(args["path"]) as fh:
                report = json.load(fh)
            text = render_table(report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"report error: cannot read a gaudin report from {args['path']}: {exc!r}", file=sys.stderr)
            return 2
        print(text)
        return 0 if report.get("all_passed") else 1
    try:
        config = InstanceConfig.from_file(args["config"])
        if args["seed"] is not None:
            config.seed = parse_seed(args["seed"])
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    reason = args["out"] and _unwritable(args["out"])
    if reason:  # before the run, not after it
        print(f"output error: cannot write the report to {args['out']}: {reason}", file=sys.stderr)
        return 2

    try:
        if args["command"] == "spectrum":
            result = spectrum_pipeline(config)
        elif args["command"] == "bae":
            result = bae_pipeline(config)
        elif args["command"] == "wronski":
            result = wronski_pipeline(config)
        else:
            result = verify_pipeline(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = run_report(args["command"], config, result)
    text = dump_report(report) if args["as_json"] else render_table(report)
    if args["out"]:
        try:
            with open(args["out"], "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"output error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
