"""Command-line front end.

Subcommands: gen, check, identities, conjecture, bfile-compare, bench.
Exit codes: 0 success/agreement, 1 mismatch or identity failure, 2 usage
error (argparse errors, negative row counts, `gen --format bfile --rows 0`,
`gen --offset` with `--format table` or `csv`, `check` or `bench` with
`--rows 0` and `conjecture --max-n 0` (row 0 is the seed every route
starts from), an integer option that is not ASCII digits,
`identities --max-n` below 2,
unsupported strategy names, an empty kind or strategy list, a check that
compares no pair, unreadable or malformed files, a count of `sys.maxsize`
or more), 141 a closed stdout.

This module is the parser: the command names, their help lines,
`build_parser` and `main`.  Each command declares its arguments next to
its body, in a module of its own, `wardtri.commands.<command>`, which the
parser imports only for a command named among the arguments; a run builds
that command's subparser alone.  Each command imports only the modules it
runs: its module and `wardtri.commands` (the shared argument types),
`streams` for every command (which loads `partition_transform` only for a
transform route), the memo `triangles` for identities and conjecture
alone, which read it only through `value`, `compare` for check,
`identities` for identities and conjecture, `bfile` for b-file output and
bfile-compare.  `import wardtri`, `--help` and a top-level usage error
load none of them, as the
package defines `Kind` and `Strategy` itself; a usage error inside a
command loads that command's module and no engine module.
gen, check, bfile-compare and bench read each route as a stream of rows
and hold one row at a time; gen alone loads `decimal`, for its output
domain (see `wardtri.commands.gen`), and bfile-compare reads its file one
line at a time and compares integers.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# Each command's help line; its arguments and body are `wardtri.commands.<name>`.
_COMMANDS = {
    "gen": "print one triangle",
    "check": "pairwise strategy cross-validation",
    "identities": "run the identity suite",
    "conjecture": "row-sum evidence reports",
    "bfile-compare": "compare a b-file against a triangle",
    "bench": "time triangle construction per strategy",
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of `argv`.  A run, whose first token names a command, gets
    that command's subparser alone.  Otherwise (`--help`, an unknown command,
    an option before the command) every command gets one, and a command has
    its arguments only if its name is a token of `argv`: argparse runs the
    subparser that a token names exactly, and a top-level usage error needs
    none."""
    parser = argparse.ArgumentParser(
        prog="wardtri",
        description="Construct, cross-validate and export Ward-related integer triangles.",
    )
    # The metavar is the one argparse makes of all six names, so every usage
    # line of the top level names them all, whichever subparsers were built.
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}")
    for name in argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS:
        # A command reports its usage errors through its own subparser.  Its
        # module is imported by `__import__`, which `-X importtime` lists
        # (`import_module` is not).
        p = sub.add_parser(name, help=_COMMANDS[name])
        if name in argv:
            command = __import__(f"{__package__}.commands.{name.replace('-', '_')}", fromlist=["run"])
            command.arguments(p)
            p.set_defaults(func=functools.partial(command.run, p))
    return parser


def main(argv: list[str] | None = None) -> int:
    # Entries outgrow CPython's 4300-digit limit on int<->str conversion
    # (1600! alone has over 4400); lift it while the command runs, and give
    # an in-process caller its own limit back once all output is written.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv).parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed stdout: exit as a tool killed by SIGPIPE, with
        # fd 1 on devnull so that the interpreter's last flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
