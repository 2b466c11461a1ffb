"""Command-line front end.

Subcommands: gen, check, identities, conjecture, bfile-compare, bench.
Exit codes: 0 success/agreement, 1 mismatch or identity failure, 2 usage
error (argparse errors, negative row counts, `gen --format bfile --rows 0`,
`gen --offset` with `--format table` or `csv`, `bench --rows 0`, an
integer option that is not ASCII digits, `identities --max-n` below 2,
unsupported strategy names, an empty kind or strategy list, a check that
compares no pair, unreadable or malformed files, a count of `sys.maxsize`
or more), 141 a closed stdout.

This module is the parser, which adds only the running command's
arguments; each command's body is a module of its own,
`wardtri.commands.<command>`, imported when that command runs.  Each
command imports only the modules it runs: its body, `streams` for every
command (which loads `partition_transform` only for a transform route),
the memo `triangles` for identities, conjecture and bench alone, `compare`
for check, `identities` for identities and conjecture, `bfile` for b-file
output and bfile-compare.  `--help` and an argument that does not parse
load none of them, as the package defines `Kind` and `Strategy` itself.
gen, check, bfile-compare and bench read each route as a stream of rows
and hold one row at a time; gen alone loads `decimal`, for its output
domain (see `wardtri.commands.gen`), and bfile-compare reads its file one
line at a time and compares integers.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from enum import Enum

from . import Kind, Strategy


def _normalise(text: str) -> str:
    return text.strip().lower().replace("-", "").replace("_", "")


def _enum_parser(enum: type[Enum]) -> Callable[[str], Enum]:
    """Parse one member of `enum` by its value, in any case and punctuation."""
    members = {_normalise(m.value): m for m in enum}
    label = enum.__name__.lower()

    def parse(text: str) -> Enum:
        try:
            return members[_normalise(text)]
        except KeyError:
            raise argparse.ArgumentTypeError(
                f"unknown {label} {text!r}; choose from {', '.join(m.value for m in enum)}"
            ) from None

    return parse


parse_kind = _enum_parser(Kind)
parse_strategy = _enum_parser(Strategy)


def _count(text: str) -> int:
    """A row count or a bound: ASCII digits, below `sys.maxsize` (islice's limit)."""
    if not (text.isascii() and text.isdecimal()):  # int() cannot fail and the count is >= 0
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if int(text) >= sys.maxsize:
        raise argparse.ArgumentTypeError(f"expected an integer below {sys.maxsize}, got {text!r}")
    return int(text)


def _index(text: str) -> int:
    """A b-file index: ASCII digits after an optional sign, as a b-file
    line's tokens are read (int() alone would take "1_0" and " 1")."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _list_parser(parse: Callable[[str], Enum]) -> Callable[[str], list | None]:
    """Parse a comma-separated list of `parse` values, at least one, or 'all'
    (None).  A repeat is dropped, so no route is compared with itself."""

    def parse_list(text: str) -> list | None:
        if _normalise(text) == "all":
            return None
        items = list(dict.fromkeys(parse(part) for part in text.split(",") if part.strip()))
        if not items:
            raise argparse.ArgumentTypeError(f"expected a list of names or 'all', got {text!r}")
        return items

    return parse_list


_CONJECTURES = {
    "stirling1": (Kind.BINOMIAL_WARD1, "central Stirling cycle"),
    "stirling2": (Kind.BINOMIAL_WARD2, "central Stirling set"),
    "central-lah": (Kind.BINOMIAL_WARD_LAH, "central Lah"),
}


def _gen(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", type=parse_kind, required=True)
    p.add_argument("--rows", type=_count, required=True)
    p.add_argument("--strategy", type=parse_strategy, default=Strategy.RECURRENCE)
    p.add_argument("--format", choices=["table", "csv", "bfile"], default="table")
    p.add_argument("--offset", type=_index, default=None, help="first b-file index (default 1)")


def _check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", dest="kinds", type=_list_parser(parse_kind), default=None,
                   help="comma-separated kinds or 'all' (default)")
    p.add_argument("--rows", type=_count, default=15)
    p.add_argument("--strategies", type=_list_parser(parse_strategy), default=None,
                   help="comma-separated strategies or 'all' (default)")


def _identities(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=_count, default=15)
    p.add_argument("--machine", action="store_true", help="key=value output")


def _conjecture(p: argparse.ArgumentParser) -> None:
    p.add_argument("which", choices=sorted(_CONJECTURES))
    p.set_defaults(conjectures=_CONJECTURES)
    p.add_argument("--max-n", type=_count, default=15)


def _bfile_compare(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", type=parse_kind, required=True)
    p.add_argument("--strategy", type=parse_strategy, default=Strategy.RECURRENCE)
    p.add_argument("--file", required=True)
    p.add_argument("--offset", type=_index, default=1)


def _bench(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", type=parse_kind, required=True)
    p.add_argument("--rows", type=_count, required=True)
    p.add_argument("--strategies", type=_list_parser(parse_strategy), default=None)


# Each command's help line and the function that adds its arguments.
_COMMANDS = {
    "gen": ("print one triangle", _gen),
    "check": ("pairwise strategy cross-validation", _check),
    "identities": ("run the identity suite", _identities),
    "conjecture": ("row-sum evidence reports", _conjecture),
    "bfile-compare": ("compare a b-file against a triangle", _bfile_compare),
    "bench": ("time triangle construction per strategy", _bench),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of `argv`, where a command has its arguments only if its
    name is a token of `argv`: argparse runs the subparser that a token
    names exactly, and `--help` or a top-level usage error needs none."""
    parser = argparse.ArgumentParser(
        prog="wardtri",
        description="Construct, cross-validate and export Ward-related integer triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, add_arguments) in _COMMANDS.items():
        # A command reports its usage errors through its own subparser.  Its
        # body, `wardtri.commands.<name>.run`, is imported when it runs, by
        # `__import__`, which `-X importtime` lists (`import_module` is not).
        p = sub.add_parser(name, help=help)
        module = f"{__package__}.commands.{name.replace('-', '_')}"
        p.set_defaults(func=lambda args, p=p, module=module: __import__(module, fromlist=["run"]).run(p, args))
        if name in argv:
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Entries outgrow CPython's 4300-digit limit on int<->str conversion
    # (1600! alone has over 4400); lift it while the command runs, and give
    # an in-process caller its own limit back once all output is written.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
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
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
