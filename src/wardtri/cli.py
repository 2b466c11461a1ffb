"""Command-line front end.

Subcommands: gen, check, identities, conjecture, bfile-compare, bench.
Exit codes: 0 success/agreement, 1 mismatch or identity failure, 2 usage
error (argparse errors, negative row counts, `gen --format bfile --rows 0`,
`gen --offset` with `--format table` or `csv`, `bench --rows 0`, an
integer option that is not ASCII digits, `identities --max-n` below 2,
unsupported strategy names, an empty kind or strategy list, a check that
compares no pair, unreadable or malformed files, a count of `sys.maxsize`
or more), 141 a closed stdout.

Each command imports only the modules it runs: `triangles` for gen,
check, bfile-compare and bench, `compare` for check, `identities` for
identities and conjecture, `bfile` for b-file output and bfile-compare.
`--help` and an argument that does not parse load none of them, as the
package defines `Kind` and `Strategy` itself.  gen, check, bfile-compare
and bench read each route as a stream of rows and hold one row at a time;
gen builds its rows as exact Decimals (`decimal` is loaded for gen alone),
and bfile-compare reads its file one line at a time and compares integers.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
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


def _routes(parser: argparse.ArgumentParser, kind: Kind, wanted: list | None, strict: bool) -> list:
    """The strategies to run for `kind`: all it supports for None, else those
    `wanted` that it supports.  When `strict`, one it lacks is a usage error."""
    from . import triangles

    supported = triangles.SUPPORTED[kind]
    if wanted is None:
        return sorted(supported, key=lambda s: s.value)
    missing = [s for s in wanted if s not in supported]
    if missing and strict:
        parser.error(f"{kind.value} does not support: {', '.join(s.value for s in missing)}")
    return [s for s in wanted if s in supported]


def _cmd_gen(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Write rows 0..--rows of the route to stdout, each row as it is made,
    built as exact Decimals so that printing them is linear.  A b-file
    leaves out row 0 and each row's k = 0 entry, so it needs --rows 1 or more."""
    if args.format == "bfile" and args.rows < 1:
        parser.error("--rows must be at least 1 for a b-file, which leaves out row 0")
    if args.format != "bfile" and args.offset is not None:
        parser.error(f"--offset applies only to --format bfile, not {args.format}")
    _routes(parser, args.kind, [args.strategy], strict=True)
    from . import triangles

    rows = itertools.islice(triangles._exact_decimal_rows(args.kind, args.strategy), args.rows + 1)
    out = sys.stdout
    if args.format == "bfile":
        from . import bfile as bfile_mod

        offset = 1 if args.offset is None else args.offset
        for row in itertools.islice(rows, 1, None):
            out.write(bfile_mod.render_bfile(bfile_mod.BFile(offset=offset, values=row[1:])))
            offset += len(row) - 1
        return 0
    sep = " " if args.format == "table" else ","
    for row in rows:
        out.write(sep.join(map(str, row)) + "\n")
    return 0


def _cmd_check(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kinds = args.kinds or list(Kind)
    plan = [(kind, _routes(parser, kind, args.strategies, len(kinds) == 1)) for kind in kinds]
    if all(len(strategies) < 2 for _, strategies in plan):
        parser.error("no kind has two of the given strategies; nothing to compare")
    from . import compare

    failures = 0
    for kind, strategies in plan:
        if len(strategies) < 2:
            print(f"note: {kind.value}: fewer than two applicable strategies, skipped")
            continue
        for report in compare.compare_routes(kind, args.rows, strategies):
            print(report.human())
            if not report.passed:
                failures += 1
    return 1 if failures else 0


def _cmd_identities(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.max_n < 2:  # below row 2 some checks would compare no case
        parser.error("--max-n must be at least 2")
    from . import identities

    reports = identities.run_identity_suite(args.max_n)
    failed = 0
    for report in reports:
        print(report.machine() if args.machine else report.human())
        if not report.passed and not report.conjecture:
            failed += 1
    return 1 if failed else 0


_CONJECTURES = {
    "stirling1": (Kind.BINOMIAL_WARD1, "central Stirling cycle"),
    "stirling2": (Kind.BINOMIAL_WARD2, "central Stirling set"),
    "central-lah": (Kind.BINOMIAL_WARD_LAH, "central Lah"),
}


def _cmd_conjecture(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from . import identities

    kind, label = _CONJECTURES[args.which]
    agree = True
    for n, rowsum, ref in identities.rowsum_pairs(kind, args.max_n):
        ok = rowsum == ref
        agree &= ok
        print(f"n={n}: row_sum={rowsum} {label}={ref} {'agree' if ok else 'DISAGREE'}")
    print(
        f"{args.which}: n=0..{args.max_n} "
        + ("all agree" if agree else "DISAGREEMENT FOUND (evidence above)")
    )
    # Evidence reports never fail the process; disagreement is a finding.
    return 0


def _decode_error(path: str, exc: UnicodeDecodeError) -> UnicodeDecodeError:
    """The error that reading the whole file at once raises, whose byte
    position counts from the start of the file; `exc`, from a file read a
    chunk at a time, counts from the start of its chunk."""
    try:
        with open(path, encoding="utf-8") as f:
            f.read()
    except UnicodeDecodeError as whole:
        return whole
    except OSError:  # the file went away since: keep the first report
        pass
    return exc


def _cmd_bfile_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Check the file line by line against the route's linearised stream.
    The whole file is read and validated even after a mismatch, so an
    unreadable or malformed file is a usage error wherever the fault is."""
    _routes(parser, args.kind, [args.strategy], strict=True)  # before the file is read
    from . import bfile as bfile_mod, triangles

    first = entries = 0
    expected = mismatch = None
    try:
        # newline="\n": a lone CR ends no line, as in `bfile.parse_bfile`.
        with open(args.file, encoding="utf-8", newline="\n") as f:
            try:
                for index, found in bfile_mod.parse_lines(f):
                    if not entries:
                        first = index
                        # A file that starts off --offset builds nothing.
                        if index == args.offset:
                            expected = bfile_mod.linearize(triangles.stream(args.kind, args.strategy))
                    entries += 1
                    if expected is None:
                        continue
                    want = next(expected)
                    if want != found:
                        n, k = bfile_mod.index_to_entry(index, args.offset)
                        mismatch = (
                            f"mismatch at index {index} (n={n}, k={k}): "
                            f"expected {bfile_mod.abbreviate(str(want))}, "
                            f"found {bfile_mod.abbreviate(str(found))}"
                        )
                        expected = None  # the rest of the file is only validated
            except bfile_mod.BFileParseError as exc:
                for _ in f:  # an undecodable byte further on is reported first
                    pass
                parser.error(f"{args.file}: {exc}")
    except OSError as exc:
        parser.error(f"cannot read {args.file}: {exc}")
    except UnicodeDecodeError as exc:
        parser.error(f"cannot read {args.file}: {_decode_error(args.file, exc)}")
    if first > args.offset:
        parser.error(f"{args.file}: first index {first} is past --offset {args.offset}")
    if first < args.offset:
        print(f"mismatch at index {first}: index below offset {args.offset}")
        return 1
    if mismatch is not None:
        print(mismatch)
        return 1
    print(f"{args.file}: {entries} entries agree with {args.kind.value}/{args.strategy.value}")
    return 0


def _cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Time rows 0..--rows of each route's stream, read one row at a time,
    together with the scan for the largest entry's bit length."""
    if args.rows < 1:
        parser.error("--rows must be at least 1")
    strategies = _routes(parser, args.kind, args.strategies, strict=True)
    from . import triangles

    print("kind strategy rows entries max_bits seconds")
    entries = (args.rows + 1) * (args.rows + 2) // 2
    for strategy in strategies:
        triangles.clear_caches()  # the transform's tables start cold
        start = time.perf_counter()
        rows = itertools.islice(triangles.stream(args.kind, strategy), args.rows + 1)
        max_bits = max(v.bit_length() for row in rows for v in row)
        elapsed = time.perf_counter() - start
        print(
            f"{args.kind.value} {strategy.value} {args.rows} "
            f"{entries} {max_bits} {elapsed:.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wardtri",
        description="Construct, cross-validate and export Ward-related integer triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[argparse.ArgumentParser, argparse.Namespace], int],
                help: str) -> argparse.ArgumentParser:
        # A command reports its usage errors through its own subparser.
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=lambda args: run(p, args))
        return p

    p_gen = command("gen", _cmd_gen, "print one triangle")
    p_gen.add_argument("--kind", type=parse_kind, required=True)
    p_gen.add_argument("--rows", type=_count, required=True)
    p_gen.add_argument("--strategy", type=parse_strategy, default=Strategy.RECURRENCE)
    p_gen.add_argument("--format", choices=["table", "csv", "bfile"], default="table")
    p_gen.add_argument("--offset", type=_index, default=None, help="first b-file index (default 1)")

    p_check = command("check", _cmd_check, "pairwise strategy cross-validation")
    p_check.add_argument("--kind", dest="kinds", type=_list_parser(parse_kind), default=None,
                         help="comma-separated kinds or 'all' (default)")
    p_check.add_argument("--rows", type=_count, default=15)
    p_check.add_argument("--strategies", type=_list_parser(parse_strategy), default=None,
                         help="comma-separated strategies or 'all' (default)")

    p_ident = command("identities", _cmd_identities, "run the identity suite")
    p_ident.add_argument("--max-n", type=_count, default=15)
    p_ident.add_argument("--machine", action="store_true", help="key=value output")

    p_conj = command("conjecture", _cmd_conjecture, "row-sum evidence reports")
    p_conj.add_argument("which", choices=sorted(_CONJECTURES))
    p_conj.add_argument("--max-n", type=_count, default=15)

    p_cmp = command("bfile-compare", _cmd_bfile_compare, "compare a b-file against a triangle")
    p_cmp.add_argument("--kind", type=parse_kind, required=True)
    p_cmp.add_argument("--strategy", type=parse_strategy, default=Strategy.RECURRENCE)
    p_cmp.add_argument("--file", required=True)
    p_cmp.add_argument("--offset", type=_index, default=1)

    p_bench = command("bench", _cmd_bench, "time triangle construction per strategy")
    p_bench.add_argument("--kind", type=parse_kind, required=True)
    p_bench.add_argument("--rows", type=_count, required=True)
    p_bench.add_argument("--strategies", type=_list_parser(parse_strategy), default=None)

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
        args = build_parser().parse_args(argv)
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
