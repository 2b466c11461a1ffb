from __future__ import annotations

import argparse

from .. import Strategy
from . import _index, parse_kind, parse_strategy, routes


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", type=parse_kind, required=True)
    p.add_argument("--strategy", type=parse_strategy, default=Strategy.RECURRENCE)
    p.add_argument("--file", required=True)
    p.add_argument("--offset", type=_index, default=1)


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


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Check the file line by line against the route's linearised stream.
    The whole file is read and validated even after a mismatch, so an
    unreadable or malformed file is a usage error wherever the fault is."""
    routes(parser, args.kind, [args.strategy], strict=True)  # before the file is read
    from .. import bfile as bfile_mod, streams

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
                            expected = bfile_mod.linearize(streams.stream(args.kind, args.strategy))
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
