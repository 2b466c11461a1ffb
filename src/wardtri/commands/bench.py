from __future__ import annotations

import argparse
import itertools
import time

from . import _count, _list_parser, parse_kind, parse_strategy, routes


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", type=parse_kind, required=True)
    p.add_argument("--rows", type=_count, required=True)
    p.add_argument("--strategies", type=_list_parser(parse_strategy), default=None)


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Time rows 0..--rows of each route's stream, read one row at a time,
    together with the scan for the largest entry's bit length.  Each route
    runs once per process, so a transform route's table starts cold."""
    if args.rows < 1:
        parser.error("--rows must be at least 1")
    strategies = routes(parser, args.kind, args.strategies, strict=True)
    from .. import streams

    print("kind strategy rows entries max_bits seconds")
    entries = (args.rows + 1) * (args.rows + 2) // 2
    for strategy in strategies:
        start = time.perf_counter()
        rows = itertools.islice(streams.stream(args.kind, strategy), args.rows + 1)
        max_bits = max(v.bit_length() for row in rows for v in row)
        elapsed = time.perf_counter() - start
        print(
            f"{args.kind.value} {strategy.value} {args.rows} "
            f"{entries} {max_bits} {elapsed:.3f}"
        )
    return 0
