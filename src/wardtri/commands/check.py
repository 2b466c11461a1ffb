from __future__ import annotations

import argparse

from .. import Kind
from . import _count, _list_parser, parse_kind, parse_strategy, routes


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", dest="kinds", type=_list_parser(parse_kind), default=None,
                   help="comma-separated kinds or 'all' (default)")
    p.add_argument("--rows", type=_count, default=15)
    p.add_argument("--strategies", type=_list_parser(parse_strategy), default=None,
                   help="comma-separated strategies or 'all' (default)")


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.rows < 1:  # row 0 alone is the seed T(0, 0) = 1 that every route starts from
        parser.error("--rows must be at least 1")
    kinds = args.kinds or list(Kind)
    plan = [(kind, routes(parser, kind, args.strategies, len(kinds) == 1)) for kind in kinds]
    if all(len(strategies) < 2 for _, strategies in plan):
        parser.error("no kind has two of the given strategies; nothing to compare")
    from .. import compare

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
