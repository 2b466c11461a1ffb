from __future__ import annotations

import argparse

from . import _count


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=_count, default=15)
    p.add_argument("--machine", action="store_true", help="key=value output")


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.max_n < 2:  # below row 2 some checks would compare no case
        parser.error("--max-n must be at least 2")
    from .. import identities

    reports = identities.run_identity_suite(args.max_n)
    failed = 0
    for report in reports:
        print(report.machine() if args.machine else report.human())
        if not report.passed and not report.conjecture:
            failed += 1
    return 1 if failed else 0
