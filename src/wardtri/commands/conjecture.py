from __future__ import annotations

import argparse

from .. import Kind
from . import _count

_CONJECTURES = {
    "stirling1": (Kind.BINOMIAL_WARD1, "central Stirling cycle"),
    "stirling2": (Kind.BINOMIAL_WARD2, "central Stirling set"),
    "central-lah": (Kind.BINOMIAL_WARD_LAH, "central Lah"),
}


def arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("which", choices=sorted(_CONJECTURES))
    p.add_argument("--max-n", type=_count, default=15)


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.max_n < 1:  # row 0 alone is the seed T(0, 0) = 1 that every route starts from
        parser.error("--max-n must be at least 1")
    from .. import identities

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
