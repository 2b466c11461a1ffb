from __future__ import annotations

import argparse


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from .. import identities

    kind, label = args.conjectures[args.which]
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
