"""The body of `wardtri gen`, and the one statement of its output domain:
exact `decimal.Decimal`s, whose text CPython makes in time linear in their
digits, where an int's takes quadratic time.  Every route but the partition
transform (whose rows stay ints) computes in the type of its T(0, 0), so gen
seeds it with `Decimal(1)`, and reads every row in `CONTEXT`, of the largest
precision and exponent range, which traps any rounding: no caller's context
can round a row, and a remainder still raises `ExactnessError`."""

from __future__ import annotations

import argparse
import decimal
import itertools
import sys

from .. import Strategy
from . import routes

CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Write rows 0..--rows of the route to stdout, each row as it is made.
    A b-file leaves out row 0 and each row's k = 0 entry, so it needs
    --rows 1 or more."""
    if args.format == "bfile" and args.rows < 1:
        parser.error("--rows must be at least 1 for a b-file, which leaves out row 0")
    if args.format != "bfile" and args.offset is not None:
        parser.error(f"--offset applies only to --format bfile, not {args.format}")
    routes(parser, args.kind, [args.strategy], strict=True)
    from .. import triangles

    one = 1 if args.strategy is Strategy.PARTITION_TRANSFORM else decimal.Decimal(1)
    out = sys.stdout
    with decimal.localcontext(CONTEXT):
        rows = itertools.islice(triangles._rows(args.kind, args.strategy, one), args.rows + 1)
        if args.format == "bfile":
            from .. import bfile as bfile_mod

            offset = 1 if args.offset is None else args.offset
            for row in itertools.islice(rows, 1, None):
                out.write(bfile_mod.render_bfile(bfile_mod.BFile(offset=offset, values=row[1:])))
                offset += len(row) - 1
            return 0
        sep = " " if args.format == "table" else ","
        for row in rows:
            out.write(sep.join(map(str, row)) + "\n")
    return 0
