from __future__ import annotations

import argparse
import itertools
import sys

from . import routes


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Write rows 0..--rows of the route to stdout, each row as it is made,
    built as exact Decimals so that printing them is linear.  A b-file
    leaves out row 0 and each row's k = 0 entry, so it needs --rows 1 or more."""
    if args.format == "bfile" and args.rows < 1:
        parser.error("--rows must be at least 1 for a b-file, which leaves out row 0")
    if args.format != "bfile" and args.offset is not None:
        parser.error(f"--offset applies only to --format bfile, not {args.format}")
    routes(parser, args.kind, [args.strategy], strict=True)
    from .. import triangles

    rows = itertools.islice(triangles._exact_decimal_rows(args.kind, args.strategy), args.rows + 1)
    out = sys.stdout
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
