#!/usr/bin/env python3
"""Regenerate the committed b-file fixtures under tests/fixtures/.

Each fixture is produced by the partition-transform route (the defining
formula of each triangle), so the test suite's comparison against the
recurrence and scaling routes is a genuine cross-check rather than a
round trip through one code path.  Network access to the OEIS is not
assumed anywhere; these files stand in for the published b-files and are
validated by strategy agreement plus the known special-value columns.
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

from wardtri import bfile, streams
from wardtri.streams import Kind, Strategy

FIXTURE_ROWS = 25

# OEIS id -> triangle family it tabulates.
SEQUENCES = {
    "A269939": Kind.WARD2,
    "A269940": Kind.WARD1,
    "A268437": Kind.VARIED_WARD2,
    "A268438": Kind.VARIED_WARD1,
    "A268439": Kind.BINOMIAL_WARD1,
    "A268440": Kind.BINOMIAL_WARD2,
    "A357367": Kind.WARD_LAH,
}


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)
    for seq_id, kind in sorted(SEQUENCES.items()):
        rows = islice(streams.stream(kind, Strategy.PARTITION_TRANSFORM), FIXTURE_ROWS + 1)
        values = tuple(bfile.linearize(rows))
        bf = bfile.BFile(
            offset=1,
            values=values,
            comments=(
                f"# {seq_id}: {kind.value} read by rows, n >= 1, 1 <= k <= n",
                f"# generated by the partition-transform route, rows 1..{FIXTURE_ROWS}",
            ),
        )
        path = out_dir / f"b{seq_id[1:]}.txt"
        path.write_text(bfile.render_bfile(bf))
        print(f"wrote {path} ({len(values)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
