"""Write identity_cases.json: the (cases, skipped) count of every identity
report that `wardtri identities --max-n N` prints, for each N in
workloads.IDENTITY_MAX_N.  The benchmark's output gate compares every identities
job against this file, so regenerate it only from a commit whose counts
are known to be right.

Run from the repository root:  python3 perfbench/record_identity_cases.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wardtri import identities  # noqa: E402

from workloads import IDENTITY_MAX_N  # noqa: E402


def main() -> None:
    table = {}
    for max_n in range(IDENTITY_MAX_N[0], IDENTITY_MAX_N[1] + 1):
        table[str(max_n)] = {
            r.name: [r.cases, r.skipped] for r in identities.run_identity_suite(max_n)
        }
    (HERE / "identity_cases.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
