"""Seeded job lists for the three workloads, and the output gate every job
must pass.

A job is one unit of client work: the argv of one or two cold `wardtri`
invocations plus what their output must say.  The job list of a workload is
a pure function of (workload, seed): every kind of the workload at every
size of its ladder, in an order dealt by the seed.  The seed moves no size:
the cost of a job grows steeply with its size and differs between kinds, so
seeded sizes made two seeds' lists differ in cost by up to a tenth (and
their median job by up to a fifth), which is more than the benchmark's
figures may spread between runs of the same code.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path

# Non-transform routes of each kind that has at least two of them, in the
# order they are passed to `check --strategies`.
VERIFY_ROUTES = {
    "ward-lah": ("recurrence", "explicit", "alternating-sum"),
    "varied-ward1": ("recurrence", "scaling"),
    "varied-ward2": ("recurrence", "scaling"),
    "varied-ward-lah": ("recurrence", "explicit", "scaling"),
    "binomial-ward1": ("recurrence", "scaling"),
    "binomial-ward2": ("recurrence", "scaling"),
    "binomial-ward-lah": ("recurrence", "explicit", "scaling"),
}
VERIFY_ROWS = (48, 80, 112)
IDENTITY_MAX_N_USED = (22, 32)  # --max-n of the identities jobs
IDENTITY_MAX_N = (20, 39)  # the --max-n range recorded in identity_cases.json

TRANSFORM_KINDS = (
    "ward1", "ward2", "ward-lah",
    "varied-ward1", "varied-ward2", "varied-ward-lah",
    "binomial-ward1", "binomial-ward2", "binomial-ward-lah",
)
TRANSFORM_ROWS = (19, 22, 24)

# The seven kinds with an OEIS b-file, and the route `bfile-compare` reads
# the export back with: a second route where one exists at these sizes,
# the recurrence itself for ward1/ward2 (their only other route is the
# partition transform).
EXPORT_ROUTES = {
    "ward1": "recurrence",
    "ward2": "recurrence",
    "ward-lah": "explicit",
    "varied-ward1": "scaling",
    "varied-ward2": "scaling",
    "binomial-ward1": "scaling",
    "binomial-ward2": "scaling",
}
EXPORT_ROWS = (200,)

_REPORT = re.compile(r"^(PASS|FAIL) (\S+) \[[^\]]*\] cases=(\d+) skipped=(\d+)")
_IDENTITY_CASES_FILE = Path(__file__).resolve().parent / "identity_cases.json"
_identity_cases: dict[str, dict[str, list[int]]] = {}


def entries(rows: int) -> int:
    """Entries T(n, k) with 0 <= k <= n <= rows: what `check` compares."""
    return (rows + 1) * (rows + 2) // 2


def bfile_entries(rows: int) -> int:
    """Entries with 1 <= k <= n <= rows: what a b-file of `rows` rows holds."""
    return rows * (rows + 1) // 2


def expected_identity_cases(max_n: int) -> dict[str, list[int]]:
    """{report name: [cases, skipped]} as recorded at the seed commit."""
    if not _identity_cases:
        _identity_cases.update(json.loads(_IDENTITY_CASES_FILE.read_text()))
    return _identity_cases[str(max_n)]


@dataclass(frozen=True)
class Job:
    command: str  # "check", "identities" or "export"
    size: int  # --rows, or --max-n for identities
    kind: str = ""
    routes: tuple[str, ...] = ()  # check: routes compared; export: read-back route

    def steps(self, bfile: str) -> list[list[str]]:
        """CLI argv of each invocation.  For export the first one's stdout
        is the b-file at `bfile`."""
        if self.command == "check":
            return [[
                "check", "--kind", self.kind, "--rows", str(self.size),
                "--strategies", ",".join(self.routes),
            ]]
        if self.command == "identities":
            return [["identities", "--max-n", str(self.size)]]
        return [
            ["gen", "--kind", self.kind, "--rows", str(self.size), "--format", "bfile"],
            ["bfile-compare", "--kind", self.kind, "--strategy", self.routes[0], "--file", bfile],
        ]

    def verdict(self, rcs: list[int], outputs: list[str], bfile: str, bfile_lines: int) -> tuple[int, str]:
        """(cases, failure reason); the reason is "" when the job passed.

        `outputs` are the captured stdouts (the b-file step's is ""), and
        `bfile_lines` is the number of lines the b-file step wrote.
        """
        if any(rc != 0 for rc in rcs):
            return 0, f"exit codes {rcs}"
        if self.command == "export":
            want = bfile_entries(self.size)
            if bfile_lines != want:
                return 0, f"b-file has {bfile_lines} lines, expected {want}"
            agree = f"{bfile}: {want} entries agree with {self.kind}/{self.routes[0]}"
            if agree not in outputs[1].splitlines():
                return 0, f"no read-back line {agree!r}"
            return 2 * want, ""
        if self.command == "check":
            want = {
                f"equivalence-{self.kind}-{a}~{b}": [entries(self.size), 0]
                for a, b in combinations(self.routes, 2)
            }
        else:
            want = expected_identity_cases(self.size)
        found: dict[str, list[int]] = {}
        for line in outputs[0].splitlines():
            m = _REPORT.match(line)
            if m is None:
                continue
            if m[1] == "FAIL" or m[2] in found:
                return 0, f"report {line!r}"
            found[m[2]] = [int(m[3]), int(m[4])]
        if found != want:
            missing = sorted(set(want) - set(found))
            wrong = sorted(n for n in set(want) & set(found) if want[n] != found[n])
            extra = sorted(set(found) - set(want))
            return 0, f"reports missing {missing}, wrong counts {wrong}, unexpected {extra}"
        return sum(c for c, _ in found.values()), ""


def _verify() -> list[Job]:
    checks = [Job("check", rows, kind, routes) for rows in VERIFY_ROWS for kind, routes in VERIFY_ROUTES.items()]
    return checks + [Job("identities", max_n) for max_n in IDENTITY_MAX_N_USED]


def _transform() -> list[Job]:
    return [Job("check", rows, kind, ("recurrence", "partition-transform"))
            for rows in TRANSFORM_ROWS for kind in TRANSFORM_KINDS]


def _export() -> list[Job]:
    return [Job("export", rows, kind, (route,)) for rows in EXPORT_ROWS for kind, route in EXPORT_ROUTES.items()]


GENERATORS = {"verify": _verify, "transform": _transform, "export": _export}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass: a pure function of (workload, seed)."""
    jobs = GENERATORS[workload]()
    random.Random(f"{workload}/{seed}").shuffle(jobs)
    return jobs


def jobs_hash(jobs: list[Job]) -> str:
    """Short digest of a job list, so two runs can be shown to share inputs."""
    text = json.dumps([asdict(j) for j in jobs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
