"""Check records and the route comparison behind `wardtri check`.

A `_Sweep` accumulates one check's verdict over its parameter tuples and
reports it as a `CheckReport`, naming the first `Counterexample`.  The
identity suite in `identities` builds every check on these records, and
`compare_routes`, the one route comparison, compares the routes of one
kind entry by entry, reading their row streams in lockstep.  This module
imports neither `identities` nor `fractions`: a `Fraction` is formed only
to report a failed ratio comparison.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, islice

from .triangles import Kind, Strategy, stream


class Counterexample(namedtuple("Counterexample", "n k lhs rhs m", defaults=(None,))):
    """The first tuple an identity fails at: n, k, the two sides and, for
    an m-step recurrence, m (None otherwise)."""

    __slots__ = ()

    def fields(self) -> str:
        where = f"n={self.n} k={self.k}"
        if self.m is not None:
            where += f" m={self.m}"
        return f"{where} lhs={self.lhs} rhs={self.rhs}"


class CheckReport(
    namedtuple(
        "CheckReport",
        "name param_range passed cases skipped conjecture counterexample",
        defaults=(0, False, None),
    )
):
    """The verdict of one check: its name and parameter range, whether it
    passed, the cases compared and skipped, whether the relation is only
    conjectured, and the first `Counterexample` (None on a pass)."""

    __slots__ = ()

    def human(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        line = f"{tag} {self.name} [{self.param_range}] cases={self.cases} skipped={self.skipped}"
        if self.conjecture:
            line += " (conjecture)"
        if self.counterexample is not None:
            line += f" counterexample: {self.counterexample.fields()}"
        return line

    def machine(self) -> str:
        status = "pass" if self.passed else "fail"
        line = (
            f"name={self.name} status={status} range={self.param_range.replace(' ', '')}"
            f" cases={self.cases} skipped={self.skipped}"
            f" conjecture={'true' if self.conjecture else 'false'}"
        )
        if self.counterexample is not None:
            line += f" {self.counterexample.fields()}"
        return line


class _Sweep:
    """Accumulates a pass/fail verdict over swept parameter tuples."""

    def __init__(self, name: str, param_range: str, conjecture: bool = False):
        self.name = name
        self.param_range = param_range
        self.conjecture = conjecture
        self.cases = 0
        self.skipped = 0
        self.counterexample: Counterexample | None = None

    def skip(self) -> None:
        self.skipped += 1

    def compare(self, lhs, rhs, n: int, k: int, m: int | None = None) -> None:
        self.cases += 1
        if self.counterexample is None and lhs != rhs:
            self.counterexample = Counterexample(n=n, k=k, lhs=lhs, rhs=rhs, m=m)

    def compare_ratio(
        self, lhs: int, num: int, den: int, n: int, k: int, m: int | None = None, lhs_den: int = 1
    ) -> None:
        """lhs/lhs_den == num/den for positive denominators, tested as
        lhs * den == num * lhs_den."""
        self.cases += 1
        if self.counterexample is None and lhs * den != num * lhs_den:
            from fractions import Fraction

            self.counterexample = Counterexample(
                n=n, k=k, lhs=Fraction(lhs, lhs_den), rhs=Fraction(num, den), m=m
            )

    def report(self) -> CheckReport:
        return CheckReport(
            name=self.name,
            param_range=self.param_range,
            passed=self.counterexample is None,
            cases=self.cases,
            skipped=self.skipped,
            conjecture=self.conjecture,
            counterexample=self.counterexample,
        )


def compare_routes(kind: Kind, rows: int, strategies: list[Strategy]) -> list[CheckReport]:
    """Entrywise agreement of every pair of `strategies` for one kind, in
    `itertools.combinations` order, over rows 0..rows.

    The routes' streams are read in one lockstep pass, so each route builds
    each row once and no whole triangle is held.  Two rows are compared
    whole, and scanned entry by entry only to name the first mismatch.
    """
    pairs = list(combinations(range(len(strategies)), 2))
    sweeps = [
        _Sweep(f"equivalence-{kind.value}-{strategies[i].value}~{strategies[j].value}", f"0<=k<=n<={rows}")
        for i, j in pairs
    ]
    for n, row in enumerate(islice(zip(*(stream(kind, s) for s in strategies)), rows + 1)):
        for (i, j), sweep in zip(pairs, sweeps):
            if row[i] == row[j]:
                sweep.cases += n + 1
            else:
                for k in range(n + 1):
                    sweep.compare(row[i][k], row[j][k], n, k)
    return [sweep.report() for sweep in sweeps]

