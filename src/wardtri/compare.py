"""Check records and the route comparison behind `wardtri check`.

A `_Sweep` accumulates one check's verdict and reports it as a
`CheckReport`, naming the first `Counterexample`.  Every verdict is reached
a row of cases at a time through its one method, `_Sweep.compare`, which
compares two rows whole and scans them only to name a first mismatch.  The
identity suite in `identities` builds every check on it, and
`compare_routes`, the one route comparison, passes it the rows of each
pair of routes, read from their row streams in lockstep.  This module
imports neither `identities` nor, until a ratio comparison fails and
`ratio` reports it, `fractions`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
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


def ratio(num: int, den: int):
    """num/den as a `Fraction`, for the counterexample of a ratio case: a
    check states num/den == a/b as num * b == a * den, and only a failure
    loads `fractions`."""
    from fractions import Fraction

    return Fraction(num, den)


class _Sweep:
    """Accumulates a pass/fail verdict over swept parameter tuples, one row
    of cases at a time; a check adds the tuples it skips to `skipped`."""

    def __init__(self, name: str, param_range: str, conjecture: bool = False):
        self.name = name
        self.param_range = param_range
        self.conjecture = conjecture
        self.cases = 0
        self.skipped = 0
        self.counterexample: Counterexample | None = None

    def compare(self, lhs: Sequence, rhs: Sequence, where: Callable[[int], Counterexample]) -> None:
        """Add one case per entry of `lhs` against the entry of `rhs` at the
        same index; the two are of one length and type.  If they differ and
        no counterexample is held, hold where(i) for the first unequal i."""
        self.cases += len(lhs)
        if lhs != rhs and self.counterexample is None:
            self.counterexample = where(next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b))

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
    each row once and no whole triangle is held.
    """
    if rows < 0:
        raise ValueError(f"rows must be nonnegative, got {rows}")
    pairs = list(combinations(range(len(strategies)), 2))
    sweeps = [
        _Sweep(f"equivalence-{kind.value}-{strategies[i].value}~{strategies[j].value}", f"0<=k<=n<={rows}")
        for i, j in pairs
    ]
    for n, row in enumerate(islice(zip(*(stream(kind, s) for s in strategies)), rows + 1)):
        for (i, j), sweep in zip(pairs, sweeps):
            sweep.compare(row[i], row[j], lambda k: Counterexample(n, k, row[i][k], row[j][k]))
    return [sweep.report() for sweep in sweeps]

