"""Identity, recurrence, generating-function and conjecture checks for the
Ward-related triangles.

Every check sweeps a parameter range, honours the side conditions under
which its identity is stated (tuples outside them are skipped and counted,
never evaluated), and reports the first counterexample on failure.  Checks
accept an ``entry`` override so tests can inject faults; by default entries
come from the kind's `triangles.reference_route` (explicit, scaling or
partition transform, never the recurrence), so a check never validates a
recurrence against values built by that same recurrence.

Conjectured relations are flagged as such: their reports are evidence, and
a disagreement is surfaced rather than treated as a library bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact_arith import factorial, rising_factorial
from .exact_arith import binomial as binom
from .series import PowerSeries, one_minus_x
from .triangles import Kind, Strategy, central, lah, reference_route, value

EntryFn = Callable[[int, int], int]


def default_entry(kind: Kind) -> EntryFn:
    """Entry lookup for a kind via its reference route."""
    strategy = reference_route(kind)
    return lambda n, k: value(kind, n, k, strategy)


@dataclass(frozen=True)
class Counterexample:
    n: int
    k: int
    lhs: object
    rhs: object
    m: int | None = None

    def fields(self) -> str:
        where = f"n={self.n} k={self.k}"
        if self.m is not None:
            where += f" m={self.m}"
        return f"{where} lhs={self.lhs} rhs={self.rhs}"


@dataclass(frozen=True)
class CheckReport:
    name: str
    param_range: str
    passed: bool
    cases: int
    skipped: int = 0
    conjecture: bool = False
    counterexample: Counterexample | None = None

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
            c = self.counterexample
            line += f" n={c.n} k={c.k}"
            if c.m is not None:
                line += f" m={c.m}"
            line += f" lhs={c.lhs} rhs={c.rhs}"
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


def compare_strategies(
    kind: Kind,
    rows: int,
    strat_a: Strategy,
    strat_b: Strategy,
    *,
    entry_a: EntryFn | None = None,
    entry_b: EntryFn | None = None,
) -> CheckReport:
    """Entrywise agreement of two computation routes for one kind."""
    a = entry_a or (lambda n, k: value(kind, n, k, strat_a))
    b = entry_b or (lambda n, k: value(kind, n, k, strat_b))
    sweep = _Sweep(
        f"equivalence-{kind.value}-{strat_a.value}~{strat_b.value}",
        f"0<=k<=n<={rows}",
    )
    for n in range(rows + 1):
        for k in range(n + 1):
            sweep.compare(a(n, k), b(n, k), n, k)
    return sweep.report()


def check_alternating_sum_wardlah(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Signed Lah-number sum route for ward-lah equals its explicit formula."""
    e = entry or default_entry(Kind.WARD_LAH)
    sweep = _Sweep("alternating-sum-ward-lah", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            lhs = value(Kind.WARD_LAH, n, k, Strategy.ALTERNATING_SUM)
            sweep.compare(lhs, e(n, k), n, k)
    return sweep.report()


def check_triangular_wardlah_weighted(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Two-term ward-lah recurrence with weight (n+k)(n-1)/n; needs k >= 2."""
    e = entry or default_entry(Kind.WARD_LAH)
    sweep = _Sweep("triangular-ward-lah-weighted", f"2<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            if k < 2:
                sweep.skip()
                continue
            rhs = Fraction((n + k) * (n - 1), n) * (
                e(n - 1, k) + Fraction(n + k - 1, k - 1) * e(n - 1, k - 1)
            )
            sweep.compare(Fraction(e(n, k)), rhs, n, k)
    return sweep.report()


def check_triangular_wardlah_integer(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Integer-coefficient ward-lah recurrence, the one the builder uses."""
    e = entry or default_entry(Kind.WARD_LAH)
    sweep = _Sweep("triangular-ward-lah-integer", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            rhs = 2 * (n + k - 1) * e(n - 1, k - 1) + (n + 2 * k - 1) * e(n - 1, k)
            sweep.compare(e(n, k), rhs, n, k)
    return sweep.report()


def check_triangular_wardlah_onestep(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """One-step ward-lah recurrence with weight (n+k) and ratio (n+k-1)/k."""
    e = entry or default_entry(Kind.WARD_LAH)
    sweep = _Sweep("triangular-ward-lah-onestep", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            rhs = (n + k) * (e(n - 1, k) + Fraction(n + k - 1, k) * e(n - 1, k - 1))
            sweep.compare(Fraction(e(n, k)), rhs, n, k)
    return sweep.report()


def check_horizontal_wardlah(
    max_n: int, max_m: int | None = None, *, entry: EntryFn | None = None
) -> CheckReport:
    """m-step horizontal recurrence for ward-lah across row n-m."""
    e = entry or default_entry(Kind.WARD_LAH)
    if max_m is None:
        max_m = max_n - 1
    sweep = _Sweep("horizontal-ward-lah", f"1<=k<=n<={max_n}, 1<=m<=min({max_m},n-1)")
    for n in range(2, max_n + 1):
        for k in range(1, n + 1):
            for m in range(1, min(max_m, n - 1) + 1):
                acc = Fraction(0)
                for j in range(m + 1):
                    kk = k - j
                    if kk < 1 or kk > n - m:
                        continue  # zero entry
                    acc += (
                        Fraction(factorial(kk), factorial(n - m + kk))
                        * binom(m, j)
                        * e(n - m, kk)
                    )
                rhs = Fraction(factorial(n + k), factorial(k)) * acc
                sweep.compare(Fraction(e(n, k)), rhs, n, k, m)
    return sweep.report()


def check_order3_wardlah(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Order-3 recurrence for ward-lah mixing rows n-1 and n-2."""
    e = entry or default_entry(Kind.WARD_LAH)
    sweep = _Sweep("order3-ward-lah", f"2<=n<={max_n}, 1<=k<=n")
    for n in range(2, max_n + 1):
        for k in range(1, n + 1):
            rhs = (
                2 * (2 * n - 1) * e(n - 1, k - 1)
                - n * (n - 2) * e(n - 2, k)
                - (-2 * n + 1) * e(n - 1, k)
            )
            sweep.compare(e(n, k), rhs, n, k)
    return sweep.report()


def check_triangular_varied_ward1(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Triangular recurrence for varied Ward numbers of the first kind."""
    e = entry or default_entry(Kind.VARIED_WARD1)
    sweep = _Sweep("triangular-varied-ward1", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            rhs = Fraction(2 * n * (2 * n - 1), n + k) * (
                (n + k - 1) * e(n - 1, k) + k * e(n - 1, k - 1)
            )
            sweep.compare(Fraction(e(n, k)), rhs, n, k)
    return sweep.report()


def check_triangular_varied_ward2(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Triangular recurrence for varied Ward numbers of the second kind."""
    e = entry or default_entry(Kind.VARIED_WARD2)
    sweep = _Sweep("triangular-varied-ward2", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            rhs = Fraction(2 * n * k * (2 * n - 1), n + k) * (
                e(n - 1, k) + e(n - 1, k - 1)
            )
            sweep.compare(Fraction(e(n, k)), rhs, n, k)
    return sweep.report()


def check_triangular_varied_wardlah(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Triangular recurrence for varied ward-lah with factor 2n(2n-1)."""
    e = entry or default_entry(Kind.VARIED_WARD_LAH)
    sweep = _Sweep("triangular-varied-ward-lah", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            rhs = 2 * n * (2 * n - 1) * (e(n - 1, k) + e(n - 1, k - 1))
            sweep.compare(e(n, k), rhs, n, k)
    return sweep.report()


def check_horizontal_varied_wardlah(
    max_n: int, max_m: int | None = None, *, entry: EntryFn | None = None
) -> CheckReport:
    """m-step horizontal recurrence for varied ward-lah."""
    e = entry or default_entry(Kind.VARIED_WARD_LAH)
    if max_m is None:
        max_m = max_n - 1
    sweep = _Sweep(
        "horizontal-varied-ward-lah", f"1<=k<=n<={max_n}, 1<=m<=min({max_m},n-1)"
    )
    for n in range(2, max_n + 1):
        for k in range(1, n + 1):
            for m in range(1, min(max_m, n - 1) + 1):
                acc = Fraction(0)
                for j in range(m + 1):
                    kk = k - j
                    if kk < 0:
                        continue
                    acc += Fraction(binom(m, j) * e(n - m, kk), factorial(2 * (n - m)))
                rhs = factorial(2 * n) * acc
                sweep.compare(Fraction(e(n, k)), rhs, n, k, m)
    return sweep.report()


def check_triangular_binomial_ward1(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Triangular recurrence for binomial Ward numbers of the first kind.

    Stated only off the diagonal (n-k >= 1); diagonal tuples are skipped.
    """
    e = entry or default_entry(Kind.BINOMIAL_WARD1)
    sweep = _Sweep("triangular-binomial-ward1", f"1<=k<=n-1, n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            if n - k < 1:
                sweep.skip()
                continue
            rhs = Fraction(2 * n * (2 * n - 1), n + k) * (
                Fraction(n + k - 1, n - k) * e(n - 1, k) + e(n - 1, k - 1)
            )
            sweep.compare(Fraction(e(n, k)), rhs, n, k)
    return sweep.report()


def check_triangular_binomial_ward2(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Triangular recurrence for binomial Ward numbers of the second kind."""
    e = entry or default_entry(Kind.BINOMIAL_WARD2)
    sweep = _Sweep("triangular-binomial-ward2", f"1<=k<=n-1, n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            if n - k < 1:
                sweep.skip()
                continue
            rhs = Fraction(2 * n * (2 * n - 1), n + k) * (
                Fraction(k, n - k) * e(n - 1, k) + e(n - 1, k - 1)
            )
            sweep.compare(Fraction(e(n, k)), rhs, n, k)
    return sweep.report()


def check_triangular_binomial_wardlah(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Triangular recurrence for binomial ward-lah, off the diagonal."""
    e = entry or default_entry(Kind.BINOMIAL_WARD_LAH)
    sweep = _Sweep("triangular-binomial-ward-lah", f"1<=k<=n-1, n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            if n - k < 1:
                sweep.skip()
                continue
            rhs = (
                2
                * n
                * (2 * n - 1)
                * (Fraction(e(n - 1, k), n - k) + Fraction(e(n - 1, k - 1), k))
            )
            sweep.compare(Fraction(e(n, k)), rhs, n, k)
    return sweep.report()


def check_horizontal_binomial_wardlah(
    max_n: int, max_m: int | None = None, *, entry: EntryFn | None = None
) -> CheckReport:
    """m-step horizontal recurrence for binomial ward-lah (off-diagonal)."""
    e = entry or default_entry(Kind.BINOMIAL_WARD_LAH)
    if max_m is None:
        max_m = max_n - 1
    sweep = _Sweep(
        "horizontal-binomial-ward-lah",
        f"1<=k<=n-1, n<={max_n}, 1<=m<=min({max_m},n-1)",
    )
    for n in range(2, max_n + 1):
        for k in range(1, n + 1):
            if n - k < 1:
                sweep.skip()
                continue
            for m in range(1, min(max_m, n - 1) + 1):
                acc = Fraction(0)
                for j in range(m + 1):
                    kk = k - j
                    if kk < 1 or kk > n - m:
                        continue  # zero entry
                    acc += (
                        Fraction(
                            factorial(kk) * factorial(n - m - kk),
                            factorial(2 * (n - m)),
                        )
                        * binom(m, j)
                        * e(n - m, kk)
                    )
                rhs = Fraction(factorial(2 * n), factorial(k) * factorial(n - k)) * acc
                sweep.compare(Fraction(e(n, k)), rhs, n, k, m)
    return sweep.report()


def check_order5_binomial_wardlah(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Order-5 recurrence for binomial ward-lah mixing rows n-1 and n-2."""
    e = entry or default_entry(Kind.BINOMIAL_WARD_LAH)
    sweep = _Sweep("order5-binomial-ward-lah", f"2<=n<={max_n}, 2<=k<=n")
    for n in range(2, max_n + 1):
        for k in range(2, n + 1):
            rhs = Fraction(-4 * (n - 2) * (2 * n - 1) ** 2, n) * (
                e(n - 2, k - 2) - 2 * e(n - 2, k - 1) + e(n - 2, k)
            ) + Fraction(4 * (2 * n - 1), n * (2 * n - 3)) * (
                (2 * (n - 1) ** 2 - 1) * e(n - 1, k - 1)
                + 2 * (n - 1) ** 2 * e(n - 1, k)
            )
            sweep.compare(Fraction(e(n, k)), rhs, n, k)
    return sweep.report()


def check_egf_wardlah(k: int, order: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Column-k exponential generating function x^(2k) / (k! (1-x)^k).

    Coefficient of x^n must be wardlah(n-k, k)/n! for k <= n <= order; the
    series has no terms below x^(2k), which is asserted as well.
    """
    if k < 1 or order < 2 * k:
        raise ValueError(f"need k >= 1 and order >= 2k, got k={k}, order={order}")
    e = entry or default_entry(Kind.WARD_LAH)
    sweep = _Sweep(f"egf-ward-lah-k{k}", f"k={k}, n<={order}")
    series = (one_minus_x(order).inverse() ** k).shift(2 * k).scalar_div(factorial(k))
    for n in range(2 * k):
        sweep.compare(series.coefficient(n), Fraction(0), n, k)
    for n in range(k, order + 1):
        expected = Fraction(e(n - k, k), factorial(n))
        sweep.compare(series.coefficient(n), expected, n, k)
    return sweep.report()


def check_gf_variedwardlah(k: int, order: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Column-k generating function (x/(1-x))^k for varied ward-lah.

    Coefficient of x^n must be variedwardlah(n, k)/(2n)! for k <= n <= order;
    coefficients below x^k must vanish.
    """
    if k < 1 or order < k:
        raise ValueError(f"need 1 <= k <= order, got k={k}, order={order}")
    e = entry or default_entry(Kind.VARIED_WARD_LAH)
    sweep = _Sweep(f"gf-varied-ward-lah-k{k}", f"k={k}, n<={order}")
    series = (PowerSeries.x(order) * one_minus_x(order).inverse()) ** k
    for n in range(k):
        sweep.compare(series.coefficient(n), Fraction(0), n, k)
    for n in range(k, order + 1):
        expected = Fraction(e(n, k), factorial(2 * n))
        sweep.compare(series.coefficient(n), expected, n, k)
    return sweep.report()


def check_lah_variedwardlah(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Rising-factorial Lah identity against a binomial sum of varied
    ward-lah entries from row n-k."""
    e = entry or default_entry(Kind.VARIED_WARD_LAH)
    sweep = _Sweep("lah-varied-ward-lah", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            lhs = rising_factorial(n - k + 1, n - k) * lah(n, k)
            rhs = binom(n, k) * sum(binom(k, j) * e(n - k, j) for j in range(k + 1))
            sweep.compare(lhs, rhs, n, k)
    return sweep.report()


# Central numbers the row sums of each binomial kind are compared with.
_ROWSUM_CENTRAL = {
    Kind.BINOMIAL_WARD1: "stirling1",
    Kind.BINOMIAL_WARD2: "stirling2",
    Kind.BINOMIAL_WARD_LAH: "lah",
}


def rowsum_pairs(kind: Kind, max_n: int, *, entry: EntryFn | None = None) -> list[tuple[int, int, int]]:
    """(n, row sum, reference central value) for the row-sum relations."""
    e = entry or default_entry(kind)
    which = _ROWSUM_CENTRAL[kind]
    return [(n, sum(e(n, k) for k in range(n + 1)), central(which, n)) for n in range(max_n + 1)]


def check_conjecture_rowsums_stirling(
    kind: Kind, max_n: int, *, entry: EntryFn | None = None
) -> CheckReport:
    """Conjectured row sums: binomial Ward rows against central Stirling
    numbers (cycle numbers for the first kind, set numbers for the second).

    Reported as evidence; a failure is a finding, not a bug.
    """
    which = _ROWSUM_CENTRAL.get(kind)
    if which not in ("stirling1", "stirling2"):
        raise ValueError(f"row-sum conjecture applies to binomial Ward kinds, not {kind.value}")
    sweep = _Sweep(f"conjecture-rowsums-{kind.value}-{which}", f"0<=n<={max_n}", conjecture=True)
    for n, rowsum, ref in rowsum_pairs(kind, max_n, entry=entry):
        sweep.compare(rowsum, ref, n, 0)
    return sweep.report()


def check_central_lah_rowsums(max_n: int, *, entry: EntryFn | None = None) -> CheckReport:
    """Row sums of binomial ward-lah equal central Lah numbers."""
    sweep = _Sweep("central-lah-rowsums", f"0<=n<={max_n}")
    for n, rowsum, ref in rowsum_pairs(Kind.BINOMIAL_WARD_LAH, max_n, entry=entry):
        sweep.compare(rowsum, ref, n, 0)
    return sweep.report()


def run_identity_suite(max_n: int, gf_max_k: int = 8) -> list[CheckReport]:
    """Every non-conjecture check at its full range, for the CLI and tests."""
    reports = [
        check_alternating_sum_wardlah(max_n),
        check_triangular_wardlah_weighted(max_n),
        check_triangular_wardlah_integer(max_n),
        check_triangular_wardlah_onestep(max_n),
        check_horizontal_wardlah(max_n),
        check_order3_wardlah(max_n),
        check_triangular_varied_ward1(max_n),
        check_triangular_varied_ward2(max_n),
        check_triangular_varied_wardlah(max_n),
        check_horizontal_varied_wardlah(max_n),
        check_triangular_binomial_ward1(max_n),
        check_triangular_binomial_ward2(max_n),
        check_triangular_binomial_wardlah(max_n),
        check_horizontal_binomial_wardlah(max_n),
        check_order5_binomial_wardlah(max_n),
        check_lah_variedwardlah(max_n),
        check_central_lah_rowsums(max_n),
    ]
    for k in range(1, gf_max_k + 1):
        order = max(max_n, 2 * k)
        reports.append(check_egf_wardlah(k, order))
        reports.append(check_gf_variedwardlah(k, order))
    return reports
