import json
from fractions import Fraction
from math import comb, factorial, perm, prod
from pathlib import Path

import pytest

from wardtri import identities as ids
from wardtri import triangles
from wardtri.compare import compare_routes
from wardtri.exact_arith import ExactnessError
from wardtri.triangles import Kind, Strategy, lah


def test_compare_routes_passes():
    (report,) = compare_routes(Kind.WARD_LAH, 15, [Strategy.RECURRENCE, Strategy.EXPLICIT])
    assert report.passed
    assert report.cases == 16 * 17 // 2
    assert report.counterexample is None


@pytest.mark.parametrize("rows", [-1, -2])
def test_compare_routes_refuses_negative_rows(rows):
    # Not a vacuous PASS over no row, nor islice's own message.
    with pytest.raises(ValueError, match=f"rows must be nonnegative, got {rows}"):
        compare_routes(Kind.WARD_LAH, rows, [Strategy.RECURRENCE, Strategy.EXPLICIT])


def test_compare_routes_detects_flip(flip_entry):
    flip_entry(Kind.WARD_LAH, Strategy.EXPLICIT, 7, 4)
    (report,) = compare_routes(Kind.WARD_LAH, 10, [Strategy.RECURRENCE, Strategy.EXPLICIT])
    assert not report.passed
    c = report.counterexample
    assert (c.n, c.k) == (7, 4)
    assert c.rhs == c.lhs + 1 == triangles.value(Kind.WARD_LAH, 7, 4) + 1


def test_compare_routes_flip_fails_only_the_pairs_of_its_route(flip_entry):
    # One flipped entry in explicit: the two pairs holding explicit fail at
    # it, and recurrence~scaling passes with every entry compared.
    routes = [Strategy.RECURRENCE, Strategy.EXPLICIT, Strategy.SCALING]
    flip_entry(Kind.VARIED_WARD_LAH, Strategy.EXPLICIT, 6, 3)
    reports = compare_routes(Kind.VARIED_WARD_LAH, 9, routes)
    assert [r.name for r in reports] == [
        "equivalence-varied-ward-lah-recurrence~explicit",
        "equivalence-varied-ward-lah-recurrence~scaling",
        "equivalence-varied-ward-lah-explicit~scaling",
    ]
    flipped, clean, flipped_too = reports
    for report in (flipped, flipped_too):
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (6, 3)
    assert clean.passed and clean.counterexample is None
    assert clean.cases == 10 * 11 // 2


def test_a_fault_in_the_falling_entry_fails_only_the_alternating_sum(monkeypatch):
    # alternating-sum reads (n+k)!/k! from _CLOSED["falling"], explicit
    # states its own closed form and the partition transform reads only its
    # rule: with k! made (k+1)! there, the recurrence, explicit and the
    # transform refute alternating-sum from the first entry and still agree
    # with each other.
    monkeypatch.setitem(triangles._CLOSED, "falling", ((1, 1, 1, 0), (-1, 0, 1, 1)))
    routes = [Strategy.RECURRENCE, Strategy.EXPLICIT, Strategy.PARTITION_TRANSFORM, Strategy.ALTERNATING_SUM]
    reports = compare_routes(Kind.WARD_LAH, 8, routes)
    independent = [r for r in reports if "alternating-sum" not in r.name]
    faulty = [r for r in reports if "alternating-sum" in r.name]
    assert [r.name for r in independent] == [
        "equivalence-ward-lah-recurrence~explicit",
        "equivalence-ward-lah-recurrence~partition-transform",
        "equivalence-ward-lah-explicit~partition-transform",
    ]
    assert all(r.passed for r in independent)
    assert [r.name for r in faulty] == [
        "equivalence-ward-lah-recurrence~alternating-sum",
        "equivalence-ward-lah-explicit~alternating-sum",
        "equivalence-ward-lah-partition-transform~alternating-sum",
    ]
    for report in faulty:
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (1, 1)


def test_horizontal_wardlah_pass_and_onestep():
    assert ids.check_horizontal_wardlah(10).passed
    assert ids.check_triangular_wardlah_onestep(10).passed


def test_order3_wardlah():
    report = ids.check_order3_wardlah(20)
    assert report.passed
    # smallest case by hand: only the row n-1 term with coefficient 2n-1
    # survives, 3 * wardlah(1,1) = 6 = wardlah(2,1)
    e = ids.default_entry(Kind.WARD_LAH)
    rhs = 2 * 3 * e(1, 0) - 2 * 0 * e(0, 1) - (-3) * e(1, 1)
    assert rhs == e(2, 1) == 6


def test_order5_binomial_wardlah():
    assert ids.check_order5_binomial_wardlah(15).passed
    # n=2, k=2: the row n-2 block is killed by its (n-2) coefficient and the
    # rest reduces to 6 * (1 * e(1,1)) = 12
    e = ids.default_entry(Kind.BINOMIAL_WARD_LAH)
    rhs = Fraction(-4 * 0 * 9, 2) * (e(0, 0) - 2 * e(0, 1) + e(0, 2)) + Fraction(
        4 * 3, 2 * 1
    ) * ((2 * 1 - 1) * e(1, 1) + 2 * 1 * e(1, 2))
    assert rhs == e(2, 2) == 12


def test_triangular_checks_pass():
    assert ids.check_triangular_wardlah_weighted(15).passed
    assert ids.check_triangular_wardlah_integer(15).passed
    assert ids.check_triangular_varied_ward1(15).passed
    assert ids.check_triangular_varied_ward2(15).passed
    assert ids.check_triangular_varied_wardlah(15).passed
    assert ids.check_triangular_binomial_ward1(15).passed
    assert ids.check_triangular_binomial_ward2(15).passed
    assert ids.check_triangular_binomial_wardlah(15).passed


def test_binomial_triangular_skips_diagonal():
    report = ids.check_triangular_binomial_ward1(10)
    assert report.skipped == 10  # one diagonal tuple per row


@pytest.mark.parametrize(
    "check,with_diagonal",
    [
        (ids.check_horizontal_wardlah, True),
        (ids.check_horizontal_varied_wardlah, True),
        (ids.check_horizontal_binomial_wardlah, False),
    ],
    ids=["ward-lah", "varied-ward-lah", "binomial-ward-lah"],
)
def test_horizontal_case_counts_at_the_smallest_steps(check, with_diagonal):
    # m runs 1..n-1: max_n = 1 compares nothing, max_n = 2 compares row 2
    # through row 1 at m = 1 only, and max_n = 10 compares each k of row n
    # once per m (off the diagonal for the binomial kind, skipped once a row).
    none = check(1)
    assert none.passed and none.cases == 0 and none.skipped == 0
    one = check(2)
    assert one.passed and one.param_range.endswith("1<=m<=min(1,n-1)")
    assert one.cases == (2 if with_diagonal else 1)
    full = check(10)
    rows = range(2, 11)
    assert full.passed and full.skipped == (0 if with_diagonal else 9)
    assert full.cases == sum((n if with_diagonal else n - 1) * (n - 1) for n in rows)


def test_egf_guard_is_an_order_below_2k():
    for order in (6, 7):
        with pytest.raises(ValueError):
            ids.check_egf_wardlah(4, order)
    assert ids.check_egf_wardlah(4, 8).passed


def test_a_horizontal_weight_off_by_one_factorial_raises_rather_than_rounds(monkeypatch):
    # k!/(n+k+1)! for ward-lah's k!/(n+k)!: row p over (2p)! is no longer
    # integral, and the sweep refuses it instead of flooring it.
    name = "horizontal-ward-lah"
    f = [factorial(i) for i in range(8)]
    assert ids._CHECKS[name].weight(f, 3, 2) == (f[2], f[5])
    monkeypatch.setitem(ids._CHECKS, name, ids._CHECKS[name]._replace(weight=lambda f, n, k: (f[k], f[n + k + 1])))
    with pytest.raises(ExactnessError):
        ids.check_horizontal_wardlah(10)


def test_horizontal_varied_and_binomial_pass():
    assert ids.check_horizontal_varied_wardlah(12).passed
    assert ids.check_horizontal_binomial_wardlah(12).passed


def test_alternating_sum_equals_explicit_to_20():
    report = ids.check_alternating_sum_wardlah(20)
    assert report.passed
    assert report.cases == 20 * 21 // 2


def test_egf_wardlah():
    assert ids.check_egf_wardlah(1, 8).passed
    assert ids.check_egf_wardlah(2, 6).passed
    # k=1: the series is x^2 + x^3 + ..., all unit coefficients
    assert [0, 0] + ids._geometric(1, 6) == [0, 0, 1, 1, 1, 1, 1, 1, 1]
    # k=2 coefficient of x^4 is coefficient 0 of (1-x)^-2 over 2!, and
    # wardlah(2,2)/4! = 12/24
    assert Fraction(ids._geometric(2, 2)[0], factorial(2)) == Fraction(12, factorial(4)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        ids.check_egf_wardlah(3, 5)  # order below 2k


def test_gf_variedwardlah():
    assert ids.check_gf_variedwardlah(1, 8).passed
    assert ids.check_gf_variedwardlah(2, 8).passed
    # k=1 coefficients are all 1 from x/(1-x)
    e = ids.default_entry(Kind.VARIED_WARD_LAH)
    for n in range(1, 9):
        assert Fraction(e(n, 1), factorial(2 * n)) == 1
    # k=2, x^3: C(2,1) = 2 = variedwardlah(3,2)/6!
    assert Fraction(e(3, 2), factorial(6)) == 2
    with pytest.raises(ValueError):
        ids.check_gf_variedwardlah(5, 4)


def test_lah_variedwardlah():
    assert ids.check_lah_variedwardlah(12).passed
    e = ids.default_entry(Kind.VARIED_WARD_LAH)
    # n=2, k=1 by hand: 2 * lah(2,1) = 4 on both sides
    lhs = perm(2, 1) * lah(2, 1)
    rhs = comb(2, 1) * (comb(1, 0) * e(1, 0) + comb(1, 1) * e(1, 1))
    assert lhs == rhs == 4
    # n=k: empty rising factorial, both sides are lah(n,n) = 1
    assert perm(0, 0) * lah(4, 4) == 1
    assert comb(4, 4) * sum(comb(4, j) * e(0, j) for j in range(5)) == 1


def test_a_reference_sweep_compares_each_row_before_reading_the_next(monkeypatch):
    # Reading on past the first pair of row n + 1 finds row n compared, so
    # the sweep holds one row of pairs, not all of them.  The cases, their
    # order and the first counterexample are those of the whole list.
    compared, seen = [], []
    compare = ids._Sweep.compare

    def recorded(self, lhs, *rest):
        compared.extend(lhs)
        compare(self, lhs, *rest)

    monkeypatch.setattr(ids._Sweep, "compare", recorded)

    def pairs(kind, max_n):
        for n in range(1, max_n + 1):
            for k in range(1, n + 1):
                yield n, k, 10 * n + k, 10 * n + k + ((n, k) in {(3, 2), (4, 1)})
                if k == 1:
                    seen.append(len(compared))

    report = ids._Reference(Kind.WARD1, "1<=k<=n<={}", pairs).sweep("rows", 4)
    assert seen == [0, 1, 3, 6]
    assert compared == [10 * n + k for n in range(1, 5) for k in range(1, n + 1)]
    assert (report.cases, report.skipped, report.passed) == (10, 0, False)
    assert report.counterexample == ids.Counterexample(3, 2, 32, 33)


def test_conjecture_rowsums():
    r1 = ids.check_conjecture_rowsums_stirling(Kind.BINOMIAL_WARD1, 12)
    r2 = ids.check_conjecture_rowsums_stirling(Kind.BINOMIAL_WARD2, 12)
    assert r1.passed and r1.conjecture
    assert r2.passed and r2.conjecture
    # hand rows at n=2
    e1 = ids.default_entry(Kind.BINOMIAL_WARD1)
    e2 = ids.default_entry(Kind.BINOMIAL_WARD2)
    assert (e1(2, 1), e1(2, 2)) == (8, 3)  # sums to stirling1(4,2) = 11
    assert (e2(2, 1), e2(2, 2)) == (4, 3)  # sums to stirling2(4,2) = 7
    with pytest.raises(ValueError):
        ids.check_conjecture_rowsums_stirling(Kind.WARD1, 5)
    with pytest.raises(ValueError, match="binomial"):
        ids.rowsum_pairs(Kind.WARD1, 3)


def test_row_sums_read_the_classical_rows_from_one_stream():
    # The central numbers come from one stream of the classical triangle,
    # one row at a time, so the memo keeps no stirling1 table.
    triangles.clear_caches()
    try:
        pairs = ids.rowsum_pairs(Kind.BINOMIAL_WARD1, 30)
        assert ("stirling1", Strategy.RECURRENCE) not in triangles._cache
        assert [ref for *_, ref in pairs] == [triangles.central("stirling1", n) for n in range(31)]
    finally:
        triangles.clear_caches()


def test_a_flipped_central_number_fails_the_row_sum_check(flip_entry):
    # The stream is `triangles._rows`, the seam the fixture corrupts.
    flip_entry("lah", Strategy.RECURRENCE, 4, 2)
    c = ids.check_central_lah_rowsums(8).counterexample
    assert (c.n, c.k, c.lhs, c.rhs) == (2, 0, 36, 37)


def test_central_lah_rowsums():
    report = ids.check_central_lah_rowsums(20)
    assert report.passed and not report.conjecture
    e = ids.default_entry(Kind.BINOMIAL_WARD_LAH)
    assert e(1, 1) == 2 == lah(2, 1)
    assert e(2, 1) + e(2, 2) == 24 + 12 == lah(4, 2)


@pytest.mark.parametrize("max_n", [-1, 0, 1])
def test_run_identity_suite_refuses_a_range_with_vacuous_checks(max_n):
    # Below max-n 2 some checks would pass having compared no case.
    with pytest.raises(ValueError, match="at least 2"):
        ids.run_identity_suite(max_n)


def test_run_identity_suite_all_green():
    reports = ids.run_identity_suite(10)
    assert reports and all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert "horizontal-ward-lah" in names
    assert "order5-binomial-ward-lah" in names
    assert "egf-ward-lah-k8" in names


FAULT_CASES = [
    (lambda: ids.check_alternating_sum_wardlah(8), Kind.WARD_LAH, (5, 3)),
    (lambda: ids.check_triangular_wardlah_weighted(8), Kind.WARD_LAH, (6, 3)),
    (lambda: ids.check_triangular_wardlah_integer(8), Kind.WARD_LAH, (6, 3)),
    (lambda: ids.check_triangular_wardlah_onestep(8), Kind.WARD_LAH, (6, 3)),
    (lambda: ids.check_horizontal_wardlah(8), Kind.WARD_LAH, (6, 3)),
    (lambda: ids.check_order3_wardlah(8), Kind.WARD_LAH, (6, 3)),
    (lambda: ids.check_triangular_varied_ward1(8), Kind.VARIED_WARD1, (6, 3)),
    (lambda: ids.check_triangular_varied_ward2(8), Kind.VARIED_WARD2, (6, 3)),
    (lambda: ids.check_triangular_varied_wardlah(8), Kind.VARIED_WARD_LAH, (6, 3)),
    (lambda: ids.check_horizontal_varied_wardlah(8), Kind.VARIED_WARD_LAH, (6, 3)),
    (lambda: ids.check_triangular_binomial_ward1(8), Kind.BINOMIAL_WARD1, (6, 3)),
    (lambda: ids.check_triangular_binomial_ward2(8), Kind.BINOMIAL_WARD2, (6, 3)),
    (lambda: ids.check_triangular_binomial_wardlah(8), Kind.BINOMIAL_WARD_LAH, (6, 3)),
    (lambda: ids.check_horizontal_binomial_wardlah(8), Kind.BINOMIAL_WARD_LAH, (6, 3)),
    (lambda: ids.check_order5_binomial_wardlah(8), Kind.BINOMIAL_WARD_LAH, (6, 3)),
    (lambda: ids.check_egf_wardlah(2, 12), Kind.WARD_LAH, (4, 2)),
    (lambda: ids.check_gf_variedwardlah(2, 12), Kind.VARIED_WARD_LAH, (5, 2)),
    (lambda: ids.check_lah_variedwardlah(8), Kind.VARIED_WARD_LAH, (4, 2)),
    (lambda: ids.check_central_lah_rowsums(8), Kind.BINOMIAL_WARD_LAH, (5, 2)),
    (
        lambda: ids.check_conjecture_rowsums_stirling(Kind.BINOMIAL_WARD1, 8),
        Kind.BINOMIAL_WARD1,
        (5, 2),
    ),
]


@pytest.mark.parametrize("runner,kind,where", FAULT_CASES, ids=[str(i) for i in range(len(FAULT_CASES))])
def test_every_check_detects_injected_fault(flip_entry, runner, kind, where):
    assert runner().passed
    flip_entry(kind, triangles.reference_route(kind), *where)
    report = runner()
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.lhs != report.counterexample.rhs


# The first counterexample of each generating-function check under one
# flipped entry, as both report formats print it.
GF_COUNTEREXAMPLES = [
    (
        lambda: ids.check_egf_wardlah(2, 12), Kind.WARD_LAH, (4, 2),
        "FAIL egf-ward-lah-k2 [k=2, n<=12] cases=15 skipped=0"
        " counterexample: n=6 k=2 lhs=3/2 rhs=1081/720",
        "name=egf-ward-lah-k2 status=fail range=k=2,n<=12 cases=15 skipped=0"
        " conjecture=false n=6 k=2 lhs=3/2 rhs=1081/720",
    ),
    (
        lambda: ids.check_gf_variedwardlah(2, 12), Kind.VARIED_WARD_LAH, (5, 2),
        "FAIL gf-varied-ward-lah-k2 [k=2, n<=12] cases=13 skipped=0"
        " counterexample: n=5 k=2 lhs=4 rhs=14515201/3628800",
        "name=gf-varied-ward-lah-k2 status=fail range=k=2,n<=12 cases=13 skipped=0"
        " conjecture=false n=5 k=2 lhs=4 rhs=14515201/3628800",
    ),
]


@pytest.mark.parametrize("runner,kind,where,human,machine", GF_COUNTEREXAMPLES, ids=["egf", "ogf"])
def test_gf_counterexamples_are_pinned(flip_entry, runner, kind, where, human, machine):
    flip_entry(kind, triangles.reference_route(kind), *where)
    report = runner()
    assert report.human() == human
    assert report.machine() == machine


def test_report_serialization(flip_entry):
    good = ids.check_order3_wardlah(6)
    assert good.human().startswith("PASS order3-ward-lah")
    assert "status=pass" in good.machine()

    flip_entry(Kind.WARD_LAH, Strategy.EXPLICIT, 5, 2)
    bad = ids.check_order3_wardlah(8)
    human = bad.human()
    machine = bad.machine()
    assert human.startswith("FAIL order3-ward-lah")
    assert "counterexample: n=5 k=2" in human
    assert "status=fail" in machine and "n=5 k=2" in machine
    # machine format is strictly key=value tokens
    assert all("=" in token for token in machine.split())

    conj = ids.check_conjecture_rowsums_stirling(Kind.BINOMIAL_WARD2, 6)
    assert "(conjecture)" in conj.human()
    assert "conjecture=true" in conj.machine()


def test_horizontal_counterexample_carries_m(flip_entry):
    flip_entry(Kind.WARD_LAH, Strategy.EXPLICIT, 6, 3)
    report = ids.check_horizontal_wardlah(8)
    assert not report.passed
    assert report.counterexample.m is not None
    assert "m=" in report.human()


# Test-only oracles: the rational checks as they read before their
# denominators were cleared, one Fraction sum per tuple over entry calls,
# and direct sums for the integer ones.  They are typed out here and never
# read `triangles._RECURRENCE`, the statement that the builder runs and the
# checks read.  The integer checks must give the same verdict, counts and
# first counterexample.  Each oracle tallies its verdict one case at a time
# in a `_Tally`, which shares no code with `compare._Sweep`, the row
# comparison that the checks use.

class _Tally:
    """Cases and skips counted one at a time, and the first counterexample."""

    def __init__(self):
        self.cases = self.skipped = 0
        self.first = None

    def skip(self):
        self.skipped += 1

    def case(self, lhs, rhs, n, k, m=None):
        self.cases += 1
        if self.first is None and lhs != rhs:
            self.first = ids.Counterexample(n, k, lhs, rhs, m)

    def report(self):
        return ids.CheckReport("oracle", "", self.first is None, self.cases, self.skipped, counterexample=self.first)


def _oracle_two_term(rhs, skip=lambda n, k: False):
    def run(max_n, e):
        tally = _Tally()
        for n in range(1, max_n + 1):
            for k in range(1, n + 1):
                if skip(n, k):
                    tally.skip()
                    continue
                tally.case(Fraction(e(n, k)), rhs(e, n, k), n, k)
        return tally.report()

    return run


def _oracle_order5(max_n, e):
    tally = _Tally()
    for n in range(2, max_n + 1):
        for k in range(2, n + 1):
            rhs = Fraction(-4 * (n - 2) * (2 * n - 1) ** 2, n) * (
                e(n - 2, k - 2) - 2 * e(n - 2, k - 1) + e(n - 2, k)
            ) + Fraction(4 * (2 * n - 1), n * (2 * n - 3)) * (
                (2 * (n - 1) ** 2 - 1) * e(n - 1, k - 1) + 2 * (n - 1) ** 2 * e(n - 1, k)
            )
            tally.case(Fraction(e(n, k)), rhs, n, k)
    return tally.report()


def _oracle_order3(max_n, e):
    tally = _Tally()
    for n in range(2, max_n + 1):
        for k in range(1, n + 1):
            rhs = (
                2 * (2 * n - 1) * e(n - 1, k - 1)
                - n * (n - 2) * e(n - 2, k)
                - (-2 * n + 1) * e(n - 1, k)
            )
            tally.case(Fraction(e(n, k)), rhs, n, k)
    return tally.report()


def _oracle_alternating_sum(max_n, e):
    """sum_{m=1..k} (-1)^(m+k) C(n+k, n+m) L(n+m, m) against e(n, k), with
    the Lah numbers from their classical recurrence."""
    tally = _Tally()
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            lhs = sum(
                (-1) ** (m + k) * comb(n + k, n + m) * lah(n + m, m) for m in range(1, k + 1)
            )
            tally.case(lhs, e(n, k), n, k)
    return tally.report()


def _oracle_lah(max_n, e):
    """(n-k+1)^(n-k) L(n, k) against C(n, k) sum_j C(k, j) e(n-k, j), the
    rising factorial a product of its factors and the binomials factorial
    quotients."""
    tally = _Tally()
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            lhs = prod(range(n - k + 1, 2 * (n - k) + 1)) * lah(n, k)
            rhs = Fraction(factorial(n), factorial(k) * factorial(n - k)) * sum(
                Fraction(factorial(k), factorial(j) * factorial(k - j)) * e(n - k, j) for j in range(k + 1)
            )
            tally.case(lhs, rhs, n, k)
    return tally.report()


def _oracle_horizontal(term, prefactor, kk_min, kk_bounded, skip_diagonal=False):
    """rhs = prefactor(n, k) * sum_j C(m, j) * term(n - m, kk) * e(n - m, kk)."""

    def run(max_n, e):
        tally = _Tally()
        for n in range(2, max_n + 1):
            for k in range(1, n + 1):
                if skip_diagonal and n - k < 1:
                    tally.skip()
                    continue
                for m in range(1, n):
                    acc = Fraction(0)
                    for j in range(m + 1):
                        kk = k - j
                        if kk < kk_min or (kk_bounded and kk > n - m):
                            continue
                        acc += term(n - m, kk) * comb(m, j) * e(n - m, kk)
                    tally.case(Fraction(e(n, k)), prefactor(n, k) * acc, n, k, m)
        return tally.report()

    return run


F = factorial
# The checks that sweep a triangle entry by entry: the eleven stencils of
# `identities._CHECKS`, the alternating sum and the Lah identity.
SWEEP_ORACLES = {
    "alternating-sum-ward-lah": (
        ids.check_alternating_sum_wardlah, Kind.WARD_LAH, _oracle_alternating_sum,
    ),
    "triangular-ward-lah-weighted": (
        ids.check_triangular_wardlah_weighted, Kind.WARD_LAH,
        _oracle_two_term(
            lambda e, n, k: Fraction((n + k) * (n - 1), n)
            * (e(n - 1, k) + Fraction(n + k - 1, k - 1) * e(n - 1, k - 1)),
            skip=lambda n, k: k < 2,
        ),
    ),
    "triangular-ward-lah-integer": (
        ids.check_triangular_wardlah_integer, Kind.WARD_LAH,
        _oracle_two_term(
            lambda e, n, k: 2 * (n + k - 1) * e(n - 1, k - 1) + (n + 2 * k - 1) * e(n - 1, k)
        ),
    ),
    "triangular-ward-lah-onestep": (
        ids.check_triangular_wardlah_onestep, Kind.WARD_LAH,
        _oracle_two_term(
            lambda e, n, k: (n + k) * (e(n - 1, k) + Fraction(n + k - 1, k) * e(n - 1, k - 1))
        ),
    ),
    "triangular-varied-ward1": (
        ids.check_triangular_varied_ward1, Kind.VARIED_WARD1,
        _oracle_two_term(
            lambda e, n, k: Fraction(2 * n * (2 * n - 1), n + k)
            * ((n + k - 1) * e(n - 1, k) + k * e(n - 1, k - 1))
        ),
    ),
    "triangular-varied-ward2": (
        ids.check_triangular_varied_ward2, Kind.VARIED_WARD2,
        _oracle_two_term(
            lambda e, n, k: Fraction(2 * n * k * (2 * n - 1), n + k) * (e(n - 1, k) + e(n - 1, k - 1))
        ),
    ),
    "triangular-varied-ward-lah": (
        ids.check_triangular_varied_wardlah, Kind.VARIED_WARD_LAH,
        _oracle_two_term(lambda e, n, k: 2 * n * (2 * n - 1) * (e(n - 1, k) + e(n - 1, k - 1))),
    ),
    "triangular-binomial-ward1": (
        ids.check_triangular_binomial_ward1, Kind.BINOMIAL_WARD1,
        _oracle_two_term(
            lambda e, n, k: Fraction(2 * n * (2 * n - 1), n + k)
            * (Fraction(n + k - 1, n - k) * e(n - 1, k) + e(n - 1, k - 1)),
            skip=lambda n, k: n - k < 1,
        ),
    ),
    "triangular-binomial-ward2": (
        ids.check_triangular_binomial_ward2, Kind.BINOMIAL_WARD2,
        _oracle_two_term(
            lambda e, n, k: Fraction(2 * n * (2 * n - 1), n + k)
            * (Fraction(k, n - k) * e(n - 1, k) + e(n - 1, k - 1)),
            skip=lambda n, k: n - k < 1,
        ),
    ),
    "triangular-binomial-ward-lah": (
        ids.check_triangular_binomial_wardlah, Kind.BINOMIAL_WARD_LAH,
        _oracle_two_term(
            lambda e, n, k: 2 * n * (2 * n - 1)
            * (Fraction(e(n - 1, k), n - k) + Fraction(e(n - 1, k - 1), k)),
            skip=lambda n, k: n - k < 1,
        ),
    ),
    "order3-ward-lah": (ids.check_order3_wardlah, Kind.WARD_LAH, _oracle_order3),
    "order5-binomial-ward-lah": (
        ids.check_order5_binomial_wardlah, Kind.BINOMIAL_WARD_LAH, _oracle_order5,
    ),
    "lah-varied-ward-lah": (ids.check_lah_variedwardlah, Kind.VARIED_WARD_LAH, _oracle_lah),
}

HORIZONTAL_ORACLES = {
    "horizontal-ward-lah": (
        ids.check_horizontal_wardlah, Kind.WARD_LAH,
        _oracle_horizontal(
            lambda p, kk: Fraction(F(kk), F(p + kk)),
            lambda n, k: Fraction(F(n + k), F(k)),
            kk_min=1, kk_bounded=True,
        ),
    ),
    "horizontal-varied-ward-lah": (
        ids.check_horizontal_varied_wardlah, Kind.VARIED_WARD_LAH,
        _oracle_horizontal(
            lambda p, kk: Fraction(1, F(2 * p)),
            lambda n, k: F(2 * n),
            kk_min=0, kk_bounded=False,
        ),
    ),
    "horizontal-binomial-ward-lah": (
        ids.check_horizontal_binomial_wardlah, Kind.BINOMIAL_WARD_LAH,
        _oracle_horizontal(
            lambda p, kk: Fraction(F(kk) * F(p - kk), F(2 * p)),
            lambda n, k: Fraction(F(2 * n), F(k) * F(n - k)),
            kk_min=1, kk_bounded=True, skip_diagonal=True,
        ),
    ),
}

ALL_ORACLES = {**SWEEP_ORACLES, **HORIZONTAL_ORACLES}


def outcome(report):
    c = report.counterexample
    return report.passed, report.cases, report.skipped, c and (c.n, c.k, c.m, c.lhs, c.rhs)


@pytest.mark.parametrize("name", sorted(SWEEP_ORACLES))
def test_cleared_checks_match_fraction_oracles(name):
    check, kind, oracle = SWEEP_ORACLES[name]
    e = ids.default_entry(kind)
    for max_n in range(-1, 13):
        report = check(max_n)
        assert report.name == name
        assert outcome(report) == outcome(oracle(max_n, e))


@pytest.mark.parametrize("name", sorted(HORIZONTAL_ORACLES))
def test_horizontal_checks_match_fraction_oracles(name):
    check, kind, oracle = HORIZONTAL_ORACLES[name]
    e = ids.default_entry(kind)
    for max_n in range(-1, 13):
        report = check(max_n)
        assert report.name == name
        assert outcome(report) == outcome(oracle(max_n, e))


@pytest.mark.parametrize("name", sorted(ALL_ORACLES))
def test_flipped_entry_gives_the_oracles_first_counterexample(flip_entry, name):
    check, kind, oracle = ALL_ORACLES[name]
    caught = 0
    for n0 in range(11):
        for k0 in range(n0 + 1):
            flip_entry(kind, triangles.reference_route(kind), n0, k0)
            report, expected = check(10), oracle(10, ids.default_entry(kind))
            assert outcome(report) == outcome(expected), (n0, k0)
            if not report.passed:  # printed as before, too
                assert report.counterexample.fields() == expected.counterexample.fields()
                caught += 1
    assert caught > 0


def test_a_builder_recurrence_is_checked_by_both_guards(monkeypatch):
    # Double one coefficient of the single statement of varied-ward-lah's
    # recurrence: the route comparison and the identity check both fail.
    num, den = triangles._RECURRENCE[Kind.VARIED_WARD_LAH]
    monkeypatch.setitem(
        triangles._RECURRENCE, Kind.VARIED_WARD_LAH, (lambda n, k, a, b: num(n, k, a, 2 * b), den)
    )
    triangles.clear_caches()
    try:
        assert not compare_routes(Kind.VARIED_WARD_LAH, 8, [Strategy.RECURRENCE, Strategy.EXPLICIT])[0].passed
        assert not ids.check_triangular_varied_wardlah(8).passed
    finally:
        triangles.clear_caches()


# The first tuple each stencil check sweeps and does not skip, read off the
# stated ranges, with the public check that runs the stencil.
FIRST_SWEPT = {
    "triangular-ward-lah-weighted": (ids.check_triangular_wardlah_weighted, 2, 2),
    "triangular-ward-lah-integer": (ids.check_triangular_wardlah_integer, 1, 1),
    "triangular-ward-lah-onestep": (ids.check_triangular_wardlah_onestep, 1, 1),
    "order3-ward-lah": (ids.check_order3_wardlah, 2, 1),
    "triangular-varied-ward1": (ids.check_triangular_varied_ward1, 1, 1),
    "triangular-varied-ward2": (ids.check_triangular_varied_ward2, 1, 1),
    "triangular-varied-ward-lah": (ids.check_triangular_varied_wardlah, 1, 1),
    "triangular-binomial-ward1": (ids.check_triangular_binomial_ward1, 2, 1),
    "triangular-binomial-ward2": (ids.check_triangular_binomial_ward2, 2, 1),
    "triangular-binomial-ward-lah": (ids.check_triangular_binomial_wardlah, 2, 1),
    "order5-binomial-ward-lah": (ids.check_order5_binomial_wardlah, 2, 2),
}


def test_the_suite_reports_the_table_in_order():
    # Every non-conjecture entry once, in table order, and then the columns
    # of the generating-function entries, k by k.
    entries = {name: s for name, s in ids._CHECKS.items() if not getattr(s, "conjecture", False)}
    columns = [name for name, s in entries.items() if isinstance(s, ids._ColumnGF)]
    expected = [name for name in entries if name not in columns]
    expected += [f"{name}-k{k}" for k in range(1, ids.GF_MAX_K + 1) for name in columns]
    assert [r.name for r in ids.run_identity_suite(22)] == expected
    assert {name for name, s in ids._CHECKS.items() if isinstance(s, ids._Stencil)} == set(FIRST_SWEPT)
    conjectures = [ids.check_conjecture_rowsums_stirling(kind, 3).name
                   for kind in (Kind.BINOMIAL_WARD1, Kind.BINOMIAL_WARD2)]
    assert [name for name in ids._CHECKS if name not in entries] == conjectures


def _falsified(entry):
    """`entry` with one side of its statement off by one: a stencil's step
    gives num + den over den, one whole entry too many, and a horizontal
    weight gains the factor n + 1, which row p's factor p + 1 cannot match."""
    if isinstance(entry, ids._Stencil):
        def step(n, k, t):
            num, den = entry.step(n, k, t)
            return num + den, den

        return entry._replace(step=step)
    if isinstance(entry, ids._Horizontal):
        def weight(f, n, k):
            num, den = entry.weight(f, n, k)
            return num * (n + 1), den

        return entry._replace(weight=weight)
    if isinstance(entry, ids._ColumnGF):
        return entry._replace(scale=lambda k: entry.scale(k) + 1)
    return entry._replace(
        pairs=lambda kind, max_n: ((n, k, lhs, rhs + 1) for n, k, lhs, rhs in entry.pairs(kind, max_n))
    )


@pytest.mark.parametrize("name", sorted(FIRST_SWEPT))
def test_each_check_runs_its_stencil_table_entry(monkeypatch, name):
    # A step off by one whole entry (num + den over den) in the table fails
    # the public check at its first swept tuple, and nothing else changes.
    check, n, k = FIRST_SWEPT[name]
    clean = check(10)
    assert clean.passed and clean.name == name
    entry = ids._CHECKS[name]
    monkeypatch.setitem(ids._CHECKS, name, _falsified(entry))
    report = check(10)
    assert not report.passed
    assert (report.name, report.param_range, report.cases, report.skipped) == (
        clean.name, clean.param_range, clean.cases, clean.skipped
    )
    c = report.counterexample
    assert (c.n, c.k, c.m) == (n, k, None)
    assert c.rhs == c.lhs + 1 == triangles.value(entry.kind, n, k) + 1


def _suite_outcomes():
    return {r.name: (r.param_range, r.cases, r.skipped, r.passed) for r in ids.run_identity_suite(10)}


@pytest.mark.parametrize("name", list(ids._CHECKS))
def test_a_false_table_entry_fails_its_own_reports_and_no_other(monkeypatch, name):
    # A generating-function entry reports once per column; a conjecture
    # entry is run by its public check, not by the suite.
    clean, entry = _suite_outcomes(), ids._CHECKS[name]
    assert all(passed for *_, passed in clean.values())
    own = {f"{name}-k{k}" for k in range(1, ids.GF_MAX_K + 1)} if isinstance(entry, ids._ColumnGF) else {name}
    monkeypatch.setitem(ids._CHECKS, name, _falsified(entry))
    changed = _suite_outcomes()
    assert list(changed) == list(clean)
    for report, outcome in clean.items():
        if report in own:
            assert changed[report] == (*outcome[:3], False), report
        else:
            assert changed[report] == outcome, report
    if getattr(entry, "conjecture", False):
        assert name not in clean
        assert not ids.check_conjecture_rowsums_stirling(entry.kind, 10).passed
    else:
        assert own <= set(clean)


def test_the_suite_runs_each_check_through_its_module_attribute(monkeypatch):
    # A tracer rebinds the public checks and counts the reports they return,
    # so the suite must call the checks as the module binds them.
    returned = []
    for attr, check in list(vars(ids).items()):
        if attr.startswith("check_"):
            def counted(*args, check=check):
                returned.append(check(*args))
                return returned[-1]

            monkeypatch.setattr(ids, attr, counted)
    assert ids.run_identity_suite(4) == returned


def test_every_public_check_carries_its_own_name_and_a_docstring():
    checks = {attr: f for attr, f in vars(ids).items() if attr.startswith("check_")}
    assert len(checks) == 20
    for attr, check in checks.items():
        assert (check.__name__, check.__qualname__) == (attr, attr)
        assert check.__doc__ and check.__doc__.strip(), attr


IDENTITY_CASES = Path(__file__).parents[1] / "perfbench" / "identity_cases.json"


@pytest.mark.parametrize("max_n", [20, 22, 32, 39])
def test_identity_counts_match_the_recorded_ones(max_n):
    recorded = json.loads(IDENTITY_CASES.read_text())[str(max_n)]
    reports = ids.run_identity_suite(max_n)
    assert all(r.passed for r in reports)
    assert {r.name: [r.cases, r.skipped] for r in reports} == recorded


# Every check of the suite with the kind it reads and the route it sweeps
# itself, if any (the builder's recurrence, the alternating sum): an entry
# from that route would check the route against itself.
SUITE_CHECKS = [
    ("check_alternating_sum_wardlah", Kind.WARD_LAH, Strategy.ALTERNATING_SUM),
    ("check_triangular_wardlah_weighted", Kind.WARD_LAH, None),
    ("check_triangular_wardlah_integer", Kind.WARD_LAH, Strategy.RECURRENCE),
    ("check_triangular_wardlah_onestep", Kind.WARD_LAH, None),
    ("check_horizontal_wardlah", Kind.WARD_LAH, None),
    ("check_order3_wardlah", Kind.WARD_LAH, None),
    ("check_triangular_varied_ward1", Kind.VARIED_WARD1, Strategy.RECURRENCE),
    ("check_triangular_varied_ward2", Kind.VARIED_WARD2, Strategy.RECURRENCE),
    ("check_triangular_varied_wardlah", Kind.VARIED_WARD_LAH, Strategy.RECURRENCE),
    ("check_horizontal_varied_wardlah", Kind.VARIED_WARD_LAH, None),
    ("check_triangular_binomial_ward1", Kind.BINOMIAL_WARD1, Strategy.RECURRENCE),
    ("check_triangular_binomial_ward2", Kind.BINOMIAL_WARD2, Strategy.RECURRENCE),
    ("check_triangular_binomial_wardlah", Kind.BINOMIAL_WARD_LAH, Strategy.RECURRENCE),
    ("check_horizontal_binomial_wardlah", Kind.BINOMIAL_WARD_LAH, None),
    ("check_order5_binomial_wardlah", Kind.BINOMIAL_WARD_LAH, None),
    ("check_lah_variedwardlah", Kind.VARIED_WARD_LAH, None),
    ("check_central_lah_rowsums", Kind.BINOMIAL_WARD_LAH, None),
]
ROUTE_MAX_N = 20


def _other_routes(kind, own=None):
    skip = {triangles.reference_route(kind), own}
    return sorted(set(triangles.SUPPORTED[kind]) - skip, key=lambda s: s.value)


ROUTE_RUNS = [
    (name, (ROUTE_MAX_N,), kind, s)
    for name, kind, own in SUITE_CHECKS
    for s in _other_routes(kind, own)
] + [
    (name, (k, max(ROUTE_MAX_N, 2 * k)), kind, s)
    for name, kind in [("check_egf_wardlah", Kind.WARD_LAH),
                       ("check_gf_variedwardlah", Kind.VARIED_WARD_LAH)]
    for k in range(1, ids.GF_MAX_K + 1)
    for s in _other_routes(kind)
]


def test_the_route_runs_cover_the_suite():
    names = {getattr(ids, name)(2).name for name, _, _ in SUITE_CHECKS}
    assert names == {r.name for r in ids.run_identity_suite(2) if "gf-" not in r.name}


@pytest.mark.parametrize(
    "name,args,kind,strategy", ROUTE_RUNS,
    ids=[f"{name}{list(args)}-{s.value}" for name, args, _, s in ROUTE_RUNS],
)
def test_each_identity_holds_on_the_other_routes_of_its_kind(monkeypatch, name, args, kind, strategy):
    # The suite reads reference-route entries; the identity must hold just
    # as well on every other route of the kind.
    read, value = set(), ids.value
    monkeypatch.setattr(ids, "reference_route", lambda k: strategy)
    monkeypatch.setattr(ids, "value", lambda *a: read.add(a[3]) or value(*a))
    report = getattr(ids, name)(*args)
    assert report.passed, report.human()
    assert report.cases > 0
    assert read == {strategy}


def test_the_suite_builds_no_route_it_checks():
    # The suite reads reference-route entries (and the Lah numbers), so the
    # only recurrence table it fills is the classical Lah triangle's: none
    # for a kind whose recurrence it checks.  A scaling route steps its own
    # base recurrence and fills no table of its base.
    r = Strategy.RECURRENCE
    triangles.clear_caches()
    try:
        ids.run_identity_suite(12)
        built = set(triangles._cache)
    finally:
        triangles.clear_caches()
    assert {key for key in built if key[1] is r} == {("lah", r)}
    assert built == {
        ("lah", r),
        (Kind.VARIED_WARD1, Strategy.SCALING), (Kind.VARIED_WARD2, Strategy.SCALING),
        (Kind.BINOMIAL_WARD1, Strategy.SCALING), (Kind.BINOMIAL_WARD2, Strategy.SCALING),
        (Kind.WARD_LAH, Strategy.EXPLICIT), (Kind.WARD_LAH, Strategy.ALTERNATING_SUM),
        (Kind.VARIED_WARD_LAH, Strategy.EXPLICIT), (Kind.BINOMIAL_WARD_LAH, Strategy.EXPLICIT),
    }
