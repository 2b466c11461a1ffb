"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance zero everywhere), printing one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import itertools
import time
from fractions import Fraction
from math import perm
from pathlib import Path

from wardtri import bfile as bf
from wardtri import identities as ids
from wardtri.cli import main as cli_main
from wardtri.compare import compare_routes
from wardtri.partition_transform import partition_transform
from wardtri.streams import ward_first_kind, ward_second_kind
from wardtri.triangles import (
    SUPPORTED,
    Kind,
    Strategy,
    reference_route,
    stream,
    value,
)

FIXTURES = Path(__file__).parent / "fixtures"

ROWS = 60


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:02d} FAIL: {title}")
                raise
            print(f"[acceptance] criterion {num:02d} PASS: {title}")

        return wrapper

    return deco


@criterion(1, "strategy equivalence (n<=60)")
def test_criterion_01_strategy_equivalence():
    start = time.perf_counter()
    for kind in Kind:
        for a, b in itertools.combinations(
            sorted(SUPPORTED[kind], key=lambda s: s.value), 2
        ):
            (report,) = compare_routes(kind, ROWS, [a, b])
            assert report.passed, report.human()
    assert time.perf_counter() - start < 60


@criterion(2, "partition-transform calibration against both Ward recurrences")
def test_criterion_02_transform_calibration():
    for kind, rule in ((Kind.WARD1, ward_first_kind), (Kind.WARD2, ward_second_kind)):
        for n in range(1, 16):
            for k in range(1, n + 1):
                scaled = (
                    (-1) ** k
                    * perm(n + k, n)
                    * Fraction(*partition_transform(n, k, rule))
                )
                assert scaled == value(kind, n, k, Strategy.RECURRENCE), (kind, n, k)


@criterion(3, "alternating Lah sum equals ward-lah explicit formula (n<=20)")
def test_criterion_03_alternating_sum():
    report = ids.check_alternating_sum_wardlah(20)
    assert report.passed, report.human()
    assert report.cases == 210


@criterion(4, "all triangular/horizontal/order-3/order-5 recurrences (n<=30)")
def test_criterion_04_recurrences():
    reports = [
        ids.check_triangular_wardlah_weighted(30),
        ids.check_triangular_wardlah_integer(30),
        ids.check_triangular_wardlah_onestep(30),
        ids.check_horizontal_wardlah(30),
        ids.check_order3_wardlah(30),
        ids.check_triangular_varied_ward1(30),
        ids.check_triangular_varied_ward2(30),
        ids.check_triangular_varied_wardlah(30),
        ids.check_horizontal_varied_wardlah(30),
        ids.check_triangular_binomial_ward1(30),
        ids.check_triangular_binomial_ward2(30),
        ids.check_triangular_binomial_wardlah(30),
        ids.check_horizontal_binomial_wardlah(30),
        ids.check_order5_binomial_wardlah(30),
    ]
    for report in reports:
        assert report.passed, report.human()
        assert report.cases > 0


@criterion(5, "generating functions match coefficientwise (k<=8, order 24)")
def test_criterion_05_generating_functions():
    for k in range(1, 9):
        egf = ids.check_egf_wardlah(k, 24)
        ogf = ids.check_gf_variedwardlah(k, 24)
        assert egf.passed, egf.human()
        assert ogf.passed, ogf.human()


@criterion(6, "Lah identity and central-Lah row sums (n<=25)")
def test_criterion_06_lah_identities():
    lah_report = ids.check_lah_variedwardlah(25)
    central_report = ids.check_central_lah_rowsums(25)
    assert lah_report.passed, lah_report.human()
    assert central_report.passed, central_report.human()


@criterion(7, "central-Stirling row-sum conjectures hold as evidence (n<=15)")
def test_criterion_07_conjecture_evidence():
    for kind in (Kind.BINOMIAL_WARD1, Kind.BINOMIAL_WARD2):
        report = ids.check_conjecture_rowsums_stirling(kind, 15)
        assert report.conjecture
        # evidence: surface any disagreement verbatim rather than hiding it
        assert report.passed, f"conjecture evidence disagrees: {report.human()}"


@criterion(8, "committed b-file fixtures agree with an independent route")
def test_criterion_08_oeis_fixtures():
    sequences = {
        "b269939.txt": Kind.WARD2,
        "b269940.txt": Kind.WARD1,
        "b268437.txt": Kind.VARIED_WARD2,
        "b268438.txt": Kind.VARIED_WARD1,
        "b268439.txt": Kind.BINOMIAL_WARD1,
        "b268440.txt": Kind.BINOMIAL_WARD2,
        "b357367.txt": Kind.WARD_LAH,
    }
    for name, kind in sequences.items():
        fixture = bf.parse_bfile((FIXTURES / name).read_text())
        assert fixture.offset == 1
        # fixtures were generated by the partition-transform route; compare
        # against the recurrence so the agreement crosses code paths
        generated = bf.linearize(stream(kind, Strategy.RECURRENCE))
        assert tuple(itertools.islice(generated, len(fixture.values))) == fixture.values, name


@criterion(9, "any single flipped entry with n<=10 is caught, naming its row")
def test_criterion_09_fault_injection(flip_entry):
    for kind in Kind:
        routes = [Strategy.RECURRENCE, reference_route(kind)]
        for n0 in range(11):
            for k0 in range(n0 + 1):
                flip_entry(kind, Strategy.RECURRENCE, n0, k0)
                (report,) = compare_routes(kind, 10, routes)
                assert not report.passed, (kind, n0, k0)
                assert report.counterexample.n == n0, (kind, n0, k0)
                assert report.counterexample.k == k0, (kind, n0, k0)


@criterion(10, "200-row ward-lah recurrence bench under 10 s, bit length reported")
def test_criterion_10_bench(capsys):
    start = time.perf_counter()
    code = cli_main(
        ["bench", "--kind", "ward-lah", "--rows", "200", "--strategies", "recurrence"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 10
    header, row = out.splitlines()
    assert "max_bits" in header
    fields = row.split()
    assert fields[0] == "ward-lah" and fields[1] == "recurrence"
    assert int(fields[3]) == 201 * 202 // 2
    assert int(fields[4]) > 1000  # 400!/200! needs ~1600 bits
    assert float(fields[5]) < 10
