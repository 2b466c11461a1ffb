import decimal
import functools
import itertools
import random
import sys
import threading
from decimal import Decimal
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardtri import cli, triangles
from wardtri.exact_arith import ExactnessError, exact_div
from wardtri.partition_transform import partition_transform, ward_second_kind
from wardtri.triangles import (
    SUPPORTED,
    Base,
    Kind,
    Strategy,
    UnsupportedStrategyError,
    central,
    clear_caches,
    lah,
    reference_route,
    stirling1_unsigned,
    stirling2,
    stream,
    triangle,
    value,
)

ALL_KINDS = list(Kind)
LAH_FAMILY = (Kind.WARD_LAH, Kind.VARIED_WARD_LAH, Kind.BINOMIAL_WARD_LAH)

R, E, P, S, A = (
    Strategy.RECURRENCE,
    Strategy.EXPLICIT,
    Strategy.PARTITION_TRANSFORM,
    Strategy.SCALING,
    Strategy.ALTERNATING_SUM,
)
# The routes of each kind and the route it is checked against, written out
# by hand: the oracle for what `triangles` derives from SPEC.
HAND_WRITTEN_ROUTES = {
    Kind.WARD1: ({R, P}, P),
    Kind.WARD2: ({R, P}, P),
    Kind.WARD_LAH: ({R, E, P, A}, E),
    Kind.VARIED_WARD1: ({R, P, S}, S),
    Kind.VARIED_WARD2: ({R, P, S}, S),
    Kind.VARIED_WARD_LAH: ({R, E, P, S}, E),
    Kind.BINOMIAL_WARD1: ({R, P, S}, S),
    Kind.BINOMIAL_WARD2: ({R, P, S}, S),
    Kind.BINOMIAL_WARD_LAH: ({R, E, P, S}, E),
}


def test_value_examples():
    assert value(Kind.WARD1, 3, 2, Strategy.RECURRENCE) == 20
    assert [value(Kind.WARD_LAH, n, 1, Strategy.EXPLICIT) for n in range(1, 6)] == [
        2,
        6,
        24,
        120,
        720,
    ]
    assert value(Kind.VARIED_WARD_LAH, 4, 4, Strategy.EXPLICIT) == 40320
    assert value(Kind.BINOMIAL_WARD2, 2, 1, Strategy.SCALING) == 4
    assert value(Kind.WARD_LAH, 0, 0, Strategy.ALTERNATING_SUM) == 1


def test_triangle_examples():
    assert triangle(Kind.WARD2, 3, Strategy.RECURRENCE).rows == (
        (1,),
        (0, 1),
        (0, 1, 3),
        (0, 1, 10, 15),
    )
    assert triangle(Kind.WARD1, 0, Strategy.RECURRENCE).rows == ((1,),)
    # row 2 entry k=1: 4!/(1!*1!) * C(1,0) = 24; cross-checked below by
    # scaling C(4,3) * wardlah(2,1) = 4*6 and by the partition transform
    assert triangle(Kind.BINOMIAL_WARD_LAH, 2, Strategy.EXPLICIT).rows == (
        (1,),
        (0, 2),
        (0, 24, 12),
    )
    assert value(Kind.BINOMIAL_WARD_LAH, 2, 1, Strategy.SCALING) == 24
    assert value(Kind.BINOMIAL_WARD_LAH, 2, 1, Strategy.PARTITION_TRANSFORM) == 24


def test_boundaries_and_degenerate_lookups():
    for kind in ALL_KINDS:
        for strategy in SUPPORTED[kind]:
            assert value(kind, 0, 0, strategy) == 1
            assert value(kind, 4, 0, strategy) == 0
            assert value(kind, 3, 5, strategy) == 0
            assert value(kind, 2, -1, strategy) == 0


def test_unsupported_strategy_rejected_before_compute():
    for kind in ALL_KINDS:
        for strategy in set(Strategy) - SUPPORTED[kind]:
            with pytest.raises(UnsupportedStrategyError):
                value(kind, 3, 2, strategy)
            with pytest.raises(UnsupportedStrategyError):
                triangle(kind, 3, strategy)
    # a name where a member belongs is refused by name, not by a crash
    for call, given in [
        (lambda: value(Kind.WARD1, 3, 2, "recurrence"), "'recurrence'"),
        (lambda: stream(Kind.WARD1, "explicit"), "'explicit'"),
        (lambda: value("ward1", 3, 2), "'ward1'"),
    ]:
        with pytest.raises(UnsupportedStrategyError, match=given):
            call()


def test_strategy_table_shape():
    assert SUPPORTED[Kind.WARD1] == {
        Strategy.RECURRENCE,
        Strategy.PARTITION_TRANSFORM,
    }
    assert Strategy.ALTERNATING_SUM in SUPPORTED[Kind.WARD_LAH]
    for kind in ALL_KINDS:
        assert Strategy.RECURRENCE in SUPPORTED[kind]
        assert (Strategy.EXPLICIT in SUPPORTED[kind]) == (kind in LAH_FAMILY)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_routes_follow_from_spec(kind):
    routes, reference = HAND_WRITTEN_ROUTES[kind]
    assert SUPPORTED[kind] == routes
    assert reference_route(kind) == reference


@settings(deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(min_value=1, max_value=150), st.data())
def test_every_route_agrees_at_random_entries(kind, n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    values = {s: value(kind, n, k, s) for s in SUPPORTED[kind]}
    assert len(set(values.values())) == 1, values


# The per-entry formulas the row builders used before they formed their
# per-row parts once: test-only oracles for the rewritten rows.
ORACLE_ROWS = 120
RESCALED = [kind for kind in ALL_KINDS if S in SUPPORTED[kind]]


def _oracle_factor(rescaling, n, k):
    if rescaling is triangles.Rescaling.VARIED:
        return perm(2 * n, n - k) * factorial(k)
    if rescaling is triangles.Rescaling.BINOMIAL:
        return comb(2 * n, n + k)
    return 1


_ORACLE_EXPLICIT = {  # the README's closed forms, one entry at a time
    Kind.WARD_LAH: lambda n, k: exact_div(factorial(n + k), factorial(k)) * comb(n - 1, k - 1),
    Kind.VARIED_WARD_LAH: lambda n, k: factorial(2 * n) * comb(n - 1, k - 1),
    Kind.BINOMIAL_WARD_LAH: lambda n, k: exact_div(factorial(2 * n), factorial(k) * factorial(n - k))
    * comb(n - 1, k - 1),
}


def _oracle_rows(entry):
    return tuple((1,) if n == 0 else (0, *(entry(n, k) for k in range(1, n + 1)))
                 for n in range(ORACLE_ROWS + 1))


def test_alternating_sum_equals_the_signed_lah_sum():
    def signed_sum(n, k):
        return sum((-1) ** (m + k) * comb(n + k, n + m) * lah(n + m, m) for m in range(1, k + 1))

    assert triangle(Kind.WARD_LAH, ORACLE_ROWS, A).rows == _oracle_rows(signed_sum)


@pytest.mark.parametrize("rescaling", list(triangles.Rescaling), ids=lambda r: r.value)
def test_rescaling_factors_equal_the_per_entry_factor(rescaling):
    for n in range(ORACLE_ROWS + 1):
        assert rescaling.factors(n) == [_oracle_factor(rescaling, n, k) for k in range(n + 1)], n


@pytest.mark.parametrize("kind", RESCALED, ids=lambda kind: kind.value)
def test_scaling_route_equals_the_per_entry_factor_times_the_base(kind):
    base, rescaling = triangles.SPEC[kind]
    base_rows = triangle(base.kind, ORACLE_ROWS, R).rows
    expected = _oracle_rows(lambda n, k: _oracle_factor(rescaling, n, k) * base_rows[n][k])
    assert triangle(kind, ORACLE_ROWS, S).rows == expected


@pytest.mark.parametrize("kind", LAH_FAMILY, ids=lambda kind: kind.value)
def test_explicit_route_equals_the_readme_closed_form(kind):
    assert triangle(kind, ORACLE_ROWS, E).rows == _oracle_rows(_ORACLE_EXPLICIT[kind])


def test_the_closed_forms_and_the_transform_read_no_recurrence(monkeypatch):
    # With `_RECURRENCE` empty the recurrence route cannot build, and every
    # route that reads no recurrence row still gives its rows.
    routes = [(kind, P) for kind in ALL_KINDS] + [(kind, E) for kind in LAH_FAMILY] + [(Kind.WARD_LAH, A)]
    expected = {route: tuple(itertools.islice(stream(*route), 13)) for route in routes}
    for key in list(triangles._RECURRENCE):
        monkeypatch.delitem(triangles._RECURRENCE, key)
    clear_caches()
    try:
        with pytest.raises(KeyError):
            value(Kind.WARD_LAH, 3, 2, R)
        assert {(kind, s): triangle(kind, 12, s).rows for kind, s in routes} == expected
    finally:
        clear_caches()


def test_stepped_refuses_an_inexact_ratio():
    assert triangles._stepped(3, [(4, 2), (5, 3)]) == [3, 6, 10]
    with pytest.raises(ExactnessError):
        triangles._stepped(1, [(1, 2)])


def test_a_perturbed_running_product_step_is_not_rounded(monkeypatch):
    # Off by one after each division by 2, as in the k = 1 step of the
    # explicit ward-lah row, by (n+2)(n-1)/(2*1): at n = 4 the k = 2 step
    # then divides T(4, 2) + 1 = 1081 times 7*2 by 3*2, which is inexact, so
    # the build raises rather than rounding.
    real = triangles.exact_div
    monkeypatch.setattr(triangles, "exact_div", lambda a, b: real(a, b) + (b == 2))
    clear_caches()
    try:
        with pytest.raises(ExactnessError):
            triangle(Kind.WARD_LAH, 6, E)
    finally:
        clear_caches()


def test_rational_recurrence_rejects_a_perturbed_row():
    rows = list(triangle(Kind.BINOMIAL_WARD1, 3).rows)
    assert triangles._recurrence_row(Kind.BINOMIAL_WARD1, 3, rows[2], 1) == rows[3]
    perturbed = (0, rows[2][1] + 1, rows[2][2])  # T(2,1) + 1
    with pytest.raises(ExactnessError):
        triangles._recurrence_row(Kind.BINOMIAL_WARD1, 3, perturbed, 1)


def test_transform_route_refuses_a_non_integral_value(monkeypatch):
    # Row 1's only entry is H / Lambda_2 from the row's one pair (H, Lambda_2):
    # an integral quotient collapses to an int, and a non-integral one
    # raises rather than being rounded.  The route reads `grow` from the
    # module `partition_transform` (not the package's function of that name)
    # at each row.
    module = sys.modules["wardtri.partition_transform"]
    clear_caches()
    try:
        monkeypatch.setattr(module, "grow", lambda table, n: [(6, 2)])
        _, entry = triangle(Kind.WARD2, 1, P).rows[1]
        assert entry == 3 and type(entry) is int
        clear_caches()
        monkeypatch.setattr(module, "grow", lambda table, n: [(1, 2)])
        with pytest.raises(ExactnessError):
            triangle(Kind.WARD2, 1, P)
    finally:
        clear_caches()


@pytest.mark.parametrize(
    "binom_kind,base",
    [
        (Kind.BINOMIAL_WARD1, Kind.WARD1),
        (Kind.BINOMIAL_WARD2, Kind.WARD2),
        (Kind.BINOMIAL_WARD_LAH, Kind.WARD_LAH),
    ],
)
def test_binomial_recurrence_builds_its_diagonal_without_the_base(binom_kind, base):
    # The diagonal is the base's step from T(n-1, n-1): no base row is built.
    clear_caches()
    try:
        rows = triangle(binom_kind, 40, Strategy.RECURRENCE).rows
        assert (base, Strategy.RECURRENCE) not in triangles._cache
        base_rows = triangle(base, 40, Strategy.RECURRENCE).rows
        assert [row[-1] for row in rows] == [row[-1] for row in base_rows]
    finally:
        clear_caches()


def test_negative_rows_rejected():
    with pytest.raises(ValueError):
        triangle(Kind.WARD1, -1, Strategy.RECURRENCE)


@pytest.mark.parametrize(
    "kind,strategy",
    [(kind, s) for kind in ALL_KINDS for s in sorted(SUPPORTED[kind], key=lambda s: s.value)],
    ids=lambda x: x.value,
)
def test_stream_rows_equal_the_memo_rows(kind, strategy):
    rows = 16 if strategy is P else 40
    assert tuple(itertools.islice(stream(kind, strategy), rows + 1)) == triangle(kind, rows, strategy).rows


EXACT_ROUTES = [(kind, s) for kind in ALL_KINDS for s in sorted(SUPPORTED[kind] - {P}, key=lambda s: s.value)]


@functools.lru_cache(maxsize=None)
def _int_rows_as_text(kind, strategy, rows):
    return [list(map(str, row)) for row in itertools.islice(stream(kind, strategy), rows + 1)]


def _gen(capsys, kind, strategy, rows):
    """The rows that `wardtri gen --format table` reads from its route, and
    its output: rows 0..`rows` of (kind, strategy), recorded as `_rows`
    yields them (a scaling route's base rows are left out)."""
    read, real = [], triangles._rows

    def recorded(*args):
        for row in real(*args):
            if args[:2] == (kind, strategy):
                read.append(row)
            yield row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triangles, "_rows", recorded)
        code = cli.main(["gen", "--kind", kind.value, "--strategy", strategy.value, "--rows", str(rows)])
    assert code == 0
    return read, capsys.readouterr().out


def _as_table(rows):
    return "".join(" ".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("caller_prec", [None, 5])
@pytest.mark.parametrize("kind,strategy", EXACT_ROUTES, ids=lambda x: x.value)
def test_decimal_rows_equal_the_int_stream_as_text(capsys, kind, strategy, caller_prec):
    # gen prints these rows: every entry past the k = 0 column is a Decimal,
    # equal as text to the int route, and a caller's own context (here one
    # that rounds at 5 digits) cannot round a row.
    with decimal.localcontext() as context:
        if caller_prec is not None:
            context.prec = caller_prec
        rows, out = _gen(capsys, kind, strategy, 150)
    assert isinstance(rows[0][0], Decimal)
    assert all(isinstance(v, Decimal) for row in rows[1:] for v in row[1:])
    assert out == _as_table(_int_rows_as_text(kind, strategy, 150))


@pytest.mark.parametrize("one", [1, Decimal(1)], ids=["int", "Decimal"])
def test_stepped_row_products_take_the_type_of_their_seed(one):
    # A Decimal row times an int factor would convert the factor to decimal
    # at every entry, a cost quadratic in its length.
    for n in (1, 6):
        for products in (*(r.factors(n, one) for r in triangles.Rescaling),
                         *(triangles._closed_row(terms, n, one, 1) for terms in triangles._CLOSED.values())):
            assert {type(v) for v in products} == {type(one)}


def test_every_decimal_step_runs_in_the_trapping_context(monkeypatch):
    steps = []

    def recording(step):
        def recorded(*args):
            row = step(*args)
            steps.append((decimal.getcontext(), row))
            return row

        return recorded

    # A scaling route steps both its own rows and its base's recurrence,
    # and both compute in Decimal.
    for strategy in (S, R):
        monkeypatch.setitem(triangles._STEP, strategy, recording(triangles._STEP[strategy]))
    assert cli.main(["gen", "--kind", "varied-ward1", "--strategy", "scaling", "--rows", "3"]) == 0
    traps = (decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow)
    assert len(steps) == 6
    for context, row in steps:
        assert (context.prec, context.Emax, context.Emin) == (decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN)
        assert all(context.traps[trap] for trap in traps)
        assert {type(v) for v in row[1:]} == {decimal.Decimal}


def test_a_remainder_raises_through_the_decimal_rows_as_through_the_stream(monkeypatch):
    num, _ = triangles._RECURRENCE[Kind.VARIED_WARD1]
    monkeypatch.setitem(triangles._RECURRENCE, Kind.VARIED_WARD1, (num, lambda n, k: 7))
    with pytest.raises(ExactnessError):
        list(itertools.islice(stream(Kind.VARIED_WARD1, R), 4))
    with pytest.raises(ExactnessError):
        cli.main(["gen", "--kind", "varied-ward1", "--strategy", "recurrence", "--rows", "3"])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda x: x.value)
def test_decimal_rows_of_the_transform_are_ints(capsys, kind):
    rows, out = _gen(capsys, kind, P, 6)
    assert all(type(v) is int for row in rows for v in row)
    assert rows == list(itertools.islice(stream(kind, P), 7))
    assert out == _as_table(_int_rows_as_text(kind, P, 6))


def test_stream_neither_fills_nor_reads_the_memo():
    clear_caches()
    try:
        assert len(list(itertools.islice(stream(Kind.VARIED_WARD1, S), 10))) == 10
        assert triangles._cache == {}
        # a wrong memo row is not what the stream yields
        expected = triangle(Kind.WARD2, 5).rows
        triangles._cache[Kind.WARD2, R][3] = (0, 0, 0, 0)
        assert tuple(itertools.islice(stream(Kind.WARD2), 6)) == expected
    finally:
        clear_caches()


@pytest.mark.parametrize("kind,strategy", [(Kind.WARD2, R), (Kind.VARIED_WARD1, S)], ids=["recurrence", "scaling"])
def test_a_step_that_raises_once_leaves_the_memo_usable(monkeypatch, kind, strategy):
    # The recurrence step (scaling's, through its base) fails once, at row 5:
    # the memo drops that table's rows and finished generator, and the next
    # lookup starts over.
    clear_caches()
    expected = triangle(kind, 8, strategy).rows
    step, failed = triangles._STEP[R], []

    def fails_once(kind, n, source, one):
        if n == 5 and not failed:
            failed.append(n)
            raise RuntimeError("step failed")
        return step(kind, n, source, one)

    monkeypatch.setitem(triangles._STEP, R, fails_once)
    clear_caches()
    try:
        assert value(kind, 3, 2, strategy) == expected[3][2]
        with pytest.raises(RuntimeError):
            value(kind, 6, 3, strategy)
        assert (kind, strategy) not in triangles._cache
        assert value(kind, 6, 3, strategy) == expected[6][3]
        assert triangle(kind, 8, strategy).rows == expected
    finally:
        clear_caches()


def test_stream_refuses_an_unsupported_route_at_once():
    with pytest.raises(UnsupportedStrategyError):
        stream(Kind.WARD1, E)


def test_all_strategies_agree_small():
    for kind in ALL_KINDS:
        tables = {
            s: triangle(kind, 8, s).rows for s in SUPPORTED[kind]
        }
        for a, b in itertools.combinations(tables, 2):
            assert tables[a] == tables[b], (kind, a, b)


def test_ward_recurrences_hold_to_60():
    w1 = triangle(Kind.WARD1, 60, Strategy.RECURRENCE)
    w2 = triangle(Kind.WARD2, 60, Strategy.RECURRENCE)
    for n in range(1, 61):
        p1, p2 = (*w1.rows[n - 1], 0), (*w2.rows[n - 1], 0)  # T(n-1, n) = 0
        for k in range(1, n + 1):
            assert w1.rows[n][k] == (n + k - 1) * (p1[k] + p1[k - 1])
            assert w2.rows[n][k] == k * p2[k] + (n + k - 1) * p2[k - 1]


def test_diagonals_are_double_factorials():
    # both Ward kinds have T(n,n) = (2n-1)!! by their recurrences
    expected = 1
    for n in range(1, 20):
        expected *= 2 * n - 1
        assert value(Kind.WARD1, n, n) == expected
        assert value(Kind.WARD2, n, n) == expected


@pytest.mark.parametrize(
    "varied,base",
    [
        (Kind.VARIED_WARD1, Kind.WARD1),
        (Kind.VARIED_WARD2, Kind.WARD2),
        (Kind.VARIED_WARD_LAH, Kind.WARD_LAH),
    ],
)
def test_varied_scaling_relation(varied, base):
    for n in range(41):
        for k in range(n + 1):
            lhs = value(varied, n, k) * perm(n + k, n)
            rhs = factorial(2 * n) * value(base, n, k)
            assert lhs == rhs, (n, k)


@pytest.mark.parametrize(
    "binom_kind,base",
    [
        (Kind.BINOMIAL_WARD1, Kind.WARD1),
        (Kind.BINOMIAL_WARD2, Kind.WARD2),
        (Kind.BINOMIAL_WARD_LAH, Kind.WARD_LAH),
    ],
)
def test_binomial_scaling_relation(binom_kind, base):
    for n in range(41):
        for k in range(n + 1):
            lhs = value(binom_kind, n, k) * factorial(n + k) * factorial(n - k)
            rhs = factorial(2 * n) * value(base, n, k)
            assert lhs == rhs, (n, k)


def test_special_value_columns():
    for n in range(1, 31):
        assert value(Kind.WARD_LAH, n, n) == exact_div(factorial(2 * n), factorial(n))
        assert value(Kind.VARIED_WARD_LAH, n, 1) == factorial(2 * n)
        assert value(Kind.VARIED_WARD_LAH, n, n) == factorial(2 * n)
        assert value(Kind.BINOMIAL_WARD_LAH, n, 1) == exact_div(
            factorial(2 * n), factorial(n - 1)
        )
    for n in range(2, 31):
        assert value(Kind.WARD_LAH, n, n - 1) == exact_div(
            factorial(2 * n - 1), factorial(n - 2)
        )
        assert value(Kind.VARIED_WARD_LAH, n, n - 1) == (n - 1) * factorial(2 * n)
        assert value(Kind.BINOMIAL_WARD_LAH, n, n - 1) == exact_div(
            factorial(2 * n), factorial(n - 2)
        )


def test_entries_nonnegative():
    for kind in ALL_KINDS:
        tri = triangle(kind, 20, Strategy.RECURRENCE)
        assert all(v >= 0 for row in tri.rows for v in row), kind


def test_triangle_entry_bounds():
    tri = triangle(Kind.WARD2, 5, Strategy.RECURRENCE)
    assert [len(row) for row in tri.rows] == [1, 2, 3, 4, 5, 6]  # k = 0..n
    assert tri.rows[3][2] == 10


def test_stirling_and_lah_values():
    assert stirling1_unsigned(4, 2) == 11
    assert stirling2(4, 2) == 7
    assert lah(2, 1) == 2
    assert stirling1_unsigned(0, 0) == stirling2(0, 0) == lah(0, 0) == 1
    assert stirling1_unsigned(3, 5) == stirling2(3, 5) == lah(3, 5) == 0


def test_classical_triangles_grow_in_the_shared_cache():
    # Rows 0..2n of the classical triangle, in the cache the kinds use.
    clear_caches()
    assert central("lah", 3) == 1200
    assert len(triangles._cache[("lah", Strategy.RECURRENCE)]) == 7
    clear_caches()
    assert ("lah", Strategy.RECURRENCE) not in triangles._cache
    # A boundary entry, as in `value`, makes no row.
    for lookup in (stirling1_unsigned, stirling2, lah):
        assert lookup(60, 0) == 0
        assert lookup(0, 0) == 1
    for name in ("stirling1", "stirling2", "lah"):
        assert central(name, 0) == 1
    assert triangles._cache == {}


def test_lah_matches_explicit_formula():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert lah(n, k) == exact_div(factorial(n), factorial(k)) * comb(
                n - 1, k - 1
            )


def test_stirling_row_sums():
    # cycle numbers sum to n!, set numbers to the Bell numbers
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(9):
        assert sum(stirling1_unsigned(n, k) for k in range(n + 1)) == factorial(n)
        assert sum(stirling2(n, k) for k in range(n + 1)) == bell[n]


def test_central_values():
    assert central("lah", 1) == 2
    assert central("stirling2", 1) == 1
    assert central("stirling1", 2) == 11
    assert central("stirling2", 3) == stirling2(6, 3)
    # n = 0..6, written out by hand: c(2n, n), S(2n, n) and
    # L(2n, n) = C(2n-1, n-1) (2n)!/n!
    expected = {
        "stirling1": [1, 1, 11, 225, 6769, 269325, 13339535],
        "stirling2": [1, 1, 7, 90, 1701, 42525, 1323652],
        "lah": [1, 2, 36, 1200, 58800, 3810240, 307359360],
    }
    for name, values in expected.items():
        assert [central(name, n) for n in range(7)] == values
    with pytest.raises(ValueError):
        central("bell", 2)
    with pytest.raises(ValueError):
        central("lah", -1)



def _run_in_threads(tasks):
    """Results of the callables in `tasks`, each run in its own thread, all
    at once, with a short switch interval so that unsynchronised growth of
    a shared cache shows."""
    results, errors = [None] * len(tasks), []

    def worker(i):
        try:
            results[i] = tasks[i]()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(len(tasks))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    return results


@pytest.mark.parametrize(
    "kind,strategy,rows",
    [
        (Kind.VARIED_WARD1, Strategy.SCALING, 60),
        (Kind.BINOMIAL_WARD2, Strategy.RECURRENCE, 60),
        (Kind.WARD2, Strategy.PARTITION_TRANSFORM, 30),
    ],
)
def test_concurrent_cold_builds_match_a_serial_build(kind, strategy, rows):
    clear_caches()
    expected = triangle(kind, rows, strategy).rows
    for _ in range(3):
        clear_caches()
        results = _run_in_threads([lambda: triangle(kind, rows, strategy).rows] * 8)
        assert results == [expected] * 8


def test_concurrent_classical_builds_match_a_serial_build():
    def table():
        return [(stirling1_unsigned(n, k), stirling2(n, k), lah(n, k)) for n in range(80) for k in range(n + 1)]

    clear_caches()
    expected = table()
    for _ in range(3):
        clear_caches()
        assert _run_in_threads([table] * 8) == [expected] * 8


def test_the_transform_routes_of_a_base_share_one_table():
    # ward1, varied-ward1 and binomial-ward1 read one table, in the memo
    # and streamed; clear_caches drops it.
    clear_caches()
    try:
        triangle(Kind.WARD1, 12, P)
        table = triangles._tables[Base.WARD1]
        triangle(Kind.VARIED_WARD1, 14, P)
        assert len(list(itertools.islice(stream(Kind.BINOMIAL_WARD1, P), 17))) == 17
        assert list(triangles._tables) == [Base.WARD1] and triangles._tables[Base.WARD1] is table
        assert len(table.cols) == 17  # cols[0], then columns 1..16 of rows 1..16
        clear_caches()
        assert triangles._tables == {}
    finally:
        clear_caches()


def test_concurrent_transform_table_growth_matches_a_serial_build():
    # Threads read the values of ward1's three transform routes, each in an
    # order of its own, half of them first building one route to a row of
    # its own: ward1's one table grows from all of them at once.
    kinds = (Kind.WARD1, Kind.VARIED_WARD1, Kind.BINOMIAL_WARD1)
    cells = [(kind, n, k) for kind in kinds for n in range(25) for k in range(n + 2)]
    clear_caches()
    expected = {cell: value(*cell, P) for cell in cells}

    def evaluate(seed):
        rng = random.Random(seed)
        order = rng.sample(cells, len(cells))
        if seed % 2:
            triangle(rng.choice(kinds), rng.randrange(25), P)
        return {cell: value(*cell, P) for cell in order}

    for _ in range(3):
        clear_caches()
        assert _run_in_threads([functools.partial(evaluate, seed) for seed in range(8)]) == [expected] * 8
    clear_caches()


def test_concurrent_transform_streams_of_a_base_match_a_serial_build():
    # The three ward2-based kinds' transform routes, streamed and memoized,
    # grow ward2's one table from several threads at once.
    def streamed(kind):
        return tuple(itertools.islice(stream(kind, P), 31))

    def memoized(kind):
        return triangle(kind, 30, P).rows

    kinds = (Kind.WARD2, Kind.VARIED_WARD2, Kind.BINOMIAL_WARD2)
    tasks = [functools.partial(read, kind) for read in (streamed, memoized) for kind in kinds]
    clear_caches()
    expected = [task() for task in tasks]
    for _ in range(3):
        clear_caches()
        assert _run_in_threads(tasks * 2) == expected * 2
    clear_caches()


def test_concurrent_mixed_table_growth_matches_a_serial_build():
    # Two mixes at once: ward1's recurrence table grown while varied-ward1's
    # scaling table steps its own ward1 recurrence, and ward2's transform
    # route built while other threads evaluate lone ward2 values.  A lone
    # value keeps nothing and shares no table, so a few cells are enough.
    cells = [(n, k) for n in range(11) for k in range(n + 2)]

    tasks = [
        lambda: triangle(Kind.WARD1, 60, R).rows,
        lambda: triangle(Kind.VARIED_WARD1, 60, S).rows,
        lambda: triangle(Kind.WARD2, 30, P).rows,
        # largest n first, where the row builder starts from n = 1
        lambda: {cell: partition_transform(*cell, ward_second_kind) for cell in reversed(cells)},
    ]
    clear_caches()
    expected = [task() for task in tasks]
    for _ in range(3):
        clear_caches()
        assert _run_in_threads(tasks * 2) == expected * 2
