import gc
import importlib
from functools import cache
from fractions import Fraction
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardtri.exact_arith import ExactnessError
from wardtri.partition_transform import (
    constant_one,
    grow,
    partition_transform,
    ward_first_kind,
    ward_second_kind,
)
from wardtri.triangles import Kind, Strategy, clear_caches, triangle, value


@cache
def all_partitions(n):
    """All partitions of n, weakly decreasing: a brute-force generator
    (ascending construction) for the oracle below, listed once per n."""

    def gen(remaining, minimum):
        if remaining == 0:
            yield []
            return
        for part in range(minimum, remaining + 1):
            for rest in gen(remaining - part, part):
                yield [part] + rest

    # ascending internals, reversed to weakly decreasing
    return [tuple(reversed(p)) for p in gen(n, 1)] if n else [()]


def enumerated_transform(n, k, rule):
    """The Partition transformation summed term by term over the partitions
    listed by `all_partitions`, in `Fraction`s: the reference for
    `partition_transform`."""
    sign = -1 if k % 2 else 1
    total = Fraction(0)
    for q in all_partitions(n):
        if (q[0] if q else 0) != k:
            continue
        parts = (*q, 0)
        term = Fraction(1)
        for j in range(len(q)):
            term *= comb(parts[j], parts[j + 1]) * Fraction(*rule(j + 1)) ** parts[j]
        total += sign * term
    return total


def transform(n, k, rule):
    """`partition_transform`'s exact pair as one `Fraction`."""
    return Fraction(*partition_transform(n, k, rule))


def squares_over_three(j):
    """A rule outside the Ward families, with numerators and denominators
    that vary with j."""
    return j * j + 1, 3


RULES = [constant_one, ward_first_kind, ward_second_kind, squares_over_three]


def test_transform_examples():
    assert transform(2, 1, constant_one) == -1
    assert transform(0, 0, constant_one) == 1
    assert transform(0, 0, ward_first_kind) == 1
    assert transform(5, 0, ward_first_kind) == transform(2, 3, ward_first_kind) == 0
    # single partition (2,1): C(2,1)*(1/2)^2 * C(1,0)*(1/3)^1 = 1/6
    assert transform(3, 2, ward_second_kind) == Fraction(1, 6)
    # cross-check against the recurrence-built triangle entry
    assert 60 * Fraction(1, 6) == value(Kind.WARD2, 3, 2, Strategy.RECURRENCE)


def test_transform_custom_rule():
    # q = (1,1): sign -1, C(1,1)*2^1 * C(1,0)*2^1 = 4
    assert transform(2, 1, lambda j: (2, 1)) == -4


def test_closed_form_for_all_ones():
    for n in range(1, 21):
        for k in range(1, n + 1):
            expected = (-1) ** k * comb(n - 1, k - 1)
            assert transform(n, k, constant_one) == expected, (n, k)


def test_lah_reconstruction():
    for n in range(1, 16):
        for k in range(1, n + 1):
            lhs = (
                (-1) ** k
                * Fraction(factorial(n), factorial(k))
                * transform(n, k, constant_one)
            )
            assert lhs == Fraction(factorial(n), factorial(k)) * comb(n - 1, k - 1)


@pytest.mark.parametrize("rule", [constant_one, ward_first_kind, ward_second_kind])
def test_scaled_transform_is_integral(rule):
    for n in range(1, 16):
        for k in range(1, n + 1):
            num, den = partition_transform(n, k, rule)
            assert den > 0 and (-1) ** k * perm(n + k, n) * num % den == 0, (rule.__name__, n, k)


@pytest.mark.parametrize("rule", RULES)
def test_transform_matches_enumerated_sum(rule):
    for n in range(21):
        for k in range(n + 2):
            assert transform(n, k, rule) == enumerated_transform(n, k, rule), (n, k)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=9), min_size=12, max_size=12),
    st.lists(st.integers(min_value=1, max_value=12), min_size=12, max_size=12),
    st.randoms(use_true_random=False),
)
def test_random_rules_match_the_enumerated_sum(numerators, denominators, random):
    # Zero and negative numerators, which no rule of RULES has; the values
    # are read in a random order, some of them one by one before a grow.
    def rule(j):
        return numerators[(j - 1) % 12], denominators[(j - 1) % 12]

    cells = [(n, k) for n in range(13) for k in range(n + 2)]
    random.shuffle(cells)
    got = {cell: transform(*cell, rule) for cell in cells[: len(cells) // 2]}
    grow(rule, random.randint(0, 12))
    got.update((cell, transform(*cell, rule)) for cell in cells[len(cells) // 2 :])
    assert got == {(n, k): enumerated_transform(n, k, rule) for n, k in cells}


def test_transform_rejects_negative():
    with pytest.raises(ValueError):
        partition_transform(-1, 0, constant_one)
    with pytest.raises(ValueError):
        partition_transform(3, -1, constant_one)


def test_a_lone_value_makes_only_what_it_reads():
    # The only partition with largest part 1 is 1^n, and a_1...a_n = 1/(n+1):
    # P(1500, 1) makes column 1 alone, to n = 1500, with no recursion 1500
    # deep.  P(n, 2) of a_j = j/(j+1) is the sum of 1/((t+1)(n-t+1)) over
    # t = 1..n-1, that is 2(H_n - 1)/(n+2) with H_n the n-th harmonic
    # number; it makes column 1 to n + 1, the degree n + 2 of its
    # normaliser, and its one value of column 2.  A later grow keeps every
    # value made.
    clear_caches()
    try:
        assert transform(1500, 1, ward_first_kind) == Fraction(-1, 1501)
        assert set(values_of(ward_first_kind)) == {(n, 1) for n in range(1, 1501)}
        rule = copy_of(ward_first_kind)
        harmonic = sum(Fraction(1, j) for j in range(1, 1501))
        assert transform(1500, 2, rule) == 2 * (harmonic - 1) / 1502
        made = values_of(rule)
        assert set(made) == {(n, 1) for n in range(1, 1502)} | {(1500, 2)}
        grow(rule, 30)
        grown = values_of(rule)
        assert all(grown[cell] is entry for cell, entry in made.items())
        _, expected = demand_filled(ward_first_kind, 30)
        assert {cell: partition_transform(*cell, rule) for cell in expected} == expected
    finally:
        clear_caches()


def test_a_rule_no_longer_referenced_leaves_no_table():
    # the package's `partition_transform` attribute is the function
    tables = importlib.import_module("wardtri.partition_transform")._tables
    before = len(tables)
    for _ in range(10):
        partition_transform(30, 5, lambda j: (1, j + 1))
        grow(lambda j: (1, j + 1), 12)
    gc.collect()
    assert len(tables) == before
    partition_transform(30, 5, ward_second_kind)  # a named rule keeps its table
    gc.collect()
    assert ward_second_kind in tables

    class Slotted:  # no __weakref__ slot: cannot be weakly referenced
        __slots__ = ()

        def __call__(self, j):
            return ward_second_kind(j)

    kept = len(tables)
    assert partition_transform(30, 5, Slotted()) == partition_transform(30, 5, ward_second_kind)
    assert grow(Slotted(), 5) == grow(ward_second_kind, 5)  # a table for that one call
    assert len(tables) == kept


def test_clear_caches_drops_transform_tables():
    calls = []

    def rule(j):
        calls.append(j)
        return j, j + 2

    partition_transform(12, 3, rule)
    first = len(calls)
    partition_transform(12, 3, rule)
    assert len(calls) == first  # memoized
    clear_caches()
    partition_transform(12, 3, rule)
    assert len(calls) == 2 * first


def table_of(rule):
    """`rule`'s memo."""
    # the package's `partition_transform` attribute is the function
    return importlib.import_module("wardtri.partition_transform")._tables[rule]


def values_of(rule):
    """A read-only view of `rule`'s memo: (n, k) to the integer H(n+k, k)
    of each value made, from the columns that hold them."""
    return {(n, k): entry for k, column in table_of(rule).cols.items() for n, entry in column.items()}


def rows_of(rows):
    """The cells (n, k) of rows 1..rows, and column 1 on to n = 2*rows - 1,
    the degree 2*rows that the normalisers of those rows reach."""
    return {(n, k) for n in range(1, rows + 1) for k in range(1, n + 1)} | {(n, 1) for n in range(rows, 2 * rows)}


def copy_of(rule):
    """A distinct rule object with the same terms, so it gets a table of its own."""
    return lambda j: rule(j)


def demand_filled(rule, rows):
    """A fresh copy of `rule`, whose table is filled value by value with
    rows 0..rows, and the values read."""
    fresh = copy_of(rule)
    values = {(n, k): partition_transform(n, k, fresh) for n in range(rows + 1) for k in range(n + 2)}
    return fresh, values


@pytest.mark.parametrize("rule", RULES)
def test_grow_gives_the_pairs_of_a_demand_fill(rule):
    grown = copy_of(rule)
    grow(grown, 40)
    _, expected = demand_filled(rule, 40)
    assert {cell: partition_transform(*cell, grown) for cell in expected} == expected


@pytest.mark.parametrize("rows", [24, 60])
def test_grow_makes_exactly_the_values_of_its_rows(rows):
    grown = copy_of(ward_second_kind)
    grow(grown, rows)
    assert set(values_of(grown)) == rows_of(rows)
    assert len(values_of(grown)) == rows * (rows + 1) // 2 + rows - 1
    fresh, _ = demand_filled(ward_second_kind, rows)
    assert values_of(grown) == values_of(fresh)  # the same cells, and the same entry at each


@pytest.mark.parametrize("rule", RULES)
def test_mixed_fill_orders_give_the_same_pairs(rule):
    mixed = copy_of(rule)
    lone = [(30, 4), (17, 2), (25, 1), (9, 9)]
    values = {cell: partition_transform(*cell, mixed) for cell in lone}  # value by value, past any grow
    made = values_of(mixed)
    grow(mixed, 20)
    kept = values_of(mixed)
    assert all(kept[cell] is entry for cell, entry in made.items())  # kept, not made again
    values[36, 3] = partition_transform(36, 3, mixed)  # value by value again, past the grown rows
    grow(mixed, 26)
    grow(mixed, 12)  # below the grown rows: makes nothing
    _, expected = demand_filled(rule, 40)
    assert values == {cell: expected[cell] for cell in values}
    assert {cell: partition_transform(*cell, mixed) for cell in expected} == expected
    reference = copy_of(rule)
    grow(reference, 40)
    whole = values_of(reference)
    assert all(whole[cell] == entry for cell, entry in values_of(mixed).items())


def test_the_transform_route_grows_whole_rows():
    clear_caches()
    try:
        triangle(Kind.WARD1, 10, Strategy.PARTITION_TRANSFORM)
        assert set(values_of(ward_first_kind)) == rows_of(10)
    finally:
        clear_caches()


def test_clear_caches_drops_the_grown_columns():
    calls = []

    def rule(j):
        calls.append(j)
        return j, j + 2

    grow(rule, 12)
    first = len(calls)
    grow(rule, 12)
    grow(rule, 7)
    assert len(calls) == first  # grown already
    clear_caches()
    grow(rule, 12)
    assert len(calls) == 2 * first


def normaliser(rule, m):
    """Lambda_m = prod_{s=2..m} d_s^floor(m/s), d_s the denominator of
    e_s = s! * a_1 * ... * a_(s-1) in lowest terms, term by term."""
    out, prefix = 1, Fraction(1)
    for s in range(2, m + 1):
        prefix *= Fraction(*rule(s - 1))
        out *= (factorial(s) * prefix).denominator ** (m // s)
    return out


@pytest.mark.parametrize("rule", RULES)
def test_denominator_is_the_stated_normaliser(rule):
    for n in range(1, 25):
        for k in range(1, n + 1):
            assert partition_transform(n, k, rule)[1] == factorial(n + k) * normaliser(rule, n + k), (n, k)
    if rule is squares_over_three:
        assert normaliser(rule, 40) > 1
    else:  # every e_s of a named rule is an integer
        assert all(partition_transform(m - 1, 1, rule)[1] == factorial(m) for m in range(2, 401))


def test_the_rule_is_read_to_a_n_plus_k_minus_1():
    # P(n, k) reads a_1 ... a_(n+k-1), each once, since Lambda_(n+k) reads
    # e_(n+k); grow(rule, n) reads on to a_(2n-1).
    reads = []

    def rule(j):
        reads.append(j)
        return j, j + 2

    partition_transform(7, 3, rule)
    assert reads == list(range(1, 10))
    partition_transform(7, 3, rule)
    grow(rule, 4)
    assert reads == list(range(1, 10))
    grow(rule, 8)
    assert reads == list(range(1, 16))


def patch_a_coefficient_too_small():
    """Make rows 1..4 of a_j = 1/(j+1), then cut its stored coefficient
    c(7, 3) = C(6, 2) from 15 to 5.  The values of row 5 step c(7, 4) from
    it, which divides 5 * 4 by 3."""
    grow(ward_second_kind, 4)
    coefficients = table_of(ward_second_kind).coefs[7]
    assert coefficients == [1, 6, 15]  # c(7, 1), c(7, 2), c(7, 3)
    coefficients[2] = 5


def test_a_coefficient_or_normaliser_too_small_raises():
    clear_caches()
    try:
        patch_a_coefficient_too_small()
        with pytest.raises(ExactnessError):
            partition_transform(5, 2, ward_second_kind)
        # a_1 = 1/3 and a_j = 1 after it: e_2 = 2/3 is the only e_s that is
        # not an integer, so Lambda_m = 3^floor(m/2) has no factor to spare.
        # With Lambda_4 cut from 9 to 3, the coefficients of degree 5 that
        # read Lambda_4 / Lambda_3 come out fractional.
        def one_third_first(j):
            return (1, 3) if j == 1 else (1, 1)

        partition_transform(2, 2, one_third_first)
        norm = table_of(one_third_first).norm
        assert norm == [1, 1, 3, 3, 9]
        norm[4] = 3
        with pytest.raises(ExactnessError):
            partition_transform(3, 2, one_third_first)
    finally:
        clear_caches()


def test_a_coefficient_too_small_raises_on_the_transform_route():
    # the same coefficient as above, reached through the rows that grow the table
    clear_caches()
    try:
        patch_a_coefficient_too_small()
        with pytest.raises(ExactnessError):
            triangle(Kind.WARD2, 5, Strategy.PARTITION_TRANSFORM)
    finally:
        clear_caches()


def test_rule_needs_a_positive_denominator():
    for v in (0, -3):
        with pytest.raises(ValueError):
            partition_transform(3, 1, lambda j, v=v: (1, v))
