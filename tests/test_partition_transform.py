import importlib
import random
from functools import cache
from fractions import Fraction
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardtri.exact_arith import ExactnessError
from wardtri.partition_transform import (
    Table,
    constant_one,
    grow,
    partition_transform,
    ward_first_kind,
    ward_second_kind,
)
from wardtri import triangles
from wardtri.triangles import Base, Kind, Strategy, clear_caches, triangle, value


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
    # Zero and negative numerators, which no rule of RULES has; lone values
    # are read in a random order, and one table is grown to rows in a
    # random order, some below the rows it holds.
    def rule(j):
        return numerators[(j - 1) % 12], denominators[(j - 1) % 12]

    cells = [(n, k) for n in range(13) for k in range(n + 2)]
    random.shuffle(cells)
    expected = {(n, k): enumerated_transform(n, k, rule) for n, k in cells}
    assert {cell: transform(*cell, rule) for cell in cells} == expected
    table, rows = Table(rule), random.sample(range(13), random.randint(1, 13))
    grown = {(n, k): Fraction(*lone_pair(n, k, pair)) for n in rows for k, pair in enumerate(grow(table, n), 1)}
    assert grown == {(n, k): expected[n, k] for n in rows for k in range(1, n + 1)}


def test_transform_rejects_negative():
    with pytest.raises(ValueError):
        partition_transform(-1, 0, constant_one)
    with pytest.raises(ValueError):
        partition_transform(3, -1, constant_one)


def tables_made_by(monkeypatch):
    """The list that each table `partition_transform` makes is appended
    to, from now on."""
    made = []

    class Recorded(Table):
        __slots__ = ()

        def __init__(self, rule):
            super().__init__(rule)
            made.append(self)

    # the package's `partition_transform` attribute is the function
    monkeypatch.setattr(importlib.import_module("wardtri.partition_transform"), "Table", Recorded)
    return made


def test_a_lone_value_makes_only_what_it_reads(monkeypatch):
    # The only partition with largest part 1 is 1^n, and a_1...a_n = 1/(n+1):
    # P(1500, 1) makes column 1 alone, to n = 1500, with no recursion 1500
    # deep.  P(n, 2) of a_j = j/(j+1) is the sum of 1/((t+1)(n-t+1)) over
    # t = 1..n-1, that is 2(H_n - 1)/(n+2) with H_n the n-th harmonic
    # number; it makes column 1 to n + 1, the degree n + 2 of its
    # normaliser, and reads its value from column 1 without storing it.
    # P(30, 4) makes columns 2 and 3 as far as the value reads them.
    made = tables_made_by(monkeypatch)
    assert transform(1500, 1, ward_first_kind) == Fraction(-1, 1501)
    harmonic = sum(Fraction(1, j) for j in range(1, 1501))
    assert transform(1500, 2, ward_first_kind) == 2 * (harmonic - 1) / 1502
    assert transform(30, 4, ward_first_kind) == enumerated_transform(30, 4, ward_first_kind)
    assert [set(values_of(table)) for table in made] == [
        {(n, 1) for n in range(1, 1501)},
        {(n, 1) for n in range(1, 1502)},
        {(n, 1) for n in range(1, 34)} | {(n, c) for c in (2, 3) for n in range(c, 26 + c + 1)},
    ]


def test_nothing_is_kept_between_calls():
    reads = []

    def rule(j):
        reads.append(j)
        return j, j + 2

    first = partition_transform(12, 3, rule)
    assert reads == list(range(1, 15))
    assert partition_transform(12, 3, rule) == first
    assert reads == 2 * list(range(1, 15))  # read as far again: made anew


def values_of(table):
    """A read-only view of `table`: (n, k) to the integer H(n+k, k) of
    each value made, from the columns that hold them."""
    return {(k + i, k): entry for k, column in enumerate(table.cols) for i, entry in enumerate(column)}


def lone_pair(n, k, pair):
    """`grow`'s pair (H(n+k, k), Lambda_(n+k)) for (n, k) as the pair
    `partition_transform` gives."""
    H, norm = pair
    return (-1) ** k * factorial(k) * H, factorial(n + k) * norm


def sample_of(cells):
    """The same 150 of `cells` at every run, or all of them if fewer."""
    return random.Random(0).sample(sorted(cells), min(150, len(cells)))


def lone_values(table):
    """Each value that `table` holds as the pair `partition_transform` gives."""
    return {(n, k): lone_pair(n, k, (H, table.norm[n + k])) for (n, k), H in values_of(table).items()}


def rows_of(rows):
    """The cells (n, k) of rows 1..rows, and column 1 on to n = 2*rows - 1,
    the degree 2*rows that the normalisers of those rows reach."""
    return {(n, k) for n in range(1, rows + 1) for k in range(1, n + 1)} | {(n, 1) for n in range(rows, 2 * rows)}


@pytest.mark.parametrize("rule", RULES)
def test_grow_gives_the_pairs_of_a_demand_fill(rule):
    # Rows grown one after another, rows read again below the grown ones,
    # and lone values at a sample of the cells (each makes a table of its
    # own): the same pairs.
    table = Table(rule)
    grown = {(n, k): lone_pair(n, k, pair) for n in range(1, 41) for k, pair in enumerate(grow(table, n), 1)}
    again = {(n, k): lone_pair(n, k, pair) for n in range(40, 0, -1) for k, pair in enumerate(grow(table, n), 1)}
    assert grown == again
    assert all(grown[cell] == partition_transform(*cell, rule) for cell in sample_of(grown))


@pytest.mark.parametrize("rows", [24, 60])
def test_grow_makes_exactly_the_values_of_its_rows(rows):
    table = Table(ward_second_kind)
    grow(table, rows)
    assert set(values_of(table)) == rows_of(rows)
    assert len(values_of(table)) == rows * (rows + 1) // 2 + rows - 1
    # the same entry as a lone value, at a sample of the cells
    values = lone_values(table)
    assert all(values[cell] == partition_transform(*cell, ward_second_kind) for cell in sample_of(values))


@pytest.mark.parametrize("rule", RULES)
def test_mixed_fill_orders_give_the_same_pairs(rule):
    # Lone values read before, between and past the rows a table is grown
    # to, and the table grown up, then below what it holds: the same pairs
    # as a table grown straight to row 40, and what was grown is kept.
    mixed, lone = Table(rule), [(30, 4), (17, 2), (25, 1), (9, 9)]
    values = {cell: partition_transform(*cell, rule) for cell in lone}  # past any grow
    grow(mixed, 20)
    made = values_of(mixed)
    values[36, 3] = partition_transform(36, 3, rule)  # past the grown rows
    grow(mixed, 26)
    grow(mixed, 12)  # below the grown rows: makes nothing
    kept = values_of(mixed)
    assert all(kept[cell] is entry for cell, entry in made.items())  # kept, not made again
    assert set(kept) == rows_of(26)
    reference = Table(rule)
    grow(reference, 40)
    whole = lone_values(reference)
    assert values == {cell: whole[cell] for cell in values}
    assert lone_values(mixed) == {cell: whole[cell] for cell in kept}


def test_the_transform_route_grows_whole_rows():
    clear_caches()
    try:
        triangle(Kind.WARD1, 10, Strategy.PARTITION_TRANSFORM)
        assert set(values_of(triangles._tables[Base.WARD1])) == rows_of(10)
    finally:
        clear_caches()


def test_clear_caches_drops_the_grown_columns():
    clear_caches()
    try:
        rows = triangle(Kind.WARD2, 12, Strategy.PARTITION_TRANSFORM).rows
        grown = triangles._tables[Base.WARD2]
        clear_caches()
        assert triangles._tables == {}
        assert triangle(Kind.WARD2, 12, Strategy.PARTITION_TRANSFORM).rows == rows
        assert triangles._tables[Base.WARD2] is not grown  # grown anew
        assert values_of(triangles._tables[Base.WARD2]) == values_of(grown)
    finally:
        clear_caches()


def test_clear_caches_drops_transform_tables():
    # The first transform route of each base makes that base's one table,
    # of the base's rule; clear_caches drops all three.
    clear_caches()
    try:
        for base in Base:
            triangle(base.kind, 6, Strategy.PARTITION_TRANSFORM)
        assert set(triangles._tables) == set(Base)
        assert all(triangles._tables[base].rule is base.rule for base in Base)
        clear_caches()
        assert triangles._tables == {}
    finally:
        clear_caches()


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
    # e_(n+k); grow(table, n) reads on to a_(2n-1), and rows already grown
    # read nothing.
    reads = []

    def rule(j):
        reads.append(j)
        return j, j + 2

    partition_transform(7, 3, rule)
    assert reads == list(range(1, 10))
    reads.clear()
    table = Table(rule)
    grow(table, 4)
    assert reads == list(range(1, 8))
    grow(table, 4)
    grow(table, 2)
    assert reads == list(range(1, 8))
    grow(table, 8)
    assert reads == list(range(1, 16))


def patch_a_coefficient_too_small(table):
    """Grow `table`, of a_j = 1/(j+1), to row 4, then cut its stored
    coefficient c(7, 3) = C(6, 2) from 15 to 5.  The values of row 5 step
    c(7, 4) from it, which divides 5 * 4 by 3."""
    grow(table, 4)
    coefficients = table.coefs[7]
    assert coefficients == [1, 6, 15]  # c(7, 1), c(7, 2), c(7, 3)
    coefficients[2] = 5


def test_a_coefficient_or_normaliser_too_small_raises():
    patch_a_coefficient_too_small(table := Table(ward_second_kind))
    with pytest.raises(ExactnessError):
        grow(table, 5)
    # a_1 = 1/3 and a_j = 1 after it: e_2 = 2/3 is the only e_s that is
    # not an integer, so Lambda_m = 3^floor(m/2) has no factor to spare.
    # With Lambda_4 cut from 9 to 3, the coefficients of degree 5 that
    # read Lambda_4 / Lambda_3 come out fractional.
    grow(table := Table(lambda j: (1, 3) if j == 1 else (1, 1)), 2)
    assert table.norm == [1, 1, 3, 3, 9]
    table.norm[4] = 3
    with pytest.raises(ExactnessError):
        grow(table, 3)


def test_a_coefficient_too_small_raises_on_the_transform_route():
    # the same coefficient as above, in the table that ward2's transform
    # route grows: its row 5 raises
    clear_caches()
    try:
        triangle(Kind.WARD2, 3, Strategy.PARTITION_TRANSFORM)
        patch_a_coefficient_too_small(triangles._tables[Base.WARD2])
        with pytest.raises(ExactnessError):
            triangle(Kind.WARD2, 5, Strategy.PARTITION_TRANSFORM)
    finally:
        clear_caches()


def test_rule_needs_a_positive_denominator():
    for v in (0, -3):
        with pytest.raises(ValueError):
            partition_transform(3, 1, lambda j, v=v: (1, v))
