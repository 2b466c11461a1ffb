import gc
import importlib
from fractions import Fraction
from math import comb, factorial, perm

import pytest

from wardtri.exact_arith import ExactnessError
from wardtri.partition_transform import (
    constant_one,
    grow,
    partition_transform,
    ward_first_kind,
    ward_second_kind,
)
from wardtri.triangles import Kind, Strategy, clear_caches, triangle, value


def all_partitions(n):
    """All partitions of n, weakly decreasing: a brute-force generator
    (ascending construction) for the oracle below."""

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
    assert partition_transform(2, 1, constant_one) == (-1, 1)
    assert partition_transform(0, 0, constant_one) == (1, 1)
    assert partition_transform(0, 0, ward_first_kind) == (1, 1)
    assert partition_transform(5, 0, ward_first_kind) == partition_transform(2, 3, ward_first_kind) == (0, 1)
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


def test_transform_rejects_negative():
    with pytest.raises(ValueError):
        partition_transform(-1, 0, constant_one)
    with pytest.raises(ValueError):
        partition_transform(3, -1, constant_one)


def test_long_single_partition_needs_no_deep_recursion():
    # The only partition with largest part 1 is 1^n, and a_1...a_n = 1/(n+1).
    # The demand fill makes only the nodes this value reads, the tails
    # (d, 1, 1500-d) and their leaves, 1500 layers deep, and a later grow
    # extends the same table.
    clear_caches()
    try:
        assert transform(1500, 1, ward_first_kind) == Fraction(-1, 1501)
        made = table_of(ward_first_kind)
        assert set(made) == {(d, 1, 1500 - d) for d in range(1, 1501)} | {(d, 1, 0) for d in range(1, 1500)}
        assert len(made) == 2999
        grow(ward_first_kind, 30)
        grown = table_of(ward_first_kind)
        assert all(grown[node] is pair for node, pair in made.items())
        _, expected = demand_filled(ward_first_kind, 30)
        assert {cell: partition_transform(*cell, ward_first_kind) for cell in expected} == expected
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
    assert len(tables) == kept
    with pytest.raises(TypeError):  # grow fills a kept table, which this rule cannot have
        grow(Slotted(), 5)


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


def _nodes(rule):
    """A read-only view of `rule`'s memo, node by node: ((d, p, r), (H, B))
    for each pair made, from the layers table[d][p][r] that hold them."""
    # the package's `partition_transform` attribute is the function
    table = importlib.import_module("wardtri.partition_transform")._tables[rule]
    for d, layer in table.items():
        for p, column in layer.items():
            for r, pair in column.items():
                yield (d, p, r), pair


def table_of(rule):
    """The memoized tail table of `rule`: node (d, p, r) to its pair (H, B)."""
    return dict(_nodes(rule))


def copy_of(rule):
    """A distinct rule object with the same terms, so it gets a table of its own."""
    return lambda j: rule(j)


def demand_filled(rule, rows):
    """A fresh table of `rule`'s terms filled on demand by every value of
    rows 0..rows, and the rule object that keeps it."""
    fresh = copy_of(rule)
    values = {(n, k): partition_transform(n, k, fresh) for n in range(rows + 1) for k in range(n + 2)}
    return fresh, values


@pytest.mark.parametrize("rule", RULES)
def test_grow_gives_the_pairs_of_a_demand_fill(rule):
    grown = copy_of(rule)
    grow(grown, 40)
    assert {(1, k, n - k) for n in range(1, 41) for k in range(1, n + 1)} <= set(table_of(grown))
    _, expected = demand_filled(rule, 40)
    assert {cell: partition_transform(*cell, grown) for cell in expected} == expected


@pytest.mark.parametrize("rows, nodes", [(24, 904), (60, 7021)])
def test_grow_holds_the_nodes_that_the_rows_reach_on_demand(rows, nodes):
    # exactly the nodes (d, p, r) of weight d*p + r <= rows
    grown = copy_of(ward_second_kind)
    grow(grown, rows)
    fresh, _ = demand_filled(ward_second_kind, rows)
    assert table_of(grown) == table_of(fresh)  # the same keys, and the same pair at each
    assert len(table_of(grown)) == nodes
    assert set(table_of(grown)) == {
        (d, p, w - d * p) for w in range(1, rows + 1) for d in range(1, w + 1) for p in range(1, w // d + 1)
    }


@pytest.mark.parametrize("rule", RULES)
def test_mixed_fill_orders_give_the_same_pairs(rule):
    mixed = copy_of(rule)
    lone = [(30, 4), (17, 2), (25, 1), (9, 9)]
    values = {cell: partition_transform(*cell, mixed) for cell in lone}  # on demand, past any fill
    made = table_of(mixed)
    grow(mixed, 20)
    kept = table_of(mixed)
    assert all(kept[node] is pair for node, pair in made.items())  # kept, not made again
    values[36, 3] = partition_transform(36, 3, mixed)  # on demand again, past the filled weight
    grow(mixed, 26)
    grow(mixed, 12)  # below the filled weight: makes nothing
    _, expected = demand_filled(rule, 40)
    assert values == {cell: expected[cell] for cell in values}
    assert {cell: partition_transform(*cell, mixed) for cell in expected} == expected
    reference = copy_of(rule)
    grow(reference, 40)
    whole = table_of(reference)
    assert all(whole[node] == pair for node, pair in table_of(mixed).items())


def test_the_transform_route_fills_by_weight():
    clear_caches()
    try:
        triangle(Kind.WARD1, 10, Strategy.PARTITION_TRANSFORM)
        assert importlib.import_module("wardtri.partition_transform")._filled[ward_first_kind] == 10
    finally:
        clear_caches()


def test_clear_caches_resets_the_filled_weight():
    calls = []

    def rule(j):
        calls.append(j)
        return j, j + 2

    grow(rule, 12)
    first = len(calls)
    grow(rule, 12)
    grow(rule, 7)
    assert len(calls) == first  # filled already
    clear_caches()
    grow(rule, 12)
    assert len(calls) == 2 * first


def _bound(rule, d, p, r):
    """B(d, p, r) = v_d^p * prod_{i=1..r} v_(d+i)^min(p, r // i), term by term."""
    out = rule(d)[1] ** p
    for i in range(1, r + 1):
        out *= rule(d + i)[1] ** min(p, r // i)
    return out


@pytest.mark.parametrize("rule", RULES)
def test_denominator_is_the_stated_bound(rule):
    for n in range(1, 25):
        for k in range(1, n + 1):
            assert partition_transform(n, k, rule)[1] == _bound(rule, 1, k, n - k), (n, k)


def test_a_bound_too_small_raises(monkeypatch):
    # With every exponent 1 the bound misses the v_(d+1)^2 of a tail whose
    # first part after the d-th is 2, and the child's factor is not integral.
    clear_caches()
    try:
        # the package's `partition_transform` attribute is the function
        module = importlib.import_module("wardtri.partition_transform")
        monkeypatch.setattr(module, "_runs", lambda p, r: [r])
        with pytest.raises(ExactnessError):
            partition_transform(6, 2, ward_second_kind)
    finally:
        clear_caches()


def test_a_bound_too_small_raises_on_the_transform_route(monkeypatch):
    # the same bound as above, reached through the weight fill of the rows
    clear_caches()
    try:
        module = importlib.import_module("wardtri.partition_transform")
        monkeypatch.setattr(module, "_runs", lambda p, r: [r])
        with pytest.raises(ExactnessError):
            triangle(Kind.WARD2, 6, Strategy.PARTITION_TRANSFORM)
    finally:
        clear_caches()


def test_rule_needs_a_positive_denominator():
    for v in (0, -3):
        with pytest.raises(ValueError):
            partition_transform(3, 1, lambda j, v=v: (1, v))
