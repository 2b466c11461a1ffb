"""The nine Ward-related triangles, each computable by several independent
strategies, plus the classical Stirling/Lah reference triangles.

Kinds and the strategies each one supports:

    ward1               recurrence, partition-transform
    ward2               recurrence, partition-transform
    ward-lah            recurrence, explicit, partition-transform, alternating-sum
    varied-ward1        recurrence, partition-transform, scaling
    varied-ward2        recurrence, partition-transform, scaling
    varied-ward-lah     recurrence, explicit, partition-transform, scaling
    binomial-ward1      recurrence, partition-transform, scaling
    binomial-ward2      recurrence, partition-transform, scaling
    binomial-ward-lah   recurrence, explicit, partition-transform, scaling

Only the routes with an actual closed form or recurrence exist; there is no
explicit formula for ward1/ward2, so none is offered.  Entries are always
nonnegative integers; every rational-coefficient recurrence is evaluated in
exact rationals and the result asserted integral rather than rearranged.

All triangles share the same boundary: T(0,0) = 1, T(n,0) = T(0,k) = 0 for
n, k >= 1, and T(n,k) = 0 for k > n.

Construction is row by row into per-(kind, strategy) caches of immutable
tuples.  One thread at a time grows a cache, under that cache's lock, and
a row is appended only once complete; completed rows never change, so a
reader of rows already built takes no lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact_arith import as_integer, binomial, exact_div, factorial, falling_factorial
from .partition_transform import (
    ArgumentRule,
    clear_tables,
    constant_one,
    partition_transform,
    ward_first_kind,
    ward_second_kind,
)


class Kind(Enum):
    WARD1 = "ward1"
    WARD2 = "ward2"
    WARD_LAH = "ward-lah"
    VARIED_WARD1 = "varied-ward1"
    VARIED_WARD2 = "varied-ward2"
    VARIED_WARD_LAH = "varied-ward-lah"
    BINOMIAL_WARD1 = "binomial-ward1"
    BINOMIAL_WARD2 = "binomial-ward2"
    BINOMIAL_WARD_LAH = "binomial-ward-lah"


class Strategy(Enum):
    RECURRENCE = "recurrence"
    EXPLICIT = "explicit"
    PARTITION_TRANSFORM = "partition-transform"
    SCALING = "scaling"
    ALTERNATING_SUM = "alternating-sum"


class UnsupportedStrategyError(ValueError):
    """Raised when a (kind, strategy) pair has no computation route."""


SUPPORTED: dict[Kind, frozenset[Strategy]] = {
    Kind.WARD1: frozenset({Strategy.RECURRENCE, Strategy.PARTITION_TRANSFORM}),
    Kind.WARD2: frozenset({Strategy.RECURRENCE, Strategy.PARTITION_TRANSFORM}),
    Kind.WARD_LAH: frozenset(
        {
            Strategy.RECURRENCE,
            Strategy.EXPLICIT,
            Strategy.PARTITION_TRANSFORM,
            Strategy.ALTERNATING_SUM,
        }
    ),
    Kind.VARIED_WARD1: frozenset(
        {Strategy.RECURRENCE, Strategy.PARTITION_TRANSFORM, Strategy.SCALING}
    ),
    Kind.VARIED_WARD2: frozenset(
        {Strategy.RECURRENCE, Strategy.PARTITION_TRANSFORM, Strategy.SCALING}
    ),
    Kind.VARIED_WARD_LAH: frozenset(
        {
            Strategy.RECURRENCE,
            Strategy.EXPLICIT,
            Strategy.PARTITION_TRANSFORM,
            Strategy.SCALING,
        }
    ),
    Kind.BINOMIAL_WARD1: frozenset(
        {Strategy.RECURRENCE, Strategy.PARTITION_TRANSFORM, Strategy.SCALING}
    ),
    Kind.BINOMIAL_WARD2: frozenset(
        {Strategy.RECURRENCE, Strategy.PARTITION_TRANSFORM, Strategy.SCALING}
    ),
    Kind.BINOMIAL_WARD_LAH: frozenset(
        {
            Strategy.RECURRENCE,
            Strategy.EXPLICIT,
            Strategy.PARTITION_TRANSFORM,
            Strategy.SCALING,
        }
    ),
}

# Argument rule feeding the partition-transform route of each kind.
_RULE: dict[Kind, ArgumentRule] = {
    Kind.WARD1: ward_first_kind,
    Kind.WARD2: ward_second_kind,
    Kind.WARD_LAH: constant_one,
    Kind.VARIED_WARD1: ward_first_kind,
    Kind.VARIED_WARD2: ward_second_kind,
    Kind.VARIED_WARD_LAH: constant_one,
    Kind.BINOMIAL_WARD1: ward_first_kind,
    Kind.BINOMIAL_WARD2: ward_second_kind,
    Kind.BINOMIAL_WARD_LAH: constant_one,
}

# Base triangle each rescaled family scales from.
_SCALING_BASE: dict[Kind, Kind] = {
    Kind.VARIED_WARD1: Kind.WARD1,
    Kind.VARIED_WARD2: Kind.WARD2,
    Kind.VARIED_WARD_LAH: Kind.WARD_LAH,
    Kind.BINOMIAL_WARD1: Kind.WARD1,
    Kind.BINOMIAL_WARD2: Kind.WARD2,
    Kind.BINOMIAL_WARD_LAH: Kind.WARD_LAH,
}

# Diagonal of the binomial recurrences is not covered by the recurrence
# (it needs n-k >= 1); it is seeded from the scaling relation instead.
_DIAGONAL_BASE: dict[Kind, Kind] = {
    Kind.BINOMIAL_WARD1: Kind.WARD1,
    Kind.BINOMIAL_WARD2: Kind.WARD2,
    Kind.BINOMIAL_WARD_LAH: Kind.WARD_LAH,
}


@dataclass(frozen=True)
class Triangle:
    """A lower-triangular table of exact integers built by one strategy."""

    kind: Kind
    strategy: Strategy
    rows: tuple[tuple[int, ...], ...]

    @property
    def n_rows(self) -> int:
        """Largest row index present."""
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> int:
        """T(n, k) with zeros outside the triangle."""
        if n < 0 or k < 0 or k > n or n > self.n_rows:
            return 0
        return self.rows[n][k]


_cache: dict[tuple[Kind, Strategy], list[tuple[int, ...]]] = {}
_cache_locks = {(kind, s): threading.Lock() for kind, routes in SUPPORTED.items() for s in routes}
_classical_lock = threading.Lock()
_stirling1_rows: list[tuple[int, ...]] = []
_stirling2_rows: list[tuple[int, ...]] = []
_lah_rows: list[tuple[int, ...]] = []


def clear_caches() -> None:
    """Drop all memoized rows and partition-transform tables (used by
    benchmarks to time cold builds)."""
    _cache.clear()
    clear_tables()
    _stirling1_rows.clear()
    _stirling2_rows.clear()
    _lah_rows.clear()


def supported_strategies(kind: Kind) -> frozenset[Strategy]:
    return SUPPORTED[kind]


def _check_supported(kind: Kind, strategy: Strategy) -> None:
    if strategy not in SUPPORTED[kind]:
        raise UnsupportedStrategyError(
            f"{kind.value} has no {strategy.value} route; "
            f"supported: {', '.join(sorted(s.value for s in SUPPORTED[kind]))}"
        )


def _recurrence_entry(kind: Kind, n: int, k: int, prev: tuple[int, ...]) -> int:
    def p(j: int) -> int:
        return prev[j] if 0 <= j < len(prev) else 0

    if kind is Kind.WARD1:
        return (n + k - 1) * (p(k) + p(k - 1))
    if kind is Kind.WARD2:
        return k * p(k) + (n + k - 1) * p(k - 1)
    if kind is Kind.WARD_LAH:
        # The integer-coefficient recurrence; the weighted variants are
        # verified as identities, not used to build.
        return 2 * (n + k - 1) * p(k - 1) + (n + 2 * k - 1) * p(k)
    if kind is Kind.VARIED_WARD1:
        return as_integer(
            Fraction(2 * n * (2 * n - 1), n + k) * ((n + k - 1) * p(k) + k * p(k - 1))
        )
    if kind is Kind.VARIED_WARD2:
        return as_integer(
            Fraction(2 * n * k * (2 * n - 1), n + k) * (p(k) + p(k - 1))
        )
    if kind is Kind.VARIED_WARD_LAH:
        return 2 * n * (2 * n - 1) * (p(k) + p(k - 1))
    if kind is Kind.BINOMIAL_WARD1:
        if k == n:
            return value(_DIAGONAL_BASE[kind], n, n, Strategy.RECURRENCE)
        return as_integer(
            Fraction(2 * n * (2 * n - 1), n + k)
            * (Fraction(n + k - 1, n - k) * p(k) + p(k - 1))
        )
    if kind is Kind.BINOMIAL_WARD2:
        if k == n:
            return value(_DIAGONAL_BASE[kind], n, n, Strategy.RECURRENCE)
        return as_integer(
            Fraction(2 * n * (2 * n - 1), n + k)
            * (Fraction(k, n - k) * p(k) + p(k - 1))
        )
    if kind is Kind.BINOMIAL_WARD_LAH:
        if k == n:
            return value(_DIAGONAL_BASE[kind], n, n, Strategy.RECURRENCE)
        return as_integer(
            2 * n * (2 * n - 1) * (Fraction(p(k), n - k) + Fraction(p(k - 1), k))
        )
    raise AssertionError(kind)


def _explicit_entry(kind: Kind, n: int, k: int) -> int:
    if kind is Kind.WARD_LAH:
        return exact_div(factorial(n + k), factorial(k)) * binomial(n - 1, k - 1)
    if kind is Kind.VARIED_WARD_LAH:
        return factorial(2 * n) * binomial(n - 1, k - 1)
    if kind is Kind.BINOMIAL_WARD_LAH:
        return exact_div(factorial(2 * n), factorial(k) * factorial(n - k)) * binomial(
            n - 1, k - 1
        )
    raise AssertionError(kind)


def _transform_entry(kind: Kind, n: int, k: int) -> int:
    sign = -1 if k % 2 else 1
    p = partition_transform(n, k, _RULE[kind])
    if kind in (Kind.WARD1, Kind.WARD2, Kind.WARD_LAH):
        scale: int | Fraction = falling_factorial(n + k, n)
    elif kind in (Kind.VARIED_WARD1, Kind.VARIED_WARD2, Kind.VARIED_WARD_LAH):
        scale = factorial(2 * n)
    else:
        scale = Fraction(factorial(2 * n), factorial(k) * factorial(n - k))
    return as_integer(sign * scale * p)


def _scaling_entry(kind: Kind, n: int, k: int) -> int:
    base = value(_SCALING_BASE[kind], n, k, Strategy.RECURRENCE)
    if kind in (Kind.VARIED_WARD1, Kind.VARIED_WARD2, Kind.VARIED_WARD_LAH):
        return exact_div(factorial(2 * n) * base, falling_factorial(n + k, n))
    return binomial(2 * n, n + k) * base


def _alternating_sum_entry(n: int, k: int) -> int:
    # ward-lah as a signed sum of Lah numbers; the m = 0 term dies on
    # C(n-1, -1) = 0.
    total = 0
    for m in range(k + 1):
        sign = -1 if (m + k) % 2 else 1
        total += (
            sign
            * binomial(n + k, n + m)
            * binomial(n + m - 1, m - 1)
            * exact_div(factorial(n + m), factorial(m))
        )
    return total


def _build_row(kind: Kind, strategy: Strategy, n: int, rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    if strategy is Strategy.RECURRENCE:
        prev = rows[n - 1]
        return (0, *(_recurrence_entry(kind, n, k, prev) for k in range(1, n + 1)))
    if strategy is Strategy.EXPLICIT:
        return (0, *(_explicit_entry(kind, n, k) for k in range(1, n + 1)))
    if strategy is Strategy.PARTITION_TRANSFORM:
        return (0, *(_transform_entry(kind, n, k) for k in range(1, n + 1)))
    if strategy is Strategy.SCALING:
        return (0, *(_scaling_entry(kind, n, k) for k in range(1, n + 1)))
    if strategy is Strategy.ALTERNATING_SUM:
        return (0, *(_alternating_sum_entry(n, k) for k in range(1, n + 1)))
    raise AssertionError(strategy)


def _rows_upto(kind: Kind, strategy: Strategy, n: int) -> list[tuple[int, ...]]:
    rows = _cache.get((kind, strategy))
    if rows is not None and len(rows) > n:
        return rows
    with _cache_locks[(kind, strategy)]:
        rows = _cache.setdefault((kind, strategy), [])
        while len(rows) <= n:
            rows.append(_build_row(kind, strategy, len(rows), rows))
    return rows


def value(kind: Kind, n: int, k: int, strategy: Strategy = Strategy.RECURRENCE) -> int:
    """Exact entry T(n, k) of one triangle by one computation route.

    Boundary values (k > n, the k = 0 column, T(0,0) = 1) are returned
    without invoking the strategy; negative k is likewise 0.
    """
    _check_supported(kind, strategy)
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return _rows_upto(kind, strategy, n)[n][k]


def triangle(kind: Kind, rows: int, strategy: Strategy = Strategy.RECURRENCE) -> Triangle:
    """Rows 0..rows of one triangle, every entry from the same strategy."""
    if rows < 0:
        raise ValueError(f"rows must be nonnegative, got {rows}")
    _check_supported(kind, strategy)
    built = _rows_upto(kind, strategy, rows)
    return Triangle(kind=kind, strategy=strategy, rows=tuple(built[: rows + 1]))


def _classical_rows(rows: list[tuple[int, ...]], step, n: int) -> int:
    if len(rows) > n:
        return n
    with _classical_lock:
        while len(rows) <= n:
            m = len(rows)
            if m == 0:
                rows.append((1,))
                continue
            prev = rows[m - 1]

            def p(j: int) -> int:
                return prev[j] if 0 <= j < len(prev) else 0

            rows.append((0, *(step(m, k, p) for k in range(1, m + 1))))
    return n


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling cycle numbers c(n, k)."""
    if n < 0 or k < 0 or k > n:
        return 0
    _classical_rows(_stirling1_rows, lambda m, j, p: p(j - 1) + (m - 1) * p(j), n)
    return _stirling1_rows[n][k]


def stirling2(n: int, k: int) -> int:
    """Stirling set numbers S(n, k)."""
    if n < 0 or k < 0 or k > n:
        return 0
    _classical_rows(_stirling2_rows, lambda m, j, p: p(j - 1) + j * p(j), n)
    return _stirling2_rows[n][k]


def lah(n: int, k: int) -> int:
    """Lah numbers L(n, k), built by the classical triangular recurrence."""
    if n < 0 or k < 0 or k > n:
        return 0
    _classical_rows(_lah_rows, lambda m, j, p: p(j - 1) + (m - 1 + j) * p(j), n)
    return _lah_rows[n][k]


_CENTRAL = {"stirling1": stirling1_unsigned, "stirling2": stirling2, "lah": lah}


def central(name: str, n: int) -> int:
    """Central value (at row 2n, column n) of a classical triangle."""
    try:
        fn = _CENTRAL[name]
    except KeyError:
        raise ValueError(f"unknown central family {name!r}; pick from {sorted(_CENTRAL)}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return fn(2 * n, n)
