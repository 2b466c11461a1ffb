"""The nine Ward-related triangles as streams of rows, each by several
independent routes, plus the classical Stirling/Lah reference triangles.

Each triangle is one of three bases (ward1, ward2, ward-lah) under one of
three rescalings (none, varied, binomial), and `SPEC` records that pair for
every kind.  The routes of a kind follow from it: `recurrence` and
`partition-transform` always, `explicit` when the base is ward-lah (the only
base with a closed form), `scaling` (the rescaling factor times the base
triangle) when the kind is rescaled, and `alternating-sum` (a signed sum of
Lah numbers, one difference table per row) for ward-lah itself.

Each recurrence is stated once, in `_RECURRENCE`, as an integer numerator
and denominator, which the builder runs and `identities` checks on
reference-route values.  Each closed form is stated once, in `_CLOSED`, as
a product of factorials of linear forms in n and k (the explicit ones as
the paper states them, never derived from the rescaling factor, so they
check it), and one stepper, `_closed_row`, makes a row of any entry by the
exact ratio of neighbours.  Every builder divides with `exact_div`, so a
result that is not an integer raises `ExactnessError` and is never rounded.

All triangles share the same boundary: T(0,0) = 1, T(n,0) = T(0,k) = 0 for
n, k >= 1, and T(n,k) = 0 for k > n.

Each base holds the argument rule that the generic partition transform
turns into it, and names its classical partner (Stirling cycle, Stirling
set or Lah numbers), whose central numbers the row sums of the base's
binomial kind are compared with.  The three classical triangles are
`_RECURRENCE` entries too, keyed by that name and built by the recurrence
builder.

Each route has one step function, which makes row n from at most one
other row: the recurrence from its own row n-1, scaling from its base's
recurrence row n.  One generator, `_rows`, runs a route's steps and keeps
only that row (scaling steps its own base recurrence in lockstep);
`stream` hands it to the caller, so a caller that reads each row once (as
`check` and `bfile-compare` do) holds one row at a time.  Every route but
the transform computes in the type of its T(0, 0), the `one` that `_rows`
is seeded with (a Decimal for `gen`: see `wardtri.commands.gen`).  The
memo, `triangles`, reads its rows from `_rows`; this module never loads
it, and the identity suite reads it only through `value`, reading every
other table as a `_rows` stream.  The transform routes of a base, in the
memo or streamed, share one partition-transform `Table`, kept here and
grown under `_lock`, which the memo reads on under too: it is reentrant
because the memo holds it while it steps a transform row.  The first
transform row loads `partition_transform`, so a process that runs no
transform route never compiles it.

`Kind` and `Strategy` are defined in the package, where the command line
reads them without loading this module, and re-exported here.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from functools import partial, reduce
from itertools import count, islice, repeat, starmap
from math import factorial, prod
from operator import mul, sub

from . import Kind, Strategy
from .exact_arith import exact_div


class UnsupportedStrategyError(ValueError):
    """Raised when a (kind, strategy) pair has no computation route."""


def constant_one(j: int) -> tuple[int, int]:
    """a_j = 1: the rule behind the Lah-flavoured triangles."""
    return 1, 1


def ward_first_kind(j: int) -> tuple[int, int]:
    """a_j = j/(j+1): the rule behind first-kind Ward triangles."""
    return j, j + 1


def ward_second_kind(j: int) -> tuple[int, int]:
    """a_j = 1/(j+1): the rule behind second-kind Ward triangles."""
    return 1, j + 1


class Base(Enum):
    """An unrescaled triangle, the argument rule of its partition
    transform and its classical partner, whose central numbers the row
    sums of the base's binomial kind are compared with."""

    WARD1 = (Kind.WARD1, ward_first_kind, "stirling1")
    WARD2 = (Kind.WARD2, ward_second_kind, "stirling2")
    WARD_LAH = (Kind.WARD_LAH, constant_one, "lah")

    def __init__(self, kind: Kind, rule: Callable[[int], tuple[int, int]], classical: str) -> None:
        self.kind = kind
        self.rule = rule
        self.classical = classical


def _stepped(value: int, ratios: Iterable[tuple[int, int]]) -> list[int]:
    """`value`, then each previous value times num/den for each (num, den)
    in `ratios`: a product stepped along a row, every quotient exact."""
    return [value, *[value := exact_div(value * num, den) for num, den in ratios]]


def _closed_row(terms: tuple, n: int, one=1, first: int = 0) -> list[int]:
    """Entries k = first, ..., n of the product of (a*n + b*k + c)!^e over
    `terms`, in `one`'s type: entry `first` from factorials, then up the
    row by the ratio of neighbours, a term whose argument steps by b giving
    its larger value, over the line if e*b = 1.  A row n < `first` has no
    entries and raises `ValueError`."""
    if n < first:
        raise ValueError(f"row {n} has no entries from k = {first}")
    over, under, num, den = [], [], [], []
    for e, a, b, c in terms:
        m = a * n + b * first + c
        (over if e > 0 else under).append(m)
        if b:
            (num if e * b > 0 else den).append(range(m + (b > 0), m + b * (n - first) + (b > 0), b))
    for x in set(over) & set(under):  # a factorial over the line cancels an equal one under it
        over.remove(x)
        under.remove(x)
    num, den = (reduce(partial(map, mul), r) if r else repeat(1, n - first) for r in (num, den))
    return _stepped(exact_div(prod(map(factorial, over)), prod(map(factorial, under))) * one, zip(num, den))


class Rescaling(Enum):
    NONE = "none"
    VARIED = "varied"
    BINOMIAL = "binomial"

    def factors(self, n: int, one=1) -> list[int]:
        """Rescaled T(n, k) over base T(n, k) for k = 0..n, in `one`'s type:
        its `_CLOSED` entry written in j = n - k, stepped up from j = 0
        (k = n, where it is least) and reversed."""
        return _closed_row([(e, a + b, -b, c) for e, a, b, c in _CLOSED[self]], n, one)[::-1]


SPEC: dict[Kind, tuple[Base, Rescaling]] = {
    Kind.WARD1: (Base.WARD1, Rescaling.NONE),
    Kind.WARD2: (Base.WARD2, Rescaling.NONE),
    Kind.WARD_LAH: (Base.WARD_LAH, Rescaling.NONE),
    Kind.VARIED_WARD1: (Base.WARD1, Rescaling.VARIED),
    Kind.VARIED_WARD2: (Base.WARD2, Rescaling.VARIED),
    Kind.VARIED_WARD_LAH: (Base.WARD_LAH, Rescaling.VARIED),
    Kind.BINOMIAL_WARD1: (Base.WARD1, Rescaling.BINOMIAL),
    Kind.BINOMIAL_WARD2: (Base.WARD2, Rescaling.BINOMIAL),
    Kind.BINOMIAL_WARD_LAH: (Base.WARD_LAH, Rescaling.BINOMIAL),
}


def _routes(base: Base, rescaling: Rescaling) -> frozenset[Strategy]:
    routes = {Strategy.RECURRENCE, Strategy.PARTITION_TRANSFORM}
    if base is Base.WARD_LAH:
        routes.add(Strategy.EXPLICIT)
    if rescaling is not Rescaling.NONE:
        routes.add(Strategy.SCALING)
    elif base is Base.WARD_LAH:
        routes.add(Strategy.ALTERNATING_SUM)
    return frozenset(routes)


SUPPORTED: dict[Kind, frozenset[Strategy]] = {kind: _routes(*spec) for kind, spec in SPEC.items()}

Row = tuple[int, ...]

# Each base's partition-transform table, and the one lock of these and the memo.
_tables: dict[Base, Table] = {}
_lock = threading.RLock()


def reference_route(kind: Kind) -> Strategy:
    """The route a kind's recurrences and identities are checked against:
    explicit, else scaling, else partition-transform; never the recurrence."""
    preference = (Strategy.EXPLICIT, Strategy.SCALING, Strategy.PARTITION_TRANSFORM)
    return next(s for s in preference if s in SUPPORTED[kind])


def _check_supported(kind: Kind, strategy: Strategy) -> None:
    if not (isinstance(kind, Kind) and isinstance(strategy, Strategy)):
        raise UnsupportedStrategyError(f"expected a Kind and a Strategy, got {kind!r} and {strategy!r}")
    if strategy not in SUPPORTED[kind]:
        raise UnsupportedStrategyError(
            f"{kind.value} has no {strategy.value} route; "
            f"supported: {', '.join(sorted(s.value for s in SUPPORTED[kind]))}"
        )


# T(n, k) = num(n, k, a, b) / den(n, k), from a = T(n-1, k) and
# b = T(n-1, k-1); den is None for the integer-coefficient kinds.  The
# ward-lah one is the integer-coefficient form (its weighted variants are
# identities only); the binomial ones hold for n-k >= 1 only.  The classical
# triangles, keyed by name, are the unsigned Stirling cycle numbers c(n, k),
# the Stirling set numbers S(n, k) and the Lah numbers L(n, k).
_RECURRENCE: dict[Kind | str, tuple[Callable[..., int], Callable[[int, int], int] | None]] = {
    Kind.WARD1: (lambda n, k, a, b: (n + k - 1) * (a + b), None),
    Kind.WARD2: (lambda n, k, a, b: k * a + (n + k - 1) * b, None),
    Kind.WARD_LAH: (lambda n, k, a, b: 2 * (n + k - 1) * b + (n + 2 * k - 1) * a, None),
    Kind.VARIED_WARD1: (lambda n, k, a, b: 2 * n * (2 * n - 1) * ((n + k - 1) * a + k * b),
                        lambda n, k: n + k),
    Kind.VARIED_WARD2: (lambda n, k, a, b: 2 * n * k * (2 * n - 1) * (a + b), lambda n, k: n + k),
    Kind.VARIED_WARD_LAH: (lambda n, k, a, b: 2 * n * (2 * n - 1) * (a + b), None),
    Kind.BINOMIAL_WARD1: (lambda n, k, a, b: 2 * n * (2 * n - 1) * ((n + k - 1) * a + (n - k) * b),
                          lambda n, k: (n + k) * (n - k)),
    Kind.BINOMIAL_WARD2: (lambda n, k, a, b: 2 * n * (2 * n - 1) * (k * a + (n - k) * b),
                          lambda n, k: (n + k) * (n - k)),
    Kind.BINOMIAL_WARD_LAH: (lambda n, k, a, b: 2 * n * (2 * n - 1) * (k * a + (n - k) * b),
                             lambda n, k: k * (n - k)),
    "stirling1": (lambda n, k, a, b: b + (n - 1) * a, None),
    "stirling2": (lambda n, k, a, b: b + k * a, None),
    "lah": (lambda n, k, a, b: b + (n - 1 + k) * a, None),
}


# Terms (e, a, b, c), each (a*n + b*k + c)!^e: (n+k)!/k!, c(m) = C(n+m-1, m-1),
# the rescalings' factors, and the ward-lah kinds as the paper states them,
# X * C(n-1, k-1) for X = (n+k)!/k!, (2n)! and (2n)!/(k!(n-k)!).
_CLOSED: dict[str | Rescaling | Kind, tuple[tuple[int, int, int, int], ...]] = {
    "falling": ((1, 1, 1, 0), (-1, 0, 1, 0)),
    "c": ((1, 1, 1, -1), (-1, 0, 1, -1), (-1, 1, 0, 0)),
    Rescaling.NONE: (),
    Rescaling.VARIED: ((1, 2, 0, 0), (-1, 1, 1, 0), (1, 0, 1, 0)),
    Rescaling.BINOMIAL: ((1, 2, 0, 0), (-1, 1, 1, 0), (-1, 1, -1, 0)),
    Kind.WARD_LAH: ((1, 1, 1, 0), (-1, 0, 1, 0), (1, 1, 0, -1), (-1, 0, 1, -1), (-1, 1, -1, 0)),
    Kind.VARIED_WARD_LAH: ((1, 2, 0, 0), (1, 1, 0, -1), (-1, 0, 1, -1), (-1, 1, -1, 0)),
    Kind.BINOMIAL_WARD_LAH: ((1, 2, 0, 0), (-1, 0, 1, 0), (-1, 1, -1, 0),
                             (1, 1, 0, -1), (-1, 0, 1, -1), (-1, 1, -1, 0)),
}


# Step functions: row n >= 1 in `one`'s type (ints for the transform), from
# `source`: row n-1 (recurrence), the base's row n (scaling), or nothing.

def _recurrence_row(kind: Kind | str, n: int, source: Row, one) -> Row:
    num, den = _RECURRENCE[kind]
    prev = (*source, 0)
    base, rescaling = SPEC.get(kind, (None, Rescaling.NONE))  # a classical triangle is unrescaled
    # The binomial recurrences stop short of the diagonal, which is the
    # base triangle's (C(2n, 2n) = 1), so the base's own step gives it from
    # T(n-1, n-1) and a = 0.
    ks = range(1, n if rescaling is Rescaling.BINOMIAL else n + 1)
    if den is None:
        row = [num(n, k, prev[k], prev[k - 1]) for k in ks]
    else:
        row = [exact_div(num(n, k, prev[k], prev[k - 1]), den(n, k)) for k in ks]
    if rescaling is Rescaling.BINOMIAL:
        row.append(_RECURRENCE[base.kind][0](n, n, 0, prev[n - 1]))
    return (0, *row)


def _explicit_row(kind: Kind, n: int, source, one) -> Row:
    return (0, *_closed_row(_CLOSED[kind], n, one, first=1))


def _transform_row(kind: Kind, n: int, source, one) -> Row:
    from .partition_transform import Table, grow  # loaded by the first transform row

    base, rescaling = SPEC[kind]
    with _lock:
        pairs = grow(_tables.get(base) or _tables.setdefault(base, Table(base.rule)), n)
    return (0, *map(mul, rescaling.factors(n)[1:], starmap(exact_div, pairs)))


def _scaling_row(kind: Kind, n: int, source: Row, one) -> Row:
    return (0, *map(mul, SPEC[kind][1].factors(n, one)[1:], source[1:]))


def _alternating_sum_row(kind: Kind, n: int, source, one) -> Row:
    # ward-lah(n, k) = sum_{m=1..k} (-1)^(m+k) C(n+k, n+m) L(n+m, m), with
    # L(n+m, m) = (n+m)!/m! c(m).  As C(n+k, n+m) (n+m)!/m! is
    # (n+k)!/k! C(k, m), the sum is (n+k)!/k! times the k-th forward
    # difference at 0 of c, where c(0) = 0: one table gives every k.
    c, row = [0, *_closed_row(_CLOSED["c"], n, one, first=1)], []
    for falling in _closed_row(_CLOSED["falling"], n, one, first=1):
        c = list(map(sub, c[1:], c))
        row.append(falling * c[0])
    return (0, *row)


_STEP: dict[Strategy, Callable[..., Row]] = {
    Strategy.RECURRENCE: _recurrence_row,
    Strategy.EXPLICIT: _explicit_row,
    Strategy.PARTITION_TRANSFORM: _transform_row,
    Strategy.SCALING: _scaling_row,
    Strategy.ALTERNATING_SUM: _alternating_sum_row,
}


def _rows(kind: Kind | str, strategy: Strategy, one=1) -> Iterator[Row]:
    """Rows 0, 1, 2, ... of one route, each made by its step function, from
    the row that step reads, when asked for.  Every route but the transform
    computes in the type of `one`, its T(0, 0)."""
    row = (one,)
    yield row
    step = _STEP[strategy]
    base_rows = (islice(_rows(SPEC[kind][0].kind, Strategy.RECURRENCE, one), 1, None)
                 if strategy is Strategy.SCALING else None)
    for n in count(1):
        row = step(kind, n, row if base_rows is None else next(base_rows), one)
        yield row


def stream(kind: Kind, strategy: Strategy = Strategy.RECURRENCE) -> Iterator[Row]:
    """Rows 0, 1, 2, ... of one triangle by one route, without end, each
    made when asked for and held by no one but the caller.  It neither
    reads nor fills the memo behind `value` and `triangle`."""
    _check_supported(kind, strategy)
    return _rows(kind, strategy)



