"""The memo behind `value`, `triangle` and the classical lookups: the
exact entries of the routes that `wardtri.streams` defines, kept per table
as the immutable rows read so far and the `streams._rows` generator they
are read on from, both dropped when a step raises.  A boundary entry makes
no row, and no table grows another.  One thread at a time reads on, under
`streams._lock`; a row is appended only once complete, so a reader of
complete rows takes no lock.  Of the commands, only identities and
conjecture load this module, and read it only through `value`, for the
reference routes; every other table they read, and every table of check,
gen, bfile-compare and bench, is a stream.
The route names (`SPEC`, `stream`, ...), `Kind` and `Strategy` are
re-exported here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from . import Kind, Strategy, streams
from .streams import SPEC, SUPPORTED, Base, Rescaling, Row, UnsupportedStrategyError  # noqa: F401 (re-exported)
from .streams import _check_supported, reference_route, stream  # noqa: F401


class Triangle(namedtuple("Triangle", "kind strategy rows")):
    """A lower-triangular table of exact integers built by one strategy:
    an immutable record of a `Kind`, a `Strategy` and the rows, each a
    tuple of ints."""

    __slots__ = ()


# The memo, keyed by (kind, strategy) or by (classical name, RECURRENCE):
# the rows read so far, and the generator that makes the next ones.
_cache: dict[tuple[Kind | str, Strategy], list[Row]] = {}
_sources: dict[tuple[Kind | str, Strategy], Iterator[Row]] = {}


def clear_caches() -> None:
    """Drop all memoized rows and the partition-transform table of each
    base (used by benchmarks to time cold builds)."""
    with streams._lock:
        _cache.clear()
        _sources.clear()
        streams._tables.clear()


def _rows_upto(kind: Kind | str, strategy: Strategy, n: int) -> list[Row]:
    """The memo of one route, read on from its generator to row n."""
    key = (kind, strategy)
    rows = _cache.get(key)
    if rows is not None and len(rows) > n:
        return rows
    with streams._lock:
        if key not in _sources:
            _cache[key], _sources[key] = [], streams._rows(kind, strategy)
        rows, source = _cache[key], _sources[key]
        try:
            while len(rows) <= n:
                rows.append(next(source))
        except BaseException:  # the generator is finished: start over next time
            del _cache[key], _sources[key]
            raise
    return rows


def _entry(key: Kind | str, strategy: Strategy, n: int, k: int) -> int:
    """Entry (n, k) of one memo table.  The boundary (0 for negative n or k
    and for k > n, 1 at (0, 0), 0 in the k = 0 column) makes no row."""
    if not 0 < k <= n:
        return int(n == k == 0)
    return _rows_upto(key, strategy, n)[n][k]


def value(kind: Kind, n: int, k: int, strategy: Strategy = Strategy.RECURRENCE) -> int:
    """Exact entry T(n, k) of one triangle by one computation route.  Boundary
    values (k > n, the k = 0 column, T(0,0) = 1, negative n or k) are
    returned without invoking the strategy."""
    _check_supported(kind, strategy)
    return _entry(kind, strategy, n, k)


def triangle(kind: Kind, rows: int, strategy: Strategy = Strategy.RECURRENCE) -> Triangle:
    """Rows 0..rows of one triangle, every entry from the same strategy."""
    if rows < 0:
        raise ValueError(f"rows must be nonnegative, got {rows}")
    _check_supported(kind, strategy)
    built = _rows_upto(kind, strategy, rows)
    return Triangle(kind=kind, strategy=strategy, rows=tuple(built[: rows + 1]))


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling cycle numbers c(n, k)."""
    return _entry("stirling1", Strategy.RECURRENCE, n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling set numbers S(n, k)."""
    return _entry("stirling2", Strategy.RECURRENCE, n, k)


def lah(n: int, k: int) -> int:
    """Lah numbers L(n, k), built by the classical triangular recurrence."""
    return _entry("lah", Strategy.RECURRENCE, n, k)


def central(name: str, n: int) -> int:
    """Central value (at row 2n, column n) of a classical triangle."""
    names = sorted(base.classical for base in Base)
    if name not in names:
        raise ValueError(f"unknown central family {name!r}; pick from {names}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _entry(name, Strategy.RECURRENCE, 2 * n, n)


def __getattr__(name: str):
    # PEP 562: `partition_transform`, the function, is still read here (the
    # benchmark's tracer test does), from its module loaded on first use.
    if name != "partition_transform":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .partition_transform import partition_transform

    return partition_transform
