"""OEIS b-file interchange: parse, render, and triangle linearization.

A b-file is optional leading '#' comment lines followed by one
"index value" pair per line, indices increasing by 1; a line ends at a
line feed or a CR LF and nowhere else, and a data line is ASCII text
throughout, ends included.  Triangles are linearized by rows
n = 1..N, k = 1..n, leaving out the all-zero k = 0 column and the n = 0
row, matching how the OEIS reads these triangles.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from math import isqrt


class BFileParseError(ValueError):
    """Malformed b-file text (bad line, or indices not contiguous)."""


def abbreviate(text: str) -> str:
    """`text` for a message: past 60 characters, its two ends and its length."""
    return text if len(text) <= 60 else f"{text[:30]}...{text[-30:]} ({len(text)} characters)"


class BFile(namedtuple("BFile", "offset values comments", defaults=((),))):
    """An immutable b-file: the first index, the values (a tuple of ints, or
    of integral Decimals to render) and the leading comment lines (a tuple
    of strs, empty by default)."""

    __slots__ = ()


def parse_lines(lines: Iterable[str], comments: list[str] | None = None) -> Iterator[tuple[int, int]]:
    """The (index, value) pairs of b-file lines, each line checked as it is
    read; a line may keep its line feed or CR LF ending.  The leading comment
    lines go to `comments` when it is given.  Raises `BFileParseError`,
    naming the line, at the first malformed line, and at the end when no
    line held data."""
    expected: int | None = None  # the next index, once a data line is read
    for lineno, raw in enumerate(lines, start=1):
        # strip(), split(), the "_" test and isascii() read a line alike with
        # or without its ending, so the ending is cut off only where the line
        # is kept as a comment or shown in a message.
        line = raw.strip()
        if not line and raw.isascii():  # non-ASCII space alone is refused below
            continue
        if line.startswith("#"):
            if expected is not None:
                raise BFileParseError(f"line {lineno}: comment after data lines")
            if comments is not None:
                comments.append(_unended(raw))
            continue
        # split() would also part tokens at non-ASCII whitespace, strip()
        # would drop it at either end, and int() would read "1_0" and
        # non-ASCII digits; so the unstripped line is tested.  The test is
        # linear, and cheap beside int() on a long token.
        if "_" in raw or not raw.isascii():
            raise BFileParseError(f"line {lineno}: non-integer token in {abbreviate(_unended(raw))!r}")
        # A data line is parted at its first space, several times quicker
        # than split() on a long line.  int() skips the same ASCII
        # whitespace that split() and strip() do, so when both int() calls
        # succeed, split() would have parted the line into the same two
        # integers; any other line goes to split(), which reads it or
        # names its fault.
        head, _, tail = line.partition(" ")
        try:
            index, val = int(head), int(tail)
        except ValueError:
            index, val = _split_pair(lineno, _unended(raw), line)
        if expected is not None and index != expected:
            raise BFileParseError(f"line {lineno}: index {index} not contiguous (expected {expected})")
        expected = index + 1
        yield index, val
    if expected is None:
        raise BFileParseError("no data lines")


def _split_pair(lineno: int, raw: str, line: str) -> tuple[int, int]:
    """The two integers that split() parts the stripped `line` into; raises
    `BFileParseError`, showing `raw`, when it holds anything else."""
    parts = line.split()
    if len(parts) != 2:
        raise BFileParseError(f"line {lineno}: expected 'index value', got {abbreviate(raw)!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        # A token int() accepts unless it is longer than the interpreter's digit limit.
        if all(re.fullmatch(r"[+-]?[0-9]+", part) for part in parts):
            raise BFileParseError(
                f"line {lineno}: integer in {abbreviate(raw)!r} exceeds the "
                f"interpreter's int/str digit limit (sys.set_int_max_str_digits)"
            ) from None
        raise BFileParseError(f"line {lineno}: non-integer token in {abbreviate(raw)!r}") from None


def _unended(raw: str) -> str:
    """A line without its line feed or CR LF ending."""
    return raw.removesuffix("\n").removesuffix("\r")


def parse_bfile(text: str) -> BFile:
    comments: list[str] = []
    # Lines end at "\n" or "\r\n" only: splitlines() would also end them at
    # "\x0c", "\x1e", "\x85", "\u2028" and others.
    pairs = parse_lines(text.split("\n"), comments)
    offset, first = next(pairs)
    values = (first, *(v for _, v in pairs))
    return BFile(offset=offset, values=values, comments=tuple(comments))


def render_bfile(bf: BFile) -> str:
    """The b-file's text; its values may be ints or integral Decimals,
    whose `str` (quicker than `format` for a Decimal) is the same digits."""
    lines = [*bf.comments, *(f"{i} {v!s}" for i, v in enumerate(bf.values, bf.offset))]
    return "\n".join(lines) + "\n"


def linearize(rows: Iterable[tuple[int, ...]]) -> Iterator[int]:
    """Row-by-row reading of a triangle's rows 0, 1, ... (a `Triangle`'s
    `rows`, or a `streams.stream`), k = 1..n within row n >= 1.  It is
    lazy: a row is read only when its first entry is asked for."""
    return chain.from_iterable(row[1:] for row in islice(rows, 1, None))


def index_to_entry(index: int, offset: int = 1) -> tuple[int, int]:
    """Invert the linearization: b-file index -> (n, k), the unique pair
    with n(n-1)/2 + k = pos and 1 <= k <= n, where pos = index - offset + 1.
    That n is the one with (2n-1)^2 <= 8 pos - 7 < (2n+1)^2, so it is read
    off the integer square root, in time polynomial in the index's digits.
    """
    pos = index - offset + 1
    if pos < 1:
        raise ValueError(f"index {index} below offset {offset}")
    n = (isqrt(8 * pos - 7) + 1) // 2
    return n, pos - n * (n - 1) // 2

