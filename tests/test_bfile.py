import re
import sys
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wardtri.bfile import (
    BFile,
    BFileParseError,
    abbreviate,
    index_to_entry,
    linearize,
    parse_bfile,
    parse_lines,
    render_bfile,
)
from wardtri.triangles import Kind, Strategy, stream, triangle


def test_parse_render_roundtrip_with_comments():
    text = "# a comment\n# another\n1 2\n2 6\n3 12\n"
    bf = parse_bfile(text)
    assert bf.offset == 1
    assert bf.values == (2, 6, 12)
    assert bf.comments == ("# a comment", "# another")
    assert render_bfile(bf) == text


def test_parse_accepts_nonunit_offset_and_negatives():
    bf = parse_bfile("0 1\n\n1 -5\n")
    assert bf.offset == 0
    assert bf.values == (1, -5)
    assert render_bfile(bf) == "0 1\n1 -5\n"  # index i holds values[i - offset]


@pytest.mark.parametrize(
    "text",
    [
        "",  # no data
        "1 2 3\n",  # too many tokens
        "1\n",  # too few
        "one 2\n",  # non-integer index
        "1 two\n",  # non-integer value
        "1 2\n3 4\n",  # gap in indices
        "1 2\n1 2\n",  # repeated index
        "1 2\n# late comment\n2 3\n",  # comment after data
        "1 1_0\n",  # int() reads 1_0 as 10
        "1_0 2\n",
        "1 \u0661\n",  # Arabic-Indic one, which int() reads as 1
        "1\xa02\n",  # split() parts tokens at a no-break space,
        "1\u20032\n",  # an em space
        "1 2\n2\u30003\n",  # and an ideographic space
        "1 2\x0c2 3\n",  # splitlines() breaks lines at a form feed,
        "1 2\x1e2 3\n",  # a record separator,
        "1 2\x852 3\n",  # a next-line control
        "1 2\u20282 3\n",  # and a line separator
        "1 2\n\xa0\n2 3\n",  # a line of non-ASCII space alone is no blank line:
        "1 2\n\u2028\n2 3\n",  # strip() would leave nothing of it
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(BFileParseError):
        parse_bfile(text)


def test_crlf_line_ends_are_line_ends():
    assert parse_bfile("# c\r\n1 2\r\n2 3\r\n") == BFile(offset=1, values=(2, 3), comments=("# c",))


def test_non_ascii_whitespace_is_a_non_integer_token():
    # str.split() would read "2\u30003" as the tokens "2" and "3"; the line
    # is refused as a bad token, not with the digit-limit message that the
    # regex fallback gives two valid tokens.
    with pytest.raises(BFileParseError, match="line 2: non-integer token"):
        parse_bfile("1 2\n2\u30003\n")


def test_linearize_rows():
    tri = triangle(Kind.WARD2, 3, Strategy.RECURRENCE)
    assert list(linearize(tri.rows)) == [1, 1, 3, 1, 10, 15]
    assert list(linearize(triangle(Kind.WARD2, 0, Strategy.RECURRENCE).rows)) == []


def test_linearize_reads_an_endless_stream_lazily():
    assert list(islice(linearize(stream(Kind.WARD2)), 6)) == [1, 1, 3, 1, 10, 15]


def test_linearization_bijection():
    # offset 1: index i <-> (n, k) with n(n-1)/2 + k = i
    for i in range(1, 466):
        n, k = index_to_entry(i, offset=1)
        assert 1 <= k <= n
        assert n * (n - 1) // 2 + k == i
    assert index_to_entry(0, offset=0) == (1, 1)
    assert index_to_entry(1, offset=0) == (2, 1)
    with pytest.raises(ValueError):
        index_to_entry(0, offset=1)


@pytest.mark.parametrize("kind", list(Kind))
def test_roundtrip_byte_identical_for_every_kind(kind):
    tri = triangle(kind, 30, Strategy.RECURRENCE)
    bf = BFile(offset=1, values=tuple(linearize(tri.rows)), comments=("# header",))
    text = render_bfile(bf)
    assert render_bfile(parse_bfile(text)) == text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_parse_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(BFileParseError) as err:
            parse_bfile("1 " + "7" * 5000)
        with pytest.raises(BFileParseError) as bad_token:
            parse_bfile("1 7x")
    finally:
        sys.set_int_max_str_digits(limit)
    message = str(err.value)
    assert "digit limit" in message and "non-integer" not in message
    assert "(5002 characters)" in message
    assert "non-integer token" in str(bad_token.value)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _oracle_parse_lines(lines, comments=None):
    # `parse_lines` as it was when it cut each line's ending off first.
    expected = None
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.removesuffix("\n").removesuffix("\r")
        line = raw.strip()
        if not line and raw.isascii():
            continue
        if line.startswith("#"):
            if expected is not None:
                raise BFileParseError(f"line {lineno}: comment after data lines")
            if comments is not None:
                comments.append(raw)
            continue
        if "_" in raw or not raw.isascii():
            raise BFileParseError(f"line {lineno}: non-integer token in {abbreviate(raw)!r}")
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"line {lineno}: expected 'index value', got {abbreviate(raw)!r}")
        try:
            index, val = int(parts[0]), int(parts[1])
        except ValueError:
            if all(_INTEGER.fullmatch(part) for part in parts):
                raise BFileParseError(
                    f"line {lineno}: integer in {abbreviate(raw)!r} exceeds the "
                    f"interpreter's int/str digit limit (sys.set_int_max_str_digits)"
                ) from None
            raise BFileParseError(f"line {lineno}: non-integer token in {abbreviate(raw)!r}") from None
        if expected is not None and index != expected:
            raise BFileParseError(f"line {lineno}: index {index} not contiguous (expected {expected})")
        expected = index + 1
        yield index, val
    if expected is None:
        raise BFileParseError("no data lines")


def _outcome(parse, lines):
    comments = []
    try:
        return list(parse(lines, comments)), comments
    except BFileParseError as exc:
        return str(exc), comments


# Digits, signs, "_", "#", ASCII whitespace that int(), split() and strip()
# all skip ("\x1c" among it), and non-ASCII space, letter and digit.
_CHARS = "0123456789+-_# \t\r\x0b\x1c\xa0é٣"
_SPACE = st.text(" \t\r\x0b\x1c\xa0", max_size=3)
# A token int() reads, "_" and non-ASCII digits included, that the b-file
# rules may still refuse.
_TOKEN = st.builds("{}{}".format, st.sampled_from(["", "+", "-"]), st.text("0123456789_٣", min_size=1, max_size=3))
_LINE = st.one_of(
    st.text(_CHARS, max_size=12),
    st.builds("".join, st.tuples(_SPACE, _TOKEN, _SPACE, _TOKEN, _SPACE)),
    st.builds("{} {}".format, st.integers(0, 3), st.integers(-5, 5)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r", ""])), max_size=6))
@example([("1_0 2", "\n")])
@example([("1 ٣", "\n")])
@example([("1 2\xa0", "\r\n")])
@example([("1\x1c2", ""), ("2\t\x0b3 ", "\r")])
def test_parse_lines_reads_every_line_as_the_split_rules_did(lines):
    lines = [text + end for text, end in lines]
    assert _outcome(parse_lines, lines) == _outcome(_oracle_parse_lines, lines)
