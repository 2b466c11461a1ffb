import sys
from itertools import islice

import pytest

from wardtri.bfile import (
    BFile,
    BFileParseError,
    index_to_entry,
    linearize,
    parse_bfile,
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
