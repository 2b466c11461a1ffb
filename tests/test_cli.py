import argparse
import collections
import contextlib
import os
import subprocess
import sys
import tracemalloc
from math import factorial
from pathlib import Path

import pytest

import wardtri.cli
from wardtri import streams, triangles
from wardtri.bfile import BFile, linearize, render_bfile
from wardtri.cli import main
from wardtri.triangles import Kind, Strategy, triangle, value

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gen_bfile(capsys):
    code, out = run(capsys, "gen", "--kind", "ward2", "--rows", "3",
                    "--strategy", "recurrence", "--format", "bfile")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 1", "3 3", "4 1", "5 10", "6 15"]


def test_gen_bfile_offset(capsys):
    code, out = run(capsys, "gen", "--kind", "ward2", "--rows", "2",
                    "--format", "bfile", "--offset", "0")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 1", "2 3"]


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_gen_offset_outside_a_bfile_is_usage_error(capsys, fmt):
    # only a b-file has indexes, so an --offset elsewhere is refused, not ignored
    with pytest.raises(SystemExit) as err:
        main(["gen", "--kind", "ward1", "--rows", "2", "--format", fmt, "--offset", "-5"])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1] == f"wardtri gen: error: --offset applies only to --format bfile, not {fmt}"


@pytest.mark.parametrize("rows,offset", [(1, "0"), (7, "0"), (7, "1"), (7, "5"), (7, "-1"), (7, "+2")])
def test_gen_bfile_streams_the_rendered_bfile(capsys, rows, offset):
    code, out = run(capsys, "gen", "--kind", "binomial-ward2", "--rows", str(rows),
                    "--format", "bfile", "--offset", offset)
    assert code == 0
    values = tuple(linearize(triangle(Kind.BINOMIAL_WARD2, rows).rows))
    assert out == render_bfile(BFile(offset=int(offset), values=values))


def test_gen_csv(capsys):
    code, out = run(capsys, "gen", "--kind", "ward1", "--rows", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1", "0,1", "0,2,3"]


def test_gen_table_boundary_row(capsys):
    code, out = run(capsys, "gen", "--kind", "ward-lah", "--rows", "0",
                    "--strategy", "explicit", "--format", "table")
    assert code == 0
    assert out.strip() == "1"


def test_gen_bfile_refuses_zero_rows(capsys):
    # A b-file leaves out row 0, so it would be empty, and bfile-compare
    # refuses a b-file with no data line.
    with pytest.raises(SystemExit) as err:
        main(["gen", "--kind", "ward-lah", "--rows", "0", "--format", "bfile"])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text.splitlines()[-1] == (
        "wardtri gen: error: --rows must be at least 1 for a b-file, which leaves out row 0"
    )


def test_gen_kind_name_normalisation(capsys):
    code, out = run(capsys, "gen", "--kind", "WardLah", "--rows", "1",
                    "--strategy", "explicit")
    assert code == 0
    assert out.splitlines() == ["1", "0 2"]


def test_gen_unsupported_strategy_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--kind", "ward1", "--rows", "3", "--strategy", "explicit"])
    assert err.value.code == 2


def test_gen_unknown_kind_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--kind", "nonsense", "--rows", "3"])
    assert err.value.code == 2


def test_check_named_pair(capsys):
    code, out = run(capsys, "check", "--kind", "ward-lah", "--rows", "20",
                    "--strategies", "explicit,alternating-sum")
    assert code == 0
    assert "PASS" in out


def test_check_all_kinds(capsys):
    code, out = run(capsys, "check", "--kind", "all", "--rows", "8")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    # every kind contributes C(#strategies, 2) comparisons: 1+1+6+3+3+6+3+3+6
    assert len(lines) == 32
    assert "FAIL" not in out


def test_check_detects_fault(flip_entry, capsys):
    # `check` compares whole rows read through compare.stream; corrupt
    # ward2 partition-transform T(4, 2) there.
    flip_entry(Kind.WARD2, Strategy.PARTITION_TRANSFORM, 4, 2)
    code, out = run(capsys, "check", "--kind", "ward2", "--rows", "6")
    assert code == 1
    assert "FAIL" in out and "n=4 k=2" in out


def test_check_unsupported_strategy_single_kind():
    with pytest.raises(SystemExit) as err:
        main(["check", "--kind", "ward1", "--rows", "5",
              "--strategies", "explicit,recurrence"])
    assert err.value.code == 2


def test_check_skips_inapplicable_combinations(capsys):
    code, out = run(capsys, "check", "--kind", "all", "--rows", "6",
                    "--strategies", "explicit,alternating-sum")
    assert code == 0
    assert "note:" in out  # kinds without both routes are skipped
    assert "PASS equivalence-ward-lah-explicit~alternating-sum" in out


def test_identities_command(capsys):
    code, out = run(capsys, "identities", "--max-n", "8")
    assert code == 0
    assert "FAIL" not in out
    assert "horizontal-ward-lah" in out


def test_identities_exits_1_when_an_identity_fails(monkeypatch, capsys):
    # A wrong builder recurrence for varied-ward-lah, checked on its
    # explicit route, which does not use it: that one report fails.
    num, den = streams._RECURRENCE[Kind.VARIED_WARD_LAH]
    monkeypatch.setitem(streams._RECURRENCE, Kind.VARIED_WARD_LAH,
                        (lambda n, k, a, b: num(n, k, a, b) + 1, den))
    triangles.clear_caches()
    try:
        code, out = run(capsys, "identities", "--max-n", "8")
    finally:
        triangles.clear_caches()
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL triangular-varied-ward-lah ")


def test_identities_machine_format(capsys):
    code, out = run(capsys, "identities", "--max-n", "6", "--machine")
    assert code == 0
    for line in out.splitlines():
        assert all("=" in token for token in line.split())
        assert "status=pass" in line


def test_identities_machine_output_matches_the_golden_file(capsys):
    # Every report name, range, count and verdict of the suite at max-n 22,
    # byte for byte.  Regenerate it only for an intended change, with
    # `wardtri identities --max-n 22 --machine > tests/fixtures/identities-22.machine`.
    code, out = run(capsys, "identities", "--max-n", "22", "--machine")
    assert code == 0
    assert out == (FIXTURES / "identities-22.machine").read_text()


def test_identities_rejects_bad_range(capsys):
    # Below max-n 2 some checks would pass having compared no case.
    for max_n in ("0", "1"):
        with pytest.raises(SystemExit) as err:
            main(["identities", "--max-n", max_n])
        assert err.value.code == 2
        out, errors = capsys.readouterr()
        assert out == ""
        assert errors.splitlines()[-1].endswith("--max-n must be at least 2")


@pytest.mark.parametrize("which", ["stirling1", "stirling2", "central-lah"])
def test_conjecture_reports(capsys, which):
    code, out = run(capsys, "conjecture", which, "--max-n", "10")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("n=")) == 11
    assert lines[-1].endswith("all agree")


def test_conjecture_unknown_name():
    with pytest.raises(SystemExit) as err:
        main(["conjecture", "bell", "--max-n", "5"])
    assert err.value.code == 2


def test_bfile_compare_fixture(capsys):
    code, out = run(capsys, "bfile-compare", "--kind", "ward2",
                    "--file", str(FIXTURES / "b269939.txt"))
    assert code == 0
    assert "325 entries agree" in out


def test_bfile_compare_truncated_prefix(tmp_path, capsys):
    full = (FIXTURES / "b269939.txt").read_text().splitlines()
    short = tmp_path / "prefix.txt"
    short.write_text("\n".join(full[:12]) + "\n")  # 2 comments + 10 entries
    code, out = run(capsys, "bfile-compare", "--kind", "ward2", "--file", str(short))
    assert code == 0
    assert "10 entries agree" in out


def test_bfile_compare_off_by_one_offset(monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("built a triangle")

    # the first index decides
    monkeypatch.setattr(triangles, "triangle", no_build)
    monkeypatch.setattr(streams, "stream", no_build)
    code, out = run(capsys, "bfile-compare", "--kind", "ward2",
                    "--file", str(FIXTURES / "b269939.txt"), "--offset", "2")
    assert code == 1
    assert out == "mismatch at index 1: index below offset 2\n"


def test_bfile_compare_file_past_offset_is_usage_error(tmp_path, monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("built a triangle")

    monkeypatch.setattr(triangles, "triangle", no_build)
    monkeypatch.setattr(streams, "stream", no_build)
    far = tmp_path / "far.txt"
    far.write_text("1000000000 1\n")
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--file", str(far)])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1].endswith("first index 1000000000 is past --offset 1")


def test_bfile_compare_non_ascii_digit_is_usage_error(tmp_path, capsys):
    odd = tmp_path / "odd.txt"
    odd.write_text("1 1\n2 \u0661\n3 3\n", encoding="utf-8")  # ward2 T(2,1) = 1
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--file", str(odd)])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert "line 2: non-integer token" in errors.splitlines()[-1]


def test_bfile_compare_line_separator_inside_a_line_is_usage_error(tmp_path, capsys):
    # ward2 T(1,1), T(2,1), T(2,2); a non-ASCII space at either end of a
    # line is refused as one inside it is, and so is a line holding only
    # non-ASCII space.
    odd = tmp_path / "odd.txt"
    for text, lineno in [
        ("1 1\u20282 1\n3 3\n", 1),
        ("1 1\u2028\n2 1\n3 3\n", 1),
        ("\u00a01 1\n2 1\n3 3\n", 1),
        ("1 1\n\u00a0\n2 1\n3 3\n", 2),
        ("1 1\n\u2028\n2 1\n3 3\n", 2),
    ]:
        odd.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            main(["bfile-compare", "--kind", "ward2", "--file", str(odd)])
        assert err.value.code == 2
        out, errors = capsys.readouterr()
        assert out == ""
        assert f"line {lineno}: non-integer token" in errors.splitlines()[-1], text


def test_bfile_compare_ends_lines_at_lf_and_crlf_only(tmp_path, capsys):
    # A lone CR ends no line, as in parse_bfile: "1 1\r2 1" is one line.
    lone_cr = tmp_path / "cr.bin"
    lone_cr.write_bytes(b"1 1\r2 1\n3 3\n")  # ward2 T(1,1), T(2,1), T(2,2)
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--file", str(lone_cr)])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert "line 1: expected 'index value'" in errors.splitlines()[-1]
    crlf = tmp_path / "crlf.bin"
    crlf.write_bytes(b"1 1\r\n2 1\r\n3 3\r\n")
    code, out = run(capsys, "bfile-compare", "--kind", "ward2", "--file", str(crlf))
    assert code == 0
    assert "3 entries agree" in out


def test_bfile_compare_corrupted_value(tmp_path, capsys):
    lines = (FIXTURES / "b269939.txt").read_text().splitlines()
    lines[6] = "5 11"  # true value is 10 at (n=3, k=2)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "bfile-compare", "--kind", "ward2", "--file", str(bad))
    assert code == 1
    assert "mismatch at index 5" in out
    assert "n=3, k=2" in out
    assert "expected 10, found 11" in out


def test_bfile_compare_parse_error_after_a_mismatch_is_usage_error(tmp_path, capsys):
    lines = (FIXTURES / "b269939.txt").read_text().splitlines()
    lines[6] = "5 11"  # a mismatch at index 5
    lines[200] = "9999 1"  # then indices that are not contiguous
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--file", str(bad)])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1].endswith("line 201: index 9999 not contiguous (expected 199)")


def test_bfile_compare_undecodable_byte_far_on_is_usage_error(tmp_path, capsys):
    # Past a mismatch and past any chunk the file is read in: the message
    # counts the byte's position from the start of the file.
    head = b"1 1\n2 2\n" + b"# pad\n" * 4000
    bad = tmp_path / "bad.txt"
    bad.write_bytes(head + b"\xff\n")
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--file", str(bad)])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1].endswith(
        f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position {len(head)}: invalid start byte"
    )


def test_bfile_compare_parse_error(tmp_path):
    bad = tmp_path / "malformed.txt"
    bad.write_text("1 2\n3 4\n")  # non-contiguous indices
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--file", str(bad)])
    assert err.value.code == 2


def test_bfile_compare_missing_file():
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--file", "/nonexistent.txt"])
    assert err.value.code == 2


@pytest.mark.parametrize("contents", [None, "1 2\n3 4\n"], ids=["missing", "malformed"])
def test_bfile_compare_refuses_an_unsupported_strategy_before_reading(tmp_path, monkeypatch, capsys,
                                                                       contents):
    path = tmp_path / "b.txt"
    if contents is not None:
        path.write_text(contents)

    def no_open(*args, **kwargs):
        raise AssertionError("opened the file")

    monkeypatch.setattr(wardtri.cli, "open", no_open, raising=False)
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--strategy", "explicit", "--file", str(path)])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1] == "wardtri bfile-compare: error: ward2 does not support: explicit"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "ward2", "--rows", "3", "--strategy", "explicit"],
        ["check", "--kind", "ward2", "--strategies", "explicit,recurrence"],
        ["bench", "--kind", "ward2", "--rows", "3", "--strategies", "explicit"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_missing_route_is_worded_alike_by_every_command(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1] == f"wardtri {argv[0]}: error: ward2 does not support: explicit"


def test_bench_structure(capsys):
    code, out = run(capsys, "bench", "--kind", "ward-lah", "--rows", "40",
                    "--strategies", "recurrence,explicit")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["kind", "strategy", "rows", "entries", "max_bits", "seconds"]
    assert len(lines) == 3
    for line in lines[1:]:
        kind, strategy, rows, entries, max_bits, seconds = line.split()
        assert kind == "ward-lah"
        assert int(rows) == 40
        assert int(entries) == 41 * 42 // 2
        assert int(max_bits) > 0
        float(seconds)


def test_gen_transform_past_40_rows(capsys):
    code, out = run(capsys, "gen", "--kind", "ward-lah", "--rows", "41",
                    "--strategy", "partition-transform", "--format", "table")
    assert code == 0
    assert len(out.splitlines()) == 42
    row41 = [int(v) for v in out.splitlines()[41].split()]
    assert row41 == [value(Kind.WARD_LAH, 41, k, Strategy.EXPLICIT) for k in range(42)]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "ward1", "--rows", "-1"],
        ["check", "--rows", "-3"],
        ["conjecture", "stirling1", "--max-n", "-2"],
        ["identities", "--max-n", "-1"],
        ["bench", "--kind", "ward1", "--rows", "-1"],
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1].endswith(f"expected a nonnegative integer, got '{argv[-1]}'")
    assert "Traceback" not in errors


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "ward1", "--rows", str(sys.maxsize)],
        ["check", "--rows", "9" * 40],
        ["identities", "--max-n", str(sys.maxsize + 1)],
        ["bench", "--kind", "ward1", "--rows", str(sys.maxsize)],
    ],
)
def test_counts_too_large_to_index_a_row_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1].endswith(f"expected an integer below {sys.maxsize}, got {argv[-1]!r}")
    assert "Traceback" not in errors


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "ward1", "--rows", "\uff13"],
        ["check", "--rows", "1_0"],
        ["identities", "--max-n", "\u0661\u0662"],
        ["gen", "--kind", "ward1", "--rows", "2", "--format", "bfile", "--offset", "1_0"],
        ["gen", "--kind", "ward1", "--rows", "2", "--format", "bfile", "--offset", "\uff11"],
        ["gen", "--kind", "ward1", "--rows", "2", "--format", "bfile", "--offset", " 1"],
        ["bfile-compare", "--kind", "ward2", "--file", str(FIXTURES / "b269939.txt"), "--offset", "+-1"],
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1].endswith(f"integer, got {argv[-1]!r}")
    assert "Traceback" not in errors


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--kind", ","],
        ["check", "--kind", "ward1", "--strategies", ","],
        ["bench", "--kind", "ward1", "--rows", "5", "--strategies", ","],
        ["check", "--kind", "ward1,ward2", "--strategies", "explicit,scaling"],
        ["check", "--kind", "ward1", "--strategies", "recurrence,Recurrence"],
    ],
    ids=["no-kind", "no-strategy", "bench-no-strategy", "no-pair", "route-with-itself"],
)
def test_nothing_to_run_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in errors
    assert errors.splitlines()[-1].startswith("wardtri")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "ward2", "--rows", "3", "--strategy", "explicit"],
        ["check", "--kind", "ward1", "--strategies", "explicit"],
        ["identities", "--max-n", "0"],
        ["conjecture", "central-lah", "--max-n", "x"],
        ["bfile-compare", "--kind", "ward2", "--file", "/nonexistent.txt"],
        # bench resolves its routes before it prints its header
        ["bench", "--kind", "ward2", "--rows", "5", "--strategies", "explicit"],
    ],
    ids=lambda argv: argv[0],
)
def test_usage_errors_name_their_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    lines = errors.splitlines()
    assert lines[0].startswith(f"usage: wardtri {argv[0]} ")
    assert lines[-1].startswith(f"wardtri {argv[0]}: error: ")


def test_bfile_compare_undecodable_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b"\xff\xfe1 1\n")
    with pytest.raises(SystemExit) as err:
        main(["bfile-compare", "--kind", "ward2", "--file", str(bad)])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1].startswith(f"wardtri bfile-compare: error: cannot read {bad}: ")
    assert "Traceback" not in errors


def test_bfile_compare_value_past_the_digit_limit(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("1 " + "7" * 5000 + "\n")  # ward2 T(1,1) = 1
    code, out = run(capsys, "bfile-compare", "--kind", "ward2", "--file", str(big))
    assert code == 1
    assert out.startswith("mismatch at index 1 (n=1, k=1): expected 1, found 777")
    assert "(5000 characters)" in out
    assert len(out) < 200


def test_gen_value_past_the_digit_limit(capsys):
    # 640 is the lowest limit CPython accepts; T(170, 170) = 340! has 715 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(capsys, "gen", "--kind", "varied-ward-lah", "--rows", "170",
                        "--strategy", "explicit", "--format", "bfile")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert out.splitlines()[-1] == f"{170 * 171 // 2} {factorial(340)}"


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "ward2", "--rows", "3"],
    ["gen", "--kind", "ward2", "--rows", "-1"],  # a usage error exits through SystemExit
], ids=["gen", "usage-error"])
def test_main_restores_the_digit_limit(capsys, argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with contextlib.suppress(SystemExit):
            main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_streamed_commands_hold_one_row_at_a_time(tmp_path, capsys):
    # At 300 rows the entries of binomial-ward2 take about 11 MB; a streamed
    # check, bfile-compare or bench peaks at a small part of that (about
    # 0.7 MB, 0.4 MB and 0.6 MB under CPython 3.11), where holding whole
    # triangles or the whole file took 32 MB, 59 MB and 32 MB.
    rows = 300
    whole = sum(sys.getsizeof(v) for row in triangle(Kind.BINOMIAL_WARD2, rows).rows for v in row)
    triangles.clear_caches()
    path = tmp_path / "b.txt"
    with path.open("w") as f, contextlib.redirect_stdout(f):
        assert main(["gen", "--kind", "binomial-ward2", "--rows", str(rows), "--format", "bfile"]) == 0
    commands = [
        ["check", "--kind", "binomial-ward2", "--rows", str(rows), "--strategies", "recurrence,scaling"],
        ["bfile-compare", "--kind", "binomial-ward2", "--strategy", "scaling", "--file", str(path)],
        ["bench", "--kind", "binomial-ward2", "--rows", str(rows), "--strategies", "recurrence,scaling"],
    ]
    for argv in commands:
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, argv
        assert peak < whole / 8, (argv[0], peak, whole)
    out = capsys.readouterr().out
    assert "PASS equivalence-binomial-ward2-recurrence~scaling" in out
    assert f"{rows * (rows + 1) // 2} entries agree" in out


def test_check_builds_each_route_once(monkeypatch, capsys):
    # Three routes of varied-ward-lah, three pairs: each route's step runs
    # once per row, and scaling's base (ward-lah's recurrence) once too.
    made = collections.Counter()
    for strategy, step in list(streams._STEP.items()):
        def counted(kind, n, *source, strategy=strategy, step=step):
            made[kind, strategy, n] += 1
            return step(kind, n, *source)

        monkeypatch.setitem(streams._STEP, strategy, counted)
    code, out = run(capsys, "check", "--kind", "varied-ward-lah", "--rows", "12",
                    "--strategies", "recurrence,explicit,scaling")
    assert code == 0 and out.count("PASS") == 3
    routes = [(Kind.VARIED_WARD_LAH, s) for s in (Strategy.RECURRENCE, Strategy.EXPLICIT, Strategy.SCALING)]
    routes.append((Kind.WARD_LAH, Strategy.RECURRENCE))
    assert made == {(kind, s, n): 1 for kind, s in routes for n in range(1, 13)}


def test_a_run_adds_only_its_own_arguments(monkeypatch, capsys):
    # The parser of a check run gets check's three options and the -h of
    # its two parsers, the top level's and check's, and nothing else.
    added = collections.Counter()
    real = argparse.ArgumentParser.add_argument

    def recorded(self, *names, **kwargs):
        added[names] += 1
        return real(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recorded)
    code, out = run(capsys, "check", "--kind", "ward2", "--rows", "3", "--strategies", "recurrence,partition-transform")
    assert code == 0 and out.count("PASS") == 1
    assert added == {("-h", "--help"): 2, ("--kind",): 1, ("--rows",): 1, ("--strategies",): 1}


@pytest.mark.parametrize("argv, parsers", [
    (["check", "--kind", "ward2", "--rows", "3", "--strategies", "recurrence,partition-transform"], 2),
    (["--help"], 7),
    (["nope", "--rows", "3"], 7),
])
def test_a_run_builds_only_its_own_subparser(monkeypatch, capsys, argv, parsers):
    # A run builds the top-level parser and its command's subparser; --help
    # and an unknown command build every command's.
    built = []
    real = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    with contextlib.suppress(SystemExit):
        main(argv)
    assert len(built) == parsers, built


def test_a_top_level_usage_error_after_a_command_names_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal's width
    with pytest.raises(SystemExit) as err:
        main(["check", "--rows", "3", "extra"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["usage: wardtri [-h] {gen,check,identities,conjecture,bfile-compare,bench} ...",
                     "wardtri: error: unrecognized arguments: extra"]


# Runs the command line as `python -m wardtri.cli` does, in a fresh
# interpreter (this one has imported every module) without `site`, and
# prints the exit code and the modules loaded.  There `wardtri.cli` runs as
# `__main__`, so it is loaded as `wardtri.cli` only if a command imports it
# a second time.
_FOOTPRINT = """
import io, runpy, sys
sys.stdout = io.StringIO()
try:
    runpy.run_module("wardtri.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.__stdout__.write(f"{code} {' '.join(sorted(sys.modules))}")
"""


def run_bare(script, *argv):
    """The stdout of `script` run with `argv` in a fresh interpreter without `site`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-S", "-c", script, *argv],
                          capture_output=True, text=True, env=env, check=True, timeout=60).stdout


def loaded_modules(*argv, status=0):
    code, *modules = run_bare(_FOOTPRINT, *argv).split()
    assert code == str(status)
    return set(modules)


ENGINE = {"wardtri.streams", "wardtri.triangles", "wardtri.partition_transform", "wardtri.exact_arith",
          "wardtri.compare", "wardtri.bfile", "wardtri.identities"}
TRANSFORM = "wardtri.partition_transform"
STREAMS, MEMO = "wardtri.streams", "wardtri.triangles"


def command_modules(modules):
    return {m for m in modules if m.split(".")[:2] == ["wardtri", "commands"]}


def test_each_command_loads_only_what_it_runs():
    check = loaded_modules("check", "--kind", "ward2", "--rows", "5",
                           "--strategies", "recurrence,partition-transform")
    check_closed = loaded_modules("check", "--kind", "varied-ward1", "--rows", "5",
                                  "--strategies", "recurrence,scaling")
    gen = loaded_modules("gen", "--kind", "ward2", "--rows", "3")
    gen_transform = loaded_modules("gen", "--kind", "ward2", "--rows", "3", "--strategy", "partition-transform")
    compare = loaded_modules("bfile-compare", "--kind", "ward2", "--file", str(FIXTURES / "b269939.txt"))
    usage = loaded_modules("--help")
    bad_kind = loaded_modules("check", "--kind", "nope", status=2)
    package = set(run_bare("import sys, wardtri; print(*sys.modules)").split())
    identities = loaded_modules("identities", "--max-n", "3")
    conjecture = loaded_modules("conjecture", "stirling2", "--max-n", "3")
    bench = loaded_modules("bench", "--kind", "ward2", "--rows", "3", "--strategies", "recurrence")
    bodies = {"check": (check, check_closed), "gen": (gen, gen_transform), "bfile_compare": (compare,),
              "identities": (identities,), "conjecture": (conjecture,), "bench": (bench,)}
    for body, runs in bodies.items():
        for modules in runs:
            # wardtri.cli ran as __main__: no command loads it a second time.
            assert not modules & {"dataclasses", "inspect", "wardtri.cli"}
            assert command_modules(modules) == {"wardtri.commands", f"wardtri.commands.{body}"}
    assert not usage & {"dataclasses", "inspect"}
    for modules in (check, check_closed, gen, gen_transform, compare, usage):
        assert not modules & {"fractions", "wardtri.identities"}
    for modules in (check, check_closed, compare, usage, identities, conjecture):
        assert "decimal" not in modules
    for modules in (usage, package):
        assert "wardtri" in modules and not modules & ENGINE and not command_modules(modules)
    # A usage error inside a command loads that command's arguments, no engine.
    assert command_modules(bad_kind) == {"wardtri.commands", "wardtri.commands.check"}
    assert "wardtri" in bad_kind and not bad_kind & ENGINE
    for modules in (check_closed, gen, compare, identities, conjecture, bench):
        assert TRANSFORM not in modules
    # Streams alone, without the memo, for the commands that read each row once.
    for modules in (check, check_closed, gen, gen_transform, compare, bench):
        assert STREAMS in modules and MEMO not in modules
    for modules in (identities, conjecture):
        assert {STREAMS, MEMO} <= modules
    assert TRANSFORM in check and TRANSFORM in gen_transform
    assert "decimal" in gen
    assert "wardtri.compare" in check and "wardtri.bfile" not in check
    assert "wardtri.bfile" in compare
    assert "wardtri.identities" in identities and "fractions" not in identities


# Where each public name of the package is defined.
_PUBLIC = {
    "wardtri": ["Kind", "Strategy"],
    "wardtri.exact_arith": ["ExactnessError", "exact_div"],
    "wardtri.partition_transform": ["partition_transform"],
    "wardtri.streams": ["UnsupportedStrategyError", "constant_one", "stream", "ward_first_kind",
                        "ward_second_kind"],
    "wardtri.triangles": ["Kind", "Strategy", "Triangle", "central", "lah", "stirling1_unsigned", "stirling2",
                          "triangle", "value"],
}

# Imports the package by `sys.argv[1]` and then checks, for each public
# name, that the package holds the object its defining module exports.
_NAMESPACE = """
import importlib, sys
exec(sys.argv[1])
import wardtri
public = %r
for module, names in public.items():
    for name in names:
        assert getattr(wardtri, name) is getattr(importlib.import_module(module), name), (module, name)
assert sorted({n for names in public.values() for n in names}) == sorted(wardtri.__all__)
assert set(wardtri.__all__) <= set(dir(wardtri))
star = {}
exec("from wardtri import *", star)
assert all(star[name] is getattr(wardtri, name) for name in wardtri.__all__)
print("ok")
""" % (_PUBLIC,)


@pytest.mark.parametrize("first", [
    "import wardtri",
    "import wardtri.triangles",
    "import wardtri.streams",
    "importlib.import_module('wardtri.partition_transform')",
    # the transform loaded by the first transform row, not by the import
    "import wardtri.triangles as t; assert 'wardtri.partition_transform' not in sys.modules; "
    "t.triangle(t.Kind.WARD2, 2, t.Strategy.PARTITION_TRANSFORM); "
    "assert 'wardtri.partition_transform' in sys.modules",
])
def test_each_public_name_is_its_defining_object_in_any_import_order(first):
    assert run_bare(_NAMESPACE, first) == "ok\n"


def test_a_closed_stdout_ends_quietly_with_status_141():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "wardtri.cli", "gen", "--kind", "ward2", "--rows", "200",
                             "--format", "bfile"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1 1\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--kind", "ward1", "--rows", "0"], "--rows must be at least 1"),
        (["conjecture", "stirling1", "--max-n", "0"], "--max-n must be at least 1"),
    ],
    ids=["check", "conjecture"],
)
def test_a_range_of_row_0_alone_is_refused(capsys, argv, message):
    # Row 0 is the seeded T(0, 0) = 1 that every route starts from, so a
    # verdict on it alone would be vacuous.
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines()[-1] == f"wardtri {argv[0]}: error: {message}"
    assert not loaded_modules(*argv, status=2) & ENGINE


def test_bench_rejects_zero_rows():
    with pytest.raises(SystemExit) as err:
        main(["bench", "--kind", "ward1", "--rows", "0"])
    assert err.value.code == 2


def test_usage_error_no_command():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
