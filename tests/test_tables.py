import csv
import math
import re

import pytest

from monoproof.expansion import ShadowSystem
from monoproof.prover import verify_certificate
from monoproof.tables import (
    BUNDLED_VERTEX_COUNTS,
    ChecksumMismatch,
    ParseError,
    RangeError,
    bundled_checksums,
    bundled_table_path,
    parse_certificate_table,
    serialize_certificate_table,
    table_checksum,
    verify_bundled_checksum,
)


def bundled_lines(V=4):
    return bundled_table_path(V).read_text("utf-8").splitlines()


def write_table(tmp_path, lines, name="table.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("V", BUNDLED_VERTEX_COUNTS)
def test_bundled_tables_parse(V):
    table = parse_certificate_table(bundled_table_path(V))
    assert table.V == V
    assert len(table) == math.factorial(V - 1)


@pytest.mark.parametrize("V", BUNDLED_VERTEX_COUNTS)
def test_serialize_reproduces_bundled_bytes(V):
    table = parse_certificate_table(bundled_table_path(V))
    assert serialize_certificate_table(table) == bundled_table_path(V).read_text("utf-8")


def test_round_trip(tmp_path):
    table = parse_certificate_table(bundled_table_path(4))
    path = write_table(tmp_path, serialize_certificate_table(table).splitlines())
    assert parse_certificate_table(path) == table


def test_bundled_v4_rows_verify_exactly():
    # cheap end-to-end tie-in; the full sweep lives in the acceptance suite
    table = parse_certificate_table(bundled_table_path(4))
    for row in table.rows:
        result = verify_certificate(4, row.system, row.coeffs)
        assert result.positive
        assert result.min_value == row.min_f


def test_first_v4_row_contents():
    table = parse_certificate_table(bundled_table_path(4))
    first = table.rows[0]
    assert first.system == ShadowSystem(4, (1, 1, 1))
    assert len(first.coeffs) == 3
    assert first.min_f > 0


def test_blank_lines_are_skipped(tmp_path):
    lines = bundled_lines()
    lines.insert(3, "")
    path = write_table(tmp_path, lines)
    assert len(parse_certificate_table(path)) == 6


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match="empty file") as info:
        parse_certificate_table(path)
    assert info.value.line == 1


def test_bytes_that_are_not_utf8_fail_on_their_line(tmp_path):
    lines = [line.encode("utf-8") for line in bundled_lines()]
    lines[3] = lines[3].replace(b",", b",\xff", 1)  # into j_4 of line 4
    path = tmp_path / "latin.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError, match="j_4 must be an integer") as info:
        parse_certificate_table(path)
    assert info.value.line == 4


def test_field_over_the_csv_size_limit_fails_on_its_line(tmp_path):
    lines = bundled_lines()
    lines[2] += "9" * (csv.field_size_limit() + 1)
    path = write_table(tmp_path, lines)
    with pytest.raises(ParseError, match="field larger than field limit") as info:
        parse_certificate_table(path)
    assert info.value.line == 3


def test_header_name_mismatch(tmp_path):
    lines = bundled_lines()
    lines[0] = lines[0].replace("min_f", "minimum")
    path = write_table(tmp_path, lines)
    with pytest.raises(ParseError, match="bad header") as info:
        parse_certificate_table(path)
    assert info.value.line == 1


def test_header_odd_width(tmp_path):
    path = write_table(tmp_path, ["j_3,j_4,c_2,c_3,c_4"])
    with pytest.raises(ParseError, match="columns"):
        parse_certificate_table(path)


def test_row_with_wrong_field_count(tmp_path):
    lines = bundled_lines()
    lines[2] += ",9"
    path = write_table(tmp_path, lines)
    with pytest.raises(ParseError, match="fields") as info:
        parse_certificate_table(path)
    assert info.value.line == 3


def test_j_out_of_range(tmp_path):
    lines = bundled_lines()
    parts = lines[1].split(",")
    parts[0] = "3"  # j_3 may only be 1 or 2
    lines[1] = ",".join(parts)
    path = write_table(tmp_path, lines)
    with pytest.raises(RangeError, match="j_3 = 3") as info:
        parse_certificate_table(path)
    assert info.value.line == 2


def test_non_integer_j(tmp_path):
    lines = bundled_lines()
    lines[1] = "x" + lines[1][1:]
    path = write_table(tmp_path, lines)
    with pytest.raises(ParseError, match="j_3 must be an integer"):
        parse_certificate_table(path)


def with_fields(lines, line, **fields):
    """Copy of the table lines with named fields of one 1-based line replaced."""
    header = lines[0].split(",")
    parts = lines[line - 1].split(",")
    for name, text in fields.items():
        parts[header.index(name)] = text
    return lines[: line - 1] + [",".join(parts)] + lines[line:]


def test_non_integer_c(tmp_path):
    path = write_table(tmp_path, with_fields(bundled_lines(), 3, c_3="4.5"))
    with pytest.raises(ParseError, match="c_3 must be an integer, got '4.5'") as info:
        parse_certificate_table(path)
    assert type(info.value) is ParseError
    assert info.value.line == 3


def test_first_bad_field_in_column_order_is_reported(tmp_path):
    # an out-of-range j_3 comes before a malformed c_2, as it did when every
    # field was checked in turn
    path = write_table(tmp_path, with_fields(bundled_lines(), 2, j_3="5", c_2="x"))
    with pytest.raises(RangeError, match="j_3 = 5 out of range 1..2") as info:
        parse_certificate_table(path)
    assert info.value.line == 2


def test_malformed_j_reports_its_line(tmp_path):
    path = write_table(tmp_path, with_fields(bundled_lines(), 5, j_4="four"))
    with pytest.raises(ParseError, match="j_4 must be an integer, got 'four'") as info:
        parse_certificate_table(path)
    assert info.value.line == 5


# int() would take a sign, surrounding spaces, underscores and non-ASCII
# digits, and every row of the table would still verify
@pytest.mark.parametrize("field, bad", [("c_3", "+94"), ("c_3", " 94"), ("c_3", "9_4"),
                                        ("c_3", "\u0669\u0664"), ("j_4", "+1"),
                                        ("j_4", "\u0661")])
def test_integer_fields_take_ascii_digits_only(tmp_path, field, bad):
    path = write_table(tmp_path, with_fields(bundled_lines(), 4, **{field: bad}))
    message = re.escape(f"{field} must be an integer, got {bad!r}")
    with pytest.raises(ParseError, match=message) as info:
        parse_certificate_table(path)
    assert type(info.value) is ParseError
    assert info.value.line == 4


# int() raises past Python's int-to-str limit (4,300 digits by default)
@pytest.mark.parametrize("field", ["j_4", "c_3"])
def test_integer_field_past_the_digit_limit_fails_on_its_line(tmp_path, field):
    path = write_table(tmp_path, with_fields(bundled_lines(), 4, **{field: "1" * 5000}))
    with pytest.raises(ParseError, match=f"{field} has 5000 digits") as info:
        parse_certificate_table(path)
    assert info.value.line == 4


def test_row_count_too_long_to_print(tmp_path):
    """1999!, the row count for V = 2,000, has 5,700 digits, more than
    Python's int-to-str limit prints; the error writes it as 1999!."""
    V = 2000
    header = [f"j_{i}" for i in range(3, V + 1)] + [f"c_{i}" for i in range(2, V + 1)]
    path = write_table(tmp_path, [",".join([*header, "min_f"])])
    with pytest.raises(ParseError, match=re.escape("expected 1999! rows for V=2000, found 0")):
        parse_certificate_table(path)


# "0" and "00" are ASCII digits and fail the parser's own sign test; "-3"
# fails the digit test first.  Both paths report the field from _row_error.
@pytest.mark.parametrize("bad", ["0", "00", "-3"])
def test_non_positive_coefficient(tmp_path, bad):
    path = write_table(tmp_path, with_fields(bundled_lines(), 2, c_2=bad))
    with pytest.raises(ParseError, match=f"c_2 = {int(bad)} must be positive") as info:
        parse_certificate_table(path)
    assert type(info.value) is ParseError
    assert info.value.line == 2


@pytest.mark.parametrize("bad", ["1.5", "7/0", "", "3 / 4", "\u0661\u0663/\u0669"])
def test_bad_minimum_field(tmp_path, bad):
    lines = bundled_lines()
    parts = lines[1].split(",")
    parts[-1] = bad
    lines[1] = ",".join(parts)
    path = write_table(tmp_path, lines)
    with pytest.raises(ParseError, match="bad min_f"):
        parse_certificate_table(path)


def test_swapped_rows_rejected(tmp_path):
    lines = bundled_lines()
    lines[2], lines[3] = lines[3], lines[2]
    path = write_table(tmp_path, lines)
    with pytest.raises(ParseError, match="canonical order") as info:
        parse_certificate_table(path)
    assert info.value.line == 2 + 1  # first offending row


def test_duplicated_row_rejected(tmp_path):
    lines = bundled_lines()
    lines[2] = lines[1]
    path = write_table(tmp_path, lines)
    with pytest.raises(ParseError, match="canonical order"):
        parse_certificate_table(path)


def test_missing_row_rejected(tmp_path):
    path = write_table(tmp_path, bundled_lines()[:-1])
    with pytest.raises(ParseError, match="expected 6 rows"):
        parse_certificate_table(path)


def test_bundled_path_unknown_vertex_count():
    with pytest.raises(ValueError, match="no bundled table"):
        bundled_table_path(8)


def test_checksums_cover_all_bundled_tables():
    recorded = bundled_checksums()
    for V in BUNDLED_VERTEX_COUNTS:
        path = bundled_table_path(V)
        assert recorded[path.name] == table_checksum(path)
        digest = verify_bundled_checksum(V)
        assert digest == recorded[path.name]
        assert len(digest) == 64


def test_checksum_mismatch_raised(tmp_path, monkeypatch):
    import monoproof.tables as tables

    lines = bundled_lines()
    parts = lines[1].split(",")
    parts[2] = str(int(parts[2]) + 1)
    lines[1] = ",".join(parts)
    tampered = write_table(tmp_path, lines, name="appendix_v4.csv")
    monkeypatch.setattr(tables, "bundled_table_path", lambda V: tampered)
    with pytest.raises(ChecksumMismatch, match="appendix_v4.csv"):
        verify_bundled_checksum(4)
