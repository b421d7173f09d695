"""Certificate tables: the bundled coefficient datasets and their wire format.

A table holds, for every shadowing system of a given vertex count in
canonical order, the positive integer coefficients c_2..c_V and the exact
minimum of the weighted inequality sum.  The wire format is one record per
line, LF or CRLF, the header ``j_3,...,j_V,c_2,...,c_V,min_f`` first: ASCII
fields split on commas, with no quoting or escapes, and the minimum written
as "p" or "p/q".  Bytes that are not UTF-8 decode to U+FFFD.  This is the
comma-separated subset that serialize_certificate_table writes, not the csv
dialect: a quoted field is refused like any other malformed one.

Four such tables ship inside the package (appendix_v4.csv .. appendix_v7.csv,
6 + 24 + 120 + 720 rows); their sha256 digests live in data/checksums.json so
a silently modified copy is refused rather than verified.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Union

from monoproof.expansion import ShadowSystem, system_count
from monoproof.ratcore import parse_integer, parse_rational

PathLike = Union[str, Path]

BUNDLED_VERTEX_COUNTS = (4, 5, 6, 7)
_DATA = Path(__file__).parent / "data"


class ParseError(ValueError):
    """Malformed table contents; carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ChecksumMismatch(RuntimeError):
    """A bundled dataset differs from its recorded checksum."""


def _row_count(V: int) -> str:
    """(V-1)!, the number of rows of a table for V: in digits, or, when
    expansion.system_count refuses to print it, as the factorial itself,
    such as "1999!"."""
    try:
        return str(system_count(V))
    except ValueError:
        return f"{V - 1}!"


class TableRow(NamedTuple):
    """One system's coefficients c_2..c_V and the exact minimum they give."""

    system: ShadowSystem
    coeffs: tuple[int, ...]
    min_f: Fraction


@dataclass(frozen=True)
class CertificateTable:
    """What parse_certificate_table accepted: all (V-1)! rows for one vertex
    count, in canonical system order, each with V-1 positive coefficients.
    The constructor checks none of this."""

    V: int
    rows: tuple[TableRow, ...]

    def __len__(self) -> int:
        return len(self.rows)


def _expected_header(V: int) -> list[str]:
    return (
        [f"j_{i}" for i in range(3, V + 1)]
        + [f"c_{i}" for i in range(2, V + 1)]
        + ["min_f"]
    )


def _row_error(record: list[str], V: int, line: int) -> ParseError:
    """The error for the first bad field of a row in column order: a
    malformed, oversized or out-of-range j, a malformed, oversized or
    nonpositive c, or a malformed min_f.  Integer fields are read by
    ratcore.parse_integer.  Called only on a row that the parser's fast
    path refused, and every such row has one of these faults, so an error
    is always returned."""
    for k, text in enumerate(record[:-1]):
        kind, i = ("j", k + 3) if k < V - 2 else ("c", k - V + 4)
        try:
            value = parse_integer(text)
        except ValueError as exc:
            return ParseError(f"{kind}_{i} {exc}", line)
        if kind == "j" and not 1 <= value <= i - 1:
            return ParseError(f"j_{i} = {value} out of range 1..{i - 1}", line)
        if kind == "c" and value < 1:
            return ParseError(f"c_{i} = {value} must be positive", line)
    try:
        parse_rational(record[-1])
    except ValueError as exc:
        return ParseError(f"bad min_f: {exc}", line)


def parse_certificate_table(path: PathLike) -> CertificateTable:
    """Read and validate a certificate table from its wire-format file.

    The grammar is the one serialize_certificate_table writes: one record
    per line, LF or CRLF (the file is read with universal newlines), each
    line split on commas once its newline is stripped, with no quoting.
    A blank line is skipped.  j and c are ASCII digits and min_f is "p" or
    "p/q".  Bytes that are not UTF-8 decode to U+FFFD, which no field
    accepts, so they fail as a malformed field of their line.

    The vertex count is inferred from the header width, and a misnamed
    header names its first wrong column.  Rows must appear in canonical
    order and cover every system exactly once; anything malformed raises
    ParseError with the 1-based line number.

    This is the only validator of a table: neither TableRow nor
    CertificateTable checks what it is given.  Each row is read in one pass:
    one test that its j and c fields are all ASCII digits, then its integer
    fields are converted at once, ShadowSystem checks the j ranges and the
    parser the c signs.  Only a row that fails there is rescanned field by
    field (_row_error), so that the first bad field in column order is the
    one reported.  Row k must be system k, so the table is whole exactly
    when its last row is the last system, j(i) = i - 1 for every i; (V-1)!
    is computed only for the message of a table that is not.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file", 1)
        header = first.rstrip("\n").split(",") if first != "\n" else []  # blank: 0 columns
        width = len(header)
        if width < 6 or width % 2 != 0:
            raise ParseError(f"header has {width} columns, expected 2V-2", 1)
        V = (width + 2) // 2
        for k, (got, want) in enumerate(zip(header, _expected_header(V)), start=1):
            if got != want:  # name the first wrong column, not the whole header
                raise ParseError(f"bad header for V={V}: column {k} is {got!r}, "
                                 f"expected {want!r}", 1)
        rows: list[TableRow] = []
        for line, text in enumerate(fh, start=2):
            record = text.rstrip("\n").split(",")
            if record == [""]:  # a blank line
                continue
            if len(record) != width:
                raise ParseError(f"expected {width} fields, got {len(record)}", line)
            fields = record[:-1]
            digits = "".join(fields)  # j and c are positive: ASCII digits only
            try:  # a ValueError here only sends the row to _row_error
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                values = list(map(int, fields))
                coeffs = tuple(values[V - 2 :])
                if min(coeffs) < 1:
                    raise ValueError
                row = TableRow(ShadowSystem.from_choices(V, values[: V - 2]), coeffs,
                               parse_rational(record[-1]))
            except ValueError:
                raise _row_error(record, V, line) from None
            if row.system.system_id != len(rows):
                raise ParseError(
                    f"system {row.system.choices} out of canonical order "
                    f"(duplicate, missing, or misordered rows)",
                    line,
                )
            rows.append(row)
    if not rows or rows[-1].system.choices != tuple(range(2, V)):
        raise ParseError(f"expected {_row_count(V)} rows for V={V}, found {len(rows)}")
    return CertificateTable(V=V, rows=tuple(rows))


def serialize_certificate_table(table: CertificateTable) -> str:
    """Render a table back to its wire format (parse round-trips)."""
    lines = [",".join(_expected_header(table.V))]
    for row in table.rows:
        fields = (
            [str(j) for j in row.system.choices]
            + [str(c) for c in row.coeffs]
            + [str(row.min_f)]
        )
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def bundled_table_path(V: int) -> Path:
    """Filesystem path of the packaged table for one of V = 4..7."""
    if V not in BUNDLED_VERTEX_COUNTS:
        raise ValueError(f"no bundled table for V={V} (have {BUNDLED_VERTEX_COUNTS})")
    return _DATA / f"appendix_v{V}.csv"


def table_checksum(path: PathLike) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bundled_checksums() -> dict[str, str]:
    return dict(json.loads((_DATA / "checksums.json").read_text("utf-8")))


def verify_bundled_checksum(V: int) -> str:
    """Checksum the bundled table for V and compare against the manifest.

    Returns the hex digest; raises ChecksumMismatch when the shipped file no
    longer matches its recorded sha256.
    """
    path = bundled_table_path(V)
    digest = table_checksum(path)
    recorded = bundled_checksums().get(path.name)
    if recorded != digest:
        raise ChecksumMismatch(
            f"{path.name}: recorded sha256 {recorded} != actual {digest}"
        )
    return digest
