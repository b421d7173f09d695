"""Certificate tables: the bundled coefficient datasets and their CSV format.

A table holds, for every shadowing system of a given vertex count in
canonical order, the positive integer coefficients c_2..c_V and the exact
minimum of the weighted inequality sum.  The wire format is CSV with header
``j_3,...,j_V,c_2,...,c_V,min_f`` and minima written as "p/q".

Four such tables ship inside the package (appendix_v4.csv .. appendix_v7.csv,
6 + 24 + 120 + 720 rows); their sha256 digests live in data/checksums.json so
a silently modified copy is refused rather than verified.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Union

from monoproof.expansion import ShadowSystem
from monoproof.ratcore import parse_integer, parse_rational

PathLike = Union[str, Path]

BUNDLED_VERTEX_COUNTS = (4, 5, 6, 7)
_DATA = Path(__file__).parent / "data"


class ParseError(ValueError):
    """Malformed table contents; carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class RangeError(ParseError):
    """A j(i) entry outside 1..i-1."""


class ChecksumMismatch(RuntimeError):
    """A bundled dataset differs from its recorded checksum."""


def _row_count(V: int) -> str:
    """(V-1)!, the number of rows of a table for V: in digits, or past
    Python's int-to-str limit as the factorial itself, such as "1999!"."""
    try:
        return str(math.factorial(V - 1))
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


def _row_error(record: list[str], V: int, line: int) -> Optional[ParseError]:
    """The error for the first bad field of a row in column order (a
    malformed, oversized or out-of-range j, a malformed, oversized or
    nonpositive c, a malformed min_f), or None.  Integer fields are read by
    ratcore.parse_integer."""
    for k, text in enumerate(record[:-1]):
        kind, i = ("j", k + 3) if k < V - 2 else ("c", k - V + 4)
        try:
            value = parse_integer(text)
        except ValueError as exc:
            return ParseError(f"{kind}_{i} {exc}", line)
        if kind == "j" and not 1 <= value <= i - 1:
            return RangeError(f"j_{i} = {value} out of range 1..{i - 1}", line)
        if kind == "c" and value < 1:
            return ParseError(f"c_{i} = {value} must be positive", line)
    try:
        parse_rational(record[-1])
    except ValueError as exc:
        return ParseError(f"bad min_f: {exc}", line)


def _records(reader):
    """The csv reader's records; a csv error, such as a field over
    csv.field_size_limit(), becomes a ParseError on the line it stopped at."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def parse_certificate_table(path: PathLike) -> CertificateTable:
    """Read and validate a certificate table from a CSV file.

    The vertex count is inferred from the header width.  Rows must appear in
    canonical order and cover every system exactly once; out-of-range j
    entries raise RangeError, everything else malformed raises ParseError,
    both with the 1-based line number.  Bytes that are not UTF-8 decode to
    U+FFFD, which no field accepts, so they fail as a malformed field of
    their line.

    This is the only validator of a table: neither TableRow nor
    CertificateTable checks what it is given.  Each row is read in one pass:
    one test that its j and c fields are all ASCII digits, then its integer
    fields are converted at once, ShadowSystem checks the j ranges and the
    parser the c signs.  Only a row that fails there is rescanned field by
    field (_row_error), so that the first bad field in column order is the
    one reported.
    """
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = _records(csv.reader(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1) from None
        width = len(header)
        if width < 6 or width % 2 != 0:
            raise ParseError(f"header has {width} columns, expected 2V-2", 1)
        V = (width + 2) // 2
        if header != _expected_header(V):
            raise ParseError(
                f"bad header for V={V}: expected {','.join(_expected_header(V))}", 1
            )
        rows: list[TableRow] = []
        for line, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != width:
                raise ParseError(f"expected {width} fields, got {len(record)}", line)
            fields = record[:-1]
            digits = "".join(fields)  # j and c are positive: ASCII digits only
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError("integer field not in ASCII digits")
                values = list(map(int, fields))
                coeffs = tuple(values[V - 2 :])
                if min(coeffs) < 1:
                    raise ValueError("coefficients must be positive")
                row = TableRow(ShadowSystem.from_choices(V, values[: V - 2]), coeffs,
                               parse_rational(record[-1]))
            except ValueError as exc:
                raise _row_error(record, V, line) or exc from None
            if row.system.system_id != len(rows):
                raise ParseError(
                    f"system {row.system.choices} out of canonical order "
                    f"(duplicate, missing, or misordered rows)",
                    line,
                )
            rows.append(row)
    if len(rows) != math.factorial(V - 1):
        raise ParseError(f"expected {_row_count(V)} rows for V={V}, found {len(rows)}")
    return CertificateTable(V=V, rows=tuple(rows))


def serialize_certificate_table(table: CertificateTable) -> str:
    """Render a table back to its CSV wire format (parse round-trips)."""
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
