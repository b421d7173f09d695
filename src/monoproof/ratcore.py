"""Exact rationals, linear solving, PD testing and nonnegative-solution
feasibility.

Public values are ``fractions.Fraction`` (arbitrary precision, always in
lowest terms, positive denominator).  Nothing here ever rounds.  Vectors
are plain tuples and matrices plain sequences of rows, of int or Fraction
entries; as_rational coerces an int, Fraction or "p/q".  Rationals become
integers at one boundary, clear_denominators, which scales a whole matrix
by the lcm of its denominators; every consumer (solve_linear,
is_positive_definite, and the equilibria kernel and hull test) then works
fraction-free over the integers, so results are exact by construction.
symmetric_bareiss is the proof core: the one elimination behind
positive-definiteness tests and certificate checks.  Outside it, one
integer Gauss-Jordan pivot (_jordan_pivot) serves both the general
solve_linear and the phase-I simplex nonneg_solution_exists, which takes
integer rows [A | t] that are already cleared and pivots on them plus one
carried objective row, their phase-I cost: the artificial identity columns
never enter, and a pivot step acts on each column on its own, so they are
never stored.  Both eliminations take their rows as lists and update each
entry in place, so the rows must not alias one another: packed rows differ
in length, and solve_linear and the simplex copy their rows first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]
Rational = Union[Fraction, int]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_integer(text: str) -> int:
    """Parse an integer as the wire format writes it: an optional minus
    sign, then ASCII digits.  int() alone would also take "+4", " 4", "4_0"
    and other scripts' digits.  Also raises ValueError, as int() does, past
    Python's int-to-str digit limit."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"must be an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"has {len(digits)} digits, past Python's int-to-str limit") from None


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p/q" (or "p" when q=1), minus sign on p only,
    in ASCII digits: p and q are each read by parse_integer, and q must
    carry no sign and be nonzero."""
    p, slash, q = text.partition("/")
    if q[:1] == "-":
        raise ValueError(f"minus sign on the denominator of {text!r}")
    den = parse_integer(q) if slash else 1
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(parse_integer(p), den)


class SingularError(ValueError):
    """Raised when elimination hits an exactly rank-deficient column."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is singular (no pivot in column {pivot_index})")
        self.pivot_index = pivot_index


def _ratio(e: Rational) -> tuple[int, int]:
    """e.as_integer_ratio() for an int (a bool included) or a Fraction, and
    TypeError for anything else: a float or a Decimal has an exact ratio
    too, but the exact solvers take int and Fraction entries only."""
    if isinstance(e, (int, Fraction)):
        return e.as_integer_ratio()
    raise TypeError(f"expected an int or a Fraction entry, got {e!r}")


def clear_denominators(rows: Iterable[Sequence[Rational]]) -> tuple[list[list[int]], int]:
    """(R, L) for rows of int or Fraction entries: L is the lcm of every
    entry's denominator and R = L * rows, an integer matrix.  Scaling the
    whole matrix by one L > 0 keeps every sign and zero, the solution set of
    a linear system and definiteness.  Each entry is read once, as its
    as_integer_ratio(); any other entry raises TypeError that names it."""
    ratios = [[_ratio(e) for e in row] for row in rows]
    L = math.lcm(*{q for row in ratios for _, q in row})
    return [[p * (L // q) for p, q in row] for row in ratios], L


def _jordan_pivot(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """Integer-preserving Gauss-Jordan step on entry (r, c), in place.

    Every row other than row r becomes (p * row - row[c] * row_r) // prev
    with p = rows[r][c], entry by entry in its own list; row r is kept, and
    p is returned as the next ``prev``.  Starting from an integer matrix
    with prev = 1, every entry stays a minor of that matrix (Edmonds, J.
    Res. NBS 71B, 1967), so each division is exact.
    """
    row_r = rows[r]
    p = row_r[c]
    for row in rows:
        if row is not row_r:
            a = row[c]
            for e in range(len(row)):
                row[e] = (p * row[e] - a * row_r[e]) // prev
    return p


def _check_square(A: Sequence[Sequence[Rational]]) -> int:
    """The size n of an n x n matrix given as rows; ValueError otherwise."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    return n


def solve_linear(A: Sequence[Sequence[Rational]], b: Sequence[Rational]) -> tuple[Fraction, ...]:
    """Solve A x = b exactly for the square rows A of int or Fraction
    entries; raises SingularError on exact rank deficiency.

    Column k pivots on the first row not yet pivoted whose entry is nonzero;
    when there is none, column k depends on columns 0..k-1.
    """
    n = _check_square(A)
    if len(b) != n:
        raise ValueError(f"dimension mismatch: matrix {n}, rhs {len(b)}")
    rows, _ = clear_denominators([*A[i], b[i]] for i in range(n))
    pivot_rows: list[int] = []
    prev = 1
    for k in range(n):
        r = next((i for i in range(n) if i not in pivot_rows and rows[i][k] != 0), None)
        if r is None:
            raise SingularError(k)
        prev = _jordan_pivot(rows, r, k, prev)
        pivot_rows.append(r)
    return tuple(Fraction(rows[r][n], rows[r][k]) for k, r in enumerate(pivot_rows))


def nonneg_solution_exists(system: Sequence[Sequence[int]]) -> bool:
    """Has A lam = t a solution lam >= 0, for the integer rows [A | t]?

    Exact phase-I simplex on the integer tableau [A | t], one artificial
    variable per row.  Each row is sign-flipped so its target entry is
    >= 0, so the artificials form the starting basis; basis index n + i
    stands for row i's artificial.  Their identity columns are never
    stored: an artificial never enters, the ratio test reads only the
    entering column and t, and a Gauss-Jordan step acts on each column on
    its own, so dropping them changes no kept entry and no pivot.  The
    tableau carries one more row, the phase-I cost: the sum of the rows
    whose basis is artificial, first all of them.  The pivot updates it
    with the others, and it stays that sum: at a pivot (r, c), a row r
    whose basis was artificial adds (p * row_r - p * row_r) // prev = 0 to
    the update, so it leaves the sum, and the update is a sum of exact
    quotients, so its own division is exact too.  Bland's rule
    (Math. Oper. Res. 2, 1977) enters the lowest column with positive cost
    and breaks ratio ties by the lowest basis index, so the simplex cannot
    cycle.  Every pivot is positive, so the tableau stays D * B^-1 [A | t]
    with D > 0 and every target entry >= 0.  So the target is feasible iff
    every artificial still in the basis has right-hand side 0, that is iff
    the cost row's target entry is 0.  Raises ValueError on an empty system
    or on rows of unequal or zero length.
    """
    width = len(system[0]) if system else 0
    if not width or any(len(row) != width for row in system):
        raise ValueError("need at least one row [A | t], all of one nonzero length")
    m, n = len(system), width - 1
    rows = [list(row) if row[-1] >= 0 else [-x for x in row] for row in system]
    cost = [sum(col) for col in zip(*rows)]
    rows.append(cost)
    basis = list(range(n, n + m))
    prev = 1
    while cost[-1]:
        for c in range(n):
            if cost[c] > 0:
                break
        else:
            return False
        # minimum ratio t_i / a_i over a_i > 0, cross-multiplied, ties to the lowest basis index
        r = None
        for i in range(m):
            row = rows[i]
            a = row[c]
            if a > 0:
                if r is None:
                    r, t, p = i, row[-1], a
                else:
                    d = row[-1] * p - t * a
                    if d < 0 or d == 0 and basis[i] < basis[r]:
                        r, t, p = i, row[-1], a
        prev = _jordan_pivot(rows, r, c, prev)
        basis[r] = c
    return True


def symmetric_bareiss(m: list[list[int]]) -> int:
    """Fraction-free elimination of a symmetric integer matrix without
    pivoting, on its upper triangle stored as packed rows: m[r][c - r] is
    entry (r, c) for c >= r.  Each packed row is a list updated in place,
    entry by entry.

    Returns how many leading principal minors are positive.  Elimination
    stops at the first one that is not: on return with count k, m[r][0] is
    the (r+1)-th leading minor for every r <= k (r < size), so m[k][0] is
    the failing minor, and rows r < k hold the eliminated upper triangle.
    All divisions are exact (Bareiss, Math. Comp. 22, 1968), and symmetry
    lets row k stand in for column k of the trailing block.
    """
    size = len(m)
    prev = 1
    for k in range(size):
        row_k = m[k]
        pivot = row_k[0]
        if pivot <= 0:
            return k
        for i in range(k + 1, size):
            row, d = m[i], i - k
            a = row_k[d]
            for c in range(len(row)):
                row[c] = (pivot * row[c] - a * row_k[d + c]) // prev
        prev = pivot
    return size


def homogeneous_solution(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free back substitution after symmetric_bareiss.

    ``m`` holds the packed rows of an eliminated (n+1) x (n+1) matrix
    [[H, b], [b^T, .]] whose first n leading minors are positive.  Returns
    (X, D) with D = d_n = det H and X = D * x for the solution x of
    H x = -b; X is integral by Cramer's rule, so every division is exact.
    Each row's sum runs as a plain loop: it has at most n - 1 terms, fewer
    than it takes for a generator's setup to pay off.
    """
    n = len(m) - 1
    D = m[n - 1][0] if n else 1
    X = [0] * n
    for r in range(n - 1, -1, -1):
        row = m[r]
        acc = D * row[n - r]
        for c in range(r + 1, n):
            acc += row[c - r] * X[c]
        X[r] = -acc // row[0]
    return X, D


def is_positive_definite(A: Sequence[Sequence[Rational]]) -> bool:
    """Exact PD test of the square rows A of int or Fraction entries: all
    leading principal minors positive (Sylvester).

    Rejects non-symmetric input.  Runs symmetric_bareiss on the
    denominator-cleared matrix; scaling by a positive integer preserves
    definiteness.
    """
    n = _check_square(A)
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        raise ValueError("positive definiteness test requires a symmetric matrix")
    rows, _ = clear_denominators(A)
    return symmetric_bareiss([row[r:] for r, row in enumerate(rows)]) == n
