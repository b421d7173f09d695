"""Plain Fraction references for the exact integer routines.

They share no code with monoproof: a determinant by Gaussian elimination
with row swaps, and positive definiteness by Sylvester's criterion on it.
"""

from fractions import Fraction


def reference_det(rows) -> Fraction:
    """Determinant by Fraction Gaussian elimination with row swaps."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((r for r in range(k, len(a)) if a[r][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def reference_is_pd(rows) -> bool:
    """Sylvester: a symmetric matrix is positive definite iff every leading
    principal minor is positive."""
    return all(reference_det([row[:k] for row in rows[:k]]) > 0 for k in range(1, len(rows) + 1))
