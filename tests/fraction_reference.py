"""Plain Fraction references for the exact integer routines.

They share no code with monoproof: a determinant by Gaussian elimination
with row swaps, positive definiteness by Sylvester's criterion on it, the
value of a form from its packed axis matrix, a minimizer as Fractions, the
unique solution of a linear system on a subset of its columns, a phase-I
simplex that re-sums its cost at every pivot, the vector operations sub,
dot, cross and norm_sq on sequences of Fractions, and, on those, the
outward area vectors and the face vectors of a tetrahedron and Dawson and
Finbow's tipping test on area vectors.
"""

from fractions import Fraction


def sub(u, v) -> list:
    """u - v, entry by entry; the lengths must agree."""
    assert len(u) == len(v)
    return [a - b for a, b in zip(u, v)]


def dot(u, v) -> Fraction:
    """The dot product; the lengths must agree."""
    assert len(u) == len(v)
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(u) -> Fraction:
    return dot(u, u)


def cross(u, v) -> list:
    """The cross product of two 3-vectors."""
    (a1, a2, a3), (b1, b2, b3) = u, v
    return [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]


def area_vectors(verts) -> list:
    """For each vertex i of a tetrahedron, the outward normal of the face
    (a, b, c) opposite it, (b - a) x (c - a) divided by +-2: its length is
    the face's area, and the four sum to zero."""
    xs = []
    for i, v in enumerate(verts):
        a, b, c = (verts[k] for k in range(4) if k != i)
        x = cross(sub(b, a), sub(c, a))
        s = -2 if dot(x, sub(v, a)) > 0 else 2
        xs.append([Fraction(e) / s for e in x])
    return xs


def face_vectors(verts, o) -> list:
    """For each face i of a tetrahedron, the one opposite vertex i, the
    vector from o to the foot of the perpendicular on its plane:
    (x.(p - o) / |x|^2) x for its area vector x and p = vertex i + 1, which
    lies on face i."""
    return [[dot(x, sub(verts[(i + 1) % 4], o)) / norm_sq(x) * e for e in x]
            for i, x in enumerate(area_vectors(verts))]


def tips(x_i, x_j) -> bool:
    """Dawson and Finbow's tipping condition |x_i| < |x_j| cos(theta_ij) on
    area vectors, as x_i.x_j > x_i.x_i."""
    return dot(x_i, x_j) > norm_sq(x_i)


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


def unpacked(packed: list[list[int]]) -> list[list[int]]:
    """The full symmetric matrix of packed upper-triangle rows, where
    packed[r][c - r] is entry (r, c) for c >= r."""
    n = len(packed)
    return [[packed[min(r, c)][abs(c - r)] for c in range(n)] for r in range(n)]


def form_value(packed: list[list[int]], x) -> Fraction:
    """y^T G y / 2 at y = (x, 1): the value at x = (t_2, ..., t_(V-1)),
    t_1 = 1, of the form whose axis matrix G is given as packed rows."""
    y = [*x, 1]
    total = sum(a * g * b for a, row in zip(y, unpacked(packed)) for g, b in zip(row, y))
    return Fraction(total) / 2


def minimizer(result) -> list[Fraction]:
    """The minimizer x = (t_2, ..., t_(V-1)) at t_1 = 1 of a Certificate or
    VerifyResult as Fractions, from its numerators over one denominator."""
    return [Fraction(x, result.minimizer_den) for x in result.minimizer_num]


def solve_column_subset(columns, subset, target):
    """Unique solution of the column-subset system by Fraction Gauss-Jordan,
    or None when the columns are dependent or the system is inconsistent.
    Entries must be Fractions; the empty subset solves a zero target."""
    m = len(target)
    k = len(subset)
    aug = [[columns[c][row] for c in subset] + [target[row]] for row in range(m)]
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[row], aug[pivot] = aug[pivot], aug[row]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col] / aug[row][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        row += 1
    if any(aug[r][k] != 0 for r in range(row, m)):
        return None
    return [aug[i][k] / aug[i][i] for i in range(k)]


def phase_one_pivots(system):
    """Bland's phase-I simplex on the rows [A | t] of int entries, over
    Fractions, as (verdict, steps): each row is sign-flipped so t >= 0 and
    starts with its artificial basis n + i; at every step the cost is
    summed again over the rows whose basis is still artificial, the lowest
    column with positive cost enters, and the row of least t_i / a_i over
    a_i > 0 leaves, ties to the lowest basis index.  steps holds (r, c,
    cost) for each pivot, with the cost it chose c from.  The verdict is
    True when every artificial row has t = 0 and False when no column has
    positive cost."""
    m, n = len(system), len(system[0]) - 1
    rows = [[Fraction(x if row[-1] >= 0 else -x) for x in row] for row in system]
    basis = list(range(n, n + m))
    steps = []
    while True:
        artificial = [row for row, col in zip(rows, basis) if col >= n]
        if all(row[-1] == 0 for row in artificial):
            return True, steps
        cost = [sum(col, Fraction(0)) for col in zip(*artificial)]
        c = next((c for c in range(n) if cost[c] > 0), None)
        if c is None:
            return False, steps
        r = min((i for i in range(m) if rows[i][c] > 0),
                key=lambda i: (rows[i][-1] / rows[i][c], basis[i]))
        steps.append((r, c, cost))
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        basis[r] = c
