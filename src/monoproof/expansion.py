"""Shadowing systems for 3-dimensional 0-skeletons and their quadratic forms.

A mono-unstable 0-skeleton with V vertices would have to satisfy one of
(V-1)! "shadowing systems": for each vertex i = 2..V pick some earlier
vertex j(i) < i that shadows it.  After fixing the similarity frame
(r_1 = (1,0,0), r_23 = 0) and eliminating the last vertex through the
balance equations sum_i r_i = 0, each inequality becomes

    Q_i(x) = sum_k r_ik^2 - sum_k r_ik r_j(i)k <= 0

over the n = 3V-7 free coordinates x.  Q_i applies one quadratic to each
axis k, so sum_i c_i Q_i = g_c(axis 1) + g_c(axis 2) + g_c(axis 3) for the
(V-1)-variable form g_c(t) = sum_i c_i (t_i^2 - t_i t_j(i)), where
t_V = -(t_1 + ... + t_(V-1)).  weighted_matrix builds the integer matrix
G(c) of 2 g_c in the order (t_2, ..., t_(V-1), t_1); t_1 = r_11 = 1 makes
it the form of axis 1 homogenized at z = (x, 1).  Let G_h be G without t_1.

- The Hessian of the sum is block-diagonal: G_h on axes 1 and 2 and a
  principal submatrix of G_h on axis 3, so it is PD exactly when G_h is.
- The linear part and the constant sit on axis 1 only, so the minimizer is
  zero on axes 2 and 3 and the minimum is d_(V-1) / (2 d_(V-2)) over the
  leading minors d_k of G.
- So c is a certificate exactly when all V-1 leading minors of G(c) are
  positive.

QuadraticForm is the exact-rational view over all 3V-7 coordinates, with G
placed in the three axis blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from monoproof.ratcore import RatMatrix, RatVector, eval_quadratic


class NonPositiveCoefficient(ValueError):
    """Weight coefficients must be strictly positive."""


@dataclass(frozen=True)
class ShadowSystem:
    """One choice function j: vertex i is shadowed by vertex j(i) < i.

    ``j[i-2]`` holds j(i) for i = 2..V; j(2) = 1 is forced.  ``system_id``
    is the 0-based rank in canonical order: lexicographic over
    (j(3), ..., j(V)) with j(V) varying fastest.
    """

    V: int
    j: tuple[int, ...]
    system_id: int

    def __init__(self, V: int, j: Sequence[int]):
        j = tuple(j)
        if V < 3:
            raise ValueError("shadowing systems need V >= 3")
        if len(j) != V - 1:
            raise ValueError(f"expected {V - 1} choices j(2)..j({V}), got {len(j)}")
        if j[0] != 1:
            raise ValueError("j(2) must be 1")
        for i in range(3, V + 1):
            if not 1 <= j[i - 2] <= i - 1:
                raise ValueError(f"j({i}) = {j[i - 2]} out of range 1..{i - 1}")
        rank = 0
        for i in range(3, V + 1):
            rank = rank * (i - 1) + (j[i - 2] - 1)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "system_id", rank)

    @classmethod
    def from_choices(cls, V: int, choices: Sequence[int]) -> "ShadowSystem":
        """Build from the (j(3), ..., j(V)) part, with j(2) = 1 implicit."""
        return cls(V, (1, *choices))

    def j_of(self, i: int) -> int:
        if not 2 <= i <= self.V:
            raise ValueError(f"vertex index {i} out of range 2..{self.V}")
        return self.j[i - 2]

    @property
    def choices(self) -> tuple[int, ...]:
        return self.j[1:]

    def to_json(self) -> dict:
        return {"V": self.V, "j": list(self.j)}

    @classmethod
    def from_json(cls, doc: dict) -> "ShadowSystem":
        return cls(int(doc["V"]), tuple(int(v) for v in doc["j"]))


def enumerate_systems(V: int) -> Iterator[ShadowSystem]:
    """All (V-1)! shadowing systems in canonical order (j(V) fastest)."""
    if V < 3:
        raise ValueError("shadowing systems need V >= 3")
    for choices in itertools.product(*(range(1, i) for i in range(3, V + 1))):
        yield ShadowSystem.from_choices(V, choices)


def var_index(i: int, k: int, V: int) -> int:
    """Flat index of the free coordinate r_ik: (2,1), (2,2), then row-major
    triples for i = 3..V-1.  Fixed and eliminated coordinates are rejected."""
    if k not in (1, 2, 3):
        raise ValueError(f"coordinate k = {k} out of range 1..3")
    if i == 1 or (i == 2 and k == 3):
        raise ValueError(f"r_{i},{k} is a fixed coordinate, not a free variable")
    if i >= V:
        raise ValueError(f"r_{i},{k} is eliminated by the balance equations")
    if i == 2:
        return k - 1
    return 2 + 3 * (i - 3) + (k - 1)


def free_var_count(V: int) -> int:
    return 3 * V - 7


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = x^T A x + b.x + c0 with A symmetric; the Hessian 2A is constant."""

    A: RatMatrix
    b: RatVector
    c0: Fraction

    def __post_init__(self):
        if not self.A.is_symmetric():
            raise ValueError("quadratic part must be symmetric")
        if len(self.b) != self.A.n:
            raise ValueError("linear part has wrong length")

    @property
    def n(self) -> int:
        return self.A.n

    def evaluate(self, x: RatVector) -> Fraction:
        return eval_quadratic(self.A, self.b, self.c0, x)


def _axis_matrix(system: ShadowSystem, weights: Sequence[int]) -> list[list[int]]:
    """G for the weights c_2..c_V (zeros allowed) as packed upper-triangle
    rows: row r holds the entries (r, r), (r, r+1), ..., (r, V-2).

    Built in closed form from the coordinate vectors: t_i is a unit vector
    for i < V and t_V the all-(-1) vector, so c_V adds 2 c_V to every entry
    and c_V more to each entry in the row and column of t_j(V)."""
    V = system.V
    size = V - 1
    pos = [size - 1] + list(range(size - 1))  # t_i sits at pos[i - 1]
    c_last, p = weights[-1], pos[system.j[-1] - 1]
    m = [[2 * c_last + c_last * ((r == p) + (r + d == p)) for d in range(size - r)]
         for r in range(size)]
    for i, c in zip(range(2, V), weights):
        a, b = pos[i - 1], pos[system.j[i - 2] - 1]
        m[a][0] += 2 * c
        m[min(a, b)][abs(a - b)] -= c
    return m


def _quadratic_form(V: int, g: list[list[int]]) -> QuadraticForm:
    """The QuadraticForm over the 3V-7 free coordinates of an axis matrix G:
    axis 1 homogenized at t_1 = 1, axes 2 and 3 with their fixed coordinates
    (t_1 = 0, and t_2 = 0 on axis 3) dropped."""
    n, h = free_var_count(V), V - 2
    A = [[Fraction(0)] * n for _ in range(n)]
    b = [0] * n
    for k in (1, 2, 3):
        free = [(i - 2, var_index(i, k, V)) for i in range(2, V) if (i, k) != (2, 3)]
        for r, x in free:
            for c, y in free:
                A[x][y] = Fraction(g[min(r, c)][abs(c - r)], 2)
            if k == 1:
                b[x] = g[r][h - r]
    return QuadraticForm(RatMatrix(A, symmetric=True), RatVector(b), Fraction(g[h][0], 2))


def inequality_form(system: ShadowSystem, i: int) -> QuadraticForm:
    """The left-hand side Q_i of 'vertex i is shadowed by vertex j(i)',
    expanded over the free coordinates; the inequality is Q_i(x) <= 0."""
    if not 2 <= i <= system.V:
        raise ValueError(f"vertex index {i} out of range 2..{system.V}")
    unit = [int(l == i) for l in range(2, system.V + 1)]
    return _quadratic_form(system.V, _axis_matrix(system, unit))


def inequality_forms(system: ShadowSystem) -> list[QuadraticForm]:
    """Q_i for i = 2..V, in vertex order."""
    return [inequality_form(system, i) for i in range(2, system.V + 1)]


def _check_coefficients(system: ShadowSystem, coeffs: Sequence[int]) -> None:
    if len(coeffs) != system.V - 1:
        raise ValueError(f"expected {system.V - 1} coefficients, got {len(coeffs)}")
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise NonPositiveCoefficient(f"coefficients must be positive integers, got {c!r}")
        if c <= 0:
            raise NonPositiveCoefficient(f"coefficient {c} is not positive")


def weighted_matrix(system: ShadowSystem, coeffs: Sequence[int]) -> list[list[int]]:
    """G(c), the (V-1) x (V-1) integer matrix of 2 g_c on one axis (see the
    module docstring), as packed upper-triangle rows, the layout
    ratcore.symmetric_bareiss eliminates.

    Its leading block G_h is the axis-1 Hessian of the weighted sum, its
    last column the linear part and its corner twice the constant.
    """
    _check_coefficients(system, coeffs)
    return _axis_matrix(system, coeffs)


def weighted_inequality_sum(system: ShadowSystem, coeffs: Sequence[int]) -> QuadraticForm:
    """sum_i c_i * Q_i for positive integer weights c_2..c_V.

    If some choice of weights makes this form strictly convex with a
    strictly positive minimum, the shadowing system has no solution: any
    solution would make every Q_i <= 0 and hence the sum nonpositive.
    """
    return _quadratic_form(system.V, weighted_matrix(system, coeffs))


def scaled_vertices(V: int, x: Sequence, scale) -> list[list]:
    """scale * r_1 .. scale * r_V from x = scale * (free coordinates), read
    straight from the variable layout: r_1 = (1, 0, 0), r_2 = (x_0, x_1, 0),
    r_i = (x_(3i-7), x_(3i-6), x_(3i-5)) for 2 < i < V, and the balance
    r_V = -(r_1 + ... + r_(V-1)).  Shares no code with the forms above."""
    rows = [[scale, 0, 0], [x[0], x[1], 0]]
    rows += [list(x[3 * i - 7 : 3 * i - 4]) for i in range(3, V)]
    rows.append([-sum(r[k] for r in rows) for k in range(3)])
    return rows


def reconstruct_vertices(V: int, x: RatVector) -> list[RatVector]:
    """Full vertex vectors r_1..r_V encoded by a free-coordinate vector:
    the fixed frame, the variables, and the balance-eliminated last vertex."""
    if len(x) != free_var_count(V):
        raise ValueError(f"expected {free_var_count(V)} coordinates, got {len(x)}")
    return [RatVector(r) for r in scaled_vertices(V, x.entries, Fraction(1))]
