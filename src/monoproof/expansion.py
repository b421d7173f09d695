"""Shadowing systems for 0-skeletons and their quadratic forms.

A mono-unstable 0-skeleton with V vertices would have to satisfy one of
(V-1)! "shadowing systems": for each vertex i = 2..V pick some earlier
vertex j(i) < i that shadows it, that is

    Q_i(r) = |r_i|^2 - r_i . r_j(i) <= 0

for the vertex vectors r_1..r_V, measured from the centroid (sum_i r_i = 0).
Q_i applies one quadratic to each coordinate axis, so in any dimension d

    sum_i c_i Q_i(r) = g_c(axis 1) + ... + g_c(axis d)

for the (V-1)-variable form g_c(t) = sum_i c_i (t_i^2 - t_i t_j(i)), where
each axis holds the column t = (r_1k, ..., r_Vk) and the balance gives
t_V = -(t_1 + ... + t_(V-1)).  weighted_inequality_sum builds the integer
matrix G(c) of 2 g_c in the order (t_2, ..., t_(V-1), t_1), and G_h is G
without t_1.  If all V-1 leading minors of G(c) are positive, g_c is positive
definite on {sum t = 0}; its minimum at t_1 = 1 is d_(V-1) / (2 d_(V-2))
over the leading minors d_k, so by homogeneity

    sum_i c_i Q_i(r) >= d_(V-1) / (2 d_(V-2)) * |r_1|^2,

with equality when axis 1 holds the minimizer and every other axis is 0.
The sum is then positive at every configuration but r = 0, so the
inequalities Q_i <= 0 cannot all hold and the system has no solution in any
dimension.  The 3-dimensional frame of the paper adds nothing to this
test, so everything here lives on one axis.  prover.verify_certificate
checks certificates on G(c); the search decides its trials on the tree
i -> j(i) without building G(c) (see prover).

G(c) is the only representation of a form: inequality_forms gives the G of
each Q_i on its own, and G(c) is their sum weighted by c.  Over the V-2 free
coordinates x = (t_2, ..., t_(V-1)) at t_1 = 1, a form's value is y^T G y / 2
at y = (x, 1).  A minimizer stays in integers, X = D x over one denominator
D, and scaled_vertices rebuilds D t_1, ..., D t_V from it without the forms.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence


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
        rank = 0
        for i, ji in enumerate(j[1:], start=3):
            if not 1 <= ji <= i - 1:
                raise ValueError(f"j({i}) = {ji} out of range 1..{i - 1}")
            rank = rank * (i - 1) + (ji - 1)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "system_id", rank)

    @classmethod
    def from_choices(cls, V: int, choices: Sequence[int]) -> "ShadowSystem":
        """Build from the (j(3), ..., j(V)) part, with j(2) = 1 implicit."""
        return cls(V, (1, *choices))

    @property
    def choices(self) -> tuple[int, ...]:
        return self.j[1:]


def enumerate_systems(V: int) -> Iterator[ShadowSystem]:
    """All (V-1)! shadowing systems in canonical order (j(V) fastest).
    V < 3 raises ValueError, from ShadowSystem, on the first next()."""
    for choices in itertools.product(*(range(1, i) for i in range(3, V + 1))):
        yield ShadowSystem.from_choices(V, choices)


def system_count(V: int) -> int:
    """(V-1)!, the number of shadowing systems.  A count too long to print
    raises ValueError before it is computed: past Python's int-to-str
    limit, or its default of 4,300 digits where there is none.  (V-1)! has
    floor(log10 (V-1)!) + 1 digits, and lgamma(V) = ln (V-1)!.  For V >
    limit (at least 640) it has more than V digits, as n! > 10^n for
    n >= 25, so lgamma, which overflows on a huge V, is not asked."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if V > limit or math.lgamma(V) / math.log(10) >= limit:
        raise ValueError(f"the system count {V - 1}! has more than {limit} digits to print")
    return math.factorial(V - 1)


def _axis_matrix(system: ShadowSystem, weights: Sequence[int]) -> list[list[int]]:
    """G for the weights c_2..c_V (zeros allowed) as packed upper-triangle
    rows: row r holds the entries (r, r), (r, r+1), ..., (r, V-2).

    Built in closed form from the coordinate vectors: t_i is a unit vector
    for i < V and t_V the all-(-1) vector, so c_V adds 2 c_V to every entry
    and c_V more to each entry in the row and column of t_j(V), whose
    diagonal entry gets it twice.  Each row starts whole at 2 c_V; row p of
    t_j(V) is 4 c_V, then 3 c_V.  Then each t_i with i < V, at position
    i - 2, adds 2 c_i on its diagonal and -c_i at its entry with t_j(i):
    t_1 sits last, so j(i) = 1 is the last entry of row i - 2."""
    size = system.V - 1
    c_last, j_last = weights[-1], system.j[-1]
    p = j_last - 2 if j_last > 1 else size - 1
    m = [[2 * c_last] * (size - r) for r in range(size)]
    for r in range(p):
        m[r][p - r] += c_last
    m[p] = [4 * c_last, *[3 * c_last] * (size - 1 - p)]
    for a, c, j in zip(range(size - 1), weights, system.j):
        row = m[a]
        row[0] += 2 * c
        if j > 1:
            m[j - 2][a + 2 - j] -= c
        else:
            row[-1] -= c
    return m


def inequality_forms(system: ShadowSystem) -> list[list[list[int]]]:
    """The axis matrix G of each Q_i on its own, for i = 2..V in vertex
    order: _axis_matrix at the unit weight vector e_i, packed as G(c) is."""
    size = system.V - 1
    return [_axis_matrix(system, [int(l == i) for l in range(size)]) for i in range(size)]


def _check_coefficients(system: ShadowSystem, coeffs: Sequence[int]) -> None:
    if len(coeffs) != system.V - 1:
        raise ValueError(f"expected {system.V - 1} coefficients, got {len(coeffs)}")
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise ValueError(f"coefficients must be positive integers, got {c!r}")
        if c <= 0:
            raise ValueError(f"coefficient {c} is not positive")


def weighted_inequality_sum(system: ShadowSystem, coeffs: Sequence[int]) -> list[list[int]]:
    """G(c) for positive integer weights c_2..c_V: the (V-1) x (V-1) integer
    matrix of 2 g_c = 2 sum_i c_i Q_i on one axis (see the module
    docstring), as packed upper-triangle rows, the layout
    ratcore.symmetric_bareiss eliminates.

    Its leading block G_h is the Hessian of the weighted sum over x, its
    last column the linear part and its corner twice the constant.  If
    G(c) is positive definite, the sum is strictly convex with a strictly
    positive minimum, and the shadowing system has no solution: any
    solution would make every Q_i <= 0 and hence the sum nonpositive.
    """
    _check_coefficients(system, coeffs)
    return _axis_matrix(system, coeffs)


def scaled_vertices(x: Sequence, scale) -> list:
    """scale * t_1 .. scale * t_V from x = scale * (t_2, ..., t_(V-1)) at
    t_1 = 1, with the balance t_V = -(t_1 + ... + t_(V-1)).  Shares no code
    with the forms above."""
    return [scale, *x, -scale - sum(x)]
