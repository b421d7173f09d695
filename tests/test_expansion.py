import itertools
import math
import random
from fractions import Fraction

import pytest
from fraction_reference import form_value, unpacked

from monoproof.expansion import (
    NonPositiveCoefficient,
    ShadowSystem,
    _axis_matrix,
    enumerate_systems,
    inequality_forms,
    scaled_vertices,
    weighted_inequality_sum,
)


def rand_point(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]


def test_system_validation():
    with pytest.raises(ValueError):
        ShadowSystem(2, (1,))
    with pytest.raises(ValueError):
        ShadowSystem(4, (2, 1, 1))  # j(2) must be 1
    with pytest.raises(ValueError):
        ShadowSystem(4, (1, 3, 1))  # j(3) <= 2
    with pytest.raises(ValueError):
        ShadowSystem(4, (1, 1))  # wrong length
    s = ShadowSystem(4, (1, 2, 3))
    assert s.j[0] == 1 and s.j[-1] == 3


def test_from_choices():
    s = ShadowSystem.from_choices(5, (2, 1, 4))
    assert s.j == (1, 2, 1, 4)
    assert s.choices == (2, 1, 4)
    assert ShadowSystem(5, s.j) == s


def test_enumeration_is_canonical():
    for V in (3, 4, 5):
        systems = list(enumerate_systems(V))
        assert len(systems) == math.factorial(V - 1)
        for pos, s in enumerate(systems):
            assert s.system_id == pos
        # lexicographic over (j(3), ..., j(V)), last index fastest
        keys = [s.choices for s in systems]
        assert keys == sorted(keys)


def test_enumeration_rejects_fewer_than_three_vertices():
    for V in (2, 0, -1):
        with pytest.raises(ValueError, match="V >= 3"):
            next(enumerate_systems(V))


def test_system_id_mixed_radix():
    assert ShadowSystem(4, (1, 1, 1)).system_id == 0
    assert ShadowSystem(4, (1, 2, 3)).system_id == 5
    assert ShadowSystem(7, (1,) * 6).system_id == 0
    assert ShadowSystem(7, (1, 2, 3, 4, 5, 6)).system_id == math.factorial(6) - 1


def test_scaled_vertices_layout():
    # x = (t_2, ..., t_(V-1)) at t_1 = 1, scaled by D, and t_V from the balance
    assert scaled_vertices([3, -1, 4], 2) == [2, 3, -1, 4, -8]
    assert scaled_vertices([5], 1) == [1, 5, -6]
    assert scaled_vertices([Fraction(1, 2), 0], Fraction(1)) == [
        1, Fraction(1, 2), 0, Fraction(-3, 2)]


def test_reconstruction_frame_and_balance():
    rng = random.Random(17)
    for V in (4, 5, 6, 7):
        x = rand_point(rng, V - 2)
        t = scaled_vertices(x, 1)
        assert len(t) == V
        assert t[0] == 1
        assert t[1:-1] == x
        assert sum(t) == 0


def test_forms_match_reconstructed_geometry():
    """Q_i evaluated through its axis matrix, y^T G y / 2 at y = (x, 1),
    must equal the shadowing expression |r_i|^2 - r_i.r_j(i) computed
    directly from the reconstructed one-axis vertices.  This ties the
    algebra to the geometry without sharing any code path."""
    rng = random.Random(23)
    for V in (4, 5, 6):
        for _ in range(8):
            choices = tuple(rng.randint(1, i - 1) for i in range(3, V + 1))
            system = ShadowSystem.from_choices(V, choices)
            x = rand_point(rng, V - 2)
            t = scaled_vertices(x, 1)
            for i, j, form in zip(range(2, V + 1), system.j, inequality_forms(system)):
                ti, tj = t[i - 1], t[j - 1]
                assert form_value(form, x) == ti * ti - ti * tj


def test_constant_terms():
    # at x = 0 every non-eliminated vertex collapses to the frame, so
    # r_V = -r_1 and Q_V(0) = |r_1|^2 + |r_1|^2 = 2; all other Q_i(0) = 0
    for V in (4, 5, 6, 7):
        origin = [0] * (V - 2)
        system = ShadowSystem(V, (1,) * (V - 1))
        forms = inequality_forms(system)
        for form in forms[:-1]:
            assert form_value(form, origin) == 0
        assert form_value(forms[-1], origin) == 2
        # with j(V) != 1 the cross term -r_V.r_j(V) vanishes at x = 0
        other = ShadowSystem(V, (1,) * (V - 2) + (2,))
        assert form_value(inequality_forms(other)[-1], origin) == 1


def test_form_shapes_and_hessian_integrality():
    """Each Q_i and the weighted sum are V-1 packed integer rows, the
    layout that search and verify eliminate."""
    system = ShadowSystem.from_choices(6, (2, 3, 1, 4))
    forms = inequality_forms(system)
    assert len(forms) == 6 - 1
    for g in [*forms, weighted_inequality_sum(system, (1,) * 5)]:
        assert [len(row) for row in g] == [5, 4, 3, 2, 1]
        assert all(type(v) is int for row in g for v in row)


def test_weighted_sum_equals_sum_of_parts():
    """G(c) is sum_i c_i times the G of Q_i, entry by entry, for every
    system at V = 4..7 with seeded weights."""
    rng = random.Random(61)
    for system in (s for V in range(4, 8) for s in enumerate_systems(V)):
        coeffs = tuple(rng.randint(1, 101) for _ in range(system.V - 1))
        parts = inequality_forms(system)
        expected = [[sum(c * q[r][k] for c, q in zip(coeffs, parts)) for k in range(len(row))]
                    for r, row in enumerate(parts[0])]
        assert weighted_inequality_sum(system, coeffs) == expected, (system.j, coeffs)


def definition_matrix(system: ShadowSystem, weights) -> list[list[int]]:
    """The V x V integer matrix M of 2 g_c on t_1..t_V, from the definition
    g_c(t) = sum_i c_i (t_i^2 - t_i t_j(i)): 2 c_i at (i, i) and -c_i at
    (i, j(i)) and at (j(i), i)."""
    V = system.V
    M = [[0] * V for _ in range(V)]
    for i, c, j in zip(range(2, V + 1), weights, system.j):
        M[i - 1][i - 1] += 2 * c
        M[i - 1][j - 1] -= c
        M[j - 1][i - 1] -= c
    return M


def balance_basis(V: int) -> list[list[int]]:
    """The V x (V-1) integer B with t = B y for y = (t_2, ..., t_(V-1), t_1):
    t_V = -(t_1 + ... + t_(V-1)) is the all-(-1) row."""
    order = [*range(2, V), 1]
    return [[int(i == v) for v in order] for i in range(1, V)] + [[-1] * (V - 1)]


def axis_matrix_by_definition(system: ShadowSystem, weights) -> list[list[int]]:
    """B^T M B: the matrix of 2 g_c over y, which G(c) must equal."""
    M, B = definition_matrix(system, weights), balance_basis(system.V)
    MB = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in M]
    return [[sum(a * b for a, b in zip(col, mb)) for mb in zip(*MB)] for col in zip(*B)]


def seeded_systems(V: int, count: int, rng: random.Random) -> list[ShadowSystem]:
    return [ShadowSystem.from_choices(V, [rng.randint(1, i - 1) for i in range(3, V + 1)])
            for _ in range(count)]


def test_weighted_matrix_is_the_definition_after_the_balance():
    """G(c) against B^T M B, built from the raw definition of g_c and the
    balance alone: every system at V = 4..7 and seeded systems at V = 8..10,
    with seeded weights and with each unit weight vector, the G behind
    inequality_forms (zero weights included, c_V among them)."""
    rng = random.Random(2024)
    systems = [s for V in range(4, 8) for s in enumerate_systems(V)]
    systems += [s for V in range(8, 11) for s in seeded_systems(V, 40, rng)]
    for system in systems:
        coeffs = tuple(rng.randint(1, 101) for _ in range(system.V - 1))
        assert unpacked(weighted_inequality_sum(system, coeffs)) == axis_matrix_by_definition(
            system, coeffs), (system.j, coeffs)
        for i in range(2, system.V + 1):
            unit = [int(l == i) for l in range(2, system.V + 1)]
            assert unpacked(_axis_matrix(system, unit)) == axis_matrix_by_definition(
                system, unit), (system.j, i)


@pytest.mark.parametrize("coeffs", [(0, 1, 1), (1, -2, 1), (1, 1, True)])
def test_weighted_sum_rejects_bad_coefficients(coeffs):
    system = ShadowSystem(4, (1, 1, 1))
    with pytest.raises(NonPositiveCoefficient):
        weighted_inequality_sum(system, coeffs)


def test_weighted_sum_rejects_wrong_count():
    system = ShadowSystem(4, (1, 1, 1))
    with pytest.raises(ValueError):
        weighted_inequality_sum(system, (1, 1))


def test_forms_against_symbolic_oracle():
    """Independent check: rebuild f for a sampled system with sympy from the
    raw shadowing definition on one axis, t_1 = 1 and the balance
    t_V = -(t_1 + ... + t_(V-1)), and compare values at random points."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1234)
    V = 5
    system = ShadowSystem.from_choices(V, (2, 3, 1))
    coeffs = (7, 3, 11, 2)

    order = [sympy.Symbol(f"t_{i}") for i in range(2, V)]
    t = [sympy.Integer(1), *order]
    t.append(-sum(t))

    def q(i):
        return t[i - 1] ** 2 - t[i - 1] * t[system.j[i - 2] - 1]

    f_sym = sum(c * q(i) for c, i in zip(coeffs, range(2, V + 1)))
    g = weighted_inequality_sum(system, coeffs)
    assert len(g) - 1 == len(order)
    for _ in range(12):
        x = rand_point(rng, len(order))
        subs = {var: sympy.Rational(val.numerator, val.denominator)
                for var, val in zip(order, x)}
        assert form_value(g, x) == sympy.Rational(f_sym.subs(subs))
