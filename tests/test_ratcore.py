import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from fraction_reference import (
    area_vectors,
    cross,
    dot,
    phase_one_pivots,
    reference_det,
    solve_column_subset,
)

from monoproof import ratcore
from monoproof.ratcore import (
    SingularError,
    as_rational,
    clear_denominators,
    homogeneous_solution,
    is_positive_definite,
    nonneg_solution_exists,
    parse_rational,
    solve_linear,
    symmetric_bareiss,
)


def test_parse_rational_basic():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational("0") == 0
    assert parse_rational("-0") == 0
    assert parse_rational("0/7") == 0
    assert parse_rational("-12/8") == Fraction(-3, 2)
    assert parse_rational("007/0010") == Fraction(7, 10)


@pytest.mark.parametrize("bad", ["", "1/0", "1.5", "3 / 4", "+5", "1/-2", "a", "1e3",
                                 "\u0663/\u0664", "1/2/3", "1/", "/2", "-", "1/+2", "--1",
                                 pytest.param("7" * 5000 + "/3", id="5000-digit-numerator")])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        value = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(str(value)) == value


def test_format_integers_have_no_slash():
    assert str(Fraction(5)) == "5"
    assert str(Fraction(-12, 4)) == "-3"


def test_as_rational_rejects_float_and_bool():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)


def test_cross_product_orthogonality():
    # The reference cross product that the volume checks and the reference
    # area vectors rely on: the face (0, u, v) opposite the vertex u x v has
    # outward area vector -(u x v) / 2.
    rng = random.Random(5)
    for _ in range(50):
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        w = cross(u, v)
        assert dot(w, u) == 0
        assert dot(w, v) == 0
        if any(w):
            x = area_vectors([[0, 0, 0], u, v, w])[3]
            assert list(x) == [-c / 2 for c in w]
            assert dot(x, u) == 0 and dot(x, v) == 0


def test_matrix_shape_validation():
    with pytest.raises(ValueError, match="square"):
        is_positive_definite([[1, 2], [3]])
    with pytest.raises(ValueError, match="square"):
        solve_linear([[1, 2]], [1])
    with pytest.raises(ValueError, match="rhs"):
        solve_linear([[1, 2], [2, 5]], [1])


def test_clear_denominators_scales_by_one_lcm():
    rows = [[1, Fraction(-3, 4), 0], [Fraction(5, 6), -2, Fraction(-7, 9)]]
    R, L = clear_denominators(rows)
    assert L == 36
    assert R == [[36, -27, 0], [30, -72, -28]]
    assert all(type(x) is int and x == L * e for row, out in zip(rows, R)
               for e, x in zip(row, out))
    assert clear_denominators([[2, -3], [0, 1]]) == ([[2, -3], [0, 1]], 1)
    assert clear_denominators([]) == ([], 1)


@pytest.mark.parametrize("entry", [0.5, Decimal("0.5")], ids=["float", "Decimal"])
def test_exact_solvers_refuse_inexact_entries(entry):
    """Only int and Fraction entries reach the integer core: a float or a
    Decimal has an exact ratio, but it is refused with TypeError naming it."""
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        solve_linear([[entry]], [1])
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        solve_linear([[1]], [entry])
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        is_positive_definite([[entry]])
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        clear_denominators([[1, Fraction(1, 3)], [entry, 2]])


def test_exact_solvers_take_a_bool_as_an_int():
    assert solve_linear([[True, 0], [0, 2]], [1, False]) == (1, 0)
    assert is_positive_definite([[True]])
    assert not is_positive_definite([[False]])


def test_solve_linear_hand_checked():
    # 2x + y = 5, x - y = 1  ->  x = 2, y = 1
    x = solve_linear([[2, 1], [1, -1]], [5, 1])
    assert x == (2, 1) and all(type(v) is Fraction for v in x)


def test_solve_linear_random_systems():
    """Random well-conditioned systems: check A x == b exactly."""
    rng = random.Random(42)
    for trial in range(100):
        n = rng.randint(1, 6)
        A = [[Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)]
             for _ in range(n)]
        b = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)]
        try:
            x = solve_linear(A, b)
        except SingularError:
            continue
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b


def test_solve_linear_singular():
    with pytest.raises(SingularError) as info:
        solve_linear([[1, 2], [2, 4]], [1, 1])
    assert info.value.pivot_index == 1
    # column 1 is twice column 0, column 2 is independent: the index names
    # the first dependent column, not the last one
    with pytest.raises(SingularError) as info:
        solve_linear([[1, 2, 0], [2, 4, 1], [3, 6, 5]], [1, 2, 3])
    assert info.value.pivot_index == 1


def test_solve_needs_pivoting():
    # leading zero forces a row swap inside the elimination
    assert solve_linear([[0, 1], [1, 0]], [3, 4]) == (4, 3)


def in_cone(columns, target) -> bool:
    """Is target = sum(lam_c * columns[c]) for some lam >= 0?  The integer
    rows [A | t], cleared once, as check-hull hands them to the simplex."""
    rows = [[*(as_rational(col[i]) for col in columns), as_rational(target[i])]
            for i in range(len(target))]
    return nonneg_solution_exists(clear_denominators(rows)[0])


def test_jordan_pivot_returns_the_leading_minors():
    """Pivoting (k, k) in turn from prev = 1, each pivot is the leading
    k + 1 by k + 1 minor of the starting matrix: the division by prev keeps
    every entry a minor, where any other scaling lets the entries grow."""
    rng = random.Random(26)
    for _ in range(40):
        n = rng.randint(2, 6)
        while True:
            A = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)]
            minors = [reference_det([row[:k] for row in A[:k]]) for k in range(1, n + 1)]
            if all(minors):
                break
        rows, prev = [list(row) for row in A], 1
        for k in range(n):
            prev = ratcore._jordan_pivot(rows, k, k, prev)
            assert prev == minors[k]


def test_nonneg_combination_target_equal_to_a_column():
    """Degenerate phase-I cases: the target is one of the columns (a
    repeated one, next to a zero column), so ratio tests tie and pivots
    can be degenerate."""
    columns = [[1, 0, 1], [0, 0, 0], ["1/2", 3, 1], [1, 0, 1], [0, "-1/3", 1]]
    for col in columns:
        assert in_cone(columns, col)
    assert in_cone(columns, [0, 0, 0])
    assert in_cone(columns, [1, 0, 2])
    assert not in_cone(columns, [-1, 0, 1])
    assert not in_cone(columns[:1], [1, 0, 2])


def test_nonneg_combination_ratio_ties_go_to_the_lowest_basis_index(monkeypatch):
    """At the third pivot rows 0 and 2 have exactly equal ratios.  Row 0's
    basis is still its artificial column (index 3), row 2's is column 1, so
    Bland's tie-break by basis index picks row 2; a tie-break by row index
    would pick row 0."""
    pivots = []
    pivot = ratcore._jordan_pivot

    def spy(rows, r, c, prev):
        pivots.append((r, c))
        return pivot(rows, r, c, prev)

    monkeypatch.setattr(ratcore, "_jordan_pivot", spy)
    columns = [[0, 0, -1], [0, "-1/2", 1], ["1/2", "-1/2", 1]]
    target = [1, -1, 0]
    assert in_cone(columns, target)
    assert pivots == [(2, 1), (1, 0), (2, 2)]


def reference_nonneg_solution_exists(system) -> bool:
    """Column-subset oracle: A lam = t has a solution lam >= 0 iff it has a
    basic one, the unique solution on at most min(m, n) independent columns
    of A (none when t = 0), so solving every such subset exactly decides it."""
    columns = [[Fraction(x) for x in col] for col in zip(*system)]
    target = columns.pop()
    for size in range(min(len(target), len(columns)) + 1):
        for subset in itertools.combinations(range(len(columns)), size):
            lam = solve_column_subset(columns, subset, target)
            if lam is not None and all(v >= 0 for v in lam):
                return True
    return False


def seeded_systems():
    """2,000 seeded raw integer systems [A | t], 1..5 rows by 1..6 columns
    (m < n, m = n and m > n), with zeroed rows and columns, repeated
    columns, and zero, negative and feasible-by-construction targets."""
    rng = random.Random(16)
    for _ in range(2000):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.2:
            A[rng.randrange(m)] = [0] * n
        if rng.random() < 0.2:
            j = rng.randrange(n)
            for row in A:
                row[j] = 0
        if n > 1 and rng.random() < 0.3:
            j, k = rng.sample(range(n), 2)
            for row in A:
                row[k] = row[j]
        kind = rng.choice(("zero", "random", "combination"))
        if kind == "zero":
            t = [0] * m
        elif kind == "random":
            t = [rng.randint(-6, 6) for _ in range(m)]
        else:
            lam = [rng.randint(0, 2) for _ in range(n)]
            t = [sum(a * x for a, x in zip(row, lam)) for row in A]
        yield [[*row, b] for row, b in zip(A, t)]


def test_nonneg_solution_exists_matches_the_subset_oracle(monkeypatch):
    """The 2,000 seeded systems of seeded_systems.  Every tableau the pivot
    receives is [A | t] plus the carried objective row, m + 1 rows of
    n + 1 entries, and no system takes more pivots than it has bases,
    C(m + n, m): Bland's rule never returns to a basis, so a simplex that
    cycles fails here at once rather than running forever."""
    height = width = 0
    pivots = limit = 0
    pivot = ratcore._jordan_pivot

    def spy(rows, r, c, prev):
        nonlocal pivots
        assert len(rows) == height
        assert all(len(row) == width for row in rows)
        assert pivots < limit, "more pivots than bases"
        pivots += 1
        return pivot(rows, r, c, prev)

    monkeypatch.setattr(ratcore, "_jordan_pivot", spy)
    seen = set()
    for system in seeded_systems():
        m, n = len(system), len(system[0]) - 1
        t = [row[-1] for row in system]
        height, width, limit = m + 1, n + 1, pivots + math.comb(m + n, m)
        expected = reference_nonneg_solution_exists(system)
        assert nonneg_solution_exists(system) is expected, system
        seen.add((expected, (m > n) - (m < n)))
        seen.add(("negative target", min(t) < 0))
    assert seen >= {(v, s) for v in (True, False) for s in (-1, 0, 1)}
    assert ("negative target", True) in seen and pivots > 0


def hull_systems():
    """The tableaux [(R_j, L) ... | (R_i, L)] of every point i of ten
    seeded sets shaped like the benchmark's hull sets: the moment curve
    (t, t^2, t^3) at t = -2..2 with the centroid of four of its points
    mixed in at a seeded position."""
    rng = random.Random(29)
    curve = [[Fraction(t), Fraction(t * t), Fraction(t * t * t)] for t in range(-2, 3)]
    for _ in range(10):
        points = list(curve)
        picks = rng.sample(range(len(curve)), 4)
        points.insert(rng.randrange(len(curve) + 1),
                      [sum(curve[k][c] for k in picks) / 4 for c in range(3)])
        rows, L = clear_denominators(points)
        for i in range(len(rows)):
            others = rows[:i] + rows[i + 1:]
            yield [[*col, x] for col, x in zip(zip(*others), rows[i])] + [[L] * len(rows)]


def test_carried_cost_row_makes_the_re_summing_pivots(monkeypatch):
    """On the 2,000 seeded systems and 60 hull tableaux, the simplex with
    its carried cost row gives the verdict of the Fraction simplex that
    re-sums the artificial rows at every pivot (fraction_reference), makes
    the same (r, c) pivots, and before each pivot its last row is that
    re-summed cost times prev: the integer tableau is prev times the
    Fraction one."""
    steps = []
    pivot = ratcore._jordan_pivot

    def spy(rows, r, c, prev):
        steps.append((r, c, prev, list(rows[-1])))
        return pivot(rows, r, c, prev)

    monkeypatch.setattr(ratcore, "_jordan_pivot", spy)
    verdicts = set()
    for system in itertools.chain(seeded_systems(), hull_systems()):
        steps.clear()
        expected, reference = phase_one_pivots(system)
        assert nonneg_solution_exists(system) is expected, system
        assert [(r, c) for r, c, _, _ in steps] == [(r, c) for r, c, _ in reference], system
        for (_, _, prev, carried), (_, _, cost) in zip(steps, reference):
            assert carried == [prev * x for x in cost], system
        verdicts.add((expected, len(steps) > 1))
    assert verdicts == {(v, many) for v in (True, False) for many in (True, False)}


@pytest.mark.parametrize("system", [[], [[1, 2], [3]], [[1], [2, 3]], [[], []]])
def test_nonneg_solution_exists_rejects_malformed_systems(system):
    with pytest.raises(ValueError):
        nonneg_solution_exists(system)


def test_pd_known_cases():
    assert is_positive_definite([[int(i == j) for j in range(4)] for i in range(4)])
    assert is_positive_definite([[2, -1], [-1, 2]])
    assert is_positive_definite([[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), 1]])
    assert not is_positive_definite([[1, 2], [2, 1]])
    assert not is_positive_definite([[0, 0], [0, 1]])
    assert not is_positive_definite([[-1, 0], [0, -1]])


def test_pd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_positive_definite([[1, 2], [0, 1]])


def test_pd_gram_matrices():
    """G^T G + I is always positive definite; G^T G alone is not when G has
    fewer rows than columns."""
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = rng.randint(1, n - 1)
        g = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(rows)]
        gram = [
            [sum(g[k][i] * g[k][j] for k in range(rows)) for j in range(n)]
            for i in range(n)
        ]
        assert not is_positive_definite(gram)
        bumped = [
            [gram[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)
        ]
        assert is_positive_definite(bumped)


def eliminated_by_reference(full, count):
    """The packed rows symmetric_bareiss leaves when it stops after
    ``count`` steps, from Fraction determinants alone: row r has taken
    s = min(r, count) steps, so its entry (r, c) is the minor on rows
    0..s-1, r and columns 0..s-1, c."""
    size = len(full)
    rows = []
    for r in range(size):
        keep = list(range(min(r, count)))
        rows.append([reference_det([[full[i][j] for j in keep + [c]] for i in keep + [r]])
                     for c in range(r, size)])
    return rows


def test_symmetric_bareiss_agrees_with_reference_path():
    """The shared symmetric elimination on a homogenized [[H, b], [b^T, c]]
    must stop at the first nonpositive leading minor, leave the minors a
    separate Fraction determinant computes on its diagonal and every entry
    where the reference minors put it, and, when H is positive definite,
    back-substitute to the pivoting solver's solution of H x = -b.  H runs
    up to 9 x 9, the size at V = 10, with random draws and, for every size,
    a stop forced at each position: the (s, s) entry of a positive definite
    matrix lowered until the (s+1)-th leading minor is not positive."""
    rng = random.Random(14)
    cases = []
    for _ in range(120):
        n = rng.randint(1, 9)
        g = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        sym = [[sum(g[k][i] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            for i in range(n):
                sym[i][i] += rng.randint(1, 3)
        else:
            i = rng.randrange(n)
            sym[i][i] -= rng.randint(0, 6)
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        cases.append((sym, rhs, [row + [b] for row, b in zip(sym, rhs)]
                      + [rhs + [rng.randint(-20, 80)]]))
    for n in range(1, 10):
        for stop in range(n + 1):
            g = [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(n + 1)]
            full = [[sum(g[k][i] * g[k][j] for k in range(n + 1)) + (i == j)
                     for j in range(n + 1)] for i in range(n + 1)]
            below, at = (reference_det([row[:k] for row in full[:k]]) for k in (stop, stop + 1))
            full[stop][stop] -= -(-at // below) + rng.randint(0, 2)  # minor stop+1 is linear in it
            cases.append(([row[:n] for row in full[:n]], full[n][:n], full))
    outcomes, stops = set(), set()
    for sym, rhs, full in cases:
        n = len(sym)
        minors = [reference_det([row[:k] for row in full[:k]]) for k in range(1, n + 2)]
        expected = next((k for k, d in enumerate(minors) if d <= 0), n + 1)
        m = [row[r:] for r, row in enumerate(full)]
        count = symmetric_bareiss(m)
        assert count == expected
        assert [m[k][0] for k in range(min(count + 1, n + 1))] == minors[: count + 1]
        assert m == eliminated_by_reference(full, count)
        outcomes.add("not PD" if count < n else "last minor" if count == n else "all")
        stops.add((n, count))
        if count >= n:
            X, D = homogeneous_solution(m)
            assert D == minors[n - 1]
            x = tuple(Fraction(v, D) for v in X)
            assert x == solve_linear(sym, [-b for b in rhs])
    assert outcomes == {"not PD", "last minor", "all"}
    assert stops >= {(n, k) for n in range(1, 10) for k in range(n + 1)}
