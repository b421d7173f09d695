import hashlib
import json
import math
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest
from fraction_reference import form_value, minimizer, reference_det, reference_is_pd, unpacked

from monoproof import expansion, prover
from monoproof.expansion import (
    ShadowSystem,
    enumerate_systems,
    inequality_forms,
    scaled_vertices,
    weighted_inequality_sum,
)
from monoproof.prover import (
    Certificate,
    Exhausted,
    SearchConfig,
    prove_unsolvable,
    search_certificate,
    verify_certificate,
)
from monoproof.ratcore import (
    homogeneous_solution,
    solve_linear,
    symmetric_bareiss,
)
from monoproof.tables import bundled_table_path, parse_certificate_table

# published certificate rows used as exact fixtures: (V, choices, coeffs, min)
KNOWN_ROWS = [
    (4, (2, 3), (44, 84, 26), Fraction(137704, 9511)),
    (5, (1, 1, 1), (99, 60, 45, 101), Fraction(3607295, 47108)),
    (6, (1, 1, 1, 1), (60, 45, 101, 39, 70), Fraction(34831755, 587084)),
    (7, (2, 3, 4, 5, 6), (28, 66, 70, 94, 29, 19), Fraction(1734809, 61452664)),
]


def hessian_and_linear_part(g):
    """(G_h, b) of an axis matrix G in packed rows: the Hessian of the form
    f(x) = y^T G y / 2 at y = (x, 1) over x = (t_2, ..., t_(V-1)), and its
    linear part, the last column of G without the corner."""
    rows = unpacked(g)
    return [row[:-1] for row in rows[:-1]], [row[-1] for row in rows[:-1]]


def test_minimizer_has_zero_gradient():
    """verify_certificate's minimizer x solves G_h x + b = 0 for the weighted
    sum f(x) = y^T G(c) y / 2 at y = (x, 1) over x = (t_2, ..., t_(V-1)),
    and f there is the reported minimum."""
    rng = random.Random(3)
    for V, choices, coeffs, expected in KNOWN_ROWS:
        system = ShadowSystem.from_choices(V, choices)
        g = weighted_inequality_sum(system, coeffs)
        check = verify_certificate(V, system, coeffs)
        x, value = minimizer(check), check.min_value
        assert len(x) == V - 2 and value == expected
        hessian, b = hessian_and_linear_part(g)
        assert all(sum(h * xi for h, xi in zip(row, x)) + bi == 0 for row, bi in zip(hessian, b))
        assert form_value(g, x) == value
        # every other point sits strictly above the minimum
        for _ in range(5):
            y = [xi + Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for xi in x]
            if y != x:
                assert form_value(g, y) > value


@pytest.mark.parametrize("V,choices,coeffs,expected", KNOWN_ROWS)
def test_verify_certificate_published_rows(V, choices, coeffs, expected):
    system = ShadowSystem.from_choices(V, choices)
    result = verify_certificate(V, system, coeffs)
    assert result.hessian_pd
    assert result.positive
    assert result.min_value == expected


def test_verify_certificate_non_pd_reported_not_raised():
    system = ShadowSystem(5, (1, 1, 1, 2))
    result = verify_certificate(5, system, (1, 1, 1, 40))
    assert not result.hessian_pd
    assert result.min_value is None
    assert not result.positive


def test_verify_certificate_negative_minimum():
    system = ShadowSystem(4, (1, 1, 1))
    result = verify_certificate(4, system, (100, 1, 1))
    assert result.hessian_pd
    assert result.min_value == Fraction(-9001, 402)
    assert not result.positive


def test_verify_certificate_vertex_count_mismatch():
    system = ShadowSystem(4, (1, 1, 1))
    with pytest.raises(ValueError):
        verify_certificate(5, system, (1, 1, 1))


def test_certificate_homogeneity():
    """Scaling the weights by a positive integer scales the minimum and
    leaves the minimizer fixed."""
    V, choices, coeffs, expected = KNOWN_ROWS[0]
    system = ShadowSystem.from_choices(V, choices)
    base = verify_certificate(V, system, coeffs)
    scaled = verify_certificate(V, system, tuple(3 * c for c in coeffs))
    assert scaled.min_value == 3 * expected
    assert (scaled.minimizer_num, scaled.minimizer_den) == (base.minimizer_num, base.minimizer_den)


def test_certificate_refutes_all_points():
    """f(x) >= min > 0 everywhere, so at every rational point at least one
    inequality of the system is violated."""
    rng = random.Random(8)
    V, choices, coeffs, expected = KNOWN_ROWS[1]
    system = ShadowSystem.from_choices(V, choices)
    forms = inequality_forms(system)
    g = weighted_inequality_sum(system, coeffs)
    for _ in range(25):
        x = [Fraction(rng.randint(-40, 40), rng.randint(1, 15)) for _ in range(V - 2)]
        assert form_value(g, x) >= expected
        assert max(form_value(q, x) for q in forms) > 0


def test_certificate_refutes_its_system_in_every_dimension():
    """The dimension-free step.  For r_1..r_V in R^d with sum_i r_i = 0,
    F(r) = sum_i c_i (|r_i|^2 - r_i.r_j(i)) is the one-axis form g_c summed
    over the d coordinate axes, so a certificate with minimum m (at t_1 = 1)
    gives F(r) >= m |r_1|^2, with equality when axis 1 holds the
    certificate's t and every other axis is 0 (or a multiple of t).  Cases:
    every 10th bundled row per V, seeded rational configurations in
    d = 1..4, random and near the equality point."""
    rng = random.Random(59)

    def rational(span, den):
        return Fraction(rng.randint(-span, span), rng.randint(1, den))

    def centred(points):
        return points + [[-sum(col) for col in zip(*points)]]

    for V in (4, 5, 6, 7):
        for row in parse_certificate_table(bundled_table_path(V)).rows[::10]:
            system, coeffs = row.system, row.coeffs
            check = verify_certificate(V, system, coeffs)
            assert check.hessian_pd and check.positive
            m = check.min_value
            t = scaled_vertices(minimizer(check), 1)

            def F(rs):
                return sum(c * sum(a * a - a * b
                                   for a, b in zip(rs[i - 1], rs[j - 1]))
                           for i, c, j in zip(range(2, V + 1), coeffs, system.j))

            for d in range(1, 5):
                assert F([[ti] + [0] * (d - 1) for ti in t]) == m
                scales = [rational(5, 3) for _ in range(d)]
                assert F([[s * ti for s in scales] for ti in t]) == m * sum(s * s for s in scales)
                for _ in range(3):
                    rs = centred([[rational(20, 9) for _ in range(d)] for _ in range(V - 1)])
                    assert F(rs) >= m * sum(a * a for a in rs[0])
                    near = centred([[s * ti + rational(1, 50) for s in scales] for ti in t[:-1]])
                    assert F(near) >= m * sum(a * a for a in near[0])


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(coeff_min=0)
    with pytest.raises(ValueError):
        SearchConfig(coeff_min=5, coeff_max=4)
    with pytest.raises(ValueError):
        SearchConfig(max_trials=0)


@pytest.mark.parametrize("field", ["coeff_min", "coeff_max", "max_trials", "base_seed"])
@pytest.mark.parametrize("value", [101.0, 2.5, True], ids=["integral-float", "float", "bool"])
def test_search_config_refuses_a_non_int(field, value):
    """A float would fail only later, in _draws, range or the seed mask, or
    seed a stream with a float; a bool is an int, but no knob means one."""
    with pytest.raises(TypeError, match=f"{field} must be an int, got {value!r}"):
        SearchConfig(**{field: value})


def test_search_finds_certificates_on_all_v4_systems():
    for system in enumerate_systems(4):
        result = search_certificate(system, SearchConfig(max_trials=10_000, base_seed=7))
        assert isinstance(result, Certificate)
        assert all(1 <= c <= 101 for c in result.coeffs)
        check = verify_certificate(4, system, result.coeffs)
        assert check.hessian_pd and check.positive
        assert check.min_value == result.min_value
        assert (check.minimizer_num, check.minimizer_den) == (result.minimizer_num,
                                                              result.minimizer_den)


def test_search_is_deterministic():
    system = ShadowSystem(5, (1, 2, 3, 4))
    cfg = SearchConfig(max_trials=500, base_seed=99)
    a = search_certificate(system, cfg)
    b = search_certificate(system, cfg)
    assert a == b


def test_search_degenerate_range_single_candidate():
    # with coeff_min == coeff_max == 1 the only candidate is all-ones, and
    # for this system it happens to be a certificate on the first trial
    system = ShadowSystem(4, (1, 1, 1))
    result = search_certificate(system, SearchConfig(coeff_min=1, coeff_max=1, max_trials=9))
    assert isinstance(result, Certificate)
    assert result.coeffs == (1, 1, 1)
    assert result.trials == 1
    assert result.min_value == Fraction(4, 3)


def test_search_exhaustion_counters():
    system = ShadowSystem(4, (1, 2, 3))
    result = search_certificate(system, SearchConfig(max_trials=1, base_seed=5))
    assert isinstance(result, Exhausted)
    assert result.trials == 1
    assert result.negative_minima_seen + result.non_pd_seen == 1
    assert result.negative_minima_seen == 1  # frozen: this seed draws a PD miss


def test_v8_chain_certificate_against_symbolic_oracle():
    """Independent check of the certificate the default search finds for the
    V=8 chain system j(i) = i-1: rebuild sum_i c_i Q_i with sympy from the
    raw shadowing definition in the 3-dimensional frame r_1 = (1, 0, 0),
    r_23 = 0, then check every leading minor of its 17x17 Hessian, the zero
    gradient over all 17 coordinates at the minimizer (placed on axis 1,
    with axes 2 and 3 zero) and the exact minimum."""
    sympy = pytest.importorskip("sympy")
    V = 8
    system = ShadowSystem(V, (1, 2, 3, 4, 5, 6, 7))
    coeffs = (14, 56, 59, 92, 43, 50, 22)
    expected = Fraction(22832583298, 38544274275)

    syms = {(1, 1): sympy.Integer(1), (1, 2): sympy.Integer(0),
            (1, 3): sympy.Integer(0), (2, 3): sympy.Integer(0)}
    order = []
    for i in range(2, V):
        for k in (1, 2, 3):
            if (i, k) not in syms:
                var = sympy.Symbol(f"r_{i}_{k}")
                syms[(i, k)] = var
                order.append(var)
    for k in (1, 2, 3):
        syms[(V, k)] = -sum(syms[(l, k)] for l in range(1, V))

    def q(i):
        return sum(syms[(i, k)] ** 2 for k in (1, 2, 3)) - sum(
            syms[(i, k)] * syms[(system.j[i - 2], k)] for k in (1, 2, 3)
        )

    f_sym = sympy.expand(sum(c * q(i) for c, i in zip(coeffs, range(2, V + 1))))
    hess = sympy.hessian(f_sym, order)
    assert hess.shape == (17, 17)
    assert all(hess[:k, :k].det() > 0 for k in range(1, 18))

    # the minimizer x = (t_2, ..., t_7) on axis 1; axes 2 and 3 are zero
    check = verify_certificate(V, system, coeffs)
    assert len(check.minimizer_num) == V - 2
    subs = {var: sympy.Integer(0) for var in order}
    for i, num in zip(range(2, V), check.minimizer_num):
        subs[syms[(i, 1)]] = sympy.Rational(num, check.minimizer_den)
    assert all(sympy.diff(f_sym, var).subs(subs) == 0 for var in order)
    value = f_sym.subs(subs)
    assert value == sympy.Rational(expected.numerator, expected.denominator)
    assert check.min_value == expected


def test_search_respects_coefficient_bounds():
    system = ShadowSystem(4, (1, 1, 2))
    result = search_certificate(
        system, SearchConfig(coeff_min=40, coeff_max=60, max_trials=5_000, base_seed=2)
    )
    assert isinstance(result, Certificate)
    assert all(40 <= c <= 60 for c in result.coeffs)


def test_integer_core_agrees_with_form_path():
    """verify_certificate (the one-axis (V-1) x (V-1) integer matrix, one
    symmetric Bareiss pass, fraction-free back substitution) must agree with
    the same G(c) = weighted_inequality_sum(...) solved by the other
    routines: Fraction leading minors of its Hessian block G_h (Sylvester,
    sharing no code with symmetric_bareiss) on the PD flag, the pivoting
    solve_linear(G_h, -b) on the minimizer and the form's value
    y^T G y / 2 at y = (x, 1) on the minimum.
    Cases: every 10th bundled row per V, and seeded random weights at
    V = 5..7 that include non-PD and negative draws."""
    cases = []
    for V in (4, 5, 6, 7):
        rows = parse_certificate_table(bundled_table_path(V)).rows
        cases += [(row.system, row.coeffs) for row in rows[::10]]
    rng = random.Random(31)
    for _ in range(200):
        V = rng.randint(5, 7)
        system = ShadowSystem.from_choices(V, [rng.randint(1, i - 1) for i in range(3, V + 1)])
        coeffs = tuple(rng.choice((rng.randint(1, 101), rng.randint(1, 3000)))
                       for _ in range(V - 1))
        cases.append((system, coeffs))
    outcomes = Counter()
    for system, coeffs in cases:
        got = verify_certificate(system.V, system, coeffs)
        g = weighted_inequality_sum(system, coeffs)
        hessian, b = hessian_and_linear_part(g)
        assert got.hessian_pd == reference_is_pd(hessian)
        if not got.hessian_pd:
            assert got.min_value is None and got.minimizer_num is None and not got.positive
            outcomes["non_pd"] += 1
            continue
        x = solve_linear(hessian, [-v for v in b])
        value = form_value(g, x)
        assert minimizer(got) == list(x)
        assert got.min_value == value
        assert got.positive == (value > 0)
        outcomes["positive" if value > 0 else "negative"] += 1
    assert min(outcomes[kind] for kind in ("non_pd", "negative", "positive")) > 0, outcomes


@pytest.mark.parametrize("V", range(4, 11))
def test_verify_certificate_matches_the_fraction_leading_minors(V):
    """verify_certificate's verdict on G(c) against the leading minors
    d_1, ..., d_(V-1) of G(c) from Fraction determinants: a PD Hessian
    exactly when d_1..d_(V-2) are positive, then the minimum
    d_(V-1) / (2 d_(V-2)) (the Schur complement of the corner), positive
    when d_(V-1) is.  Seeded systems and weights at each V, with the
    certificate the search finds for the first of them among the draws."""
    rng = random.Random(V)
    systems = [ShadowSystem.from_choices(V, [rng.randint(1, i - 1) for i in range(3, V + 1)])
               for _ in range(12)]
    cases = [(system, tuple(rng.randint(1, 100) for _ in range(V - 1))) for system in systems]
    found = search_certificate(systems[0], SearchConfig(base_seed=V, max_trials=100_000))
    cases.append((systems[0], found.coeffs))
    outcomes = Counter()
    for system, coeffs in cases:
        full = unpacked(weighted_inequality_sum(system, coeffs))
        minors = [reference_det([row[:k] for row in full[:k]]) for k in range(1, V)]
        got = verify_certificate(V, system, coeffs)
        assert got.hessian_pd == all(d > 0 for d in minors[:-1])
        if got.hessian_pd:
            assert got.min_value == minors[-1] / (2 * minors[-2])
            assert got.positive == (minors[-1] > 0)
        outcomes["positive" if got.positive else "negative" if got.hessian_pd else "non_pd"] += 1
    assert outcomes["positive"] and outcomes["negative"] + outcomes["non_pd"], outcomes


def test_pd_flag_against_second_difference_hessian():
    """A positive-definiteness oracle that shares no code with the forms or
    the elimination: the (V-2) x (V-2) Hessian of
    F(x) = sum_i c_i (|r_i|^2 - r_i.r_j(i)) over x = (t_2, ..., t_(V-1)) from
    second differences F(e_p + e_q) - F(e_p) - F(e_q) + F(0) on
    scaled_vertices(x, 1), exact because F is quadratic, and its PD
    flag from Fraction leading minors (Sylvester).  Cases: every 10th bundled row per V, and
    seeded random weights at V = 5..8 that include non-PD and negative
    draws."""
    cases = []
    for V in (4, 5, 6, 7):
        rows = parse_certificate_table(bundled_table_path(V)).rows
        cases += [(row.system, row.coeffs) for row in rows[::10]]
    rng = random.Random(47)
    for _ in range(120):
        V = rng.randint(5, 8)
        system = ShadowSystem.from_choices(V, [rng.randint(1, i - 1) for i in range(3, V + 1)])
        coeffs = tuple(rng.choice((rng.randint(1, 101), rng.randint(1, 3000)))
                       for _ in range(V - 1))
        cases.append((system, coeffs))
    outcomes = Counter()
    for system, coeffs in cases:
        V, n = system.V, system.V - 2

        def F(x):  # x is integral, so are the vertices
            t = scaled_vertices(x, 1)
            return sum(c * (t[i - 1] ** 2 - t[i - 1] * t[j - 1])
                       for i, c, j in zip(range(2, V + 1), coeffs, system.j))

        unit = [[int(p == q) for q in range(n)] for p in range(n)]
        f0, f1 = F([0] * n), [F(u) for u in unit]
        H = [[0] * n for _ in range(n)]
        for p in range(n):
            for q in range(p, n):
                pair = [a + b for a, b in zip(unit[p], unit[q])]
                H[p][q] = H[q][p] = F(pair) - f1[p] - f1[q] + f0
        got = verify_certificate(V, system, coeffs)
        assert reference_is_pd(H) == got.hessian_pd
        outcomes["positive" if got.positive else "negative" if got.hessian_pd else "non_pd"] += 1
    assert min(outcomes[kind] for kind in ("non_pd", "negative", "positive")) > 0, outcomes


@pytest.mark.parametrize("corrupt", ["constant", "hessian"])
def test_audit_catches_a_corrupted_axis_matrix(corrupt, monkeypatch):
    """A wrong entry of the axis matrix G(c) moves the minimum (its corner)
    or the minimizer (an off-diagonal axis-1 Hessian entry); the geometric
    audit in verify_certificate must reject either."""
    V, choices, coeffs, expected = KNOWN_ROWS[1]
    system = ShadowSystem.from_choices(V, choices)
    build = expansion.weighted_inequality_sum

    def corrupted(system, coeffs):
        m = build(system, coeffs)
        if corrupt == "constant":
            m[-1][0] += 1
        else:
            m[0][1] += 1
        return m

    monkeypatch.setattr(prover, "weighted_inequality_sum", corrupted)
    audit = f"system {system.system_id} failed the geometric audit"
    with pytest.raises(RuntimeError, match=audit):
        verify_certificate(V, system, coeffs)
    monkeypatch.undo()
    assert verify_certificate(V, system, coeffs).min_value == expected


def test_audit_catches_a_consistent_point_that_is_not_stationary():
    """At x = 0 with D = 1 the rebuilt vertices are t = (1, 0, ..., 0, -1).
    Reporting d_last = 2 g(t) there makes the value check pass, so only the
    zero-gradient check can reject the point; every sampled bundled row's
    true minimizer is elsewhere, and the audit must raise."""
    for V in (4, 5, 6, 7):
        for row in parse_certificate_table(bundled_table_path(V)).rows[::29]:
            assert any(verify_certificate(V, row.system, row.coeffs).minimizer_num)
            t = [1] + [0] * (V - 2) + [-1]
            g = sum(c * (t[i - 1] ** 2 - t[i - 1] * t[j - 1])
                    for i, c, j in zip(range(2, V + 1), row.coeffs, row.system.j))
            with pytest.raises(RuntimeError, match="failed the geometric audit"):
                prover._audit(row.system, row.coeffs, [0] * (V - 2), 1, 2 * g)


def audit_cases():
    """Sampled bundled rows with their dense minimum as _audit receives it:
    (system, coeffs, X, D, d_last), the minimizer X / D and the corner
    minor d_last, so the minimum is d_last / (2 D)."""
    for V in (4, 5, 6, 7):
        for row in parse_certificate_table(bundled_table_path(V)).rows[::37]:
            m = weighted_inequality_sum(row.system, row.coeffs)
            assert symmetric_bareiss(m) == V - 1
            X, D = homogeneous_solution(m)
            yield row.system, row.coeffs, X, D, m[-1][0]


def test_audit_rejects_the_value_moved_either_way_or_the_minimizer_moved():
    """The true minimum passes; the value one unit up or down, or the
    minimizer's numerators moved by +-1 in any one coordinate, must be
    rejected.  The value one unit down passes a value check that only
    rejects a value too high."""
    for system, coeffs, X, D, d_last in audit_cases():
        prover._audit(system, coeffs, X, D, d_last)
        for wrong in (d_last - 1, d_last + 1):
            with pytest.raises(RuntimeError, match="failed the geometric audit"):
                prover._audit(system, coeffs, X, D, wrong)
        for k in range(len(X)):
            for step in (-1, 1):
                moved = list(X)
                moved[k] += step
                with pytest.raises(RuntimeError, match="failed the geometric audit"):
                    prover._audit(system, coeffs, moved, D, d_last)


def test_audit_checks_the_gradient_in_every_coordinate():
    """x = x* + G_h^-1 e_k has gradient e_k: zero in every coordinate but
    k.  Reported with its own value, scaled so that it is integral, it
    passes the value check, so only the derivative in coordinate k can
    reject it, for each k including the last.  The same construction at
    x* itself passes."""
    for system, coeffs, X, D, d_last in audit_cases():
        g = weighted_inequality_sum(system, coeffs)
        hessian, _ = hessian_and_linear_part(g)
        n = len(X)
        for k in [None, *range(n)]:
            delta = solve_linear(hessian, [int(p == k) for p in range(n)])
            x = [Fraction(a, D) + b for a, b in zip(X, delta)]
            value = form_value(g, x)
            scale = math.lcm(*(v.denominator for v in x))
            scale *= (2 * scale * value).denominator
            point = ([int(scale * v) for v in x], scale, int(2 * scale * value))
            if k is None:
                prover._audit(system, coeffs, *point)
            else:
                with pytest.raises(RuntimeError, match="failed the geometric audit"):
                    prover._audit(system, coeffs, *point)


def test_prove_unsolvable_v4():
    started = time.perf_counter()
    report = prove_unsolvable(4, SearchConfig(base_seed=1))
    elapsed = time.perf_counter() - started
    assert report.V == 4
    assert len(report.systems) == 6
    assert report.all_certified
    assert report.verdict == "unsolvable"
    assert report.certified_count == 6
    assert 0 < report.wall_clock_seconds <= elapsed


def test_check_proof_vertices_accepts_both_ends_of_its_range():
    prover.check_proof_vertices(4)
    prover.check_proof_vertices(10)


def test_system_seeds_wrap_at_two_to_the_64():
    """Each system's seed is (base_seed + system_id) mod 2**64, so a base
    seed of 2**64 draws exactly what seed 0 draws."""
    def rows(seed):
        return prove_unsolvable(5, SearchConfig(base_seed=seed)).to_json()["systems"]

    assert rows(2**64) == rows(0)


def test_prove_unsolvable_rejects_small_v():
    with pytest.raises(ValueError):
        prove_unsolvable(3)


def test_prove_unsolvable_refuses_v_above_the_cap_before_enumerating(monkeypatch):
    """(V-1)! tasks do not fit in memory past the cap, so the refusal comes
    before any system is built."""
    def fail(V):
        raise AssertionError("systems enumerated")

    monkeypatch.setattr(prover, "enumerate_systems", fail)
    for V in (prover.MAX_PROOF_VERTICES + 1, 13):
        with pytest.raises(ValueError, match="stop at V = 10"):
            prove_unsolvable(V)


def test_prove_report_json_shape():
    report = prove_unsolvable(4, SearchConfig(base_seed=2))
    doc = report.to_json()
    assert doc["V"] == 4
    assert doc["verdict"] == "unsolvable"
    assert doc["base_seed"] == 2
    assert doc["coeff_range"] == [1, 101]
    assert len(doc["systems"]) == 6
    first = doc["systems"][0]
    assert first["system_id"] == 0
    assert first["j"] == [1, 1, 1]
    assert first["status"] == "certified"
    assert isinstance(first["coeffs"], list)
    assert "/" in first["min_value"] or first["min_value"].lstrip("-").isdigit()
    assert first["trials"] >= 1


def test_prove_report_lists_exhausted_systems():
    # a 1-trial budget leaves some systems uncertified for this seed
    report = prove_unsolvable(4, SearchConfig(base_seed=1, max_trials=1))
    doc = report.to_json()
    statuses = {row["status"] for row in doc["systems"]}
    assert "exhausted" in statuses
    assert report.verdict == "undetermined"
    for row in doc["systems"]:
        if row["status"] == "exhausted":
            assert row["coeffs"] is None
            assert row["min_value"] is None
            assert row["negative_minima_seen"] + row["non_pd_seen"] == row["trials"]


def test_prove_parallel_matches_serial():
    cfg = SearchConfig(base_seed=3)
    serial = prove_unsolvable(5, cfg, jobs=1).to_json()
    parallel = prove_unsolvable(5, cfg, jobs=2).to_json()
    assert serial == parallel


def test_per_system_seeds_are_independent_of_sibling_results():
    """System k's result only depends on base_seed + k, never on scheduling:
    searching a system alone reproduces its row from the full report."""
    cfg = SearchConfig(base_seed=11)
    report = prove_unsolvable(4, cfg)
    for row in report.systems:
        alone = search_certificate(
            row.system, replace(cfg, base_seed=11 + row.system.system_id)
        )
        assert alone == row


@pytest.mark.parametrize("low,high", [(1, 1), (1, 2), (1, 101), (1, 128), (1, 129),
                                      (7, 7 + 2**40)])
def test_search_draws_the_randint_stream(low, high, monkeypatch):
    """The coefficients the search hands to its trials are those of
    rng.randint(coeff_min, coeff_max) on the same stream: for widths 1 and
    2, the default 101, a power of two and one past it, and one wider than
    a 32-bit word."""
    drawn = []

    def spy(j, coeffs):
        drawn.append(coeffs)
        return "negative"

    monkeypatch.setattr(prover, "_tree_trial", spy)
    system = ShadowSystem(5, (1, 2, 2, 3))
    for seed in (0, 1, 2**64 - 1):
        drawn.clear()
        cfg = SearchConfig(coeff_min=low, coeff_max=high, max_trials=40, base_seed=seed)
        assert search_certificate(system, cfg) == Exhausted(system, 40, 40, 0)
        rng = random.Random(seed)
        assert drawn == [tuple(rng.randint(low, high) for _ in range(4)) for _ in range(40)]


@pytest.mark.parametrize("field", ["minimizer_num", "minimizer_den", "min_value"])
def test_prove_refuses_a_certificate_that_fails_re_verification(field, monkeypatch):
    """A certificate whose minimizer has one numerator or its denominator
    off by one, or whose exact minimum is off, stops prove_unsolvable."""
    search = prover.search_certificate

    def tampered(system, cfg):
        result = search(system, cfg)
        num, value = result.minimizer_num, result.min_value
        off = {"minimizer_num": (num[0] + 1, *num[1:]),
               "minimizer_den": result.minimizer_den + 1,
               "min_value": Fraction(value.numerator + 1, value.denominator)}
        return result._replace(**{field: off[field]})

    monkeypatch.setattr(prover, "search_certificate", tampered)
    with pytest.raises(RuntimeError, match="failed exact re-verification"):
        prove_unsolvable(4)


# sha256 of json.dumps(prove_unsolvable(V, SearchConfig(base_seed=seed)).to_json(),
# sort_keys=True), recorded from the Fraction-based search that preceded the
# integer core (its wall_clock_seconds key removed): the core must not change
# a single trial or certificate.
PINNED_REPORTS = {
    (4, 0): "b71e1a7ecf366215d6e2978b64d65e0b1fecc6ad8af3473859ef1896f8863543",
    (4, 1): "c915bffbefde3e3f54e99b78b90df821ffc524a30669e82982720263d85b7e12",
    (4, 2): "aa814b2577be448fc027c50dcef1e11c04d78af27b3709031cf1abf7d7acd82d",
    (5, 0): "08669b03f96ae557017b165d8c7b9b95fa67278369cb75ae8cfc9519c1957c4b",
    (5, 1): "88d31235377a3f8670d18ec94f4e8a1c31bfc509a85f8e4786d3d9993862ac5e",
    (5, 2): "a26b753d2b7eed1991ededafd5dc82997d2442bdd2405a2302262d68de410773",
    (6, 0): "74393711d612ba087ef0476e98a32569d666984a28ac59b080daa6a5d9ee532a",
    (6, 1): "4b6c14968224c5284875a6bc99f8d29f5eedd6231b0f7231529b8ea383aa791f",
    (6, 2): "9932de6fcc6f0d8a80b491537dfd828da5f44b166ee2d6cbe58a9edaa3de6c3a",
}


@pytest.mark.parametrize("V,seed", sorted(PINNED_REPORTS))
def test_prove_report_body_is_pinned(V, seed):
    body = json.dumps(prove_unsolvable(V, SearchConfig(base_seed=seed)).to_json(), sort_keys=True)
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == PINNED_REPORTS[(V, seed)]


def test_prove_rejects_nonpositive_jobs():
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            prove_unsolvable(4, jobs=jobs)


def test_prove_caps_pool_workers(monkeypatch):
    """The pool gets min(jobs, cpu count, systems) workers, and none at a cap
    of 1.  A stub stands in for the pool, so no process is started."""
    created = []

    class InlinePool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(prover, "ProcessPoolExecutor", InlinePool)
    cfg = SearchConfig(base_seed=4)
    serial = prove_unsolvable(4, cfg).to_json()
    for cpus, jobs, workers in [(4, 1000, [4]), (64, 1000, [6]), (3, 2, [2]),
                                (1, 8, []), (None, 8, [])]:
        created.clear()
        monkeypatch.setattr(prover.os, "cpu_count", lambda: cpus)
        assert prove_unsolvable(4, cfg, jobs=jobs).to_json() == serial
        assert created == workers


def test_prove_through_the_real_pool_on_any_core_count(monkeypatch):
    """With the CPU count set to 2, jobs=2 starts the real, lazily imported
    process pool with 2 workers even on a 1-core host; the report equals the
    serial one.  search_certificate is replaced by a local function, as a
    tracer replaces it, which cannot be pickled: the pool must be handed
    _search_task, never the current search_certificate binding."""
    cfg = SearchConfig(base_seed=3)
    serial = prove_unsolvable(5, cfg).to_json()
    started = []
    lazy = prover.ProcessPoolExecutor
    search = prover.search_certificate

    def recording(max_workers):
        pool = lazy(max_workers=max_workers)
        started.append((type(pool), max_workers))
        return pool

    monkeypatch.setattr(prover, "ProcessPoolExecutor", recording)
    monkeypatch.setattr(prover, "search_certificate", lambda system, cfg: search(system, cfg))
    monkeypatch.setattr(prover.os, "cpu_count", lambda: 2)
    assert prove_unsolvable(5, cfg, jobs=2).to_json() == serial
    assert started == [(ProcessPoolExecutor, 2)]


# sha256 of the sorted-key body of prove_unsolvable(V) at seed 0 for the two
# largest proofs the tests run, recorded from the dense-matrix search that
# preceded the tree sweep: 720 systems in 6,673 trials at V = 7, and 5,040
# systems in 205,315 trials at V = 8 (at most 2,190 for one system).
PINNED_LARGEST_REPORTS = {
    7: "1bcfcff5e9a7bc3dec89480ce83d4dabc3a70dc5302105052769132b37f54d73",
    8: "b075cc2fce157dad59f72fec9918c39468d248b22ab8450c1c3734f16bb423fc",
}


@pytest.mark.parametrize("V", sorted(PINNED_LARGEST_REPORTS))
def test_largest_prove_report_bodies_are_pinned(V):
    report = prove_unsolvable(V, SearchConfig(base_seed=0))
    assert report.all_certified
    body = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == PINNED_LARGEST_REPORTS[V]


def dense_decision(system, coeffs):
    """A trial decided on G(c) as verification does: the class from one
    symmetric Bareiss pass, and a certificate's exact minimum and minimizer
    from fraction-free back substitution.  The minimizer is given as its
    Fractions' numerators over their least common denominator, which are
    its numerators over one positive denominator in lowest terms."""
    m = expansion.weighted_inequality_sum(system, coeffs)
    positive_minors = symmetric_bareiss(m)
    if positive_minors < system.V - 2:
        return "non_pd"
    if positive_minors == system.V - 2:
        return "negative"
    X, D = homogeneous_solution(m)
    x = [Fraction(v, D) for v in X]
    den = math.lcm(*(v.denominator for v in x))
    return Fraction(m[-1][0], 2 * D), tuple(v.numerator * (den // v.denominator) for v in x), den


def dense_search(system, cfg):
    """search_certificate with every trial decided by dense_decision."""
    rng = random.Random(cfg.base_seed)
    negative = non_pd = 0
    for trial in range(1, cfg.max_trials + 1):
        coeffs = tuple(rng.randint(cfg.coeff_min, cfg.coeff_max) for _ in range(system.V - 1))
        outcome = dense_decision(system, coeffs)
        if outcome == "non_pd":
            non_pd += 1
        elif outcome == "negative":
            negative += 1
        else:
            min_value, num, den = outcome
            return Certificate(system, coeffs, minimizer_num=num, minimizer_den=den,
                               min_value=min_value, trials=trial)
    return Exhausted(system, cfg.max_trials, negative, non_pd)


def met_a_zero(j, coeffs):
    """Whether the sweep, as it stood before it settled zero pivots, handed
    the draw to the dense path: it met a zero pivot before a second negative
    one, or ended at a zero border corner beta.  The elimination is the
    sweep's own, without its 2 x 2 block."""
    V = len(coeffs) + 1
    num = [0, 0, *(2 * c for c in coeffs)]
    den, bn, sn = [1] * (V + 1), [1] * (V + 1), [0] * (V + 1)
    negatives = 0
    for i in range(V, 1, -1):
        P, C, B = num[i], den[i], bn[i]
        if not P:
            return True
        negatives += (P > 0) != (C > 0)
        if negatives == 2:
            return False
        p, c = j[i - 2], coeffs[i - 2]
        Dp = den[p]
        num[p], den[p] = num[p] * P - c * c * C * Dp, Dp * P
        bn[p] = bn[p] * P + c * B * Dp
        sn[p] = sn[p] * P + (B * B + P * sn[i]) // C * Dp
    return not sn[1]


def test_tree_sweep_agrees_with_the_dense_path():
    """The sweep's class, and on accepted draws its exact minimum and
    minimizer, equal the dense path's on seeded draws at V = 4..10.  Small
    coefficient spans make certificates common enough to reach at every V."""
    rng = random.Random(73)
    outcomes = Counter()
    for V in range(4, 11):
        for _ in range(300):
            system = ShadowSystem.from_choices(V, [rng.randint(1, i - 1) for i in range(3, V + 1)])
            top = rng.choice((5, 101, 3000))
            coeffs = tuple(rng.randint(1, top) for _ in range(V - 1))
            got = prover._tree_trial(system.j, coeffs)
            assert got == dense_decision(system, coeffs), (system.j, coeffs)
            assert got == verify_certificate(V, system, coeffs).outcome, (system.j, coeffs)
            outcomes[got if isinstance(got, str) else "certified"] += 1
    assert min(outcomes[kind] for kind in ("non_pd", "negative", "certified")) > 0, outcomes


def test_tree_sweep_on_every_bundled_row():
    """All 870 bundled rows: the sweep certifies each with the table's min_f
    and verify_certificate's minimizer, field for field."""
    rows = 0
    for V in (4, 5, 6, 7):
        for row in parse_certificate_table(bundled_table_path(V)).rows:
            min_value, num, den = prover._tree_trial(row.system.j, row.coeffs)
            check = verify_certificate(V, row.system, row.coeffs)
            assert min_value == row.min_f
            assert (num, den) == (check.minimizer_num, check.minimizer_den)
            rows += 1
    assert rows == 870


@pytest.mark.parametrize("coeffs", [(4, 8, 1), (1, 2, 6)])
def test_a_zero_minimum_is_negative_on_both_paths(coeffs):
    """V = 4, j = (1, 1, 2): both weightings make G_h positive definite with
    an exact minimum of 0, so neither is a certificate.  The dense path
    reports the minimum and calls it not positive; the sweep reaches
    top == 0, the first draw with its denominator 2 C_1 beta negative."""
    system = ShadowSystem(4, (1, 1, 2))
    check = verify_certificate(4, system, coeffs)
    assert check.hessian_pd and check.min_value == 0 and check.positive is False
    assert prover._tree_trial(system.j, coeffs) == "negative"


@pytest.mark.parametrize("j", [(1, 1, 1, 1, 2), (1, 1, 1, 1, 3)])
def test_the_sweep_decides_a_zero_border_corner(j):
    """V = 6, c = (1, 1, 1, 8, 8): with t_1 = 0, every trailing principal
    minor of M, the matrix of 2 g_c over t_2..t_6, is nonzero, so the sweep
    meets no zero pivot; but the bordered matrix [[M, 1], [1^T, 0]] is
    singular, so the border corner beta is 0.  The sweep calls the draw
    non_pd at once, as G(c) does."""
    system, coeffs = ShadowSystem(6, j), (1, 1, 1, 8, 8)
    M = [[0] * 5 for _ in range(5)]  # rows and columns t_2..t_6
    for i, (c, parent) in enumerate(zip(coeffs, j)):
        M[i][i] = 2 * c
        if parent > 1:
            M[i][parent - 2] = M[parent - 2][i] = -c
    assert all(reference_det([row[k:] for row in M[k:]]) for k in range(5))
    assert reference_det([row + [1] for row in M] + [[1] * 5 + [0]]) == 0
    assert met_a_zero(system.j, coeffs)
    assert prover._tree_trial(system.j, coeffs) == dense_decision(system, coeffs) == "non_pd"
    assert verify_certificate(6, system, coeffs).outcome == "non_pd"


def test_the_sweep_decides_a_zero_pivot(monkeypatch):
    """On the chain j = (1, 2, 3) with c = (1, 1, 4), c_4 = 4 c_3 makes
    vertex 3's pivot 2 c_3 - c_4^2 / (2 c_4) zero, and the sweep decides the
    draw as G(c) does.  The search never calls verify_certificate, even
    where every draw meets a zero pivot, and searches over a narrow range,
    which meet such draws, match a dense search exactly."""
    chain = ShadowSystem(4, (1, 2, 3))
    assert met_a_zero(chain.j, (1, 1, 4))
    assert prover._tree_trial(chain.j, (1, 1, 4)) == dense_decision(chain, (1, 1, 4))
    calls, drawn = [], []
    sweep = prover._tree_trial

    def recording(j, coeffs):
        drawn.append((j, coeffs))
        return sweep(j, coeffs)

    monkeypatch.setattr(prover, "verify_certificate", lambda *args: calls.append(args))
    monkeypatch.setattr(prover, "_tree_trial", recording)
    # vertex 2's four leaves cancel its pivot 2 c_2 - 4 c^2 / (2 c) at c = 1
    forced = ShadowSystem(6, (1, 2, 2, 2, 2))
    cfg = SearchConfig(coeff_min=1, coeff_max=1, max_trials=2)
    assert search_certificate(forced, cfg) == dense_search(forced, cfg)
    assert drawn and all(met_a_zero(j, coeffs) for j, coeffs in drawn)
    drawn.clear()
    systems = (chain, ShadowSystem(5, (1, 1, 2, 3)), ShadowSystem(6, (1, 2, 2, 3, 1)))
    for system in systems:
        for seed in range(40):
            cfg = SearchConfig(coeff_min=1, coeff_max=4, max_trials=30, base_seed=seed)
            assert search_certificate(system, cfg) == dense_search(system, cfg)
    assert sum(met_a_zero(j, coeffs) for j, coeffs in drawn) >= 10
    assert calls == []


@pytest.mark.parametrize("V", range(4, 10))
def test_the_sweep_equals_the_dense_path_on_small_coefficients(V):
    """3,400 seeded draws at each V = 4..9 (20,400 in all) with c in 1..4,
    where about one in ten meets a zero pivot: the sweep's verdict, and a
    certificate's exact minimum and minimizer, equal dense_decision's field
    for field.  Certificates and negative minima both occur among the draws
    that meet a zero pivot."""
    rng = random.Random(V)
    zeros = Counter()
    for _ in range(3400):
        system = ShadowSystem.from_choices(V, [rng.randint(1, i - 1) for i in range(3, V + 1)])
        coeffs = tuple(rng.randint(1, 4) for _ in range(V - 1))
        got = prover._tree_trial(system.j, coeffs)
        assert got == dense_decision(system, coeffs), (system.j, coeffs)
        if met_a_zero(system.j, coeffs):
            zeros[got if isinstance(got, str) else "certified"] += 1
    assert sum(zeros.values()) > 200 and zeros["certified"] and zeros["negative"], zeros


def test_the_sweep_decides_the_v8_search_draws_that_met_a_zero():
    """The default V = 8 search at seed 0, replayed draw by draw: of its
    205,315 draws, the 754 that the sweep once handed to the dense path
    (met_a_zero) are decided by the sweep as dense_decision decides them,
    field for field, and 7 of them are certificates."""
    cfg = SearchConfig()
    zeros, trials = [], 0
    for system in enumerate_systems(8):
        for coeffs in prover._draws(random.Random(system.system_id), cfg, 7):
            trials += 1
            got = prover._tree_trial(system.j, coeffs)
            if met_a_zero(system.j, coeffs):
                zeros.append((system, coeffs, got))
            if not isinstance(got, str):
                break
    assert (trials, len(zeros)) == (205_315, 754)
    assert sum(not isinstance(got, str) for *_, got in zeros) == 7
    for system, coeffs, got in zeros:
        assert got == dense_decision(system, coeffs), (system.j, coeffs)


def test_search_counters_match_a_dense_search():
    """With a small budget, every 3rd V = 7 system (240) gives the same
    Exhausted counters, or the same Certificate, as a dense search."""
    results = Counter()
    for system in list(enumerate_systems(7))[::3]:
        cfg = SearchConfig(max_trials=6, base_seed=system.system_id)
        got = search_certificate(system, cfg)
        assert got == dense_search(system, cfg)
        results[type(got).__name__] += 1
        if isinstance(got, Exhausted):
            results["negative"] += got.negative_minima_seen
            results["non_pd"] += got.non_pd_seen
    assert sum(results[kind] for kind in ("Certificate", "Exhausted")) == 240
    assert min(results.values()) > 0, results
