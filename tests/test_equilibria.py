import dataclasses
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from fraction_reference import (area_vectors, cross, dot, face_vectors, norm_sq,
                                solve_column_subset, sub, tips)
from test_cli import MIXED, TIED

from monoproof import equilibria, ratcore
from monoproof.equilibria import (
    FaceConfig,
    PointConfig,
    count_stable,
    count_unstable,
    equilibrium_indices,
    face_shadow_matrix,
    is_hull_vertex,
    load_config,
    vertex_shadow_matrix,
)

TETRA = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
CUBE = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]


def brute_force_unstable(cfg: PointConfig) -> int:
    """Support-plane oracle, written without sign matrices: vertex i is an
    unstable equilibrium iff every other vertex lies strictly on the origin
    side of the plane through r_i with normal r_i."""
    count = 0
    for i, ri in enumerate(cfg.vertices):
        bound = norm_sq(ri)
        if all(dot(rj, ri) < bound for j, rj in enumerate(cfg.vertices) if j != i):
            count += 1
    return count


def random_config(rng: random.Random, V: int, max_den: int = 100) -> PointConfig:
    """Random generic rational configuration (resamples until all squared
    norms are pairwise distinct)."""
    while True:
        cfg = PointConfig(
            [
                [
                    Fraction(rng.randint(-100, 100), rng.randint(1, max_den))
                    for _ in range(3)
                ]
                for _ in range(V)
            ]
        )
        if len({norm_sq(v) for v in cfg.vertices}) == V:
            return cfg


def random_tetrahedron(rng: random.Random):
    while True:
        verts = [
            [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3)]
            for _ in range(4)
        ]
        v0, v1, v2, v3 = verts
        det6 = dot(sub(v1, v0), cross(sub(v2, v0), sub(v3, v0)))
        if det6 != 0:
            return verts, abs(det6) / 6


def centroid(verts):
    return [sum(v[k] for v in verts) / len(verts) for k in range(3)]


def test_shadow_sign_cases():
    assert vertex_shadow_matrix(PointConfig([[1, 0, 0], [3, 0, 0]]))[0][1] == -1
    assert vertex_shadow_matrix(PointConfig([[3, 0, 0], [1, 0, 0]]))[0][1] == 1
    assert vertex_shadow_matrix(PointConfig([[1, 0, 0], [1, 1, 0]]))[0][1] == 0


def test_regular_tetrahedron_all_unstable():
    cfg = PointConfig(TETRA)
    assert count_unstable(cfg) == 4
    assert equilibrium_indices(cfg) == [0, 1, 2, 3]
    assert len({norm_sq(v) for v in cfg.vertices}) == 1  # symmetric: all norms equal


def test_cube_all_unstable():
    cfg = PointConfig(CUBE)
    assert count_unstable(cfg) == 8


def test_shadowed_vertex_is_not_counted():
    # second point sits deep inside the first one's support half-space
    cfg = PointConfig([(10, 0, 0), (9, 1, 0), (-5, 3, 1), (-4, -8, 2)])
    matrix = vertex_shadow_matrix(cfg)
    assert matrix[1][0] == -1
    assert 1 not in equilibrium_indices(cfg)


def test_degenerate_contact_row_not_counted():
    # (1,0,0) vs (1,1,0): sign is exactly 0, so neither a +1 nor a -1
    cfg = PointConfig([(1, 0, 0), (1, 1, 0), (-2, -1, 0), (0, 0, 5)])
    matrix = vertex_shadow_matrix(cfg)
    assert matrix[0][1] == 0
    assert 0 not in equilibrium_indices(cfg)


def test_counts_match_support_plane_oracle():
    rng = random.Random(2024)
    for _ in range(150):
        cfg = random_config(rng, rng.randint(4, 7))
        assert count_unstable(cfg) == brute_force_unstable(cfg)


def test_shadowed_implies_smaller_norm():
    rng = random.Random(99)
    for _ in range(60):
        cfg = random_config(rng, rng.randint(4, 6))
        matrix = vertex_shadow_matrix(cfg)
        for i in range(cfg.V):
            for j in range(cfg.V):
                if i != j and matrix[i][j] == -1:
                    assert norm_sq(cfg.vertices[i]) < norm_sq(cfg.vertices[j])


def test_farthest_vertex_always_equilibrium():
    rng = random.Random(31)
    for _ in range(60):
        cfg = random_config(rng, rng.randint(4, 7))
        norms = [norm_sq(v) for v in cfg.vertices]
        farthest = norms.index(max(norms))
        assert farthest in equilibrium_indices(cfg)
        assert count_unstable(cfg) >= 1


def test_mono_unstable_characterization():
    """U == 1 iff every non-farthest row has at least one -1 (on generic
    configs whose matrix has no zero entries)."""
    rng = random.Random(400)
    seen_mono = 0
    for _ in range(300):
        cfg = random_config(rng, 4, max_den=10)
        matrix = vertex_shadow_matrix(cfg)
        if any(
            matrix[i][j] == 0 for i in range(cfg.V) for j in range(cfg.V) if i != j
        ):
            continue
        norms = [norm_sq(v) for v in cfg.vertices]
        farthest = norms.index(max(norms))
        rows_with_minus = all(
            any(matrix[i][j] == -1 for j in range(cfg.V) if j != i)
            for i in range(cfg.V)
            if i != farthest
        )
        mono = count_unstable(cfg) == 1
        assert mono == rows_with_minus
        seen_mono += mono
    assert seen_mono > 0  # the sample actually exercises both branches


def test_face_counts_symmetric_tetrahedron():
    qcfg = FaceConfig(face_vectors([list(map(Fraction, v)) for v in TETRA], [0, 0, 0]))
    assert count_stable(qcfg) == 4
    assert equilibrium_indices(qcfg) == [0, 1, 2, 3]


def test_face_shadow_implies_larger_norm():
    # dual of the vertex norm ordering: entry (i,j) == -1 => |q_j| < |q_i|
    rng = random.Random(8)
    for _ in range(40):
        verts, _vol = random_tetrahedron(rng)
        qcfg = FaceConfig(face_vectors(verts, centroid(verts)))
        matrix = face_shadow_matrix(qcfg)
        for i in range(4):
            for j in range(4):
                if i != j and matrix[i][j] == -1:
                    assert norm_sq(qcfg.faces[j]) < norm_sq(qcfg.faces[i])


def _definition_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def definition_matrices(pts):
    """The vertex and face sign matrices by a direct Fraction loop over the
    definitions (r_i - r_j).r_i and (q_j - q_i).q_j."""
    vertex_ref = [
        [0 if i == j else _definition_sign(sum((a - b) * a for a, b in zip(ri, rj)))
         for j, rj in enumerate(pts)]
        for i, ri in enumerate(pts)
    ]
    face_ref = [
        [0 if i == j else _definition_sign(sum((b - a) * b for a, b in zip(qi, qj)))
         for j, qj in enumerate(pts)]
        for i, qi in enumerate(pts)
    ]
    return vertex_ref, face_ref


def positive_rows(matrix):
    """The equilibrium rule over a sign matrix: the rows whose off-diagonal
    entries are all +1."""
    return [i for i, row in enumerate(matrix)
            if all(v == 1 for j, v in enumerate(row) if j != i)]


def test_shadow_matrices_match_the_definition():
    """Both sign matrices against a direct Fraction loop over the definitions
    (r_i - r_j).r_i and (q_j - q_i).q_j, in d = 2, 3, 4, on 2..14 drawn
    points (the benchmark's sets have 12), with coordinates p/q, |p| <= 3,
    q <= 3, so that degenerate (zero) entries occur and the denominators
    differ between points.  About half the sets gain one to three copies of
    drawn points (up to 17 in all), so the kernel's Gram entries
    meet ties and zero signs."""
    rng = random.Random(6)
    zeros = signs = repeats = 0
    for _ in range(300):
        d = rng.choice((2, 3, 4))
        n = rng.randint(2, 14)
        pts = []
        while len(pts) < n:
            p = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
            if any(p):
                pts.append(p)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                pts.insert(rng.randrange(n + 1), list(rng.choice(pts)))
            n = len(pts)
            repeats += 1
        vertex_ref, face_ref = definition_matrices(pts)
        vcfg, fcfg = PointConfig(pts), FaceConfig(pts)
        assert [list(row) for row in vertex_shadow_matrix(vcfg)] == vertex_ref
        assert [list(row) for row in face_shadow_matrix(fcfg)] == face_ref
        assert count_unstable(vcfg) == len(positive_rows(vertex_ref))
        assert count_stable(fcfg) == len(positive_rows(face_ref))
        zeros += sum(row.count(0) - 1 for row in vertex_ref)
        signs += sum(row.count(-1) for row in vertex_ref)
    assert zeros > 0 and signs > 0 and repeats > 0


def counted_dot_products(monkeypatch):
    """A list that grows by one for each dot product equilibria computes."""
    calls = []
    dot_product = equilibria._dot

    def counting(u, v):
        calls.append(None)
        return dot_product(u, v)

    monkeypatch.setattr(equilibria, "_dot", counting)
    return calls


def check_equilibrium_indices(pts, calls):
    """equilibrium_indices on pts as vertices and, if none is zero, as faces,
    against the rows of the sign matrix and the Fraction definitions; each
    call takes at most n(n+1)/2 dot products.  Returns the two index lists."""
    n = len(pts)
    vertex_ref, face_ref = definition_matrices(pts)
    configs = [(PointConfig(pts), vertex_ref, vertex_shadow_matrix)]
    if all(map(any, pts)):
        configs.append((FaceConfig(pts), face_ref, face_shadow_matrix))
    found = []
    for cfg, ref, shadow in configs:
        calls.clear()
        got = equilibrium_indices(cfg)
        assert len(calls) <= n * (n + 1) // 2
        assert got == positive_rows(shadow(cfg)) == positive_rows(ref)
        found.append(got)
    return found


def test_equilibrium_indices_match_the_sign_rows_and_the_definition(monkeypatch):
    """400 seeded sets in d = 1..5 with 2..14 points, p/q coordinates with
    |p| <= 3 and q <= 3, so that ties, zero signs and mixed denominators
    occur.  About half gain copies of drawn points, and about a third gain
    the zero vector; those are checked as vertices only, since a face
    vector is nonzero."""
    calls = counted_dot_products(monkeypatch)
    rng = random.Random(23)
    kinds = Counter()
    for _ in range(400):
        d = rng.randint(1, 5)
        n = rng.randint(2, 14)
        pts = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
               for _ in range(n)]
        pts = [p if any(p) else [Fraction(1)] * d for p in pts]
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                pts.insert(rng.randrange(len(pts) + 1), list(rng.choice(pts)))
            kinds["copies"] += 1
        if rng.random() < 0.3:
            pts.insert(rng.randrange(len(pts) + 1), [Fraction(0)] * d)
            kinds["zero"] += 1
        found = check_equilibrium_indices(pts, calls)
        kinds["faces"] += len(found) == 2
        kinds["d=1"] += d == 1
    assert min(kinds.values()) > 20, kinds


SIGNED_PERMUTATIONS = [[s * x for s, x in zip(signs, perm)]
                       for perm in itertools.permutations((1, 2, 3))
                       for signs in itertools.product((1, -1), repeat=3)]


@pytest.mark.parametrize("pts, unstable, stable", [
    (SIGNED_PERMUTATIONS, list(range(48)), list(range(48))),
    (CUBE, list(range(8)), list(range(8))),
    (TETRA, [0, 1, 2, 3], [0, 1, 2, 3]),
    (MIXED, [1, 2, 3, 5], [2, 3, 4, 5]),
    (TIED, [0, 1, 3, 5], [2, 3, 4, 5]),
], ids=["signed-permutations", "cube", "tetrahedron", "mixed", "tied"])
def test_equilibrium_indices_on_equal_norms(monkeypatch, pts, unstable, stable):
    """Sets with equal squared norms, and the `count` goldens' MIXED and
    TIED.  Rows of equal norm decide each other without a dot product, so
    where all norms are equal only the n norms are computed."""
    calls = counted_dot_products(monkeypatch)
    pts = [list(map(Fraction, p)) for p in pts]
    assert check_equilibrium_indices(pts, calls) == [unstable, stable]
    if len({norm_sq(p) for p in pts}) == 1:
        assert len(calls) == len(pts)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: PointConfig(["12", "34"]), id="configuration"),
])
def test_geometry_refuses_a_string_for_a_vector(call):
    """A "p/q" string is one coordinate, never a vector: iterating "12"
    would give the coordinates (1, 2)."""
    with pytest.raises(ValueError, match="sequence of coordinates"):
        call()


def test_area_vectors_close_up_and_volume_identity():
    rng = random.Random(77)
    for _ in range(50):
        verts, vol = random_tetrahedron(rng)
        xs = area_vectors(verts)
        assert all(sum(col) == 0 for col in zip(*xs))
        qs = face_vectors(verts, centroid(verts))
        for i in range(4):
            assert norm_sq(xs[i]) * norm_sq(qs[i]) == (3 * vol / 4) ** 2
            # x_i is orthogonal to both edges of face i
            a, b, c = (verts[j] for j in range(4) if j != i)
            assert dot(xs[i], sub(b, a)) == 0 and dot(xs[i], sub(c, a)) == 0


def test_area_vectors_point_outward():
    verts, _ = random_tetrahedron(random.Random(12))
    xs = area_vectors(verts)
    c = centroid(verts)
    for i in range(4):
        face_mid = [sum(verts[j][k] for j in range(4) if j != i) / 3 for k in range(3)]
        assert dot(xs[i], sub(face_mid, c)) > 0


def test_dawson_trivial_cases():
    # plain int lists, as well as Fraction tuples
    for vec in (list, lambda v: tuple(map(Fraction, v))):
        assert not tips(vec([1, 0, 0]), vec([1, 0, 0]))
        assert tips(vec([1, 0, 0]), vec([3, 0, 0]))
        assert not tips(vec([3, 0, 0]), vec([1, 0, 0]))


def test_dawson_equivalent_to_face_shadowing():
    rng = random.Random(55)
    for _ in range(40):
        verts, _ = random_tetrahedron(rng)
        xs = area_vectors(verts)
        matrix = face_shadow_matrix(FaceConfig(face_vectors(verts, centroid(verts))))
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert tips(xs[i], xs[j]) == (matrix[i][j] == -1)


def test_dual_zero_sum_reverses_tipping():
    """Treating the area vectors themselves as face vectors (they sum to
    zero) swaps the tipping direction."""
    rng = random.Random(56)
    for _ in range(25):
        verts, _ = random_tetrahedron(rng)
        xs = area_vectors(verts)
        if not all(map(any, xs)):
            continue
        dual = face_shadow_matrix(FaceConfig(xs))
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert (dual[j][i] == -1) == tips(xs[i], xs[j])


def test_hull_vertex_simplex():
    cfg = PointConfig(TETRA)
    assert all(is_hull_vertex(cfg, i) for i in range(4))


def test_hull_vertex_interior_point():
    cfg = PointConfig(TETRA + [(0, 0, 0)])
    assert not is_hull_vertex(cfg, 4)
    assert all(is_hull_vertex(cfg, i) for i in range(4))


def test_hull_vertex_edge_midpoint():
    mid = [(1, 0, 0)]  # midpoint of vertices 0 and 1 of TETRA
    cfg = PointConfig(TETRA + mid)
    assert not is_hull_vertex(cfg, 4)


def test_hull_vertex_index_error():
    with pytest.raises(IndexError):
        is_hull_vertex(PointConfig(TETRA), 7)


def reference_is_hull_vertex(points, i):
    """Column-subset oracle: a feasible nonnegative combination of the
    homogenized columns (r_j, 1) has a basic solution on at most d+1
    independent columns, so solving every small subset exactly decides it."""
    columns = [list(p) + [Fraction(1)] for j, p in enumerate(points) if j != i]
    target = list(points[i]) + [Fraction(1)]
    for size in range(1, len(target) + 1):
        for subset in itertools.combinations(range(len(columns)), size):
            lam = solve_column_subset(columns, subset, target)
            if lam is not None and all(v >= 0 for v in lam):
                return False
    return True


def test_hull_vertex_matches_subset_oracle():
    """1,000 seeded small-grid configurations (d = 2, 3, 4; 2..9 points, so
    duplicates and collinear or coplanar sets occur), half of them with one
    point replaced by an exact convex combination of others with fractional
    weights; the queried point is that combination or a random point."""
    rng = random.Random(20240607)
    answers = set()
    for _ in range(1000):
        d = rng.choice((2, 3, 4))
        V = rng.randint(2, 9)
        grid = rng.choice((1, 2, 3))
        points = [[Fraction(rng.randint(-grid, grid)) for _ in range(d)] for _ in range(V)]
        i = rng.randrange(V)
        if V > 2 and rng.random() < 0.5:
            others = [j for j in range(V) if j != i]
            support = rng.sample(others, rng.randint(1, len(others)))
            weights = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in support]
            total = sum(weights)
            points[i] = [
                sum(w * points[j][c] for w, j in zip(weights, support)) / total
                for c in range(d)
            ]
            if rng.random() < 0.5:
                i = rng.randrange(V)
        expected = reference_is_hull_vertex(points, i)
        assert is_hull_vertex(PointConfig(points), i) == expected, (points, i)
        answers.add(expected)
    assert answers == {True, False}


def test_hull_vertex_moment_curve_24_points():
    # (t, t^2, t^3) for t = 0..23 is in convex position: every point is a
    # hull vertex, and only t = 0 and t = 23, strict extremes of a
    # coordinate, stop before the simplex (the column-subset enumeration
    # solved all 10,902 subsets of size <= 4 per point here)
    cfg = PointConfig([(t, t * t, t ** 3) for t in range(24)])
    assert all(is_hull_vertex(cfg, i) for i in range(24))


def test_hull_vertex_witness_skips_the_simplex(monkeypatch):
    """The moment curve at t = -2..2 and the centroid (0, 5/2, 0) of
    t = -2, -1, 1, 2.  t = -2 is the strict minimum of x, t = 0 of y and
    t = 2 the strict maximum of x, so those three are decided without the
    simplex; t = +-1 are extreme only obliquely and the centroid ties t = 0
    in x, so those three run it once each."""
    calls = []
    simplex = equilibria.nonneg_solution_exists

    def counting(system):
        calls.append(None)
        return simplex(system)

    monkeypatch.setattr(equilibria, "nonneg_solution_exists", counting)
    cfg = PointConfig([(t, t * t, t ** 3) for t in range(-2, 3)] + [(0, "5/2", 0)])
    verdicts, counts = [], []
    for i in range(cfg.V):
        calls.clear()
        verdicts.append(is_hull_vertex(cfg, i))
        counts.append(len(calls))
    assert verdicts == [True, True, True, True, True, False]
    assert counts == [0, 1, 0, 1, 0, 1]


def test_load_config_round_trip(tmp_path):
    doc = {
        "d": 3,
        "kind": "vertices",
        "coords": [["1/2", 1, 0], ["-3", "2/7", 1], [0, 0, "-1/3"], [5, -2, 3]],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert isinstance(cfg, PointConfig)
    assert cfg.V == 4
    assert cfg.vertices[0][0] == Fraction(1, 2)


def test_load_config_faces_kind():
    cfg = load_config({"d": 3, "kind": "faces", "coords": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert isinstance(cfg, FaceConfig)
    assert len(cfg.faces) == 3


@pytest.mark.parametrize(
    "doc",
    [
        {"d": 3, "kind": "vertices", "coords": [[0.5, 0, 0], [1, 1, 1]]},
        {"d": 3, "kind": "vertices", "coords": [[True, 0, 0], [1, 1, 1]]},
        {"d": 3, "kind": "polygons", "coords": [[1, 0, 0], [1, 1, 1]]},
        {"d": 3, "kind": "vertices", "coords": [[1, 0], [1, 1]]},
        {"d": 3, "kind": "vertices", "coords": []},
        {"kind": "vertices", "coords": [[1, 0, 0], [1, 1, 1]]},
    ],
)
def test_load_config_rejects(doc):
    with pytest.raises(ValueError):
        load_config(doc)


def test_configs_take_their_dimension_from_the_vectors():
    for d in (2, 4):
        points = [[Fraction(k + 1, 2) if c == k % d else -k for c in range(d)] for k in range(5)]
        assert [len(r) for r in PointConfig(points).vertices] == [d] * 5
        assert [len(q) for q in FaceConfig(points).faces] == [d] * 5
    for mixed in ([(1, 2), (3, 4), (5, 6, 7)], [(1, 0, 0, 1), (1, 2, 3)]):
        with pytest.raises(ValueError):
            PointConfig(mixed)
        with pytest.raises(ValueError):
            FaceConfig(mixed)


def test_point_config_validation():
    with pytest.raises(ValueError):
        PointConfig([(1, 2, 3)])  # single point
    with pytest.raises(ValueError):
        PointConfig([(1, 2), (3, 4, 5)])  # mixed dimensions
    with pytest.raises(ValueError):
        FaceConfig([(0, 0, 0), (1, 0, 0)])  # zero face vector


@pytest.mark.parametrize("call, wrong", [
    (count_unstable, FaceConfig),
    (vertex_shadow_matrix, FaceConfig),
    (lambda cfg: is_hull_vertex(cfg, 0), FaceConfig),
    (count_stable, PointConfig),
    (face_shadow_matrix, PointConfig),
], ids=["count_unstable", "vertex_shadow_matrix", "is_hull_vertex",
        "count_stable", "face_shadow_matrix"])
def test_each_function_refuses_the_other_kind(call, wrong):
    """Both kinds hold rows of one shape, so a count of the wrong kind
    would apply the other sign rule; each function takes only its own."""
    with pytest.raises(TypeError):
        call(wrong(TETRA))


def test_equilibrium_indices_refuses_a_non_configuration():
    """It takes either kind and nothing else, with TypeError as the five
    one-kind functions give; like them, it takes a subclass of a kind."""
    for cfg in ([(1, 0), (0, 1)], None):
        with pytest.raises(TypeError, match="PointConfig or a FaceConfig"):
            equilibrium_indices(cfg)
    for kind in (PointConfig, FaceConfig):
        sub = type("Sub", (kind,), {})(TETRA)
        assert equilibrium_indices(sub) == equilibrium_indices(kind(TETRA)) == [0, 1, 2, 3]


def test_a_configuration_is_cleared_once_while_it_is_built(monkeypatch):
    """clear_denominators runs once per configuration, as it is built, and
    not at all in the counts, the shadow matrices or the hull queries."""
    calls = []
    clear = equilibria.clear_denominators

    def counting(rows):
        calls.append(rows)
        return clear(rows)

    for module in (equilibria, ratcore):
        monkeypatch.setattr(module, "clear_denominators", counting)
    pts = [(Fraction(1, 2), 0, 0), (0, Fraction(-2, 3), 1), (0, 0, 1), (-1, 1, Fraction(1, 6))]
    points, faces = PointConfig(pts), FaceConfig(pts)
    assert len(calls) == 2
    assert points.cleared == faces.cleared == (((3, 0, 0), (0, -4, 6), (0, 0, 6), (-6, 6, 1)), 6)
    equilibrium_indices(points), equilibrium_indices(faces)
    count_unstable(points), count_stable(faces)
    vertex_shadow_matrix(points), face_shadow_matrix(faces)
    [is_hull_vertex(points, i) for i in range(points.V)]
    assert len(calls) == 2


def test_configs_compare_hash_and_print_by_their_vectors():
    """cleared is neither compared, hashed nor printed, and assignment is
    refused, as for a frozen dataclass of the vectors alone."""
    for kind, name in ((PointConfig, "vertices"), (FaceConfig, "faces")):
        cfg = kind([(1, "1/2"), (Fraction(-2), 3)])
        assert cfg == kind([("2/2", Fraction(1, 2)), (-2, 3)])
        assert cfg != kind([(1, 1), (-2, 3)])
        assert hash(cfg) == hash((getattr(cfg, name),))
        assert repr(cfg) == (f"{kind.__name__}({name}=((Fraction(1, 1), Fraction(1, 2)), "
                             "(Fraction(-2, 1), Fraction(3, 1))))")
        for attr in (name, "cleared"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, attr, ())
