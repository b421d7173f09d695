"""Shadowing matrices, equilibrium counts and exact simplex predicates.

A vertex p_i of a convex body with center of mass at the origin carries an
unstable equilibrium iff no other vertex "shadows" it, i.e. iff
(r_i - r_j).r_i > 0 for every j.  Faces behave dually through their face
vectors q_i (foot of the perpendicular from the center of mass).

A configuration's vectors are plain tuples of Fractions, coerced once from
int, Fraction or "p/q" entries, and its dimension is their common length.
All signs come from integer rows cleared once per configuration with
ratcore.clear_denominators, R_i = L * r_i with L the lcm of every coordinate
denominator (each configuration clears them as it is built, in _build, and
a function about one kind refuses the other with TypeError).  The kernel
returns K[a][b] = sign(|R_a|^2 - R_a.R_b).  Scaling by L^2 > 0 keeps every
sign, zeros (degenerate contacts) included, so K on the vertices is the
vertex shadow matrix.  Since (q_j - q_i).q_j = |q_j|^2 - q_i.q_j, the face
shadow matrix is K on the face vectors, transposed.  The hull test reads
the same cleared rows: a row strictly above or below every other row in
one coordinate is a hull vertex at once, and any other query goes to the
exact phase-I simplex.  Norm comparisons use squared norms, so no roots
ever appear.

A shadow matrix is the tuple of its sign rows.  equilibrium_indices is the
one statement of the equilibrium rule: it decides each row from the squared
norms and computes a dot product only where they cannot decide, so the
counts never build the matrix, and `count` reads the matrix only to say
what keeps the other rows from being equilibria.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence, Union

from monoproof.ratcore import RationalLike, as_rational, clear_denominators, nonneg_solution_exists


def _vector(v: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """One vector as a Fraction tuple.  A str or bytes is refused with
    ValueError: iterating it would split "12" into the coordinates 1, 2."""
    if isinstance(v, (str, bytes)):
        raise ValueError(f"a vector must be a sequence of coordinates, not {v!r}")
    return tuple(map(as_rational, v))


def _build(cfg: Union[PointConfig, FaceConfig], name: str,
           items: Iterable[Sequence[RationalLike]]) -> None:
    """Set cfg.<name>, "vertices" or "faces", to at least two Fraction
    tuples of one positive dimension, each nonzero for faces, or raise
    ValueError; then set cfg.cleared to their integer rows once, (R, L) with
    R_i = L * v_i and L the lcm of every coordinate denominator: the
    equilibria, the kernel and every hull query of cfg read the same rows."""
    vecs = tuple(map(_vector, items))
    if len(vecs) < 2:
        raise ValueError(f"need at least 2 {name}")
    if len({len(v) for v in vecs}) > 1 or not vecs[0]:
        raise ValueError(f"all {name} must have the same positive dimension")
    if name == "faces" and not all(map(any, vecs)):
        raise ValueError("face vectors must be nonzero")
    rows, L = clear_denominators(vecs)
    object.__setattr__(cfg, name, vecs)
    object.__setattr__(cfg, "cleared", (tuple(map(tuple, rows)), L))


@dataclass(frozen=True)
class PointConfig:
    """Vertex vectors r_i of a polytope, relative to the center of mass,
    and their cleared integer rows (see _build)."""

    vertices: tuple[tuple[Fraction, ...], ...]
    cleared: tuple[tuple[tuple[int, ...], ...], int] = field(init=False, repr=False, compare=False)

    def __init__(self, vertices: Iterable[Sequence[RationalLike]]):
        _build(self, "vertices", vertices)

    @property
    def V(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class FaceConfig:
    """Face vectors q_i: from the center of mass to its orthogonal projection
    onto each face plane, all nonzero, and their cleared integer rows (see
    _build)."""

    faces: tuple[tuple[Fraction, ...], ...]
    cleared: tuple[tuple[tuple[int, ...], ...], int] = field(init=False, repr=False, compare=False)

    def __init__(self, faces: Iterable[Sequence[RationalLike]]):
        _build(self, "faces", faces)


def _checked(cfg, kind: type):
    """cfg itself if it is a kind, else TypeError: the two kinds hold the
    same rows, and a count of the wrong kind would apply the other rule."""
    if not isinstance(cfg, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(cfg).__name__}")
    return cfg


def _shadow_kernel(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """K[a][b] = sign(|R_a|^2 - R_a.R_b) on cleared rows R, row by row from
    the definition: g holds R_a.R_b for every b, and g[a] = |R_a|^2, so the
    diagonal is sign(0) = 0 by construction.  The products are written
    inline rather than through _dot, so that tests counting _dot calls see
    only equilibrium_indices' products, not the n^2 of a sign matrix."""
    K = []
    for a, R in enumerate(rows):
        g = [sum(map(operator.mul, R, S)) for S in rows]
        K.append([(g[a] > x) - (g[a] < x) for x in g])
    return K


def vertex_shadow_matrix(cfg: PointConfig) -> tuple[tuple[int, ...], ...]:
    """Rows of signs, entry (i,j) = sign((r_i - r_j).r_i): the kernel on the
    vertices.  -1 means vertex i is shadowed by vertex j."""
    return tuple(map(tuple, _shadow_kernel(_checked(cfg, PointConfig).cleared[0])))


def face_shadow_matrix(cfg: FaceConfig) -> tuple[tuple[int, ...], ...]:
    """Dual rows of signs, entry (i,j) = sign((q_j - q_i).q_j): the kernel
    on the face vectors transposed.  -1 means face i is shadowed by face j."""
    return tuple(zip(*_shadow_kernel(_checked(cfg, FaceConfig).cleared[0])))


def equilibrium_indices(cfg: Union[PointConfig, FaceConfig]) -> list[int]:
    """Sorted 0-based indices of the equilibria: the unstable vertices of a
    PointConfig, the stable faces of a FaceConfig.  These are the rows of
    the shadow matrix whose off-diagonal entries are all +1; a zero entry
    (a degenerate contact) spoils a row, so degenerate equilibria never count.

    On the cleared rows, with d_a = |R_a|^2, vertex a is spoiled by b iff
    R_a.R_b >= d_a, and face a by b iff R_a.R_b >= d_b.  By Cauchy-Schwarz
    R_a.R_b <= sqrt(d_a d_b), which is below d_a when d_b < d_a, and at
    d_b = d_a reaches it only when R_b == R_a.  So a vertex can be spoiled
    only by a vertex strictly farther out, a face only by a face strictly
    nearer, and either by a copy of itself.  Each row without a copy is
    tested against those candidates in norm order, farthest first for
    vertices and nearest first for faces, until one spoils it: at most
    n(n - 1)/2 dot products besides the n norms, and none between rows of
    equal norm.  Anything but a PointConfig or a FaceConfig is refused with
    TypeError.
    """
    faces = isinstance(cfg, FaceConfig)
    if not faces and not isinstance(cfg, PointConfig):
        raise TypeError(f"expected a PointConfig or a FaceConfig, got {type(cfg).__name__}")
    rows = cfg.cleared[0]
    # (d, R, index) in norm order; copies of a row sort next to each other
    ranked = sorted(zip(map(_dot, rows, rows), rows, range(len(rows))), reverse=not faces)
    copied = {R for (_, R, _), (_, S, _) in zip(ranked, ranked[1:]) if R == S}
    found, start = [], 0
    for p, (d, R, a) in enumerate(ranked):
        if d != ranked[start][0]:
            start = p  # ranked[:start] holds the rows strictly past d
        if R in copied:
            continue
        for e, S, _ in ranked[:start]:
            if _dot(R, S) >= (e if faces else d):
                break
        else:
            found.append(a)
    return sorted(found)


def count_unstable(cfg: PointConfig) -> int:
    """Number of (nondegenerate) unstable vertex equilibria."""
    return len(equilibrium_indices(_checked(cfg, PointConfig)))


def count_stable(cfg: FaceConfig) -> int:
    """Number of (nondegenerate) stable face equilibria."""
    return len(equilibrium_indices(_checked(cfg, FaceConfig)))


def _dot(u: Sequence, v: Sequence):
    """The dot product of two cleared integer rows."""
    return sum(map(operator.mul, u, v))


def is_hull_vertex(cfg: PointConfig, i: int) -> bool:
    """True iff vertex i is NOT a convex combination of the other vertices.

    On the configuration's cleared rows R_j = L * r_j, a vertex whose
    coordinate in some column is strictly above or strictly below every
    other row's is one at once: every convex combination of the others has
    that coordinate inside their range (Akl and Toussaint, Inf. Process.
    Lett. 7, 1978).  Otherwise, homogenized, the question is whether
    (R_i, L) is a nonnegative combination of the integer columns (R_j, L),
    j != i (the weights then sum to 1), which the exact phase-I simplex
    ``ratcore.nonneg_solution_exists`` decides.  Ties, repeated points and
    vertices extreme only in an oblique direction all go to the simplex.
    """
    rows, L = _checked(cfg, PointConfig).cleared
    if not 0 <= i < len(rows):
        raise IndexError(f"vertex index {i} out of range")
    others = rows[:i] + rows[i + 1:]
    for x, col in zip(rows[i], zip(*others)):
        if x > max(col) or x < min(col):
            return True
    return not nonneg_solution_exists([*zip(*others, rows[i]), (L,) * len(rows)])


def load_config(path: Union[str, Path]) -> Union[PointConfig, FaceConfig]:
    """Read a vertex or face configuration from a JSON file.

    Schema: { "d": 3, "kind": "vertices" | "faces", "coords": [["p/q", ...], ...] }.
    Coordinates may be "p/q" strings or integers; floats are rejected as inexact.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("configuration document must be a JSON object")
    d = doc.get("d")
    kind = doc.get("kind")
    coords = doc.get("coords")
    if not isinstance(d, int) or d < 2:
        raise ValueError("field 'd' must be an integer dimension >= 2")
    if kind not in ("vertices", "faces"):
        raise ValueError("field 'kind' must be 'vertices' or 'faces'")
    if not isinstance(coords, list) or not coords:
        raise ValueError("field 'coords' must be a non-empty list of coordinate rows")
    for row in coords:
        if not isinstance(row, list) or len(row) != d:
            raise ValueError(f"each coordinate row must have exactly {d} entries")
        for entry in row:
            if isinstance(entry, bool) or isinstance(entry, float):
                raise ValueError(f"inexact coordinate {entry!r}; use integers or 'p/q' strings")
            if not isinstance(entry, (int, str)):
                raise ValueError(f"coordinate {entry!r} is not an integer or a 'p/q' string")
    if kind == "vertices":
        return PointConfig(coords)
    return FaceConfig(coords)
