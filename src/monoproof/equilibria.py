"""Shadowing matrices, equilibrium counts and exact simplex predicates.

A vertex p_i of a convex body with center of mass at the origin carries an
unstable equilibrium iff no other vertex "shadows" it, i.e. iff
(r_i - r_j).r_i > 0 for every j.  Faces behave dually through their face
vectors q_i (foot of the perpendicular from the center of mass).  All
predicates are decided in exact rational arithmetic; norm comparisons use
squared norms so no roots ever appear.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence, Union

from monoproof.ratcore import RatVector, RationalLike, nonneg_combination_exists


class DegenerateSimplex(ValueError):
    """Simplex vertices are affinely dependent (zero volume)."""


class OutsideError(ValueError):
    """Reference point is not strictly interior to the simplex."""


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class PointConfig:
    """Vertex vectors r_i of a polytope, relative to the center of mass."""

    d: int
    vertices: tuple[RatVector, ...]

    def __init__(self, vertices: Iterable[Sequence[RationalLike] | RatVector], d: int = 3):
        vecs = tuple(v if isinstance(v, RatVector) else RatVector(v) for v in vertices)
        if len(vecs) < 2:
            raise ValueError("need at least 2 vertices")
        if any(len(v) != d for v in vecs):
            raise ValueError(f"all vertices must have dimension {d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "vertices", vecs)

    @property
    def V(self) -> int:
        return len(self.vertices)

    @property
    def is_generic(self) -> bool:
        """True when all squared vertex norms are pairwise distinct."""
        norms = [v.norm_sq() for v in self.vertices]
        return len(set(norms)) == len(norms)


@dataclass(frozen=True)
class FaceConfig:
    """Face vectors q_i: from the center of mass to its orthogonal projection
    onto each face plane.  All q_i must be nonzero."""

    d: int
    faces: tuple[RatVector, ...]

    def __init__(self, faces: Iterable[Sequence[RationalLike] | RatVector], d: int = 3):
        vecs = tuple(q if isinstance(q, RatVector) else RatVector(q) for q in faces)
        if len(vecs) < 2:
            raise ValueError("need at least 2 faces")
        if any(len(q) != d for q in vecs):
            raise ValueError(f"all face vectors must have dimension {d}")
        if any(q.is_zero() for q in vecs):
            raise ValueError("face vectors must be nonzero")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "faces", vecs)

    @property
    def F(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class ShadowMatrix:
    """Square sign matrix with zero diagonal; entry (i,j) = -1 means item i
    is shadowed by item j."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def row_sum(self, i: int) -> int:
        return sum(self.entries[i])


def shadow_sign(r_i: RatVector, r_j: RatVector) -> int:
    """sign((r_i - r_j).r_i); -1 means p_i is shadowed by p_j."""
    return _sign((r_i - r_j).dot(r_i))


def vertex_shadow_matrix(cfg: PointConfig) -> ShadowMatrix:
    rs = cfg.vertices
    return ShadowMatrix(
        tuple(
            tuple(0 if i == j else shadow_sign(rs[i], rs[j]) for j in range(cfg.V))
            for i in range(cfg.V)
        )
    )


def face_shadow_matrix(cfg: FaceConfig) -> ShadowMatrix:
    """Dual sign matrix: entry (i,j) = sign((q_j - q_i).q_j)."""
    qs = cfg.faces
    return ShadowMatrix(
        tuple(
            tuple(0 if i == j else _sign((qs[j] - qs[i]).dot(qs[j])) for j in range(cfg.F))
            for i in range(cfg.F)
        )
    )


def unstable_vertices(cfg: PointConfig) -> list[int]:
    """0-based indices of vertices carrying an unstable equilibrium: rows of
    the shadow matrix whose entries are all +1.  A zero entry (a degenerate
    contact) makes the row fall short, so degenerate equilibria never count."""
    s = vertex_shadow_matrix(cfg)
    return [i for i in range(s.size) if s.row_sum(i) == s.size - 1]


def stable_faces(cfg: FaceConfig) -> list[int]:
    """0-based indices of faces carrying a stable equilibrium."""
    s = face_shadow_matrix(cfg)
    return [i for i in range(s.size) if s.row_sum(i) == s.size - 1]


def count_unstable(cfg: PointConfig) -> int:
    """Number of (nondegenerate) unstable vertex equilibria."""
    return len(unstable_vertices(cfg))


def count_stable(cfg: FaceConfig) -> int:
    """Number of (nondegenerate) stable face equilibria."""
    return len(stable_faces(cfg))


def _simplex_volume6(vertices: Sequence[RatVector]) -> Fraction:
    v0, v1, v2, v3 = vertices
    return (v1 - v0).dot((v2 - v0).cross(v3 - v0))


def simplex_face_vectors(vertices: Sequence[RatVector], o: RatVector) -> FaceConfig:
    """Face vectors of a tetrahedron relative to reference point o.

    Face i is the face opposite vertex i; q_i points from o to the foot of
    the perpendicular dropped onto that face's plane.  The projection only
    divides by |normal|^2, so everything stays rational.
    """
    vertices = [v if isinstance(v, RatVector) else RatVector(v) for v in vertices]
    if len(vertices) != 4:
        raise ValueError("expected exactly 4 vertices")
    if _simplex_volume6(vertices) == 0:
        raise DegenerateSimplex("vertices are affinely dependent")
    qs = []
    for i in range(4):
        a, b, c = (vertices[j] for j in range(4) if j != i)
        normal = (b - a).cross(c - a)
        side_o = normal.dot(o - a)
        side_v = normal.dot(vertices[i] - a)
        if side_o == 0 or _sign(side_o) != _sign(side_v):
            raise OutsideError("reference point is not strictly inside the simplex")
        qs.append(normal.scale(normal.dot(a - o) / normal.norm_sq()))
    return FaceConfig(qs, d=3)


def simplex_area_vectors(vertices: Sequence[RatVector]) -> list[RatVector]:
    """Outward area vectors of a tetrahedron: x_i is normal to the face
    opposite vertex i, |x_i| equals that face's area, and sum(x_i) = 0."""
    vertices = [v if isinstance(v, RatVector) else RatVector(v) for v in vertices]
    if len(vertices) != 4:
        raise ValueError("expected exactly 4 vertices")
    if _simplex_volume6(vertices) == 0:
        raise DegenerateSimplex("vertices are affinely dependent")
    xs = []
    for i in range(4):
        a, b, c = (vertices[j] for j in range(4) if j != i)
        normal = (b - a).cross(c - a)
        if normal.dot(vertices[i] - a) > 0:
            normal = -normal
        xs.append(normal.scale(Fraction(1, 2)))
    return xs


def dawson_tips(x_i: RatVector, x_j: RatVector) -> bool:
    """Tipping condition |x_i| < |x_j| cos(theta_ij) on area vectors,
    evaluated as the exact rational x_i.x_j - x_i.x_i > 0."""
    return x_i.dot(x_j) - x_i.dot(x_i) > 0


def is_hull_vertex(cfg: PointConfig, i: int) -> bool:
    """True iff vertex i is NOT a convex combination of the other vertices.

    Homogenized with a trailing 1, that asks whether (r_i, 1) is a
    nonnegative combination of the columns (r_j, 1), j != i (the weights
    then sum to 1), which the exact phase-I simplex
    ``ratcore.nonneg_combination_exists`` decides.
    """
    if not 0 <= i < cfg.V:
        raise IndexError(f"vertex index {i} out of range")
    columns = [[*v, 1] for j, v in enumerate(cfg.vertices) if j != i]
    return not nonneg_combination_exists(columns, [*cfg.vertices[i], 1])


def load_config(source: Union[str, Path, dict]) -> Union[PointConfig, FaceConfig]:
    """Read a vertex or face configuration from JSON.

    Schema: { "d": 3, "kind": "vertices" | "faces", "coords": [["p/q", ...], ...] }.
    Coordinates may be "p/q" strings or integers; floats are rejected as inexact.
    """
    if isinstance(source, dict):
        doc = source
    else:
        doc = json.loads(Path(source).read_text())
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
    rows = []
    for row in coords:
        if not isinstance(row, list) or len(row) != d:
            raise ValueError(f"each coordinate row must have exactly {d} entries")
        for entry in row:
            if isinstance(entry, bool) or isinstance(entry, float):
                raise ValueError(f"inexact coordinate {entry!r}; use integers or 'p/q' strings")
            if not isinstance(entry, (int, str)):
                raise ValueError(f"coordinate {entry!r} is not an integer or a 'p/q' string")
        rows.append(RatVector(row))
    if kind == "vertices":
        return PointConfig(rows, d=d)
    return FaceConfig(rows, d=d)
