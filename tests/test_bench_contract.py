"""What the benchmark under bench/ needs from the package.

bench/spans.py looks up each (module, name) pair of its WRAPPED table with
getattr to wrap it, and bench/workloads.py calls dataclasses.replace on a
SearchConfig, so deleting or renaming one of them breaks the traced run.
The geometry workload builds PointConfig and FaceConfig from lists of
Fraction lists, then counts and queries them.  The table is read from the
file's source, and nothing under bench/ runs.
"""

import ast
import dataclasses
import importlib
from fractions import Fraction
from pathlib import Path

from monoproof.equilibria import (
    FaceConfig,
    PointConfig,
    count_stable,
    count_unstable,
    is_hull_vertex,
)
from monoproof.prover import SearchConfig

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def wrapped_names() -> list[tuple[str, str]]:
    for node in ast.parse(SPANS.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{SPANS} defines no WRAPPED table")


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert len(names) >= 10
    missing = [f"monoproof.{home}.{name}" for home, name in names
               if not callable(getattr(importlib.import_module(f"monoproof.{home}"), name, None))]
    assert missing == []


def test_search_config_is_a_dataclass():
    assert dataclasses.is_dataclass(SearchConfig)
    assert dataclasses.replace(SearchConfig(), base_seed=5).base_seed == 5


def test_configs_take_lists_of_fraction_lists():
    """The geometry workload's inputs: seeded p/q points, counted as vertices
    and as faces, and moment-curve points with one interior centroid."""
    coords = [[Fraction(5), Fraction(0), Fraction(1, 7)],
              [Fraction(9, 2), Fraction(1, 3), Fraction(0)],
              [Fraction(-3, 2), Fraction(7, 4), Fraction(1)],
              [Fraction(-2, 3), Fraction(-5, 2), Fraction(-1, 2)],
              [Fraction(-1, 5), Fraction(1, 9), Fraction(-4)]]
    points, faces = PointConfig(coords), FaceConfig(coords)
    assert points.V == 5
    # vertex 1 lies in vertex 0's shadow, and face 0 in face 1's
    assert count_unstable(points) == 4
    assert count_stable(faces) == 4
    curve = [[Fraction(t), Fraction(t * t), Fraction(t * t * t)] for t in range(6)]
    inside = [sum(curve[k][c] for k in (0, 2, 3, 5)) / 4 for c in range(3)]
    hull = PointConfig(curve[:3] + [inside] + curve[3:])
    assert hull.V == 7
    assert [is_hull_vertex(hull, i) for i in range(hull.V)] == [True] * 3 + [False] + [True] * 3
