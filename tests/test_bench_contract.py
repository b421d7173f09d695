"""What the benchmark under bench/ needs from the package.

bench/spans.py looks up each (module, name) pair of its WRAPPED table with
getattr to wrap it, and bench/workloads.py calls dataclasses.replace on a
SearchConfig, so deleting or renaming one of them breaks the traced run.
The table is read from the file's source, without running it.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

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
