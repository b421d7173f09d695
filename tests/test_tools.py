import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name="code_lines"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


def area(r):
    """Function docstring."""
    # a comment line
    scale = (
        math.pi
    )

    return scale * r * r


TEXT = """a string that is
not a docstring"""
'''
    # import, def, the three lines of the parenthesized assignment, return,
    # and both lines of TEXT
    assert load_tool().code_lines(source) == 8


# -X importtime output of a monoproof.cli import, trimmed: every module is
# printed after its own imports, two spaces deeper than its importer.
IMPORTTIME_SAMPLE = """\
import time: self [us] | cumulative | imported package
import time:       331 |        331 |       __future__
import time:       890 |       9965 |       dataclasses
import time:      7841 |      21952 |     monoproof.ratcore
import time:       282 |        282 |             _json
import time:       474 |        755 |           json.scanner
import time:       462 |       1216 |         json.decoder
import time:       298 |       2086 |       json
import time:      5925 |       8010 |     monoproof.equilibria
import time:      6148 |       6148 |     monoproof.prover
import time:       597 |      38707 |   monoproof
import time:      1157 |       1895 |   argparse
import time:      3114 |      43716 | monoproof.cli
"""


def test_import_cost_reads_importtime_output():
    tool = load_tool("import_cost")
    imports = tool.parse_importtime(IMPORTTIME_SAMPLE)
    assert [(m.name, m.parent) for m in imports] == [
        ("__future__", "monoproof.ratcore"),
        ("dataclasses", "monoproof.ratcore"),
        ("monoproof.ratcore", "monoproof"),
        ("_json", "json.scanner"),
        ("json.scanner", "json.decoder"),
        ("json.decoder", "json"),
        ("json", "monoproof.equilibria"),
        ("monoproof.equilibria", "monoproof"),
        ("monoproof.prover", "monoproof"),
        ("monoproof", "monoproof.cli"),
        ("argparse", "monoproof.cli"),
        ("monoproof.cli", None),
    ]
    assert tool.report(imports) == [
        "monoproof modules, self ms:",
        "    7.84  monoproof.ratcore",
        "    5.92  monoproof.equilibria",
        "    6.15  monoproof.prover",
        "    0.60  monoproof",
        "    3.11  monoproof.cli",
        "imported by monoproof modules, cumulative ms:",
        "    0.33  __future__  (monoproof.ratcore)",
        "    9.96  dataclasses  (monoproof.ratcore)",
        "    2.09  json  (monoproof.equilibria)",
        "    1.90  argparse  (monoproof.cli)",
    ]


def test_trial_core_reports_no_mismatch(capsys):
    assert load_tool("trial_core").main(["--draws", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [f"V={V}" for V in range(5, 11)]
    assert all(line.endswith("mismatches 0") for line in lines)
    columns = [word for word in lines[0].split() if word.isalpha()]
    assert columns == ["draws", "sweep", "us", "verify", "us", "draw", "us", "randint", "us",
                       "mismatches"]


def test_trial_core_exits_1_on_a_mismatch(capsys, monkeypatch):
    tool = load_tool("trial_core")
    monkeypatch.setattr(tool.prover, "_tree_trial", lambda j, coeffs: "negative")
    assert tool.main(["--draws", "20"]) == 1
    assert "mismatches 0" not in capsys.readouterr().out


def test_trial_core_exits_1_on_a_stream_mismatch(capsys, monkeypatch):
    tool = load_tool("trial_core")
    draws = tool.prover._draws

    def shifted(rng, cfg, size):
        for coeffs in draws(rng, cfg, size):
            yield (coeffs[0] % cfg.coeff_max + 1, *coeffs[1:])

    monkeypatch.setattr(tool.prover, "_draws", shifted)
    assert tool.main(["--draws", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and not any("off-stream 0 " in line for line in lines)
    assert all(line.endswith("mismatches 0") for line in lines)


def test_mutants_table_applies_and_names_its_killers():
    """Every old text of the mutation table occurs once in its module, and
    each mutant names existing tests that kill it or an equivalence reason,
    not both."""
    tool = load_tool("mutants")
    assert tool.misplaced() == []
    for m in tool.MUTANTS:
        assert bool(m.kills) != bool(m.equivalent), m
        for node_id in m.kills:
            path, name = node_id.split("::")
            name = name.partition("[")[0]  # a row may name one parametrized case
            assert f"def {name}(" in (TOOLS.parent / path).read_text("utf-8"), node_id


def test_mutants_exits_2_on_a_text_that_does_not_occur_once(capsys, monkeypatch):
    tool = load_tool("mutants")
    common = tool.Mutant("equilibria.py", "return", "pass", equivalent="never run")
    monkeypatch.setattr(tool, "MUTANTS", (common,))
    assert tool.main() == 2
    assert "'return' occurs" in capsys.readouterr().out
