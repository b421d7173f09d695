import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
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
