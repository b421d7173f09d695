"""Count the code lines of the monoproof package.

A code line is a physical line that holds part of a token other than a
comment, a blank line or a docstring.  A docstring is a string literal that
forms a whole statement (it follows the start of a line and ends it), so
module, class and function docstrings and stray string statements all drop
out.  The source is read with the standard ``tokenize`` module.

    python3 tools/code_lines.py [DIR]

prints the count of each ``*.py`` file in DIR (default: src/monoproof next
to this script) and the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_EDGE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    docstrings = set()
    for k, tok in enumerate(significant):
        before = significant[k - 1].type if k else tokenize.NEWLINE
        after = significant[k + 1].type if k + 1 < len(significant) else tokenize.ENDMARKER
        if tok.type == tokenize.STRING and before in _STATEMENT_EDGE and after in _STATEMENT_EDGE:
            docstrings.add(tok.start)
    rows = set()
    for tok in tokens:
        if tok.type not in _LAYOUT and tok.start not in docstrings:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "monoproof"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
