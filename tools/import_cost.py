"""Show what importing the monoproof command line costs.

Runs ``python -X importtime -c "import monoproof.cli"`` in a fresh
interpreter on the ``src`` directory next to this script and prints, in
milliseconds:

* the self time of each ``monoproof.*`` module (without the modules it
  imports), and
* each module imported directly by a ``monoproof`` module that is not itself
  part of the package, with its cumulative time (that import and everything
  under it), followed by the monoproof module that imported it.

Only first imports are listed: a module the interpreter had already loaded,
at startup or earlier in the import, costs nothing and does not appear.

    python3 tools/import_cost.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src"

_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


@dataclass
class Import:
    name: str
    self_us: int
    cumulative_us: int
    depth: int
    parent: Optional[str] = None


def parse_importtime(text: str) -> list[Import]:
    """The imports listed in ``-X importtime`` output, in output order.

    Each module is printed after everything it imports, indented two spaces
    deeper than its importer, so a module's importer is the next line that
    is one level shallower.
    """
    imports: list[Import] = []
    waiting: list[Import] = []  # imports whose importer is not printed yet
    for line in text.splitlines():
        match = _LINE.match(line)
        if not match:
            continue
        entry = Import(match[4], int(match[1]), int(match[2]), len(match[3]) // 2)
        while waiting and waiting[-1].depth > entry.depth:
            waiting.pop().parent = entry.name
        waiting.append(entry)
        imports.append(entry)
    return imports


def _in_package(name: Optional[str]) -> bool:
    return name is not None and (name == "monoproof" or name.startswith("monoproof."))


def report(imports: list[Import]) -> list[str]:
    """The printed lines: package self times, then outside imports made
    directly by package modules, each with its cumulative time."""
    lines = ["monoproof modules, self ms:"]
    lines += [f"{m.self_us / 1000:8.2f}  {m.name}" for m in imports if _in_package(m.name)]
    lines.append("imported by monoproof modules, cumulative ms:")
    lines += [
        f"{m.cumulative_us / 1000:8.2f}  {m.name}  ({m.parent})"
        for m in imports
        if _in_package(m.parent) and not _in_package(m.name)
    ]
    return lines


def main() -> int:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import monoproof.cli"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        return result.returncode
    print("\n".join(report(parse_importtime(result.stderr))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
