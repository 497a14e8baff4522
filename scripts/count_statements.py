#!/usr/bin/env python
"""Count Python statements: one ``ast.stmt`` node each, docstrings included.

The size measure the roadmap and the change log quote for a module:
unlike a line count it ignores comments, blank lines and how a long
call is wrapped, and it counts a compound statement (``if``, ``def``,
``try``) once plus the statements inside it.

Run:  python scripts/count_statements.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively
(default ``src/repro``).  Prints one ``count  path`` line per module,
then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def count_statements(source: str) -> int:
    """Number of ``ast.stmt`` nodes in ``source``."""
    return sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(source)))


def modules(paths: list[Path]) -> list[Path]:
    """The ``.py`` files ``paths`` name, directories expanded, sorted."""
    found = []
    for path in paths:
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [REPO / "src" / "repro"]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    total = 0
    for path in modules(paths):
        count = count_statements(path.read_text())
        total += count
        shown = path.resolve()
        shown = shown.relative_to(REPO) if shown.is_relative_to(REPO) else path
        print(f"{count:6d}  {shown}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
