#!/usr/bin/env python
"""Count Python statements: one ``ast.stmt`` node each, docstrings included.

The size measure the roadmap and the change log quote for a module:
unlike a line count it ignores comments, blank lines and how a long
call is wrapped, and it counts a compound statement (``if``, ``def``,
``try``) once plus the statements inside it.

Run:  python scripts/count_statements.py [--since REF] [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively
(default ``src/repro``).  Prints one ``count  path`` line per module,
then the total.  With ``--since REF`` (any git revision) each line
reads ``before  after  delta  path`` instead: the module's count in its
text at ``REF`` (``git show``; a module that did not exist there counts
0), its count now, and the difference, then the same for the totals.
"""

from __future__ import annotations

import ast
import subprocess
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


def git(path: Path, *args: str) -> subprocess.CompletedProcess:
    """Run ``git args`` in the repository holding ``path``."""
    return subprocess.run(
        ["git", *args],
        cwd=path if path.is_dir() else path.parent,
        capture_output=True,
        text=True,
    )


def text_at(ref: str, path: Path) -> str:
    """``path``'s text at revision ``ref``; empty where it did not exist."""
    shown = git(path, "show", f"{ref}:./{path.name}")
    return shown.stdout if shown.returncode == 0 else ""


def row(counts: list[int], label) -> str:
    """``count  label``, or ``before  after  delta  label``."""
    cells = [f"{count:6d}" for count in counts]
    if len(counts) == 2:
        cells.append(f"{counts[1] - counts[0]:+6d}")
    return "  ".join([*cells, str(label)])


def main(argv: list[str]) -> int:
    since = None
    if argv[:1] == ["--since"]:
        if len(argv) < 2:
            print("--since needs a git revision", file=sys.stderr)
            return 2
        since, argv = argv[1], argv[2:]
    paths = [Path(arg) for arg in argv] or [REPO / "src" / "repro"]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    if since is not None and git(
        paths[0], "rev-parse", "--verify", "--quiet", f"{since}^{{commit}}"
    ).returncode:
        print(f"not a git revision: {since}", file=sys.stderr)
        return 2
    totals = [0, 0] if since is not None else [0]
    for path in modules(paths):
        counts = [count_statements(path.read_text())]
        if since is not None:
            counts.insert(0, count_statements(text_at(since, path)))
        totals = [total + count for total, count in zip(totals, counts)]
        shown = path.resolve()
        shown = shown.relative_to(REPO) if shown.is_relative_to(REPO) else path
        print(row(counts, shown))
    print(row(totals, "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
