"""ASCII/markdown table rendering for the experiments.

Every experiment prints the rows of the paper table it regenerates; these
helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ShapeError


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 1000 else f"{cell:.1f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width ASCII table."""
    if not headers:
        raise ShapeError("headers must not be empty")
    str_rows = [[_stringify(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ShapeError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """GitHub-flavoured markdown table (``docs/fidelity.md``)."""
    if not headers:
        raise ShapeError("headers must not be empty")
    str_rows = [[_stringify(c) for c in row] for row in rows]
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in str_rows:
        if len(row) != len(headers):
            raise ShapeError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
