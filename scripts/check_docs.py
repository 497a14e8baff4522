#!/usr/bin/env python
"""Docs consistency checks, run by the CI docs job.

Seven guarantees:

1. every ```mermaid block in ``docs/*.md`` (and ``README.md``) parses —
   a lightweight structural validation: known diagram type on the first
   line, closed fence, balanced brackets, and well-formed edges for
   flowcharts / messages for sequence diagrams;
2. every public name exported from the documented modules (their
   ``__all__``: ``repro.serving`` and ``repro.nn.backends``) appears in
   ``docs/api.md``, so the API reference cannot silently rot as the
   serving surface grows;
3. every backticked repo-relative path in those files exists on disk,
   so deleting or renaming a file fails here until the prose that cites
   it is rewritten;
4. the message-type table in ``docs/remote.md`` lists exactly the
   members of ``protocol.MessageType`` with their wire numbers, so the
   wire reference cannot drift from the enum both ends dispatch on;
5. every ``TICKS_PER_ROUND`` = n that ``docs/serving.md`` states (at
   least one) equals ``transport.TICKS_PER_ROUND``, so the round the
   operator docs describe is the one the fleet's tickers run;
6. every constructor block in ``docs/api.md`` — a ```python block that
   opens with ``Name(`` for a name in ``repro.serving.__all__`` — lists
   exactly the parameters of ``inspect.signature(Name)``, so a removed
   knob cannot linger in the reference, nor a new one go unlisted;
7. no ``.py`` or ``.md`` file under ``src/``, ``tests/``, ``docs/``,
   ``scripts/`` or ``examples/``, nor ``README.md``, cites a ROADMAP
   item by number (``ROADMAP( item)? <digit>``): items are renumbered
   whenever the roadmap is re-anchored, so a citation names the claim
   or the doc section instead.

Run:  PYTHONPATH=src python scripts/check_docs.py
Exits non-zero with one line per problem.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
sys.path.insert(0, str(REPO / "src"))  # the checks that import ``repro``

#: Mermaid diagram types we know how to sanity-check.  Anything else in
#: a mermaid block is flagged (add the type here when docs start using it).
KNOWN_TYPES = ("flowchart", "graph", "sequenceDiagram", "stateDiagram")

#: Node/edge line of a flowchart: we only require that bracket pairs
#: balance and arrows are well-formed, not a full grammar.
_BRACKETS = {"[": "]", "(": ")", "{": "}"}


def extract_mermaid_blocks(text: str, path: Path) -> tuple[list[tuple[int, list[str]]], list[str]]:
    """Return (start_line, block_lines) pairs and any fence errors."""
    blocks: list[tuple[int, list[str]]] = []
    errors: list[str] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith("```mermaid"):
            start = i + 1
            body: list[str] = []
            i += 1
            while i < len(lines) and not lines[i].strip().startswith("```"):
                body.append(lines[i])
                i += 1
            if i == len(lines):
                errors.append(f"{path}:{start}: unclosed ```mermaid fence")
                break
            blocks.append((start, body))
        i += 1
    return blocks, errors


def brackets_balanced(line: str) -> bool:
    """Check bracket nesting, ignoring quoted label text."""
    line = re.sub(r'"[^"]*"', '""', line)
    stack: list[str] = []
    for char in line:
        if char in _BRACKETS:
            stack.append(_BRACKETS[char])
        elif char in _BRACKETS.values():
            if not stack or stack.pop() != char:
                return False
    return not stack


def check_flowchart(body: list[str], path: Path, start: int) -> list[str]:
    errors = []
    for offset, raw in enumerate(body[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%%"):
            continue
        if not brackets_balanced(line):
            errors.append(
                f"{path}:{start + offset}: unbalanced brackets in {line!r}"
            )
        # A malformed half-arrow ("->" in mermaid flowcharts must be
        # "-->", "-.->", "==>", or a labelled variant) renders as text.
        # Quoted label text may legitimately contain "->".
        unquoted = re.sub(r'"[^"]*"', '""', line)
        if re.search(r"[^-.=>]->", unquoted.replace("-->", "")):
            errors.append(
                f"{path}:{start + offset}: suspicious arrow in {line!r} "
                "(flowchart edges use -->)"
            )
    return errors


def check_sequence(body: list[str], path: Path, start: int) -> list[str]:
    errors = []
    ok_prefixes = ("participant", "actor", "Note", "loop", "alt", "else",
                   "opt", "end", "par", "and", "activate", "deactivate",
                   "autonumber", "%%")
    for offset, raw in enumerate(body[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(ok_prefixes):
            continue
        if not re.match(r"^[\w\s]+(-{1,2}>>?|-[x)])[\w\s]+:\s*\S", line):
            errors.append(
                f"{path}:{start + offset}: not a valid sequence message: {line!r}"
            )
    return errors


def check_mermaid(path: Path) -> list[str]:
    blocks, errors = extract_mermaid_blocks(path.read_text(), path)
    for start, body in blocks:
        if not body:
            errors.append(f"{path}:{start}: empty mermaid block")
            continue
        header = body[0].strip()
        diagram_type = header.split()[0] if header.split() else ""
        if diagram_type not in KNOWN_TYPES:
            errors.append(
                f"{path}:{start}: unknown mermaid diagram type {header!r} "
                f"(expected one of {', '.join(KNOWN_TYPES)})"
            )
        elif diagram_type in ("flowchart", "graph"):
            errors.extend(check_flowchart(body, path, start))
        elif diagram_type == "sequenceDiagram":
            errors.extend(check_sequence(body, path, start))
    return errors


#: A repo-relative path inside a backticked span: a top-level directory
#: of this tree followed by a path.  A match that runs into a brace,
#: glob or placeholder (``tests/property/test_{backend,bulk}_parity.py``,
#: ``docs/*.md``) is a pattern, not a path, and is not checked.
_TREE_PATH = re.compile(
    r"(?<![\w./-])(?:benchmarks|scripts|tests|bench|examples|src|docs)/[\w./-]*"
    r"(?![\w/{*<…-])"
)

#: A whole span naming a top-level data or prose file (``ROADMAP.md``).
_TOP_LEVEL_FILE = re.compile(r"[\w-]+\.(?:json|md)")


def check_paths(path: Path, root: Path = REPO) -> list[str]:
    """Every backticked repo-relative path in ``path`` must exist under ``root``."""
    errors = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        for span in re.findall(r"`([^`]+)`", line):
            cited = _TREE_PATH.findall(span)
            if _TOP_LEVEL_FILE.fullmatch(span):
                cited.append(span)
            errors.extend(
                f"{path}:{number}: `{name}` does not exist"
                for name in cited
                if not (root / name).exists()
            )
    return errors


#: Modules whose ``__all__`` must be fully covered by docs/api.md.
#: Add an entry when a new public surface grows an API-reference
#: section.
DOCUMENTED_MODULES = (
    "repro.serving",
    "repro.serving.analytics",
    "repro.serving.bulk",
    "repro.serving.eventstore",
    "repro.serving.remote",
    "repro.serving.remote.protocol",
    "repro.serving.shm",
    "repro.serving.telemetry",
    "repro.nn.backends",
)


def check_api_coverage() -> list[str]:
    """Every documented module's export must be mentioned in docs/api.md."""
    import importlib

    api_path = DOCS / "api.md"
    if not api_path.exists():
        return [f"{api_path}: missing (docs/api.md is required)"]
    text = api_path.read_text()
    errors = []
    for module_name in DOCUMENTED_MODULES:
        module = importlib.import_module(module_name)
        errors.extend(
            f"{api_path}: export {name!r} from {module_name}.__all__ "
            "is undocumented"
            for name in module.__all__
            if not re.search(rf"`{re.escape(name)}", text)
        )
    return errors


#: A row of the wire reference's message-type table:
#: ``| `NAME` | number | direction | payload |``.
_MESSAGE_ROW = re.compile(r"^\|\s*`([A-Z_]+)`\s*\|\s*(\d+)\s*\|", re.MULTILINE)


def check_message_types(page: Path) -> list[str]:
    """The (name, number) pairs ``page`` tabulates are exactly
    ``protocol.MessageType``'s."""
    from repro.serving.remote.protocol import MessageType

    listed = {(name, int(number)) for name, number in _MESSAGE_ROW.findall(page.read_text())}
    members = {(member.name, member.value) for member in MessageType}
    return [
        f"{page}: message type `{name}` = {number} is {problem}"
        for problem, pairs in (
            ("in protocol.MessageType but not in the table", members - listed),
            ("in the table but not in protocol.MessageType", listed - members),
        )
        for name, number in sorted(pairs)
    ]


#: A stated round size: ``TICKS_PER_ROUND`` = n, backticked or not.
_TICKS_PER_ROUND = re.compile(r"`?TICKS_PER_ROUND`?\s*=\s*(\d+)")


def check_ticks_per_round(page: Path) -> list[str]:
    """Every round size ``page`` states is ``TICKS_PER_ROUND``'s value."""
    from repro.serving.transport import TICKS_PER_ROUND

    stated = [int(n) for n in _TICKS_PER_ROUND.findall(page.read_text())]
    if not stated:
        return [f"{page}: states no `TICKS_PER_ROUND` = n"]
    return [
        f"{page}: states `TICKS_PER_ROUND` = {n}, the code has {TICKS_PER_ROUND}"
        for n in stated
        if n != TICKS_PER_ROUND
    ]


#: The head of a constructor block: ``Name(`` opening a ```python block.
_BLOCK_HEAD = re.compile(r"^```python\n(\w+)\(", re.MULTILINE)


def _parameters(text: str) -> set[str]:
    """The parameter names of the call whose arguments ``text`` opens
    with, up to its closing paren: the leading name of each top-level
    comma-separated item (``*`` and annotations/defaults dropped)."""
    items, item, depth = [], "", 0
    for char in text:
        if char in ")]}" and depth == 0:
            break
        depth += (char in "([{") - (char in ")]}")
        if char == "," and depth == 0:
            items.append(item)
            item = ""
        else:
            item += char
    items.append(item)
    return {name for name in (re.match(r"\s*(\w*)", i).group(1) for i in items) if name}


def check_constructor_blocks(page: Path) -> list[str]:
    """Each ``Name(`` block of ``page`` lists exactly the parameters of
    ``repro.serving.Name``'s signature."""
    import inspect

    import repro.serving as serving

    text = page.read_text()
    errors = []
    for match in _BLOCK_HEAD.finditer(text):
        name = match.group(1)
        if name not in serving.__all__:
            continue
        listed = _parameters(text[match.end():])
        actual = set(inspect.signature(getattr(serving, name)).parameters)
        line = text.count("\n", 0, match.start()) + 2
        errors.extend(
            f"{page}:{line}: `{name}(` lists `{param}`, not in its signature"
            for param in sorted(listed - actual)
        )
        errors.extend(
            f"{page}:{line}: `{name}(` omits its parameter `{param}`"
            for param in sorted(actual - listed)
        )
    return errors


#: A citation of a roadmap item by its number.
_ROADMAP_ITEM = re.compile(r"ROADMAP(?: item)? \d")

#: Where roadmap item numbers may not appear: everything but the
#: roadmap itself, the changelog and the frozen benchmark.
CITATION_TREES = ("src", "tests", "docs", "scripts", "examples")


def check_roadmap_citations(root: Path = REPO) -> list[str]:
    """No file outside ``ROADMAP.md`` cites a roadmap item by number."""
    files = [root / "README.md"] + [
        path
        for tree in CITATION_TREES
        for pattern in ("*.py", "*.md")
        for path in sorted((root / tree).rglob(pattern))
    ]
    return [
        f"{path}:{number}: cites a ROADMAP item by number; name the claim or section"
        for path in files
        if path.exists()
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if _ROADMAP_ITEM.search(line)
    ]


def main() -> int:
    errors: list[str] = []
    targets = sorted(DOCS.glob("*.md")) + [REPO / "README.md"]
    if not (DOCS.exists() and list(DOCS.glob("*.md"))):
        errors.append(f"{DOCS}: docs tree is missing or empty")
    for path in targets:
        if path.exists():
            errors.extend(check_mermaid(path))
            errors.extend(check_paths(path))
    errors.extend(check_api_coverage())
    errors.extend(check_message_types(DOCS / "remote.md"))
    errors.extend(check_ticks_per_round(DOCS / "serving.md"))
    errors.extend(check_constructor_blocks(DOCS / "api.md"))
    errors.extend(check_roadmap_citations())
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"\ncheck_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    n_blocks = sum(
        len(extract_mermaid_blocks(p.read_text(), p)[0])
        for p in targets
        if p.exists()
    )
    print(
        f"check_docs: OK ({n_blocks} mermaid block(s), api.md covers __all__, "
        "every cited path exists, remote.md tabulates MessageType, "
        "serving.md states TICKS_PER_ROUND, api.md's constructor blocks "
        "match their signatures, no ROADMAP item is cited by number)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
