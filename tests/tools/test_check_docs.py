"""Unit tests for the guards in ``scripts/check_docs.py``.

A doc that cites a file must fail the docs job once that file is
deleted or renamed; exercised against a miniature tree with one passing
and one failing page.  The wire reference's message-type table must
fail it once it and ``protocol.MessageType`` disagree, the operator
docs' round size once it and ``TICKS_PER_ROUND`` do, an API
reference constructor block once it and the signature do, and any
file outside the roadmap once it cites a roadmap item by number.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

from check_docs import (  # noqa: E402 - path set up above
    DOCS,
    check_constructor_blocks,
    check_message_types,
    check_paths,
    check_roadmap_citations,
    check_ticks_per_round,
)

from repro.serving.transport import TICKS_PER_ROUND  # noqa: E402


def _tree(tmp_path: Path) -> Path:
    (tmp_path / "tests" / "serving").mkdir(parents=True)
    (tmp_path / "tests" / "serving" / "test_remote.py").touch()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").touch()
    (tmp_path / "ROADMAP.md").touch()
    (tmp_path / "docs").mkdir()
    return tmp_path / "docs" / "page.md"


def test_existing_paths_commands_and_patterns_pass(tmp_path):
    page = _tree(tmp_path)
    page.write_text(
        "See `tests/serving/test_remote.py::TestResume`, the `tests/` tree,\n"
        "`python3 bench/run.py --smoke`, `ROADMAP.md` and `docs/page.md`.\n"
        "Patterns are not paths: `tests/property/test_{backend,bulk}_parity.py`,\n"
        "`docs/*.md`; nor are other names: `np.ndarray`, `run.py --json out.json`.\n"
    )
    assert check_paths(page, root=tmp_path) == []


def test_deleted_files_are_reported_with_their_line(tmp_path):
    page = _tree(tmp_path)
    page.write_text(
        "Fine: `bench/run.py`.\n"
        "Gone: `benchmarks/bench_gone.py --check-gone` wrote\n"
        "`GONE.json`.\n"
    )
    assert check_paths(page, root=tmp_path) == [
        f"{page}:2: `benchmarks/bench_gone.py` does not exist",
        f"{page}:3: `GONE.json` does not exist",
    ]


def test_the_wire_reference_tabulates_the_enum(tmp_path):
    assert check_message_types(DOCS / "remote.md") == []
    page = tmp_path / "remote.md"
    table = (DOCS / "remote.md").read_text()
    page.write_text(
        table.replace("| `ACK` | 8 |", "| `ACK` | 10 |").replace(
            "| `HEARTBEAT` | 6 |", "| `PING` | 6 |"
        )
    )
    assert check_message_types(page) == [
        f"{page}: message type `ACK` = 8 is in protocol.MessageType but not in the table",
        f"{page}: message type `HEARTBEAT` = 6 is in protocol.MessageType but not in the table",
        f"{page}: message type `ACK` = 10 is in the table but not in protocol.MessageType",
        f"{page}: message type `PING` = 6 is in the table but not in protocol.MessageType",
    ]


def test_the_operator_docs_state_the_round_size(tmp_path):
    assert check_ticks_per_round(DOCS / "serving.md") == []
    page = tmp_path / "serving.md"
    drifted = TICKS_PER_ROUND + 1
    page.write_text(
        f"A round is up to `TICKS_PER_ROUND` = {TICKS_PER_ROUND} ticks;\n"
        f"elsewhere it says TICKS_PER_ROUND = {drifted}.\n"
    )
    assert check_ticks_per_round(page) == [
        f"{page}: states `TICKS_PER_ROUND` = {drifted}, the code has {TICKS_PER_ROUND}"
    ]
    page.write_text("A round is some ticks.\n")
    assert check_ticks_per_round(page) == [f"{page}: states no `TICKS_PER_ROUND` = n"]


def test_constructor_blocks_list_the_signature(tmp_path):
    assert check_constructor_blocks(DOCS / "api.md") == []
    page = tmp_path / "api.md"
    page.write_text(
        "```python\n"
        "AsyncShardedMonitor(service: ShardedMonitorService,\n"
        "                    sink: Callable[[list[SessionEvent]], None])\n"
        "```\n"
        "\n"
        "```python\n"
        "suggest_shard_count(shard_stats: dict[int, ServiceStats], *,\n"
        "                    frame_interval_ms=33.33, high_watermark=0.5,\n"
        "                    low_watermark=0.1, min_shards=1) -> int\n"
        "```\n"
        "\n"
        "```python\n"
        "ShardedMonitorService(monitor=None, n_shards=2, max_sessions_per_shard=64, *,\n"
        "    monitor_bytes=None, start_method=None, backend=None,\n"
        "    frame_ring_bytes=..., event_ring_bytes=..., event_store=None)\n"
        "```\n"
        "\n"
        "```python\n"
        "not_an_export(anything)\n"
        "```\n"
    )
    assert check_constructor_blocks(page) == [
        f"{page}:7: `suggest_shard_count(` omits its parameter `max_shards`",
        f"{page}:13: `ShardedMonitorService(` lists `event_ring_bytes`, not in its signature",
    ]


def test_roadmap_items_are_cited_by_name_not_number(tmp_path):
    assert check_roadmap_citations() == []
    # Built, not written: this file is itself under tests/.
    item = "ROADMAP item " + "3"
    for tree in ("src", "docs", "bench"):
        (tmp_path / tree).mkdir()
    (tmp_path / "README.md").write_text(f"Unmeasured ({item}).\n")
    (tmp_path / "src" / "mod.py").write_text(f"x = 1\n# {item}(b)\n")
    (tmp_path / "docs" / "page.md").write_text(
        "See `ROADMAP.md` and the ROADMAP's north star.\n"
    )
    # bench/ is not scanned: its README is frozen with the benchmark.
    (tmp_path / "bench" / "README.md").write_text(f"{item}\n")
    problem = "cites a ROADMAP item by number; name the claim or section"
    assert check_roadmap_citations(tmp_path) == [
        f"{tmp_path / 'README.md'}:1: {problem}",
        f"{tmp_path / 'src' / 'mod.py'}:2: {problem}",
    ]
    (tmp_path / "src" / "mod.py").write_text(f"# ROADMAP {4}(b)\n")
    assert check_roadmap_citations(tmp_path)[1:] == [
        f"{tmp_path / 'src' / 'mod.py'}:1: {problem}"
    ]


# Built, not written: this file is itself under tests/.
_CITATION = "ROADMAP item " + "5"


@pytest.mark.parametrize(
    "relative",
    [
        "README.md",
        "src/repro/serving/mod.py",
        "tests/serving/test_mod.py",
        "docs/page.md",
        "scripts/tool.py",
        "examples/demo.py",
    ],
)
def test_roadmap_citation_is_caught_in_every_scanned_tree(tmp_path, relative):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"Fine.\nOpen ({_CITATION}(b)).\n")
    assert check_roadmap_citations(tmp_path) == [
        f"{path}:2: cites a ROADMAP item by number; name the claim or section"
    ]


@pytest.mark.parametrize(
    "relative, text",
    [
        ("ROADMAP.md", f"{_CITATION}: the roadmap numbers its own items.\n"),
        ("CHANGES.md", f"Took {_CITATION}.\n"),
        ("bench/README.md", f"Frozen with the benchmark: {_CITATION}.\n"),
        ("src/notes.txt", f"Not a .py or .md file: {_CITATION}.\n"),
        ("docs/page.md", "See `ROADMAP.md` § Open items and the ROADMAP's north star.\n"),
    ],
    ids=["roadmap", "changelog", "frozen-bench", "other-suffix", "named-citation"],
)
def test_roadmap_mentions_outside_the_rule_pass(tmp_path, relative, text):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    assert check_roadmap_citations(tmp_path) == []
