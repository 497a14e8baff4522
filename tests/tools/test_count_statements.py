"""``scripts/count_statements.py``: statement counts, and with
``--since REF`` the before/after/delta of each module against a git
revision, run against a throwaway git repository."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "count_statements.py"


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


def count(repo, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        cwd=repo,
        capture_output=True,
        text=True,
    )
    return done.returncode, done.stdout.splitlines(), done.stderr


@pytest.fixture
def repo(tmp_path):
    """A repository whose first commit holds ``kept.py`` (two
    statements); the working tree then grows it by three and adds
    ``new.py`` (one statement)."""
    git(tmp_path, "init", "-q")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "kept.py").write_text("import os\nx = 1\n")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "first")
    (tmp_path / "pkg" / "kept.py").write_text(
        '"""Doc."""\nimport os\nx = 1\nif x:\n    pass\n'
    )
    (tmp_path / "pkg" / "new.py").write_text("y = 2\n")
    return tmp_path


def test_counts_without_since(repo):
    code, lines, _ = count(repo, "pkg")
    assert code == 0
    assert [line.split() for line in lines] == [
        ["5", "pkg/kept.py"],
        ["1", "pkg/new.py"],
        ["6", "total"],
    ]


def test_since_prints_before_after_delta(repo):
    code, lines, _ = count(repo, "--since", "HEAD", "pkg")
    assert code == 0
    # A module that does not exist at the revision counts 0.
    assert [line.split() for line in lines] == [
        ["2", "5", "+3", "pkg/kept.py"],
        ["0", "1", "+1", "pkg/new.py"],
        ["2", "6", "+4", "total"],
    ]


@pytest.mark.parametrize("args", [["--since", "no-such-ref", "pkg"], ["--since"]])
def test_since_refuses_a_bad_revision(repo, args):
    code, lines, err = count(repo, *args)
    assert code == 2 and not lines and err
