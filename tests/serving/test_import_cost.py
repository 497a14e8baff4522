"""`import repro.serving` is paid by every gateway and shard-worker start."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_importing_serving_leaves_scipy_stats_and_networkx_out():
    """Both are needed by one function each (Figure 5's KDE,
    ``MarkovChain.to_networkx``) and cost ~0.8 s together; a module-level
    import anywhere under ``repro.serving``'s import graph brings that
    back into every process start."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, repro.serving; "
        "print([m for m in ('scipy.stats', 'networkx') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "[]"
