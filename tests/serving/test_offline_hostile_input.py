"""The offline scoring paths refuse non-finite frames, like ``feed`` does.

One NaN/Inf frame used to read ``score=nan, flag=0`` for a whole window
from ``process()`` and ``BulkScorer`` — a silent safe verdict — while
``stream()`` (which rides ``MonitorService.feed``) raised.
"""

import numpy as np
import pytest

from repro.config import WindowConfig
from repro.errors import DatasetError
from repro.experiments.table8 import _baseline_output
from repro.serving import (
    BulkScorer,
    make_random_walk_trajectory,
    make_synthetic_monitor,
    score_procedure,
    score_procedures,
)

CALLS = {
    "process": lambda monitor, t: monitor.process(t),
    "process_true_gestures": lambda monitor, t: monitor.process(t, use_true_gestures=True),
    "bulk_score": lambda monitor, t: BulkScorer(monitor).score(t),
    "bulk_score_many": lambda monitor, t: BulkScorer(monitor).score_many([t]),
    "score_procedure": score_procedure,
    "score_procedure_compiled": lambda monitor, t: score_procedure(monitor, t, backend="compiled"),
    "score_procedures": lambda monitor, t: score_procedures(monitor, [t]),
    "stream": lambda monitor, t: list(monitor.stream(t)),  # already refused at the parent
    # Table VIII's / Figure 9's context-free comparator.
    "table8_baseline": lambda monitor, t: _baseline_output(_MeanBaseline(), t, WindowConfig(5, 3)),
}


class _MeanBaseline:
    """Stands in for a trained ``BaselineMonitor``: NaN in, NaN out."""

    def timed_predict_proba(self, windows):
        return windows.mean(axis=(1, 2)), 0.0


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=10, seed=7)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", CALLS)
def test_poisoned_procedure_raises_and_scores_nothing(monitor, call, value):
    poisoned = make_random_walk_trajectory(40, n_features=10, seed=5)
    poisoned.frames[8, 3] = value
    with pytest.raises(DatasetError, match="non-finite"):
        CALLS[call](monitor, poisoned)


def test_baseline_fill_matches_the_frame_loop():
    """Finite input: the vectorised forward-fill of the context-free
    baseline reads, per frame, what the per-frame loop it replaced read."""
    trajectory = make_random_walk_trajectory(40, n_features=10, seed=5)
    trajectory.gestures = np.ones(40, dtype=int)
    window = WindowConfig(5, 3)
    out = _baseline_output(_MeanBaseline(), trajectory, window)
    expected, last = np.zeros(40), 0.0
    for t in range(40):
        if t >= window.window - 1 and (t - (window.window - 1)) % window.stride == 0:
            last = trajectory.frames[t - window.window + 1 : t + 1].mean()
        expected[t] = last
    np.testing.assert_array_equal(out.unsafe_scores, expected)
    np.testing.assert_array_equal(out.unsafe_flags, (expected >= 0.5).astype(int))
