"""The offline scoring paths refuse non-finite frames, like ``feed`` does.

One NaN/Inf frame used to read ``score=nan, flag=0`` for a whole window
from ``process()`` and ``BulkScorer`` — a silent safe verdict — while
``stream()`` (which rides ``MonitorService.feed``) raised.
"""

import numpy as np
import pytest

from repro.errors import DatasetError
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
    "process_bulk": lambda monitor, t: monitor.process(t, bulk=True),
    "process_bulk_compiled": lambda monitor, t: monitor.process(t, bulk=True, backend="compiled"),
    "bulk_score": lambda monitor, t: BulkScorer(monitor).score(t),
    "bulk_score_many": lambda monitor, t: BulkScorer(monitor).score_many([t]),
    "score_procedure": score_procedure,
    "score_procedures": lambda monitor, t: score_procedures(monitor, [t]),
    "stream": lambda monitor, t: list(monitor.stream(t)),  # already refused at the parent
}


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
