"""The layer path's inference chunks move no bit.

``Sequential.predict_proba`` takes ``PREDICT_CHUNK`` (64) rows per
forward unless told otherwise, ``GestureClassifier.predict_frames``
standardises and scores one chunk of windows at a time, and
``SafetyMonitor.process`` scores each gesture's error windows a chunk at
a time — so the working set is one chunk's, however long the procedure.
Inference rows are independent (every contraction is the fixed-shape
blocked one of :mod:`repro.nn.layers.contract`, everything else
element-wise or row-wise), so 64-window chunks must give the bytes of
one call over every window.  Checked here for every model family the
monitor hosts, at sizes around the chunk, and for ``process()`` with
its chunks at 1, 3 and one call over everything.
"""

import numpy as np
import pytest

from repro.core import gesture_classifier as gesture_module
from repro.core import pipeline as pipeline_module
from repro.nn import Sequential
from repro.nn.model import PREDICT_CHUNK
from repro.serving import make_random_walk_trajectory, make_synthetic_monitor

N_FEATURES = 10
WINDOW = 5


def owners(monitor):
    """The gesture classifier and one error-library member."""
    library = monitor.library.classifiers
    return monitor.gesture_classifier, library[min(library)]


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("architecture", ["conv", "lstm"])
@pytest.mark.parametrize(
    "n", [1, PREDICT_CHUNK - 1, PREDICT_CHUNK, PREDICT_CHUNK + 1, 3 * PREDICT_CHUNK + 5]
)
def test_default_chunks_are_one_call(architecture, n):
    monitor = make_synthetic_monitor(
        n_features=N_FEATURES, seed=1, architecture=architecture
    )
    rng = np.random.default_rng(n)
    for owner in owners(monitor):
        x = owner.scaler.transform(rng.standard_normal((n, WINDOW, N_FEATURES)) * 2.0)
        one_call = owner.model.predict_proba(x, batch_size=n)
        assert same_bytes(owner.model.predict_proba(x), one_call)
        assert same_bytes(owner.model.predict(x), owner.model.predict(x, batch_size=n))


@pytest.mark.parametrize("chunk", [1, 3, 10**9])
def test_process_chunks_move_no_bit(monkeypatch, chunk):
    """``process()`` at the shipped chunks against the same procedure
    with every chunk of the layer path — the core's and
    ``Sequential``'s default — set to ``chunk`` (``10**9``: one call
    over every window)."""
    monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=2, architecture="lstm")
    trajectory = make_random_walk_trajectory(300, n_features=N_FEATURES, seed=4)
    expected = monitor.process(trajectory)
    monkeypatch.setattr(gesture_module, "PREDICT_CHUNK", chunk)
    monkeypatch.setattr(pipeline_module, "PREDICT_CHUNK", chunk)
    for method in (Sequential.predict_proba, Sequential.predict):
        monkeypatch.setattr(method, "__defaults__", (chunk,))
    got = monitor.process(trajectory)
    for name in ("gestures", "unsafe_scores", "unsafe_flags"):
        assert same_bytes(getattr(got, name), getattr(expected, name)), name
