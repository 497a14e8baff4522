"""Property test: the bulk engine matches the looped pipeline.

Sweeps randomised monitors — conv / lstm error-classifier families,
random hidden widths, one- and two-layer gesture LSTM stacks, random
window lengths and strides for both stages, random trajectory lengths
(from shorter than one window to several of the reference backend's
window chunks) — and asserts :class:`BulkScorer` reproduces the looped
:meth:`SafetyMonitor.process`:

- **bit-identical** gestures, scores and flags under the ``reference``
  backend (the committed contract of :mod:`repro.serving.bulk`);
- exact gestures/flags and ``atol=1e-6`` scores under ``compiled``
  (loose ``1e-3`` for ``compiled-f32``), the compiled-plan contract.

The reference gesture stage runs time-major over chunks of windows, and
reads the frames under a strided window view off its memory layout; the
last two tests pin that neither the chunk size nor the layout moves a
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WindowConfig
from repro.kinematics.windows import sliding_windows_view
from repro.nn.backends import ReferenceBackend
from repro.nn.backends import reference as reference_module
from repro.serving import (
    BulkScorer,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)

SCORE_ATOL = {"compiled": 1e-6, "compiled-f32": 1e-3}
CHUNK = reference_module._CHUNK


@given(
    architecture=st.sampled_from(["conv", "lstm"]),
    hidden=st.lists(st.integers(2, 10), min_size=1, max_size=2).map(tuple),
    gesture_units=st.lists(st.integers(2, 10), min_size=1, max_size=2).map(tuple),
    gesture_window=st.integers(3, 8),
    gesture_stride=st.integers(1, 3),
    error_window=st.integers(3, 8),
    error_stride=st.integers(1, 3),
    # Up to several window chunks of the time-major gesture pass.
    n_frames=st.sampled_from([2, 5, 37, 120, CHUNK + 7, 3 * CHUNK + 20, 6 * CHUNK]),
    use_true_gestures=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_bulk_matches_looped_process(
    architecture,
    hidden,
    gesture_units,
    gesture_window,
    gesture_stride,
    error_window,
    error_stride,
    n_frames,
    use_true_gestures,
    seed,
):
    monitor = make_synthetic_monitor(
        n_features=6,
        seed=seed,
        gesture_window=WindowConfig(gesture_window, gesture_stride),
        error_window=WindowConfig(error_window, error_stride),
        architecture=architecture,
        hidden=hidden,
        gesture_lstm_units=gesture_units,
    )
    trajectory = make_random_walk_trajectory(n_frames, n_features=6, seed=seed)

    looped = monitor.process(trajectory, use_true_gestures=use_true_gestures)

    reference = BulkScorer(monitor, backend="reference").score(
        trajectory, use_true_gestures=use_true_gestures
    )
    np.testing.assert_array_equal(reference.gestures, looped.gestures)
    np.testing.assert_array_equal(reference.unsafe_scores, looped.unsafe_scores)
    np.testing.assert_array_equal(reference.unsafe_flags, looped.unsafe_flags)
    assert reference.metadata["engine"] == "bulk"
    assert reference.metadata["backend"] == "reference"

    for backend, atol in SCORE_ATOL.items():
        bulk = BulkScorer(monitor, backend=backend).score(
            trajectory, use_true_gestures=use_true_gestures
        )
        np.testing.assert_array_equal(bulk.gestures, looped.gestures)
        np.testing.assert_allclose(
            bulk.unsafe_scores, looped.unsafe_scores, atol=atol
        )
        # Flags are exact except where a score sits within the backend's
        # float tolerance of the threshold (where >= legitimately flips).
        decisive = np.abs(looped.unsafe_scores - monitor.threshold) > atol
        np.testing.assert_array_equal(
            bulk.unsafe_flags[decisive], looped.unsafe_flags[decisive]
        )


def two_layer_monitor(stride, seed=3):
    return make_synthetic_monitor(
        n_features=6,
        seed=seed,
        gesture_window=WindowConfig(5, stride),
        architecture="lstm",
        hidden=(4, 3),
        gesture_lstm_units=(9, 4),
    )


def frames_for(n_windows, stride, window=5):
    """The frame count that yields ``n_windows`` gesture windows."""
    return (n_windows - 1) * stride + window


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_chunk_size_moves_no_bit(monkeypatch, stride):
    """The same bytes whatever the chunk, at window counts either side
    of one and of several default chunk boundaries."""
    monitor = two_layer_monitor(stride)
    for n_windows in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1):
        trajectory = make_random_walk_trajectory(
            frames_for(n_windows, stride), n_features=6, seed=n_windows
        )
        outputs = []
        for chunk in (1, 3, CHUNK):
            monkeypatch.setattr(reference_module, "_CHUNK", chunk)
            outputs.append(BulkScorer(monitor).score(trajectory))
        looped = monitor.process(trajectory)
        for out in outputs:
            assert out.gestures.tobytes() == looped.gestures.tobytes()
            assert out.unsafe_scores.tobytes() == looped.unsafe_scores.tobytes()
            assert out.unsafe_flags.tobytes() == looped.unsafe_flags.tobytes()


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_contiguous_copy_is_the_view(stride):
    """A window view (frames projected once) and a contiguous copy of it
    (a projection per window step) score the same bytes."""
    monitor = two_layer_monitor(stride)
    clf = monitor.gesture_classifier
    backend = ReferenceBackend(clf.scaler, clf.model)
    frames = make_random_walk_trajectory(
        frames_for(2 * CHUNK + 9, stride), n_features=6, seed=stride
    ).frames
    view, _ = sliding_windows_view(frames, clf.config.window)
    copy = np.ascontiguousarray(view)
    assert reference_module._frame_rows(view)[1] == stride
    assert reference_module._frame_rows(copy)[0] is None
    assert backend.predict_proba(view).tobytes() == backend.predict_proba(copy).tobytes()
    assert backend.score_bulk(view).tobytes() == backend.score_bulk(copy).tobytes()
    expected = clf.model.predict_proba(clf.scaler.transform(copy))
    assert backend.forward_bulk(view).tobytes() == expected.tobytes()
