"""Property test: a session is its stream position and its last W frames.

The monitor is windowed by construction — both stages see only the last
``window`` kinematics frames plus the current gesture context — so
everything a live session *is* follows from four things an engine need
not have exported: where the stream stands, its last ``W = max(gesture
window, error window)`` frames, the last emitted ``(gesture, score)``,
and the frames not yet processed.  For any stream, cut, pair of window
configurations (the gesture window the longer one, on a feature subset,
included), unprocessed-tail length, gesture path and backend,
``import_session`` of a :class:`SessionState` written down from *only*
those four continues equal to the service that was never interrupted:
bytes under ``reference``, ``atol=1e-6`` on the scores under the
compiled backends (discrete fields exact).

This is what lets the gateway hold ``W`` frames per session instead of
every frame it ever sent, and restore a lost engine side in O(W).
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.config import WindowConfig
from repro.nn.backends import CompiledBackend, ReferenceBackend
from repro.serving import (
    MonitorService,
    SessionState,
    make_random_walk_trajectory,
    make_synthetic_monitor,
    session_from_bytes,
    session_to_bytes,
)

N_FRAMES = 30


@contextmanager
def gesture_path(stepped):
    """Services built inside step LSTM chains, or score the ring's windows."""
    owners = (ReferenceBackend, CompiledBackend)
    originals = [owner.stream_stepper for owner in owners]
    if not stepped:
        for owner in owners:
            owner.stream_stepper = lambda self, config, n_slots: None
    try:
        yield
    finally:
        for owner, original in zip(owners, originals):
            owner.stream_stepper = original


def on_a_feature_subset(monitor, columns, seed):
    """Rebuild the gesture stage to read ``columns`` of each frame only."""
    classifier = monitor.gesture_classifier
    classifier.config.feature_indices = columns
    classifier.model = classifier._build_model()
    window = classifier.config.window.window
    classifier.model.build((window, columns.size))
    classifier.scaler = nn.StandardScaler().fit(
        np.random.default_rng(seed).standard_normal((64, window, columns.size))
    )


@given(
    gesture_window=st.tuples(st.integers(3, 12), st.integers(1, 4)),
    error_window=st.tuples(st.integers(3, 12), st.integers(1, 4)),
    subset=st.booleans(),
    stepped=st.booleans(),
    architecture=st.sampled_from(["conv", "lstm"]),
    n_features=st.integers(4, 9),
    seed=st.integers(0, 2**16),
    cut=st.integers(0, N_FRAMES),
    tail=st.integers(0, 6),
    backend=st.sampled_from(["reference", "compiled", "compiled-f32"]),
)
@settings(max_examples=60, deadline=None)
def test_import_of_a_state_nobody_exported_continues_the_stream(
    gesture_window, error_window, subset, stepped, architecture, n_features,
    seed, cut, tail, backend,
):
    monitor = make_synthetic_monitor(
        n_features=n_features,
        seed=seed,
        gesture_window=WindowConfig(*gesture_window),
        error_window=WindowConfig(*error_window),
        architecture=architecture,
        hidden=(4,),
        gesture_lstm_units=(6, 4),
    )
    if subset:
        columns = np.random.default_rng(seed).permutation(n_features)[:3]
        on_a_feature_subset(monitor, columns, seed)
    frames = make_random_walk_trajectory(
        N_FRAMES, n_features=n_features, seed=seed + 1
    ).frames

    with gesture_path(stepped):
        uninterrupted = MonitorService(monitor, max_sessions=1, backend=backend)
        uninterrupted.open_session("s")
        uninterrupted.feed("s", frames)
        expected = uninterrupted.drain()

        w = uninterrupted.history_frames
        assert w == max(gesture_window[0], error_window[0])
        last = expected[cut - 1] if cut else None
        state = SessionState(
            session_id="s",
            frames_done=cut,
            record_timeline=False,
            current_gesture=last.gesture if last else 0,
            current_score=last.score if last else 0.0,
            gestures=np.empty(0, dtype=np.int64),
            scores=np.empty(0),
            pending=frames[cut : cut + tail],
            recent=frames[max(0, cut - w) : cut],
        )
        restored = MonitorService(monitor, max_sessions=2, backend=backend)
        restored.open_session("resident")  # the restored slot is not slot 0
        restored.import_session(session_from_bytes(session_to_bytes(state)))
        restored.feed("s", frames[cut + tail :])
        events = restored.drain()

    want = expected[cut:]
    assert [(e.frame_index, e.gesture, e.flag) for e in events] == [
        (e.frame_index, e.gesture, e.flag) for e in want
    ]
    if backend == "reference":
        assert [e.score for e in events] == [e.score for e in want]
    else:
        np.testing.assert_allclose(
            [e.score for e in events], [e.score for e in want], atol=1e-6
        )
