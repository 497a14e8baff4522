"""Property test: session migration is invisible to the event stream.

Sweeps randomised serving setups — conv / LSTM error-stage
architectures, random window lengths and strides, random feature
widths, both inference backends — and asserts that exporting a session
at a **random frame offset**, round-tripping it through the npz session
codec and importing it into a fresh engine reproduces the never-migrated
session's events *bit-identically* (reference backend) or within the
compiled backend's documented ``atol=1e-6`` score contract (discrete
fields always exact).

The offset is the interesting axis: it lands in every phase of the
window machinery — mid-warm-up (ring not yet full), exactly on a window
boundary, between strides — and the stream position and recent frames
the state carries must reproduce each one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WindowConfig
from repro.serving import (
    MonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
    session_from_bytes,
    session_to_bytes,
)

N_FRAMES = 24


@given(
    architecture=st.sampled_from(["conv", "lstm"]),
    hidden=st.sampled_from([(4,), (8,), (4, 4)]),
    window=st.integers(3, 7),
    stride=st.integers(1, 3),
    n_features=st.integers(3, 10),
    seed=st.integers(0, 2**16),
    offset=st.integers(0, N_FRAMES),
    backend=st.sampled_from(["reference", "compiled"]),
)
@settings(max_examples=25, deadline=None)
def test_export_import_at_any_offset_is_bit_identical(
    architecture, hidden, window, stride, n_features, seed, offset, backend
):
    monitor = make_synthetic_monitor(
        n_features=n_features,
        seed=seed,
        gesture_window=WindowConfig(window, stride),
        error_window=WindowConfig(window, 1),
        architecture=architecture,
        hidden=hidden,
    )
    trajectory = make_random_walk_trajectory(
        N_FRAMES, n_features=n_features, seed=seed + 1
    )

    reference = MonitorService(monitor, max_sessions=2, backend=backend)
    reference.open_session("s")
    reference.feed("s", trajectory.frames)
    ref_events = reference.drain()
    ref_result = reference.close_session("s")

    source = MonitorService(monitor, max_sessions=2, backend=backend)
    source.open_session("s")
    source.feed("s", trajectory.frames)
    events = []
    for _ in range(offset):
        events += source.tick()
    state = source.export_session("s", remove=True)
    target = MonitorService(monitor, max_sessions=2, backend=backend)
    target.import_session(session_from_bytes(session_to_bytes(state)))
    events += target.drain()
    result = target.close_session("s")

    # Discrete fields are exact under every backend; so is the order.
    assert [
        (e.session_id, e.frame_index, e.gesture, e.flag) for e in events
    ] == [(e.session_id, e.frame_index, e.gesture, e.flag) for e in ref_events]
    assert np.array_equal(result.gestures, ref_result.gestures)
    if backend == "reference":
        # Bit-identical scores: the position, recent frames and
        # pending backlog moved exactly, and the reference backend is
        # batch-invariant.
        assert [e.score for e in events] == [e.score for e in ref_events]
        assert np.array_equal(
            result.unsafe_scores, ref_result.unsafe_scores
        )
        assert np.array_equal(result.unsafe_flags, ref_result.unsafe_flags)
    else:
        np.testing.assert_allclose(
            [e.score for e in events],
            [e.score for e in ref_events],
            atol=1e-6,
        )
