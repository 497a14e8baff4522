"""Property test: the bulk engine matches the looped pipeline.

Sweeps randomised monitors — conv / lstm error-classifier families,
random hidden widths, random window lengths and strides for both stages,
random trajectory lengths (including shorter-than-one-window edges) —
and asserts :class:`BulkScorer` reproduces the looped
:meth:`SafetyMonitor.process`:

- **bit-identical** gestures, scores and flags under the ``reference``
  backend (the committed contract of :mod:`repro.serving.bulk`);
- exact gestures/flags and ``atol=1e-6`` scores under ``compiled``
  (loose ``1e-3`` for ``compiled-f32``), the compiled-plan contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WindowConfig
from repro.serving import (
    BulkScorer,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)

SCORE_ATOL = {"compiled": 1e-6, "compiled-f32": 1e-3}


@given(
    architecture=st.sampled_from(["conv", "lstm"]),
    hidden=st.lists(st.integers(2, 10), min_size=1, max_size=2).map(tuple),
    gesture_window=st.integers(3, 8),
    error_window=st.integers(3, 8),
    error_stride=st.integers(1, 3),
    n_frames=st.sampled_from([2, 5, 37, 120]),
    use_true_gestures=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_bulk_matches_looped_process(
    architecture,
    hidden,
    gesture_window,
    error_window,
    error_stride,
    n_frames,
    use_true_gestures,
    seed,
):
    monitor = make_synthetic_monitor(
        n_features=6,
        seed=seed,
        gesture_window=WindowConfig(gesture_window, 1),
        error_window=WindowConfig(error_window, error_stride),
        architecture=architecture,
        hidden=hidden,
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
