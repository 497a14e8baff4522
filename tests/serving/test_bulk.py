"""Unit tests for the bulk offline scoring engine (repro.serving.bulk)."""

import tracemalloc

import numpy as np
import pytest

from repro.config import WindowConfig
from repro.errors import ConfigurationError, NotFittedError
from repro.serving import (
    BulkScorer,
    make_random_walk_trajectory,
    make_synthetic_monitor,
    score_procedure,
    score_procedures,
)


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=10, seed=7)


@pytest.fixture(scope="module")
def trajectory():
    return make_random_walk_trajectory(200, n_features=10, seed=3)


class TestBulkScorerParity:
    def test_reference_bit_identical_to_process(self, monitor, trajectory):
        looped = monitor.process(trajectory)
        bulk = BulkScorer(monitor).score(trajectory)
        np.testing.assert_array_equal(bulk.gestures, looped.gestures)
        np.testing.assert_array_equal(bulk.unsafe_scores, looped.unsafe_scores)
        np.testing.assert_array_equal(bulk.unsafe_flags, looped.unsafe_flags)

    def test_true_gesture_mode(self, monitor, trajectory):
        looped = monitor.process(trajectory, use_true_gestures=True)
        bulk = BulkScorer(monitor).score(trajectory, use_true_gestures=True)
        np.testing.assert_array_equal(bulk.gestures, looped.gestures)
        np.testing.assert_array_equal(bulk.unsafe_scores, looped.unsafe_scores)
        assert bulk.metadata["use_true_gestures"] is True

    def test_true_gesture_mode_needs_labels(self, monitor, trajectory):
        stripped = make_random_walk_trajectory(50, n_features=10, seed=1)
        stripped.gestures = None
        with pytest.raises(NotFittedError):
            BulkScorer(monitor).score(stripped, use_true_gestures=True)

    def test_compiled_backends_match_within_contract(self, monitor, trajectory):
        looped = monitor.process(trajectory)
        for backend, atol in (("compiled", 1e-6), ("compiled-f32", 1e-3)):
            bulk = BulkScorer(monitor, backend=backend).score(trajectory)
            np.testing.assert_array_equal(bulk.gestures, looped.gestures)
            np.testing.assert_allclose(
                bulk.unsafe_scores, looped.unsafe_scores, atol=atol
            )

    def test_shorter_than_one_window(self, monitor):
        short = make_random_walk_trajectory(3, n_features=10, seed=2)
        looped = monitor.process(short)
        bulk = BulkScorer(monitor).score(short)
        np.testing.assert_array_equal(bulk.gestures, looped.gestures)
        np.testing.assert_array_equal(bulk.unsafe_scores, looped.unsafe_scores)
        assert bulk.metadata["n_windows"] == 0

    def test_strided_error_windows(self):
        monitor = make_synthetic_monitor(
            n_features=6, seed=1, error_window=WindowConfig(6, 3)
        )
        trajectory = make_random_walk_trajectory(91, n_features=6, seed=5)
        looped = monitor.process(trajectory)
        bulk = BulkScorer(monitor).score(trajectory)
        np.testing.assert_array_equal(bulk.unsafe_scores, looped.unsafe_scores)
        np.testing.assert_array_equal(bulk.unsafe_flags, looped.unsafe_flags)

    def test_unknown_backend_rejected(self, monitor):
        with pytest.raises(ConfigurationError):
            BulkScorer(monitor, backend="jit")


class TestBulkScorerOutputContract:
    def test_metadata_fields(self, monitor, trajectory):
        out = BulkScorer(monitor, backend="compiled").score(trajectory)
        assert out.metadata["engine"] == "bulk"
        assert out.metadata["backend"] == "compiled"
        assert out.metadata["n_windows"] == monitor.config.error_window.n_windows(
            trajectory.n_frames
        )
        assert out.metadata["wall_ms"] > 0
        assert out.metadata["bulk_fps"] == pytest.approx(
            trajectory.n_frames / (out.metadata["wall_ms"] / 1000.0)
        )

    def test_amortised_stage_latencies(self, monitor, trajectory):
        out = BulkScorer(monitor).score(trajectory)
        assert out.gesture_ms > 0
        assert out.error_ms > 0
        assert out.compute_ms == out.gesture_ms + out.error_ms

    def test_true_gesture_mode_has_no_gesture_latency(self, monitor, trajectory):
        out = BulkScorer(monitor).score(trajectory, use_true_gestures=True)
        assert out.gesture_ms == 0.0

    def test_score_many_reuses_backends(self, monitor):
        scorer = BulkScorer(monitor, backend="compiled")
        trajectories = [
            make_random_walk_trajectory(60, n_features=10, seed=s) for s in range(3)
        ]
        outs = scorer.score_many(trajectories)
        assert len(outs) == 3
        gesture_backend = scorer._gesture_backend
        scorer.score(trajectories[0])
        assert scorer._gesture_backend is gesture_backend  # cached, not rebuilt

    def test_backend_cache_invalidated_on_rebind(self, trajectory):
        local = make_synthetic_monitor(n_features=10, seed=7)
        scorer = BulkScorer(local)
        scorer.score(trajectory)
        before = scorer._gesture_backend[1]
        # fit() rebinds .model — simulate the retrain signal.
        fresh = make_synthetic_monitor(n_features=10, seed=8)
        local.gesture_classifier.model = fresh.gesture_classifier.model
        scorer.score(trajectory)
        assert scorer._gesture_backend[1] is not before


class TestBoundedMemory:
    """The reference scorer's working set does not grow with the batch:
    the gesture stage runs over chunks of windows, time-major, with no
    ``(windows, time, units)`` sequence alive — where a whole 512-window
    batch at once peaked at about 85 MB on a 516-frame procedure."""

    #: Ceiling on the traced peak of one paper-scale ``score`` call.
    CEILING_BYTES = 16 * 2**20

    def test_paper_scale_peak_is_small_and_flat(self):
        monitor = make_synthetic_monitor(
            n_features=38, seed=0, gesture_lstm_units=(512, 96), gesture_dense_units=64
        )
        scorer = BulkScorer(monitor, backend="reference")
        peaks = []
        for n_frames in (516, 2 * 516):
            trajectory = make_random_walk_trajectory(n_frames, n_features=38, seed=n_frames)
            scorer.score(trajectory)  # plans built, outside the measurement
            tracemalloc.start()
            try:
                scorer.score(trajectory)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        short, long = peaks
        assert short < self.CEILING_BYTES, short
        # Twice the frames: only the per-frame outputs grow (a few
        # hundred bytes a frame), never the working set.
        assert long < 1.1 * short, peaks


class TestConveniences:
    def test_score_procedure(self, monitor, trajectory):
        out = score_procedure(monitor, trajectory)
        looped = monitor.process(trajectory)
        np.testing.assert_array_equal(out.unsafe_scores, looped.unsafe_scores)

    def test_score_procedures(self, monitor):
        trajectories = [
            make_random_walk_trajectory(50, n_features=10, seed=s) for s in range(2)
        ]
        outs = score_procedures(monitor, trajectories, backend="compiled")
        assert len(outs) == 2
        for trajectory, out in zip(trajectories, outs):
            assert len(out.unsafe_scores) == trajectory.n_frames
