"""Tests for whole-monitor snapshots (worker bootstrap archives)."""

import io
import json

import numpy as np
import pytest

from repro.config import WindowConfig
from repro.errors import ConfigurationError, NotFittedError
from repro.gestures.vocabulary import Gesture
from repro.serving import (
    make_random_walk_trajectory,
    make_synthetic_monitor,
    monitor_from_bytes,
    monitor_to_bytes,
    snapshot_backend,
)

N_FEATURES = 10


def rewrite_meta(blob, edit):
    """``blob`` with its ``__meta__`` JSON passed through ``edit``."""
    with np.load(io.BytesIO(blob)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    edit(meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_process_parity(self, seed):
        """A restored monitor is bit-identical at inference time."""
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=seed)
        restored = monitor_from_bytes(monitor_to_bytes(monitor))
        trajectory = make_random_walk_trajectory(
            90, n_features=N_FEATURES, seed=seed + 10
        )
        a = monitor.process(trajectory)
        b = restored.process(trajectory)
        assert np.array_equal(a.gestures, b.gestures)
        assert np.array_equal(a.unsafe_scores, b.unsafe_scores)
        assert np.array_equal(a.unsafe_flags, b.unsafe_flags)

    def test_stream_parity(self):
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=2)
        restored = monitor_from_bytes(monitor_to_bytes(monitor))
        trajectory = make_random_walk_trajectory(
            60, n_features=N_FEATURES, seed=3
        )
        for original, copy in zip(
            monitor.stream(trajectory), restored.stream(trajectory)
        ):
            assert original[:3] == copy[:3]  # frame, gesture, score

    def test_configuration_survives(self):
        monitor = make_synthetic_monitor(
            n_features=N_FEATURES,
            seed=0,
            gesture_window=WindowConfig(4, 1),
            error_window=WindowConfig(7, 2),
            missing_gestures=(2, 9),
            threshold=0.25,
        )
        restored = monitor_from_bytes(monitor_to_bytes(monitor))
        assert restored.threshold == 0.25
        assert restored.config.error_window == WindowConfig(7, 2)
        assert restored.gesture_classifier.config.window == WindowConfig(4, 1)
        assert Gesture.G2 in restored.library.constant_gestures
        assert not restored.library.has_classifier(Gesture.G2)
        assert sorted(map(int, restored.library.classifiers)) == sorted(
            map(int, monitor.library.classifiers)
        )
        for gesture, clf in monitor.library.classifiers.items():
            assert restored.library.classifiers[gesture].threshold == clf.threshold

    def test_snapshot_is_deterministic(self):
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=4)
        assert monitor_to_bytes(monitor) == monitor_to_bytes(monitor)


class TestBackendChoice:
    def test_backend_round_trips(self):
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0)
        blob = monitor_to_bytes(monitor, backend="compiled-f32")
        assert snapshot_backend(blob) == "compiled-f32"
        # The embedded choice does not disturb the model payload.
        restored = monitor_from_bytes(blob)
        trajectory = make_random_walk_trajectory(40, n_features=N_FEATURES, seed=1)
        a, b = monitor.process(trajectory), restored.process(trajectory)
        assert np.array_equal(a.unsafe_scores, b.unsafe_scores)

    @pytest.mark.parametrize("backend", ["compiled", "compiled-f32"])
    def test_compiled_backend_service_round_trip(self, backend):
        """A restored monitor drives a CompiledBackend service (float32
        included) identically to the original: the snapshot carries
        everything the compile step folds (weights, scalers, windows),
        so serving bit-equality survives serialisation."""
        from repro.serving import MonitorService

        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=5)
        blob = monitor_to_bytes(monitor, backend=backend)
        assert snapshot_backend(blob) == backend
        restored = monitor_from_bytes(blob)
        trajectory = make_random_walk_trajectory(
            50, n_features=N_FEATURES, seed=6
        )
        events = {}
        for key, source in (("original", monitor), ("restored", restored)):
            service = MonitorService(source, max_sessions=2, backend=backend)
            service.open_session("s")
            service.feed("s", trajectory.frames)
            events[key] = service.drain()
        assert [
            (e.frame_index, e.gesture, e.score, e.flag)
            for e in events["original"]
        ] == [
            (e.frame_index, e.gesture, e.score, e.flag)
            for e in events["restored"]
        ]

    def test_backend_defaults_to_none(self):
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0)
        assert snapshot_backend(monitor_to_bytes(monitor)) is None

    def test_unknown_backend_rejected_at_serialisation(self):
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0)
        with pytest.raises(ConfigurationError, match="unknown inference backend"):
            monitor_to_bytes(monitor, backend="turbo")


class TestValidation:
    def test_untrained_monitor_rejected(self):
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0)
        monitor.gesture_classifier.model = None
        with pytest.raises(NotFittedError):
            monitor_to_bytes(monitor)

    def test_unknown_version_rejected(self):
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0)
        blob = rewrite_meta(monitor_to_bytes(monitor), lambda m: m.update(version=999))
        with pytest.raises(ConfigurationError):
            monitor_from_bytes(blob)

    def test_an_archive_with_the_retired_gesture_window_loads(self):
        """Archives written while ``MonitorConfig`` carried a
        ``gesture_window`` still load, and serve the classifier's own
        window: the key was never read, so it is ignored even where it
        disagrees with that window."""
        monitor = make_synthetic_monitor(
            n_features=N_FEATURES, seed=0, gesture_window=WindowConfig(4, 1)
        )
        blob = monitor_to_bytes(monitor)
        older = rewrite_meta(
            blob, lambda m: m["monitor_config"].update(gesture_window=[9, 3])
        )
        assert b"gesture_window" not in blob
        restored = monitor_from_bytes(older)
        assert restored.config == monitor.config
        assert restored.gesture_classifier.config.window == WindowConfig(4, 1)
        trajectory = make_random_walk_trajectory(60, n_features=N_FEATURES, seed=5)
        original, copy = monitor.process(trajectory), restored.process(trajectory)
        assert np.array_equal(copy.gestures, original.gestures)
        assert np.array_equal(copy.unsafe_scores, original.unsafe_scores)

    def test_an_archive_with_the_retired_vote_threshold_loads(self):
        """Archives written while ``MonitorConfig`` carried an
        ``unsafe_vote_threshold`` still load, and score the same: the
        key was never read."""
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0)
        blob = monitor_to_bytes(monitor)
        older = rewrite_meta(
            blob, lambda m: m["monitor_config"].update(unsafe_vote_threshold=0.0)
        )
        assert b"unsafe_vote_threshold" not in blob
        restored = monitor_from_bytes(older)
        assert restored.config == monitor.config
        trajectory = make_random_walk_trajectory(60, n_features=N_FEATURES, seed=5)
        assert np.array_equal(
            restored.process(trajectory).unsafe_scores,
            monitor.process(trajectory).unsafe_scores,
        )
