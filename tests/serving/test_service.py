"""Tests for the multi-stream serving engine (repro.serving)."""

import numpy as np
import pytest

from repro.config import WindowConfig
from repro.errors import ConfigurationError, DatasetError, ShapeError
from repro.serving import (
    MonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)

N_FEATURES = 10


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=N_FEATURES, seed=0)


def stream_reference(monitor, trajectory):
    """Collect (gestures, scores) from an isolated stream() run."""
    gestures, scores = [], []
    for _, gesture, score, _ in monitor.stream(trajectory):
        gestures.append(gesture)
        scores.append(score)
    return np.asarray(gestures), np.asarray(scores)


class TestSessionLifecycle:
    def test_open_feed_tick_close(self, monitor):
        service = MonitorService(monitor, max_sessions=2)
        session_id = service.open_session()
        trajectory = make_random_walk_trajectory(30, n_features=N_FEATURES, seed=1)
        service.feed(session_id, trajectory.frames)
        assert service.pending_frames(session_id) == 30
        events = service.drain()
        assert len(events) == 30
        assert [e.frame_index for e in events] == list(range(30))
        result = service.close_session(session_id)
        assert result.n_frames == 30
        assert result.unsafe_scores.shape == (30,)
        assert set(np.unique(result.unsafe_flags)) <= {0, 1}
        assert service.n_open_sessions == 0

    def test_session_ids_unique_and_custom(self, monitor):
        service = MonitorService(monitor, max_sessions=3)
        a = service.open_session()
        b = service.open_session("theatre-7")
        c = service.open_session()
        assert len({a, b, c}) == 3
        with pytest.raises(ConfigurationError):
            service.open_session("theatre-7")

    def test_auto_ids_skip_explicitly_taken_names(self, monitor):
        service = MonitorService(monitor, max_sessions=3)
        taken = service.open_session("session-0001")
        a = service.open_session()  # session-0000
        b = service.open_session()  # must skip over session-0001
        assert len({taken, a, b}) == 3

    def test_slot_exhaustion(self, monitor):
        service = MonitorService(monitor, max_sessions=1)
        service.open_session()
        with pytest.raises(ConfigurationError):
            service.open_session()

    def test_unknown_session_errors(self, monitor):
        service = MonitorService(monitor, max_sessions=1)
        with pytest.raises(DatasetError):
            service.feed("ghost", np.zeros((3, N_FEATURES)))
        with pytest.raises(DatasetError):
            service.close_session("ghost")

    def test_feature_width_is_bound_on_first_feed(self, monitor):
        service = MonitorService(monitor, max_sessions=2)
        a = service.open_session()
        service.feed(a, np.zeros((2, N_FEATURES)))
        with pytest.raises(ShapeError):
            service.feed(a, np.zeros((2, N_FEATURES + 1)))

    def test_first_feed_validated_against_trained_width(self, monitor):
        """A wrong-width first feed fails immediately, naming the
        monitor's trained width — it must not bind the service to it."""
        service = MonitorService(monitor, max_sessions=1)
        session_id = service.open_session()
        with pytest.raises(ShapeError, match=f"trained for {N_FEATURES}"):
            service.feed(session_id, np.zeros((2, N_FEATURES - 1)))
        # The service is still usable at the correct width.
        service.feed(session_id, np.zeros((2, N_FEATURES)))
        assert service.pending_frames(session_id) == 2

    def test_tick_with_no_pending_is_noop(self, monitor):
        service = MonitorService(monitor, max_sessions=1)
        assert service.tick() == []
        service.open_session()
        assert service.tick() == []
        assert service.stats.n_ticks == 0

    def test_single_frame_feed(self, monitor):
        service = MonitorService(monitor, max_sessions=1)
        session_id = service.open_session()
        service.feed(session_id, np.zeros(N_FEATURES))  # 1-D frame
        events = service.tick()
        assert len(events) == 1
        assert events[0].frame_index == 0


class TestNonFiniteFrames:
    """Hostile input fails safe: a NaN/Inf feature must never turn into
    `window` frames of silent ``score=nan flag=False`` verdicts."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_with_typed_error_and_state_untouched(self, monitor, bad):
        trajectory = make_random_walk_trajectory(
            40, n_features=N_FEATURES, seed=7
        )
        clean = MonitorService(monitor, max_sessions=1)
        clean.open_session("s")
        clean.feed("s", trajectory.frames)
        reference = clean.drain()

        service = MonitorService(monitor, max_sessions=1)
        service.open_session("s")
        service.feed("s", trajectory.frames[:8])
        events = service.drain()
        poisoned = trajectory.frames[8:12].copy()
        poisoned[1, 3] = bad
        with pytest.raises(DatasetError, match="non-finite"):
            service.feed("s", poisoned)
        with pytest.raises(DatasetError, match="non-finite"):
            service.feed("s", poisoned[1])  # single 1-D frame
        assert service.pending_frames("s") == 0
        # The rejected batch left no trace: the clean frames that follow
        # reproduce the uninterrupted stream bit for bit.
        service.feed("s", trajectory.frames[8:])
        events += service.drain()
        assert events == reference
        assert all(np.isfinite(e.score) for e in events)


class TestBatchedParity:
    def test_one_session_matches_stream_bit_for_bit(self, monitor):
        trajectory = make_random_walk_trajectory(90, n_features=N_FEATURES, seed=2)
        service = MonitorService(monitor, max_sessions=1)
        session_id = service.open_session()
        service.feed(session_id, trajectory.frames)
        service.drain(collect=False)
        result = service.close_session(session_id)
        ref_gestures, ref_scores = stream_reference(monitor, trajectory)
        assert np.array_equal(result.gestures, ref_gestures)
        assert np.array_equal(result.unsafe_scores, ref_scores)

    def test_n_sessions_reproduce_independent_streams_bit_for_bit(self, monitor):
        """The core serving guarantee: batching windows across N live
        sessions changes throughput, never results."""
        trajectories = [
            make_random_walk_trajectory(60 + 9 * i, n_features=N_FEATURES, seed=10 + i)
            for i in range(6)
        ]
        service = MonitorService(monitor, max_sessions=6)
        ids = []
        for trajectory in trajectories:
            session_id = service.open_session()
            # Feed in two chunks to exercise chunked pending queues.
            half = trajectory.n_frames // 2
            service.feed(session_id, trajectory.frames[:half])
            service.feed(session_id, trajectory.frames[half:])
            ids.append(session_id)
        service.drain(collect=False)
        for session_id, trajectory in zip(ids, trajectories):
            result = service.close_session(session_id)
            ref_gestures, ref_scores = stream_reference(monitor, trajectory)
            assert np.array_equal(result.gestures, ref_gestures)
            assert np.array_equal(result.unsafe_scores, ref_scores)

    def test_staggered_joins_match_streams(self, monitor):
        """Sessions opened mid-flight see exactly their own frames."""
        early = make_random_walk_trajectory(50, n_features=N_FEATURES, seed=20)
        late = make_random_walk_trajectory(40, n_features=N_FEATURES, seed=21)
        service = MonitorService(monitor, max_sessions=2)
        a = service.open_session()
        service.feed(a, early.frames)
        for _ in range(25):
            service.tick()
        b = service.open_session()
        service.feed(b, late.frames)
        service.drain(collect=False)
        result_a = service.close_session(a)
        result_b = service.close_session(b)
        for result, trajectory in ((result_a, early), (result_b, late)):
            ref_gestures, ref_scores = stream_reference(monitor, trajectory)
            assert np.array_equal(result.gestures, ref_gestures)
            assert np.array_equal(result.unsafe_scores, ref_scores)

    def test_slot_reuse_resets_state(self, monitor):
        trajectory = make_random_walk_trajectory(35, n_features=N_FEATURES, seed=30)
        service = MonitorService(monitor, max_sessions=1)
        first = service.open_session()
        service.feed(
            first, make_random_walk_trajectory(23, n_features=N_FEATURES, seed=31).frames
        )
        service.drain(collect=False)
        service.close_session(first)
        second = service.open_session()
        service.feed(second, trajectory.frames)
        service.drain(collect=False)
        result = service.close_session(second)
        ref_gestures, ref_scores = stream_reference(monitor, trajectory)
        assert np.array_equal(result.gestures, ref_gestures)
        assert np.array_equal(result.unsafe_scores, ref_scores)


class TestWarmupAndStats:
    def test_short_session_stays_safe(self, monitor):
        """Fewer frames than one window: no context, no scores, no flags."""
        service = MonitorService(monitor, max_sessions=1)
        session_id = service.open_session()
        service.feed(session_id, np.zeros((3, N_FEATURES)))  # window is 5
        events = service.drain()
        assert all(e.gesture == 0 and e.score == 0.0 and not e.flag for e in events)
        result = service.close_session(session_id)
        assert not result.unsafe_flags.any()

    def test_stats_account_for_every_frame(self, monitor):
        service = MonitorService(monitor, max_sessions=3)
        for i in range(3):
            session_id = service.open_session()
            service.feed(
                session_id,
                make_random_walk_trajectory(
                    10 + i, n_features=N_FEATURES, seed=40 + i
                ).frames,
            )
        service.drain(collect=False)
        assert service.stats.frames_processed == 10 + 11 + 12
        assert service.stats.n_ticks == 12  # longest session drives tick count
        assert service.stats.percentile_ms(99) >= service.stats.percentile_ms(50) >= 0.0

    def test_record_timeline_opt_out(self, monitor):
        """Event-stream-only sessions skip timeline accumulation."""
        trajectory = make_random_walk_trajectory(20, n_features=N_FEATURES, seed=60)
        service = MonitorService(monitor, max_sessions=1)
        session_id = service.open_session(record_timeline=False)
        service.feed(session_id, trajectory.frames)
        events = service.drain()
        assert len(events) == 20  # the event stream is unaffected
        result = service.close_session(session_id)
        assert result.n_frames == 0
        assert result.unsafe_scores.size == 0

    def test_tick_history_is_bounded_but_totals_keep_counting(self):
        from repro.serving import ServiceStats

        stats = ServiceStats(capacity=4)
        for i in range(10):
            stats.record(float(i), 2)
        assert stats.n_ticks == 10
        assert stats.frames_processed == 20
        # The ring keeps the most recent window, chronologically ordered.
        assert stats.tick_ms.tolist() == [6.0, 7.0, 8.0, 9.0]
        assert stats.percentile_ms(50) == 7.5
        assert stats.mean_ms() == 7.5

    def test_stats_pickle_ships_samples_not_the_ring(self):
        """Stats cross the worker pipe; the payload must scale with the
        recorded samples, not the 65536-slot preallocated ring."""
        import pickle

        from repro.serving import ServiceStats

        stats = ServiceStats()
        for i in range(5):
            stats.record(float(i), 1)
        payload = pickle.dumps(stats)
        assert len(payload) < 4096  # full ring would be ~512 KB
        restored = pickle.loads(payload)
        assert restored.capacity == stats.capacity
        assert restored.n_ticks == 5
        assert restored.frames_processed == 5
        assert restored.tick_ms.tolist() == stats.tick_ms.tolist()
        assert restored.percentile_ms(50) == stats.percentile_ms(50)
        restored.record(99.0, 1)  # ring is functional after restore
        assert restored.tick_ms.tolist()[-1] == 99.0

    def test_stats_merge_preserves_recent_window(self):
        """extend_ms folds another window in without touching counters —
        the sharded stats() aggregation path."""
        from repro.serving import ServiceStats

        stats = ServiceStats(capacity=4)
        stats.record(1.0, 1)
        stats.extend_ms([2.0, 3.0])
        assert stats.tick_ms.tolist() == [1.0, 2.0, 3.0]
        assert stats.n_ticks == 1  # counters are record()'s job
        stats.extend_ms(np.arange(10.0))  # overflow keeps the tail
        assert stats.tick_ms.tolist() == [6.0, 7.0, 8.0, 9.0]
        # Wrap-around split write.
        stats.extend_ms([20.0, 21.0, 22.0])
        assert stats.tick_ms.tolist() == [9.0, 20.0, 21.0, 22.0]

    def test_events_match_timeline(self, monitor):
        trajectory = make_random_walk_trajectory(25, n_features=N_FEATURES, seed=50)
        service = MonitorService(monitor, max_sessions=1)
        session_id = service.open_session()
        service.feed(session_id, trajectory.frames)
        events = service.drain()
        result = service.close_session(session_id)
        assert [e.gesture for e in events] == result.gestures.tolist()
        assert [e.score for e in events] == result.unsafe_scores.tolist()
        assert [int(e.flag) for e in events] == result.unsafe_flags.tolist()


class TestBackendSelection:
    """The serving parity matrix under the compiled backends.

    The reference backend carries the existing bit-exact contract (every
    other test in this file runs it); the compiled plans must agree with
    it within atol=1e-6 on scores with identical gesture streams, across
    multi-session fleets, staggered joins and chunked feeds.
    """

    def _fleet_results(self, monitor, trajectories, backend):
        service = MonitorService(
            monitor, max_sessions=len(trajectories), backend=backend
        )
        ids = []
        for trajectory in trajectories:
            session_id = service.open_session()
            half = trajectory.n_frames // 2
            service.feed(session_id, trajectory.frames[:half])
            service.feed(session_id, trajectory.frames[half:])
            ids.append(session_id)
        service.drain(collect=False)
        return [service.close_session(session_id) for session_id in ids]

    @pytest.mark.parametrize("backend", ["compiled", "compiled-f32"])
    def test_fleet_matches_reference_within_tolerance(self, monitor, backend):
        trajectories = [
            make_random_walk_trajectory(50 + 7 * i, n_features=N_FEATURES, seed=70 + i)
            for i in range(5)
        ]
        reference = self._fleet_results(monitor, trajectories, "reference")
        compiled = self._fleet_results(monitor, trajectories, backend)
        atol = 1e-6 if backend == "compiled" else 5e-4
        for ref, comp in zip(reference, compiled):
            assert np.array_equal(ref.gestures, comp.gestures)
            np.testing.assert_allclose(
                comp.unsafe_scores, ref.unsafe_scores, atol=atol
            )

    def test_stream_backend_selection(self, monitor):
        trajectory = make_random_walk_trajectory(40, n_features=N_FEATURES, seed=77)
        reference = list(monitor.stream(trajectory))
        compiled = list(monitor.stream(trajectory, backend="compiled"))
        assert [e[1] for e in reference] == [e[1] for e in compiled]
        np.testing.assert_allclose(
            [e[2] for e in compiled], [e[2] for e in reference], atol=1e-6
        )

    def test_unknown_backend_rejected(self, monitor):
        with pytest.raises(ConfigurationError, match="unknown inference backend"):
            MonitorService(monitor, max_sessions=1, backend="turbo")

    def test_retrained_models_are_picked_up(self):
        """fit() rebinds .model to a new object; the service must serve
        the new weights on the next tick, never a stale backend — the
        pre-backend engine looked the model up every tick."""
        monitor_a = make_synthetic_monitor(n_features=N_FEATURES, seed=7)
        monitor_b = make_synthetic_monitor(n_features=N_FEATURES, seed=8)
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=7)
        service = MonitorService(monitor, max_sessions=1)
        trajectory = make_random_walk_trajectory(40, n_features=N_FEATURES, seed=9)

        def run_session():
            session_id = service.open_session()
            service.feed(session_id, trajectory.frames)
            service.drain(collect=False)
            return service.close_session(session_id)

        first = run_session()
        # "Retrain" both stages: swap in differently-seeded models (and
        # their scalers, as fit() refits those in place).
        monitor.gesture_classifier.model = monitor_b.gesture_classifier.model
        monitor.gesture_classifier.scaler = monitor_b.gesture_classifier.scaler
        monitor.library.classifiers = monitor_b.library.classifiers
        second = run_session()
        ref_a = stream_reference(monitor_a, trajectory)
        ref_b = stream_reference(monitor_b, trajectory)
        assert np.array_equal(first.gestures, ref_a[0])
        assert np.array_equal(first.unsafe_scores, ref_a[1])
        assert np.array_equal(second.gestures, ref_b[0])
        assert np.array_equal(second.unsafe_scores, ref_b[1])

    def test_models_trained_after_construction_are_served(self):
        """A service created before the monitor's stages were trained
        must pick the models up on their first tick — never silently
        stream all-safe events for a now-trained monitor."""
        trained = make_synthetic_monitor(n_features=N_FEATURES, seed=5)
        untrained = make_synthetic_monitor(n_features=N_FEATURES, seed=5)
        untrained.gesture_classifier.model = None
        untrained.library.classifiers = {}
        service = MonitorService(untrained, max_sessions=1)
        # Stages arrive after construction (e.g. trained in place).
        untrained.gesture_classifier.model = trained.gesture_classifier.model
        untrained.library.classifiers = trained.library.classifiers
        trajectory = make_random_walk_trajectory(40, n_features=N_FEATURES, seed=6)
        session_id = service.open_session()
        service.feed(session_id, trajectory.frames)
        service.drain(collect=False)
        result = service.close_session(session_id)
        ref_gestures, ref_scores = stream_reference(trained, trajectory)
        assert np.array_equal(result.gestures, ref_gestures)
        assert np.array_equal(result.unsafe_scores, ref_scores)

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_gesture_feature_subset_path(self, backend):
        """A gesture stage configured with feature_indices sees exactly
        the selected columns (the preallocated np.take scratch path),
        under both backends."""
        from repro import nn
        from repro.kinematics.windows import sliding_windows

        idx = np.array([1, 4, 8])
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=3)
        classifier = monitor.gesture_classifier
        classifier.config.feature_indices = idx
        classifier.model = classifier._build_model()
        window = classifier.config.window
        classifier.model.build((window.window, idx.size))
        rng = np.random.default_rng(99)
        classifier.scaler = nn.StandardScaler()
        classifier.scaler.fit(
            rng.standard_normal((64, window.window, idx.size))
        )

        trajectory = make_random_walk_trajectory(
            40, n_features=N_FEATURES, seed=4
        )
        service = MonitorService(monitor, max_sessions=1, backend=backend)
        session_id = service.open_session()
        service.feed(session_id, trajectory.frames)
        events = service.drain()

        windows, ends = sliding_windows(trajectory.frames[:, idx], window)
        expected = (
            classifier.model.predict(classifier.scaler.transform(windows)) + 1
        )
        got = [e.gesture for e in events]
        assert got[: window.window - 1] == [0] * (window.window - 1)
        assert got[window.window - 1 :] == expected.tolist()

    def test_compiled_tick_reuses_backend_scratch(self, monitor):
        """Steady-state ticks drive every model forward through the same
        preallocated plan buffers — the no-per-tick-allocation contract
        at the service level."""
        service = MonitorService(monitor, max_sessions=4, backend="compiled")
        for i in range(4):
            session_id = service.open_session()
            service.feed(
                session_id,
                make_random_walk_trajectory(
                    30, n_features=N_FEATURES, seed=90 + i
                ).frames,
            )
        for _ in range(10):  # warm up past both stages' windows
            service.tick()
        backends = [
            service._gesture_backend[1],
            *(backend for _, backend in service._error_library._members.values()),
        ]
        pointers = {
            id(b): [buf.__array_interface__["data"][0] for buf in b.scratch_arrays()]
            for b in backends
        }
        service.drain(collect=False)
        for b in backends:
            assert [
                buf.__array_interface__["data"][0] for buf in b.scratch_arrays()
            ] == pointers[id(b)]


class TestSyntheticMonitor:
    def test_deterministic_across_builds(self):
        a = make_synthetic_monitor(n_features=6, seed=7)
        b = make_synthetic_monitor(n_features=6, seed=7)
        trajectory = make_random_walk_trajectory(40, n_features=6, seed=8)
        out_a = a.process(trajectory)
        out_b = b.process(trajectory)
        assert np.array_equal(out_a.gestures, out_b.gestures)
        assert np.array_equal(out_a.unsafe_scores, out_b.unsafe_scores)

    def test_missing_gestures_have_no_classifier(self):
        monitor = make_synthetic_monitor(
            n_features=6, seed=0, missing_gestures=(2, 9)
        )
        from repro.gestures.vocabulary import Gesture

        assert not monitor.library.has_classifier(Gesture.G2)
        assert not monitor.library.has_classifier(Gesture.G9)
        assert monitor.library.has_classifier(Gesture.G1)

    def test_custom_windows(self):
        monitor = make_synthetic_monitor(
            n_features=6,
            seed=0,
            gesture_window=WindowConfig(4, 1),
            error_window=WindowConfig(8, 2),
        )
        trajectory = make_random_walk_trajectory(40, n_features=6, seed=1)
        events = list(monitor.stream(trajectory))
        assert len(events) == 40
        # Error scores first appear at the first 8-frame window boundary.
        assert all(score == 0.0 for _, _, score, _ in events[:7])
