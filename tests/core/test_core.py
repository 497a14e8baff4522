"""Tests for the safety-monitoring core (classifiers, pipeline, timing)."""

import numpy as np
import pytest

from repro.config import MonitorConfig, WindowConfig
from repro.core import SafetyMonitor, evaluate_timing
from repro.core.divergence import js_divergence_matrix
from repro.core.error_classifiers import ErrorClassifier
from repro.errors import DatasetError, NotFittedError
from repro.gestures.vocabulary import Gesture


class TestGestureClassifier:
    def test_learns_gestures(self, tiny_gesture_classifier, suturing_split):
        __, test = suturing_split
        acc = tiny_gesture_classifier.accuracy(test)
        assert acc > 0.6  # tiny model, few epochs — well above 1/15 chance

    def test_predict_frames_full_coverage(self, tiny_gesture_classifier, suturing_split):
        __, test = suturing_split
        traj = test.demonstrations[0].trajectory
        gestures, latency = tiny_gesture_classifier.predict_frames(traj)
        assert gestures.shape == (traj.n_frames,)
        assert gestures.min() >= 1 and gestures.max() <= 15
        assert latency >= 0.0

    def test_requires_fit(self, suturing_split):
        from repro.core.gesture_classifier import GestureClassifier

        __, test = suturing_split
        with pytest.raises(NotFittedError):
            GestureClassifier().predict_frames(test.demonstrations[0].trajectory)


class TestErrorClassifier:
    def test_learns_separable_errors(self, rng):
        x = rng.standard_normal((400, 5, 6))
        y = (x[:, :, 2].mean(axis=1) > 0).astype(int)
        clf = ErrorClassifier(Gesture.G4, seed=0)
        clf.fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.9

    def test_rejects_single_class(self, rng):
        x = rng.standard_normal((50, 5, 6))
        with pytest.raises(DatasetError):
            ErrorClassifier(Gesture.G4).fit(x, np.zeros(50))

    def test_library_contents(self, tiny_library):
        trained = tiny_library.gestures()
        # The frequent erroneous gestures must have classifiers.
        assert Gesture.G3 in trained
        assert Gesture.G4 in trained
        assert Gesture.G6 in trained
        # G10 has no rubric errors -> constant classifier.
        assert not tiny_library.has_classifier(Gesture.G10)

    def test_library_unknown_gesture_safe(self, tiny_library, rng):
        probs = tiny_library.predict_proba(Gesture.G15, rng.standard_normal((3, 5, 38)))
        assert np.allclose(probs, 0.0)


class TestBaselineMonitor:
    def test_predicts_probabilities(self, tiny_baseline, suturing_split):
        __, test = suturing_split
        data = test.windows(WindowConfig(5, 1))
        probs = tiny_baseline.predict_proba(data.x[:100])
        assert probs.shape == (100,)
        assert np.all((0 <= probs) & (probs <= 1))

    def test_detects_better_than_chance(self, tiny_baseline, suturing_split):
        from repro.eval import auc_score

        __, test = suturing_split
        data = test.windows(WindowConfig(5, 1))
        probs = tiny_baseline.predict_proba(data.x)
        assert auc_score(data.unsafe, probs) > 0.55


class TestSafetyMonitor:
    @pytest.fixture()
    def monitor(self, tiny_gesture_classifier, tiny_library):
        return SafetyMonitor(
            tiny_gesture_classifier,
            tiny_library,
            MonitorConfig(error_window=WindowConfig(5, 1)),
        )

    def test_process_output_shapes(self, monitor, suturing_split):
        __, test = suturing_split
        traj = test.demonstrations[0].trajectory
        out = monitor.process(traj)
        assert out.gestures.shape == (traj.n_frames,)
        assert out.unsafe_scores.shape == (traj.n_frames,)
        assert set(np.unique(out.unsafe_flags)) <= {0, 1}
        assert out.compute_ms >= 0.0

    def test_perfect_boundaries_uses_truth(self, monitor, suturing_split):
        __, test = suturing_split
        traj = test.demonstrations[0].trajectory
        out = monitor.process(traj, use_true_gestures=True)
        assert np.array_equal(out.gestures, traj.gestures)
        assert out.gesture_ms == 0.0

    def test_detects_something_on_erroneous_demo(self, monitor, suturing_split):
        __, test = suturing_split
        for demo in test.demonstrations:
            if demo.trajectory.unsafe.any():
                out = monitor.process(demo.trajectory, use_true_gestures=True)
                assert out.unsafe_flags.any()
                return
        pytest.skip("no erroneous demo in the split")

    def test_streaming_matches_online_contract(self, monitor, suturing_split):
        __, test = suturing_split
        traj = test.demonstrations[0].trajectory.slice(0, 60)
        events = list(monitor.stream(traj))
        assert len(events) == traj.n_frames
        frames = [t for t, *_ in events]
        assert frames == list(range(traj.n_frames))
        # After warm-up, the stream emits real gestures and scores.
        __, gesture, score, latency = events[-1]
        assert 1 <= gesture <= 15
        assert 0.0 <= score <= 1.0
        assert latency >= 0.0


class TestTimingEvaluation:
    def test_report_aggregates(self, tiny_gesture_classifier, tiny_library, suturing_split):
        __, test = suturing_split
        monitor = SafetyMonitor(
            tiny_gesture_classifier,
            tiny_library,
            MonitorConfig(error_window=WindowConfig(5, 1)),
        )
        pairs = [
            (d.trajectory, monitor.process(d.trajectory, use_true_gestures=True))
            for d in test.demonstrations[:3]
        ]
        report = evaluate_timing(pairs)
        assert report.frame_rate_hz == 30.0
        assert isinstance(report.mean_reaction_ms(), float)
        for gesture in report.gesture_frames:
            assert 0.0 <= report.gesture_accuracy(gesture) <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            evaluate_timing([])


class TestDivergence:
    def test_matrix_properties(self, suturing_dataset):
        data = suturing_dataset.windows(WindowConfig(5, 2))
        matrix, gestures = js_divergence_matrix(data, n_components=1, rng_seed=0)
        n = len(gestures)
        assert matrix.shape == (n, n)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        assert matrix.max() <= np.log(2) + 1e-9
        assert matrix.min() >= 0.0

    def test_requires_errors(self, suturing_dataset):
        data = suturing_dataset.windows(WindowConfig(5, 2))
        data.unsafe[:] = 0
        with pytest.raises(DatasetError):
            js_divergence_matrix(data)
