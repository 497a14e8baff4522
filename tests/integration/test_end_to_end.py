"""Integration tests: full paths through the system, both platforms."""

import numpy as np
import pytest

from repro.config import MonitorConfig, TrainingConfig, WindowConfig
from repro.core import (
    ErrorClassifierLibrary,
    SafetyMonitor,
    evaluate_timing,
)
from repro.core.error_classifiers import ErrorClassifierConfig
from repro.core.gesture_classifier import GestureClassifierConfig
from repro.eval import auc_score
from repro.experiments.common import make_blocktransfer_dataset
from repro.faults import FaultInjector, FaultSpec, FaultWindow, GrasperAngleFault
from repro.faults.outcomes import gesture_error_labels
from repro.gestures.vocabulary import Gesture
from repro.simulation import PhysicsOutcome, RavenSimulator
from repro.simulation.teleop import DEFAULT_OPERATORS
from repro.simulation.blocktransfer import generate_demonstration


class TestSuturingEndToEnd:
    def test_pipeline_beats_chance_on_held_out(
        self, tiny_gesture_classifier, tiny_library, suturing_split
    ):
        __, test = suturing_split
        monitor = SafetyMonitor(
            tiny_gesture_classifier,
            tiny_library,
            MonitorConfig(error_window=WindowConfig(5, 1)),
        )
        scores, labels = [], []
        for demo in test.demonstrations:
            out = monitor.process(demo.trajectory)
            scores.append(out.unsafe_scores)
            labels.append(demo.trajectory.unsafe)
        y = np.concatenate(labels)
        s = np.concatenate(scores)
        assert auc_score(y, s) > 0.6

    def test_context_specific_beats_baseline_with_perfect_boundaries(
        self, tiny_library, tiny_baseline, suturing_split
    ):
        """The paper's headline claim at test scale (perfect boundaries)."""
        __, test = suturing_split
        data = test.windows(WindowConfig(5, 1))
        probs_ctx = np.zeros(data.n_windows)
        for class_idx in np.unique(data.gesture):
            gesture = Gesture.from_class_index(int(class_idx))
            mask = data.gesture == class_idx
            probs_ctx[mask] = tiny_library.predict_proba(gesture, data.x[mask])
        probs_base = tiny_baseline.predict_proba(data.x)
        auc_ctx = auc_score(data.unsafe, probs_ctx)
        auc_base = auc_score(data.unsafe, probs_base)
        # Allow slack at this tiny scale, but context must not lose badly.
        assert auc_ctx > auc_base - 0.05

    def test_timing_report_complete(
        self, tiny_gesture_classifier, tiny_library, suturing_split
    ):
        __, test = suturing_split
        monitor = SafetyMonitor(
            tiny_gesture_classifier,
            tiny_library,
            MonitorConfig(error_window=WindowConfig(5, 1)),
        )
        pairs = [
            (d.trajectory, monitor.process(d.trajectory))
            for d in test.demonstrations
        ]
        report = evaluate_timing(pairs)
        assert report.reactions  # some erroneous gestures are detected
        assert 0.0 <= report.early_detection_pct() <= 100.0


class TestRavenEndToEnd:
    def test_fault_to_detection_roundtrip(self):
        """Inject a fault, observe the physical failure, verify the
        resulting dataset trains a detector that flags the faulty run."""
        base = generate_demonstration(
            DEFAULT_OPERATORS[0], rng=0, sample_rate_hz=30.0
        )
        simulator = RavenSimulator(camera=None, rng=0)
        injector = FaultInjector()
        spec = FaultSpec(grasper=GrasperAngleFault(1.3, FaultWindow(0.55, 0.70)))
        faulty = injector.inject(base, spec)
        result = simulator.run(faulty)
        assert result.outcome == PhysicsOutcome.BLOCK_DROP
        labels = gesture_error_labels(result)
        assert labels.any()
        trajectory = result.kinematics_trajectory()
        # The unsafe interval must overlap the injection window.
        mask = result.metadata["fault_mask"]
        assert (labels & mask).any()
        assert trajectory.n_features == 38

    @pytest.mark.slow
    def test_blocktransfer_monitor_detects_faults(self):
        dataset = make_blocktransfer_dataset("smoke", seed=3)
        train, test = dataset.split_by_trials(2)
        window = WindowConfig(10, 2)
        data = train.windows(window)
        config = ErrorClassifierConfig(
            architecture="conv",
            hidden=(12,),
            dense_units=8,
            training=TrainingConfig(learning_rate=1e-3, max_epochs=6, batch_size=128),
            max_train_windows=4000,
        )
        library = ErrorClassifierLibrary(config, seed=0)
        library.fit(data)
        te = test.windows(window)
        probs = np.zeros(te.n_windows)
        for class_idx in np.unique(te.gesture):
            gesture = Gesture.from_class_index(int(class_idx))
            mask = te.gesture == class_idx
            probs[mask] = library.predict_proba(gesture, te.x[mask])
        if len(np.unique(te.unsafe)) == 2:
            assert auc_score(te.unsafe, probs) > 0.6
