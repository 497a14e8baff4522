"""Deterministic synthetic monitors for serving tests and benchmarks.

Training the two pipeline stages takes CPU-minutes, which is far too slow
for parity tests and throughput benchmarks that only exercise *inference*.
:func:`make_synthetic_monitor` builds a fully functional
:class:`~repro.core.pipeline.SafetyMonitor` with seeded random weights and
scalers fitted on seeded random data — deterministic, instant, and
architecturally identical to a trained monitor.  The gesture stage emits
varied (meaningless) gesture predictions and each present error
classifier produces varied probabilities, which is exactly what parity
and throughput measurements need.
"""

from __future__ import annotations

import numpy as np

from ..config import MonitorConfig, WindowConfig
from ..core.error_classifiers import (
    ErrorClassifier,
    ErrorClassifierConfig,
    ErrorClassifierLibrary,
)
from ..core.gesture_classifier import GestureClassifier, GestureClassifierConfig
from ..core.pipeline import SafetyMonitor
from ..gestures.vocabulary import N_GESTURE_CLASSES, Gesture


def make_synthetic_monitor(
    n_features: int = 38,
    seed: int = 0,
    gesture_window: WindowConfig | None = None,
    error_window: WindowConfig | None = None,
    missing_gestures: tuple[int, ...] = (5, 10, 11),
    threshold: float = 0.5,
    architecture: str = "conv",
    hidden: tuple[int, ...] = (8,),
    gesture_lstm_units: tuple[int, ...] = (16,),
    gesture_dense_units: int = 16,
) -> SafetyMonitor:
    """Build an untrained-but-functional monitor with seeded weights.

    Parameters
    ----------
    n_features:
        Kinematics feature width (38 matches the JIGSAWS two-arm subset
        used throughout the repo).
    seed:
        Controls every weight initialisation and scaler fit; equal seeds
        give bit-identical monitors.
    gesture_window / error_window:
        Window configurations of the two stages (default 5/1 each).
    missing_gestures:
        Gesture numbers deliberately left without an error classifier, to
        exercise the constant-safe (score 0.0) path.
    architecture / hidden:
        Error-stage model family (``"conv"`` or ``"lstm"``) and its
        hidden widths — the property suites sweep these to exercise the
        serving engine across every architecture it can host.
    gesture_lstm_units / gesture_dense_units:
        Gesture-stage stacked-LSTM widths and head width.  The defaults
        stay CPU-instant for parity tests; the bulk-scoring benchmark
        passes the paper's full-scale ``(512, 96)`` / ``64`` so the
        measured inference cost matches a deployed monitor.
    """
    gesture_window = gesture_window or WindowConfig(5, 1)
    error_window = error_window or WindowConfig(5, 1)
    rng = np.random.default_rng(seed)

    gesture_config = GestureClassifierConfig(
        lstm_units=gesture_lstm_units,
        dense_units=gesture_dense_units,
        window=gesture_window,
        dropout=0.0,
    )
    classifier = GestureClassifier(gesture_config, seed=seed)
    classifier.model = classifier._build_model()
    classifier.model.build((gesture_window.window, n_features))
    classifier.scaler.fit(
        rng.standard_normal((64, gesture_window.window, n_features))
    )
    classifier._fitted = True

    error_config = ErrorClassifierConfig(
        architecture=architecture, hidden=hidden, dense_units=8, dropout=0.0
    )
    library = ErrorClassifierLibrary(error_config, seed=seed)
    for number in range(1, N_GESTURE_CLASSES + 1):
        gesture = Gesture(number)
        if number in missing_gestures:
            library.constant_gestures.add(gesture)
            continue
        clf = ErrorClassifier(gesture, error_config, seed=seed * 1000 + number)
        clf.model = clf._build_model(positive_weight=1.0)
        clf.model.build((error_window.window, n_features))
        clf.scaler.fit(rng.standard_normal((64, error_window.window, n_features)))
        clf._fitted = True
        library.classifiers[gesture] = clf

    return SafetyMonitor(
        classifier,
        library,
        MonitorConfig(error_window=error_window),
        threshold=threshold,
    )


def make_random_walk_trajectory(
    n_frames: int,
    n_features: int = 38,
    seed: int = 0,
    frame_rate_hz: float = 30.0,
):
    """A seeded random-walk kinematics trajectory with dummy labels.

    The walk keeps frames in the synthetic scalers' operating range while
    still drifting enough that gesture predictions and unsafe scores vary
    over time.
    """
    from ..kinematics.trajectory import Trajectory

    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((n_frames, n_features))
    frames = np.cumsum(steps, axis=0) * 0.1 + rng.standard_normal(n_features)
    gestures = np.repeat(
        rng.integers(1, N_GESTURE_CLASSES + 1, size=max(1, n_frames // 30 + 1)),
        30,
    )[:n_frames]
    unsafe = (rng.random(n_frames) < 0.1).astype(int)
    return Trajectory(
        frames=frames,
        frame_rate_hz=frame_rate_hz,
        gestures=gestures,
        unsafe=unsafe,
        metadata={"synthetic": True, "seed": seed},
    )
