"""Online (streaming) safety monitoring with reaction-time analysis.

Reproduces the semantics of the paper's Figure 8: the monitor consumes
kinematics frame by frame, infers the current gesture, applies the
gesture's error classifier, and raises alerts; afterwards the detection
timeline is compared against ground truth to compute jitter and reaction
times (Equation 4 of the paper).

Run:  python examples/online_monitoring.py
"""

import numpy as np

from repro.config import MonitorConfig, TrainingConfig, WindowConfig
from repro.core import (
    ErrorClassifierLibrary,
    GestureClassifier,
    SafetyMonitor,
    evaluate_timing,
)
from repro.core.error_classifiers import ErrorClassifierConfig
from repro.core.gesture_classifier import GestureClassifierConfig
from repro.jigsaws import make_suturing_dataset


def train_monitor(train) -> SafetyMonitor:
    """Train both pipeline stages on the training split."""
    window = WindowConfig(5, 1)
    gesture_classifier = GestureClassifier(
        GestureClassifierConfig(
            lstm_units=(32, 16),
            dense_units=16,
            window=window,
            training=TrainingConfig(max_epochs=8, batch_size=128),
            max_train_windows=8000,
        ),
        seed=0,
    )
    gesture_classifier.fit(train)
    library = ErrorClassifierLibrary(
        ErrorClassifierConfig(
            architecture="conv",
            hidden=(16, 8),
            dense_units=8,
            training=TrainingConfig(max_epochs=10, batch_size=128),
            max_train_windows=4000,
        ),
        seed=1,
    )
    library.fit(train.windows(window))
    return SafetyMonitor(
        gesture_classifier,
        library,
        MonitorConfig(error_window=window),
    )


def main() -> None:
    print("Preparing data and training the monitor ...")
    dataset = make_suturing_dataset(n_demos=15, rng=3)
    train, test = dataset.split_by_trials(2)
    monitor = train_monitor(train)

    # Pick a held-out demonstration containing erroneous gestures.
    demo = next(
        d for d in test.demonstrations if d.trajectory.unsafe is not None
        and d.trajectory.unsafe.any()
    )
    trajectory = demo.trajectory
    print(
        f"Streaming demo (subject {demo.subject}, trial {demo.trial}): "
        f"{trajectory.n_frames} frames @ {trajectory.frame_rate_hz:.0f} Hz"
    )

    # --- online loop: one frame at a time, as the robot would emit them.
    latencies = []
    alert_frames = []
    for frame, gesture, unsafe_prob, latency_ms in monitor.stream(trajectory):
        latencies.append(latency_ms)
        if unsafe_prob >= 0.5:
            alert_frames.append(frame)
            if len(alert_frames) <= 5:
                t_ms = 1000.0 * frame / trajectory.frame_rate_hz
                print(
                    f"  ALERT at frame {frame} (t={t_ms:7.0f} ms): "
                    f"G{gesture} unsafe p={unsafe_prob:.2f}"
                )
    print(
        f"{len(alert_frames)} alert frames; "
        f"mean per-frame latency {np.mean(latencies):.2f} ms "
        f"(paper reports ~2 ms/window)"
    )

    # --- offline timing analysis of the same run (Figure 8 semantics).
    output = monitor.process(trajectory)
    report = evaluate_timing([(trajectory, output)])
    print(f"mean reaction time: {report.mean_reaction_ms():+.0f} ms "
          "(positive = before error onset)")
    print(f"early detections:   {report.early_detection_pct():.0f}%")
    for gesture in sorted(report.jitter):
        jitter_ms = report.mean_jitter_ms(gesture)
        accuracy = 100.0 * report.gesture_accuracy(gesture)
        print(f"  G{gesture}: jitter {jitter_ms:+6.0f} ms, detection acc {accuracy:5.1f}%")


if __name__ == "__main__":
    main()
