"""Quickstart: train and run the context-aware safety monitor.

This walks the full path of the paper on a small synthetic Suturing
dataset: synthesise demonstrations, train the two pipeline stages
(gesture classifier + per-gesture error classifiers), assemble the
SafetyMonitor and evaluate it on a held-out demonstration.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.config import MonitorConfig, TrainingConfig, WindowConfig
from repro.core import ErrorClassifierLibrary, GestureClassifier, SafetyMonitor
from repro.core.error_classifiers import ErrorClassifierConfig
from repro.core.gesture_classifier import GestureClassifierConfig
from repro.eval import auc_score, f1_score
from repro.jigsaws import make_suturing_dataset


def main() -> None:
    # 1. Data: 15 synthetic Suturing demonstrations with rubric errors
    #    (see repro.jigsaws for the paper's error model), split LOSO.
    print("Synthesising Suturing demonstrations ...")
    dataset = make_suturing_dataset(n_demos=15, rng=0)
    train, test = dataset.split_by_trials(held_out_trial=2)
    total, erroneous = dataset.erroneous_gesture_counts()
    print(f"  {len(dataset)} demos, {total} gestures, {erroneous} erroneous")

    window = WindowConfig(window=5, stride=1)

    # 2. Stage 1 — operational context: a stacked-LSTM gesture classifier.
    print("Training the gesture classifier (stacked LSTM) ...")
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
    print(f"  held-out gesture accuracy: {gesture_classifier.accuracy(test):.3f}")

    # 3. Stage 2 — the library of gesture-specific error classifiers.
    print("Training the erroneous-gesture classifier library (1D-CNNs) ...")
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
    print(f"  classifiers for: {', '.join(str(g) for g in library.gestures())}")

    # 4. Assemble and evaluate the online monitor.
    monitor = SafetyMonitor(
        gesture_classifier,
        library,
        MonitorConfig(error_window=window),
    )
    scores, labels = [], []
    for demo in test.demonstrations:
        output = monitor.process(demo.trajectory)
        scores.append(output.unsafe_scores)
        labels.append(demo.trajectory.unsafe)
    y = np.concatenate(labels)
    s = np.concatenate(scores)
    print("Held-out monitoring performance:")
    print(f"  AUC = {auc_score(y, s):.3f}")
    print(f"  F1  = {f1_score(y, (s >= 0.5).astype(int)):.3f}")

    # 5. Stream one demonstration frame by frame (online deployment).
    demo = test.demonstrations[0]
    alerts = 0
    for frame, gesture, unsafe_prob, latency_ms in monitor.stream(
        demo.trajectory.slice(0, 120)
    ):
        if unsafe_prob >= 0.5:
            alerts += 1
    print(f"Streaming demo: {alerts} alert frames in the first 120 frames")


if __name__ == "__main__":
    main()
