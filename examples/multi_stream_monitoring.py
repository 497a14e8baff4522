"""A fleet of concurrent surgical procedures monitored by one service.

Simulates a hospital deployment of the paper's context-aware monitor:
several robot-assisted procedures run at once, starting and finishing at
different times, and a single :class:`repro.serving.MonitorService`
advances all of them tick by tick — batching each pipeline stage across
every active procedure.  Each session reports its own alert timeline at
the end, along with service-level latency accounting.

By default the monitor uses deterministic synthetic weights so the demo
starts instantly; pass ``--train`` to train a real (tiny) monitor on the
synthetic Suturing dataset first.

Run:  PYTHONPATH=src python examples/multi_stream_monitoring.py
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.serving import (
    MonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)

N_FEATURES = 38


def trained_monitor():
    """A small monitor trained on the synthetic Suturing dataset."""
    from repro.config import MonitorConfig, TrainingConfig, WindowConfig
    from repro.core import ErrorClassifierLibrary, GestureClassifier, SafetyMonitor
    from repro.core.error_classifiers import ErrorClassifierConfig
    from repro.core.gesture_classifier import GestureClassifierConfig
    from repro.jigsaws import make_suturing_dataset

    window = WindowConfig(5, 1)
    train, _ = make_suturing_dataset(n_demos=12, rng=3).split_by_trials(2)
    classifier = GestureClassifier(
        GestureClassifierConfig(
            lstm_units=(32, 16),
            dense_units=16,
            window=window,
            training=TrainingConfig(max_epochs=8, batch_size=128),
            max_train_windows=6000,
        ),
        seed=0,
    )
    classifier.fit(train)
    library = ErrorClassifierLibrary(
        ErrorClassifierConfig(
            architecture="conv",
            hidden=(16,),
            dense_units=8,
            training=TrainingConfig(max_epochs=8, batch_size=128),
            max_train_windows=3000,
        ),
        seed=1,
    )
    library.fit(train.windows(window))
    return SafetyMonitor(
        classifier, library, MonitorConfig(error_window=window)
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--procedures", type=int, default=6)
    parser.add_argument("--train", action="store_true", help="train a real monitor")
    args = parser.parse_args()
    if args.procedures < 1:
        parser.error("--procedures must be >= 1")

    if args.train:
        print("Training the monitor on synthetic Suturing data ...")
        monitor = trained_monitor()
    else:
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0)

    rng = np.random.default_rng(42)
    # Staggered schedule: procedure i enters the OR at `start_tick` and
    # streams `n_frames` kinematics frames (30 Hz) until it completes.
    schedule = [
        {
            "start_tick": int(rng.integers(0, 120)),
            "trajectory": make_random_walk_trajectory(
                int(rng.integers(240, 420)), n_features=N_FEATURES, seed=100 + i
            ),
        }
        for i in range(args.procedures)
    ]

    service = MonitorService(monitor, max_sessions=args.procedures)
    alerts: dict[str, list[int]] = {}
    opened: dict[int, str] = {}

    print(f"Monitoring {args.procedures} concurrent procedures ...")
    tick = 0
    while opened or any("trajectory" in p for p in schedule):
        # Admit procedures whose start time arrived.
        for i, proc in enumerate(schedule):
            if "trajectory" in proc and proc["start_tick"] <= tick:
                session_id = service.open_session(f"OR-{i + 1}")
                service.feed(session_id, proc.pop("trajectory").frames)
                opened[i] = session_id
                alerts[session_id] = []
                print(f"  tick {tick:4d}: {session_id} started")
        for event in service.tick():
            if event.flag:
                alerts[event.session_id].append(event.frame_index)
        # Retire procedures that consumed their whole trajectory.
        for i, session_id in list(opened.items()):
            if service.pending_frames(session_id) == 0:
                result = service.close_session(session_id)
                del opened[i]
                n_alerts = int(result.unsafe_flags.sum())
                print(
                    f"  tick {tick:4d}: {session_id} finished — "
                    f"{result.n_frames} frames, {n_alerts} alert frames"
                )
        tick += 1

    print("\nPer-procedure alert timelines:")
    for session_id in sorted(alerts):
        frames = alerts[session_id]
        if frames:
            spans = f"first at frame {frames[0]}, last at frame {frames[-1]}"
        else:
            spans = "no alerts"
        print(f"  {session_id}: {len(frames)} alert frames ({spans})")

    stats = service.stats
    print(
        f"\nService: {stats.frames_processed} frames in {stats.n_ticks} ticks — "
        f"tick latency p50 {stats.percentile_ms(50):.2f} ms, "
        f"p99 {stats.percentile_ms(99):.2f} ms"
    )


if __name__ == "__main__":
    main()
