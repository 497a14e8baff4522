"""Paper Figure 8: example detection timeline.

Walks one held-out demonstration through the trained monitor and renders
the ground-truth vs predicted gesture sequence and the erroneous /
non-erroneous detections as an ASCII timeline, annotated with jitter and
reaction-time values — the semantics the timing metrics are defined by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pipeline import MonitorOutput
from ..core.reaction import evaluate_timing
from ..kinematics.trajectory import Trajectory
from ..serving.bulk import BulkScorer
from .common import ExperimentScale, fold_of


@dataclass
class Figure8Result:
    """One demonstration's timeline and its timing numbers."""

    trajectory: Trajectory
    output: MonitorOutput
    mean_reaction_ms: float
    mean_jitter_ms: dict[int, float]


def run(
    scale: "str | ExperimentScale" = "fast",
    seed: int = 0,
    held_out_trial: int = 2,
    demo_index: int = 0,
) -> Figure8Result:
    """Monitor one held-out demonstration of the trained Suturing fold.

    Picks the first held-out demonstration containing at least one
    erroneous gesture (so the timeline shows a reaction-time event),
    falling back to ``demo_index``.
    """
    components = fold_of("suturing", scale, seed, held_out_trial)
    demos = components.test.demonstrations
    chosen = demos[demo_index]
    for demo in demos:
        assert demo.trajectory.unsafe is not None
        if demo.trajectory.unsafe.any():
            chosen = demo
            break
    output = BulkScorer(components.monitor()).score(chosen.trajectory)
    timing = evaluate_timing([(chosen.trajectory, output)])
    jitter = {
        gesture: timing.mean_jitter_ms(gesture) for gesture in timing.jitter
    }
    return Figure8Result(
        trajectory=chosen.trajectory,
        output=output,
        mean_reaction_ms=timing.mean_reaction_ms(),
        mean_jitter_ms=jitter,
    )


def render(result: Figure8Result, width: int = 100) -> str:
    """ASCII timeline: gestures (truth vs predicted) and unsafe flags."""
    trajectory = result.trajectory
    output = result.output
    n = trajectory.n_frames
    stride = max(1, n // width)

    def gesture_track(labels: np.ndarray) -> str:
        symbols = []
        for t in range(0, n, stride):
            g = int(labels[t])
            symbols.append("?" if g <= 0 else _GESTURE_CHARS[g % len(_GESTURE_CHARS)])
        return "".join(symbols)

    def binary_track(flags: np.ndarray) -> str:
        return "".join(
            "#" if flags[t] else "." for t in range(0, n, stride)
        )

    assert trajectory.gestures is not None and trajectory.unsafe is not None
    lines = [
        f"Figure 8 timeline ({n} frames @ {trajectory.frame_rate_hz:.0f} Hz; "
        f"1 char ~ {stride} frames)",
        f"truth gestures: {gesture_track(trajectory.gestures)}",
        f"pred  gestures: {gesture_track(output.gestures)}",
        f"truth unsafe  : {binary_track(trajectory.unsafe)}",
        f"pred  unsafe  : {binary_track(output.unsafe_flags)}",
        f"mean reaction time: {result.mean_reaction_ms:+.0f} ms "
        "(positive = early detection)",
    ]
    for gesture, jitter in sorted(result.mean_jitter_ms.items()):
        if not np.isnan(jitter):
            lines.append(f"  G{gesture} mean jitter: {jitter:+.0f} ms")
    return "\n".join(lines)


#: Single-character symbols for gesture tracks (index = gesture % len).
_GESTURE_CHARS = "0123456789abcdef"
