"""Paper Table IX: per-gesture effect of the pipeline components.

For every gesture class of both tasks: reaction time and F1 under
perfect gesture boundaries, overall gesture-detection jitter and
accuracy, jitter on erroneous occurrences, and reaction time and F1
under the full gesture-specific pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.reaction import evaluate_timing
from ..eval.metrics import f1_score
from ..eval.reports import format_table
from ..gestures.vocabulary import Gesture
from ..jigsaws.dataset import SurgicalDataset
from ..serving.bulk import BulkScorer
from .common import ExperimentScale, SuturingComponents, fold_of


@dataclass
class Table9Row:
    """One gesture's timing/accuracy breakdown."""

    task: str
    gesture: Gesture
    perfect_reaction_ms: float
    perfect_f1: float
    avg_jitter_ms: float
    gesture_accuracy_pct: float
    erroneous_jitter_ms: float
    pipeline_reaction_ms: float
    pipeline_f1: float


def _per_gesture_f1(
    pairs: list, gesture: Gesture
) -> float:
    """F1 of unsafe detection restricted to one gesture's frames."""
    y_true: list[np.ndarray] = []
    y_pred: list[np.ndarray] = []
    for trajectory, output in pairs:
        mask = trajectory.gestures == int(gesture)
        if not mask.any():
            continue
        y_true.append(trajectory.unsafe[mask])
        y_pred.append(output.unsafe_flags[mask])
    if not y_true:
        return float("nan")
    true_cat = np.concatenate(y_true)
    pred_cat = np.concatenate(y_pred)
    if true_cat.sum() == 0:
        return float("nan")
    return f1_score(true_cat, pred_cat)


def run_task(
    task: str,
    components: SuturingComponents,
    test: SurgicalDataset,
) -> list[Table9Row]:
    """Per-gesture breakdown of one task's pipeline run."""
    # Bulk engine, reference backend: bit-identical to the looped
    # process(), but one fused batch per stage per demonstration.
    scorer = BulkScorer(components.monitor())
    trajectories = [d.trajectory for d in test.demonstrations]
    perfect_pairs = list(
        zip(trajectories, scorer.score_many(trajectories, use_true_gestures=True))
    )
    pipeline_pairs = list(zip(trajectories, scorer.score_many(trajectories)))
    perfect_timing = evaluate_timing(perfect_pairs)
    pipeline_timing = evaluate_timing(pipeline_pairs)

    gestures = sorted(
        {int(g) for d in test.demonstrations for g in np.unique(d.trajectory.gestures)}
    )
    rows: list[Table9Row] = []
    for number in gestures:
        gesture = Gesture(number)
        rows.append(
            Table9Row(
                task=task,
                gesture=gesture,
                perfect_reaction_ms=perfect_timing.mean_reaction_ms(number),
                perfect_f1=_per_gesture_f1(perfect_pairs, gesture),
                avg_jitter_ms=pipeline_timing.mean_jitter_ms(number),
                gesture_accuracy_pct=100.0 * pipeline_timing.gesture_accuracy(number),
                erroneous_jitter_ms=pipeline_timing.mean_jitter_ms(
                    number, erroneous_only=True
                ),
                pipeline_reaction_ms=pipeline_timing.mean_reaction_ms(number),
                pipeline_f1=_per_gesture_f1(pipeline_pairs, gesture),
            )
        )
    return rows


def run(
    scale: "str | ExperimentScale" = "fast",
    seed: int = 0,
    held_out_trial: int = 2,
    tasks: tuple[str, ...] = ("suturing", "block_transfer"),
) -> list[Table9Row]:
    """Per-gesture breakdown on each task's trained fold."""
    rows: list[Table9Row] = []
    for task in tasks:
        components = fold_of(task, scale, seed, held_out_trial)
        rows += run_task(task, components, components.test)
    return rows


def render(rows: list[Table9Row]) -> str:
    """ASCII rendering of the per-gesture breakdown."""
    def fmt(value: float, signed: bool = False) -> str:
        if np.isnan(value):
            return "n/a"
        return f"{value:+.0f}" if signed else f"{value:.2f}"

    headers = [
        "Task",
        "G",
        "React(ms) PB",
        "F1 PB",
        "Jitter(ms)",
        "GestAcc%",
        "ErrJitter(ms)",
        "React(ms) pipe",
        "F1 pipe",
    ]
    body = [
        [
            r.task,
            str(r.gesture),
            fmt(r.perfect_reaction_ms, signed=True),
            fmt(r.perfect_f1),
            fmt(r.avg_jitter_ms, signed=True),
            "n/a" if np.isnan(r.gesture_accuracy_pct) else f"{r.gesture_accuracy_pct:.1f}",
            fmt(r.erroneous_jitter_ms, signed=True),
            fmt(r.pipeline_reaction_ms, signed=True),
            fmt(r.pipeline_f1),
        ]
        for r in rows
    ]
    return format_table(
        headers,
        body,
        title="Table IX: per-gesture pipeline component effects (PB = perfect boundaries)",
    )
