"""Paper Table VIII: overall safety-monitoring pipeline evaluation.

Compares, per task, the three monitor configurations of the paper:
gesture-specific with perfect gesture boundaries (upper bound),
gesture-specific with the trained gesture classifier (the deployed
pipeline), and the non-gesture-specific baseline — reporting average
AUC, F1, reaction time (ms), early-detection percentage and mean
per-window computation time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import WindowConfig
from ..core.baseline_monitor import BaselineMonitor
from ..core.pipeline import MonitorOutput, forward_fill_scores
from ..core.reaction import evaluate_timing
from ..eval.metrics import f1_score
from ..eval.reports import format_table
from ..eval.roc import auc_score
from ..jigsaws.dataset import SurgicalDataset
from ..kinematics.trajectory import Trajectory
from ..kinematics.windows import sliding_windows
from ..serving.bulk import BulkScorer
from ..serving.service import reject_non_finite
from .common import ExperimentScale, SuturingComponents, fold_of


@dataclass
class Table8Row:
    """One pipeline configuration's aggregate metrics."""

    setup: str
    task: str
    avg_auc: float
    auc_std: float
    avg_f1: float
    f1_std: float
    avg_reaction_ms: float
    reaction_std_ms: float
    early_detection_pct: float
    avg_compute_ms: float


def _baseline_output(
    baseline: BaselineMonitor, trajectory: Trajectory, window: WindowConfig
) -> MonitorOutput:
    """Frame-level outputs of the non-context baseline.

    Refuses a procedure holding any NaN/±Inf frame, like every other
    offline scorer — the context-free comparator must not be the one
    path that turns a poisoned window into ``score=nan, flag=0``.
    """
    reject_non_finite("the context-free baseline", trajectory.frames)
    n_frames = trajectory.n_frames
    windows, ends = sliding_windows(trajectory.frames, window)
    scores = np.zeros(n_frames)
    probs, per_window_ms = baseline.timed_predict_proba(windows)
    scores[ends] = probs
    scored = np.zeros(n_frames, dtype=bool)
    scored[ends] = True
    scores = forward_fill_scores(scores, scored)
    assert trajectory.gestures is not None
    return MonitorOutput(
        gestures=trajectory.gestures.copy(),  # baseline has no gesture stage
        unsafe_scores=scores,
        unsafe_flags=(scores >= 0.5).astype(int),
        gesture_ms=0.0,
        error_ms=per_window_ms,
        metadata={"setup": "non-gesture-specific"},
    )


def _aggregate(
    setup: str,
    task: str,
    pairs: list[tuple[Trajectory, MonitorOutput]],
    report_compute_ms: float | None,
) -> Table8Row:
    aucs, f1s = [], []
    for trajectory, output in pairs:
        assert trajectory.unsafe is not None
        y = trajectory.unsafe
        if len(np.unique(y)) == 2:
            aucs.append(auc_score(y, output.unsafe_scores))
            f1s.append(f1_score(y, output.unsafe_flags))
    timing = evaluate_timing(pairs)
    return Table8Row(
        setup=setup,
        task=task,
        avg_auc=float(np.mean(aucs)) if aucs else float("nan"),
        auc_std=float(np.std(aucs)) if aucs else float("nan"),
        avg_f1=float(np.nanmean(f1s)) if f1s else float("nan"),
        f1_std=float(np.nanstd(f1s)) if f1s else float("nan"),
        avg_reaction_ms=timing.mean_reaction_ms(),
        reaction_std_ms=timing.std_reaction_ms(),
        early_detection_pct=timing.early_detection_pct(),
        avg_compute_ms=report_compute_ms if report_compute_ms is not None else float("nan"),
    )


def run_task(
    task: str,
    components: SuturingComponents,
    test: SurgicalDataset,
) -> list[Table8Row]:
    """Evaluate the three setups of one task."""
    # Bulk engine, reference backend: bit-identical to the looped
    # process(), but one fused batch per stage per demonstration.
    scorer = BulkScorer(components.monitor())
    trajectories = [d.trajectory for d in test.demonstrations]
    rows: list[Table8Row] = []

    perfect_pairs = list(
        zip(trajectories, scorer.score_many(trajectories, use_true_gestures=True))
    )
    rows.append(_aggregate("gesture-specific (perfect boundaries)", task, perfect_pairs, None))

    pipeline_pairs = list(zip(trajectories, scorer.score_many(trajectories)))
    compute = float(np.mean([o.compute_ms for _, o in pipeline_pairs]))
    rows.append(
        _aggregate("gesture-specific (with gesture classifier)", task, pipeline_pairs, compute)
    )

    baseline_pairs = [
        (
            d.trajectory,
            _baseline_output(components.baseline, d.trajectory, components.window),
        )
        for d in test.demonstrations
    ]
    base_compute = float(np.mean([o.error_ms for _, o in baseline_pairs]))
    rows.append(_aggregate("non-gesture-specific", task, baseline_pairs, base_compute))
    return rows


def run(
    scale: "str | ExperimentScale" = "fast",
    seed: int = 0,
    held_out_trial: int = 2,
    tasks: tuple[str, ...] = ("suturing", "block_transfer"),
) -> list[Table8Row]:
    """Evaluate the pipeline on each task's trained fold."""
    rows: list[Table8Row] = []
    for task in tasks:
        components = fold_of(task, scale, seed, held_out_trial)
        rows += run_task(task, components, components.test)
    return rows


def render(rows: list[Table8Row]) -> str:
    """ASCII rendering of the pipeline comparison."""
    headers = [
        "Setup",
        "Task",
        "AUC",
        "F1",
        "React (ms)",
        "Early %",
        "Compute (ms)",
    ]
    body = [
        [
            r.setup,
            r.task,
            f"{r.avg_auc:.2f}±{r.auc_std:.2f}",
            f"{r.avg_f1:.2f}±{r.f1_std:.2f}",
            f"{r.avg_reaction_ms:+.0f}±{r.reaction_std_ms:.0f}",
            f"{r.early_detection_pct:.1f}",
            "n/a" if np.isnan(r.avg_compute_ms) else f"{r.avg_compute_ms:.2f}",
        ]
        for r in rows
    ]
    return format_table(headers, body, title="Table VIII: overall pipeline evaluation")
