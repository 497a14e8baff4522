"""Paper Table VII: per-gesture erroneous-gesture classifier performance.

Reports, per gesture class and task: train/test window counts, error
prevalence, and the AUC of the gesture's classifier on held-out data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import WindowConfig
from ..core import ErrorClassifierLibrary
from ..eval.reports import format_table
from ..eval.roc import auc_score
from ..gestures.vocabulary import Gesture
from ..jigsaws.dataset import SurgicalDataset
from .common import ExperimentScale, dataset_of, get_scale


@dataclass
class Table7Row:
    """Per-gesture classifier performance."""

    task: str
    gesture: Gesture
    train_size: int
    train_error_pct: float
    test_size: int
    test_error_pct: float
    auc: float


def _rows_for_task(
    task: str,
    dataset: SurgicalDataset,
    preset: ExperimentScale,
    window: WindowConfig,
    held_out_trial: int,
    seed: int,
) -> list[Table7Row]:
    train, test = dataset.split_by_trials(held_out_trial)
    tr = train.windows(window)
    te = test.windows(window)
    library = ErrorClassifierLibrary(preset.error_config("conv"), seed=seed)
    library.fit(tr)
    rows: list[Table7Row] = []
    for class_idx in np.unique(tr.gesture):
        gesture = Gesture.from_class_index(int(class_idx))
        tr_sub = tr.for_gesture(gesture)
        te_sub = te.for_gesture(gesture)
        auc = float("nan")
        if (
            library.has_classifier(gesture)
            and te_sub.n_windows > 0
            and len(np.unique(te_sub.unsafe)) == 2
        ):
            probs = library.predict_proba(gesture, te_sub.x)
            auc = auc_score(te_sub.unsafe, probs)
        rows.append(
            Table7Row(
                task=task,
                gesture=gesture,
                train_size=tr_sub.n_windows,
                train_error_pct=100.0 * float(tr_sub.unsafe.mean()) if tr_sub.n_windows else 0.0,
                test_size=te_sub.n_windows,
                test_error_pct=100.0 * float(te_sub.unsafe.mean()) if te_sub.n_windows else 0.0,
                auc=auc,
            )
        )
    return rows


def run(
    scale: "str | ExperimentScale" = "fast", seed: int = 0, held_out_trial: int = 2
) -> list[Table7Row]:
    """Per-gesture rows for both tasks (Suturing first, as in the paper)."""
    preset = get_scale(scale)
    rows: list[Table7Row] = []
    for task, window in (
        ("suturing", WindowConfig(5, 1)),
        ("block_transfer", WindowConfig(10, 1)),
    ):
        dataset = dataset_of(task, preset, seed)
        rows += _rows_for_task(task, dataset, preset, window, held_out_trial, seed)
    return rows


def render(rows: list[Table7Row]) -> str:
    """ASCII rendering of the per-gesture table."""
    headers = ["Task", "Gesture", "Train", "%Err", "Test", "%Err ", "AUC"]
    body = [
        [
            r.task,
            str(r.gesture),
            r.train_size,
            f"{r.train_error_pct:.0f}",
            r.test_size,
            f"{r.test_error_pct:.0f}",
            "n/a" if np.isnan(r.auc) else f"{r.auc:.2f}",
        ]
        for r in rows
    ]
    return format_table(
        headers, body, title="Table VII: per-gesture erroneous-gesture classifiers"
    )
