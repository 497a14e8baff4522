"""Paper Table V: erroneous-gesture classification setups for Suturing.

Evaluates the erroneous-gesture detection step in isolation (perfect
gesture boundaries) under the paper's ablation grid: gesture-specific
vs non-gesture-specific, LSTM vs 1D-CNN, all features vs the
Cartesian+Rotation+Grasper subset — reporting micro-averaged TPR, TNR,
PPV and NPV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import WindowConfig
from ..core import BaselineMonitor, ErrorClassifierLibrary
from ..eval.metrics import BinaryMetrics, binary_metrics
from ..eval.reports import format_table
from ..gestures.vocabulary import Gesture
from ..jigsaws.dataset import SurgicalDataset
from ..kinematics.features import feature_indices
from .common import ExperimentScale, dataset_of, get_scale


@dataclass
class Table5Row:
    """One ablation setup's micro-averaged metrics."""

    setup: str
    model: str
    features: str
    metrics: BinaryMetrics


def _evaluate_setup(
    train: SurgicalDataset,
    test: SurgicalDataset,
    preset: ExperimentScale,
    architecture: str,
    features: str | None,
    gesture_specific: bool,
    seed: int,
    window: WindowConfig,
) -> BinaryMetrics:
    idx = None if features is None else feature_indices(features)
    tr = train.windows(window, feature_indices=idx)
    te = test.windows(window, feature_indices=idx)
    if gesture_specific:
        library = ErrorClassifierLibrary(
            preset.error_config(architecture), seed=seed
        )
        library.fit(tr)
        probs = np.zeros(te.n_windows)
        for class_idx in np.unique(te.gesture):
            gesture = Gesture.from_class_index(int(class_idx))
            mask = te.gesture == class_idx
            probs[mask] = library.predict_proba(gesture, te.x[mask])
    else:
        baseline = BaselineMonitor(
            preset.error_config(architecture, for_baseline=True), seed=seed
        )
        baseline.fit(tr)
        probs = baseline.predict_proba(te.x)
    return binary_metrics(te.unsafe, (probs >= 0.5).astype(int))


#: The paper's Table V grid (setup, architecture, feature subset).
TABLE_V_GRID: tuple[tuple[str, str, str | None], ...] = (
    ("gesture-specific", "lstm", None),
    ("gesture-specific", "lstm", "CRG"),
    ("gesture-specific", "conv", "CRG"),
    ("gesture-specific", "conv", None),
    ("non-gesture-specific", "lstm", None),
)


def run_grid(
    task: str,
    scale: "str | ExperimentScale",
    seed: int,
    held_out_trial: int,
    grid: tuple[tuple[str, str, str | None], ...],
    window: WindowConfig,
) -> list[Table5Row]:
    """Evaluate an ablation grid on one LOSO fold of ``task``'s dataset."""
    preset = get_scale(scale)
    train, test = dataset_of(task, preset, seed).split_by_trials(held_out_trial)
    return [
        Table5Row(
            setup=setup,
            model=architecture,
            features=features or "All",
            metrics=_evaluate_setup(
                train,
                test,
                preset,
                architecture,
                features,
                gesture_specific=setup == "gesture-specific",
                seed=seed,
                window=window,
            ),
        )
        for setup, architecture, features in grid
    ]


def run(
    scale: "str | ExperimentScale" = "fast", seed: int = 0, held_out_trial: int = 2
) -> list[Table5Row]:
    """Evaluate the Table V grid on one Suturing LOSO fold."""
    window = WindowConfig(5, 1)  # paper: time-window 5, stride 1
    return run_grid("suturing", scale, seed, held_out_trial, TABLE_V_GRID, window)


def render(rows: list[Table5Row], title: str | None = None) -> str:
    """ASCII rendering of the ablation grid results."""
    headers = ["Setup", "Model", "Features", "TPR", "TNR", "PPV", "NPV"]
    body = [
        [
            r.setup,
            r.model,
            r.features,
            f"{r.metrics.tpr:.2f}",
            f"{r.metrics.tnr:.2f}",
            f"{r.metrics.ppv:.2f}",
            f"{r.metrics.npv:.2f}",
        ]
        for r in rows
    ]
    return format_table(
        headers,
        body,
        title=title or "Table V: erroneous gesture classification (Suturing, window=5)",
    )
