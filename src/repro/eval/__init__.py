"""Evaluation metrics and reporting (the paper's Section IV-C).

- :mod:`~repro.eval.metrics` — confusion-matrix metrics (TPR, TNR, PPV,
  NPV), accuracy, micro/macro F1;
- :mod:`~repro.eval.roc` — ROC curves and AUC;
- :mod:`~repro.eval.timing` — jitter, reaction time and early-detection
  percentage (Equation 4 / Figure 8 semantics);
- :mod:`~repro.eval.reports` — ASCII table rendering for the
  experiments.
"""

from .metrics import (
    BinaryMetrics,
    accuracy,
    binary_metrics,
    confusion_matrix,
    f1_score,
)
from .roc import auc_score, roc_curve
from .timing import (
    early_detection_percentage,
    gesture_jitter,
    reaction_times,
)
from .reports import format_table, format_markdown_table

__all__ = [
    "BinaryMetrics",
    "accuracy",
    "auc_score",
    "binary_metrics",
    "confusion_matrix",
    "early_detection_percentage",
    "f1_score",
    "format_markdown_table",
    "format_table",
    "gesture_jitter",
    "reaction_times",
    "roc_curve",
]
