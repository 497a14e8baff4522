"""Paper Figure 9: best/median/worst ROC curves per setup.

Computes a per-demonstration ROC for the context-specific pipeline and
the non-context-specific baseline over the held-out demonstrations and
reports the best, median and worst curves of each setup — the paper's
visual evidence that the context-specific monitor dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..eval.reports import format_table
from ..eval.roc import auc_score, roc_curve
from ..serving.bulk import BulkScorer
from .common import ExperimentScale, fold_of
from .table8 import _baseline_output


@dataclass
class RocSummary:
    """One demonstration's ROC under one setup."""

    setup: str
    demo_index: int
    auc: float
    fpr: np.ndarray
    tpr: np.ndarray


@dataclass
class Figure9Result:
    """Best/median/worst ROC per setup."""

    curves: dict[str, list[RocSummary]]  # setup -> [best, median, worst]

    def aucs(self, setup: str) -> list[float]:
        """The three reported AUCs of a setup (best, median, worst)."""
        return [c.auc for c in self.curves[setup]]


def _pick_best_median_worst(summaries: list[RocSummary]) -> list[RocSummary]:
    ranked = sorted(summaries, key=lambda s: s.auc, reverse=True)
    return [ranked[0], ranked[len(ranked) // 2], ranked[-1]]


def run(
    scale: "str | ExperimentScale" = "fast",
    seed: int = 0,
    held_out_trial: int = 2,
) -> Figure9Result:
    """Collect per-demo ROC curves on the trained Suturing fold."""
    components = fold_of("suturing", scale, seed, held_out_trial)
    scorer = BulkScorer(components.monitor())

    context: list[RocSummary] = []
    baseline: list[RocSummary] = []
    for i, demo in enumerate(components.test.demonstrations):
        trajectory = demo.trajectory
        assert trajectory.unsafe is not None
        if len(np.unique(trajectory.unsafe)) < 2:
            continue
        out_ctx = scorer.score(trajectory)
        fpr, tpr, _ = roc_curve(trajectory.unsafe, out_ctx.unsafe_scores)
        context.append(
            RocSummary(
                "context-specific",
                i,
                auc_score(trajectory.unsafe, out_ctx.unsafe_scores),
                fpr,
                tpr,
            )
        )
        out_base = _baseline_output(
            components.baseline, trajectory, components.window
        )
        fpr_b, tpr_b, _ = roc_curve(trajectory.unsafe, out_base.unsafe_scores)
        baseline.append(
            RocSummary(
                "non-context-specific",
                i,
                auc_score(trajectory.unsafe, out_base.unsafe_scores),
                fpr_b,
                tpr_b,
            )
        )
    return Figure9Result(
        curves={
            "context-specific": _pick_best_median_worst(context),
            "non-context-specific": _pick_best_median_worst(baseline),
        }
    )


def render(result: Figure9Result, points: int = 11) -> str:
    """ASCII rendering: sampled TPR-at-FPR rows for the six curves."""
    grid = np.linspace(0.0, 1.0, points)
    headers = ["Setup", "Curve", "AUC", *[f"TPR@{f:.1f}" for f in grid]]
    body = []
    for setup, summaries in result.curves.items():
        for label, summary in zip(("best", "median", "worst"), summaries):
            tpr_at = np.interp(grid, summary.fpr, summary.tpr)
            body.append(
                [setup, label, f"{summary.auc:.3f}", *[f"{v:.2f}" for v in tpr_at]]
            )
    return format_table(
        headers, body, title="Figure 9: best/median/worst per-demo ROC curves"
    )
