"""Detection quality is pinned: Tables IV and VIII at smoke scale, seed 0.

The first slice of the fidelity contract (ROADMAP item 1): the numbers
below were printed by ``python -m repro.experiments table4|table8
--scale smoke --seed 0`` at the commit *before* the inference contraction
moved from a sequential multiply-add chain to fixed-shape GEMMs, and
they print the same after it — under OpenBLAS's Nehalem, Haswell and
SkylakeX kernels alike.  A speed or cleanup change that moves a digit
here moved the paper's result, not just a rounding.

Compared at the precision the tables print.  The Compute column is a
timing, not a result, and is not pinned.
"""

import pytest

from repro.experiments import table4, table8

pytestmark = pytest.mark.slow

TABLE4_ACCURACY = {  # stacked LSTM, % of windows
    "suturing": "90.81",
    "knot_tying": "90.63",
    "needle_passing": "90.09",
    "block_transfer": "93.89",
}

SPECIFIC = "gesture-specific (with gesture classifier)"
PERFECT = "gesture-specific (perfect boundaries)"
GLOBAL = "non-gesture-specific"
TABLE8 = {  # (setup, task): (AUC, F1, reaction ms, early %)
    (PERFECT, "suturing"): ("0.79±0.07", "0.65±0.13", "+4918±5836", "78.0"),
    (SPECIFIC, "suturing"): ("0.76±0.04", "0.64±0.12", "+5628±5943", "92.7"),
    (GLOBAL, "suturing"): ("0.76±0.05", "0.62±0.14", "+5542±6006", "90.2"),
    (PERFECT, "block_transfer"): ("0.92±0.09", "0.52±0.14", "-306±238", "0.0"),
    (SPECIFIC, "block_transfer"): ("0.90±0.09", "0.51±0.15", "-89±250", "16.7"),
    (GLOBAL, "block_transfer"): ("0.97±0.04", "0.87±0.06", "+261±103", "100.0"),
}


def test_table4_gesture_accuracy():
    rows = table4.run("smoke", seed=0, include_baselines=False)
    got = {r.task: f"{100 * r.accuracy:.2f}" for r in rows}
    assert got == TABLE4_ACCURACY


def test_table8_auc_f1_reaction_and_early_detection():
    rows = {(r.setup, r.task): r for r in table8.run("smoke", seed=0)}
    got = {
        key: (
            f"{r.avg_auc:.2f}±{r.auc_std:.2f}",
            f"{r.avg_f1:.2f}±{r.f1_std:.2f}",
            f"{r.avg_reaction_ms:+.0f}±{r.reaction_std_ms:.0f}",
            f"{r.early_detection_pct:.1f}",
        )
        for key, r in rows.items()
    }
    assert got == TABLE8
    # The context-aware vs context-free AUC gap keeps its sign per task.
    # At smoke scale: with perfect gesture boundaries the specific
    # detectors lead on suturing (the paper's claim) and trail on the
    # synthetic block-transfer task; behind the tiny smoke-scale gesture
    # classifier they trail on both (suturing by 0.007).
    gap = {
        (setup, task): rows[(setup, task)].avg_auc - rows[(GLOBAL, task)].avg_auc
        for setup in (PERFECT, SPECIFIC)
        for task in ("suturing", "block_transfer")
    }
    assert {key: value > 0 for key, value in gap.items()} == {
        (PERFECT, "suturing"): True,
        (PERFECT, "block_transfer"): False,
        (SPECIFIC, "suturing"): False,
        (SPECIFIC, "block_transfer"): False,
    }
