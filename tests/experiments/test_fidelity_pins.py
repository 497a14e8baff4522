"""Detection quality is pinned: every table's digits at smoke scale, seed 0.

The first slice of the fidelity contract (the claims those digits are
read for are ``test_fidelity_claims.py``).  Tables IV
and VIII below were printed by ``python -m repro.experiments
table4|table8 --scale smoke --seed 0`` at the commit *before* the
inference contraction moved from a sequential multiply-add chain to
fixed-shape GEMMs, and they print the same after it — under OpenBLAS's
Nehalem, Haswell and SkylakeX kernels alike.  Tables III, V, VI, VII, IX
and Figure 9 joined them when the datasets and trained folds moved
behind one per-process memo (``repro.experiments.common``): the same
command, before and after.  A speed or cleanup change that moves a digit
here moved the paper's result, not just a rounding.

Compared at the precision the tables print.  The Compute column is a
timing, not a result, and is not pinned.
"""

import pytest

from repro.experiments import figure9, table3, table4, table5, table6, table7, table8, table9

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


def test_table4_gesture_accuracy(smoke):
    rows = smoke(table4)
    got = {r.task: f"{100 * r.accuracy:.2f}" for r in rows}
    assert got == TABLE4_ACCURACY


def test_table8_auc_f1_reaction_and_early_detection(smoke):
    rows = {(r.setup, r.task): r for r in smoke(table8)}
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


# The other tables, as `python -m repro.experiments <name> --scale smoke
# --seed 0` prints them (cell padding aside).
PRINTED = {
    table3: """\
Table III: fault injections on the Raven II
Grasper (rad) | Duration  | Cartesian dev | Duration  | #Inj | Block-drop | Dropoff  | WrongPos
--------------+-----------+---------------+-----------+------+------------+----------+---------
0.30-0.40     | 0.55-0.70 | 3000-6000     | 0.50-0.60 | 1    | 0 (0%)     | 0 (0%)   | 0
0.30-0.40     | 0.55-0.70 | 6000-65000    | 0.50-0.60 | 1    | 0 (0%)     | 0 (0%)   | 0
0.30-0.40     | 0.65-0.90 | 3000-6000     | 0.70-0.90 | 1    | 0 (0%)     | 1 (100%) | 0
0.30-0.40     | 0.65-0.90 | 6000-65000    | 0.70-0.90 | 1    | 0 (0%)     | 1 (100%) | 0
0.50-0.60     | 0.55-0.70 | 3000-6000     | 0.50-0.60 | 1    | 0 (0%)     | 0 (0%)   | 0
0.50-0.60     | 0.55-0.70 | 6000-65000    | 0.50-0.60 | 1    | 0 (0%)     | 0 (0%)   | 0
0.50-0.60     | 0.65-0.90 | 3000-6000     | 0.70-0.90 | 1    | 0 (0%)     | 1 (100%) | 0
0.50-0.60     | 0.65-0.90 | 6000-65000    | 0.70-0.90 | 1    | 0 (0%)     | 1 (100%) | 0
0.70-0.80     | 0.55-0.70 | 3000-6000     | 0.50-0.60 | 1    | 0 (0%)     | 0 (0%)   | 0
0.70-0.80     | 0.55-0.70 | 6000-65000    | 0.50-0.60 | 1    | 0 (0%)     | 0 (0%)   | 0
0.70-0.80     | 0.65-0.90 | 3000-6000     | 0.70-0.90 | 1    | 0 (0%)     | 0 (0%)   | 1
0.70-0.80     | 0.65-0.90 | 6000-65000    | 0.70-0.90 | 1    | 0 (0%)     | 1 (100%) | 0
0.90-1.00     | 0.55-0.70 | 3000-6000     | 0.50-0.60 | 3    | 1 (33%)    | 0 (0%)   | 0
0.90-1.00     | 0.55-0.70 | 6000-65000    | 0.50-0.60 | 2    | 1 (50%)    | 0 (0%)   | 0
0.90-1.00     | 0.65-0.90 | 3000-6000     | 0.70-0.90 | 1    | 0 (0%)     | 1 (100%) | 0
0.90-1.00     | 0.65-0.90 | 6000-65000    | 0.70-0.90 | 1    | 0 (0%)     | 1 (100%) | 0
1.10-1.20     | 0.55-0.70 | 3000-6000     | 0.50-0.60 | 2    | 2 (100%)   | 0 (0%)   | 0
1.10-1.20     | 0.55-0.70 | 6000-65000    | 0.50-0.60 | 4    | 4 (100%)   | 0 (0%)   | 0
1.10-1.20     | 0.65-0.90 | 3000-6000     | 0.70-0.90 | 1    | 1 (100%)   | 0 (0%)   | 0
1.10-1.20     | 0.65-0.90 | 6000-65000    | 0.70-0.90 | 1    | 1 (100%)   | 0 (0%)   | 0
1.30-1.40     | 0.55-0.70 | 3000-6000     | 0.50-0.60 | 2    | 2 (100%)   | 0 (0%)   | 0
1.30-1.40     | 0.55-0.70 | 6000-65000    | 0.50-0.60 | 3    | 3 (100%)   | 0 (0%)   | 0
1.30-1.40     | 0.65-0.90 | 3000-6000     | 0.70-0.90 | 1    | 1 (100%)   | 0 (0%)   | 0
1.30-1.40     | 0.65-0.90 | 6000-65000    | 0.70-0.90 | 1    | 1 (100%)   | 0 (0%)   | 0
1.50-1.60     | 0.55-0.70 | 3000-6000     | 0.50-0.60 | 1    | 1 (100%)   | 0 (0%)   | 0
1.50-1.60     | 0.55-0.70 | 6000-65000    | 0.50-0.60 | 1    | 1 (100%)   | 0 (0%)   | 0
1.50-1.60     | 0.65-0.90 | 3000-6000     | 0.70-0.90 | 1    | 1 (100%)   | 0 (0%)   | 0
1.50-1.60     | 0.65-0.90 | 6000-65000    | 0.70-0.90 | 1    | 1 (100%)   | 0 (0%)   | 0
Total         |           |               |           | 38   | 21         | 7        | 1
""",
    table5: """\
Table V: erroneous gesture classification (Suturing, window=5)
Setup                | Model | Features | TPR  | TNR  | PPV  | NPV
---------------------+-------+----------+------+------+------+-----
gesture-specific     | lstm  | All      | 0.69 | 0.69 | 0.75 | 0.63
gesture-specific     | lstm  | CRG      | 0.71 | 0.68 | 0.75 | 0.63
gesture-specific     | conv  | CRG      | 0.67 | 0.70 | 0.75 | 0.61
gesture-specific     | conv  | All      | 0.69 | 0.79 | 0.82 | 0.65
non-gesture-specific | lstm  | All      | 0.63 | 0.75 | 0.77 | 0.60
""",
    table6: """\
Table VI: erroneous gesture classification (Block Transfer, window=10)
Setup                | Model | Features | TPR  | TNR  | PPV  | NPV
---------------------+-------+----------+------+------+------+-----
gesture-specific     | conv  | CG       | 0.42 | 0.93 | 0.61 | 0.87
gesture-specific     | lstm  | CG       | 0.44 | 0.91 | 0.55 | 0.87
non-gesture-specific | conv  | CG       | 0.93 | 0.69 | 0.42 | 0.97
""",
    table7: """\
Table VII: per-gesture erroneous-gesture classifiers
Task           | Gesture | Train | %Err | Test | %Err  | AUC
---------------+---------+-------+------+------+-------+-----
suturing       | G1      | 353   | 36   | 266  | 50    | 0.54
suturing       | G2      | 6192  | 24   | 4038 | 26    | 0.44
suturing       | G3      | 8412  | 30   | 5437 | 54    | 0.62
suturing       | G4      | 5239  | 55   | 3550 | 85    | 0.93
suturing       | G5      | 177   | 31   | 0    | 0     | n/a
suturing       | G6      | 6882  | 57   | 4504 | 81    | 0.96
suturing       | G8      | 1483  | 33   | 352  | 17    | 0.58
suturing       | G10     | 439   | 0    | 409  | 0     | n/a
suturing       | G11     | 569   | 0    | 314  | 0     | n/a
block_transfer | G2      | 2633  | 0    | 666  | 0     | n/a
block_transfer | G5      | 5451  | 52   | 1416 | 50    | 0.63
block_transfer | G6      | 2246  | 0    | 615  | 0     | n/a
block_transfer | G11     | 3821  | 11   | 1032 | 17    | 0.77
block_transfer | G12     | 2967  | 0    | 759  | 0     | n/a
""",
    table9: """\
Table IX: per-gesture pipeline component effects (PB = perfect boundaries)
Task           | G   | React(ms) PB | F1 PB | Jitter(ms) | GestAcc% | ErrJitter(ms) | React(ms) pipe | F1 pipe
---------------+-----+--------------+-------+------------+----------+---------------+----------------+--------
suturing       | G1  | -1817        | 0.11  | -325       | 53.5     | -250          | -167           | 0.30
suturing       | G2  | +5700        | 0.25  | +130       | 97.1     | +114          | +7300          | 0.26
suturing       | G3  | +5002        | 0.46  | +439       | 96.5     | +532          | +5545          | 0.47
suturing       | G4  | +933         | 0.93  | +412       | 84.6     | +521          | +2105          | 0.90
suturing       | G6  | +8014        | 0.93  | +319       | 97.4     | +429          | +8444          | 0.92
suturing       | G8  | +6133        | n/a   | -117       | 67.9     | -1400         | +6133          | 0.49
suturing       | G9  | n/a          | n/a   | n/a        | 0.0      | n/a           | n/a            | n/a
suturing       | G10 | n/a          | n/a   | -757       | 24.7     | n/a           | n/a            | n/a
suturing       | G11 | n/a          | n/a   | -275       | 47.1     | n/a           | n/a            | n/a
block_transfer | G2  | n/a          | n/a   | +0         | 95.0     | n/a           | n/a            | n/a
block_transfer | G5  | -306         | 0.49  | +217       | 94.6     | +178          | -89            | 0.48
block_transfer | G6  | n/a          | n/a   | +0         | 83.9     | n/a           | n/a            | n/a
block_transfer | G11 | n/a          | 0.35  | +111       | 95.5     | +217          | n/a            | 0.36
block_transfer | G12 | n/a          | n/a   | +92        | 97.6     | n/a           | n/a            | n/a
""",
    figure9: """\
Figure 9: best/median/worst per-demo ROC curves
Setup                | Curve  | AUC   | TPR@0.0 | TPR@0.1 | TPR@0.2 | TPR@0.3 | TPR@0.4 | TPR@0.5 | TPR@0.6 | TPR@0.7 | TPR@0.8 | TPR@0.9 | TPR@1.0
---------------------+--------+-------+---------+---------+---------+---------+---------+---------+---------+---------+---------+---------+--------
context-specific     | best   | 0.790 | 0.00    | 0.51    | 0.65    | 0.77    | 0.80    | 0.84    | 0.85    | 0.90    | 0.96    | 1.00    | 1.00
context-specific     | median | 0.775 | 0.00    | 0.49    | 0.58    | 0.68    | 0.77    | 0.85    | 0.89    | 0.92    | 0.95    | 0.98    | 1.00
context-specific     | worst  | 0.679 | 0.00    | 0.33    | 0.41    | 0.49    | 0.60    | 0.71    | 0.81    | 0.88    | 0.96    | 0.99    | 1.00
non-context-specific | best   | 0.829 | 0.00    | 0.63    | 0.72    | 0.79    | 0.84    | 0.88    | 0.91    | 0.93    | 0.96    | 0.98    | 1.00
non-context-specific | median | 0.729 | 0.14    | 0.43    | 0.49    | 0.59    | 0.73    | 0.81    | 0.85    | 0.88    | 0.91    | 0.99    | 1.00
non-context-specific | worst  | 0.702 | 0.06    | 0.35    | 0.47    | 0.58    | 0.68    | 0.77    | 0.82    | 0.86    | 0.91    | 0.96    | 1.00
""",
}


@pytest.mark.parametrize("module", PRINTED, ids=lambda module: module.__name__.split(".")[-1])
def test_printed_digits(module, smoke):
    result = smoke(module)
    rows = result[0] if module is table3 else result  # (rows, campaign)
    printed = [line.rstrip() for line in module.render(rows).splitlines()]
    assert printed == PRINTED[module].splitlines()
