"""Paper Table VI: erroneous-gesture classification for Block Transfer.

Same ablation machinery as Table V, applied to the Raven II simulator
dataset with the paper's Block Transfer settings: input window of 10,
Cartesian + Grasper features.
"""

from __future__ import annotations

from ..config import WindowConfig
from .common import ExperimentScale
from .table5 import Table5Row, render as _render, run_grid

#: The paper's Table VI grid: (setup, architecture, features).
TABLE_VI_GRID: tuple[tuple[str, str, str | None], ...] = (
    ("gesture-specific", "conv", "CG"),
    ("gesture-specific", "lstm", "CG"),
    ("non-gesture-specific", "conv", "CG"),
)


def run(
    scale: "str | ExperimentScale" = "fast", seed: int = 0, held_out_trial: int = 2
) -> list[Table5Row]:
    """Evaluate the Table VI grid on one Block Transfer LOSO fold."""
    window = WindowConfig(10, 1)  # paper: time-window 10, stride 1
    return run_grid("block_transfer", scale, seed, held_out_trial, TABLE_VI_GRID, window)


def render(rows: list[Table5Row]) -> str:
    """ASCII rendering of the Block Transfer grid results."""
    return _render(
        rows,
        title="Table VI: erroneous gesture classification (Block Transfer, window=10)",
    )
