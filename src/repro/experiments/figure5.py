"""Paper Figure 5: pairwise JS divergence between erroneous gestures.

Estimates each erroneous-gesture class's kinematics distribution with
Gaussian KDE (after PCA projection) and reports the pairwise
Jensen-Shannon divergence matrix; the paper observes high divergence
between the frequent classes G2, G3, G4 and G6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import WindowConfig
from ..core.divergence import js_divergence_matrix, pairwise_divergence_report
from ..gestures.vocabulary import Gesture
from .common import ExperimentScale, dataset_of


@dataclass
class Figure5Result:
    """The divergence matrix and its gesture ordering."""

    matrix: np.ndarray
    gestures: list[Gesture]

    def divergence(self, a: Gesture, b: Gesture) -> float:
        """JSD between two classes (nan when either is missing)."""
        try:
            i = self.gestures.index(a)
            j = self.gestures.index(b)
        except ValueError:
            return float("nan")
        return float(self.matrix[i, j])

    def mean_offdiagonal(self) -> float:
        """Mean pairwise divergence (upper triangle)."""
        n = len(self.gestures)
        values = [self.matrix[i, j] for i in range(n) for j in range(i + 1, n)]
        return float(np.mean(values)) if values else float("nan")


def run(
    scale: "str | ExperimentScale" = "fast",
    seed: int = 0,
    n_components: int = 2,
) -> Figure5Result:
    """Compute the Figure 5 divergence matrix on Suturing data."""
    data = dataset_of("suturing", scale, seed).windows(WindowConfig(5, 1))
    matrix, gestures = js_divergence_matrix(
        data, n_components=n_components, rng_seed=seed
    )
    return Figure5Result(matrix=matrix, gestures=gestures)


def render(result: Figure5Result) -> str:
    """ASCII heat table of the divergence matrix."""
    return pairwise_divergence_report(result.matrix, result.gestures)
