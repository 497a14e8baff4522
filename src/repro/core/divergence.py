"""Erroneous-gesture distribution analysis (paper Figure 5).

The paper models erroneous-gesture kinematics as samples from per-class
distributions estimated with Gaussian kernels and compares classes with
the Jensen-Shannon divergence, finding high divergence between the
frequently-occurring classes (G2, G3, G4, G6) — evidence that errors are
context-specific.

High-dimensional KDE is ill-posed, so (as is standard) the kinematics are
first projected onto their top principal components; densities are
evaluated on a shared grid over the projected space.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError
from ..gestures.vocabulary import Gesture
from ..jigsaws.dataset import WindowedData

#: Classes with fewer samples than this are skipped (the paper "was not
#: able to compute meaningful distributions due to small sample sizes").
MIN_SAMPLES = 50


def _project(samples: np.ndarray, components: np.ndarray, mean: np.ndarray) -> np.ndarray:
    return (samples - mean) @ components.T


def _pca(data: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Principal axes (rows) and mean of ``data``."""
    mean = data.mean(axis=0)
    centred = data - mean
    # SVD of the (n, d) matrix; right singular vectors are the axes.
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    return vt[:n_components], mean


def js_divergence_matrix(
    data: WindowedData,
    n_components: int = 2,
    grid_points: int = 24,
    min_samples: int = MIN_SAMPLES,
    max_samples_per_class: int = 2000,
    rng_seed: int = 0,
) -> tuple[np.ndarray, list[Gesture]]:
    """Pairwise JS divergence between erroneous-gesture distributions.

    Parameters
    ----------
    data:
        Windowed dataset with gesture and unsafe labels; only unsafe
        windows participate.
    n_components:
        PCA dimensionality for the KDE (1 or 2 keep the grid tractable).
    grid_points:
        Grid resolution per dimension for density evaluation.

    Returns
    -------
    (matrix, gestures)
        ``matrix[i, j]`` is the JSD (nats, in [0, ln 2]) between the
        erroneous distributions of ``gestures[i]`` and ``gestures[j]``.
    """
    if n_components not in (1, 2):
        raise DatasetError("n_components must be 1 or 2 for gridded KDE")
    unsafe_mask = data.unsafe == 1
    if not unsafe_mask.any():
        raise DatasetError("no erroneous windows in the dataset")
    # Flatten windows to per-sample vectors.
    x_all = data.x[unsafe_mask].reshape(int(unsafe_mask.sum()), -1)
    gestures_all = data.gesture[unsafe_mask]

    rng = np.random.default_rng(rng_seed)
    by_class: dict[Gesture, np.ndarray] = {}
    for class_idx in np.unique(gestures_all):
        rows = x_all[gestures_all == class_idx]
        if rows.shape[0] < min_samples:
            continue
        if rows.shape[0] > max_samples_per_class:
            rows = rows[rng.permutation(rows.shape[0])[:max_samples_per_class]]
        by_class[Gesture.from_class_index(int(class_idx))] = rows
    if len(by_class) < 2:
        raise DatasetError("need at least two classes with enough samples")

    pooled = np.concatenate(list(by_class.values()), axis=0)
    components, mean = _pca(pooled, n_components)
    projected = {
        g: _project(rows, components, mean) for g, rows in by_class.items()
    }

    # Shared evaluation grid covering all classes.
    stacked = np.concatenate(list(projected.values()), axis=0)
    lo = stacked.min(axis=0) - 1e-6
    hi = stacked.max(axis=0) + 1e-6
    axes = [np.linspace(lo[d], hi[d], grid_points) for d in range(n_components)]
    if n_components == 1:
        grid = axes[0][None, :]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.reshape(-1) for m in mesh])

    # Function-local: scipy.stats costs ~0.7 s to import and only this
    # figure needs it, while every `import repro.serving` passes through
    # this module.
    from scipy.stats import gaussian_kde

    densities: dict[Gesture, np.ndarray] = {}
    for gesture, rows in projected.items():
        kde = gaussian_kde(rows.T)
        density = kde(grid)
        total = density.sum()
        densities[gesture] = density / total if total > 0 else density

    order = sorted(densities, key=int)
    n = len(order)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            jsd = _js_divergence(densities[order[i]], densities[order[j]])
            matrix[i, j] = matrix[j, i] = jsd
    return matrix, order


def _js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence between two discrete distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)
    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-300))))


def pairwise_divergence_report(
    matrix: np.ndarray, gestures: list[Gesture]
) -> str:
    """Render the divergence matrix as an ASCII heat table."""
    from ..eval.reports import format_table

    headers = ["EG", *[str(g) for g in gestures]]
    rows = []
    for i, g in enumerate(gestures):
        rows.append([str(g), *[f"{matrix[i, j]:.3f}" for j in range(len(gestures))]])
    return format_table(headers, rows, title="Pairwise JS divergence (nats)")
