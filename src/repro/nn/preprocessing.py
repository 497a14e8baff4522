"""Data preprocessing: standardisation, one-hot encoding, splits.

Replaces the scikit-learn preprocessing the paper uses (Section IV).
"""

from __future__ import annotations

import numpy as np

from ..config import as_generator
from ..errors import NotFittedError, ShapeError


class StandardScaler:
    """Zero-mean unit-variance standardisation over the feature axis.

    Works on 2-D ``(samples, features)`` data and on 3-D windowed data
    ``(samples, window, features)`` where statistics are computed per
    feature over samples and time jointly.  Constant features are left
    centred but unscaled (variance floor) so they do not blow up.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        """Estimate per-feature mean and standard deviation."""
        x = self._check(x)
        axes = tuple(range(x.ndim - 1))
        self.mean_ = x.mean(axis=axes)
        std = x.std(axis=axes)
        self.scale_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Standardise ``x`` with the fitted statistics."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler must be fitted before transform")
        x = self._check(x)
        if x.shape[-1] != self.mean_.shape[0]:
            raise ShapeError(
                f"scaler fitted for {self.mean_.shape[0]} features, got {x.shape[-1]}"
            )
        return self.standardise(x, self.mean_, self.scale_)

    @staticmethod
    def standardise(x: np.ndarray, mean, scale) -> np.ndarray:
        """``(x - mean) / scale``: the arithmetic of :meth:`transform`,
        written once (the stacked library pass of
        :mod:`repro.nn.backends.library` hands it a mean and scale row
        per window)."""
        return (x - mean) / scale

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        """Undo :meth:`transform`."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler must be fitted before inverse")
        x = self._check(x)
        return x * self.scale_ + self.mean_

    @staticmethod
    def _check(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim < 2:
            raise ShapeError(f"expected at least 2-D data, got shape {x.shape}")
        return x


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Integer class labels -> one-hot matrix ``(n, n_classes)``."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeError(
            f"labels outside [0, {n_classes}): min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def train_val_split(
    x: np.ndarray,
    y: np.ndarray,
    val_fraction: float = 0.15,
    rng: int | np.random.Generator | None = 0,
    stratify: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random train/validation split.

    With ``stratify=True`` each class keeps (approximately) its global
    proportion in both splits — important for the heavily imbalanced
    erroneous-gesture datasets.

    Returns ``(x_train, y_train, x_val, y_val)``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if not 0.0 < val_fraction < 1.0:
        raise ShapeError("val_fraction must be in (0, 1)")
    gen = as_generator(rng)
    n = x.shape[0]
    if stratify:
        val_idx: list[int] = []
        for cls in np.unique(y):
            cls_idx = np.flatnonzero(y == cls)
            gen.shuffle(cls_idx)
            n_val = max(1, int(round(val_fraction * cls_idx.size)))
            if n_val >= cls_idx.size:
                n_val = cls_idx.size - 1
            val_idx.extend(cls_idx[:n_val].tolist())
        val_mask = np.zeros(n, dtype=bool)
        val_mask[val_idx] = True
    else:
        order = gen.permutation(n)
        n_val = max(1, int(round(val_fraction * n)))
        if n_val >= n:
            n_val = n - 1
        val_mask = np.zeros(n, dtype=bool)
        val_mask[order[:n_val]] = True
    return x[~val_mask], y[~val_mask], x[val_mask], y[val_mask]
