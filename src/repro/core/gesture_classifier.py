"""Surgical gesture segmentation and classification.

The operational-context inference stage of the monitor: a stacked LSTM
over sliding kinematics windows emitting per-frame gesture probabilities
(paper Section III, "Gesture Segmentation and Classification").  The
paper's best model is a 2-layer stacked LSTM (512 + 96 units) followed by
a 64-unit fully-connected ReLU layer and softmax; this class builds the
same architecture with configurable (default smaller, CPU-friendly)
widths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..config import TrainingConfig, WindowConfig
from ..errors import NotFittedError
from ..gestures.vocabulary import N_GESTURE_CLASSES
from ..jigsaws.dataset import SurgicalDataset, WindowedData
from ..kinematics.trajectory import Trajectory
from ..kinematics.windows import sliding_windows_view
from ..nn.model import PREDICT_CHUNK


@dataclass
class GestureClassifierConfig:
    """Architecture and training hyper-parameters.

    The paper's full-scale architecture is ``lstm_units=(512, 96)``,
    ``dense_units=64``; the defaults here are narrower so LOSO training
    finishes in CPU-minutes while preserving the architecture family.
    """

    lstm_units: tuple[int, ...] = (64, 32)
    dense_units: int = 32
    window: WindowConfig = field(default_factory=lambda: WindowConfig(5, 1))
    feature_indices: np.ndarray | None = None
    dropout: float = 0.2
    use_batch_norm: bool = True
    training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(learning_rate=1e-3, max_epochs=12)
    )
    #: Optional cap on training windows per fit (stratified subsample);
    #: None uses everything.
    max_train_windows: int | None = 20000


class GestureClassifier:
    """Stacked-LSTM gesture classifier with per-frame streaming output."""

    def __init__(self, config: GestureClassifierConfig | None = None, seed: int = 0):
        self.config = config or GestureClassifierConfig()
        self.seed = seed
        self.model: nn.Sequential | None = None
        self.scaler = nn.StandardScaler()
        self._fitted = False

    # ------------------------------------------------------------------
    def _build_model(self) -> nn.Sequential:
        cfg = self.config
        layers: list[nn.Layer] = []
        for i, units in enumerate(cfg.lstm_units):
            last = i == len(cfg.lstm_units) - 1
            layers.append(nn.LSTM(units, return_sequences=not last))
        if cfg.use_batch_norm:
            layers.append(nn.BatchNorm())
        layers.append(nn.Dense(cfg.dense_units))
        layers.append(nn.ReLU())
        if cfg.dropout > 0:
            layers.append(nn.Dropout(cfg.dropout))
        layers.append(nn.Dense(N_GESTURE_CLASSES))
        model = nn.Sequential(layers, seed=self.seed)
        model.compile(
            loss=nn.SoftmaxCrossEntropy(),
            optimizer=nn.Adam(cfg.training.learning_rate),
        )
        return model

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: SurgicalDataset,
        verbose: bool = False,
    ) -> nn.History:
        """Train on a dataset (validation split + early stopping)."""
        cfg = self.config
        data = dataset.windows(cfg.window, feature_indices=cfg.feature_indices)
        x, y = data.x, data.gesture
        if cfg.max_train_windows is not None and x.shape[0] > cfg.max_train_windows:
            x, y = _stratified_subsample(
                x, y, cfg.max_train_windows, seed=self.seed
            )
        x = self.scaler.fit_transform(x)
        x_tr, y_tr, x_val, y_val = nn.train_val_split(
            x, y, cfg.training.validation_fraction, rng=self.seed, stratify=True
        )
        self.model = self._build_model()
        callbacks = [
            nn.LearningRateScheduler(
                nn.StepDecay(
                    cfg.training.learning_rate,
                    factor=cfg.training.lr_decay_factor,
                    every=cfg.training.lr_decay_every,
                )
            ),
            nn.EarlyStopping(patience=cfg.training.early_stopping_patience),
        ]
        history = self.model.fit(
            x_tr,
            y_tr,
            epochs=cfg.training.max_epochs,
            batch_size=cfg.training.batch_size,
            validation_data=(x_val, y_val),
            callbacks=callbacks,
            verbose=verbose,
        )
        self._fitted = True
        return history

    # ------------------------------------------------------------------
    def predict_windows(self, data: WindowedData) -> np.ndarray:
        """Predicted gesture class indices for pre-extracted windows."""
        self._check_fitted()
        assert self.model is not None
        x = self.scaler.transform(data.x)
        return self.model.predict(x)

    def predict_frames(self, trajectory: Trajectory) -> tuple[np.ndarray, float]:
        """Per-frame gesture numbers (1-based) for one demonstration.

        The window's prediction is assigned to its final frame (causal);
        leading frames before the first complete window inherit the first
        prediction.  A trajectory shorter than one window has no gesture
        context and returns all zeros ("unknown"), which downstream
        consumers treat as safe.  Returns ``(gesture_numbers,
        mean_ms_per_window)``.
        """
        self._check_fitted()
        assert self.model is not None
        cfg = self.config
        frames = trajectory.frames
        if cfg.feature_indices is not None:
            frames = frames[:, cfg.feature_indices]
        # Zero-copy strided view, standardised and scored one chunk of
        # windows at a time: the working set is one chunk's, however
        # long the demonstration (rows are independent, so the bits are
        # those of one call over every window).
        windows, ends = sliding_windows_view(frames, cfg.window)
        if ends.size == 0:
            return np.zeros(trajectory.n_frames, dtype=int), 0.0
        n_windows = windows.shape[0]
        class_idx = np.empty(n_windows, dtype=np.intp)
        start_time = time.perf_counter()
        for start in range(0, n_windows, PREDICT_CHUNK):
            chunk = slice(start, start + PREDICT_CHUNK)
            class_idx[chunk] = self.model.predict(self.scaler.transform(windows[chunk]))
        elapsed_ms = 1000.0 * (time.perf_counter() - start_time) / n_windows
        # Window i's prediction covers frames [ends[i], ends[i+1]) — one
        # np.repeat instead of a per-window Python fill loop.
        numbers = class_idx + 1
        lengths = np.diff(np.append(ends, trajectory.n_frames))
        out = np.empty(trajectory.n_frames, dtype=int)
        out[: ends[0]] = numbers[0]
        out[ends[0] :] = np.repeat(numbers, lengths)
        return out, elapsed_ms

    def accuracy(self, dataset: SurgicalDataset) -> float:
        """Window-level classification accuracy over a dataset."""
        data = dataset.windows(
            self.config.window, feature_indices=self.config.feature_indices
        )
        predicted = self.predict_windows(data)
        return float((predicted == data.gesture).mean())

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("GestureClassifier must be fitted first")


def _stratified_subsample(
    x: np.ndarray, y: np.ndarray, max_rows: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Subsample rows keeping every class's share (small classes intact)."""
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(y, return_counts=True)
    fraction = max_rows / y.shape[0]
    keep: list[np.ndarray] = []
    for cls, count in zip(classes, counts):
        idx = np.flatnonzero(y == cls)
        n_keep = max(min(count, 25), int(round(count * fraction)))
        rng.shuffle(idx)
        keep.append(idx[:n_keep])
    selected = np.concatenate(keep)
    rng.shuffle(selected)
    return x[selected], y[selected]
