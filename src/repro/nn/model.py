"""Sequential model: compose layers, train with mini-batch gradient descent."""

from __future__ import annotations

import time

import numpy as np

from ..config import as_generator
from ..errors import ConfigurationError, NotFittedError, ShapeError
from .callbacks import Callback, History
from .layers.base import Layer
from .losses import Loss
from .optimizers import Optimizer


#: Rows per forward of :meth:`Sequential.predict_proba` unless the caller
#: says otherwise — the chunk of the ``reference`` backend's plan too
#: (:mod:`repro.nn.backends.reference`).  Inference rows are independent,
#: so the chunk bounds the working set (at the paper's widths about 5 MB
#: of first-layer projections), not the bits.
PREDICT_CHUNK = 64


def hard_predictions(probs: np.ndarray) -> np.ndarray:
    """Argmax for multi-class probabilities, 0.5 threshold for binary."""
    if probs.ndim == 2 and probs.shape[1] > 1:
        return probs.argmax(axis=1)
    return (probs.reshape(-1) >= 0.5).astype(int)


class Sequential:
    """A linear stack of layers (Keras-style).

    Parameters
    ----------
    layers:
        The layer stack, applied in order.
    seed:
        Seed for weight initialisation and batch shuffling.

    Example
    -------
    >>> from repro import nn
    >>> model = nn.Sequential([nn.Dense(8), nn.ReLU(), nn.Dense(2)], seed=0)
    >>> model.compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-2))
    >>> # model.fit(x_train, y_train, epochs=10)
    """

    def __init__(
        self,
        layers: list[Layer],
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if not layers:
            raise ConfigurationError("a Sequential model needs at least one layer")
        self.layers = list(layers)
        self._rng = as_generator(seed)
        self.loss: Loss | None = None
        self.optimizer: Optimizer | None = None
        self.built = False
        self.stop_training = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, input_shape: tuple[int, ...]) -> None:
        """Build every layer for ``input_shape`` (batch axis excluded)."""
        shape = tuple(int(s) for s in input_shape)
        for layer in self.layers:
            layer.build(shape, self._rng)
            shape = layer.output_shape
        self.built = True

    def compile(self, loss: Loss, optimizer: Optimizer) -> None:
        """Attach the loss and optimiser used by :meth:`fit`."""
        self.loss = loss
        self.optimizer = optimizer

    @property
    def output_shape(self) -> tuple[int, ...]:
        """Output shape of the final layer (excluding batch)."""
        if not self.built:
            raise NotFittedError("model has not been built")
        return self.layers[-1].output_shape

    def parameters(self) -> list[np.ndarray]:
        """All trainable parameter arrays, in layer order."""
        return [p for layer in self.layers for p in layer.params.values()]

    def state_arrays(self) -> list[np.ndarray]:
        """Parameters plus non-trainable buffers (BatchNorm running stats).

        Checkpointing must snapshot these together: restoring best-epoch
        weights against later-epoch normalisation statistics skews every
        prediction.
        """
        arrays = self.parameters()
        for layer in self.layers:
            running_mean = getattr(layer, "running_mean", None)
            running_var = getattr(layer, "running_var", None)
            if running_mean is not None:
                arrays.append(running_mean)
            if running_var is not None:
                arrays.append(running_var)
        return arrays

    def gradients(self) -> list[np.ndarray]:
        """Gradient arrays parallel to :meth:`parameters`; empty until the
        first training step's ``backward`` allocates them."""
        return [g for layer in self.layers for g in layer.grads.values()]

    def n_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(layer.n_parameters() for layer in self.layers)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Raw model output (logits) for a batch."""
        if not self.built:
            self.build(np.asarray(x).shape[1:])
        out = np.asarray(x, dtype=float)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict_proba(
        self, x: np.ndarray, batch_size: int = PREDICT_CHUNK
    ) -> np.ndarray:
        """Class probabilities (loss's ``predict`` applied to logits).

        Inference is batch-size invariant: a sample scored alone yields
        the bit-identical probability it would get inside any larger
        batch: every contraction runs as GEMMs over whole ``ROW_BLOCK``-row
        blocks (see :mod:`repro.nn.layers.contract`).  The online serving
        engine relies on this to reproduce batched results exactly, and
        ``batch_size`` only sets how many rows one forward takes.
        """
        if self.loss is None:
            raise NotFittedError("call compile() before predict_proba()")
        x = np.asarray(x, dtype=float)
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start : start + batch_size], training=False)
            outputs.append(self.loss.predict(logits))
        if not outputs:
            return np.empty((0, *self.output_shape))
        if len(outputs) == 1:
            return outputs[0]
        return np.concatenate(outputs, axis=0)

    def predict(self, x: np.ndarray, batch_size: int = PREDICT_CHUNK) -> np.ndarray:
        """Hard predictions: argmax for multi-class, 0.5 threshold for binary."""
        return hard_predictions(self.predict_proba(x, batch_size=batch_size))

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 64,
        validation_data: tuple[np.ndarray, np.ndarray] | None = None,
        callbacks: list[Callback] | None = None,
        shuffle: bool = True,
        verbose: bool = False,
    ) -> History:
        """Mini-batch training loop.

        Returns the :class:`~repro.nn.callbacks.History` callback (one is
        appended automatically if the caller did not supply one).
        """
        if self.loss is None or self.optimizer is None:
            raise NotFittedError("call compile() before fit()")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ShapeError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]}"
            )
        if x.shape[0] == 0:
            raise ShapeError("cannot fit on an empty dataset")
        if not self.built:
            self.build(x.shape[1:])

        callbacks = list(callbacks or [])
        history = next(
            (cb for cb in callbacks if isinstance(cb, History)), None
        )
        if history is None:
            history = History()
            callbacks.append(history)

        self.stop_training = False
        for cb in callbacks:
            cb.on_train_begin(self)

        n = x.shape[0]
        for epoch in range(epochs):
            for cb in callbacks:
                cb.on_epoch_begin(self, epoch)
            order = self._rng.permutation(n) if shuffle else np.arange(n)
            epoch_loss = 0.0
            n_batches = 0
            start_time = time.perf_counter()
            for start in range(0, n, batch_size):
                batch_idx = order[start : start + batch_size]
                epoch_loss += self._train_batch(x[batch_idx], y[batch_idx])
                n_batches += 1
            logs: dict[str, float] = {
                "loss": epoch_loss / max(n_batches, 1),
                "epoch_seconds": time.perf_counter() - start_time,
                "learning_rate": self.optimizer.learning_rate,
            }
            if validation_data is not None:
                val_x, val_y = validation_data
                logs["val_loss"] = self.evaluate(val_x, val_y, batch_size=batch_size)
            if verbose:
                rendered = ", ".join(f"{k}={v:.4f}" for k, v in logs.items())
                print(f"epoch {epoch + 1}/{epochs}: {rendered}")
            stop = False
            for cb in callbacks:
                stop = cb.on_epoch_end(self, epoch, logs) or stop
            if stop or self.stop_training:
                break
        for cb in callbacks:
            cb.on_train_end(self)
        return history

    def _train_batch(self, x_batch: np.ndarray, y_batch: np.ndarray) -> float:
        assert self.loss is not None and self.optimizer is not None
        logits = self.forward(x_batch, training=True)
        loss_value = self.loss.value(logits, y_batch)
        grad = self.loss.gradient(logits, y_batch)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        self.optimizer.step(self.parameters(), self.gradients())
        return loss_value

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 512
    ) -> float:
        """Mean loss over a dataset (inference mode)."""
        if self.loss is None:
            raise NotFittedError("call compile() before evaluate()")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        total = 0.0
        count = 0
        for start in range(0, x.shape[0], batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.forward(xb, training=False)
            total += self.loss.value(logits, yb) * xb.shape[0]
            count += xb.shape[0]
        if count == 0:
            raise ShapeError("cannot evaluate on an empty dataset")
        return total / count

    def summary(self) -> str:
        """Human-readable layer table."""
        lines = [f"{'Layer':<24}{'Output shape':<20}{'Params':>10}"]
        lines.append("-" * 54)
        for layer in self.layers:
            shape = str(layer.output_shape) if layer.built else "?"
            lines.append(
                f"{type(layer).__name__:<24}{shape:<20}{layer.n_parameters():>10}"
            )
        lines.append("-" * 54)
        lines.append(f"total parameters: {self.n_parameters()}")
        return "\n".join(lines)
