"""Batch normalisation.

The paper uses batch-norm layers "to improve the learning process"
(Section III).  This implementation normalises over the batch axis (and
the time axis for 3-D sequence input) per feature channel, with learned
scale/shift and running statistics for inference.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError, ShapeError
from .base import Layer


class BatchNorm(Layer):
    """Per-channel batch normalisation for 2-D or 3-D input.

    For ``(batch, features)`` input statistics are computed over the batch
    axis; for ``(batch, time, channels)`` over batch and time jointly.
    During inference an exponential moving average of the training
    statistics is used.
    """

    def __init__(self, momentum: float = 0.9, epsilon: float = 1e-5) -> None:
        super().__init__()
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if epsilon <= 0.0:
            raise ConfigurationError("epsilon must be positive")
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self.running_mean: np.ndarray | None = None
        self.running_var: np.ndarray | None = None
        self._cache: dict[str, np.ndarray] | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        del rng
        if len(input_shape) not in (1, 2):
            raise ShapeError(
                "BatchNorm expects (features,) or (time, channels) input shape, "
                f"got {input_shape}"
            )
        channels = input_shape[-1]
        self.params = {"gamma": np.ones(channels), "beta": np.zeros(channels)}
        self.grads = {}  # allocated by the first backward()
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._input_shape = tuple(input_shape)
        self._output_shape = tuple(input_shape)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        x = np.asarray(x, dtype=float)
        if x.ndim not in (2, 3):
            raise ShapeError(f"BatchNorm input must be 2-D or 3-D, got {x.shape}")
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            assert self.running_mean is not None and self.running_var is not None
            self.running_mean[...] = (
                self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            )
            self.running_var[...] = (
                self.momentum * self.running_var + (1.0 - self.momentum) * var
            )
        else:
            assert self.running_mean is not None and self.running_var is not None
            mean = self.running_mean
            var = self.running_var
        inv_std = self.inverse_std(var)
        out, x_hat = self.scale_shift(
            x, mean, inv_std, self.params["gamma"], self.params["beta"]
        )
        if training:
            self._cache = {
                "x_hat": x_hat,
                "inv_std": inv_std,
                "n": np.array([int(np.prod([x.shape[a] for a in axes]))]),
            }
        return out

    def inverse_std(self, var: np.ndarray) -> np.ndarray:
        """``1 / sqrt(var + epsilon)``: the statistics half of the
        forward arithmetic, written once.  At inference it depends on
        the running variance only, so the inference steps of
        :mod:`repro.nn.backends.library` compute it once, at build."""
        return 1.0 / np.sqrt(var + self.epsilon)

    @staticmethod
    def scale_shift(
        x: np.ndarray, mean, inv_std, gamma, beta
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(output, x_hat)``: the element-wise half of the forward
        arithmetic, written once.

        :meth:`forward` passes the batch's statistics when training and
        the running ones at inference; the inference steps of
        :mod:`repro.nn.backends.library` pass the running statistics
        with :meth:`inverse_std` worked out at build — the stacked
        library pass one row of each per input row, from the member
        the row belongs to.
        """
        x_hat = (x - mean) * inv_std
        return gamma * x_hat + beta, x_hat

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._check_built()
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat = self._cache["x_hat"]
        inv_std = self._cache["inv_std"]
        n = float(self._cache["n"][0])
        grad_output = np.asarray(grad_output, dtype=float)
        axes = tuple(range(grad_output.ndim - 1))

        grads = self._gradient_buffers()
        grads["gamma"][...] = (grad_output * x_hat).sum(axis=axes)
        grads["beta"][...] = grad_output.sum(axis=axes)

        d_xhat = grad_output * self.params["gamma"]
        # Standard batch-norm backward, vectorised over channels.
        grad_input = (
            inv_std
            / n
            * (
                n * d_xhat
                - d_xhat.sum(axis=axes)
                - x_hat * (d_xhat * x_hat).sum(axis=axes)
            )
        )
        self._cache = None
        return grad_input

    def get_config(self) -> dict:
        return {"momentum": self.momentum, "epsilon": self.epsilon}
