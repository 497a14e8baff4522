"""Pooling and reshaping layers for 1-D CNNs."""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError, ShapeError
from .base import Layer


class MaxPool1D(Layer):
    """Non-overlapping max pooling along the time axis.

    Input ``(batch, time, channels)``; time steps not filling a complete
    pool window are dropped (Keras ``"valid"`` behaviour).
    """

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ConfigurationError("pool_size must be >= 1")
        self.pool_size = int(pool_size)
        self._cache: dict[str, np.ndarray] | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        del rng
        if len(input_shape) != 2:
            raise ShapeError(
                f"MaxPool1D expects (time, channels) input shape, got {input_shape}"
            )
        time_steps, channels = input_shape
        out_time = time_steps // self.pool_size
        if out_time < 1:
            raise ConfigurationError(
                f"pool_size {self.pool_size} larger than input length {time_steps}"
            )
        self._input_shape = tuple(input_shape)
        self._output_shape = (out_time, channels)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        x = self._require_ndim(x, 3, "MaxPool1D input")
        out, blocks = self.pool(x, self.pool_size)
        if training:
            mask = blocks == out[:, :, None, :]
            # Break ties: keep only the first max within each pool window.
            first = np.cumsum(mask, axis=2) == 1
            self._cache = {
                "mask": mask & first,
                "x_shape": np.array(x.shape),
            }
        return out

    @staticmethod
    def pool(x: np.ndarray, pool_size: int) -> tuple[np.ndarray, np.ndarray]:
        """``(output, blocks)``: the forward arithmetic, written once
        (the inference steps of :mod:`repro.nn.backends.library` call
        it too)."""
        batch, time_steps, channels = x.shape
        out_time = time_steps // pool_size
        trimmed = x[:, : out_time * pool_size, :]
        blocks = trimmed.reshape(batch, out_time, pool_size, channels)
        return blocks.max(axis=2), blocks

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._check_built()
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        mask = self._cache["mask"]
        batch, time_steps, channels = (int(v) for v in self._cache["x_shape"])
        out_time = mask.shape[1]
        grad_output = np.asarray(grad_output, dtype=float)
        if grad_output.shape != (batch, out_time, channels):
            raise ShapeError(
                f"grad_output shape {grad_output.shape} does not match "
                f"({batch}, {out_time}, {channels})"
            )
        d_blocks = mask * grad_output[:, :, None, :]
        grad_input = np.zeros((batch, time_steps, channels))
        grad_input[:, : out_time * self.pool_size, :] = d_blocks.reshape(
            batch, out_time * self.pool_size, channels
        )
        self._cache = None
        return grad_input

    def get_config(self) -> dict:
        return {"pool_size": self.pool_size}


class GlobalAveragePool1D(Layer):
    """Mean over the time axis: ``(batch, time, channels) -> (batch, channels)``."""

    def __init__(self) -> None:
        super().__init__()
        self._time_steps: int | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        del rng
        if len(input_shape) != 2:
            raise ShapeError(
                "GlobalAveragePool1D expects (time, channels) input shape, "
                f"got {input_shape}"
            )
        self._input_shape = tuple(input_shape)
        self._output_shape = (input_shape[1],)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        x = self._require_ndim(x, 3, "GlobalAveragePool1D input")
        if training:
            self._time_steps = x.shape[1]
        return self.average(x)

    @staticmethod
    def average(x: np.ndarray) -> np.ndarray:
        """The forward arithmetic, written once: the sum over the time
        axis over its length — what ``x.mean(axis=1)`` computes, without
        its Python-level dispatch (the inference steps of
        :mod:`repro.nn.backends.library` call it too)."""
        return np.add.reduce(x, axis=1) / x.shape[1]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._check_built()
        if self._time_steps is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_output = np.asarray(grad_output, dtype=float)
        grad_input = np.repeat(
            grad_output[:, None, :] / self._time_steps, self._time_steps, axis=1
        )
        self._time_steps = None
        return grad_input


class Flatten(Layer):
    """Collapse all non-batch axes: ``(batch, *dims) -> (batch, prod(dims))``."""

    def __init__(self) -> None:
        super().__init__()
        self._forward_shape: tuple[int, ...] | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        del rng
        self._input_shape = tuple(input_shape)
        self._output_shape = (int(np.prod(input_shape)),)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        x = np.asarray(x, dtype=float)
        if training:
            self._forward_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._check_built()
        if self._forward_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_input = np.asarray(grad_output, dtype=float).reshape(self._forward_shape)
        self._forward_shape = None
        return grad_input
