"""Element-wise activation layers (ReLU, Tanh, Sigmoid).

Softmax is fused into :class:`repro.nn.losses.SoftmaxCrossEntropy` (and
sigmoid into :class:`repro.nn.losses.SigmoidBinaryCrossEntropy`) for the
usual numerically-stable combined gradient; the standalone layers here are
for hidden activations.
"""

from __future__ import annotations

import numpy as np

from .base import Layer


class _Elementwise(Layer):
    """Shared scaffolding for parameter-free element-wise layers."""

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        del rng
        self._input_shape = tuple(input_shape)
        self._output_shape = tuple(input_shape)
        self.built = True

    def _fn(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _grad(self, cached: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __init__(self) -> None:
        super().__init__()
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        out = self._fn(np.asarray(x, dtype=float))
        if training:
            self._cache = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._check_built()
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        grad = self._grad(self._cache, grad_output)
        self._cache = None
        return grad


class ReLU(_Elementwise):
    """Rectified linear unit, ``max(0, x)``."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def _grad(self, cached: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (cached > 0.0)


class Tanh(_Elementwise):
    """Hyperbolic tangent."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def _grad(self, cached: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - cached**2)


class Sigmoid(_Elementwise):
    """Logistic sigmoid."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(x)

    def _grad(self, cached: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * cached * (1.0 - cached)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic sigmoid.

    ``1 / (1 + exp(-x))`` where ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    elsewhere, computed without splitting the array: both branches
    exponentiate ``-|x|`` and divide by ``1 + exp(-|x|)``, so only the
    numerator is selected.  Every element sees the float operations the
    two-branch form performs on it (the oracle in
    ``tests/nn/test_inference_fastpath.py`` pins the bits).
    """
    out = np.empty_like(x, dtype=float)
    np.copysign(x, -1.0, out=out)  # -|x|
    np.exp(out, out=out)
    denom = out + 1.0
    np.putmask(out, x >= 0, 1.0)
    np.divide(out, denom, out=out)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)
