"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError, ShapeError
from ..initializers import glorot_uniform, zeros_init
from .base import Layer
from .contract import contract


class Dense(Layer):
    """Affine transform ``y = x @ W + b`` on the last axis.

    Accepts 2-D ``(batch, features)`` input; 3-D sequence input
    ``(batch, time, features)`` is transformed time-step-wise (the same
    weights applied at every step), matching Keras ``Dense`` semantics.
    """

    def __init__(self, units: int) -> None:
        super().__init__()
        if units < 1:
            raise ConfigurationError("units must be >= 1")
        self.units = int(units)
        self._cache_x: np.ndarray | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) not in (1, 2):
            raise ShapeError(
                f"Dense expects (features,) or (time, features) input, got {input_shape}"
            )
        in_features = input_shape[-1]
        self.params = {
            "W": glorot_uniform((in_features, self.units), rng),
            "b": zeros_init((self.units,), rng),
        }
        self.grads = {}  # allocated by the first backward()
        self._input_shape = tuple(input_shape)
        self._output_shape = (*input_shape[:-1], self.units)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.params["W"].shape[0]:
            raise ShapeError(
                f"Dense built for {self.params['W'].shape[0]} input features, "
                f"got {x.shape[-1]}"
            )
        if training:
            self._cache_x = x
        return self.affine(x, self.params["W"], self.params["b"], contract, training)

    @staticmethod
    def affine(x, w, b, contract, training: bool = False) -> np.ndarray:
        """``x @ w + b``: the layer's forward arithmetic, written once.

        :meth:`forward` passes its own parameters and
        :func:`~repro.nn.layers.contract.contract`; the stacked library
        pass (:mod:`repro.nn.backends.library`) passes every member's
        weights, a bias row per input row and its own contraction.
        """
        return contract(x, w, training) + b

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._check_built()
        if self._cache_x is None:
            raise ShapeError("backward called before a training forward pass")
        x = self._cache_x
        # Collapse any leading axes so 2-D and 3-D inputs share one path.
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad_output.reshape(-1, self.units)
        grads = self._gradient_buffers()
        grads["W"][...] = flat_x.T @ flat_g
        grads["b"][...] = flat_g.sum(axis=0)
        grad_input = grad_output @ self.params["W"].T
        self._cache_x = None
        return grad_input

    def get_config(self) -> dict:
        return {"units": self.units}
