"""Layer protocol for the numpy deep-learning framework.

A :class:`Layer` owns named parameter arrays and matching gradient arrays.
``build`` is called once with the input shape (excluding the batch axis)
and an rng and allocates the parameters only; the gradient arrays are
allocated by the first ``backward`` (:meth:`Layer._gradient_buffers`), so
a model that only runs inference holds its weights and nothing else.
``forward`` caches whatever the matching ``backward`` needs.
Layers are single-use per forward/backward pair, as in any define-by-run
framework.
"""

from __future__ import annotations

import numpy as np

from ...errors import NotFittedError, ShapeError


class Layer:
    """Base class for all layers.

    Subclasses must implement :meth:`build`, :meth:`forward` and
    :meth:`backward`, and may expose trainable state through
    :attr:`params` / :attr:`grads` (dicts sharing keys; ``grads`` is
    empty until the first :meth:`backward`).
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False
        self._input_shape: tuple[int, ...] | None = None
        self._output_shape: tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters for ``input_shape`` (batch axis excluded)."""
        raise NotImplementedError

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output; cache intermediates when ``training``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate: fill ``self.grads`` and return grad wrt input."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def input_shape(self) -> tuple[int, ...]:
        """Input shape (excluding batch) the layer was built for."""
        if self._input_shape is None:
            raise NotFittedError(f"{type(self).__name__} has not been built")
        return self._input_shape

    @property
    def output_shape(self) -> tuple[int, ...]:
        """Output shape (excluding batch) the layer produces."""
        if self._output_shape is None:
            raise NotFittedError(f"{type(self).__name__} has not been built")
        return self._output_shape

    def _gradient_buffers(self) -> dict[str, np.ndarray]:
        """:attr:`grads`, allocated on first use: one zeroed array per
        parameter, in :attr:`params` order, all at once.  ``backward``
        writes into them in place, so later steps allocate nothing."""
        if not self.grads:
            self.grads = {key: np.zeros_like(val) for key, val in self.params.items()}
        return self.grads

    def n_parameters(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def get_config(self) -> dict:
        """Constructor arguments needed to re-create this layer."""
        return {}

    def _check_built(self) -> None:
        if not self.built:
            raise NotFittedError(
                f"{type(self).__name__} must be built before forward/backward"
            )

    @staticmethod
    def _require_ndim(x: np.ndarray, ndim: int, name: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != ndim:
            raise ShapeError(f"{name} must be {ndim}-D, got shape {x.shape}")
        return x
