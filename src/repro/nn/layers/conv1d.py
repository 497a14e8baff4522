"""1-D convolution layer.

The paper's best-performing erroneous-gesture detectors are 1D-CNNs
(Tables V-VI, Discussion Section VI).  This layer convolves along the time
axis of ``(batch, time, channels)`` input using an im2col formulation so
both passes reduce to matrix multiplications.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError, ShapeError
from ..initializers import glorot_uniform, zeros_init
from .base import Layer
from .contract import contract


class Conv1D(Layer):
    """Temporal convolution: ``(batch, time, in_ch) -> (batch, time', filters)``.

    Parameters
    ----------
    filters:
        Number of output channels.
    kernel_size:
        Receptive-field length along the time axis.
    padding:
        ``"valid"`` (no padding, ``time' = time - kernel_size + 1``) or
        ``"same"`` (zero padding, ``time' = time``).
    """

    def __init__(
        self, filters: int, kernel_size: int = 3, padding: str = "same"
    ) -> None:
        super().__init__()
        if filters < 1:
            raise ConfigurationError("filters must be >= 1")
        if kernel_size < 1:
            raise ConfigurationError("kernel_size must be >= 1")
        if padding not in ("valid", "same"):
            raise ConfigurationError("padding must be 'valid' or 'same'")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.padding = padding
        self._cache: dict[str, np.ndarray] | None = None
        #: The last :meth:`im2col_index`.
        self._im2col_idx: np.ndarray | None = None

    # ------------------------------------------------------------------
    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 2:
            raise ShapeError(
                f"Conv1D expects (time, channels) input shape, got {input_shape}"
            )
        time_steps, channels = input_shape
        out_time = self._output_time(time_steps)
        if out_time < 1:
            raise ConfigurationError(
                f"kernel_size {self.kernel_size} larger than padded input "
                f"length {time_steps}"
            )
        self.params = {
            "W": glorot_uniform((self.kernel_size, channels, self.filters), rng),
            "b": zeros_init((self.filters,), rng),
        }
        self.grads = {}  # allocated by the first backward()
        self._input_shape = tuple(input_shape)
        self._output_shape = (out_time, self.filters)
        self.built = True

    def _output_time(self, time_steps: int) -> int:
        if self.padding == "same":
            return time_steps
        return time_steps - self.kernel_size + 1

    def _pad_amounts(self) -> tuple[int, int]:
        if self.padding == "valid":
            return 0, 0
        total = self.kernel_size - 1
        left = total // 2
        return left, total - left

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        x = self._require_ndim(x, 3, "Conv1D input")
        batch, time_steps, channels = x.shape
        if channels != self.params["W"].shape[1]:
            raise ShapeError(
                f"Conv1D built for {self.params['W'].shape[1]} channels, got {channels}"
            )
        w_flat = self.params["W"].reshape(self.kernel_size * channels, self.filters)
        out, columns = self.convolve(
            x,
            w_flat,
            self.params["b"],
            contract,
            self._pad_amounts(),
            self.im2col_index(time_steps),
            training,
        )
        if training:
            self._cache = {
                "columns": columns,
                "x_shape": np.array(x.shape),
                "padded_time": np.array([time_steps + sum(self._pad_amounts())]),
            }
        return out

    @staticmethod
    def convolve(
        x: np.ndarray, w_flat, b, contract, pads, idx, training: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """The forward arithmetic, written once: zero-pad the time axis
        by ``pads = (left, right)``, gather the im2col columns through
        ``idx`` (:meth:`im2col_index`), contract with the flattened
        kernel, add the bias.

        Returns ``(output, columns)``.  :meth:`forward` passes its own
        parameters and :func:`~repro.nn.layers.contract.contract`; the
        inference steps of :mod:`repro.nn.backends.library` (a reference
        backend's plan, the stacked library pass) pass the padding and
        index worked out once at build, and the stacked pass every
        member's flattened kernels, a bias row per window and its own
        contraction.  Padding and the gather are per window, so which
        windows share the call is free.
        """
        batch, time_steps, channels = x.shape
        left, right = pads
        if left or right:
            x_padded = np.zeros((batch, left + time_steps + right, channels))
            x_padded[:, left : left + time_steps, :] = x
        else:
            x_padded = x
        out_time, k = idx.shape
        # im2col: (batch, out_time, kernel * channels)
        columns = x_padded.take(idx, axis=1).reshape(batch, out_time, k * channels)
        return contract(columns, w_flat, training) + b, columns

    def im2col_index(self, time_steps: int) -> np.ndarray:
        """``(out_time, kernel_size)`` gather index of the im2col step
        for inputs ``time_steps`` long, kept from one call to the next
        (rebuilt if the time length changes)."""
        out_time = self._output_time(time_steps)
        idx = self._im2col_idx
        if idx is None or idx.shape[0] != out_time:
            idx = np.arange(out_time)[:, None] + np.arange(self.kernel_size)[None, :]
            self._im2col_idx = idx
        return idx

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._check_built()
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        columns = self._cache["columns"]
        batch, time_steps, channels = (int(v) for v in self._cache["x_shape"])
        padded_time = int(self._cache["padded_time"][0])
        out_time = columns.shape[1]
        k = self.kernel_size
        grad_output = np.asarray(grad_output, dtype=float)
        if grad_output.shape != (batch, out_time, self.filters):
            raise ShapeError(
                f"grad_output shape {grad_output.shape} does not match "
                f"({batch}, {out_time}, {self.filters})"
            )

        w_flat = self.params["W"].reshape(k * channels, self.filters)
        flat_cols = columns.reshape(-1, k * channels)
        flat_grad = grad_output.reshape(-1, self.filters)
        grads = self._gradient_buffers()
        grads["W"][...] = (flat_cols.T @ flat_grad).reshape(self.params["W"].shape)
        grads["b"][...] = flat_grad.sum(axis=0)

        # Scatter column gradients back onto the (padded) input.
        d_cols = (flat_grad @ w_flat.T).reshape(batch, out_time, k, channels)
        d_padded = np.zeros((batch, padded_time, channels))
        for offset in range(k):
            d_padded[:, offset : offset + out_time, :] += d_cols[:, :, offset, :]
        left, __ = self._pad_amounts()
        grad_input = d_padded[:, left : left + time_steps, :]
        self._cache = None
        return grad_input

    def get_config(self) -> dict:
        return {
            "filters": self.filters,
            "kernel_size": self.kernel_size,
            "padding": self.padding,
        }
