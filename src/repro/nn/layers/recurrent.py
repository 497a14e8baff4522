"""LSTM layer with full backpropagation-through-time.

The paper's gesture classifier is a 2-layer stacked LSTM and several of
its erroneous-gesture detectors are LSTM networks (Section III / Tables
IV-VI).  This implementation follows the standard LSTM cell of Hochreiter
& Schmidhuber with forget-gate bias initialised to one.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError, ShapeError
from ..initializers import glorot_uniform, orthogonal
from .activations import sigmoid
from .base import Layer
from .contract import contract


class LSTM(Layer):
    """Single LSTM layer over ``(batch, time, features)`` input.

    Parameters
    ----------
    units:
        Hidden-state width.
    return_sequences:
        When ``True`` the layer outputs the hidden state at every time
        step ``(batch, time, units)`` — required for stacking LSTM layers.
        When ``False`` only the final hidden state ``(batch, units)`` is
        returned.

    Notes
    -----
    Gate weights are stored fused: ``Wx`` has shape
    ``(features, 4 * units)`` and ``Wh`` ``(units, 4 * units)`` with gate
    order (input, forget, cell candidate, output).
    """

    def __init__(self, units: int, return_sequences: bool = False) -> None:
        super().__init__()
        if units < 1:
            raise ConfigurationError("units must be >= 1")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)
        self._cache: dict[str, np.ndarray] | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 2:
            raise ShapeError(
                f"LSTM expects (time, features) input shape, got {input_shape}"
            )
        time_steps, features = input_shape
        u = self.units
        wx = glorot_uniform((features, 4 * u), rng)
        # One orthogonal block per gate, drawn in gate order and written
        # straight into place: one block is alive at a time, not four
        # beside their concatenation.
        wh = np.empty((u, 4 * u))
        for gate in range(4):
            wh[:, gate * u : (gate + 1) * u] = orthogonal((u, u), rng)
        bias = np.zeros(4 * u)
        bias[u : 2 * u] = 1.0  # forget-gate bias at 1: standard remedy for
        # vanishing memory early in training.
        self.params = {"Wx": wx, "Wh": wh, "b": bias}
        self.grads = {}  # allocated by the first backward()
        self._input_shape = tuple(input_shape)
        self._output_shape = (
            (time_steps, u) if self.return_sequences else (u,)
        )
        self.built = True

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        x = self._require_ndim(x, 3, "LSTM input")
        batch, time_steps, features = x.shape
        if features != self.params["Wx"].shape[0]:
            raise ShapeError(
                f"LSTM built for {self.params['Wx'].shape[0]} features, got {features}"
            )
        if not training:
            return self.recur(
                x, self.params["Wx"], self.params["Wh"], self.params["b"], contract
            )
        u = self.units
        wx, wh, b = self.params["Wx"], self.params["Wh"], self.params["b"]

        h = np.zeros((batch, u))
        c = np.zeros((batch, u))
        hs = np.empty((batch, time_steps, u))
        gates_i = np.empty((batch, time_steps, u))
        gates_f = np.empty((batch, time_steps, u))
        gates_g = np.empty((batch, time_steps, u))
        gates_o = np.empty((batch, time_steps, u))
        cells = np.empty((batch, time_steps, u))
        h_prev = np.empty((batch, time_steps, u))
        c_prev = np.empty((batch, time_steps, u))

        # Pre-compute the input projection for every step at once.
        x_proj = contract(x.reshape(-1, features), wx, training)
        x_proj = x_proj.reshape(batch, time_steps, 4 * u)

        for t in range(time_steps):
            z = x_proj[:, t, :] + contract(h, wh, training) + b
            i = sigmoid(z[:, :u])
            f = sigmoid(z[:, u : 2 * u])
            g = np.tanh(z[:, 2 * u : 3 * u])
            o = sigmoid(z[:, 3 * u :])
            h_prev[:, t, :] = h
            c_prev[:, t, :] = c
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[:, t, :] = h
            gates_i[:, t, :] = i
            gates_f[:, t, :] = f
            gates_g[:, t, :] = g
            gates_o[:, t, :] = o
            cells[:, t, :] = c

        self._cache = {
            "x": x,
            "i": gates_i,
            "f": gates_f,
            "g": gates_g,
            "o": gates_o,
            "c": cells,
            "h_prev": h_prev,
            "c_prev": c_prev,
        }
        return hs if self.return_sequences else hs[:, -1, :]

    def recur(self, x: np.ndarray, wx, wh, b, contract) -> np.ndarray:
        """The ``training=False`` forward: no caches, fewest numpy calls.

        Around the contraction (the batch-invariant whole-block GEMMs
        of :mod:`.contract`) it performs the float operations of the
        training loop on every element in the same order, so a window
        scores bit-identically alone or inside any batch.  Three things
        differ in how, none in what:

        - step 0 does not contract the initial hidden state.  It is all
          zeros, so for finite ``Wh`` the term is exactly ``+0.0`` in
          every position; adding the literal ``0.0`` keeps the one
          effect it has (a ``-0.0`` input projection rounds to ``+0.0``)
          and saves one of ``time_steps`` recurrent contractions.  The
          cell state stays an explicit zero array so ``f * c`` is
          evaluated as before.
        - the input and forget gates are adjacent columns of the
          pre-activation, so one ``sigmoid`` call covers both.
        - the ``(batch, time, units)`` sequence buffer exists only when
          the sequence is what the layer returns.

        Written once as a function of its parameters: :meth:`forward`
        passes the layer's own and :func:`~.contract.contract`; the
        stacked library pass (:mod:`repro.nn.backends.library`) passes
        every member's weights, a bias row per window and its own
        contraction.  Everything after the pre-activation sum is
        :meth:`_step`, which the stream steppers of
        :mod:`repro.nn.backends` call too.
        """
        batch, time_steps, features = x.shape
        u = self.units
        x_proj = contract(x.reshape(-1, features), wx, False)
        x_proj = x_proj.reshape(batch, time_steps, 4 * u)
        hs = np.empty((batch, time_steps, u)) if self.return_sequences else None

        h = np.zeros((batch, u))
        c = np.zeros((batch, u))
        for t in range(time_steps):
            recurrent = contract(h, wh, False) if t else 0.0
            h = self._step(x_proj[:, t, :] + recurrent, c, b)
            if hs is not None:
                hs[:, t, :] = h
        return h if hs is None else hs

    def _step(self, z: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One inference time step: the gate arithmetic, written once.

        ``z`` is ``(rows, 4 * units)``, input projection plus recurrent
        term (``+0.0`` for a row stepping from the zero state), owned
        by the caller and consumed; ``c`` is the rows' cell state,
        updated in place; ``b`` the gate bias (one for all rows, or a
        row each).  Returns the new hidden state.  Every operation is
        element-wise, so a row's bits depend on its own ``z``, ``c``
        and bias only — which rows share the call is free, and the
        windowed loop above (a batch of windows at one time step), a
        stream stepper (the in-flight chains of many streams at one
        frame) and the stacked library pass (windows of several
        members) are all callers.
        """
        u = self.units
        z += b
        i_f = sigmoid(z[:, : 2 * u])
        g = np.tanh(z[:, 2 * u : 3 * u])
        o = sigmoid(z[:, 3 * u :])
        # c = f * c + i * g and h = o * tanh(c), written into the
        # arrays this step already owns.
        c *= i_f[:, u:]
        g *= i_f[:, :u]
        c += g
        h = np.tanh(c)
        h *= o
        return h

    # ------------------------------------------------------------------
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._check_built()
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        cache = self._cache
        x = cache["x"]
        batch, time_steps, features = x.shape
        u = self.units
        wx, wh = self.params["Wx"], self.params["Wh"]

        if self.return_sequences:
            grad_h_seq = np.asarray(grad_output, dtype=float)
            if grad_h_seq.shape != (batch, time_steps, u):
                raise ShapeError(
                    f"grad_output shape {grad_h_seq.shape} does not match "
                    f"({batch}, {time_steps}, {u})"
                )
        else:
            grad_last = np.asarray(grad_output, dtype=float)
            if grad_last.shape != (batch, u):
                raise ShapeError(
                    f"grad_output shape {grad_last.shape} does not match ({batch}, {u})"
                )

        # Accumulate straight into the gradient buffers.
        grads = self._gradient_buffers()
        d_wx, d_wh, d_b = grads["Wx"], grads["Wh"], grads["b"]
        for d in (d_wx, d_wh, d_b):
            d[...] = 0.0
        d_x = np.empty_like(x)

        d_h_next = np.zeros((batch, u))
        d_c_next = np.zeros((batch, u))
        for t in range(time_steps - 1, -1, -1):
            d_h = d_h_next.copy()
            if self.return_sequences:
                d_h += grad_h_seq[:, t, :]
            elif t == time_steps - 1:
                d_h += grad_last

            i = cache["i"][:, t, :]
            f = cache["f"][:, t, :]
            g = cache["g"][:, t, :]
            o = cache["o"][:, t, :]
            c = cache["c"][:, t, :]
            c_prev = cache["c_prev"][:, t, :]
            h_prev = cache["h_prev"][:, t, :]

            tanh_c = np.tanh(c)
            d_o = d_h * tanh_c
            d_c = d_h * o * (1.0 - tanh_c**2) + d_c_next
            d_f = d_c * c_prev
            d_i = d_c * g
            d_g = d_c * i
            d_c_next = d_c * f

            # Pre-activation gradients.
            d_z = np.concatenate(
                [
                    d_i * i * (1.0 - i),
                    d_f * f * (1.0 - f),
                    d_g * (1.0 - g**2),
                    d_o * o * (1.0 - o),
                ],
                axis=1,
            )
            d_wx += x[:, t, :].T @ d_z
            d_wh += h_prev.T @ d_z
            d_b += d_z.sum(axis=0)
            d_x[:, t, :] = d_z @ wx.T
            d_h_next = d_z @ wh.T

        self._cache = None
        return d_x

    def get_config(self) -> dict:
        return {"units": self.units, "return_sequences": self.return_sequences}


def leading_lstm_stack(layers: list[Layer]) -> list[LSTM]:
    """The LSTM layers a model leads with, when together they reduce a
    window to its final hidden state: every one but the last returns
    its sequence, the last only its final state.  Empty otherwise.

    That shape is what a stream stepper needs — the rest of the model
    sees one ``(units,)`` vector per window, so a window's chain of
    steps can be advanced a frame at a time and handed over when it is
    complete.  The gesture classifier always has it.
    """
    stack: list[LSTM] = []
    for layer in layers:
        if not isinstance(layer, LSTM):
            break
        stack.append(layer)
        if not layer.return_sequences:
            return stack
    return []
