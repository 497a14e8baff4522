"""The bit-exact default backend: today's transform + predict, verbatim.

Kept deliberately thin — it must execute the *identical* float operation
sequence the tick engine ran before backends existed
(``scaler.transform`` building a standardised copy, then
``Sequential.predict_proba`` through the batch-invariant fixed-shape
GEMM contraction of :mod:`repro.nn.layers.contract`), so the existing parity
suites (stream ≡ process ≡ service ≡ sharded, bit for bit) pin its
behaviour without modification.  Its stream stepper performs that same
sequence on every element, a frame at a time
(``tests/nn/test_lstm_stepper.py`` compares bytes).
"""

from __future__ import annotations

import numpy as np

from ...config import WindowConfig
from ..layers.contract import contract
from ..layers.recurrent import leading_lstm_stack
from ..model import Sequential, hard_predictions
from ..preprocessing import StandardScaler
from .base import InferenceBackend
from .stepper import StreamStepper


class ReferenceBackend(InferenceBackend):
    """Wrap a ``(scaler, model)`` pair with no behavioural change.

    Bit-exact and batch-size invariant; allocates a standardised copy of
    the input per call (the cost the compiled backend exists to remove).
    """

    name = "reference"

    def __init__(self, scaler: StandardScaler, model: Sequential) -> None:
        self.scaler = scaler
        self.model = model

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        x = self.scaler.transform(np.asarray(windows, dtype=float))
        return self.model.predict_proba(x)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        x = self.scaler.transform(np.asarray(windows, dtype=float))
        return self.model.predict(x)

    def stream_stepper(
        self, config: WindowConfig, n_slots: int
    ) -> "_ReferenceStepper | None":
        stack = leading_lstm_stack(self.model.layers)
        if not stack or not self.model.built or self.model.loss is None:
            return None
        return _ReferenceStepper(self.scaler, self.model, len(stack), config, n_slots)


class _ReferenceStepper(StreamStepper):
    """Bit-identical to the windowed forward, by construction.

    Every float operation is the one ``scaler.transform`` +
    ``Sequential.predict_proba`` performs on the same element —
    standardisation and the gate arithmetic are element-wise (the latter
    literally the same function, :meth:`LSTM._step`), and every
    contraction goes through ``contract(..., False)``, where a row's
    bits depend on the row and the weights only — so it does not matter
    that the rows sharing a call are now chains at different time steps
    rather than windows at the same one.
    """

    def __init__(self, scaler, model, n_lstm, config, n_slots) -> None:
        self._scaler = scaler
        self._model = model
        self._lstm = model.layers[:n_lstm]
        self._tail = model.layers[n_lstm:]
        super().__init__(
            [layer.units for layer in self._lstm],
            model.output_shape,
            config,
            n_slots,
            float,
        )

    def _advance(self, frames, frame_rows, state_rows, n_recurrent) -> None:
        x = self._scaler.transform(frames)
        h = None
        for layer, h_state, c_state in zip(self._lstm, self._h, self._c):
            if h is None:
                # The first layer's projection depends on the frame
                # only: once per frame, shared by the frame's chains.
                z = contract(x, layer.params["Wx"], False)[frame_rows]
            else:
                z = contract(h, layer.params["Wx"], False)
            if n_recurrent:
                z[:n_recurrent] += contract(
                    h_state[state_rows[:n_recurrent]], layer.params["Wh"], False
                )
            z[n_recurrent:] += 0.0  # a starting chain's recurrent term
            c = c_state[state_rows]
            c[n_recurrent:] = 0.0
            h = layer._step(z, c, layer.params["b"])
            h_state[state_rows] = h
            c_state[state_rows] = c

    def _head(self, state_rows) -> np.ndarray:
        out = self._h[-1][state_rows]
        for layer in self._tail:
            out = layer.forward(out, training=False)
        return self._model.loss.predict(out)

    _decide = staticmethod(hard_predictions)
