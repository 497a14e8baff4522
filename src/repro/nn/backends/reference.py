"""The bit-exact default backend: the layer path's bits, as a prebuilt plan.

It must yield the *identical* bytes the tick engine got before backends
existed (``scaler.transform`` building a standardised copy, then
``Sequential.predict_proba`` through the batch-invariant fixed-shape
GEMM contraction of :mod:`repro.nn.layers.contract`), so the existing
parity suites (stream ≡ process ≡ service ≡ sharded, bit for bit) pin its
behaviour without modification.  It runs the same float operations as
an **inference plan**: a flat list of steps built once per
``(scaler, model)`` from the layers' own inference arithmetic
(:func:`~repro.nn.backends.library._steps`, the builders the stacked
library pass uses too), so a call pays for validation, coercion and
per-layer dispatch once, at build, instead of once per layer per call
(``tests/nn/test_plan.py`` compares bytes with the layer path).  Its
stream stepper performs that same sequence on every element, a frame at
a time (``tests/nn/test_lstm_stepper.py`` compares bytes).
"""

from __future__ import annotations

import numpy as np

from ...config import WindowConfig
from ..layers.contract import contract
from ..layers.recurrent import leading_lstm_stack
from ..model import Sequential, hard_predictions
from ..preprocessing import StandardScaler
from .base import InferenceBackend
from .library import _architecture, _steps
from .stepper import StreamStepper

#: Windows one pass of the plan takes: ``Sequential.predict_proba``'s
#: ``batch_size``, so a long batch is served in the chunks the layer path
#: serves it in (rows are independent: the chunking bounds the working
#: set, not the bits).
_CHUNK = 512

_FLOAT64 = np.dtype(np.float64)


class ReferenceBackend(InferenceBackend):
    """Wrap a ``(scaler, model)`` pair with no behavioural change.

    Bit-exact and batch-size invariant; allocates a standardised copy of
    the input per call (the cost the compiled backend exists to remove).

    The plan is **derived state**, like the compiled backend's folded
    weights: built from the ``scaler`` and ``model`` objects the backend
    holds, holding their parameter arrays by reference and the values
    that are functions of them alone (BatchNorm's inverse standard
    deviation, the conv kernel's flat view and im2col index) worked out
    once.  It is rebuilt when ``scaler`` or ``model`` is rebound to
    another object — the identity rule
    :meth:`~repro.nn.backends.LibraryBackend.member` follows (``fit()``
    rebinds ``.model``) — and follows nothing else: a model trained or
    re-normalised in place under a live backend needs a new backend.
    Windows the plan was not built for (another shape or dtype, none at
    all) and a model it cannot cover (not built, not compiled, a layer
    type without an inference step) take the layer path, which also
    raises what it raises.
    """

    name = "reference"

    def __init__(self, scaler: StandardScaler, model: Sequential) -> None:
        self.scaler = scaler
        self.model = model
        #: The pair the plan was last built for; ``None``: not yet.
        self._planned: tuple | None = None
        #: The plan's steps (``None``: the layer path serves the pair)
        #: and the windows shape they take.
        self._steps: list | None = None
        self._shape: tuple[int, ...] | None = None
        self._plan()

    def _plan(self) -> list | None:
        """The steps of the current pair, rebuilt if either object was
        rebound; ``None`` when the layer path serves the pair."""
        planned = self._planned
        if planned is None or planned[0] is not self.scaler or planned[1] is not self.model:
            scaler, model = self.scaler, self.model
            if not model.built or model.loss is None or scaler.mean_ is None:
                return None  # may become plannable: asked again next call
            self._steps = self._shape = None
            if _architecture(model) is not None:
                shape = model.layers[0].input_shape
                if scaler.mean_.shape == shape[-1:]:
                    self._steps, self._shape = _steps([(scaler, model)]), shape
            self._planned = (scaler, model)
        return self._steps

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        steps = self._plan()
        if (
            steps is not None
            and type(windows) is np.ndarray
            and windows.dtype == _FLOAT64
            and windows.shape[1:] == self._shape
            and windows.shape[0]
        ):
            n = windows.shape[0]
            if n <= _CHUNK:
                return _run(steps, windows)
            return np.concatenate(
                [_run(steps, windows[i : i + _CHUNK]) for i in range(0, n, _CHUNK)]
            )
        x = self.scaler.transform(np.asarray(windows, dtype=float))
        return self.model.predict_proba(x)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        return hard_predictions(self.predict_proba(windows))

    def stream_stepper(
        self, config: WindowConfig, n_slots: int
    ) -> "_ReferenceStepper | None":
        stack = leading_lstm_stack(self.model.layers)
        steps = self._plan()
        if not stack or steps is None:
            return None
        return _ReferenceStepper(steps, stack, self.model.output_shape, config, n_slots)


class _Alone:
    """The call context of a plan: every window is member 0's (``rows``
    is that one parameter row, broadcast over the call — a plan's own
    steps never read it), and the contraction is the batch-invariant
    one, this module's, looked up at call time as the layer path looks
    up its own."""

    rows = np.zeros(1, np.intp)

    @staticmethod
    def contract(a: np.ndarray, w: np.ndarray, training: bool = False) -> np.ndarray:
        return contract(a, w, training)


def _run(steps, x: np.ndarray, ctx=_Alone) -> np.ndarray:
    for step in steps:
        x = step(x, ctx)
    return x


class _ReferenceStepper(StreamStepper):
    """Bit-identical to the windowed forward, by construction.

    Every float operation is the one the plan (and so the layer path)
    performs on the same element — standardisation is the plan's first
    step, the gate arithmetic literally the same function
    (:meth:`LSTM._step`), and the rest of the model the plan's tail
    steps; every contraction goes through ``contract(..., False)``,
    where a row's bits depend on the row and the weights only — so it
    does not matter that the rows sharing a call are now chains at
    different time steps rather than windows at the same one.
    """

    def __init__(self, steps, lstm, prob_shape, config, n_slots) -> None:
        self._standardise = steps[0]
        self._cells = [
            (layer.params["Wx"], layer.params["Wh"], layer.params["b"], layer._step)
            for layer in lstm
        ]
        #: The plan's steps after the LSTM stack, the loss head included.
        self._tail = steps[1 + len(lstm) :]
        super().__init__([layer.units for layer in lstm], prob_shape, config, n_slots, float)

    def _advance(self, frames, frame_rows, state_rows, n_recurrent) -> None:
        x = self._standardise(frames, _Alone)
        h = None
        for (wx, wh, b, step), h_state, c_state in zip(self._cells, self._h, self._c):
            if h is None:
                # The first layer's projection depends on the frame
                # only: once per frame, shared by the frame's chains.
                z = contract(x, wx, False).take(frame_rows, axis=0)
            else:
                z = contract(h, wx, False)
            if n_recurrent:
                z[:n_recurrent] += contract(
                    h_state.take(state_rows[:n_recurrent], axis=0), wh, False
                )
            z[n_recurrent:] += 0.0  # a starting chain's recurrent term
            c = c_state.take(state_rows, axis=0)
            c[n_recurrent:] = 0.0
            h = step(z, c, b)
            h_state[state_rows] = h
            c_state[state_rows] = c

    def _head(self, state_rows) -> np.ndarray:
        out = self._h[-1].take(state_rows, axis=0)
        for step in self._tail:
            out = step(out, _Alone)
        return out

    _decide = staticmethod(hard_predictions)
