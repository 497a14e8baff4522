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
(``tests/nn/test_plan.py`` compares bytes with the layer path).

A model that leads with an LSTM stack (the gesture classifier) is run
**time-major**: the windows are walked in chunks of :data:`_CHUNK`, and
at each time step the stack's first layer advances that chunk's rows
one step; each layer above it then projects the chunk's whole output
sequence of the layer below in one contraction and steps through it,
and the plan's tail scores the last hidden state.  When the
windows are a strided view over frame rows (what
:func:`~repro.kinematics.windows.sliding_windows_view` hands the bulk
scorer) each frame is standardised and projected through the first
layer once per chunk it falls in, not once per window.  The only
temporaries are one chunk's per-step arrays, whatever the batch.  Its
stream stepper performs that same sequence on every element, a frame at
a time (``tests/nn/test_lstm_stepper.py`` compares bytes).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ...config import WindowConfig
from ..layers.contract import contract
from ..layers.recurrent import leading_lstm_stack
from ..model import PREDICT_CHUNK, Sequential, hard_predictions
from ..preprocessing import StandardScaler
from .base import InferenceBackend
from .library import _architecture, _steps
from .stepper import StreamStepper

#: Windows one pass of the plan takes, the layer path's default chunk
#: (:data:`~repro.nn.model.PREDICT_CHUNK`).  A longer batch is served
#: chunk by chunk, so its working set is one chunk's temporaries (paper
#: widths, time-major: about 1 MB per per-step array) whatever its
#: length.  A bare constant: rows are independent, so the chunking
#: bounds the working set, not the bits.  Measured on a 2-core x86-64
#: box, one BLAS thread: a paper-scale ``BulkScorer.score`` of 516
#: frames took 318 / 303 / 293 / 302 / 323 / 329 ms at chunks of
#: 16 / 32 / 64 / 128 / 256 / 512 windows, and a default conv error
#: member scored 130 to 1 000 windows 1.8-2.2x faster at 64 than at 512.
_CHUNK = PREDICT_CHUNK

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
        #: The plan's steps (``None``: the layer path serves the pair),
        #: the windows shape they take, and the plan cut at the model's
        #: leading LSTM stack (``None``: the model has none).
        self._steps: list | None = None
        self._shape: tuple[int, ...] | None = None
        self._lstm: _LstmPlan | None = None
        self._plan()

    def _plan(self) -> list | None:
        """The steps of the current pair, rebuilt if either object was
        rebound; ``None`` when the layer path serves the pair."""
        planned = self._planned
        if planned is None or planned[0] is not self.scaler or planned[1] is not self.model:
            scaler, model = self.scaler, self.model
            if not model.built or model.loss is None or scaler.mean_ is None:
                return None  # may become plannable: asked again next call
            self._steps = self._shape = self._lstm = None
            if _architecture(model) is not None:
                shape = model.layers[0].input_shape
                if scaler.mean_.shape == shape[-1:]:
                    self._steps, self._shape = _steps([(scaler, model)]), shape
                    stack = leading_lstm_stack(model.layers)
                    if stack:
                        self._lstm = _LstmPlan(self._steps, stack)
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
            if self._lstm is not None:
                return self._lstm.run(windows)
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
        if self._plan() is None or self._lstm is None:
            return None
        return _ReferenceStepper(self._lstm, self.model.output_shape, config, n_slots)


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


def _frame_rows(windows: np.ndarray) -> tuple[np.ndarray | None, int]:
    """``(frames, hop)`` such that ``windows[i, t]`` is ``frames[i * hop + t]``.

    Read off the memory layout, never guessed: when the window axis
    strides by a whole number ``hop`` of time steps, ``windows[i, t]``
    sits where frame row ``i * hop + t`` of one strided frame array
    does (a sliding-window view has ``hop`` = its stride).  Only
    ``hop < window`` is taken, so windows share frames and every row of
    ``frames`` is an element of some window.  A lone window is its own
    frames.  ``(None, 0)`` for any other batch (a contiguous copy, a
    transposed or broadcast array).
    """
    n, time_steps, n_features = windows.shape
    step, row, feature = windows.strides
    if n == 1:
        hop = 0
    elif row and step % row == 0 and 0 <= step // row < time_steps:
        hop = step // row
    else:
        return None, 0
    shape = ((n - 1) * hop + time_steps, n_features)
    return as_strided(windows, shape, (row, feature), writeable=False), hop


class _LstmPlan:
    """The plan of a model that leads with an LSTM stack, cut at the
    stack: the plan's own standardisation step, the stack's cells and
    the plan's tail steps — the one copy of the arithmetic that the
    time-major pass (:meth:`run`) and the stream stepper share.

    Bit-identical to the windowed forward, by construction: every float
    operation is the one the plan (and so the layer path) performs on
    the same element — standardisation is element-wise, the gate
    arithmetic literally the same function (:meth:`LSTM._step`), with
    the literal ``0.0`` recurrent term at a chain's first step as
    :meth:`LSTM.recur` adds it — and every contraction goes through
    ``contract(..., False)``, where a row's bits depend on the row and
    the weights only.  So it does not matter which rows share a call:
    the windows of one chunk at one time step, a chunk's frames, or
    chains of different streams at different time steps.
    """

    def __init__(self, steps, lstm) -> None:
        self.standardise = steps[0]
        #: Per layer: input and recurrent weights, bias, gate arithmetic.
        self.cells = [
            (layer.params["Wx"], layer.params["Wh"], layer.params["b"], layer._step)
            for layer in lstm
        ]
        self.units = [layer.units for layer in lstm]
        #: The plan's steps after the LSTM stack, the loss head included.
        self.tail = steps[1 + len(lstm) :]

    def run(self, windows: np.ndarray) -> np.ndarray:
        """Probabilities of raw ``windows``, :data:`_CHUNK` windows at a
        time (:meth:`_score_chunk`)."""
        n, time_steps = windows.shape[:2]
        frames, hop = _frame_rows(windows)
        wx = self.cells[0][0]
        out = None
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            if frames is None:
                # No shared frames: project each window's step as it comes.
                x = self.standardise(windows[start:stop], _Alone)
                inputs = (contract(x[:, t], wx, False) for t in range(time_steps))
            else:
                # Each of the chunk's frames once; a window's step is a row.
                span = frames[start * hop : (stop - 1) * hop + time_steps]
                projected = contract(self.standardise(span, _Alone), wx, False)
                rows = np.arange(stop - start) * hop
                inputs = (projected.take(rows + t, axis=0) for t in range(time_steps))
            probs = self._score_chunk(inputs, stop - start, time_steps)
            if out is None:
                out = np.empty((n, *probs.shape[1:]), probs.dtype)
            out[start:stop] = probs
        return out

    def _score_chunk(self, inputs, m: int, time_steps: int) -> np.ndarray:
        """Every layer of the stack over ``m`` windows, then the tail.

        The first layer runs time-major (``inputs`` yields its input
        projection per step, an array the step may consume).  Each
        layer above it runs layer-major: one contraction projects the
        chunk's ``m * time_steps`` outputs of the layer below, then its
        recurrence steps through them — so a chunk of fewer than
        ``ROW_BLOCK`` windows pays one padded block for that projection,
        not one per time step.
        """
        (_, wh, b, step), *above = self.cells
        below = np.empty((time_steps, m, self.units[0])) if above else None
        c = np.zeros((m, self.units[0]))
        for t, z in enumerate(inputs):
            z += contract(h, wh, False) if t else 0.0
            h = step(z, c, b)
            if below is not None:
                below[t] = h
        for k, (wx, wh, b, step) in enumerate(above, 1):
            units = self.units[k]
            projected = contract(below.reshape(time_steps * m, -1), wx, False)
            projected = projected.reshape(time_steps, m, 4 * units)
            below = np.empty((time_steps, m, units)) if k < len(above) else None
            c = np.zeros((m, units))
            for t in range(time_steps):
                z = projected[t]
                z += contract(h, wh, False) if t else 0.0
                h = step(z, c, b)
                if below is not None:
                    below[t] = h
        out = h
        for step in self.tail:
            out = step(out, _Alone)
        return out


class _ReferenceStepper(StreamStepper):
    """Bit-identical to the windowed forward, by construction: the
    arithmetic of :class:`_LstmPlan`, a frame at a time."""

    def __init__(self, lstm: _LstmPlan, prob_shape, config, n_slots) -> None:
        self._standardise = lstm.standardise
        self._cells = lstm.cells
        self._tail = lstm.tail
        super().__init__(lstm.units, prob_shape, config, n_slots, float)

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
