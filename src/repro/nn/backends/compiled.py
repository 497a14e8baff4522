"""Compiled inference plans: fold the scaler, preallocate every buffer.

A :class:`CompiledBackend` compiles one trained ``(scaler, model)`` pair
into a flat list of inference ops, specialised for a fixed input window
shape and a fixed maximum batch (the serving engine's ``max_sessions``):

- **Scaler folding** — standardisation is the affine
  ``(x - mean) / scale`` per feature channel, and the first layer of
  every model in this repo is itself affine in its input (``Dense``,
  ``LSTM`` input projection, ``Conv1D``), so the scaler folds into that
  layer's weights and bias at compile time.  The per-tick ``transform``
  pass and its temporary array disappear.  For ``padding="same"``
  convolutions the folded bias becomes position-dependent near the
  window edges (padded taps contribute zero in scaled space, not
  ``-mean/scale``), so the plan precomputes an ``(out_time, filters)``
  bias — exact, because the window length is fixed.
- **Preallocated scratch** — every op owns output (and workspace)
  buffers sized to ``max_batch`` and writes into ``[:n]`` views, so a
  steady-state forward allocates no array data at all (the
  scratch-reuse test asserts this).  Returned arrays alias scratch:
  valid until the next call.
- **Inference-only kernels** — no ``training`` branches, no per-layer
  dtype coercions, one whole-batch ``np.matmul`` per contraction
  (where the reference path issues fixed-shape ``ROW_BLOCK``-row GEMMs
  to keep a row's bits independent of its batch), dropout elided,
  batch-norm reduced to one fused multiply-add.
- **Fused LSTM steps** — each timestep computes all four gates in one
  preallocated ``(batch, 4·units)`` buffer with in-place
  sigmoid/tanh; the input projection for all timesteps is one matmul.
- **Stream stepping** — for a model that leads with an LSTM stack
  (the gesture classifier), :meth:`CompiledBackend.stream_stepper`
  steps the same ops one frame at a time over every in-flight window
  of every stream (:mod:`repro.nn.backends.stepper`): one recurrent
  GEMM per layer per pass over ``(window - 1) x streams`` rows where
  the windowed forward issues ``window - 1`` over ``streams`` rows.
  One gate arithmetic (:meth:`_LSTMOp._step`) serves both.
- **Optional float32** — ``dtype=np.float32`` stores weights and
  scratch at half the memory bandwidth.  Probabilities then match the
  reference to ~1e-6 relative rather than 1e-12; see
  ``docs/serving.md`` for when that trade is safe.

Float64 plans match :class:`~repro.nn.backends.reference.ReferenceBackend`
within ``atol=1e-6`` (in practice ~1e-12; the property suite sweeps
randomised models to pin this) but are **not** bit-exact and not
batch-size invariant — the reference backend remains the default
wherever the bit-exact parity contract matters.
"""

from __future__ import annotations

import numpy as np

from ...config import WindowConfig
from ...errors import ConfigurationError, NotFittedError, ShapeError
from ..layers.activations import ReLU, Sigmoid, Tanh
from ..layers.conv1d import Conv1D
from ..layers.dense import Dense
from ..layers.dropout import Dropout
from ..layers.normalization import BatchNorm
from ..layers.pooling import Flatten, GlobalAveragePool1D, MaxPool1D
from ..layers.recurrent import LSTM, leading_lstm_stack
from ..losses import SigmoidBinaryCrossEntropy, SoftmaxCrossEntropy
from ..model import Sequential
from ..preprocessing import StandardScaler
from .base import InferenceBackend
from .stepper import StreamStepper

#: Scratch ceiling of a bulk twin, in bytes.  A twin's capacity is this
#: over the plan's scratch per window (:meth:`CompiledBackend._window_bytes`),
#: so a whole recorded procedure is scored in slabs of at most that many
#: windows — still one GEMM per stage per slab, and the cached twin stays
#: bounded whatever the model's width.  Paper widths: 163 KiB of scratch
#: per window, 200-window slabs.  Measured on a 2-core x86-64 box, one
#: BLAS thread, a 2 048-window paper-scale batch ran at 458 / 410 / 392 /
#: 386 / 383 / 428 us per window through slabs of 32 / 64 / 128 / 256 /
#: 512 / 1 024 windows (5 to 163 MiB of scratch).
BULK_SCRATCH_BYTES = 32 << 20

#: Pre-activation magnitude beyond which the in-place sigmoid clips.
#: ``sigmoid(±60)`` already saturates to 0/1 within ~1e-26 in float64
#: (and well past float32 resolution), so clipping only suppresses
#: ``exp`` overflow warnings, never a representable probability.
_SIGMOID_CLIP = 60.0


def _sigmoid_inplace(a: np.ndarray) -> None:
    """``a <- sigmoid(a)`` with no temporaries."""
    np.clip(a, -_SIGMOID_CLIP, _SIGMOID_CLIP, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.add(a, 1.0, out=a)
    np.reciprocal(a, out=a)


def _tile(value, shape, dtype) -> np.ndarray:
    """Materialise ``value`` broadcast to ``shape``, contiguously.

    Ufuncs whose operands broadcast (or are strided views) fall back to
    numpy's buffered iteration, which heap-allocates a transfer buffer
    per call — exactly the steady-state allocation this backend
    promises not to make.  Constant operands (biases, batch-norm
    scale/shift, scaler statistics) are therefore pre-tiled to the full
    batched operand shape once at compile time, so every hot-loop ufunc
    runs the same-shape contiguous fast path.
    """
    return np.ascontiguousarray(
        np.broadcast_to(np.asarray(value, dtype=dtype), shape)
    )


class _Op:
    """One step of the plan: consume ``x`` (first ``n`` rows), return a view."""

    def run(self, x: np.ndarray, n: int) -> np.ndarray:
        raise NotImplementedError


class _StageOp(_Op):
    """Copy (and cast) the raw input into an owned buffer.

    Used in float32 mode so every downstream matmul runs at the plan
    dtype instead of silently upcasting to the input's float64.
    """

    def __init__(self, in_shape, max_batch, dtype, alloc) -> None:
        self.buf = alloc((max_batch, *in_shape), dtype)

    def run(self, x, n):
        out = self.buf[:n]
        out[...] = x
        return out


class _AffineInputOp(_Op):
    """Fallback standardisation ``(x - mean) * inv_scale`` into scratch.

    Only compiled when the first layer is not affine-foldable (no such
    model exists in this repo today); keeps the plan total even then —
    one preallocated buffer instead of ``scaler.transform``'s temporary.
    """

    def __init__(self, mean, inv_scale, in_shape, max_batch, dtype, alloc) -> None:
        full = (max_batch, *in_shape)
        self.mean = _tile(mean, full, dtype)
        self.inv = _tile(inv_scale, full, dtype)
        self.buf = alloc(full, dtype)

    def run(self, x, n):
        out = self.buf[:n]
        out[...] = x
        out -= self.mean[:n]
        out *= self.inv[:n]
        return out


class _DenseOp(_Op):
    """``x @ W + b`` on the last axis (2-D or time-distributed 3-D)."""

    def __init__(self, weight, bias, in_shape, max_batch, dtype, alloc) -> None:
        self.w = np.ascontiguousarray(weight, dtype=dtype)
        out_shape = (max_batch, *in_shape[:-1], self.w.shape[1])
        self.b = _tile(bias, out_shape, dtype)
        self.out = alloc(out_shape, dtype)

    def run(self, x, n):
        out = self.out[:n]
        np.matmul(x, self.w, out=out)
        out += self.b[:n]
        return out


class _ConvOp(_Op):
    """im2col convolution with a preallocated padded buffer and columns.

    ``bias`` is ``(filters,)`` for valid padding and ``(out_time,
    filters)`` for same padding (the scaler fold makes the edge bias
    position-dependent; an unfolded same-pad conv just broadcasts).
    """

    def __init__(
        self, w_kcf, bias, in_shape, max_batch, dtype, alloc, *, left, right
    ) -> None:
        in_time, in_ch = in_shape
        k = w_kcf.shape[0]
        filters = w_kcf.shape[2]
        self.k = k
        self.in_ch = in_ch
        self.in_time = in_time
        self.left = left
        self.out_time = in_time + left + right - k + 1
        self.w_flat = np.ascontiguousarray(
            w_kcf.reshape(k * in_ch, filters), dtype=dtype
        )
        self.bias = _tile(bias, (max_batch, self.out_time, filters), dtype)
        # Pad edges are written once (zeros) and never touched again.
        self.padded = (
            np.zeros((max_batch, in_time + left + right, in_ch), dtype)
            if (left or right)
            else None
        )
        if self.padded is not None:
            alloc.register(self.padded)
        self.cols = alloc((max_batch, self.out_time, k * in_ch), dtype)
        self.out = alloc((max_batch, self.out_time, filters), dtype)

    def run(self, x, n):
        if self.padded is not None:
            padded = self.padded[:n]
            padded[:, self.left : self.left + self.in_time, :] = x
        else:
            padded = x
        cols = self.cols[:n]
        for j in range(self.k):
            cols[:, :, j * self.in_ch : (j + 1) * self.in_ch] = padded[
                :, j : j + self.out_time, :
            ]
        out = self.out[:n]
        flat = cols.reshape(n * self.out_time, self.k * self.in_ch)
        np.matmul(flat, self.w_flat, out=out.reshape(flat.shape[0], out.shape[2]))
        out += self.bias[:n]
        return out


class _LSTMOp(_Op):
    """Fused-gate LSTM: one input projection for all timesteps, one
    ``(batch, 4·units)`` pre-activation buffer per step, gates staged
    into four contiguous blocks so every activation and state update is
    an in-place same-shape ufunc (no broadcast/strided buffering)."""

    def __init__(
        self, wx, wh, bias, units, return_sequences, in_shape, max_batch, dtype, alloc
    ) -> None:
        in_time = in_shape[0]
        u = int(units)
        self.u = u
        self.t = in_time
        self.return_sequences = bool(return_sequences)
        self.wx = np.ascontiguousarray(wx, dtype=dtype)
        self.wh = np.ascontiguousarray(wh, dtype=dtype)
        self.b = _tile(bias, (max_batch, 4 * u), dtype)
        self.xproj = alloc((max_batch, in_time, 4 * u), dtype)
        # Two blocks of storage serve a step's four intermediates, each
        # dead before its partner is written (see :meth:`_step`): the
        # recurrent product is added into z before the gates are staged
        # over it, and z is spent once they are, so tmp reuses its head.
        self.z = alloc((max_batch, 4 * u), dtype)
        self.hh = alloc((max_batch, 4 * u), dtype)
        self.gates = list(self.hh.reshape(4, max_batch, u))
        self.tmp = self.z.reshape(4, max_batch, u)[0]
        self.h = alloc((max_batch, u), dtype)
        self.c = alloc((max_batch, u), dtype)
        self.hs = (
            alloc((max_batch, in_time, u), dtype) if self.return_sequences else None
        )

    def run(self, x, n):
        u, t = self.u, self.t
        xp = self.xproj[:n]
        np.matmul(x.reshape(n * t, -1), self.wx, out=xp.reshape(n * t, 4 * u))
        z = self.z[:n]
        self.c[:n].fill(0.0)
        hs = self.hs[:n] if self.hs is not None else None
        for step in range(t):
            z[...] = xp[:, step, :]
            # The initial state is all zeros: at step 0 no row carries
            # state, so the recurrent GEMM is skipped.
            self._step(n, n if step else 0)
            if hs is not None:
                hs[:, step, :] = self.h[:n]
        return hs if hs is not None else self.h[:n]

    def _step(self, n, n_recurrent):
        """One time step on the first ``n`` scratch rows, in place.

        On entry ``z`` holds the rows' input projection, ``c`` their
        cell state and the first ``n_recurrent`` rows of ``h`` the
        hidden state to carry in; rows past ``n_recurrent`` step from
        the zero state, where for finite weights ``h @ wh`` is exactly
        ``+0.0`` everywhere: write it, keep them out of the GEMM.  On
        exit ``h`` and ``c`` hold the new state.  The one place the
        plan's gate arithmetic is written: :meth:`run` calls it per
        time step of a batch of windows, the stream stepper per frame
        on the in-flight chains of many streams.
        """
        u = self.u
        z, hh, tmp = self.z[:n], self.hh[:n], self.tmp[:n]
        h, c = self.h[:n], self.c[:n]
        gate_i, gate_f, gate_g, gate_o = (g[:n] for g in self.gates)
        if n_recurrent:
            np.matmul(h[:n_recurrent], self.wh, out=hh[:n_recurrent])
        hh[n_recurrent:].fill(0.0)
        z += hh
        z += self.b[:n]
        # Column blocks of z are strided; staging them into the
        # contiguous gate buffers keeps the activations buffer-free.
        gate_i[...] = z[:, :u]
        gate_f[...] = z[:, u : 2 * u]
        gate_g[...] = z[:, 2 * u : 3 * u]
        gate_o[...] = z[:, 3 * u :]
        _sigmoid_inplace(gate_i)
        _sigmoid_inplace(gate_f)
        np.tanh(gate_g, out=gate_g)
        _sigmoid_inplace(gate_o)
        np.multiply(gate_i, gate_g, out=tmp)
        np.multiply(c, gate_f, out=c)
        c += tmp
        np.tanh(c, out=tmp)
        np.multiply(gate_o, tmp, out=h)

    def single_step_twin(self, rows, alloc) -> "_LSTMOp":
        """The same weights over scratch for ``rows`` one-step rows."""
        return _LSTMOp(
            self.wx,
            self.wh,
            self.b[0],
            self.u,
            False,
            (1, self.wx.shape[0]),
            rows,
            self.wx.dtype,
            alloc,
        )


class _ScaleShiftOp(_Op):
    """Inference batch-norm collapsed to ``x * a + b``, in place."""

    def __init__(self, a, b, in_shape, max_batch, dtype) -> None:
        full = (max_batch, *in_shape)
        self.a = _tile(a, full, dtype)
        self.b = _tile(b, full, dtype)

    def run(self, x, n):
        x *= self.a[:n]
        x += self.b[:n]
        return x


class _ReLUOp(_Op):
    def run(self, x, n):
        np.maximum(x, 0.0, out=x)
        return x


class _TanhOp(_Op):
    def run(self, x, n):
        np.tanh(x, out=x)
        return x


class _SigmoidOp(_Op):
    def run(self, x, n):
        _sigmoid_inplace(x)
        return x


class _MaxPoolOp(_Op):
    def __init__(self, pool_size, in_shape, max_batch, dtype, alloc) -> None:
        in_time, channels = in_shape
        self.p = int(pool_size)
        self.out_time = in_time // self.p
        self.out = alloc((max_batch, self.out_time, channels), dtype)

    def run(self, x, n):
        blocks = x[:, : self.out_time * self.p, :].reshape(
            n, self.out_time, self.p, -1
        )
        out = self.out[:n]
        np.max(blocks, axis=2, out=out)
        return out


class _GlobalAveragePoolOp(_Op):
    def __init__(self, in_shape, max_batch, dtype, alloc) -> None:
        self.out = alloc((max_batch, in_shape[1]), dtype)

    def run(self, x, n):
        out = self.out[:n]
        np.mean(x, axis=1, out=out)
        return out


class _FlattenOp(_Op):
    def run(self, x, n):
        return x.reshape(n, -1)


class _SoftmaxHeadOp(_Op):
    """In-place stable softmax over 2-D logits.

    The per-row max/sum reductions land in a ``(batch, 1)`` buffer and
    are broadcast-assigned to a full ``(batch, classes)`` buffer before
    the subtraction/division, keeping those ufuncs on the same-shape
    contiguous fast path.
    """

    def __init__(self, n_classes, max_batch, dtype, alloc) -> None:
        self.red = alloc((max_batch, 1), dtype)
        self.redfull = alloc((max_batch, n_classes), dtype)

    def run(self, x, n):
        red = self.red[:n]
        redfull = self.redfull[:n]
        np.max(x, axis=1, keepdims=True, out=red)
        redfull[...] = red
        x -= redfull
        np.exp(x, out=x)
        np.sum(x, axis=1, keepdims=True, out=red)
        redfull[...] = red
        x /= redfull
        return x


class _SigmoidHeadOp(_Op):
    def run(self, x, n):
        _sigmoid_inplace(x)
        return x


class _Alloc:
    """Scratch allocator that remembers every buffer it hands out."""

    def __init__(self) -> None:
        self.buffers: list[np.ndarray] = []

    def __call__(self, shape, dtype) -> np.ndarray:
        buf = np.empty(shape, dtype=dtype)
        self.buffers.append(buf)
        return buf

    def register(self, buf: np.ndarray) -> None:
        self.buffers.append(buf)


class CompiledBackend(InferenceBackend):
    """Flat, allocation-free inference plan for one trained pair.

    Parameters
    ----------
    scaler / model:
        Fitted :class:`StandardScaler` and built, compiled
        :class:`Sequential`.  The plan snapshots folded copies of the
        weights — retraining the model afterwards does **not** update an
        existing plan; build a new backend.
    max_batch:
        Batch capacity of the scratch buffers.  Calls with more rows are
        served in ``max_batch`` chunks (correct, but each oversize call
        allocates its result array).
    dtype:
        ``np.float64`` (default; matches the reference within
        ``atol=1e-6``) or ``np.float32`` (half the memory bandwidth,
        ~1e-6 relative agreement).
    """

    def __init__(
        self,
        scaler: StandardScaler,
        model: Sequential,
        max_batch: int = 64,
        dtype=np.float64,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ConfigurationError(
                f"CompiledBackend supports float64/float32, got {dtype}"
            )
        if scaler.mean_ is None or scaler.scale_ is None:
            raise NotFittedError(
                "CompiledBackend needs a fitted scaler (mean_/scale_)"
            )
        if not model.built:
            raise NotFittedError("CompiledBackend needs a built model")
        if model.loss is None:
            raise NotFittedError(
                "CompiledBackend needs a compiled model (loss provides the "
                "probability head)"
            )
        self.name = "compiled-f32" if dtype == np.float32 else "compiled"
        self.max_batch = int(max_batch)
        self.dtype = dtype
        self.in_shape = tuple(model.layers[0].input_shape)
        if int(scaler.mean_.shape[0]) != int(self.in_shape[-1]):
            raise ShapeError(
                f"scaler fitted for {scaler.mean_.shape[0]} features but the "
                f"model consumes {self.in_shape[-1]}"
            )
        self._alloc = _Alloc()
        self._ops: list[_Op] = []
        # Source pair, kept only to compile bulk twins on demand.  Like
        # the base plan, a twin snapshots the weights at *its* compile
        # time; the serving/bulk engines rebuild backends when a model
        # is retrained (model-identity check), so the two never diverge.
        self._source = (scaler, model)
        self._bulk: CompiledBackend | None = None
        self._compile(scaler, model)

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _compile(self, scaler: StandardScaler, model: Sequential) -> None:
        mean = np.asarray(scaler.mean_, dtype=np.float64)
        inv = 1.0 / np.asarray(scaler.scale_, dtype=np.float64)
        alloc = self._alloc
        dtype = self.dtype
        mb = self.max_batch

        first = model.layers[0]
        foldable = isinstance(first, (Dense, LSTM, Conv1D))
        if dtype == np.float32 and foldable:
            # Stage once so every matmul runs in float32 instead of
            # upcasting against float64 input.
            self._ops.append(_StageOp(self.in_shape, mb, dtype, alloc))
        if not foldable:
            self._ops.append(
                _AffineInputOp(mean, inv, self.in_shape, mb, dtype, alloc)
            )

        for index, layer in enumerate(model.layers):
            fold = (mean, inv) if (index == 0 and foldable) else None
            op = self._compile_layer(layer, fold, alloc, dtype, mb)
            if op is not None:
                self._ops.append(op)

        logits_shape = tuple(model.layers[-1].output_shape)
        loss = model.loss
        if isinstance(loss, SoftmaxCrossEntropy):
            if len(logits_shape) != 1:
                raise ConfigurationError(
                    "CompiledBackend softmax head needs 2-D logits, got "
                    f"per-sample shape {logits_shape}"
                )
            self._ops.append(_SoftmaxHeadOp(logits_shape[0], mb, dtype, alloc))
        elif isinstance(loss, SigmoidBinaryCrossEntropy):
            self._ops.append(_SigmoidHeadOp())
        else:
            raise ConfigurationError(
                f"CompiledBackend has no probability head for "
                f"{type(loss).__name__}"
            )
        self.prob_shape = logits_shape
        self._multiclass = len(logits_shape) == 1 and logits_shape[0] > 1
        self._cls = alloc((mb,), np.intp) if self._multiclass else None
        self._flags = None if self._multiclass else alloc((mb,), np.int64)

    def _compile_layer(self, layer, fold, alloc, dtype, mb):
        in_shape = tuple(layer.input_shape)
        if isinstance(layer, Dense):
            w = np.asarray(layer.params["W"], dtype=np.float64)
            b = np.asarray(layer.params["b"], dtype=np.float64)
            if fold is not None:
                mean, inv = fold
                w = w * inv[:, None]
                b = b - (mean * inv) @ np.asarray(
                    layer.params["W"], dtype=np.float64
                )
            return _DenseOp(w, b, in_shape, mb, dtype, alloc)
        if isinstance(layer, LSTM):
            wx = np.asarray(layer.params["Wx"], dtype=np.float64)
            b = np.asarray(layer.params["b"], dtype=np.float64)
            if fold is not None:
                mean, inv = fold
                b = b - (mean * inv) @ wx
                wx = wx * inv[:, None]
            return _LSTMOp(
                wx,
                layer.params["Wh"],
                b,
                layer.units,
                layer.return_sequences,
                in_shape,
                mb,
                dtype,
                alloc,
            )
        if isinstance(layer, Conv1D):
            left, right = layer._pad_amounts()
            w = np.asarray(layer.params["W"], dtype=np.float64)
            b = np.asarray(layer.params["b"], dtype=np.float64)
            bias: np.ndarray = b
            if fold is not None:
                mean, inv = fold
                # Per-tap contribution of the mean shift: (k, filters).
                tap_shift = np.einsum("c,kcf->kf", mean * inv, w)
                w = w * inv[None, :, None]
                in_time = in_shape[0]
                out_time = in_time + left + right - layer.kernel_size + 1
                correction = np.zeros((out_time, w.shape[2]))
                for t in range(out_time):
                    for j in range(layer.kernel_size):
                        src = t - left + j
                        if 0 <= src < in_time:
                            correction[t] += tap_shift[j]
                bias = b - correction
                if left == 0 and right == 0:
                    bias = bias[0]  # every position sees every tap
            return _ConvOp(
                w, bias, in_shape, mb, dtype, alloc, left=left, right=right
            )
        if isinstance(layer, BatchNorm):
            assert layer.running_mean is not None and layer.running_var is not None
            inv_std = 1.0 / np.sqrt(layer.running_var + layer.epsilon)
            a = layer.params["gamma"] * inv_std
            return _ScaleShiftOp(
                a, layer.params["beta"] - layer.running_mean * a, in_shape, mb, dtype
            )
        if isinstance(layer, ReLU):
            return _ReLUOp()
        if isinstance(layer, Tanh):
            return _TanhOp()
        if isinstance(layer, Sigmoid):
            return _SigmoidOp()
        if isinstance(layer, Dropout):
            return None  # identity at inference
        if isinstance(layer, MaxPool1D):
            return _MaxPoolOp(layer.pool_size, in_shape, mb, dtype, alloc)
        if isinstance(layer, GlobalAveragePool1D):
            return _GlobalAveragePoolOp(in_shape, mb, dtype, alloc)
        if isinstance(layer, Flatten):
            return _FlattenOp()
        raise ConfigurationError(
            f"CompiledBackend does not support {type(layer).__name__} layers"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def scratch_arrays(self) -> list[np.ndarray]:
        """Every preallocated buffer of the plan (for reuse assertions)."""
        return list(self._alloc.buffers)

    def _forward(self, x: np.ndarray, n: int) -> np.ndarray:
        out = x
        for op in self._ops:
            out = op.run(out, n)
        return out

    def _check(self, windows: np.ndarray) -> np.ndarray:
        x = np.asarray(windows)
        if x.shape[1:] != self.in_shape:
            raise ShapeError(
                f"compiled plan expects windows of shape (n, "
                f"{', '.join(str(s) for s in self.in_shape)}), got {x.shape}"
            )
        return x

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        x = self._check(windows)
        n = x.shape[0]
        if n == 0:
            return np.empty((0, *self.prob_shape), dtype=self.dtype)
        if n <= self.max_batch:
            return self._forward(x, n)
        out = np.empty((n, *self.prob_shape), dtype=self.dtype)
        for start in range(0, n, self.max_batch):
            chunk = x[start : start + self.max_batch]
            out[start : start + chunk.shape[0]] = self._forward(
                chunk, chunk.shape[0]
            )
        return out

    def predict(self, windows: np.ndarray) -> np.ndarray:
        x = self._check(windows)
        n = x.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if n <= self.max_batch:
            return self._predict_batch(x, n)
        out = np.empty(n, dtype=np.int64)
        for start in range(0, n, self.max_batch):
            chunk = x[start : start + self.max_batch]
            out[start : start + chunk.shape[0]] = self._predict_batch(
                chunk, chunk.shape[0]
            )
        return out

    # ------------------------------------------------------------------
    # Bulk offline scoring
    # ------------------------------------------------------------------
    def _window_bytes(self) -> int:
        """Bytes of scratch the plan holds per window of capacity."""
        return sum(buf.nbytes for buf in self._alloc.buffers) // self.max_batch

    def _bulk_plan(self, n: int) -> "CompiledBackend":
        """The plan that serves an ``n``-window bulk call: this one, or
        a twin sized for bigger slabs (grown, cached).

        The serving plan's ``max_batch`` is the session count — far too
        small for offline scoring, where one trajectory yields thousands
        of windows and chunking at 64 would splinter the single fused
        GEMM per stage back into dozens.  The twin is compiled lazily at
        the first oversize bulk call, grows geometrically (so a sweep
        over ever-longer procedures compiles O(log n) plans, not one
        per length) and never holds more than :data:`BULK_SCRATCH_BYTES`
        of scratch.  A serving plan already that large serves every call.
        """
        cap = BULK_SCRATCH_BYTES // self._window_bytes()
        needed = min(int(n), cap)
        if needed <= self.max_batch:
            return self
        if self._bulk is None or self._bulk.max_batch < needed:
            capacity = self.max_batch
            while capacity < needed:
                capacity *= 2
            scaler, model = self._source
            self._bulk = CompiledBackend(
                scaler, model, max_batch=min(capacity, cap), dtype=self.dtype
            )
        return self._bulk

    def forward_bulk(self, windows: np.ndarray) -> np.ndarray:
        """One fused pass per slab — one GEMM per stage per slab.

        A batch that fits the bulk plan runs through one plan execution;
        a longer one in slabs of the plan's capacity.  Results alias the
        plan's scratch when a single slab suffices — valid until the
        next call on this backend.
        """
        x = self._check(windows)
        return self._bulk_plan(x.shape[0]).predict_proba(x)

    def score_bulk(self, windows: np.ndarray) -> np.ndarray:
        """Hard predictions over every window via the bulk plan."""
        x = self._check(windows)
        return self._bulk_plan(x.shape[0]).predict(x)

    def _predict_batch(self, x: np.ndarray, n: int) -> np.ndarray:
        return self._decide(self._forward(x, n), n)

    def _decide(self, probs: np.ndarray, n: int) -> np.ndarray:
        """Hard predictions of ``n <= max_batch`` rows, into scratch."""
        if self._multiclass:
            assert self._cls is not None
            cls = self._cls[:n]
            np.argmax(probs, axis=1, out=cls)
            return cls
        assert self._flags is not None
        flags = self._flags[:n]
        np.greater_equal(probs.reshape(n, -1)[:, 0], 0.5, out=flags)
        return flags

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def stream_stepper(
        self, config: WindowConfig, n_slots: int
    ) -> "_CompiledStepper | None":
        n_lstm = len(leading_lstm_stack(self._source[1].layers))
        if not n_lstm:
            return None
        # Only an input-staging op can precede the first layer's op.
        first = next(i for i, op in enumerate(self._ops) if isinstance(op, _LSTMOp))
        return _CompiledStepper(self, first, first + n_lstm, config, n_slots)


class _CompiledStepper(StreamStepper):
    """The plan's LSTM ops, one time step per frame, on their own scratch.

    Each op of the leading stack gets a single-step twin (same folded
    weights, buffers sized to one pass of chain rows rather than to a
    batch of whole windows), so BLAS sees every carried chain of the
    pass in one recurrent GEMM.  The rest of the plan runs unchanged on
    the completed chains.  Steady-state stepping allocates index arrays
    only.
    """

    def __init__(self, backend, first, stop, config, n_slots) -> None:
        if n_slots > backend.max_batch:
            raise ConfigurationError(
                f"a compiled plan sized for {backend.max_batch} rows cannot "
                f"step {n_slots} stream slots"
            )
        stack = backend._ops[first:stop]
        super().__init__(
            [op.u for op in stack], backend.prob_shape, config, n_slots, backend.dtype
        )
        slots_per_pass = min(self.group, self.n_slots)
        self._ops = [
            op.single_step_twin(slots_per_pass * self.n_chains, np.empty)
            for op in stack
        ]
        self._tail = backend._ops[stop:]
        self._plan_decide = backend._decide
        # Float32 plans stage the frames so the projection runs at the
        # plan dtype (what the plan's own input op does for windows).
        self._staged = (
            np.empty((slots_per_pass, stack[0].wx.shape[0]), backend.dtype)
            if backend.dtype != np.float64
            else None
        )
        self._done = np.empty((self.n_slots, stack[-1].u), backend.dtype)

    def _advance(self, frames, frame_rows, state_rows, n_recurrent) -> None:
        n = state_rows.shape[0]
        carried = state_rows[:n_recurrent]
        if self._staged is not None:
            staged = self._staged[: frames.shape[0]]
            staged[...] = frames
            frames = staged
        below = None
        for op, h_state, c_state in zip(self._ops, self._h, self._c):
            if below is None:
                # The first layer's projection depends on the frame
                # only: once per frame, shared by the frame's chains.
                projected = op.xproj[: frames.shape[0], 0]
                np.matmul(frames, op.wx, out=projected)
                np.take(projected, frame_rows, axis=0, out=op.z[:n], mode="clip")
            else:
                np.matmul(below.h[:n], op.wx, out=op.z[:n])
            np.take(h_state, carried, axis=0, out=op.h[:n_recurrent], mode="clip")
            np.take(c_state, state_rows, axis=0, out=op.c[:n], mode="clip")
            op.c[n_recurrent:n].fill(0.0)
            op._step(n, n_recurrent)
            h_state[state_rows] = op.h[:n]
            c_state[state_rows] = op.c[:n]
            below = op

    def _head(self, state_rows) -> np.ndarray:
        n = state_rows.shape[0]
        out = self._done[:n]
        np.take(self._h[-1], state_rows, axis=0, out=out, mode="clip")
        for op in self._tail:
            out = op.run(out, n)
        return out

    def _decide(self, probs) -> np.ndarray:
        n = probs.shape[0]
        return self._plan_decide(probs, n) if n else np.empty(0, dtype=np.int64)
