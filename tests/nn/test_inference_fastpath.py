"""The ``training=False`` fast path is bit-identical to what it replaced.

The inference forwards (`sigmoid`, `LSTM`, `Conv1D`, `predict_proba`), the
ring push and the compiled LSTM op were rewritten to make fewer numpy
calls while performing **the same float operation on every element in
the same order**.  The formulas they replaced are transcribed here as
oracles and compared with ``np.array_equal`` — no tolerance: the
stream = process = service = K shards = replay contract rests on these
bits, and on a row scoring the same alone as inside any batch.

The oracles call the live ``contract(..., False)``: they pin everything
*around* the contraction bit for bit.  The contraction itself moved from
a sequential multiply-add chain (``einsum_contract``, kept here as the
numeric oracle) to fixed-shape GEMMs; its own bit-level contract is
``tests/nn/test_contract.py``, and the last section of this file bounds
how far the new bits sit from the old ones and shows that no decision
moved.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.config import WindowConfig
from repro.errors import ShapeError
from repro.kinematics.windows import StreamingWindow, StreamingWindowBatch
from repro.nn.backends import CompiledBackend
from repro.nn.backends.compiled import _LSTMOp, _sigmoid_inplace
from repro.nn.layers.activations import sigmoid
from repro.nn.layers.contract import contract
from repro.serving import make_synthetic_monitor


# ----------------------------------------------------------------------
# Oracles: the replaced implementations, verbatim.
# ----------------------------------------------------------------------
def sigmoid_two_branch(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def einsum_contract(a, w, training=False):
    """The retired inference contraction: one sequential multiply-add
    chain per output element.  A numeric oracle now, not a bit oracle."""
    return np.einsum("...j,jk->...k", a, w)


def lstm_contracting_zero_state(layer, x):
    """The loop that contracts the all-zero initial state at step 0,
    applies three per-gate sigmoids and always fills a sequence buffer."""
    batch, time_steps, features = x.shape
    u = layer.units
    wx, wh, b = layer.params["Wx"], layer.params["Wh"], layer.params["b"]
    h = np.zeros((batch, u))
    c = np.zeros((batch, u))
    hs = np.empty((batch, time_steps, u))
    x_proj = contract(x.reshape(-1, features), wx, False)
    x_proj = x_proj.reshape(batch, time_steps, 4 * u)
    for t in range(time_steps):
        z = x_proj[:, t, :] + contract(h, wh, False) + b
        i = sigmoid_two_branch(z[:, :u])
        f = sigmoid_two_branch(z[:, u : 2 * u])
        g = np.tanh(z[:, 2 * u : 3 * u])
        o = sigmoid_two_branch(z[:, 3 * u :])
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t, :] = h
    return hs if layer.return_sequences else hs[:, -1, :]


def conv1d_np_pad(layer, x):
    batch, time_steps, channels = x.shape
    left, right = layer._pad_amounts()
    x_padded = np.pad(x, ((0, 0), (left, right), (0, 0))) if left or right else x
    out_time = layer._output_time(time_steps)
    k = layer.kernel_size
    idx = np.arange(out_time)[:, None] + np.arange(k)[None, :]
    columns = x_padded[:, idx, :].reshape(batch, out_time, k * channels)
    w_flat = layer.params["W"].reshape(k * channels, layer.filters)
    return contract(columns, w_flat, False) + layer.params["b"]


def predict_proba_oracle(model, x):
    """``predict_proba`` with every rewritten piece swapped for its oracle
    (always chunked and concatenated, as before)."""
    outputs = []
    for start in range(0, x.shape[0], 512):
        out = x[start : start + 512]
        for layer in model.layers:
            if isinstance(layer, nn.LSTM):
                out = lstm_contracting_zero_state(layer, out)
            elif isinstance(layer, nn.Conv1D):
                out = conv1d_np_pad(layer, out)
            else:
                out = layer.forward(out, training=False)
        if isinstance(model.loss, nn.SigmoidBinaryCrossEntropy):
            outputs.append(sigmoid_two_branch(out))
        else:
            outputs.append(model.loss.predict(out))
    return np.concatenate(outputs, axis=0)


def build(layers, in_shape, loss, seed):
    model = nn.Sequential(layers, seed=seed)
    model.build(in_shape)
    model.compile(loss, nn.Adam(1e-3))
    return model


def randomize(model, seed):
    """Trained-looking parameters: nothing left at its zero/one init."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p += 0.3 * rng.standard_normal(p.shape)


# ----------------------------------------------------------------------
# sigmoid
# ----------------------------------------------------------------------
SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
           36.7, -36.7, 709.9, -709.9, 745.2, -745.2, 1e300, -1e300]
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True),
    st.floats(-40.0, 40.0),
)


@given(
    data=st.lists(values, min_size=24, max_size=24),
    rows=st.sampled_from([1, 2, 3, 4, 6]),
)
@settings(max_examples=200, deadline=None)
def test_sigmoid_matches_two_branch_form(data, rows):
    x = np.array(data).reshape(rows, -1)
    views = [x, x.ravel(), x[:, : x.shape[1] // 2], x[:, 1::2], x.T, x[::-1], x[:0]]
    for view in views:
        expected = sigmoid_two_branch(view)
        got = sigmoid(view)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        # array_equal calls +0.0 and -0.0 equal; the bytes must not.
        assert got.tobytes() == expected.tobytes()


def test_sigmoid_nan_stays_nan_and_spares_its_neighbours():
    x = np.array([[np.nan, 1.5, -np.nan], [-2.0, np.nan, 0.0]])
    got = sigmoid(x)
    assert np.array_equal(np.isnan(got), np.isnan(x))
    assert np.array_equal(got, sigmoid_two_branch(x), equal_nan=True)


def test_sigmoid_accepts_integer_input_and_leaves_it_untouched():
    x = np.array([[3, -2, 0]])
    assert np.array_equal(sigmoid(x), sigmoid_two_branch(x))
    assert x.tolist() == [[3, -2, 0]]


# ----------------------------------------------------------------------
# LSTM
# ----------------------------------------------------------------------
@given(
    units=st.integers(1, 9),
    features=st.integers(1, 6),
    window=st.sampled_from([1, 2, 5]),
    batch=st.sampled_from([1, 2, 7]),
    return_sequences=st.booleans(),
    signed_zeros=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_lstm_inference_matches_zero_state_contracting_loop(
    units, features, window, batch, return_sequences, signed_zeros, seed
):
    layer = nn.LSTM(units, return_sequences=return_sequences)
    rng = np.random.default_rng(seed)
    layer.build((window, features), rng)
    for p in layer.params.values():
        p += 0.3 * rng.standard_normal(p.shape)
    x = rng.standard_normal((batch, window, features)) * 3.0
    if signed_zeros:
        # Zero pre-activations of either sign at step 0: the skipped
        # contraction must still round them as ``+ 0.0`` did.
        x[0] = 0.0
        layer.params["b"][::2] = -0.0
    expected = lstm_contracting_zero_state(layer, x)
    got = layer.forward(x, training=False)
    assert got.shape == expected.shape
    assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


@given(
    units=st.tuples(st.integers(1, 8), st.integers(1, 6)),
    window=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_stacked_lstm_model_matches_oracle(units, window, seed):
    model = build(
        [nn.LSTM(units[0], return_sequences=True), nn.LSTM(units[1]), nn.Dense(4)],
        (window, 5),
        nn.SoftmaxCrossEntropy(),
        seed,
    )
    randomize(model, seed)
    x = np.random.default_rng(seed + 1).standard_normal((9, window, 5))
    assert np.array_equal(model.predict_proba(x), predict_proba_oracle(model, x))


def test_training_forward_still_caches_and_backpropagates():
    layer = nn.LSTM(3, return_sequences=False)
    rng = np.random.default_rng(0)
    layer.build((4, 2), rng)
    x = rng.standard_normal((5, 4, 2))
    out = layer.forward(x, training=True)
    assert out.shape == (5, 3)
    assert layer.backward(np.ones((5, 3))).shape == x.shape
    layer.forward(x, training=False)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((5, 3)))  # inference leaves no cache behind


# ----------------------------------------------------------------------
# Conv1D
# ----------------------------------------------------------------------
@given(
    padding=st.sampled_from(["same", "valid"]),
    kernel_size=st.integers(1, 5),
    filters=st.integers(1, 6),
    channels=st.integers(1, 5),
    batch=st.sampled_from([1, 3, 8]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_conv1d_matches_np_pad_form(padding, kernel_size, filters, channels, batch, seed):
    layer = nn.Conv1D(filters, kernel_size, padding=padding)
    rng = np.random.default_rng(seed)
    layer.build((6, channels), rng)
    layer.params["b"] += rng.standard_normal(filters)
    # A second time length through the same layer: the kept im2col index
    # must follow it, then follow it back.
    for time_steps in (6, 9, 6):
        x = rng.standard_normal((batch, time_steps, channels))
        expected = conv1d_np_pad(layer, x)
        got = layer.forward(x, training=False)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Batch-size invariance: a row alone == the row inside any batch
# ----------------------------------------------------------------------
def lstm_softmax_model():
    model = build(
        [nn.LSTM(8, return_sequences=True), nn.LSTM(5), nn.Dense(6), nn.ReLU(), nn.Dense(4)],
        (5, 7),
        nn.SoftmaxCrossEntropy(),
        seed=3,
    )
    randomize(model, 3)
    return model


def conv_sigmoid_model():
    model = build(
        [
            nn.Conv1D(6, 3, padding="same"),
            nn.ReLU(),
            nn.BatchNorm(),
            nn.GlobalAveragePool1D(),
            nn.Dense(5),
            nn.ReLU(),
            nn.Dense(1),
        ],
        (5, 7),
        nn.SigmoidBinaryCrossEntropy(),
        seed=4,
    )
    randomize(model, 4)
    return model


@pytest.mark.parametrize("make_model", [lstm_softmax_model, conv_sigmoid_model])
def test_row_alone_equals_row_inside_batches_of_7_64_513(make_model):
    model = make_model()
    x = np.random.default_rng(11).standard_normal((513, 5, 7)) * 2.0
    # 513 rows cross predict_proba's 512-row chunk: the concatenating path.
    full = model.predict_proba(x)
    assert np.array_equal(full, predict_proba_oracle(model, x))
    for row in (0, 6, 63, 511, 512):
        alone = model.predict_proba(x[row : row + 1])
        assert np.array_equal(alone[0], full[row])
        for size in (7, 64):
            start = min(row, 513 - size)
            inside = model.predict_proba(x[start : start + size])
            assert np.array_equal(inside[row - start], full[row])


# ----------------------------------------------------------------------
# StreamingWindowBatch.push
# ----------------------------------------------------------------------
@given(
    n_streams=st.integers(1, 6),
    window=st.integers(1, 5),
    stride=st.integers(1, 4),
    n_steps=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_push_matches_one_streaming_window_per_stream(
    n_streams, window, stride, n_steps, seed
):
    cfg = WindowConfig(window, stride)
    rng = np.random.default_rng(seed)
    batch = StreamingWindowBatch(cfg, n_streams, n_features=3)
    singles = [StreamingWindow(cfg, n_features=3) for _ in range(n_streams)]
    for _ in range(n_steps):
        # A random subset of the streams, in random order, advances.
        ids = rng.permutation(n_streams)[: rng.integers(0, n_streams + 1)]
        frames = rng.standard_normal((ids.size, 3))
        # Hostile id sets are refused and leave the rings as they were.
        if ids.size:
            with pytest.raises(ShapeError):
                batch.push(np.vstack([frames, frames[:1]]), np.append(ids, ids[0]))
            with pytest.raises(ShapeError):
                batch.push(frames, np.where(np.arange(ids.size) == 0, n_streams, ids))
            with pytest.raises(ShapeError):
                batch.push(frames, np.where(np.arange(ids.size) == 0, -1, ids))
        ready, windows = batch.push(frames, ids)
        expected = [singles[s].push(frames[row]) for row, s in enumerate(ids)]
        assert ready.tolist() == [w is not None for w in expected]
        due = [w for w in expected if w is not None]
        assert windows.shape == (len(due), window, 3)
        for got, want in zip(windows, due):
            assert np.array_equal(got, want)
    assert batch.frames_seen.tolist() == [s.frames_seen for s in singles]


# ----------------------------------------------------------------------
# Compiled plan: step-0 skip == the recurrent GEMM on an all-zero state
# ----------------------------------------------------------------------
def lstm_op_with_step0_matmul(self, x, n):
    u, t = self.u, self.t
    xp = self.xproj[:n]
    np.matmul(x.reshape(n * t, -1), self.wx, out=xp.reshape(n * t, 4 * u))
    h, c, z, hh, tmp = self.h[:n], self.c[:n], self.z[:n], self.hh[:n], self.tmp[:n]
    gate_i, gate_f, gate_g, gate_o = (g[:n] for g in self.gates)
    bias = self.b[:n]
    h.fill(0.0)
    c.fill(0.0)
    hs = self.hs[:n] if self.hs is not None else None
    for step in range(t):
        np.matmul(h, self.wh, out=hh)
        z[...] = xp[:, step, :]
        z += hh
        z += bias
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
        if hs is not None:
            hs[:, step, :] = h
    return hs if hs is not None else h


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("window", [1, 2, 5])
def test_compiled_lstm_step0_skip_is_exact(monkeypatch, dtype, window):
    model = build(
        [nn.LSTM(12, return_sequences=True), nn.LSTM(7), nn.Dense(4)],
        (window, 6),
        nn.SoftmaxCrossEntropy(),
        seed=5,
    )
    randomize(model, 5)
    rng = np.random.default_rng(6)
    scaler = nn.StandardScaler().fit(rng.standard_normal((64, window, 6)) + 1.0)
    windows = rng.standard_normal((11, window, 6)) * 2.0
    windows[0] = scaler.mean_  # standardises to zeros: signed-zero projections
    backend = CompiledBackend(scaler, model, max_batch=16, dtype=dtype)
    got = backend.predict_proba(windows).copy()
    monkeypatch.setattr(_LSTMOp, "run", lstm_op_with_step0_matmul)
    expected = backend.predict_proba(windows).copy()
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# The contraction moved from a sequential chain to fixed-shape GEMMs:
# how far the bits moved, and that no decision moved with them
# ----------------------------------------------------------------------
def assert_close_to_einsum(a, w):
    """Stated bound: both sums carry at most ~K roundings of 2**-53
    relative to sum(|a||w|); 1e-12 leaves two orders of headroom at the
    largest K swept and none for a real defect (a dropped term is
    ~1/K)."""
    got, old = contract(a, w, False), einsum_contract(a, w)
    k = w.shape[0]
    bound = 1e-12 * max(1.0, k / 512) * (np.abs(a) @ np.abs(w)) + 1e-300
    assert got.shape == old.shape and got.dtype == old.dtype
    assert np.all(np.abs(got - old) <= bound)


@given(
    k=st.integers(1, 48),
    n=st.integers(1, 48),
    batch=st.sampled_from([1, 2, 7, 17, 64]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_contract_agrees_with_the_sequential_chain_small_shapes(k, n, batch, seed):
    rng = np.random.default_rng(seed)
    assert_close_to_einsum(
        rng.standard_normal((batch, k)) * 3.0, rng.standard_normal((k, n)) * 0.3
    )


@pytest.mark.parametrize("k,n", [(38, 2048), (512, 2048), (512, 384), (96, 384), (1024, 16)])
def test_contract_agrees_with_the_sequential_chain_paper_shapes(k, n):
    rng = np.random.default_rng(k + n)
    assert_close_to_einsum(rng.standard_normal((37, k)), rng.standard_normal((k, n)))


DECISION_MONITORS = {
    "conv": dict(n_features=6, seed=1),
    "lstm": dict(n_features=6, seed=2, architecture="lstm", hidden=(7, 4)),
    "stacked_lstm_strided": dict(
        n_features=6, seed=3, architecture="lstm", hidden=(5,),
        gesture_lstm_units=(12, 7), gesture_window=WindowConfig(6, 2),
        error_window=WindowConfig(4, 3),
    ),
    "paper_widths": dict(seed=4, gesture_lstm_units=(512, 96), gesture_dense_units=64),
}


@pytest.mark.parametrize("name", DECISION_MONITORS)
def test_decisions_equal_those_of_the_retired_contraction(monkeypatch, name):
    """process() under the live contraction vs. under the retired one:
    identical gestures, identical flags, scores within 1e-9."""
    from repro.nn.layers import conv1d, dense, recurrent
    from repro.serving import make_random_walk_trajectory

    monitor = make_synthetic_monitor(**DECISION_MONITORS[name])
    n_features = DECISION_MONITORS[name].get("n_features", 38)
    n_frames = 60 if name == "paper_widths" else 240
    trajectories = [
        make_random_walk_trajectory(n_frames, n_features=n_features, seed=seed)
        for seed in (10, 11, 12)
    ]
    new = [monitor.process(t) for t in trajectories]
    for module in (dense, conv1d, recurrent):
        monkeypatch.setattr(module, "contract", einsum_contract)
    old = [monitor.process(t) for t in trajectories]
    for a, b in zip(new, old):
        assert np.array_equal(a.gestures, b.gestures)
        assert np.array_equal(a.unsafe_flags, b.unsafe_flags)
        assert np.max(np.abs(a.unsafe_scores - b.unsafe_scores)) <= 1e-9
    # Not vacuous: the walks visit several contexts and both verdicts.
    assert len(np.unique(np.concatenate([a.gestures for a in new]))) > 2
    assert set(np.concatenate([a.unsafe_flags for a in new])) == {0, 1}
