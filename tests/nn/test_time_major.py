"""The reference backend's time-major pass is the layer path, by bytes.

A model that leads with an LSTM stack is scored by
``ReferenceBackend`` a chunk of windows at a time, every layer of the
stack advancing the chunk one time step at a time.  What it reads as
input is decided by the windows' memory layout alone: a batch whose
window axis strides by a whole number of time steps below the window
length is a view over frame rows, and each frame is projected once per
chunk; anything else is projected a window step at a time.  Every
layout below — sliding views at several hops, views with gaps between
windows, copies, transposes, broadcasts, reversals, a lone window —
must give the layer path's bytes, and the frame rows read must be
elements of the batch.
"""

import numpy as np
import pytest

from repro import nn
from repro.config import WindowConfig
from repro.kinematics.windows import sliding_windows_view
from repro.nn.backends import ReferenceBackend
from repro.nn.backends import reference as reference_module
from repro.nn.layers.contract import ROW_BLOCK

N_FEATURES = 6
WINDOW = 5
CHUNK = reference_module._CHUNK


def gesture_model(seed=0):
    """The gesture classifier's shape: two LSTMs, BatchNorm, a dense
    head and softmax, with distinct non-zero parameters."""
    layers = [nn.LSTM(7, return_sequences=True), nn.LSTM(5), nn.BatchNorm(),
              nn.Dense(4), nn.ReLU(), nn.Dense(5)]
    model = nn.Sequential(layers, seed=seed)
    model.build((WINDOW, N_FEATURES))
    model.compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-3))
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p += 0.3 * rng.standard_normal(p.shape)
    model.layers[2].running_var[...] = 0.5 + rng.random(5)
    scaler = nn.StandardScaler().fit(rng.standard_normal((32, WINDOW, N_FEATURES)) * 2.0)
    return scaler, model


def frames(n, seed=1):
    out = np.random.default_rng(seed).standard_normal((n, N_FEATURES)) * 2.0
    out[0] = 0.0  # signed zeros reach the first contraction
    return out


def view(n_windows, hop):
    """A sliding-window view with the given hop, over its own frames."""
    rows = frames((n_windows - 1) * hop + WINDOW, seed=n_windows + hop)
    windows, _ = sliding_windows_view(rows, WindowConfig(WINDOW, hop))
    assert windows.shape[0] == n_windows
    return windows


def layouts(n):
    """``(name, windows, hop read off the layout or None)``."""
    base = view(n, 1)
    yield "view-hop-1", base, 1 if n > 1 else 0
    yield "view-hop-2", view(n, 2), 2 if n > 1 else 0
    yield "view-hop-4", view(n, WINDOW - 1), WINDOW - 1 if n > 1 else 0
    # Hops of a window or more: no frame is shared, and with a gap the
    # rows between windows are not part of the batch.
    yield "view-hop-5", view(n, WINDOW), None if n > 1 else 0
    yield "view-hop-7", view(n, WINDOW + 2), None if n > 1 else 0
    copy = np.ascontiguousarray(base)
    yield "copy", copy, None if n > 1 else 0
    yield "fortran", np.asfortranarray(copy), None if n > 1 else 0
    yield "transposed", np.ascontiguousarray(copy.transpose(1, 0, 2)).transpose(1, 0, 2), None if n > 1 else 0
    yield "broadcast", np.broadcast_to(copy[:1], copy.shape), 0
    yield "windows-reversed", base[::-1], None if n > 1 else 0
    yield "time-reversed", base[:, ::-1], None if n > 1 else 0


def layer_path(scaler, model, windows):
    return model.predict_proba(scaler.transform(np.array(windows)))


@pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3])
def test_every_layout_is_the_layer_path(n):
    scaler, model = gesture_model()
    backend = ReferenceBackend(scaler, model)
    for name, windows, hop in layouts(n):
        rows, got_hop = reference_module._frame_rows(windows)
        if hop is None:
            assert rows is None, name
        else:
            assert got_hop == hop, name
            for i in range(n):  # windows[i, t] is frame row i * hop + t
                assert np.array_equal(rows[i * hop : i * hop + WINDOW], windows[i]), name
        expected = layer_path(scaler, model, windows)
        got = backend.predict_proba(windows)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


def test_one_frame_projection_per_chunk(monkeypatch):
    """A view's frames are projected by the first layer once per chunk
    they fall in: one contraction of the chunk's frame span per chunk,
    where a copy of the same windows takes one per window step."""
    scaler, model = gesture_model()
    backend = ReferenceBackend(scaler, model)
    wx = model.layers[0].params["Wx"]
    windows = view(2 * CHUNK + 1, 1)
    real = reference_module.contract
    spans = []

    def spy(a, w, training):
        if w is wx:
            spans.append(a.shape[0])
        return real(a, w, training)

    monkeypatch.setattr(reference_module, "contract", spy)
    backend.predict_proba(windows)
    assert spans == [CHUNK + WINDOW - 1, CHUNK + WINDOW - 1, WINDOW]
    spans.clear()
    backend.predict_proba(np.ascontiguousarray(windows))
    assert spans == [CHUNK] * WINDOW + [CHUNK] * WINDOW + [1] * WINDOW


@pytest.mark.parametrize("n", [1, 3, CHUNK + 2])
def test_upper_layers_project_a_chunk_layer_major(monkeypatch, n):
    """The layers above the first project a chunk's whole output
    sequence of the layer below in one contraction: a lone window pays
    one padded ``ROW_BLOCK``-row block for the second layer's input
    projection, not one per time step."""
    scaler, model = gesture_model()
    backend = ReferenceBackend(scaler, model)
    wx = model.layers[1].params["Wx"]
    real = reference_module.contract
    rows = []

    def spy(a, w, training):
        if w is wx:
            rows.append(a.shape[0])
        return real(a, w, training)

    monkeypatch.setattr(reference_module, "contract", spy)
    expected = layer_path(scaler, model, view(n, 1))
    assert backend.predict_proba(view(n, 1)).tobytes() == expected.tobytes()
    chunks = [min(CHUNK, n - start) for start in range(0, n, CHUNK)]
    assert rows == [m * WINDOW for m in chunks]
    blocks = sum(-(-r // ROW_BLOCK) for r in rows)
    if n == 1:
        assert blocks == 1  # five, one per time step, when it ran time-major
