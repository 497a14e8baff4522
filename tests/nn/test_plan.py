"""The reference backend's inference plan is the layer path, by bytes.

``ReferenceBackend`` runs every ``predict_proba`` through a flat list of
steps built once per ``(scaler, model)`` (``repro.nn.backends.library``'s
``_steps``), not through ``Sequential.predict_proba``'s layer-by-layer
forward.  The contract is bytes: for every window the plan yields what
``scaler.transform`` + ``Sequential.predict_proba`` yields — the oracle
here, which ``process()``, training and every parity suite use — for
both error-classifier families, with and without BatchNorm, at every
window length and batch size that selects a different code path, and
the stream stepper's head (the plan's tail steps) on the same windows.
The plan is derived state, rebuilt when the pair is rebound; the last
test shows the suite catches a hoisted constant that is not.
"""

import warnings

import numpy as np
import pytest

from repro import nn
from repro.config import WindowConfig
from repro.core.error_classifiers import (
    ErrorClassifier,
    ErrorClassifierConfig,
    ErrorClassifierLibrary,
)
from repro.errors import ShapeError
from repro.gestures.vocabulary import Gesture
from repro.kinematics.windows import sliding_windows
from repro.nn.backends import ReferenceBackend, make_library_backend
from repro.nn.backends import library as library_module
from repro.nn.layers.contract import ROW_BLOCK

N_FEATURES = 6

ARCHITECTURES = [
    pytest.param(arch, hidden, bn, id=f"{arch}-{'x'.join(map(str, hidden))}-{'bn' if bn else 'nobn'}")
    for arch in ("conv", "lstm")
    for hidden in ((8,), (8, 4))
    for bn in (True, False)
]
WINDOWS = (1, 3, 5, 10)
#: One window, a block either side of ``ROW_BLOCK``, and one past the
#: 512-window chunk of ``Sequential.predict_proba``.
BATCHES = (1, ROW_BLOCK - 1, ROW_BLOCK + 1, 513)


def make_member(architecture, hidden, batch_norm, window, seed):
    """One trained-looking error classifier, built by the library's own
    builder (dropout included: it is part of what the builder emits)."""
    config = ErrorClassifierConfig(
        architecture=architecture,
        hidden=hidden,
        dense_units=8,
        dropout=0.2,
        use_batch_norm=batch_norm,
    )
    rng = np.random.default_rng(seed)
    clf = ErrorClassifier(Gesture(1), config, seed=seed)
    clf.model = clf._build_model(positive_weight=1.0)
    clf.model.build((window, N_FEATURES))
    for p in clf.model.parameters():  # non-zero biases, distinct weights
        p += 0.3 * rng.standard_normal(p.shape)
    for layer in clf.model.layers:  # non-trivial running statistics
        if isinstance(layer, nn.BatchNorm):
            layer.running_mean[...] = rng.standard_normal(layer.running_mean.shape)
            layer.running_var[...] = 0.5 + rng.random(layer.running_var.shape)
    clf.scaler.fit(rng.standard_normal((32, window, N_FEATURES)) * 2.0 + 1.0)
    clf._fitted = True
    return clf


def make_gesture_model(window, seed=0):
    """The gesture classifier's shape: an LSTM stack, BatchNorm, a
    dense head and softmax."""
    layers = [nn.LSTM(7, return_sequences=True), nn.LSTM(5), nn.BatchNorm(),
              nn.Dense(4), nn.ReLU(), nn.Dense(5)]
    model = nn.Sequential(layers, seed=seed)
    model.build((window, N_FEATURES))
    model.compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-3))
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p += 0.3 * rng.standard_normal(p.shape)
    model.layers[2].running_var[...] = 0.5 + rng.random(5)
    scaler = nn.StandardScaler().fit(rng.standard_normal((32, window, N_FEATURES)) * 2.0)
    return scaler, model


def make_windows(n, window, seed=1):
    rng = np.random.default_rng(seed)
    windows = rng.standard_normal((n, window, N_FEATURES)) * 2.0
    windows[0, :1] = 0.0  # signed zeros reach the first contraction
    return windows


def layer_path(scaler, model, windows):
    return model.predict_proba(scaler.transform(windows))


def assert_bytes(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes(), np.abs(got - expected).max()


@pytest.fixture(autouse=True)
def no_warnings():
    with warnings.catch_warnings():  # finite in, finite out
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("architecture,hidden,batch_norm", ARCHITECTURES)
@pytest.mark.parametrize("window", WINDOWS)
def test_plan_is_the_layer_path(architecture, hidden, batch_norm, window):
    clf = make_member(architecture, hidden, batch_norm, window, seed=window)
    backend = ReferenceBackend(clf.scaler, clf.model)
    assert backend._plan() is not None  # served by the plan, not the fallback
    for n in BATCHES:
        windows = make_windows(n, window, seed=n)
        expected = layer_path(clf.scaler, clf.model, windows)
        assert_bytes(backend.predict_proba(windows), expected)
        assert_bytes(backend.predict(windows), clf.model.predict(clf.scaler.transform(windows)))
        # A window's bytes do not depend on what shares its call.
        assert_bytes(backend.predict_proba(windows[-1:]), expected[-1:])


@pytest.mark.parametrize("window", WINDOWS)
def test_gesture_plan_and_stepper_head_are_the_layer_path(window):
    scaler, model = make_gesture_model(window)
    backend = ReferenceBackend(scaler, model)
    for n in BATCHES:
        windows = make_windows(n, window, seed=n)
        assert_bytes(backend.predict_proba(windows), layer_path(scaler, model, windows))
    # The stepper's head is the plan's tail: every completed chain of
    # three streams scores what the windowed forward gives its window.
    config = WindowConfig(window, 1)
    stepper = backend.stream_stepper(config, 3)
    streams = make_windows(3, window + 7, seed=7)
    seen = np.zeros(3, dtype=np.int64)
    slots = np.arange(3)
    for t in range(streams.shape[1]):
        seen += 1
        ready = config.completes(seen)
        got = stepper.step_proba(streams[:, t], slots, seen, ready)
        if ready.any():
            ends = [streams[k, t + 1 - window : t + 1] for k in slots[ready]]
            assert_bytes(got, layer_path(scaler, model, np.stack(ends)))
    windows, _ = sliding_windows(streams[0], config)
    assert_bytes(backend.predict_proba(windows), layer_path(scaler, model, windows))


def test_inputs_the_plan_was_not_built_for_take_the_layer_path():
    clf = make_member("conv", (8,), True, 5, seed=3)
    backend = ReferenceBackend(clf.scaler, clf.model)
    windows = make_windows(4, 5)
    expected = layer_path(clf.scaler, clf.model, windows)
    # Another dtype, a list, another window length: the layer path's
    # coercion and answers.
    assert_bytes(backend.predict_proba(windows.astype(np.float32)), layer_path(
        clf.scaler, clf.model, windows.astype(np.float32)))
    assert_bytes(backend.predict_proba(windows.tolist()), expected)
    longer = make_windows(2, 7)
    assert_bytes(backend.predict_proba(longer), layer_path(clf.scaler, clf.model, longer))
    assert backend.predict_proba(windows[:0]).shape == (0, 1)
    with pytest.raises(ShapeError):
        backend.predict_proba(np.zeros((2, 5, N_FEATURES + 1)))


def test_plan_follows_a_rebound_model_and_scaler():
    first = make_member("conv", (8,), True, 5, seed=1)
    second = make_member("conv", (8,), True, 5, seed=2)
    windows = make_windows(3, 5)
    backend = ReferenceBackend(first.scaler, first.model)
    assert_bytes(backend.predict_proba(windows), layer_path(first.scaler, first.model, windows))
    backend.model = second.model
    assert_bytes(backend.predict_proba(windows), layer_path(first.scaler, second.model, windows))
    backend.scaler = second.scaler
    assert_bytes(backend.predict_proba(windows), layer_path(second.scaler, second.model, windows))


def test_plan_follows_a_replaced_library():
    """Lone contexts go to their member's plan: a retrained member and a
    replaced ``library.classifiers`` are served by their own weights."""
    config = ErrorClassifierConfig(architecture="conv", hidden=(8,), dense_units=8)
    library = ErrorClassifierLibrary(config, seed=0)
    for g in (1, 2):
        library.classifiers[Gesture(g)] = make_member("conv", (8,), True, 5, seed=g)
    backend = make_library_backend("reference", library)
    windows = make_windows(2, 5)
    gestures = np.array([1, 1])

    def expected():
        clf = library.classifiers[Gesture(1)]
        return layer_path(clf.scaler, clf.model, windows).reshape(-1)

    assert_bytes(backend.score(windows, gestures), expected())
    library.classifiers[Gesture(1)].model = make_member("conv", (8,), True, 5, seed=5).model
    assert_bytes(backend.score(windows, gestures), expected())
    library.classifiers = {Gesture(1): make_member("conv", (8,), True, 5, seed=6)}
    assert_bytes(backend.score(windows, gestures), expected())


def a_batch_norm_constant_kept_across_rebinds(patch):
    """A plan whose BatchNorm step keeps the inverse standard deviation
    of the first model it was built for."""
    real = library_module._STACKERS[nn.BatchNorm]
    kept = {}

    def stacker(layers):
        if len(layers) > 1:
            return real(layers)
        (layer,) = layers
        inv_std = kept.setdefault(layer.running_var.shape, layer.inverse_std(layer.running_var))
        return lambda x, ctx: nn.BatchNorm.scale_shift(
            x, layer.running_mean, inv_std, layer.params["gamma"], layer.params["beta"]
        )[0]

    patch.setitem(library_module._STACKERS, nn.BatchNorm, stacker)


def test_the_suite_catches_a_stale_hoisted_constant(monkeypatch):
    test_plan_follows_a_rebound_model_and_scaler()  # unmutated: passes
    with monkeypatch.context() as patch:
        a_batch_norm_constant_kept_across_rebinds(patch)
        with pytest.raises(AssertionError):
            test_plan_follows_a_rebound_model_and_scaler()
    test_plan_follows_a_rebound_model_and_scaler()
