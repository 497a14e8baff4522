"""The stream stepper's own property suite.

A stepper (``repro.nn.backends.stepper``) advances every in-flight window
of a stream one LSTM step per frame instead of re-running ``window``
steps per window.  Its contract is the backend's own: under
``reference`` the probabilities of every completed window are **the
same bytes** ``Sequential.predict_proba`` yields on that window
(``contract`` makes a row's bits a function of the row and the weights,
the gate arithmetic is one shared element-wise function), under
``compiled`` / ``compiled-f32`` they agree within the existing
``atol=1e-6`` / ``5e-4``.  Bit-exactness is shown here by test, per
BLAS kernel family in CI, not by that argument — including the three
ways an implementation can be subtly wrong and still look plausible
(the mutation tests at the end).
"""

import warnings

import numpy as np
import pytest

from repro import nn
from repro.config import WindowConfig
from repro.errors import ConfigurationError, ShapeError
from repro.kinematics.windows import sliding_windows
from repro.nn.backends import BACKEND_NAMES, StreamStepper, make_backend
from repro.nn.backends import reference as reference_module
from repro.nn.layers import recurrent

N_FEATURES = 6
N_CLASSES = 5
ATOL = {"reference": 0.0, "compiled": 1e-6, "compiled-f32": 5e-4}
#: Second-layer width per first-layer width, so each size is tried in
#: both positions of a two-layer stack.
SECOND = {1: 3, 3: 16, 16: 1}


def build(units, window, n_features, seed=0):
    """A trained-looking model that leads with an LSTM stack."""
    layers = [
        nn.LSTM(u, return_sequences=i < len(units) - 1) for i, u in enumerate(units)
    ]
    layers += [nn.BatchNorm(), nn.Dense(4), nn.ReLU(), nn.Dense(N_CLASSES)]
    model = nn.Sequential(layers, seed=seed)
    model.build((window, n_features))
    model.compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-3))
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p += 0.3 * rng.standard_normal(p.shape)
    scaler = nn.StandardScaler().fit(
        rng.standard_normal((64, window, n_features)) * 2.0 + 1.0
    )
    return scaler, model


def make_streams(n_slots, n_frames, n_features, seed=1):
    rng = np.random.default_rng(seed)
    streams = rng.standard_normal((n_slots, n_frames, n_features)) * 2.0
    streams[0, :2] = 0.0  # signed zeros reach the first projection
    return streams


def run(stepper, streams, config, offsets, order=None):
    """Feed slot ``k`` its stream starting at tick ``offsets[k]``, every
    live slot in one call per tick, rows in ``order``.  Returns the
    probabilities each slot's completed windows were given."""
    n_slots, n_frames, _ = streams.shape
    seen = np.zeros(n_slots, dtype=np.int64)
    got = {k: [] for k in range(n_slots)}
    for tick in range(n_frames + max(offsets)):
        live = [k for k in (order or range(n_slots)) if 0 <= tick - offsets[k] < n_frames]
        if not live:
            continue
        slots = np.array(live)
        frames = np.stack([streams[k, tick - offsets[k]] for k in live])
        seen[slots] += 1
        count = seen[slots]
        ready = (count >= config.window) & ((count - config.window) % config.stride == 0)
        probs = stepper.step_proba(frames, slots, count, ready)
        assert probs.shape == (int(ready.sum()), N_CLASSES)
        for k, row in zip(slots[ready], probs):
            got[int(k)].append(row.copy())
    return {k: np.array(rows).reshape(-1, N_CLASSES) for k, rows in got.items()}


def windowed(scaler, model, stream, config):
    """The oracle: ``Sequential.predict_proba`` on the stream's windows."""
    windows, _ = sliding_windows(stream, config)
    if not windows.shape[0]:
        return np.empty((0, N_CLASSES))
    return model.predict_proba(scaler.transform(windows))


def assert_matches(name, got, expected):
    assert got.shape == expected.shape
    if name == "reference":
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(got, expected, atol=ATOL[name], rtol=0)


def check(name, units, window, stride, subset=None, n_slots=3, mutate=None):
    """Stepping ``n_slots`` streams at different phases, frame by frame,
    reproduces the windowed forward on each stream's windows."""
    config = WindowConfig(window, stride)
    streams = make_streams(n_slots, 3 * max(window, stride) + 5, N_FEATURES)
    if subset is not None:
        streams = streams[:, :, subset]
    scaler, model = build(units, window, streams.shape[2], seed=window * 31 + stride)
    backend = make_backend(name, scaler, model, max_batch=n_slots)
    stepper = backend.stream_stepper(config, n_slots)
    assert isinstance(stepper, StreamStepper)
    if mutate is not None:
        mutate(stepper)
    got = run(stepper, streams, config, offsets=[2 * k for k in range(n_slots)])
    for k in range(n_slots):
        assert_matches(name, got[k], windowed(scaler, model, streams[k], config))


WINDOWS = [1, 2, 3, 5, 10]


def strides(window):
    return sorted({1, 2, 3, window + 1})


@pytest.mark.parametrize("name", BACKEND_NAMES)
@pytest.mark.parametrize(
    "window,stride", [(w, s) for w in WINDOWS for s in strides(w)]
)
def test_stepping_equals_the_windowed_forward(name, window, stride):
    for first in (1, 3, 16):
        for units in ((first,), (first, SECOND[first])):
            check(name, units, window, stride)
    # A feature subset arrives as a gathered (and, below, strided) view.
    check(name, (3, 16), window, stride, subset=[4, 0, 2])
    check(name, (16,), window, stride, subset=slice(None, None, 2))


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_row_order_within_a_call_is_free(name):
    config = WindowConfig(5, 2)
    scaler, model = build((16, 3), 5, N_FEATURES)
    streams = make_streams(4, 23, N_FEATURES)
    offsets = [0, 3, 1, 6]
    runs = []
    for order in (None, [3, 1, 0, 2], [2, 0, 3, 1]):
        backend = make_backend(name, scaler, model, max_batch=4)
        runs.append(run(backend.stream_stepper(config, 4), streams, config, offsets, order))
    for other in runs[1:]:
        for k in range(4):
            assert_matches(name, other[k], windowed(scaler, model, streams[k], config))
            if name == "reference":
                assert other[k].tobytes() == runs[0][k].tobytes()


@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan, 5e-324])
def test_a_poisoned_neighbour_moves_no_finite_slots_bits(poison):
    """Rows share contractions, never values: a slot whose chain state
    is non-finite or denormal leaves every other slot's bytes alone."""
    config = WindowConfig(5, 1)
    scaler, model = build((16, 3), 5, N_FEATURES)
    streams = make_streams(3, 19, N_FEATURES)
    backend = make_backend("reference", scaler, model)
    clean = run(backend.stream_stepper(config, 3), streams, config, [0, 0, 0])

    stepper = backend.stream_stepper(config, 3)
    original = type(stepper)._advance

    def advance_poisoning_slot_1(self, frames, frame_rows, state_rows, n_recurrent):
        for state in (*self._h, *self._c):
            state.reshape(self.n_slots, self.n_chains, -1)[1] = poison
        original(self, frames, frame_rows, state_rows, n_recurrent)

    stepper._advance = advance_poisoning_slot_1.__get__(stepper)
    with np.errstate(all="ignore"):
        dirty = run(stepper, streams, config, [0, 0, 0])
    for k in (0, 2):
        assert dirty[k].tobytes() == clean[k].tobytes()
    assert dirty[1].tobytes() != clean[1].tobytes()


@pytest.mark.parametrize("name", BACKEND_NAMES)
@pytest.mark.parametrize("window,stride", [(5, 1), (5, 3), (3, 4), (10, 11), (2, 3)])
def test_stale_and_warming_chains_raise_no_warning(name, window, stride):
    """Chains that have completed (stride does not divide the window, or
    exceeds it) and chains not yet started are still advanced, on real
    frames from whatever they last held: finite in, finite out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        check(name, (16, 3), window, stride)
        config = WindowConfig(window, stride)
        scaler, model = build((3,), window, N_FEATURES)
        stepper = make_backend(name, scaler, model).stream_stepper(config, 2)
        streams = make_streams(2, 60 * max(window, stride), N_FEATURES) * 3.0
        run(stepper, streams, config, [0, 1])
        for state in (*stepper._h, *stepper._c):
            assert np.isfinite(state).all()


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_groups_do_not_change_results(name):
    """More slots than one pass holds are stepped in groups; which group
    a slot lands in is not observable."""

    def slots_per_pass(k):
        return lambda stepper: setattr(stepper, "group", k)

    check(name, (16, 3), 5, 1, n_slots=4, mutate=slots_per_pass(1))
    check(name, (16, 3), 5, 1, n_slots=4, mutate=slots_per_pass(2))
    check(name, (3,), 5, 2, n_slots=5, mutate=slots_per_pass(3))  # 5 = 3 + 2


def test_a_pass_is_sized_in_bytes_not_rows():
    """16 paper-scale streams per pass (64 carried rows: whole row
    blocks for the reference contraction); a model a few units wide is
    never split; float32 rows are half the size."""
    config = WindowConfig(5, 1)
    scaler, model = build((512, 96), 5, N_FEATURES)
    assert make_backend("reference", scaler, model).stream_stepper(config, 64).group == 16
    assert make_backend("compiled", scaler, model).stream_stepper(config, 64).group == 16
    assert make_backend("compiled-f32", scaler, model).stream_stepper(config, 64).group == 32
    scaler, model = build((16,), 5, N_FEATURES)
    assert make_backend("reference", scaler, model).stream_stepper(config, 64).group >= 64


# ----------------------------------------------------------------------
# Lifecycle: reset and rebuild
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_reset_slot_starts_a_fresh_stream(name):
    config = WindowConfig(5, 2)
    scaler, model = build((16, 3), 5, N_FEATURES)
    stepper = make_backend(name, scaler, model).stream_stepper(config, 2)
    first = make_streams(2, 17, N_FEATURES, seed=3) * 4.0
    run(stepper, first, config, [0, 0])  # the previous tenants
    stepper.reset(np.array([0, 1]))
    for state in (*stepper._h, *stepper._c):
        assert not state.any()
    streams = make_streams(2, 17, N_FEATURES, seed=4)
    got = run(stepper, streams, config, [0, 3])
    for k in range(2):
        assert_matches(name, got[k], windowed(scaler, model, streams[k], config))


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_a_slot_reused_without_reset_still_cannot_leak(name):
    """Zeroing at reset is hygiene: a chain is only ever read after the
    frame that starts it, and starting ignores what the row held."""
    config = WindowConfig(5, 1)
    scaler, model = build((16, 3), 5, N_FEATURES)
    stepper = make_backend(name, scaler, model).stream_stepper(config, 1)
    run(stepper, make_streams(1, 13, N_FEATURES, seed=3) * 4.0, config, [0])
    streams = make_streams(1, 13, N_FEATURES, seed=4)
    got = run(stepper, streams, config, [0])
    assert_matches(name, got[0], windowed(scaler, model, streams[0], config))


@pytest.mark.parametrize("name", BACKEND_NAMES)
@pytest.mark.parametrize("window,stride", [(5, 1), (5, 2), (3, 4), (1, 1), (10, 3)])
def test_rebuild_from_recent_frames_continues_the_stream(name, window, stride):
    """Chains are derived state: at every cut point, a new stepper given
    the stream's last ``window - 1`` frames and its frame count goes on
    exactly as the uninterrupted one."""
    config = WindowConfig(window, stride)
    scaler, model = build((16, 3), window, N_FEATURES)
    backend = make_backend(name, scaler, model)
    stream = make_streams(1, 2 * max(window, stride) + 6, N_FEATURES)[0]
    expected = windowed(scaler, model, stream, config)
    slot = np.array([1])
    for cut in range(stream.shape[0]):
        stepper = backend.stream_stepper(config, 2)
        stepper._h[0][...] = 7.0  # whatever the slot held before
        history = stream[max(0, cut - window) : cut]  # a ring's worth
        stepper.rebuild(1, history, cut)
        rows = []
        for t in range(cut, stream.shape[0]):
            count = np.array([t + 1])
            ready = (count >= window) & ((count - window) % stride == 0)
            rows.extend(stepper.step_proba(stream[t][None], slot, count, ready).copy())
        n_before = len(expected) - len(rows)
        assert n_before == config.n_windows(cut)
        assert_matches(
            name, np.array(rows).reshape(-1, N_CLASSES), expected[n_before:]
        )


def test_rebuild_refuses_too_short_a_history():
    scaler, model = build((3,), 5, N_FEATURES)
    stepper = make_backend("reference", scaler, model).stream_stepper(WindowConfig(5, 1), 1)
    with pytest.raises(ShapeError, match="last 4 frames"):
        stepper.rebuild(0, np.zeros((3, N_FEATURES)), 9)
    stepper.rebuild(0, np.zeros((3, N_FEATURES)), 3)  # a 3-frame stream: all of it


# ----------------------------------------------------------------------
# Which models have a stepper, and what one step costs
# ----------------------------------------------------------------------
def plain(layers, window=5):
    model = nn.Sequential(layers, seed=0)
    model.build((window, N_FEATURES))
    model.compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-3))
    rng = np.random.default_rng(0)
    return nn.StandardScaler().fit(rng.standard_normal((8, window, N_FEATURES))), model


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_only_a_leading_lstm_stack_is_stepped(name):
    config = WindowConfig(5, 1)
    not_leading = [
        [nn.Conv1D(4, 3, padding="same"), nn.ReLU(), nn.GlobalAveragePool1D(), nn.Dense(3)],
        [nn.Dense(4), nn.Tanh(), nn.Flatten(), nn.Dense(3)],
        # The stack's output is a sequence: the rest needs every step.
        [nn.LSTM(4, return_sequences=True), nn.GlobalAveragePool1D(), nn.Dense(3)],
        [nn.Conv1D(4, 3, padding="same"), nn.LSTM(4), nn.Dense(3)],
    ]
    for layers in not_leading:
        scaler, model = plain(layers)
        assert recurrent.leading_lstm_stack(model.layers) == []
        assert make_backend(name, scaler, model).stream_stepper(config, 2) is None
    scaler, model = plain([nn.LSTM(4, return_sequences=True), nn.LSTM(3), nn.Dense(3)])
    assert recurrent.leading_lstm_stack(model.layers) == model.layers[:2]
    assert make_backend(name, scaler, model).stream_stepper(config, 2) is not None


def test_compiled_stepper_fits_the_plan_it_steps():
    scaler, model = build((3,), 5, N_FEATURES)
    backend = make_backend("compiled", scaler, model, max_batch=4)
    with pytest.raises(ConfigurationError, match="cannot step 5"):
        backend.stream_stepper(WindowConfig(5, 1), 5)
    with pytest.raises(ConfigurationError):
        backend.stream_stepper(WindowConfig(5, 1), 0)


def test_step_takes_hard_decisions_like_predict():
    config = WindowConfig(3, 1)
    scaler, model = build((16, 3), 3, N_FEATURES)
    stream = make_streams(1, 9, N_FEATURES)[0]
    windows, _ = sliding_windows(stream, config)
    for name in BACKEND_NAMES:
        backend = make_backend(name, scaler, model)
        stepper = backend.stream_stepper(config, 1)
        got = []
        for t in range(stream.shape[0]):
            count = np.array([t + 1])
            out = stepper.step(stream[t][None], np.array([0]), count, count >= 3)
            assert out.shape == (int(t >= 2),)
            got.extend(out.tolist())
        assert got == backend.predict(windows).tolist()


def test_one_recurrent_contraction_per_layer_per_frame(monkeypatch):
    """The point of stepping: ``n_layers`` recurrent contractions per
    frame, not ``n_layers * (window - 1)``."""
    window, units = 5, (16, 3)
    config = WindowConfig(window, 1)
    scaler, model = build(units, window, N_FEATURES)
    recurrent_shapes = {(u, 4 * u) for u in units}
    stream = make_streams(3, 12, N_FEATURES)
    windows = np.stack([stream[k, 7:12] for k in range(3)])
    calls = []

    def counting(fn):
        def wrapper(a, w, *args, **kwargs):
            calls.append(w.shape)
            return fn(a, w, *args, **kwargs)

        return wrapper

    def n_recurrent(action):
        calls.clear()
        action()
        return sum(shape in recurrent_shapes for shape in calls)

    # Each backend through its own contraction: ``contract`` (which
    # itself calls matmul, per row block) and a bare ``np.matmul``.
    counted = {
        "reference": [(recurrent, "contract"), (reference_module, "contract")],
        "compiled": [(np, "matmul")],
    }
    for name, targets in counted.items():
        backend = make_backend(name, scaler, model, max_batch=3)
        stepper = backend.stream_stepper(config, 3)
        seen = np.zeros(3, dtype=np.int64)
        with monkeypatch.context() as patch:
            for owner, attr in targets:
                patch.setattr(owner, attr, counting(getattr(owner, attr)))
            for t in range(12):
                seen += 1
                step = lambda: stepper.step_proba(  # noqa: E731
                    stream[:, t], np.arange(3), seen, seen >= window
                )
                assert n_recurrent(step) == len(units), (name, t)
            assert n_recurrent(lambda: backend.predict_proba(windows)) == len(units) * (
                window - 1
            )


# ----------------------------------------------------------------------
# Mutations the suite must catch
# ----------------------------------------------------------------------
def contract_the_starting_chains_stale_state(stepper):
    """Treat every row as carried: a starting chain steps from what its
    row last held instead of from the zero state."""
    plan = stepper._plan

    def mutated(slots, seen):
        frame_rows, state_rows, _ = plan(slots, seen)
        return frame_rows, state_rows, state_rows.shape[0]

    stepper._plan = mutated


def share_the_projection_across_slots(stepper):
    """Every chain of the call consumes the first slot's frame."""
    plan = stepper._plan

    def mutated(slots, seen):
        frame_rows, state_rows, n_recurrent = plan(slots, seen)
        return np.zeros_like(frame_rows), state_rows, n_recurrent

    stepper._plan = mutated


def emit_the_neighbouring_chain(stepper):
    """Hand over the chain started one stride too early."""
    stepper.window += stepper.stride


@pytest.mark.parametrize("name", ["reference", "compiled"])
@pytest.mark.parametrize(
    "mutate",
    [
        contract_the_starting_chains_stale_state,
        share_the_projection_across_slots,
        emit_the_neighbouring_chain,
    ],
)
def test_the_suite_catches(name, mutate):
    check(name, (16, 3), 5, 1)  # the unmutated stepper passes
    with pytest.raises(AssertionError):
        check(name, (16, 3), 5, 1, mutate=mutate)
    with pytest.raises(AssertionError):
        check(name, (3,), 5, 2, mutate=mutate)
