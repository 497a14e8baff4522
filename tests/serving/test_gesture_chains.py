"""Chain lifecycle at the service: the gesture stepper's state is derived.

The gesture stage of ``MonitorService.tick`` keeps, per session slot, the
LSTM state of every window in flight (``repro.nn.backends.stepper``) and
advances it one step per frame.  That state is never exported: it is
zeroed when a slot opens, and rebuilt from the frame ring when a
session is imported or the gesture model is rebound.  Each case below
walks one of those edges and demands the event stream of a service that
never took it — bit for bit, under the reference backend, against two
oracles that do not step: the same service with the stepper withheld (it
scores the ring's windows, as every tick did before stepping existed)
and ``SafetyMonitor.process()`` past warm-up.
"""

import dataclasses
import io
import json
from contextlib import contextmanager

import numpy as np
import pytest

from repro import nn
from repro.config import WindowConfig
from repro.gestures.vocabulary import N_GESTURE_CLASSES
from repro.kinematics.trajectory import Trajectory
from repro.nn.backends import ReferenceBackend
from repro.serving import (
    MonitorService,
    SessionState,
    ShardedMonitorService,
    make_synthetic_monitor,
    session_from_bytes,
    session_to_bytes,
)
from repro.serving import snapshot

N_FEATURES = 8
WINDOWS = [(WindowConfig(5, 1), WindowConfig(5, 1)), (WindowConfig(6, 2), WindowConfig(4, 3))]


def make_monitor(windows=WINDOWS[0], seed=1):
    return make_synthetic_monitor(
        n_features=N_FEATURES,
        seed=seed,
        gesture_window=windows[0],
        error_window=windows[1],
        gesture_lstm_units=(8, 4),
    )


def frames_of(n, seed):
    """Independent frames, not a walk: the inferred gesture then changes
    every other frame or so, which is what makes an event stream (it
    carries the argmax, not the probabilities) a sharp witness of the
    gesture stage."""
    return 2.0 * np.random.default_rng(seed).standard_normal((n, N_FEATURES))


def key(event):
    return (event.session_id, event.frame_index, event.gesture, event.score, event.flag)


@contextmanager
def stepper_withheld():
    """Services built inside score the ring's windows."""
    original = ReferenceBackend.stream_stepper
    ReferenceBackend.stream_stepper = lambda self, config, n_slots: None
    try:
        yield
    finally:
        ReferenceBackend.stream_stepper = original


def windowed_stream(monitor, frames, session_id="s"):
    """One un-migrated session on a fresh windowed service."""
    with stepper_withheld():
        service = MonitorService(monitor, max_sessions=1)
        assert service.telemetry.snapshot()["labels"]["gesture_path"] == ["windowed"]
        service.open_session(session_id)
        service.feed(session_id, frames)
        return [key(e) for e in service.drain()]


def assert_matches_process(monitor, frames, events):
    """Past warm-up the stream is what the offline windowed path says."""
    output = monitor.process(Trajectory(frames=frames, frame_rate_hz=30.0))
    start = monitor.gesture_classifier.config.window.window - 1
    assert [e[2] for e in events][start:] == output.gestures[start:].tolist()
    assert [e[3] for e in events] == output.unsafe_scores.tolist()


def test_the_oracle_is_not_the_thing_under_test():
    monitor = make_monitor()
    service = MonitorService(monitor, max_sessions=1)
    assert service.telemetry.snapshot()["labels"]["gesture_path"] == ["stepped"]
    frames = frames_of(30, 1)
    service.open_session("s")
    service.feed("s", frames)
    events = [key(e) for e in service.drain()]
    gestures = [e[2] for e in events]
    assert sum(a != b for a, b in zip(gestures, gestures[1:])) >= 10
    assert events == windowed_stream(monitor, frames)
    assert_matches_process(monitor, frames, events)


@pytest.mark.parametrize("windows", WINDOWS)
def test_a_reused_slot_starts_clean(windows):
    """The previous tenant's chains never reach the next session's
    first windows — at any point of the tenant's window cycle."""
    monitor = make_monitor(windows)
    service = MonitorService(monitor, max_sessions=1)
    frames = frames_of(23, 2)
    expected = windowed_stream(monitor, frames, "next")
    for tenant_frames in (1, 4, 5, 6, 11):
        service.open_session("tenant")
        service.feed("tenant", 5.0 * frames_of(tenant_frames, 3))
        service.drain()
        service.close_session("tenant")
        service.open_session("next")
        service.feed("next", frames)
        assert [key(e) for e in service.drain()] == expected
        service.close_session("next")


@pytest.mark.parametrize("windows", WINDOWS)
def test_export_import_between_services_and_back(windows):
    """Mid-window, with frames pending, into a different service (busy
    with a session of its own, so the slot differs) and back: chains
    are rebuilt from the ring each time, nothing else travels."""
    monitor = make_monitor(windows)
    frames = frames_of(40, 4)
    expected = windowed_stream(monitor, frames)
    for first_cut, second_cut in [(2, 3), (7, 1), (9, 9), (0, 6)]:
        home = MonitorService(monitor, max_sessions=2)
        away = MonitorService(monitor, max_sessions=2)
        away.open_session("resident")
        away.feed("resident", frames_of(60, 5))
        home.open_session("s")
        home.feed("s", frames)
        events = []
        for _ in range(first_cut):
            events += home.tick()
        state = home.export_session("s", remove=True)
        assert state.pending_frames == frames.shape[0] - first_cut
        away.import_session(session_from_bytes(session_to_bytes(state)))
        for _ in range(second_cut):
            events += [e for e in away.tick() if e.session_id == "s"]
        home.import_session(away.export_session("s", remove=True))
        events += home.drain()
        assert [key(e) for e in events] == expected


def test_session_state_is_one_position_and_one_frame_history():
    """Chains, ring phase and window emission are derived state: the
    archive carries a single position integer and a single history of
    frames, so no two of its fields can disagree about where the stream
    stands."""
    assert [f.name for f in dataclasses.fields(SessionState)] == [
        "session_id", "frames_done", "record_timeline", "current_gesture",
        "current_score", "gestures", "scores", "pending", "recent",
    ]
    assert snapshot.SESSION_SNAPSHOT_VERSION == 2
    monitor = make_monitor(WINDOWS[1])
    service = MonitorService(monitor, max_sessions=1)
    assert service.history_frames == 6
    service.open_session("s")
    service.feed("s", frames_of(9, 6))
    for _ in range(7):
        service.tick()
    blob = session_to_bytes(service.export_session("s"))
    with np.load(io.BytesIO(blob)) as archive:
        assert sorted(archive.files) == [
            "__meta__", "gestures", "pending", "recent", "scores",
        ]
        assert archive["recent"].shape == (6, N_FEATURES)
        meta = json.loads(bytes(archive["__meta__"]))
    integers = {k: v for k, v in meta.items() if type(v) is int}
    assert integers == {"version": 2, "frames_done": 7, "current_gesture": meta["current_gesture"]}
    assert set(meta) - set(integers) == {"session_id", "record_timeline", "current_score"}


def retrained(monitor, seed):
    """What ``fit()`` does to a live monitor: a new scaler fit and a
    new model object bound to the classifier."""
    classifier = monitor.gesture_classifier
    donor = make_monitor(
        (classifier.config.window, monitor.config.error_window), seed=seed
    ).gesture_classifier
    classifier.scaler = donor.scaler
    classifier.model = donor.model


@pytest.mark.parametrize("windows", WINDOWS)
def test_rebinding_the_gesture_model_mid_stream(windows):
    """The next window is scored by the new model on frames the old one
    saw: chains held for the old weights must not survive the rebind."""
    frames = [frames_of(31, 7), frames_of(26, 8)]

    def stream(rebind_at):
        monitor = make_monitor(windows)
        service = MonitorService(monitor, max_sessions=2)
        for i, f in enumerate(frames):
            service.open_session(f"s{i}")
            service.feed(f"s{i}", f)
        events = []
        for tick in range(31):
            if tick == rebind_at:
                retrained(monitor, seed=9)
            events += service.tick()
        return [key(e) for e in events]

    for rebind_at in (3, 8, 12):
        with stepper_withheld():
            expected = stream(rebind_at)
        assert stream(rebind_at) == expected
        assert expected != stream(None)  # the rebind is visible at all


@pytest.mark.parametrize("appears_at", [5, 7, 10])
def test_a_model_trained_after_the_service_started(appears_at):
    """No gesture model at construction: the ring fills anyway, and the
    stepper that appears later starts from it."""
    trained = make_monitor()
    frames = [frames_of(20, 30 + i) for i in range(3)]

    def stream():
        monitor = make_monitor()
        classifier = monitor.gesture_classifier
        classifier.model = None
        service = MonitorService(monitor, max_sessions=3)
        for i, f in enumerate(frames):
            service.open_session(f"s{i}")
            service.feed(f"s{i}", f)
        events = []
        for tick in range(20):
            if tick == appears_at:
                classifier.model = trained.gesture_classifier.model
            events += service.tick()
        return [key(e) for e in events]

    with stepper_withheld():
        expected = stream()
    assert stream() == expected
    assert {e[2] for e in expected[: 3 * appears_at]} == {0}
    assert all(e[2] for e in expected[3 * appears_at :])


@pytest.mark.parametrize("windows", WINDOWS)
def test_a_session_opened_while_others_are_mid_window(windows):
    monitor = make_monitor(windows)
    lengths = [33, 29, 21, 17]
    opened_at = [0, 2, 3, 9]
    all_frames = [frames_of(n, 11 + i) for i, n in enumerate(lengths)]
    service = MonitorService(monitor, max_sessions=4)
    events = []
    for tick in range(40):
        for i, at in enumerate(opened_at):
            if at == tick:
                service.open_session(f"s{i}")
                service.feed(f"s{i}", all_frames[i])
        events += service.tick()
    for i, frames in enumerate(all_frames):
        mine = [key(e) for e in events if e.session_id == f"s{i}"]
        assert mine == windowed_stream(monitor, frames, f"s{i}")


def test_a_gesture_model_without_a_leading_lstm_ticks_windowed():
    """The fallback is chosen from the model's layers, and is the same
    stream ``process()`` computes."""
    monitor = make_monitor()
    window = monitor.gesture_classifier.config.window.window
    model = nn.Sequential(
        [
            nn.Conv1D(6, 3, padding="same"),
            nn.ReLU(),
            nn.GlobalAveragePool1D(),
            nn.Dense(N_GESTURE_CLASSES),
        ],
        seed=3,
    )
    model.build((window, N_FEATURES))
    model.compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-3))
    monitor.gesture_classifier.model = model
    frames = frames_of(30, 12)
    for backend in ("reference", "compiled"):
        service = MonitorService(monitor, max_sessions=1, backend=backend)
        assert service.telemetry.snapshot()["labels"]["gesture_path"] == ["windowed"]
        service.open_session("s")
        service.feed("s", frames)
        events = [key(e) for e in service.drain()]
        assert len({e[2] for e in events}) > 1  # it does classify
        if backend == "reference":
            assert_matches_process(monitor, frames, events)


def test_k2_fleet_with_a_shed_and_a_resize_mid_stream():
    """Every migration path of the fleet lands in ``import_session``:
    chains are rebuilt in the worker that adopts the session."""
    monitor = make_monitor()
    fleet_frames = {f"proc-{i}": frames_of(34 + 3 * i, 20 + i) for i in range(6)}
    with stepper_withheld():
        static = MonitorService(monitor, max_sessions=6)
        for session_id, frames in fleet_frames.items():
            static.open_session(session_id)
            static.feed(session_id, frames)
        expected = [key(e) for e in static.drain()]

    with ShardedMonitorService(monitor, n_shards=2, max_sessions_per_shard=8) as fleet:
        assert fleet.telemetry_snapshot()["labels"]["gesture_path"] == ["stepped"]
        for session_id, frames in fleet_frames.items():
            fleet.open_session(session_id)
            fleet.feed(session_id, frames)
        events = []
        for _ in range(7):
            events += fleet.tick()
        movers = [sid for sid in fleet_frames if fleet.shard_of(sid) == 0][:2]
        assert movers and set(fleet.shed(movers, to_shard=1)) == set(movers)
        for _ in range(6):
            events += fleet.tick()
        fleet.resize(3)
        for _ in range(6):
            events += fleet.tick()
        fleet.resize(1)
        events += fleet.drain()
        assert not fleet.failed_sessions
    assert [key(e) for e in events] == expected
