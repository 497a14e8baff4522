"""The error stage at the service: one owner, and its stack is derived.

``MonitorService.tick`` hands the ready error windows and their gesture
contexts to one library backend (``repro.nn.backends.library``); under
``reference`` the contexts that bring fewer than ``ROW_BLOCK`` windows
share one stacked forward over copies of the members' parameters.
Those copies are derived state: rebuilt when a member's ``.model`` is
rebound, a member appears or disappears, or ``library.classifiers`` is
replaced.  The single-session tests of ``test_service.py`` only ever
reach the lone-context rule, so every case here runs several sessions
in different contexts — the stacked pass — and demands, bit for bit,
the stream of two oracles that do not stack: the same service with
stacking withheld (one ``predict_proba`` per distinct gesture, as every
tick did before) and ``SafetyMonitor.process()`` per session.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.error_classifiers import ErrorClassifier, ErrorClassifierConfig
from repro.gestures.vocabulary import Gesture
from repro.kinematics.trajectory import Trajectory
from repro.nn.backends import LibraryBackend, ReferenceLibraryBackend
from repro.serving import (
    MonitorService,
    ShardedMonitorService,
    make_synthetic_monitor,
)

N_FEATURES = 8
N_SESSIONS = 6
N_FRAMES = 30


def make_monitor(seed=4, architecture="conv", missing=(5, 10, 11)):
    """Seed 4's gesture stage spreads this fleet over a dozen gestures."""
    return make_synthetic_monitor(
        n_features=N_FEATURES,
        seed=seed,
        architecture=architecture,
        missing_gestures=missing,
    )


def frames_of(n, seed):
    """Independent frames, not a walk: the inferred gestures then differ
    between sessions and change every other frame, so a tick holds
    several contexts of a few windows each."""
    return 2.0 * np.random.default_rng(seed).standard_normal((n, N_FEATURES))


FLEET = [frames_of(N_FRAMES, 40 + i) for i in range(N_SESSIONS)]


def key(event):
    return (event.session_id, event.frame_index, event.gesture, event.score, event.flag)


@contextmanager
def stacking_withheld():
    """Every service scores one member call per distinct gesture."""
    original = ReferenceLibraryBackend._score_together
    ReferenceLibraryBackend._score_together = LibraryBackend._score_together
    try:
        yield
    finally:
        ReferenceLibraryBackend._score_together = original


def stream(monitor, change=None, at=None, backend="reference"):
    """The fleet's event stream; ``change(monitor)`` runs before tick ``at``."""
    service = MonitorService(monitor, max_sessions=N_SESSIONS, backend=backend)
    for i, frames in enumerate(FLEET):
        service.open_session(f"s{i}")
        service.feed(f"s{i}", frames)
    events = []
    for tick in range(N_FRAMES):
        if tick == at:
            change(monitor)
        events += service.tick()
    return [key(e) for e in events], service.telemetry.snapshot()


def process_scores(monitor):
    """Per session, what the offline windowed path scores each frame."""
    return [
        monitor.process(Trajectory(frames=frames, frame_rate_hz=30.0))
        for frames in FLEET
    ]


def assert_matches_process(events, before, after=None, at=None):
    """Each session's scores are ``process()``'s under the library in
    force when the frame was ticked (``before`` up to tick ``at``)."""
    for i in range(N_SESSIONS):
        mine = [e for e in events if e[0] == f"s{i}"]
        expected = before[i].unsafe_scores.tolist()
        if after is not None:
            expected[at:] = after[i].unsafe_scores.tolist()[at:]
        assert [e[3] for e in mine] == expected
        start = 4  # the gesture stage's warm-up
        assert [e[2] for e in mine][start:] == before[i].gestures[start:].tolist()


def busiest_gesture(monitor):
    """The trained member with the most windows over the fleet."""
    served = np.concatenate([out.gestures[4:] for out in process_scores(monitor)])
    trained = [g for g in np.unique(served) if monitor.library.has_classifier(Gesture(int(g)))]
    return Gesture(int(max(trained, key=lambda g: (served == g).sum())))


def new_member(gesture, config, seed, window=5):
    rng = np.random.default_rng(seed)
    clf = ErrorClassifier(gesture, config, seed=seed)
    clf.model = clf._build_model(positive_weight=1.0)
    clf.model.build((window, N_FEATURES))
    clf.scaler.fit(rng.standard_normal((64, window, N_FEATURES)))
    clf._fitted = True
    return clf


def check(change, at, min_passes=N_FRAMES // 2, **monitor_kwargs):
    """The stream with ``change`` applied mid-stream: stacked == withheld
    == ``process()`` on either side of the change."""
    with stacking_withheld():
        expected, telemetry = stream(make_monitor(**monitor_kwargs), change, at)
        assert telemetry["counters"]["error_stacked_passes"] == 0
    events, telemetry = stream(make_monitor(**monitor_kwargs), change, at)
    assert events == expected
    assert telemetry["counters"]["error_stacked_passes"] >= min_passes
    changed = make_monitor(**monitor_kwargs)
    change(changed)
    assert_matches_process(
        events, process_scores(make_monitor(**monitor_kwargs)), process_scores(changed), at
    )
    assert events != stream(make_monitor(**monitor_kwargs))[0]  # the change shows
    return events


@pytest.mark.parametrize("architecture", ["conv", "lstm"])
def test_the_oracle_is_not_the_thing_under_test(architecture):
    monitor = make_monitor(architecture=architecture)
    events, telemetry = stream(monitor)
    counters = telemetry["counters"]
    # Nearly every tick past warm-up held several short contexts ...
    assert counters["error_stacked_passes"] >= N_FRAMES - 8
    assert telemetry["labels"]["error_path"] == ["stacked"]
    with stacking_withheld():
        expected, withheld = stream(monitor)
    # ... which the per-member loop pays several model calls for.
    assert withheld["counters"]["error_stacked_passes"] == 0
    assert withheld["counters"]["error_member_calls"] > 2 * (
        counters["error_stacked_passes"] + counters["error_member_calls"]
    )
    assert events == expected
    assert len({e[3] for e in events}) > N_FRAMES  # it does score
    assert_matches_process(events, process_scores(monitor))


@pytest.mark.parametrize("at", [7, 12, 20])
def test_rebinding_one_members_model_mid_stream(at):
    """fit() rebinds ``.model`` (and refits the scaler): the next tick's
    stacked pass must serve the new weights, not its copy of the old."""
    gesture = busiest_gesture(make_monitor())

    def retrain(monitor):
        donor = new_member(gesture, monitor.library.config, seed=77)
        clf = monitor.library.classifiers[gesture]
        clf.model, clf.scaler = donor.model, donor.scaler

    check(retrain, at)


@pytest.mark.parametrize("architecture", ["conv", "lstm"])
def test_replacing_the_librarys_classifiers_mid_stream(architecture):
    def replace(monitor):
        monitor.library.classifiers = make_monitor(
            seed=5, architecture=architecture
        ).library.classifiers

    check(replace, 11, architecture=architecture)


@pytest.mark.parametrize("at", [3, 9])
def test_members_trained_after_the_service_started(at):
    """A service created before the library was trained serves it from
    the first tick after — never silently all-safe."""
    trained = make_monitor().library.classifiers

    def untrained():
        monitor = make_monitor()
        monitor.library.classifiers = {}
        return monitor

    def train(monitor):
        monitor.library.classifiers = trained

    with stacking_withheld():
        expected, _ = stream(untrained(), train, at)
    events, telemetry = stream(untrained(), train, at)
    assert events == expected
    # A service that had nothing to stack at construction says both.
    assert telemetry["labels"]["error_path"] == ["per-member", "stacked"]
    assert {e[3] for e in events if e[1] < at} == {0.0}
    assert_matches_process(
        [e for e in events if e[1] >= at],
        [_tail(out, at) for out in process_scores(make_monitor())],
    )


def _tail(output, at):
    """``process()`` output from frame ``at`` on (gesture warm-up kept
    aligned: ``assert_matches_process`` skips its first 4 entries)."""
    output.gestures = output.gestures[at:]
    output.unsafe_scores = output.unsafe_scores[at:]
    return output


def test_a_member_removed_and_a_member_added_late():
    gesture = busiest_gesture(make_monitor())

    def remove(monitor):
        del monitor.library.classifiers[gesture]

    # Removed: its gesture scores 0.0 — never a stale carry-over, and
    # never the stack's copy of the member that is gone.
    events = check(remove, 10)
    mine = [e for e in events if e[2] == int(gesture)]
    assert {e[3] for e in mine if e[1] >= 10} == {0.0}
    assert all(e[3] for e in mine if e[1] < 10) and len(mine) > 20

    def add(monitor):  # the same member, arriving late
        monitor.library.classifiers[gesture] = new_member(
            gesture, monitor.library.config, seed=78
        )

    events = check(add, 10, missing=(int(gesture),))
    mine = [e for e in events if e[2] == int(gesture)]
    assert {e[3] for e in mine if e[1] < 10} == {0.0}
    assert all(e[3] for e in mine if e[1] >= 10) and len(mine) > 20


def test_a_heterogeneous_library_ticks_per_member_and_says_so():
    """Two members of different width: nothing to stack, chosen from
    the models' structure."""

    def widen(monitor):
        wider = ErrorClassifierConfig(
            architecture="conv", hidden=(12,), dense_units=8, dropout=0.0
        )
        gesture = busiest_gesture(make_monitor())
        monitor.library.classifiers[gesture] = new_member(gesture, wider, seed=79)
        return monitor

    monitor = widen(make_monitor())
    events, telemetry = stream(monitor)
    assert telemetry["labels"]["error_path"] == ["per-member"]
    assert telemetry["counters"]["error_stacked_passes"] == 0
    assert telemetry["counters"]["error_member_calls"] > N_FRAMES
    assert_matches_process(events, process_scores(monitor))
    # Rebound to it mid-stream, a service shows both paths.
    check(widen, 12, min_passes=5)
    _, telemetry = stream(make_monitor(), widen, 12)
    assert telemetry["labels"]["error_path"] == ["per-member", "stacked"]


@pytest.mark.parametrize("backend", ["compiled", "compiled-f32"])
def test_the_compiled_backends_keep_the_per_member_loop(backend):
    events, telemetry = stream(make_monitor(), backend=backend)
    assert telemetry["labels"]["error_path"] == ["per-member"]
    assert telemetry["counters"]["error_stacked_passes"] == 0
    assert telemetry["counters"]["error_member_calls"] > N_FRAMES
    reference, _ = stream(make_monitor())
    np.testing.assert_allclose(
        [e[3] for e in events], [e[3] for e in reference], atol=1e-3
    )


def test_k2_fleet_with_a_shed_mid_stream_equals_one_service():
    monitor = make_monitor()
    fleet_frames = {f"proc-{i}": frames_of(34 + 3 * i, 60 + i) for i in range(8)}
    static = MonitorService(monitor, max_sessions=8)
    for session_id, frames in fleet_frames.items():
        static.open_session(session_id)
        static.feed(session_id, frames)
    expected = [key(e) for e in static.drain()]

    with ShardedMonitorService(monitor, n_shards=2, max_sessions_per_shard=8) as fleet:
        for session_id, frames in fleet_frames.items():
            fleet.open_session(session_id)
            fleet.feed(session_id, frames)
        events = []
        for _ in range(9):
            events += fleet.tick()
        homes = {sid: fleet.shard_of(sid) for sid in fleet_frames}
        source = max(fleet.shard_indices, key=list(homes.values()).count)
        target = next(k for k in fleet.shard_indices if k != source)
        movers = [sid for sid, shard in homes.items() if shard == source][:2]
        assert set(fleet.shed(movers, to_shard=target)) == set(movers)
        events += fleet.drain()
        assert not fleet.failed_sessions
        telemetry = fleet.telemetry_snapshot()
    assert [key(e) for e in events] == expected
    assert telemetry["labels"]["error_path"] == ["stacked"]
    assert telemetry["counters"]["error_stacked_passes"] > 0
