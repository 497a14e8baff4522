"""A fleet round is one engine step (``MonitorService.advance``).

A shard worker's ``tick`` round advances every pending session by up to
``ticks`` frames in one step: the gesture stage still runs frame by
frame, but the round's error windows are scored in one library call and
its event records are packed from arrays.  Rows are scored
independently, so the round must be exactly what ``ticks`` successive
``tick()`` calls are — the same records, scores equal bit for bit — and
its error stage must run once, not once per tick.  A compiled library's
scores depend on the batch they share, so it keeps one call per tick and
the same bits.  A round that fails part-way still hands over the ticks
before the failing one.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WindowConfig
from repro.nn.backends import LibraryBackend
from repro.serving import MonitorService, make_random_walk_trajectory, make_synthetic_monitor
from repro.serving.shm import ShmRing, event_ring_capacity
from repro.serving.transport import TICKS_PER_ROUND
from repro.serving.worker import _ShardWorker

N_FEATURES = 8
MAX_SESSIONS = 4


@lru_cache(maxsize=None)
def monitor_for(architecture, gesture_stride):
    return make_synthetic_monitor(
        n_features=N_FEATURES,
        seed=4,
        architecture=architecture,
        gesture_window=WindowConfig(5, gesture_stride),
    )


def frames_of(n, seed):
    """Independent frames: gestures change often, so a round holds
    several contexts and sessions move between them mid-round."""
    return 2.0 * np.random.default_rng(seed).standard_normal((n, N_FEATURES))


def records(batch):
    """One event-ring batch as ``record_of`` tuples (latency left out)."""
    return list(zip(*(batch[name].tolist() for name in ("route", "frame", "gesture", "score", "flags"))))


def record_of(route, event):
    return (route, event.frame_index, event.gesture, event.score, int(event.flag))


#: One round of a schedule: per session slot, ``None`` (closed: close it
#: if open) or the backlog to feed (opening it first if closed).
rounds_strategy = st.lists(
    st.lists(
        st.one_of(st.none(), st.integers(0, TICKS_PER_ROUND + 3)),
        min_size=MAX_SESSIONS,
        max_size=MAX_SESSIONS,
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    backend=st.sampled_from(["reference", "compiled"]),
    architecture=st.sampled_from(["conv", "lstm"]),
    gesture_stride=st.integers(1, 3),
    ticks=st.integers(1, TICKS_PER_ROUND),
    n_sessions=st.integers(1, MAX_SESSIONS),
    schedule=rounds_strategy,
    seed=st.integers(0, 2**16),
)
def test_a_round_is_its_ticks(
    backend, architecture, gesture_stride, ticks, n_sessions, schedule, seed
):
    """One ``tick_round(T)`` of a worker yields the records ``T``
    successive ``tick()`` calls of a twin service yield, tick by tick,
    and both leave the same timelines — sessions opened, fed and closed
    between rounds, backlogs shorter and longer than the round, under
    both backends."""
    monitor = monitor_for(architecture, gesture_stride)
    block = MonitorService(monitor, max_sessions=n_sessions, backend=backend)
    ticked = MonitorService(monitor, max_sessions=n_sessions, backend=backend)
    rng = np.random.default_rng(seed)
    with ShmRing(1 << 12) as frame_ring, ShmRing(
        event_ring_capacity(TICKS_PER_ROUND, n_sessions)
    ) as event_ring:
        worker = _ShardWorker(block, frame_ring, event_ring)
        for plan in schedule:
            for route, backlog in enumerate(plan[:n_sessions]):
                session_id = f"s{route}"
                is_open = session_id in ticked.session_ids
                if backlog is None:
                    if is_open:
                        closed = [
                            block.close_session(session_id),
                            ticked.close_session(session_id),
                        ]
                        worker.drop_route(session_id)
                        assert closed[0].gestures.tolist() == closed[1].gestures.tolist()
                        assert closed[0].unsafe_scores.tolist() == closed[1].unsafe_scores.tolist()
                    continue
                if not is_open:
                    worker.bind_route(block.open_session(session_id), route)
                    ticked.open_session(session_id)
                if backlog:
                    frames = frames_of(backlog, int(rng.integers(2**31)))
                    block.feed(session_id, frames)
                    ticked.feed(session_id, frames)
            reply = worker.tick_round(ticks)
            assert reply.ok, reply.error
            got = [records(event_ring.read_events()) for _ in range(reply.value)]
            routes = {sid: int(sid[1:]) for sid in ticked.session_ids}
            want = []
            for _ in range(ticks):
                events = ticked.tick()
                if events:
                    want.append([record_of(routes[e.session_id], e) for e in events])
            assert got == want
            assert event_ring.read_events() is None
            assert block.has_pending == ticked.has_pending
        for session_id in ticked.session_ids:
            a, b = block.close_session(session_id), ticked.close_session(session_id)
            assert a.gestures.tolist() == b.gestures.tolist()
            assert a.unsafe_scores.tolist() == b.unsafe_scores.tolist()
    assert block.stats.n_ticks == ticked.stats.n_ticks
    assert block.stats.frames_processed == ticked.stats.frames_processed


@pytest.mark.parametrize("architecture", ["conv", "lstm"])
def test_a_round_runs_the_error_stage_once(architecture):
    """Per round, ``error_member_calls + error_stacked_passes`` is at
    most the number of distinct gesture contexts the round scored —
    never that many per tick."""
    monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0, architecture=architecture)
    n_sessions = 6
    service = MonitorService(monitor, max_sessions=n_sessions)
    with ShmRing(1 << 16) as frame_ring, ShmRing(
        event_ring_capacity(TICKS_PER_ROUND, n_sessions)
    ) as event_ring:
        worker = _ShardWorker(service, frame_ring, event_ring)
        for route in range(n_sessions):
            session_id = service.open_session(f"s{route}")
            worker.bind_route(session_id, route)
            service.feed(
                session_id,
                make_random_walk_trajectory(
                    6 * TICKS_PER_ROUND, n_features=N_FEATURES, seed=route
                ).frames,
            )
        rounds = 0
        while service.has_pending:
            counters = service.telemetry.snapshot()["counters"]
            before = counters.get("error_member_calls", 0) + counters.get(
                "error_stacked_passes", 0
            )
            reply = worker.tick_round(TICKS_PER_ROUND)
            assert (reply.ok, reply.value) == (True, TICKS_PER_ROUND)
            gestures = set()
            for _ in range(reply.value):
                gestures.update(event_ring.read_events()["gesture"].tolist())
            contexts = len(gestures - {0})
            counters = service.telemetry.snapshot()["counters"]
            calls = counters["error_member_calls"] + counters["error_stacked_passes"]
            if rounds:  # past the warm-up round: every frame scores a window
                assert 0 < contexts < TICKS_PER_ROUND
                assert 0 < calls - before <= contexts
            rounds += 1
        assert rounds == 6


def fed_worker(service, frame_ring, event_ring, backlogs):
    """A worker over ``service`` with sessions ``s0, s1, ...`` open and
    fed the given backlogs (independent frames, one seed per session)."""
    worker = _ShardWorker(service, frame_ring, event_ring)
    for route, backlog in enumerate(backlogs):
        session_id = f"s{route}"
        worker.bind_route(service.open_session(session_id), route)
        service.feed(session_id, frames_of(backlog, route))
    return worker


def rounds_of(monitor, backlogs, ticks):
    """What ``ticks`` successive ``tick()`` calls of a fresh service
    yield, as event-ring batches of ``record_of`` tuples."""
    service = MonitorService(monitor, max_sessions=len(backlogs))
    for route, backlog in enumerate(backlogs):
        service.open_session(f"s{route}")
        service.feed(f"s{route}", frames_of(backlog, route))
    return [
        [record_of(int(e.session_id[1:]), e) for e in service.tick()] for _ in range(ticks)
    ]


@pytest.mark.parametrize("stage", ["gesture", "error"])
@pytest.mark.parametrize("failing", [0, 3, 7])
def test_a_round_failing_inside_its_step_hands_over_the_ticks_before(
    monkeypatch, fail_inside_step, stage, failing
):
    """The round's step raises in its tick ``failing`` — in the gesture
    stage (the frame-ring push) or in the error stage (the library call
    that scores the window ending at session ``s1``'s frame
    ``failing``).  The ticks before it go on the event ring as they
    would have, the reply names the failure and counts them, and each
    session has served exactly their frames."""
    monitor = monitor_for("conv", 1)
    warm = monitor.config.error_window.window - 1  # frames before the first window
    backlogs = [warm + TICKS_PER_ROUND, warm + TICKS_PER_ROUND + 2, warm + 2]
    want = rounds_of(monitor, backlogs, warm + failing)[warm:]
    service = MonitorService(monitor, max_sessions=len(backlogs))
    with ShmRing(1 << 16) as frame_ring, ShmRing(
        event_ring_capacity(TICKS_PER_ROUND, len(backlogs))
    ) as event_ring:
        worker = fed_worker(service, frame_ring, event_ring, backlogs)
        assert worker.tick_round(warm).value == warm  # past the warm-up
        for _ in range(warm):
            event_ring.read_events()
        if stage == "gesture":
            fail_inside_step(RuntimeError, after=warm + failing, session_id="s1")
        else:
            doomed = service.frames_done("s1") + failing
            marker = frames_of(backlogs[1], 1)[doomed]
            real_score = LibraryBackend.score

            def score(self, windows, gestures):
                if (windows[:, -1] == marker).all(axis=1).any():
                    raise RuntimeError("injected tick failure")
                return real_score(self, windows, gestures)

            monkeypatch.setattr(LibraryBackend, "score", score)
        reply = worker.tick_round(TICKS_PER_ROUND)
        assert not reply.ok and reply.error_type == "RuntimeError"
        assert "injected tick failure" in reply.error
        assert reply.value == failing
        got = [records(event_ring.read_events()) for _ in range(reply.value)]
        assert event_ring.read_events() is None
        assert got == want
        assert [service.frames_done(f"s{r}") for r in range(len(backlogs))] == [
            warm + min(failing, backlog - warm) for backlog in backlogs
        ]
