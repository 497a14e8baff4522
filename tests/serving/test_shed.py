"""Tests for manual load-aware placement: the shed actuator and the
placement overlay, from the sharded service up to the gateway.

The headline guarantees:

- a shed mid-stream changes nothing: event streams stay bit-identical
  (order included) to an unsharded :class:`MonitorService` run, because
  the shed rides the same export→import migration path resize does;
- the placement overlay makes every later placement decision follow the
  moved sessions (``add_shard`` does not undo a shed; park/resume
  re-imports land on the pinned shard);
- failure is safe: removing or crashing a shed target never silently
  loses a session.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkerError
from repro.serving import (
    MonitorService,
    ShardedMonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)

from test_sharded import count_exchanges, kill_worker

N_FEATURES = 10


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=N_FEATURES, seed=0)


def make_fleet(n_sessions, base_seed=100, frames=40, step=5):
    return {
        f"proc-{i}": make_random_walk_trajectory(
            frames + step * i, n_features=N_FEATURES, seed=base_seed + i
        )
        for i in range(n_sessions)
    }


def event_key(event):
    return (event.session_id, event.frame_index, event.gesture, event.score, event.flag)


class TestShedActuator:
    """ShardedMonitorService.shed + the placement overlay."""

    def test_shed_moves_and_pins_sessions(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=16
        ) as service:
            for _ in range(8):
                service.open_session()
            occupancy = service.shard_occupancy()
            hot = max(occupancy, key=occupancy.get)
            cold = min(occupancy, key=occupancy.get)
            victims = service.sessions_on(hot)[:2]
            moved = service.shed(victims, cold)
            assert moved == {sid: hot for sid in victims}
            for sid in victims:
                assert service.shard_of(sid) == cold
            after = service.shard_occupancy()
            assert after[hot] == occupancy[hot] - 2
            assert after[cold] == occupancy[cold] + 2
            assert service.telemetry.counter("sheds").value == 1
            assert service.telemetry.counter("sessions_shed").value == 2

    def test_shed_skips_sessions_closed_since_the_plan(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sid = service.open_session()
            other = service.open_session()
            service.close_session(sid)
            source = service.shard_of(other)
            target = next(i for i in service.shard_indices if i != source)
            moved = service.shed([sid, other], target)
            assert moved == {other: source}  # the closed one was skipped
            assert service.shard_of(other) == target

    @pytest.mark.parametrize("target", ["unknown", "crashed"])
    def test_shed_to_dead_shard_raises(self, monitor, target):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sid = service.open_session()
            to_shard = 99
            if target == "crashed":
                to_shard = next(
                    i for i in service.shard_indices if i != service.shard_of(sid)
                )
                service._shards[to_shard].process.kill()
                service._shards[to_shard].process.join(timeout=10)
                service.take_undelivered_events()  # the crash surfaces
            with pytest.raises(WorkerError):
                service.shed([sid], to_shard)

    def test_full_target_stops_the_batch(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=3
        ) as service:
            source, target = service.shard_indices[:2]
            for i in range(2):
                service.open_on_shard(f"resident-{i}", target)
            victims = [f"victim-{i}" for i in range(3)]
            for sid in victims:
                service.open_on_shard(sid, source)
            moved = service.shed(victims, target)
            # One slot was free: the first victim lands, the rest stay
            # put and keep serving from their own shard.
            assert moved == {victims[0]: source}
            assert [service.shard_of(sid) for sid in victims] == [
                target,
                source,
                source,
            ]
            assert not service.failed_sessions

    def test_dead_target_spends_no_exchange_on_the_rest(self, monitor):
        """The move loop's failure rule for a dead target: the session in
        flight fails safe with it, and the rest of the batch stays home
        with no exchange spent on it."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            source, target = service.shard_indices[:2]
            victims = [f"victim-{i}" for i in range(4)]
            for sid in victims:
                service.open_on_shard(sid, source)
            tallies = count_exchanges(service)
            handle = service._shards[target]

            def send(request, _send=handle.send):
                if request.op == "migrate_in" and request.session_id == victims[1]:
                    kill_worker(service, target)
                return _send(request)

            handle.send = send
            moved = service.shed(victims, target)
            assert moved == {victims[0]: source}
            # Two exports and two imports (the second to a dead worker).
            assert tallies[source]["sent"] == tallies[target]["sent"] == 2
            terminals = service.take_undelivered_events()
            assert sorted(e.session_id for e in terminals) == victims[:2]
            assert all(e.flag and e.error for e in terminals)
            assert [service.shard_of(sid) for sid in victims[2:]] == [source] * 2
            assert not service._overlay

    def test_add_shard_does_not_undo_a_shed(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=32
        ) as service:
            for _ in range(12):
                service.open_session()
            occupancy = service.shard_occupancy()
            hot = max(occupancy, key=occupancy.get)
            cold = min(occupancy, key=occupancy.get)
            victims = service.sessions_on(hot)[:3]
            service.shed(victims, cold)
            service.add_shard()
            for sid in victims:
                assert service.shard_of(sid) == cold

    def test_feed_follows_the_overlay_after_shed(self, monitor):
        trajectory = make_random_walk_trajectory(
            30, n_features=N_FEATURES, seed=42
        )
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sid = service.open_session()
            source = service.shard_of(sid)
            target = next(i for i in service.shard_indices if i != source)
            service.feed(sid, trajectory.frames[:15])
            service.shed([sid], target)
            # Frames fed *after* the shed must land on the new shard —
            # the overlay is what keeps routing with the session.
            service.feed(sid, trajectory.frames[15:])
            events = service.drain()
            assert len(events) == 30
            assert not service.failed_sessions
            result = service.close_session(sid)
            assert result.n_frames == 30

    def test_remove_shard_of_shed_target_fails_safe(self, monitor):
        """The interplay regression: retiring a shed target releases its
        pins; the pinned sessions re-place on the ring — nothing lost."""
        fleet = make_fleet(6, base_seed=300, frames=30, step=2)
        with ShardedMonitorService(
            monitor, n_shards=3, max_sessions_per_shard=16
        ) as service:
            for session_id, trajectory in fleet.items():
                service.open_session(session_id)
                service.feed(session_id, trajectory.frames)
            events = []
            for _ in range(5):
                events += service.tick()
            target = service.shard_indices[0]
            victims = [
                sid for sid in fleet if service.shard_of(sid) != target
            ][:2]
            service.shed(victims, target)
            # Retire the shed target mid-stream, pinned sessions aboard.
            moved = service.remove_shard(target)
            assert set(victims) <= set(moved)
            for sid in victims:
                assert service.shard_of(sid) != target
            events += service.drain()
            assert not service.failed_sessions
            results = {sid: service.close_session(sid) for sid in fleet}
            total = sum(len(t.frames) for t in fleet.values())
            # Every frame of every session produced exactly one event.
            assert len(events) == total
            assert sum(r.n_frames for r in results.values()) == total

    def test_crashed_shed_target_fails_its_sessions_safe(self, monitor):
        """A shed target that dies doesn't silently lose its pinned
        sessions: they surface as flagged terminal events."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sids = [service.open_session() for _ in range(4)]
            target = service.shard_indices[0]
            victims = [s for s in sids if service.shard_of(s) != target][:1]
            service.shed(victims, target)
            on_target = service.sessions_on(target)
            service._shards[target].process.kill()
            service._shards[target].process.join(timeout=10)
            events = service.take_undelivered_events()
            assert {e.session_id for e in events} == set(on_target)
            assert all(e.flag and e.error for e in events)
            assert set(on_target) <= set(service.failed_sessions)
            # The survivors keep serving; their placement is untouched.
            survivors = [s for s in sids if s not in on_target]
            for sid in survivors:
                assert service.shard_of(sid) != target


class TestShedParity:
    """A shed mid-stream changes nothing in the event stream."""

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_shed_matches_static_service_bit_identically(self, monitor, n_shards):
        fleet = make_fleet(8, base_seed=800, frames=45, step=3)
        static = MonitorService(monitor, max_sessions=8)
        for session_id, trajectory in fleet.items():
            static.open_session(session_id)
            static.feed(session_id, trajectory.frames)
        static_events = static.drain()
        static_results = {sid: static.close_session(sid) for sid in fleet}

        with ShardedMonitorService(
            monitor, n_shards=n_shards, max_sessions_per_shard=16
        ) as service:
            for session_id, trajectory in fleet.items():
                service.open_session(session_id)
                service.feed(session_id, trajectory.frames)
            events = []
            for _ in range(12):
                events += service.tick()
            # Shed everything off one shard, then half of it back — two
            # migrations per moved session, mid-stream.
            a, b = service.shard_indices[:2]
            service.shed(service.sessions_on(a), b)
            back = service.sessions_on(b)[: len(fleet) // 2]
            service.shed(back, a)
            for _ in range(12):
                events += service.tick()
            events += service.drain()
            assert not service.failed_sessions
            results = {sid: service.close_session(sid) for sid in fleet}

        assert [event_key(e) for e in events] == [
            event_key(e) for e in static_events
        ]
        for sid in fleet:
            assert np.array_equal(
                results[sid].unsafe_scores, static_results[sid].unsafe_scores
            )
            assert np.array_equal(
                results[sid].gestures, static_results[sid].gestures
            )


    @pytest.mark.parametrize(
        "plan",
        [
            ["shed", 4],
            ["shed", 1],
            [3, "shed"],
            [1, "shed", 3],
            ["shed", 3, "shed", 2],
            ["shed", 1, 3],
        ],
        ids=[
            "shed-then-grow",
            "shed-then-shrink",
            "grow-then-shed",
            "shrink-shed-grow",
            "shed-grow-shed-shrink",
            "shed-shrink-grow",
        ],
    )
    def test_sheds_and_resizes_interleaved_match_static_service(
        self, monitor, plan
    ):
        """Manual shape changes in any order — a shed (half the busiest
        shard's sessions onto the emptiest one) or a resize to ``k`` —
        change nothing in the event stream.  Pins hold across a grow and are
        released when a shrink retires their shard."""
        fleet = make_fleet(8, base_seed=850, frames=40, step=3)
        static = MonitorService(monitor, max_sessions=8)
        for session_id, trajectory in fleet.items():
            static.open_session(session_id)
            static.feed(session_id, trajectory.frames)
        static_events = static.drain()

        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=16
        ) as service:
            for session_id, trajectory in fleet.items():
                service.open_session(session_id)
                service.feed(session_id, trajectory.frames)
            events = []
            pins = {}
            for step in plan:
                for _ in range(6):
                    events += service.tick()
                if step == "shed":
                    occupancy = service.shard_occupancy()
                    hot = max(occupancy, key=occupancy.get)
                    cold = min(occupancy, key=occupancy.get)
                    victims = service.sessions_on(hot)
                    victims = victims[: max(1, len(victims) // 2)]
                    moved = service.shed(victims, cold)
                    assert len(moved) == (len(victims) if hot != cold else 0)
                    pins.update(dict.fromkeys(victims, cold))
                else:
                    service.resize(step)
                    assert service.n_shards == step
                live = set(service.shard_indices)
                pins = {sid: pin for sid, pin in pins.items() if pin in live}
                for sid, pin in pins.items():
                    assert service.shard_of(sid) == pin
            events += service.drain()
            assert not service.failed_sessions
            results = {sid: service.close_session(sid) for sid in fleet}

        assert [event_key(e) for e in events] == [
            event_key(e) for e in static_events
        ]
        for sid, trajectory in fleet.items():
            assert results[sid].n_frames == trajectory.n_frames


class TestGatewayShed:
    """The gateway surface: manual shed + the STATS placement section."""

    def test_gateway_shed_and_placement_stats(self, monitor):
        from repro.serving import AsyncRemoteMonitorClient, MonitorGateway

        async def run():
            gateway = MonitorGateway(monitor, n_shards=2, max_sessions=8)
            await gateway.start()
            try:
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                try:
                    for i in range(4):
                        await client.open_session(f"shed-{i}")
                    service = gateway._engine.service
                    occupancy = service.shard_occupancy()
                    hot = max(occupancy, key=occupancy.get)
                    cold = min(occupancy, key=occupancy.get)
                    victims = service.sessions_on(hot)[:1]
                    moved = await gateway.shed(victims, cold)
                    assert moved == {victims[0]: hot}
                    stats = await client.gateway_stats()
                    placement = stats["placement"]
                    assert placement["count"] == 1
                    (event,) = placement["events"]
                    assert event["trigger"] == "manual"
                    assert event["sessions"] == victims
                    # The session still serves from its new home.
                    trajectory = make_random_walk_trajectory(
                        20, n_features=N_FEATURES, seed=9
                    )
                    await client.feed(victims[0], trajectory.frames)
                    seen = 0
                    while seen < 20:
                        event = await asyncio.wait_for(
                            client.next_event(), timeout=30.0
                        )
                        if event.session_id == victims[0]:
                            assert not event.error
                            seen += 1
                finally:
                    await client.aclose()
            finally:
                await gateway.stop()

        asyncio.run(run())

    @pytest.mark.parametrize("onto", ["other-shard", "own-shard"])
    def test_gateway_shed_is_on_the_record(self, monitor, tmp_path, onto):
        """An applied shed lands in ``shed_events`` and the event store
        as one ``trigger: "manual"`` marker; a shed that moves nothing
        (the session already lives on the target) records neither."""
        from repro.serving import EventStoreReader, EventStoreWriter, MonitorGateway

        store = EventStoreWriter(tmp_path)

        async def run():
            gateway = MonitorGateway(
                monitor, n_shards=2, max_sessions=8, event_store=store
            )
            await gateway.start()
            try:
                service = gateway._engine.service
                await gateway._engine.open_session("pinned")
                home = service.shard_of("pinned")
                target = (
                    home
                    if onto == "own-shard"
                    else next(i for i in service.shard_indices if i != home)
                )
                moved = await gateway.shed(["pinned"], target)
                assert service.shard_of("pinned") == target
                return moved, home, target, list(gateway.shed_events)
            finally:
                await gateway.stop()

        moved, home, target, shed_events = asyncio.run(run())
        store.close()
        markers = list(EventStoreReader(tmp_path).iter_markers())
        if onto == "own-shard":
            assert moved == {}
            assert shed_events == [] and markers == []
        else:
            assert moved == {"pinned": home}
            assert shed_events == [
                {"to": target, "sessions": ["pinned"], "n": 1, "trigger": "manual"}
            ]
            assert markers == [dict(shed_events[0], type="shed")]

    def test_single_service_gateway_refuses_shed(self, monitor):
        from repro.serving import MonitorGateway

        async def run():
            gateway = MonitorGateway(monitor, n_shards=1, max_sessions=4)
            await gateway.start()
            try:
                with pytest.raises(ConfigurationError):
                    await gateway.shed(["nope"], 0)
            finally:
                await gateway.stop()

        asyncio.run(run())
