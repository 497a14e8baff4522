"""Tests for load-aware placement: the shed actuator, the placement
overlay, the :func:`plan_sheds` policy and the :class:`MonitorBalancer`
controller — plus the two-level interplay with the autoscaler.

The headline guarantees:

- a shed mid-stream changes nothing: event streams stay bit-identical
  (order included) to an unbalanced :class:`MonitorService` run, because
  the shed rides the same export→import migration path resize does;
- the placement overlay makes every later placement decision follow the
  moved sessions (``add_shard`` does not undo a shed; park/resume
  re-imports land on the pinned shard);
- the two controller levels never fight: a shed in flight defers a
  pending resize, a resize resets the balancer's hysteresis;
- failure is safe: removing or crashing a shed target never silently
  loses a session.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkerError
from repro.serving import (
    AsyncShardedMonitor,
    MonitorAutoscaler,
    MonitorBalancer,
    MonitorService,
    ServiceStats,
    ShardedMonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
    plan_sheds,
)

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


def stats_with_p99(tick_ms: float, n_ticks: int = 50) -> ServiceStats:
    stats = ServiceStats(capacity=max(n_ticks, 1))
    for _ in range(n_ticks):
        stats.record(tick_ms, 4)
    return stats


class TestPlanSheds:
    """The pure policy: snapshot in, bounded move (or None) out."""

    def test_in_band_fleet_yields_no_plan(self):
        stats = {0: stats_with_p99(8.0), 1: stats_with_p99(7.0)}
        assert plan_sheds(stats, {0: 4, 1: 4}) is None

    def test_idle_fleet_skew_is_noise(self):
        # 0.09ms vs 0.01ms is a 9x ratio — and completely meaningless.
        stats = {0: stats_with_p99(0.09), 1: stats_with_p99(0.01)}
        assert plan_sheds(stats, {0: 8, 1: 0}, min_p99_ms=1.0) is None

    def test_skew_triggers_half_gap_move(self):
        stats = {0: stats_with_p99(30.0), 1: stats_with_p99(5.0)}
        plan = plan_sheds(stats, {0: 12, 1: 0}, max_moves=8)
        assert plan is not None
        assert (plan.hot, plan.cold) == (0, 1)
        assert plan.n_sessions == 6  # half the occupancy gap
        assert plan.p99_max_ms == pytest.approx(30.0)
        assert plan.p99_median_ms == pytest.approx(17.5)

    def test_migration_budget_caps_the_move(self):
        stats = {0: stats_with_p99(30.0), 1: stats_with_p99(5.0)}
        plan = plan_sheds(stats, {0: 40, 1: 0}, max_moves=8)
        assert plan is not None and plan.n_sessions == 8

    def test_cold_capacity_caps_the_move(self):
        stats = {0: stats_with_p99(30.0), 1: stats_with_p99(5.0)}
        plan = plan_sheds(
            stats, {0: 14, 1: 11}, max_moves=8, max_sessions_per_shard=11
        )
        assert plan is None  # the cold shard is already full
        plan = plan_sheds(
            stats, {0: 14, 1: 4}, max_moves=8, max_sessions_per_shard=6
        )
        assert plan is not None and plan.n_sessions == 2  # 6 - 4 free slots

    def test_occupancy_balanced_latency_skew_yields_no_plan(self):
        # Migration cannot help a fleet whose occupancy is already even:
        # this guard is also what makes repeated plan->shed cycles
        # converge while the latency window still remembers the skew.
        stats = {0: stats_with_p99(30.0), 1: stats_with_p99(5.0)}
        assert plan_sheds(stats, {0: 5, 1: 4}) is None

    def test_coldest_shard_wins_by_occupancy(self):
        stats = {
            0: stats_with_p99(30.0),
            1: stats_with_p99(6.0),
            2: stats_with_p99(5.0),
        }
        plan = plan_sheds(stats, {0: 10, 1: 2, 2: 4})
        assert plan is not None and (plan.hot, plan.cold) == (0, 1)

    def test_single_shard_has_nowhere_to_shed(self):
        assert plan_sheds({0: stats_with_p99(30.0)}, {0: 8}) is None

    def test_invalid_parameters_raise(self):
        stats = {0: stats_with_p99(30.0), 1: stats_with_p99(5.0)}
        with pytest.raises(ConfigurationError):
            plan_sheds(stats, {0: 8, 1: 0}, skew_ratio=0.5)
        with pytest.raises(ConfigurationError):
            plan_sheds(stats, {0: 8, 1: 0}, max_moves=0)


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

    def test_shed_to_dead_shard_raises(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sid = service.open_session()
            with pytest.raises(WorkerError):
                service.shed([sid], 99)

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

    def test_shed_matches_static_service_bit_identically(self, monitor):
        fleet = make_fleet(8, base_seed=800, frames=45, step=3)
        static = MonitorService(monitor, max_sessions=8)
        for session_id, trajectory in fleet.items():
            static.open_session(session_id)
            static.feed(session_id, trajectory.frames)
        static_events = static.drain()
        static_results = {sid: static.close_session(sid) for sid in fleet}

        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=16
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

    def test_skewed_fleet_converges_under_the_policy(self, monitor):
        """plan → shed → re-plan on a fleet whose ids pile 15 of 24
        sessions onto one of four shards ends balanced, loses nothing
        and changes no stream.  Each shard's p99 is hand-built from its
        live occupancy, so no wall clock decides the outcome."""
        skew_ratio = 1.5
        quotas = {0: 15, 1: 3, 2: 3, 3: 3}
        n_sessions = sum(quotas.values())
        trajectories = list(make_fleet(n_sessions, base_seed=900).values())
        with ShardedMonitorService(
            monitor, n_shards=4, max_sessions_per_shard=n_sessions
        ) as service:
            session_ids, candidate = [], 0
            while len(session_ids) < n_sessions:
                sid = f"skew-{candidate:04d}"
                candidate += 1
                shard = service.resolve_placement(sid)[1]
                if quotas[shard] > 0:
                    quotas[shard] -= 1
                    session_ids.append(sid)
            for sid, trajectory in zip(session_ids, trajectories):
                service.open_session(sid)
                service.feed(sid, trajectory.frames)
            assert max(service.shard_occupancy().values()) == 15
            events = []
            for _ in range(8):
                events += service.tick()
            n_moved = 0
            for _ in range(32):
                occupancy = service.shard_occupancy()
                plan = plan_sheds(
                    {i: stats_with_p99(float(n)) for i, n in occupancy.items()},
                    occupancy,
                    skew_ratio=skew_ratio,
                    max_moves=2,
                )
                if plan is None:
                    break
                victims = service.sessions_on(plan.hot)[: plan.n_sessions]
                n_moved += len(service.shed(victims, plan.cold))
                events += service.tick()
            else:
                pytest.fail("plan → shed → re-plan did not converge in 32 rounds")
            final = sorted(service.shard_occupancy().values())
            events += service.drain()
            assert not service.failed_sessions

        assert n_moved > 0
        assert final[-1] <= skew_ratio * np.median(final)
        static = MonitorService(monitor, max_sessions=n_sessions)
        for sid, trajectory in zip(session_ids, trajectories):
            static.open_session(sid)
            static.feed(sid, trajectory.frames)
        assert [event_key(e) for e in events] == [
            event_key(e) for e in static.drain()
        ]


class TestBalancerController:
    """MonitorBalancer hysteresis, budget, flap suppression — and the
    two-level interplay with MonitorAutoscaler."""

    def _skewed(self, hot, cold, hot_ms=30.0, cold_ms=5.0):
        return {hot: stats_with_p99(hot_ms), cold: stats_with_p99(cold_ms)}

    def test_applies_after_consecutive_agreement(self, monitor):
        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=16
            ) as service:
                async with AsyncShardedMonitor(service) as frontend:
                    for _ in range(8):
                        await frontend.open_session()
                    a, b = service.shard_indices
                    await frontend.shed(frontend.sessions_on(b), a)
                    balancer = MonitorBalancer(
                        frontend, consecutive=2, cooldown_s=0.0
                    )
                    first = await balancer.step(self._skewed(a, b))
                    assert first is None  # streak of 1 < consecutive=2
                    second = await balancer.step(self._skewed(a, b))
                    assert second is not None
                    assert (second["from"], second["to"]) == (a, b)
                    assert second["n"] == 4  # half the 8/0 gap
                    assert balancer.shed_events == [second]
                    occupancy = frontend.shard_occupancy()
                    assert occupancy[a] == occupancy[b] == 4

        asyncio.run(run())

    def test_different_hot_shard_restarts_the_streak(self, monitor):
        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=16
            ) as service:
                async with AsyncShardedMonitor(service) as frontend:
                    for _ in range(8):
                        await frontend.open_session()
                    a, b = service.shard_indices
                    await frontend.shed(frontend.sessions_on(b), a)
                    balancer = MonitorBalancer(
                        frontend, consecutive=2, cooldown_s=0.0
                    )
                    assert await balancer.step(self._skewed(a, b)) is None
                    # The *other* shard looks hot now (occupancy has to
                    # agree, so pretend the fleet flipped).
                    await frontend.shed(frontend.sessions_on(a), b)
                    assert await balancer.step(self._skewed(b, a)) is None
                    assert balancer.shed_events == []

        asyncio.run(run())

    def test_cooldown_blocks_back_to_back_sheds(self, monitor):
        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=32
            ) as service:
                async with AsyncShardedMonitor(service) as frontend:
                    for _ in range(16):
                        await frontend.open_session()
                    a, b = service.shard_indices
                    await frontend.shed(frontend.sessions_on(b), a)
                    balancer = MonitorBalancer(
                        frontend,
                        consecutive=1,
                        cooldown_s=3600.0,
                        max_moves=2,
                        flap_suppress_s=0.0,
                    )
                    first = await balancer.step(self._skewed(a, b))
                    assert first is not None and first["n"] == 2
                    # Still skewed, but the cooldown holds the second.
                    second = await balancer.step(self._skewed(a, b))
                    assert second is None
                    assert len(balancer.shed_events) == 1

        asyncio.run(run())

    def test_flap_suppression_protects_recent_victims(self, monitor):
        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=16
            ) as service:
                async with AsyncShardedMonitor(service) as frontend:
                    for _ in range(6):
                        await frontend.open_session()
                    a, b = service.shard_indices
                    await frontend.shed(frontend.sessions_on(b), a)
                    balancer = MonitorBalancer(
                        frontend,
                        consecutive=1,
                        cooldown_s=0.0,
                        flap_suppress_s=3600.0,
                    )
                    first = await balancer.step(self._skewed(a, b))
                    assert first is not None
                    shed_once = set(first["sessions"])
                    # Load flips: the landing shard now reads hot.  The
                    # just-moved sessions are immune, so the balancer
                    # must not bounce them straight back.
                    second = await balancer.step(self._skewed(b, a))
                    if second is not None:
                        assert not (set(second["sessions"]) & shed_once)

        asyncio.run(run())

    def test_resize_resets_shed_hysteresis(self, monitor):
        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=16
            ) as service:
                async with AsyncShardedMonitor(service) as frontend:
                    for _ in range(8):
                        await frontend.open_session()
                    a, b = service.shard_indices
                    await frontend.shed(frontend.sessions_on(b), a)
                    balancer = MonitorBalancer(
                        frontend, consecutive=2, cooldown_s=0.0
                    )
                    assert await balancer.step(self._skewed(a, b)) is None
                    # A resize lands between the two agreeing samples:
                    # the streak built on the old topology is void.
                    balancer.notify_resize({"from": 2, "to": 3})
                    assert await balancer.step(self._skewed(a, b)) is None
                    assert balancer.shed_events == []

        asyncio.run(run())

    def test_shed_in_progress_defers_a_pending_resize(self, monitor):
        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=16
            ) as service:
                async with AsyncShardedMonitor(service) as frontend:
                    scaler = MonitorAutoscaler(
                        frontend, consecutive=1, cooldown_s=0.0, max_shards=8
                    )
                    balancer = MonitorBalancer(frontend)
                    scaler.balancer = balancer
                    hot = {i: stats_with_p99(33.3) for i in service.shard_indices}
                    balancer._shedding = True  # a shed is mid-migration
                    assert await scaler.step(hot) is None
                    assert service.n_shards == 2  # deferred, not applied
                    balancer._shedding = False
                    balancer._streak = 1
                    balancer._streak_shard = service.shard_indices[0]
                    assert await scaler.step(hot) == 4  # applies now
                    assert service.n_shards == 4
                    # ... and the applied resize reset the balancer.
                    assert balancer._streak == 0
                    assert balancer._streak_shard is None

        asyncio.run(run())


class TestGatewayShed:
    """The gateway surface: manual shed + the STATS placement section."""

    def test_gateway_shed_and_placement_stats(self, monitor):
        from repro.serving import AsyncRemoteMonitorClient, MonitorGateway

        async def run():
            gateway = MonitorGateway(
                monitor,
                n_shards=2,
                max_sessions=8,
                balance_interval_s=3600.0,  # loop present, never fires
            )
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
                    assert placement["balancing"] is True
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
