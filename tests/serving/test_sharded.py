"""Tests for the sharded multi-process serving layer.

Covers the hard requirement of the sharding tentpole — a K-shard
service is **bit-identical** to one local :class:`MonitorService` — plus
worker lifecycle: crash detection (sessions reported failed, survivors
keep ticking), drain-and-rebalance on shard removal, and the asyncio
front-end.
"""

import asyncio
import multiprocessing as mp
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError, DatasetError, ShapeError, WorkerError
from repro.serving import (
    AsyncShardedMonitor,
    MonitorService,
    ServiceStats,
    SessionEvent,
    ShardedMonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
    suggest_shard_count,
    transport,
)
from repro.serving.sharded import _ShardHandle
from repro.serving.shm import EVENT_DTYPE, ShmRing, event_ring_capacity
from repro.serving.snapshot import monitor_from_bytes
from repro.serving.transport import TICKS_PER_ROUND, Request
from repro.serving.worker import _ShardWorker

N_FEATURES = 10


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=N_FEATURES, seed=0)


def make_fleet(n_sessions, base_seed=100, frames=40, step=5):
    """Named trajectories of staggered lengths for a session fleet."""
    return {
        f"proc-{i}": make_random_walk_trajectory(
            frames + step * i, n_features=N_FEATURES, seed=base_seed + i
        )
        for i in range(n_sessions)
    }


def single_service_reference(monitor, fleet):
    """Events and results from one local MonitorService over the fleet."""
    service = MonitorService(monitor, max_sessions=len(fleet))
    for session_id, trajectory in fleet.items():
        service.open_session(session_id)
        service.feed(session_id, trajectory.frames)
    events = service.drain()
    results = {sid: service.close_session(sid) for sid in fleet}
    return events, results


def event_key(event):
    return (event.session_id, event.frame_index, event.gesture, event.score, event.flag)


def discard(batch):
    """The sink of a front-end whose events a test does not read."""


async def sunk(batches, enough, timeout_s=30.0):
    """The events a list sink has collected, flat, once ``enough(events)``."""
    deadline = time.monotonic() + timeout_s
    while not enough(events := [e for batch in batches for e in batch]):
        assert time.monotonic() < deadline, "the sink never got enough events"
        await asyncio.sleep(0.005)
    return events


class TestShardedParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_matches_single_service_bit_for_bit(self, monitor, n_shards):
        """The tentpole invariant: K workers, same events, same timelines —
        including the *order* of the merged event stream."""
        fleet = make_fleet(6)
        ref_events, ref_results = single_service_reference(monitor, fleet)
        with ShardedMonitorService(
            monitor, n_shards=n_shards, max_sessions_per_shard=8
        ) as service:
            for session_id, trajectory in fleet.items():
                service.open_session(session_id)
                service.feed(session_id, trajectory.frames)
            events = service.drain()
            assert [event_key(e) for e in events] == [
                event_key(e) for e in ref_events
            ]
            for session_id in fleet:
                result = service.close_session(session_id)
                reference = ref_results[session_id]
                assert np.array_equal(result.gestures, reference.gestures)
                assert np.array_equal(result.unsafe_scores, reference.unsafe_scores)
                assert np.array_equal(result.unsafe_flags, reference.unsafe_flags)

    def test_a_width_no_snapshot_names_is_bound_by_the_first_feed(self):
        """A gesture stage on a feature subset and a library without a
        trained member: the snapshot constrains no width, so the router
        binds it on the first accepted feed, as one service does — and
        a K=2 fleet's events equal that service's."""
        from repro import nn

        n_features, columns = 6, np.array([0, 2, 5])
        monitor = make_synthetic_monitor(
            n_features=n_features, seed=4, missing_gestures=tuple(range(1, 16))
        )
        classifier = monitor.gesture_classifier
        classifier.config.feature_indices = columns
        classifier.model = classifier._build_model()
        window = classifier.config.window.window
        classifier.model.build((window, columns.size))
        classifier.scaler = nn.StandardScaler().fit(
            np.random.default_rng(4).standard_normal((64, window, columns.size))
        )
        fleet = {
            f"proc-{i}": make_random_walk_trajectory(
                30 + 5 * i, n_features=n_features, seed=500 + i
            )
            for i in range(4)
        }
        ref_events, _ = single_service_reference(monitor, fleet)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4
        ) as service:
            for session_id, trajectory in fleet.items():
                service.open_session(session_id)
                service.feed(session_id, trajectory.frames)
            events = service.drain()
            with pytest.raises(ShapeError, match=f"bound to {n_features}"):
                service.feed("proc-0", np.zeros((2, n_features + 1)))
        assert len(events) == sum(t.n_frames for t in fleet.values())
        assert [event_key(e) for e in events] == [event_key(e) for e in ref_events]

    def test_tick_by_tick_matches_single_service(self, monitor):
        """Interactive ticking (not just drain) merges shard events in the
        exact order a single service would emit them."""
        fleet = make_fleet(5, base_seed=200, frames=25)
        reference = MonitorService(monitor, max_sessions=8)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            for session_id, trajectory in fleet.items():
                for target in (service, reference):
                    target.open_session(session_id)
                    target.feed(session_id, trajectory.frames)
            while reference.has_pending:
                sharded_events = service.tick()
                local_events = reference.tick()
                assert [event_key(e) for e in sharded_events] == [
                    event_key(e) for e in local_events
                ]
            assert not service.has_pending

    def test_chunked_feeds_and_staggered_joins(self, monitor):
        """Sessions fed in chunks and opened mid-flight still reproduce
        their isolated stream() runs."""
        early = make_random_walk_trajectory(50, n_features=N_FEATURES, seed=300)
        late = make_random_walk_trajectory(35, n_features=N_FEATURES, seed=301)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4
        ) as service:
            service.open_session("early")
            half = early.n_frames // 2
            service.feed("early", early.frames[:half])
            for _ in range(10):
                service.tick()
            service.open_session("late")
            service.feed("late", late.frames)
            service.feed("early", early.frames[half:])
            service.drain(collect=False)
            for session_id, trajectory in (("early", early), ("late", late)):
                result = service.close_session(session_id)
                gestures, scores = [], []
                for _, gesture, score, _ in monitor.stream(trajectory):
                    gestures.append(gesture)
                    scores.append(score)
                assert np.array_equal(result.gestures, np.asarray(gestures))
                assert np.array_equal(result.unsafe_scores, np.asarray(scores))


class TestEventRecordDecode:
    """The router turns a shard's packed event record back into
    ``SessionEvent`` objects column by column; the row-by-row decode it
    replaced is the oracle."""

    @staticmethod
    def decode_by_row(handle, batch):
        events = []
        for row in batch:
            session_id = handle.routes.get(int(row["route"]))
            if session_id is None:
                continue
            events.append(
                SessionEvent(
                    session_id=session_id,
                    frame_index=int(row["frame"]),
                    gesture=int(row["gesture"]),
                    score=float(row["score"]),
                    flag=bool(int(row["flags"]) & 1),
                    latency_us=float(row["latency_us"]),
                )
            )
        return events

    def test_column_decode_equals_row_decode(self, caplog):
        handle = SimpleNamespace(index=3, routes={7: "proc-a", 2**40: "proc-b"})
        batch = np.array(
            [
                (7, 0, 4, 0.75, 1, 12.5),  # flagged
                (2**40, 2**33, 0, 0.0, 0, 0.0),  # unflagged, wide ids
                (9, 5, 1, 0.5, 1, 1.0),  # a route the router does not know
                (7, 1, 15, np.nextafter(0.5, 0.0), 2, 3.25),  # only bit 0 is the flag
                (7, 2, 3, 1.0, 3, 1e9),
            ],
            dtype=EVENT_DTYPE,
        )
        with caplog.at_level("WARNING", logger="repro.serving.sharded"):
            got = ShardedMonitorService._decode_event_batch(handle, batch)
        expected = self.decode_by_row(handle, batch)
        assert len(got) == 4 and got == expected
        for event, want in zip(got, expected):
            for name in ("session_id", "frame_index", "gesture", "score", "flag", "latency_us"):
                assert type(getattr(event, name)) is type(getattr(want, name))
                assert getattr(event, name) == getattr(want, name)
        assert [e.flag for e in got] == [True, False, False, True]
        assert "shard 3 emitted an event for unknown route 9" in caplog.text
        assert ShardedMonitorService._decode_event_batch(handle, batch[:0]) == []


class TestBackendSelection:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_sharded_compiled_matches_local_compiled(self, monitor, n_shards):
        """The parity matrix under the compiled backend: K shards
        reproduce one local compiled MonitorService — gestures, event
        order and flags exactly, scores bit-for-bit, because every
        worker compiles the identical plan from the same snapshot and
        sees the same per-shard batches."""
        fleet = make_fleet(5, base_seed=950, frames=30)
        local = MonitorService(monitor, max_sessions=8, backend="compiled")
        with ShardedMonitorService(
            monitor,
            n_shards=n_shards,
            max_sessions_per_shard=8,
            backend="compiled",
        ) as service:
            assert service.backend == "compiled"
            for session_id, trajectory in fleet.items():
                for target in (service, local):
                    target.open_session(session_id)
                    target.feed(session_id, trajectory.frames)
            sharded_events = service.drain()
            local_events = local.drain()
        assert [
            (e.session_id, e.frame_index, e.gesture, e.flag)
            for e in sharded_events
        ] == [
            (e.session_id, e.frame_index, e.gesture, e.flag)
            for e in local_events
        ]
        if n_shards == 1:
            # One shard sees the exact batches the local engine saw, so
            # even the BLAS path reproduces scores bit for bit.
            assert [e.score for e in sharded_events] == [
                e.score for e in local_events
            ]
        else:
            np.testing.assert_allclose(
                [e.score for e in sharded_events],
                [e.score for e in local_events],
                atol=1e-6,
            )

    def test_backend_resolves_from_snapshot(self, monitor):
        """A snapshot carrying a backend choice configures the whole
        fleet; an explicit argument overrides it."""
        from repro.serving import monitor_to_bytes

        blob = monitor_to_bytes(monitor, backend="compiled")
        with ShardedMonitorService(
            monitor_bytes=blob, n_shards=1, max_sessions_per_shard=2
        ) as service:
            assert service.backend == "compiled"
        with ShardedMonitorService(
            monitor_bytes=blob,
            n_shards=1,
            max_sessions_per_shard=2,
            backend="reference",
        ) as service:
            assert service.backend == "reference"

    def test_unknown_backend_rejected_before_spawning(self, monitor):
        with pytest.raises(ConfigurationError, match="unknown inference backend"):
            ShardedMonitorService(monitor, n_shards=1, backend="turbo")

    def test_tampered_snapshot_backend_rejected_before_spawning(self, monitor):
        """An unknown backend name inside the snapshot must fail at
        construction, not as opaque worker crashes at spawn."""
        import io
        import json

        from repro.serving import monitor_to_bytes

        blob = monitor_to_bytes(monitor)
        with np.load(io.BytesIO(blob)) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        meta["serving"] = {"backend": "turbo"}
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ).copy()
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        with pytest.raises(ConfigurationError, match="unknown inference backend"):
            ShardedMonitorService(
                monitor_bytes=buffer.getvalue(),
                n_shards=1,
                max_sessions_per_shard=2,
            )


class TestPlacementAndLifecycle:
    def test_placement_is_deterministic_and_uses_multiple_shards(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=4, max_sessions_per_shard=16
        ) as service:
            ids = [service.open_session(f"theatre-{i}") for i in range(16)]
            placement = {sid: service.shard_of(sid) for sid in ids}
            # Consistent hashing: same ids always land on the same shards.
            assert placement == {
                sid: service.shard_of(sid) for sid in ids
            }
            assert len(set(placement.values())) > 1

    def test_same_key_same_shard_across_services(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=3, max_sessions_per_shard=4
        ) as a, ShardedMonitorService(
            monitor, n_shards=3, max_sessions_per_shard=4
        ) as b:
            for key in ("alpha", "beta", "gamma"):
                a.open_session(key)
                b.open_session(key)
                assert a.shard_of(key) == b.shard_of(key)

    def test_shard_capacity_errors_propagate(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=1, max_sessions_per_shard=1
        ) as service:
            service.open_session("only")
            with pytest.raises(ConfigurationError):
                service.open_session("overflow")
            with pytest.raises(ConfigurationError):
                service.open_session("only")  # duplicate id

    def test_remote_errors_keep_their_types(self, monitor):
        """Worker-side exceptions cross the pipe as their repro.errors
        classes, and the worker survives them."""
        with ShardedMonitorService(
            monitor, n_shards=1, max_sessions_per_shard=4
        ) as service:
            with pytest.raises(DatasetError):
                service.feed("ghost", np.zeros((2, N_FEATURES)))
            session_id = service.open_session()
            with pytest.raises(ShapeError):
                service.feed(session_id, np.zeros((2, N_FEATURES + 3)))
            service.feed(session_id, np.zeros((3, N_FEATURES)))
            assert len(service.drain()) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected_router_side(self, monitor, bad):
        """K=2: a NaN/Inf batch raises synchronously at the router —
        nothing reaches a frame ring, no session fails safe for it, and
        every session's stream stays bit-identical to a clean run."""
        fleet = make_fleet(4, base_seed=700, frames=24, step=0)
        ref_events, _ = single_service_reference(monitor, fleet)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            for session_id in fleet:
                service.open_session(session_id)
            assert len({service.shard_of(sid) for sid in fleet}) == 2
            for session_id, trajectory in fleet.items():
                service.feed(session_id, trajectory.frames[:8])
                poisoned = trajectory.frames[8:12].copy()
                poisoned[2, 0] = bad
                with pytest.raises(DatasetError, match="non-finite"):
                    service.feed(session_id, poisoned)
                service.feed(session_id, trajectory.frames[8:])
            events = service.drain()
            assert not service.failed_sessions
            assert [event_key(e) for e in events] == [
                event_key(e) for e in ref_events
            ]

    def test_remove_shard_migrates_and_rebalances(self, monitor):
        """remove_shard live-migrates the shard's sessions onto the
        survivors — nothing closes, no frame is dropped, and the moved
        sessions finish with their full timelines."""
        fleet = make_fleet(6, base_seed=400, frames=20)
        with ShardedMonitorService(
            monitor, n_shards=3, max_sessions_per_shard=16
        ) as service:
            for session_id, trajectory in fleet.items():
                service.open_session(session_id)
                service.feed(session_id, trajectory.frames)
            target = service.shard_of(next(iter(fleet)))
            on_target = {
                sid for sid in fleet if service.shard_of(sid) == target
            }
            moved = service.remove_shard(target)
            # Every session on the removed shard migrated to a survivor
            # and is still open.
            assert set(moved) == on_target
            assert target not in service.shard_indices
            for session_id, new_shard in moved.items():
                assert new_shard != target
                assert service.shard_of(session_id) == new_shard
            assert service.n_open_sessions == len(fleet)
            # Future placements rebalance onto survivors only.
            for i in range(8):
                session_id = service.open_session(f"rebalanced-{i}")
                assert service.shard_of(session_id) != target
            # Every original session — migrated or not — drains to its
            # complete timeline.
            service.drain(collect=False)
            for session_id in fleet:
                result = service.close_session(session_id)
                assert result.n_frames == fleet[session_id].n_frames
            assert not service.failed_sessions

    def test_remove_shard_events_survive_without_timelines(self, monitor):
        """Sessions opened with record_timeline=False have no timeline
        to fall back on, so migration must preserve their un-ticked
        frames: the post-removal drain delivers every event exactly
        once."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sids = [
                service.open_session(f"proc-{i}", record_timeline=False)
                for i in range(4)
            ]
            for i, sid in enumerate(sids):
                service.feed(
                    sid,
                    make_random_walk_trajectory(
                        15, n_features=N_FEATURES, seed=450 + i
                    ).frames,
                )
            target = service.shard_of(sids[0])
            moved = service.remove_shard(target)
            assert moved  # at least one session actually migrated
            events = service.drain()
            delivered = {}
            for event in events:
                delivered.setdefault(event.session_id, []).append(
                    event.frame_index
                )
            for sid in sids:
                assert delivered[sid] == list(range(15))
            for sid in sids:  # no timeline was recorded anywhere
                assert service.close_session(sid).n_frames == 0

    def test_close_is_idempotent_and_stops_workers(self, monitor):
        service = ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=2
        )
        processes = [h.process for h in service._shards.values()]
        service.close()
        service.close()
        for process in processes:
            assert not process.is_alive()

    def test_use_after_close_raises_cleanly(self, monitor):
        service = ShardedMonitorService(
            monitor, n_shards=1, max_sessions_per_shard=2
        )
        session_id = service.open_session()
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.open_session()
        with pytest.raises(ConfigurationError, match="closed"):
            service.feed(session_id, np.zeros((1, N_FEATURES)))
        with pytest.raises(ConfigurationError, match="closed"):
            service.close_session(session_id)


class TestWorkerCrash:
    def _open_fleet(self, service, n=8, frames=40):
        sids = []
        for i in range(n):
            sid = service.open_session(f"proc-{i}")
            service.feed(
                sid,
                make_random_walk_trajectory(
                    frames, n_features=N_FEATURES, seed=500 + i
                ).frames,
            )
            sids.append(sid)
        return sids

    def _kill_shard(self, service, shard):
        os.kill(service._shards[shard].process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while service._shards[shard].process.is_alive():
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail("SIGKILLed worker did not exit")
            time.sleep(0.01)

    def test_killed_shard_fails_its_sessions_not_others(self, monitor):
        """Kill one worker mid-flight: its sessions surface as terminal
        error events (flag=True, never silently dropped) while every
        other shard keeps ticking to completion."""
        with ShardedMonitorService(
            monitor, n_shards=4, max_sessions_per_shard=8
        ) as service:
            sids = self._open_fleet(service)
            placement = {sid: service.shard_of(sid) for sid in sids}
            assert len(set(placement.values())) >= 2
            for _ in range(5):
                service.tick()
            victim_shard = placement[sids[0]]
            victims = {s for s, sh in placement.items() if sh == victim_shard}
            survivors = set(sids) - victims
            self._kill_shard(service, victim_shard)

            events = service.tick()
            crash_events = [e for e in events if e.error is not None]
            live_events = [e for e in events if e.error is None]
            # One terminal event per lost session, flagged unsafe.
            assert {e.session_id for e in crash_events} == victims
            assert all(e.flag for e in crash_events)
            assert all(e.frame_index == 5 for e in crash_events)
            # Healthy shards keep ticking the same tick.
            assert {e.session_id for e in live_events} == survivors
            # Failed sessions are tracked, not silently dropped.
            assert set(service.failed_sessions) == victims
            for sid in victims:
                with pytest.raises(WorkerError):
                    service.feed(sid, np.zeros((1, N_FEATURES)))
                with pytest.raises(WorkerError):
                    service.close_session(sid)
            # Survivors drain and close with full timelines.
            service.drain(collect=False)
            for sid in survivors:
                assert service.close_session(sid).n_frames == 40
            # New sessions rebalance off the dead shard.
            replacement = service.open_session("replacement")
            assert service.shard_of(replacement) in service.shard_indices
            assert victim_shard not in service.shard_indices

    def test_crash_detected_during_feed_is_not_lost(self, monitor):
        """A crash first observed by feed() raises for that session and
        the other lost sessions' terminal events still surface."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sids = self._open_fleet(service, n=6, frames=10)
            placement = {sid: service.shard_of(sid) for sid in sids}
            victim_shard = placement[sids[0]]
            victims = {s for s, sh in placement.items() if sh == victim_shard}
            self._kill_shard(service, victim_shard)
            with pytest.raises(WorkerError):
                service.feed(sids[0], np.zeros((1, N_FEATURES)))
            events = service.drain()
            crash_events = [e for e in events if e.error is not None]
            assert {e.session_id for e in crash_events} == victims
            assert set(service.failed_sessions) == victims

    def test_crash_frame_index_exact_after_uncollected_drain(self, monitor):
        """drain(collect=False) returns no events, but the router still
        reads and accounts every one, so its frame accounting stays
        exact — a later crash event must report the true number of
        frames served."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sids = self._open_fleet(service, n=4, frames=30)
            service.drain(collect=False)
            victim_shard = service.shard_of(sids[0])
            victims = {s for s in sids if service.shard_of(s) == victim_shard}
            self._kill_shard(service, victim_shard)
            for sid in sids:  # give every session fresh pending input
                if sid not in victims:
                    service.feed(sid, np.zeros((1, N_FEATURES)))
            events = service.tick()
            crash_events = [e for e in events if e.error is not None]
            assert {e.session_id for e in crash_events} == victims
            assert all(e.frame_index == 30 for e in crash_events)

    def test_imported_session_fails_safe_at_its_stream_position(self, monitor):
        """An imported session's router record starts at the archive's
        ``frames_done``, not at 0: the terminal event names the frame
        of the *stream* monitoring was lost at."""
        frames = make_random_walk_trajectory(
            50, n_features=N_FEATURES, seed=540
        ).frames
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sid = service.open_session("moved")
            service.feed(sid, frames[:40])
            assert len(service.drain()) == 40
            assert service.import_session(service.export_session(sid)) == sid
            service.feed(sid, frames[40:])
            # tick(), not drain(): a drain reply re-reads the worker's count.
            after = [e for _ in range(10) for e in service.tick()]
            assert [e.frame_index for e in after] == list(range(40, 50))
            self._kill_shard(service, service.shard_of(sid))
            terminals = [e for e in service.tick() if e.error is not None]
            terminals += service.take_undelivered_events()
        assert [(e.session_id, e.flag, e.frame_index) for e in terminals] == [
            (sid, True, 50)
        ]

    def test_hung_worker_fails_safe_within_request_timeout(
        self, monitor, monkeypatch
    ):
        """SIGSTOP one worker: the process is alive but silent, so only
        the reply deadline can surface it.  Its sessions each get one
        terminal event naming the unresponsive shard, the healthy shard
        keeps ticking, and the hung shard's segments are unlinked."""
        monkeypatch.setattr(transport, "REPLY_DEADLINE_S", 1.0)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sids = self._open_fleet(service, n=6, frames=10)
            placement = {sid: service.shard_of(sid) for sid in sids}
            assert len(set(placement.values())) == 2
            victim_shard = placement[sids[0]]
            victims = {s for s, sh in placement.items() if sh == victim_shard}
            handle = service._shards[victim_shard]
            segments = [handle.frame_ring.name, handle.event_ring.name]
            os.kill(handle.process.pid, signal.SIGSTOP)
            events = service.tick()
            crash_events = [e for e in events if e.error is not None]
            assert sorted(e.session_id for e in crash_events) == sorted(victims)
            assert all(e.flag for e in crash_events)
            assert all(
                f"shard {victim_shard} unresponsive" in e.error
                for e in crash_events
            )
            assert set(service.failed_sessions) == victims
            live_events = [e for e in events if e.error is None]
            assert {e.session_id for e in live_events} == set(sids) - victims
            for name in segments:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_close_after_a_hung_worker_failed_is_prompt(self, monitor, monkeypatch):
        """A failed worker is killed, not asked to stop: a stopped process
        never acts on SIGTERM, so ``close()`` would wait out its joins."""
        monkeypatch.setattr(transport, "REPLY_DEADLINE_S", 1.0)
        service = ShardedMonitorService(monitor, n_shards=2, max_sessions_per_shard=8)
        try:
            sids = self._open_fleet(service, n=6, frames=10)
            hung = service.shard_of(sids[0])
            process = service._shards[hung].process
            os.kill(process.pid, signal.SIGSTOP)
            events = service.tick()
            assert hung not in service.shard_indices
            assert any(e.error and "unresponsive" in e.error for e in events)
        finally:
            start = time.monotonic()
            service.close()
            took = time.monotonic() - start
        assert took < 1.0
        assert not process.is_alive()


class TestAsyncFrontend:
    def test_feed_events_close_roundtrip(self, monitor):
        fleet = make_fleet(4, base_seed=600, frames=25, step=0)

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(service, batches.append) as frontend:
                    for session_id, trajectory in fleet.items():
                        await frontend.open_session(session_id)
                        await frontend.feed(session_id, trajectory.frames)
                    expected = sum(t.n_frames for t in fleet.values())
                    per_session = {}
                    for event in await sunk(batches, lambda e: len(e) == expected):
                        per_session.setdefault(event.session_id, []).append(event)
                    results = {
                        sid: await frontend.close_session(sid) for sid in fleet
                    }
                return per_session, results

        per_session, results = asyncio.run(run())
        for session_id, trajectory in fleet.items():
            events = per_session[session_id]
            # Per-session frame order is preserved across the merge.
            assert [e.frame_index for e in events] == list(
                range(trajectory.n_frames)
            )
            gestures, scores = [], []
            for _, gesture, score, _ in monitor.stream(trajectory):
                gestures.append(gesture)
                scores.append(score)
            assert [e.gesture for e in events] == gestures
            assert [e.score for e in events] == scores
            assert np.array_equal(
                results[session_id].unsafe_scores, np.asarray(scores)
            )

    def test_incremental_async_ingest(self, monitor):
        """Frames fed while the tickers are already running are processed
        without explicit tick calls, and drain() parks until done."""
        trajectory = make_random_walk_trajectory(
            30, n_features=N_FEATURES, seed=700
        )

        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(service, discard) as frontend:
                    session_id = await frontend.open_session()
                    for start in range(0, 30, 10):
                        await frontend.feed(
                            session_id, trajectory.frames[start : start + 10]
                        )
                        await asyncio.sleep(0)
                    await frontend.drain()
                    return await frontend.close_session(session_id)

        result = asyncio.run(run())
        assert result.n_frames == 30
        gestures = [g for _, g, _, _ in monitor.stream(trajectory)]
        assert np.array_equal(result.gestures, np.asarray(gestures))

    def test_async_feed_crash_events_not_stranded(self, monitor):
        """A crash discovered by feed() (no shard pending, tickers all
        parked) must still deliver the lost sessions' terminal events to
        the stream — nothing may depend on a later tick happening."""

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8
            ) as service:
                async with AsyncShardedMonitor(service, batches.append) as frontend:
                    sids = []
                    for i in range(6):
                        sid = await frontend.open_session(f"proc-{i}")
                        await frontend.feed(
                            sid,
                            make_random_walk_trajectory(
                                10, n_features=N_FEATURES, seed=850 + i
                            ).frames,
                        )
                        sids.append(sid)
                    await frontend.drain()  # everything idle, tickers parked
                    placement = {sid: service.shard_of(sid) for sid in sids}
                    victim_shard = placement[sids[0]]
                    victims = {
                        s for s, sh in placement.items() if sh == victim_shard
                    }
                    process = service._shards[victim_shard].process
                    os.kill(process.pid, signal.SIGKILL)
                    process.join(5.0)
                    with pytest.raises(WorkerError):
                        await frontend.feed(
                            sids[0], np.zeros((1, N_FEATURES))
                        )
                    # The sink already holds the normal events from the
                    # drain; the crash events must follow them.
                    events = await sunk(
                        batches,
                        lambda e: sum(x.error is not None for x in e) == len(victims),
                    )
                    crash_events = [e for e in events if e.error is not None]
                    return victims, crash_events

        victims, crash_events = asyncio.run(run())
        assert {e.session_id for e in crash_events} == victims
        assert all(e.flag for e in crash_events)

    def test_async_idle_shard_crash_surfaces_via_liveness_poll(self, monitor):
        """A worker dying while its shard is idle (tickers parked, no
        exchange to break) must still surface terminal events, and at
        once: its exit wakes the parked ticker, whose liveness check
        fails the shard.  No timer is involved."""

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8
            ) as service:
                async with AsyncShardedMonitor(service, batches.append) as frontend:
                    sids = []
                    for i in range(4):
                        sid = await frontend.open_session(f"proc-{i}")
                        await frontend.feed(
                            sid,
                            make_random_walk_trajectory(
                                8, n_features=N_FEATURES, seed=870 + i
                            ).frames,
                        )
                        sids.append(sid)
                    await frontend.drain()  # fleet idle, tickers parked
                    placement = {sid: service.shard_of(sid) for sid in sids}
                    victim_shard = placement[sids[0]]
                    victims = {
                        s for s, sh in placement.items() if sh == victim_shard
                    }
                    process = service._shards[victim_shard].process
                    killed = time.monotonic()
                    os.kill(process.pid, signal.SIGKILL)
                    # No feed, no tick — only the worker's exit can act.
                    events = await sunk(
                        batches,
                        lambda e: sum(x.error is not None for x in e) == len(victims),
                    )
                    took = time.monotonic() - killed
                    crash_events = [e for e in events if e.error is not None]
                    return victims, crash_events, took

        victims, crash_events, took = asyncio.run(run())
        assert {e.session_id for e in crash_events} == victims
        assert all(e.flag for e in crash_events)
        assert took < 0.5, took

    def test_async_crash_surfaces_in_event_stream(self, monitor):
        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8
            ) as service:
                async with AsyncShardedMonitor(service, batches.append) as frontend:
                    sids = []
                    for i in range(6):
                        sid = await frontend.open_session(f"proc-{i}")
                        await frontend.feed(
                            sid,
                            make_random_walk_trajectory(
                                400, n_features=N_FEATURES, seed=800 + i
                            ).frames,
                        )
                        sids.append(sid)
                    placement = {sid: service.shard_of(sid) for sid in sids}
                    victim_shard = placement[sids[0]]
                    victims = {
                        s for s, sh in placement.items() if sh == victim_shard
                    }
                    os.kill(
                        service._shards[victim_shard].process.pid, signal.SIGKILL
                    )
                    events = await sunk(
                        batches,
                        lambda e: sum(x.error is not None for x in e) == len(victims),
                    )
                    crash_events = [e for e in events if e.error is not None]
                    return victims, crash_events, set(service.failed_sessions)

        victims, crash_events, failed = asyncio.run(run())
        assert {e.session_id for e in crash_events} == victims
        assert all(e.flag and e.error for e in crash_events)
        assert failed == victims


    def test_async_imported_session_fails_safe_at_its_stream_position(
        self, monitor
    ):
        """The front-end's import seeds the router record the same way."""
        frames = make_random_walk_trajectory(
            50, n_features=N_FEATURES, seed=541
        ).frames

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8
            ) as service:
                async with AsyncShardedMonitor(
                    service, sink=batches.append
                ) as frontend:
                    sid = await frontend.open_session("moved")
                    await frontend.feed(sid, frames[:40])
                    await frontend.drain()
                    state = await frontend.export_session(sid)
                    assert await frontend.import_session(state) == sid
                    await frontend.feed(sid, frames[40:])
                    await frontend.drain()
                    os.kill(
                        service._shards[service.shard_of(sid)].process.pid,
                        signal.SIGKILL,
                    )
                    deadline = time.monotonic() + 10.0
                    while not service.failed_sessions:
                        assert time.monotonic() < deadline, "crash never surfaced"
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.05)  # let the terminal reach the sink
            return [event for batch in batches for event in batch]

        events = asyncio.run(run())
        assert [e.frame_index for e in events if e.error is None] == list(range(50))
        assert [
            (e.session_id, e.flag, e.frame_index) for e in events if e.error
        ] == [("moved", True, 50)]


#: Worker-side fault injection patches ``MonitorService`` in this
#: process before the fleet starts; only forked workers inherit it.
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="worker-side injection needs the fork start method",
)


def raising(exc_type):
    def method(self, *args, **kwargs):
        raise exc_type("injected failure")

    return method


def kill_worker(service, shard):
    process = service._shards[shard].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(5.0)
    assert not process.is_alive()


def count_exchanges(service):
    """Wrap every shard handle's pipe ends; returns the live tallies
    (requests sent and their ops, replies received) per shard."""
    tallies = {}
    for index, handle in service._shards.items():
        tally = tallies[index] = {"sent": 0, "received": 0, "ops": []}

        def send(request, _send=handle.send, _tally=tally):
            _tally["sent"] += 1
            _tally["ops"].append(request.op)
            return _send(request)

        def recv(timeout_s, _recv=handle.recv, _tally=tally):
            reply = _recv(timeout_s)
            _tally["received"] += 1
            return reply

        handle.send, handle.recv = send, recv
    return tallies


def assert_failed_safe(service, events, victims, shard):
    """The fail-safe contract for one failed shard: exactly one terminal
    per victim (flagged, cause named), bookkeeping moved, ring left."""
    terminals = [e for e in events if e.error is not None]
    assert sorted(e.session_id for e in terminals) == sorted(victims)
    assert all(e.flag for e in terminals)
    assert set(service.failed_sessions) == set(victims)
    assert shard not in service.shard_indices
    assert not set(service.session_ids) & set(victims)
    return {e.session_id: e for e in terminals}


class TestFailingWorkerTick:
    """A worker whose ``tick`` *replies with an error* (of any type) is a
    shard in an unknown state: it fails safe exactly like a dead one —
    never silence, never a raise out of the round, never at another
    shard's expense (``docs/serving.md``, "One worker exchange")."""

    @needs_fork
    @pytest.mark.parametrize("exc_type", [ShapeError, RuntimeError])
    def test_async_frontend_fails_the_shard_safe(
        self, monitor, fail_inside_step, exc_type
    ):
        fleet = make_fleet(6, base_seed=1100, frames=30, step=2)
        ref_events, _ = single_service_reference(monitor, fleet)
        reference = {}
        for event in ref_events:
            reference.setdefault(event.session_id, []).append(event_key(event))
        fail_inside_step(exc_type, after=3)

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8, start_method="fork"
            ) as service:
                async with AsyncShardedMonitor(
                    service, sink=batches.append
                ) as frontend:
                    for session_id in ["doomed", *fleet]:
                        await frontend.open_session(session_id)
                    doomed_shard = service.shard_of("doomed")
                    victims = set(service.sessions_on(doomed_shard))
                    survivors = set(fleet) - victims
                    assert survivors and "doomed" in victims
                    for session_id, trajectory in fleet.items():
                        await frontend.feed(session_id, trajectory.frames)
                    await frontend.feed("doomed", np.zeros((50, N_FEATURES)))
                    expected = sum(len(reference[s]) for s in survivors)

                    def settled():
                        events = [e for batch in batches for e in batch]
                        terminals = {e.session_id for e in events if e.error}
                        n_live = sum(
                            1
                            for e in events
                            if e.session_id in survivors and e.error is None
                        )
                        return terminals >= victims and n_live >= expected

                    deadline = time.monotonic() + 10.0
                    while not settled() and time.monotonic() < deadline:
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.1)  # room for a stray duplicate
                    events = [e for batch in batches for e in batch]
                    terminals = assert_failed_safe(
                        service, events, victims, doomed_shard
                    )
                    tasks = list(frontend._tasks)
                return events, terminals, victims, survivors, tasks

        events, terminals, victims, survivors, tasks = asyncio.run(run())
        per_session = {}
        for event in events:
            per_session.setdefault(event.session_id, []).append(event)
        for session_id in victims:
            *live, terminal = per_session[session_id]
            assert terminal is terminals[session_id]
            assert all(e.error is None for e in live)
            assert [e.frame_index for e in live] == list(range(len(live)))
            assert terminal.frame_index == len(live)  # frames served
            assert "injected tick failure" in terminal.error
            assert exc_type.__name__ in terminal.error
        assert terminals["doomed"].frame_index == 3
        # The other shard never noticed: bit-identical to one service.
        for session_id in survivors:
            assert [event_key(e) for e in per_session[session_id]] == reference[
                session_id
            ]
        assert all(t.done() and t.exception() is None for t in tasks)

    @pytest.mark.parametrize("start_method", mp.get_all_start_methods()[:2])
    def test_shard_loop_cannot_die_with_sessions_routed_to_it(
        self, monitor, monkeypatch, start_method
    ):
        """Whatever escapes a tick round (``AsyncShardedMonitor._tick``)
        on the router side, the ticker fails its shard's sessions safe
        instead of ending silently."""
        real_tick = AsyncShardedMonitor._tick
        doomed = {"shard": None, "calls": 0}

        async def tick(self, index):
            if index == doomed["shard"]:
                doomed["calls"] += 1
                if doomed["calls"] > 3:
                    raise RuntimeError("router-side tick failure")
            return await real_tick(self, index)

        monkeypatch.setattr(AsyncShardedMonitor, "_tick", tick)

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor,
                n_shards=2,
                max_sessions_per_shard=8,
                start_method=start_method,
            ) as service:
                async with AsyncShardedMonitor(
                    service, sink=batches.append
                ) as frontend:
                    sids = [
                        await frontend.open_session(f"proc-{i}") for i in range(6)
                    ]
                    for session_id in sids:
                        await frontend.feed(
                            session_id, np.zeros((40, N_FEATURES))
                        )
                    await frontend.drain()
                    # Armed only now, and fed through one session, so no
                    # feed of this test can race the failure it provokes.
                    doomed["shard"] = service.shard_of(sids[0])
                    victims = set(service.sessions_on(doomed["shard"]))
                    assert victims < set(sids)
                    # More frames than three full rounds carry: a fourth comes.
                    await frontend.feed(
                        sids[0], np.zeros((4 * TICKS_PER_ROUND, N_FEATURES))
                    )
                    deadline = time.monotonic() + 10.0
                    while (
                        set(service.failed_sessions) != victims
                        or service.has_pending
                    ) and time.monotonic() < deadline:
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.1)
                    events = [e for batch in batches for e in batch]
                    terminals = assert_failed_safe(
                        service, events, victims, doomed["shard"]
                    )
                    tasks = list(frontend._tasks)
                    return events, terminals, victims, set(sids) - victims, tasks

        events, terminals, victims, survivors, tasks = asyncio.run(run())
        for session_id, terminal in terminals.items():
            live = [
                e for e in events if e.session_id == session_id and not e.error
            ]
            assert terminal.frame_index == len(live)
            assert "RuntimeError: router-side tick failure" in terminal.error
        for session_id in survivors:
            assert [
                e.frame_index for e in events if e.session_id == session_id
            ] == list(range(40))
        assert all(t.done() and t.exception() is None for t in tasks)

    @needs_fork
    @pytest.mark.parametrize("exc_type", [ShapeError, RuntimeError])
    @pytest.mark.parametrize("how", ["tick", "drain", "drain-uncollected"])
    def test_round_reads_every_reply_and_keeps_healthy_events(
        self, monitor, fail_inside_step, exc_type, how
    ):
        """Sync fleet, failing shard collected first: the same round
        returns the healthy shard's events and the failing shard's
        terminal, and no reply is left in any pipe — the next control op
        on the healthy shard gets *its own* reply."""
        fail_inside_step(exc_type, after=2)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4, start_method="fork"
        ) as service:
            low, high = sorted(service.shard_indices)
            service.open_on_shard("doomed", low)
            service.open_on_shard("healthy", high)
            service.open_on_shard("witness", high)
            tallies = count_exchanges(service)
            for session_id in ("doomed", "healthy", "witness"):
                service.feed(session_id, np.zeros((6, N_FEATURES)))
            events = []
            rounds = {
                "tick": [service.tick] * 6,
                "drain": [service.drain],
                "drain-uncollected": [lambda: service.drain(collect=False)],
            }[how]
            for run_round in rounds:
                events.extend(run_round())  # never raises
                for tally in tallies.values():
                    assert tally["sent"] == tally["received"]
            terminals = assert_failed_safe(service, events, {"doomed"}, low)
            delivered = [e for e in events if e.session_id == "doomed" and not e.error]
            # One failure rule: the terminal lands at the frames served.
            assert terminals["doomed"].frame_index == 2
            assert len(delivered) == (0 if how == "drain-uncollected" else 2)
            healthy = [e for e in events if e.session_id == "healthy"]
            assert len(healthy) == (0 if how == "drain-uncollected" else 6)
            # One reply out of step would hand close_session a stale
            # tick reply here instead of the session's timeline.
            result = service.close_session("healthy")
            assert result.n_frames == 6
            assert [e.score for e in healthy] == list(result.unsafe_scores)[: len(healthy)]
            # The router's frame accounting stayed exact: a later crash of
            # the healthy shard reports the true number of frames served.
            kill_worker(service, high)
            (terminal,) = service.tick()
            assert (terminal.session_id, terminal.frame_index) == ("witness", 6)
            for tally in tallies.values():
                assert tally["sent"] == tally["received"] or tally is tallies[high]


def per_session_keys(events):
    """``{session_id: [event_key, ...]}`` in stream order."""
    streams = {}
    for event in events:
        streams.setdefault(event.session_id, []).append(event_key(event))
    return streams


class TestMultiTickRound:
    """A ``tick`` request with ``ticks=n`` runs up to ``n`` worker ticks
    back to back behind one exchange, within the backlog the shard held
    when it arrived (``docs/serving.md``, "The data plane"): each tick
    is still one frame per pending session, so every stream is
    unchanged; only how many ticks share a round moves."""

    @pytest.mark.parametrize("chunk", [1, 7, 30])
    def test_async_streams_match_one_service(self, monitor, chunk):
        """K=2 behind the front-end, sessions fed in chunks of ``chunk``
        and half of them opened mid-stream: each session's events equal
        one local service's, bit for bit."""
        fleet = make_fleet(6, base_seed=1300, frames=30, step=7)
        ref_events, _ = single_service_reference(monitor, fleet)
        early, late = list(fleet)[:3], list(fleet)[3:]

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8
            ) as service:
                async with AsyncShardedMonitor(
                    service, sink=batches.append
                ) as frontend:
                    fed = dict.fromkeys(fleet, 0)

                    async def feed_all(session_ids, until):
                        while any(fed[s] < until(s) for s in session_ids):
                            for session_id in session_ids:
                                start = fed[session_id]
                                stop = min(start + chunk, until(session_id))
                                if start < stop:
                                    await frontend.feed(
                                        session_id,
                                        fleet[session_id].frames[start:stop],
                                    )
                                    fed[session_id] = stop

                    for session_id in early:
                        await frontend.open_session(session_id)
                    await feed_all(early, lambda s: fleet[s].n_frames // 2)
                    for session_id in late:  # joins while the early ones tick
                        await frontend.open_session(session_id)
                    await feed_all(list(fleet), lambda s: fleet[s].n_frames)
                    await frontend.drain()
            return [e for batch in batches for e in batch]

        events = asyncio.run(run())
        assert not [e for e in events if e.error is not None]
        assert per_session_keys(events) == per_session_keys(ref_events)

    def test_a_round_advances_each_session_by_at_most_n(self, monitor):
        """≥ n frames pending: a round is exactly ``n`` ticks (``n_ticks``
        moves by ``n``), a session with fewer pending stops early; fewer
        pending on the whole shard: the round ends when it goes idle.
        The sync ``tick()`` still advances one frame per session."""
        fleet = {
            name: make_random_walk_trajectory(n, n_features=N_FEATURES, seed=seed)
            for name, n, seed in (("long", 35, 1350), ("short", 10, 1351), ("other", 30, 1352))
        }
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4
        ) as service:
            low, high = sorted(service.shard_indices)
            service.open_on_shard("long", low)
            service.open_on_shard("short", low)
            service.open_on_shard("other", high)
            service.feed("long", fleet["long"].frames[:20])
            service.feed("short", fleet["short"].frames[:5])
            service.feed("other", fleet["other"].frames)
            events = []

            def round_of(n):
                before = service.stats_of(low).n_ticks
                batch = service._run_round(Request("tick", ticks=n), low)
                events.extend(batch)
                advanced = {}
                for event in batch:
                    advanced[event.session_id] = advanced.get(event.session_id, 0) + 1
                return advanced, service.stats_of(low).n_ticks - before

            # 20 and 5 pending: both advance n = 4.
            assert round_of(4) == ({"long": 4, "short": 4}, 4)
            # 16 and 1 pending: the short session stops, the round does not.
            assert round_of(8) == ({"long": 8, "short": 1}, 8)
            assert round_of(8) == ({"long": 8}, 8)
            assert not service.shard_maybe_pending(low)
            # Fewer than n pending: the round stops when the shard is idle.
            service.feed("long", fleet["long"].frames[20:23])
            assert round_of(8) == ({"long": 3}, 3)
            # The sync tick() is one tick of every pending shard.
            service.feed("long", fleet["long"].frames[23:])
            service.feed("short", fleet["short"].frames[5:])
            before = service.stats_of(low).n_ticks
            batch = service.tick()
            events.extend(batch)
            assert sorted(e.session_id for e in batch) == ["long", "other", "short"]
            assert service.stats_of(low).n_ticks - before == 1
            events.extend(service.drain())
        ref_events, _ = single_service_reference(monitor, fleet)
        assert per_session_keys(events) == per_session_keys(ref_events)

    def test_frames_landing_mid_round_do_not_lengthen_it(self, monitor):
        """A round is one engine step, bounded by the backlog it started
        with: a block written while it runs is read off the frame ring
        after the step (back-pressure) and waits for the next round.
        Paced sessions — one frame each pending, a new frame landing
        during every round — get a one-tick round."""
        service = MonitorService(monitor, max_sessions=4)
        frames = {
            session_id: make_random_walk_trajectory(
                12, n_features=N_FEATURES, seed=1360 + route
            ).frames
            for route, session_id in enumerate(("s", "p", "q"))
        }
        with ShmRing(1 << 16) as frame_ring, ShmRing(1 << 16) as event_ring:
            worker = _ShardWorker(service, frame_ring, event_ring)
            worker.bind_route(service.open_session("s"), 0)
            service.feed("s", frames["s"][:2])
            real_advance = service.advance
            landing = []  # (route, frames) written while each step runs

            def advance(n):
                block = real_advance(n)
                if landing:
                    assert frame_ring.try_write_frames(*landing.pop(0))
                return block

            def ticked_frames(n_ring):
                return [
                    event_ring.read_events()["frame"].tolist() for _ in range(n_ring)
                ]

            service.advance = advance
            landing.append((0, frames["s"][2:5]))
            reply = worker.tick_round(8)
            assert reply.ok
            assert ticked_frames(reply.value) == [[0], [1]]
            # Drained into the service (the ring has room again), not ticked.
            assert service.pending_frames("s") == 3
            assert frame_ring.read_frames() is None
            reply = worker.tick_round(8)
            assert ticked_frames(reply.value) == [[2], [3], [4]]

            # The 30 Hz shape: every session one frame behind, and frames
            # keep landing mid-round at staggered phases.
            for route, session_id in ((1, "p"), (2, "q")):
                worker.bind_route(service.open_session(session_id), route)
            for route, session_id in enumerate(("s", "p", "q")):
                service.feed(session_id, frames[session_id][5:6])
            landing.extend((route, frames[sid][6:7]) for route, sid in ((0, "s"), (1, "p"), (2, "q")))
            reply = worker.tick_round(8)
            assert ticked_frames(reply.value) == [[5, 0, 0]]
            assert service.stats.n_ticks == 6
            assert [service.pending_frames(sid) for sid in ("s", "p", "q")] == [1, 0, 0]

    def test_a_session_evicted_mid_round_keeps_the_events_it_got(self, monitor):
        """A block the worker rejects while a round runs evicts its
        session after the round: the round still gives it every frame it
        was owed, announced under its route, and the rejection rides the
        reply for the router to fail the session safe after them."""
        service = MonitorService(monitor, max_sessions=2)
        frames = make_random_walk_trajectory(6, n_features=N_FEATURES, seed=1365).frames
        with ShmRing(1 << 16) as frame_ring, ShmRing(1 << 16) as event_ring:
            worker = _ShardWorker(service, frame_ring, event_ring)
            for route, session_id in enumerate(("kept", "evicted")):
                worker.bind_route(service.open_session(session_id), route)
                service.feed(session_id, frames)
            real_advance = service.advance

            def advance(n):
                block = real_advance(n)
                # A block of the wrong width, written while the step runs.
                assert frame_ring.try_write_frames(1, np.zeros((2, N_FEATURES + 1)))
                return block

            service.advance = advance
            reply = worker.tick_round(4)
            assert reply.ok
            assert reply.value == 4
            routes = [event_ring.read_events()["route"].tolist() for _ in range(4)]
            assert routes == [[0, 1]] * 4
            assert [route for route, _ in worker.take_ingest_errors()] == [1]
            assert list(service.session_ids) == ["kept"]

    def test_a_rejection_reported_by_a_round_follows_its_events(self, monitor):
        """The router side of the eviction above: a rejection that rides a
        round's reply becomes the session's terminal *after* the events
        that round delivered for it, at its true stream position."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4
        ) as service:
            low, _ = sorted(service.shard_indices)
            for session_id in ("a", "b"):
                service.open_on_shard(session_id, low)
                service.feed(session_id, np.zeros((10, N_FEATURES)))
            handle = service._shards[low]
            (route,) = [r for r, sid in handle.routes.items() if sid == "a"]
            real_recv = handle.recv

            def recv(timeout_s):
                reply = real_recv(timeout_s)
                handle.pending_ingest.append((route, "injected rejection"))
                return reply

            handle.recv = recv
            events = service._run_round(Request("tick", ticks=4), low)
        *live, terminal = [e for e in events if e.session_id == "a"]
        assert [e.frame_index for e in live] == [0, 1, 2, 3]
        assert "injected rejection" in terminal.error
        assert terminal.frame_index == 4
        assert [e.frame_index for e in events if e.session_id == "b"] == [0, 1, 2, 3]

    @needs_fork
    @pytest.mark.parametrize("after", [0, 3, 10])
    def test_a_tick_failing_inside_a_round(self, monitor, fail_inside_step, after):
        """The worker's step raises in the tick that would serve the
        doomed session its frame ``after`` — at the first tick of a
        round, inside the first, inside the second.  The shard's sessions
        get exactly those ``after`` events, then one terminal each at
        that position; every request gets its reply, and the other
        shard's streams stay bit-identical to one service."""
        fail_inside_step(RuntimeError, after=after)
        fleet = make_fleet(4, base_seed=1370, frames=24, step=0)
        doomed = {"doomed": fleet.pop("proc-0"), "buddy": fleet.pop("proc-1")}
        ref_events, _ = single_service_reference(monitor, fleet)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4, start_method="fork"
        ) as service:
            low, high = sorted(service.shard_indices)
            for session_id in doomed:
                service.open_on_shard(session_id, low)
            for session_id in fleet:
                service.open_on_shard(session_id, high)
            tallies = count_exchanges(service)
            for session_id, trajectory in {**doomed, **fleet}.items():
                service.feed(session_id, trajectory.frames)
            events = []
            while service.has_pending:
                events.extend(
                    service._run_round(Request("tick", ticks=TICKS_PER_ROUND))
                )
                for tally in tallies.values():
                    assert tally["sent"] == tally["received"]
            terminals = assert_failed_safe(service, events, set(doomed), low)
        streams = {}
        for event in events:
            streams.setdefault(event.session_id, []).append(event)
        for session_id in doomed:
            *live, terminal = streams[session_id]
            assert terminal is terminals[session_id]
            assert [e.frame_index for e in live] == list(range(after))
            assert all(e.error is None for e in live)
            assert terminal.frame_index == after
            assert "RuntimeError: injected tick failure" in terminal.error
        assert per_session_keys(e for e in events if e.session_id in fleet) == (
            per_session_keys(ref_events)
        )

    def test_async_rounds_carry_up_to_ticks_per_round(self, monitor):
        """Behind the front-end one ticker round is up to
        ``TICKS_PER_ROUND`` ticks: a block already in the ring when the
        ticker wakes is handed over in rounds of that many frames."""
        n_frames = 2 * TICKS_PER_ROUND + 3
        trajectory = make_random_walk_trajectory(n_frames, n_features=N_FEATURES, seed=1380)

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(
                    service, sink=batches.append
                ) as frontend:
                    session_id = await frontend.open_session("solo")
                    await frontend.feed(session_id, trajectory.frames)
                    await frontend.drain()
            return batches

        batches = asyncio.run(run())
        assert [len(batch) for batch in batches] == [TICKS_PER_ROUND] * 2 + [3]
        assert [e.frame_index for batch in batches for e in batch] == list(range(n_frames))


class TestFrontEndDrainIsEventDriven:
    """``AsyncShardedMonitor.drain`` waits on no timer: a ticker whose
    round (or idle pass) leaves no live shard pending wakes it, and so
    does a ticker that stops because its shard failed."""

    def _spy_rounds(self, monkeypatch, after_round=None):
        """Log, after every ticker round, whether the fleet still has
        pending frames; ``after_round(frontend, index)`` runs then too."""
        real_tick = AsyncShardedMonitor._tick
        log = []

        async def tick(self, index):
            events = await real_tick(self, index)
            log.append(self.service.has_pending)
            if after_round is not None:
                after_round(self, index)
            return events

        monkeypatch.setattr(AsyncShardedMonitor, "_tick", tick)
        return log

    def test_drain_returns_with_the_round_that_empties_the_backlog(
        self, monitor, monkeypatch
    ):
        log = self._spy_rounds(monkeypatch)
        fleet = make_fleet(4, base_seed=1390, frames=3 * TICKS_PER_ROUND, step=3)
        timed = []
        real_sleep = asyncio.sleep

        async def sleep(delay, *args, **kwargs):
            if delay:
                timed.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(service, sink=batches.append) as frontend:
                    for session_id, trajectory in fleet.items():
                        await frontend.open_session(session_id)
                        await frontend.feed(session_id, trajectory.frames)
                    monkeypatch.setattr(asyncio, "sleep", sleep)
                    await frontend.drain()
                    monkeypatch.setattr(asyncio, "sleep", real_sleep)
                    rounds = len(log)
                    assert not service.has_pending
            return batches, rounds

        batches, rounds = asyncio.run(run())
        # The first round that left the fleet idle was the last one, and
        # drain returned on it: no round ran after, none was waited for.
        assert log.index(False) == rounds - 1 == len(log) - 1
        assert timed == []
        ref_events, _ = single_service_reference(monitor, fleet)
        events = [e for batch in batches for e in batch]
        assert per_session_keys(events) == per_session_keys(ref_events)

    def test_drain_does_not_hang_when_a_shard_fails_mid_drain(
        self, monitor, monkeypatch
    ):
        doomed = {}

        def after_round(frontend, index):
            if index == doomed.get("shard") and not doomed.get("killed"):
                doomed["killed"] = True
                kill_worker(frontend.service, index)

        self._spy_rounds(monkeypatch, after_round)
        fleet = make_fleet(4, base_seed=1395, frames=6 * TICKS_PER_ROUND, step=0)

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(service, sink=batches.append) as frontend:
                    for session_id in fleet:
                        await frontend.open_session(session_id)
                    doomed["shard"] = service.shard_of("proc-0")
                    victims = set(service.sessions_on(doomed["shard"]))
                    assert victims < set(fleet)
                    for session_id, trajectory in fleet.items():
                        await frontend.feed(session_id, trajectory.frames)
                    await asyncio.wait_for(frontend.drain(), 15.0)
                    assert doomed["killed"] and not service.has_pending
                    events = [e for batch in batches for e in batch]
                    assert_failed_safe(service, events, victims, doomed["shard"])
            return events, victims

        events, victims = asyncio.run(run())
        survivors = {sid: trajectory for sid, trajectory in fleet.items() if sid not in victims}
        ref_events, _ = single_service_reference(monitor, survivors)
        assert per_session_keys(e for e in events if e.session_id in survivors) == (
            per_session_keys(ref_events)
        )



class InlineShard:
    """A shard whose worker answers inline, on the caller's thread: the
    pipe and process faces a ``_ShardHandle`` talks to, over a real
    ``_ShardWorker``.  No process, no thread, no wait — ``send`` serves
    the request, so the reply is ready when the router reads it."""

    exitcode = None

    def __init__(self, worker):
        self.worker = worker
        self.replies = []
        self.running = True

    def send(self, request):
        self.replies.append(self.worker.serve(request))
        self.running = request.op != "stop"

    def poll(self, timeout=None):
        return bool(self.replies)

    def recv(self):
        return self.replies.pop(0)

    def close(self):
        pass

    def is_alive(self):
        return self.running

    def kill(self):
        self.running = False

    def join(self, timeout=None):
        pass


class InlineFleet(ShardedMonitorService):
    """The real router over :class:`InlineShard` workers.  Each event ring
    has the derived capacity unless ``event_ring_bytes`` overrides it."""

    def __init__(self, *args, event_ring_bytes=None, **kwargs):
        self._event_ring_bytes = event_ring_bytes
        super().__init__(*args, frame_ring_bytes=1 << 16, **kwargs)

    def _spawn_shard(self, index):
        service = MonitorService(
            monitor_from_bytes(self.monitor_bytes),
            max_sessions=self.max_sessions_per_shard,
            backend=self.backend,
        )
        capacity = self._event_ring_bytes or event_ring_capacity(
            TICKS_PER_ROUND, self.max_sessions_per_shard
        )
        worker = _ShardWorker(service, ShmRing(self.frame_ring_bytes), ShmRing(capacity))
        shard = InlineShard(worker)
        self._shards[index] = _ShardHandle(
            index, shard, shard, worker.frame_ring, worker.event_ring
        )
        self._ring.add(index)


def empty_at(ring, offset):
    """Leave ``ring`` empty with its next record due at byte ``offset``."""
    pos = ring._write_pos()
    pos += (offset - pos) % ring.capacity
    ring._publish_write(pos)
    ring._publish_read(pos)


class TestEventRingHoldsOneRound:
    """Events leave a worker one way: one batch per tick on an event ring
    sized to hold a whole round (``event_ring_capacity``).  The router
    reads the ring empty after every reply, so the largest round —
    ``TICKS_PER_ROUND`` ticks of ``max_sessions`` events each — must fit
    from whatever offset the ring starts at; a ring that cannot hold it
    fails the round safe, it never drops a batch."""

    MAX_SESSIONS = 3

    def _worker(self, monitor, capacity):
        service = MonitorService(monitor, max_sessions=self.MAX_SESSIONS)
        worker = _ShardWorker(service, ShmRing(1 << 16), ShmRing(capacity))
        for route in range(self.MAX_SESSIONS):
            worker.bind_route(service.open_session(f"s{route}"), route)
            service.feed(f"s{route}", np.zeros((1, N_FEATURES)))
        return worker

    def _feed_round(self, service):
        for session_id in service.session_ids:
            service.feed(session_id, np.zeros((TICKS_PER_ROUND, N_FEATURES)))

    def _short_capacity(self):
        """The derived capacity less one full batch record."""
        full = event_ring_capacity(TICKS_PER_ROUND, self.MAX_SESSIONS)
        return 2 * full - event_ring_capacity(TICKS_PER_ROUND + 1, self.MAX_SESSIONS)

    def test_a_full_round_fits_at_every_offset(self, monitor):
        worker = self._worker(
            monitor, event_ring_capacity(TICKS_PER_ROUND, self.MAX_SESSIONS)
        )
        ring = worker.event_ring
        served, spans = 0, set()
        try:
            for offset in range(0, ring.capacity, 8):
                self._feed_round(worker.service)  # TICKS_PER_ROUND + 1 pending
                empty_at(ring, offset)
                start = ring._write_pos()
                reply = worker.tick_round(TICKS_PER_ROUND)
                assert (reply.ok, reply.value) == (True, TICKS_PER_ROUND), offset
                spans.add(ring._write_pos() - start)
                for _ in range(TICKS_PER_ROUND):
                    frames = ring.read_events()["frame"].tolist()
                    assert frames == [served] * self.MAX_SESSIONS
                    served += 1
                assert ring.read_events() is None
        finally:
            worker.frame_ring.destroy()
            ring.destroy()
        assert len(spans) > 1  # some rounds wrapped behind a pad

    def test_a_ring_one_record_short_fails_the_round(self, monitor):
        worker = self._worker(monitor, self._short_capacity())
        ring = worker.event_ring
        try:
            self._feed_round(worker.service)
            empty_at(ring, 8)  # the last batch would straddle the end
            reply = worker.tick_round(TICKS_PER_ROUND)
            assert (reply.ok, reply.error_type) == (False, "WorkerError")
            assert "event ring full" in reply.error
            assert reply.value == TICKS_PER_ROUND - 1  # the batches that fit
            assert [
                ring.read_events()["frame"].tolist() for _ in range(reply.value)
            ] == [[k] * self.MAX_SESSIONS for k in range(TICKS_PER_ROUND - 1)]
            assert ring.read_events() is None
        finally:
            worker.frame_ring.destroy()
            ring.destroy()

    def test_the_router_delivers_what_fit_then_fails_the_shard_safe(self, monitor):
        with InlineFleet(
            monitor,
            n_shards=1,
            max_sessions_per_shard=self.MAX_SESSIONS,
            event_ring_bytes=self._short_capacity(),
        ) as service:
            (index,) = service.shard_indices
            sids = [service.open_session(f"s{i}") for i in range(self.MAX_SESSIONS)]
            for session_id in sids:
                service.feed(session_id, np.zeros((TICKS_PER_ROUND + 1, N_FEATURES)))
            empty_at(service._shards[index].event_ring, 8)
            events = service.drain()
            assert_failed_safe(service, events, set(sids), index)
        for session_id in sids:
            *live, terminal = [e for e in events if e.session_id == session_id]
            assert [e.frame_index for e in live] == list(range(TICKS_PER_ROUND - 1))
            assert terminal.frame_index == TICKS_PER_ROUND - 1
            assert "event ring full" in terminal.error

    def test_a_spawned_shard_gets_the_derived_ring(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=1, max_sessions_per_shard=self.MAX_SESSIONS
        ) as service:
            (handle,) = service._shards.values()
            assert handle.event_ring.capacity == event_ring_capacity(
                TICKS_PER_ROUND, self.MAX_SESSIONS
            )

    def test_drain_is_a_run_of_capped_rounds(self, monitor):
        """The sync ``drain()`` asks for no more than a round at a time, so
        its rounds fit the derived ring too — and its stream is still one
        ``MonitorService``'s."""
        fleet = {
            f"s{i}": make_random_walk_trajectory(
                3 * TICKS_PER_ROUND + i, n_features=N_FEATURES, seed=1400 + i
            )
            for i in range(self.MAX_SESSIONS)
        }
        ref_events, _ = single_service_reference(monitor, fleet)
        requests = []
        with InlineFleet(
            monitor, n_shards=2, max_sessions_per_shard=self.MAX_SESSIONS
        ) as service:
            for session_id, trajectory in fleet.items():
                service.open_session(session_id)
                service.feed(session_id, trajectory.frames)
            for handle in service._shards.values():
                send = handle.conn.send
                handle.conn.send = lambda request, send=send: (
                    requests.append(request), send(request)
                )
            events = service.drain()
            assert {(r.op, r.ticks) for r in requests} == {("tick", TICKS_PER_ROUND)}
        assert [event_key(e) for e in events] == [event_key(e) for e in ref_events]


class TestFrameRingBackpressure:
    """A feed that finds its shard's frame ring full sends the worker one
    ``ping``: the worker reads its whole ring before it answers any
    request, so the chunk then fits.  A dead or hung worker fails that
    exchange like any other, and an idle worker sleeps in its pipe read."""

    BLOCK = np.zeros((25, N_FEATURES))  # a 2 024-byte record

    def test_a_block_three_rings_long_streams_like_one_service(self, monitor):
        """Inline workers answer on the feeding thread and never read the
        ring on their own, so only the ping makes room."""
        with InlineFleet(monitor, n_shards=1, max_sessions_per_shard=1) as service:
            (handle,) = service._shards.values()
            n_frames = 3 * handle.frame_ring.capacity // (8 * N_FEATURES)
            fleet = {
                "s": make_random_walk_trajectory(
                    n_frames, n_features=N_FEATURES, seed=1460
                )
            }
            service.open_session("s")
            service.feed("s", fleet["s"].frames)
            counters = service.router_telemetry_snapshot()["counters"]
            events = service.drain()
        ref_events, _ = single_service_reference(monitor, fleet)
        assert counters["feeds_backpressured"] == 1
        assert [event_key(e) for e in events] == [event_key(e) for e in ref_events]

    @pytest.mark.parametrize(
        "signum", [signal.SIGKILL, signal.SIGSTOP], ids=["killed", "stopped"]
    )
    def test_a_full_ring_of_a_dead_or_hung_worker_fails_its_shard_safe(
        self, monitor, monkeypatch, signum
    ):
        """Killed: the ping reads end-of-file (or the liveness check sees
        the exit) at once.  Stopped: the ping ends at the reply deadline."""
        monkeypatch.setattr(transport, "REPLY_DEADLINE_S", 1.0)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4, frame_ring_bytes=4096
        ) as service:
            service.open_session("s")
            shard = service.shard_of("s")
            healthy = other_shard_id(service, shard, "healthy")
            service.open_session(healthy)
            service.feed("s", self.BLOCK)
            service.feed("s", self.BLOCK)
            time.sleep(0.05)
            assert not service._room_for(shard, self.BLOCK)  # no request, no ingest
            os.kill(service._shards[shard].process.pid, signum)
            start = time.monotonic()
            with pytest.raises(WorkerError, match="lost") as raised:
                service.feed("s", self.BLOCK)
            took = time.monotonic() - start
            (terminal,) = service.take_undelivered_events()
            assert_failed_safe(service, [terminal], {"s"}, shard)
            service.feed(healthy, self.BLOCK)
            served = service.drain()
        assert (terminal.flag, terminal.frame_index) == (True, 0)
        if signum == signal.SIGKILL:
            assert took < 0.5
        else:
            assert took >= 1.0 and "unresponsive after 1.0s" in str(raised.value)
        assert [(e.session_id, e.frame_index) for e in served] == [
            (healthy, k) for k in range(len(self.BLOCK))
        ]

    def test_an_idle_worker_sleeps(self, monitor):
        """Between requests the worker blocks in its pipe read: no timer
        wakes it."""
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/<pid>/status")

        def wakeups(pid):
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("voluntary_ctxt_switches:"):
                        return int(line.split()[1])

        with ShardedMonitorService(
            monitor, n_shards=1, start_method="spawn"
        ) as service:
            (handle,) = service._shards.values()
            before = wakeups(handle.process.pid)
            time.sleep(0.5)
            after = wakeups(handle.process.pid)
        assert after - before < 10


class TestExchangeOutcomes:
    """The control-op half of the exchange rule, one test per cell of the
    table in ``docs/serving.md`` ("One worker exchange"): a transport
    failure or an unknown-type error reply fails the shard safe and
    raises ``WorkerError``; a ``repro.errors``-typed error reply is the
    caller's error and leaves the worker serving.  (The ``tick``/``drain``
    row is :class:`TestFailingWorkerTick` and :class:`TestWorkerCrash`.)"""

    OPS = {
        "close": lambda service, sid, shard: service.close_session(sid),
        "stats": lambda service, sid, shard: service.stats_of(shard),
    }
    # The ops whose worker side can raise: ``stats`` replies with the
    # service's own stats object, so only its transport can fail.
    PATCHES = {"close": (MonitorService, "close_session")}

    def _fleet(self, service):
        sids = [service.open_session(f"proc-{i}") for i in range(6)]
        for sid in sids:
            service.feed(sid, np.zeros((4, N_FEATURES)))
        assert len(service.drain()) == 24
        shard = service.shard_of(sids[0])
        return sids, shard, set(service.sessions_on(shard))

    def _assert_shard_failed(self, service, shard, victims):
        terminals = assert_failed_safe(
            service, service.take_undelivered_events(), victims, shard
        )
        assert all(e.frame_index == 4 for e in terminals.values())

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_transport_failure_fails_the_shard_safe(self, monitor, op):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            sids, shard, victims = self._fleet(service)
            kill_worker(service, shard)
            with pytest.raises(WorkerError, match="worker died|pipe broken"):
                self.OPS[op](service, sids[0], shard)
            self._assert_shard_failed(service, shard, victims)

    @needs_fork
    @pytest.mark.parametrize("op", sorted(PATCHES))
    def test_typed_error_reply_is_the_callers_error(
        self, monitor, monkeypatch, op
    ):
        monkeypatch.setattr(*self.PATCHES[op], raising(ConfigurationError))
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8, start_method="fork"
        ) as service:
            sids, shard, victims = self._fleet(service)
            with pytest.raises(ConfigurationError, match="injected failure"):
                self.OPS[op](service, sids[0], shard)
            assert not service.failed_sessions
            assert not service.take_undelivered_events()
            assert shard in service.shard_indices
            service.feed(sids[0], np.zeros((2, N_FEATURES)))  # still serving
            assert [e.frame_index for e in service.drain()] == [4, 5]

    @needs_fork
    @pytest.mark.parametrize("op", sorted(PATCHES))
    def test_unknown_error_reply_fails_the_shard_safe(
        self, monitor, monkeypatch, op
    ):
        monkeypatch.setattr(*self.PATCHES[op], raising(RuntimeError))
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8, start_method="fork"
        ) as service:
            sids, shard, victims = self._fleet(service)
            with pytest.raises(WorkerError, match="RuntimeError: injected failure"):
                self.OPS[op](service, sids[0], shard)
            self._assert_shard_failed(service, shard, victims)
            survivor = next(s for s in sids if s not in victims)
            service.feed(survivor, np.zeros((2, N_FEATURES)))
            assert [e.frame_index for e in service.drain()] == [4, 5]


class TestSessionIncarnation:
    def test_waiting_feed_does_not_follow_its_id_onto_a_reopened_session(
        self, monitor
    ):
        """A feed queued behind its shard's ingest turn while the worker
        dies and the id is re-opened elsewhere (what the gateway's
        crash recovery does) must fail as the lost session's feed.
        Following the id would land its frames on the new session a
        second time — the recovery already carried them — which the
        chaos gate saw as ``gateway counted 28 frames, fed 24``."""

        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(service, discard) as frontend:
                    await frontend.open_session("s")
                    shard = service.shard_of("s")
                    async with frontend._turns(shard):  # a control op in flight
                        waiting = asyncio.ensure_future(
                            frontend.feed("s", np.ones((4, N_FEATURES)))
                        )
                        await asyncio.sleep(0.05)  # parked on the turn
                        kill_worker(service, shard)
                        (terminal,) = service.take_undelivered_events()
                        assert terminal.session_id == "s" and terminal.flag
                        await frontend.open_session("s")  # the rebuild
                        assert service.shard_of("s") != shard
                    with pytest.raises(WorkerError, match="lost"):
                        await asyncio.wait_for(waiting, 5.0)
                    await frontend.feed("s", np.zeros((2, N_FEATURES)))
                    await frontend.drain()
                    return await frontend.close_session("s")

        assert asyncio.run(run()).n_frames == 2


class CountingExecutor(ThreadPoolExecutor):
    """The loop's default executor, recording what is submitted to it."""

    def __init__(self) -> None:
        super().__init__(max_workers=4)
        self.calls: list[str] = []

    def submit(self, fn, /, *args, **kwargs):
        self.calls.append(fn.__qualname__)
        return super().submit(fn, *args, **kwargs)


def other_shard_id(service, shard, prefix):
    """A session id that ``service`` would place on a shard other than
    ``shard`` (placement is a pure function of the id; no IPC)."""
    return next(
        f"{prefix}-{i}"
        for i in range(1000)
        if service.resolve_placement(f"{prefix}-{i}")[1] != shard
    )


class TestLoopThreadDataPath:
    """The front-end's data path never leaves the event loop: a feed
    that fits its shard's frame ring is written on the loop thread, and
    a tick round is awaited on the worker's pipe.  Only control ops and
    feeds that must wait on back-pressure (ring full, or a block over
    half the ring) go to the executor — and the two feed paths give
    every block the same answer."""

    def test_steady_state_submits_nothing_to_the_executor(self, monitor):
        """Closed loop at K=2: zero executor submissions between the
        opens and the back-pressure feed; the streams stay bit-identical
        to one local service."""
        fleet = make_fleet(6, base_seed=1300, frames=60, step=0)
        bulk = make_random_walk_trajectory(300, n_features=N_FEATURES, seed=1399)
        ref_events, _ = single_service_reference(monitor, {**fleet, "bulk": bulk})
        executor = CountingExecutor()

        async def run():
            asyncio.get_running_loop().set_default_executor(executor)
            streams = {sid: [] for sid in [*fleet, "bulk"]}

            def sink(batch):
                for event in batch:
                    streams[event.session_id].append(event)

            # 16 KiB rings: a 5-frame block always fits, 300 frames are
            # over half the ring and go in chunks.
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8,
                frame_ring_bytes=16 * 1024,
            ) as service:
                async with AsyncShardedMonitor(service, sink=sink) as frontend:
                    for session_id in streams:
                        await frontend.open_session(session_id)
                    opened = len(executor.calls)
                    for start in range(0, 60, 5):
                        for session_id, trajectory in fleet.items():
                            await frontend.feed(
                                session_id, trajectory.frames[start : start + 5]
                            )
                        while any(
                            len(streams[s]) < start + 5 for s in fleet
                        ):
                            await asyncio.sleep(0.001)
                    steady = executor.calls[opened:]
                    await frontend.feed("bulk", bulk.frames)
                    await frontend.drain()
                    for session_id in streams:
                        await frontend.close_session(session_id)
            return opened, steady, executor.calls[opened:], streams

        opened, steady, later, streams = asyncio.run(run())
        assert steady == []
        assert opened == 7 and all("open_session" in c for c in executor.calls[:7])
        assert "AsyncShardedMonitor.feed" in later[0]
        assert len(later) == 8 and all("close_session" in c for c in later[1:])
        reference = {}
        for event in ref_events:
            reference.setdefault(event.session_id, []).append(event_key(event))
        for session_id, events in streams.items():
            assert [event_key(e) for e in events] == reference[session_id]

    @pytest.mark.parametrize("path", ["inline", "backpressure"])
    def test_hostile_blocks_get_the_same_answer_on_both_paths(
        self, monitor, monkeypatch, path
    ):
        """NaN/±Inf, the wrong width, a 1-D frame, an empty block, a
        block of a failed session and a block over half the ring, once
        through the inline path and once through the back-pressure path
        (forced: the room check says no).  Every refusal is the typed
        error a local ``MonitorService`` raises, from the ``feed`` call
        itself, with nothing written to the ring and no session failed;
        what is accepted streams bit-identically to that service."""
        poisoned = np.ones((3, N_FEATURES))
        poisoned[1, 4] = np.nan
        inputs = {
            "nan": poisoned,
            "+inf": np.full((2, N_FEATURES), np.inf),
            "-inf": np.full((2, N_FEATURES), -np.inf),
            "wide": np.ones((3, N_FEATURES + 1)),
            "cube": np.ones((2, 3, N_FEATURES)),
            "1-D, wrong width": np.ones(N_FEATURES - 3),
            "empty": np.ones((0, N_FEATURES)),
            "1-D": np.linspace(0.0, 1.0, N_FEATURES),
            "over half the ring": make_random_walk_trajectory(
                60, n_features=N_FEATURES, seed=1401
            ).frames,
        }
        oracle = MonitorService(monitor, max_sessions=1)
        oracle.open_session("s")
        expected = {}
        for name, frames in inputs.items():
            try:
                oracle.feed("s", frames)
                expected[name] = None
            except (DatasetError, ShapeError) as exc:
                expected[name] = type(exc)
        assert expected["1-D"] is expected["empty"] is None
        assert expected["over half the ring"] is None
        executor = CountingExecutor()

        async def run():
            asyncio.get_running_loop().set_default_executor(executor)
            batches = []
            # 4 KiB rings: at most 25 frames of 10 features per record.
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4,
                frame_ring_bytes=4096,
            ) as service:
                async with AsyncShardedMonitor(
                    service, sink=batches.append
                ) as frontend:
                    await frontend.open_session("s")
                    shard = service.shard_of("s")
                    gone = other_shard_id(service, shard, "gone")
                    await frontend.open_session(gone)
                    kill_worker(service, service.shard_of(gone))
                    service.take_undelivered_events()
                    assert list(service.failed_sessions) == [gone]
                    if path == "backpressure":
                        monkeypatch.setattr(
                            service, "_room_for", lambda shard, frames: False
                        )
                    ring = service._shards[shard].frame_ring
                    outcomes, submitted = {}, {}
                    for name, frames in inputs.items():
                        before, calls = ring._write_pos(), len(executor.calls)
                        try:
                            await frontend.feed("s", frames)
                            outcomes[name] = None
                        except (DatasetError, ShapeError) as exc:
                            outcomes[name] = type(exc)
                            assert ring._write_pos() == before, name
                        submitted[name] = len(executor.calls) - calls
                    with pytest.raises(WorkerError, match="failed"):
                        await frontend.feed(gone, np.ones((2, N_FEATURES)))
                    await frontend.drain()
                    assert list(service.failed_sessions) == [gone]
                    result = await frontend.close_session("s")
            return outcomes, submitted, batches, result

        outcomes, submitted, batches, result = asyncio.run(run())
        assert outcomes == expected
        inline = path == "inline"
        assert submitted == {
            name: int(not inline or name == "over half the ring")
            for name in inputs
        }
        events = [
            event_key(e) for batch in batches for e in batch if e.session_id == "s"
        ]
        assert events == [event_key(e) for e in oracle.drain()]
        assert result.n_frames == 61

    def test_a_feed_that_waits_on_a_full_frame_ring_is_counted(
        self, monitor, monkeypatch
    ):
        """The loss signal: a feed that found its shard's frame ring
        full and waited for the worker shows in the router telemetry the
        gateway's STATS carries (``feeds_backpressured``)."""
        block = np.zeros((25, N_FEATURES))  # a 2 024-byte record

        async def run():
            # The deadline bounds a back-pressure wait run on the loop
            # thread by mistake: it could never see the SIGCONT.
            monkeypatch.setattr(transport, "REPLY_DEADLINE_S", 10.0)
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=2,
                frame_ring_bytes=4096,
            ) as service:
                async with AsyncShardedMonitor(service, discard) as frontend:
                    sid = await frontend.open_session("s")
                    handle = service._shards[service.shard_of(sid)]
                    full = threading.Event()
                    write = handle.frame_ring.try_write_frames

                    def try_write_frames(route, frames):
                        written = write(route, frames)
                        if not written:
                            full.set()
                        return written

                    handle.frame_ring.try_write_frames = try_write_frames
                    os.kill(handle.process.pid, signal.SIGSTOP)
                    try:
                        await frontend.feed(sid, block)
                        await frontend.feed(sid, block)  # the ring is full
                        waiting = asyncio.ensure_future(frontend.feed(sid, block))
                        assert await asyncio.to_thread(full.wait, 10.0)
                    finally:
                        os.kill(handle.process.pid, signal.SIGCONT)
                    await asyncio.wait_for(waiting, 10.0)
                    await frontend.drain()
                    counters = service.router_telemetry_snapshot()["counters"]
                    result = await frontend.close_session(sid)
            return counters, result

        counters, result = asyncio.run(run())
        assert counters["feeds_backpressured"] == 1
        assert result.n_frames == 75

    def test_a_hung_worker_fails_safe_while_the_loop_serves_on(
        self, monitor, monkeypatch
    ):
        """SIGSTOP one worker: its tick round's wait on the pipe ends at
        the reply deadline and the shard fails safe as unresponsive —
        and while that round waits, the loop keeps feeding and ticking
        the other shard."""
        monkeypatch.setattr(transport, "REPLY_DEADLINE_S", 2.0)
        healthy_frames = make_random_walk_trajectory(
            20, n_features=N_FEATURES, seed=1450
        ).frames

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(
                    service, sink=batches.append
                ) as frontend:
                    await frontend.open_session("hung")
                    shard = service.shard_of("hung")
                    healthy = other_shard_id(service, shard, "healthy")
                    await frontend.open_session(healthy)
                    pid = service._shards[shard].process.pid
                    os.kill(pid, signal.SIGSTOP)
                    try:
                        await frontend.feed("hung", np.zeros((3, N_FEATURES)))
                        await frontend.feed(healthy, healthy_frames)
                        deadline = time.monotonic() + 10.0
                        while "hung" not in service.failed_sessions:
                            assert time.monotonic() < deadline
                            await asyncio.sleep(0.01)
                    finally:
                        os.kill(pid, signal.SIGCONT)
                    await frontend.drain()
            return healthy, [e for batch in batches for e in batch]

        healthy, events = asyncio.run(run())
        (terminal,) = [e for e in events if e.session_id == "hung"]
        assert terminal.flag and terminal.frame_index == 0
        assert "unresponsive after 2.0s" in terminal.error
        served = [e for e in events if e.session_id == healthy]
        assert events.index(served[-1]) < events.index(terminal)
        oracle = MonitorService(monitor, max_sessions=1)
        oracle.open_session(healthy)
        oracle.feed(healthy, healthy_frames)
        assert [event_key(e) for e in served] == [
            event_key(e) for e in oracle.drain()
        ]

    def test_mixed_feed_paths_under_a_short_switch_interval(self, monitor):
        """Stress, time-bounded: eight sessions feed blocks of 1–60
        frames into 4 KiB rings at once, three blocks per session in
        flight, so inline writes, back-pressure waits and chunked blocks
        on executor threads interleave with tick rounds while the
        interpreter switches threads every 10 µs.  A feed overtaking one
        of its session's feeds queued before it, or a wakeup lost to a
        stale reply, shows as a stream that differs from one local
        service's or as a drain that never ends."""
        fleet = make_fleet(8, base_seed=1600, frames=120, step=10)
        ref_events, _ = single_service_reference(monitor, fleet)
        rng = np.random.default_rng(1600)
        sizes = {
            sid: rng.integers(1, 61, size=trajectory.n_frames)
            for sid, trajectory in fleet.items()
        }
        executor = CountingExecutor()

        async def feeder(frontend, session_id, frames):
            ends = np.cumsum(sizes[session_id])
            blocks = np.split(frames, ends[ends < len(frames)])
            for i in range(0, len(blocks), 3):  # tasks start in this order
                await asyncio.gather(
                    *(frontend.feed(session_id, b) for b in blocks[i : i + 3])
                )

        async def run():
            asyncio.get_running_loop().set_default_executor(executor)
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8,
                frame_ring_bytes=4096,
            ) as service:
                async with AsyncShardedMonitor(
                    service, sink=batches.append
                ) as frontend:
                    for session_id in fleet:
                        await frontend.open_session(session_id)
                    await asyncio.wait_for(
                        asyncio.gather(
                            *(
                                feeder(frontend, sid, trajectory.frames)
                                for sid, trajectory in fleet.items()
                            )
                        ),
                        60.0,
                    )
                    await asyncio.wait_for(frontend.drain(), 60.0)
            return batches

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            batches = asyncio.run(run())
        finally:
            sys.setswitchinterval(previous)
        assert any("AsyncShardedMonitor.feed" in call for call in executor.calls)
        streams, reference = {}, {}
        for event in (e for batch in batches for e in batch):
            streams.setdefault(event.session_id, []).append(event_key(event))
        for event in ref_events:
            reference.setdefault(event.session_id, []).append(event_key(event))
        assert streams == reference

    def test_a_stale_reply_cannot_park_a_fed_shard(self, monitor):
        """Lost wakeup, deterministically: a round's request is sent and
        answered (nothing pending), a block is fed, and only then is the
        reply read.  Its ``has_pending=False`` predates the write, so
        the shard must stay pending and the block tick with no further
        feed."""
        frames = make_random_walk_trajectory(5, n_features=N_FEATURES, seed=1500).frames
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4
        ) as service:
            sid = service.open_session("s")
            shard = service.shard_of(sid)
            handle = service._shards[shard]
            round_ = service._round(Request("tick"), shard)
            assert next(round_) == [handle]
            assert handle.conn.poll(10.0)  # the worker has answered
            service.feed(sid, frames)
            assert round_.send(None) == []
            assert not handle._reply_pending  # the stale answer
            assert service.shard_maybe_pending(shard)
            events = service.drain()
        oracle = MonitorService(monitor, max_sessions=1)
        oracle.open_session("s")
        oracle.feed("s", frames)
        assert [event_key(e) for e in events] == [
            event_key(e) for e in oracle.drain()
        ]


def stats_with_p99(tick_ms: float, n_ticks: int = 100) -> ServiceStats:
    """ServiceStats whose every recorded tick took ``tick_ms``."""
    stats = ServiceStats(capacity=max(n_ticks, 1))
    for _ in range(n_ticks):
        stats.record(tick_ms, 4)
    return stats


class TestSuggestShardCount:
    """The pure shard-count policy over shard_stats() snapshots.

    Budget at the paper's 30 Hz: 33.3 ms per frame; default watermarks
    are 50% (scale up above ~16.7 ms p99) and 10% (scale down below
    ~3.3 ms p99).
    """

    def test_in_band_load_keeps_current_count(self):
        stats = {i: stats_with_p99(8.0) for i in range(4)}
        assert suggest_shard_count(stats) == 4

    def test_hot_fleet_scales_up_proportionally(self):
        # Busiest shard at 2x the high watermark -> double the fleet.
        stats = {0: stats_with_p99(33.3), 1: stats_with_p99(10.0)}
        assert suggest_shard_count(stats) == 4

    def test_scale_up_driven_by_busiest_shard_only(self):
        # Hash skew: one hot shard forces growth even if others idle.
        stats = {i: stats_with_p99(0.5) for i in range(3)}
        stats[3] = stats_with_p99(50.0)
        assert suggest_shard_count(stats) > 4

    def test_cold_fleet_scales_down_with_hysteresis(self):
        # Far below the low watermark: consolidate, but the projected
        # busiest p99 must stay under half the high watermark.
        stats = {i: stats_with_p99(0.8) for i in range(8)}
        suggested = suggest_shard_count(stats)
        assert suggested < 8
        projected = 0.8 * 8 / suggested
        assert projected <= 0.5 * 0.5 * (1000.0 / 30.0)

    def test_idle_fleet_collapses_to_min_shards(self):
        stats = {i: ServiceStats(capacity=4) for i in range(6)}
        assert suggest_shard_count(stats) == 1
        assert suggest_shard_count(stats, min_shards=2) == 2
        assert suggest_shard_count({0: ServiceStats(capacity=4)}) == 1

    def test_scale_down_never_triggers_next_scale_up(self):
        # Property: applying the suggestion to a cold fleet never lands
        # in the scale-up region under the linear-consolidation model.
        for p99 in (0.1, 0.5, 1.0, 2.0, 3.0):
            for k in (2, 4, 8, 16):
                stats = {i: stats_with_p99(p99) for i in range(k)}
                suggested = suggest_shard_count(stats)
                if suggested < k:
                    projected = {
                        i: stats_with_p99(p99 * k / suggested)
                        for i in range(suggested)
                    }
                    assert suggest_shard_count(projected) <= k

    def test_respects_max_shards_and_empty_input(self):
        hot = {0: stats_with_p99(200.0)}
        assert suggest_shard_count(hot, max_shards=3) == 3
        assert suggest_shard_count({}) == 1
        assert suggest_shard_count({}, min_shards=4) == 4

    def test_invalid_arguments_rejected(self):
        stats = {0: stats_with_p99(5.0)}
        with pytest.raises(ConfigurationError):
            suggest_shard_count(stats, low_watermark=0.6, high_watermark=0.5)
        with pytest.raises(ConfigurationError):
            suggest_shard_count(stats, frame_interval_ms=0.0)
        with pytest.raises(ConfigurationError):
            suggest_shard_count(stats, min_shards=0)
        with pytest.raises(ConfigurationError):
            suggest_shard_count(stats, min_shards=4, max_shards=2)

    def test_accepts_live_shard_stats(self, monitor):
        """The function consumes a real shard_stats() snapshot as-is."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4
        ) as service:
            sid = service.open_session("proc")
            service.feed(
                sid,
                make_random_walk_trajectory(
                    20, n_features=N_FEATURES, seed=990
                ).frames,
            )
            service.drain(collect=False)
            suggested = suggest_shard_count(service.shard_stats())
            assert 1 <= suggested  # tiny synthetic load: any sane count


class TestAsyncShardStats:
    def test_shard_stats_coroutine_matches_sync_surface(self, monitor):
        """AsyncShardedMonitor.shard_stats polls each worker under its
        pipe lock and returns the same per-shard view."""

        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(service, discard) as frontend:
                    sid = await frontend.open_session("proc")
                    await frontend.feed(
                        sid,
                        make_random_walk_trajectory(
                            15, n_features=N_FEATURES, seed=991
                        ).frames,
                    )
                    await frontend.drain()
                    stats = await frontend.shard_stats()
                    return {
                        i: (s.n_ticks, s.frames_processed)
                        for i, s in stats.items()
                    }

        per_shard = asyncio.run(run())
        assert set(per_shard) == {0, 1}
        assert sum(frames for _, frames in per_shard.values()) == 15


class TestConstruction:
    def test_rejects_bad_arguments(self, monitor):
        with pytest.raises(ConfigurationError):
            ShardedMonitorService(monitor, n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedMonitorService(monitor, n_shards=1, max_sessions_per_shard=0)
        with pytest.raises(ConfigurationError):
            ShardedMonitorService()  # neither monitor nor bytes
        with pytest.raises(ConfigurationError):
            ShardedMonitorService(monitor, monitor_bytes=b"xx")  # both

    def test_bootstrap_from_snapshot_bytes(self, monitor):
        """A service built from a pre-serialised snapshot behaves like one
        built from the live monitor."""
        from repro.serving import monitor_to_bytes

        blob = monitor_to_bytes(monitor)
        trajectory = make_random_walk_trajectory(
            20, n_features=N_FEATURES, seed=900
        )
        with ShardedMonitorService(
            monitor_bytes=blob, n_shards=1, max_sessions_per_shard=2
        ) as service:
            session_id = service.open_session()
            service.feed(session_id, trajectory.frames)
            service.drain(collect=False)
            result = service.close_session(session_id)
        gestures = [g for _, g, _, _ in monitor.stream(trajectory)]
        assert np.array_equal(result.gestures, np.asarray(gestures))
