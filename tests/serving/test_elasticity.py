"""Tests for live fleet elasticity: session migration, add/remove/resize.

The tentpole invariant: a fleet resized mid-stream (K=2→4→1) emits an
event stream **bit-identical, order included,** to a static single
:class:`MonitorService` under the reference backend (the compiled
backend matches gestures/flags/order exactly and scores within its
documented ``atol=1e-6``, exactly like the pre-existing K>=2 parity
matrix).  Plus the building blocks: session export/import on the core
engine, the npz session codec, minimal-slice rebalancing on
``add_shard``, the last-shard guard, capacity pre-checks and the
asyncio ``resize``.
"""

import asyncio
import dataclasses
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, DatasetError, ShapeError, WorkerError
from repro.serving import (
    AsyncShardedMonitor,
    MonitorService,
    ShardedMonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
    session_from_bytes,
    session_to_bytes,
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


def loose_key(event):
    return (event.session_id, event.frame_index, event.gesture, event.flag)


def static_streams(monitor, fleet):
    """Each session's event keys on one static ``MonitorService``."""
    static = MonitorService(monitor, max_sessions=len(fleet))
    for session_id, trajectory in fleet.items():
        static.open_session(session_id)
        static.feed(session_id, trajectory.frames)
    events = static.drain()
    return {
        sid: [event_key(e) for e in events if e.session_id == sid] for sid in fleet
    }


class TestSessionExportImport:
    """MonitorService.export_session / import_session, in process."""

    def test_export_import_resumes_bit_identically(self, monitor):
        trajectory = make_random_walk_trajectory(
            50, n_features=N_FEATURES, seed=10
        )
        reference = MonitorService(monitor, max_sessions=4)
        reference.open_session("s")
        reference.feed("s", trajectory.frames)
        ref_events = reference.drain()
        ref_result = reference.close_session("s")

        source = MonitorService(monitor, max_sessions=4)
        source.open_session("s")
        source.feed("s", trajectory.frames)
        events = []
        for _ in range(23):
            events += source.tick()
        state = source.export_session("s", remove=True)
        assert state.pending_frames == 50 - 23
        target = MonitorService(monitor, max_sessions=4)
        target.import_session(state)
        events += target.drain()
        result = target.close_session("s")

        assert [event_key(e) for e in events] == [
            event_key(e) for e in ref_events
        ]
        assert np.array_equal(result.gestures, ref_result.gestures)
        assert np.array_equal(result.unsafe_scores, ref_result.unsafe_scores)
        assert np.array_equal(result.unsafe_flags, ref_result.unsafe_flags)

    def test_export_without_remove_is_a_consistent_copy(self, monitor):
        trajectory = make_random_walk_trajectory(
            30, n_features=N_FEATURES, seed=11
        )
        service = MonitorService(monitor, max_sessions=4)
        service.open_session("s")
        service.feed("s", trajectory.frames)
        for _ in range(10):
            service.tick()
        state = service.export_session("s")
        # The source keeps serving, unaffected by the copy...
        source_events = service.drain()
        # ...and a clone resumed from the copy produces the same tail.
        clone = MonitorService(monitor, max_sessions=4)
        clone.import_session(state)
        clone_events = clone.drain()
        assert [event_key(e) for e in clone_events] == [
            event_key(e) for e in source_events
        ]

    def test_export_remove_frees_the_slot(self, monitor):
        service = MonitorService(monitor, max_sessions=1)
        service.open_session("a")
        service.feed("a", np.zeros((3, N_FEATURES)))
        service.export_session("a", remove=True)
        with pytest.raises(DatasetError):
            service.feed("a", np.zeros((1, N_FEATURES)))
        service.open_session("b")  # the slot is reusable immediately

    def test_never_fed_session_migrates(self, monitor):
        source = MonitorService(monitor, max_sessions=2)
        source.open_session("idle")
        state = source.export_session("idle", remove=True)
        assert state.recent.shape == state.pending.shape == (0, 0)
        target = MonitorService(monitor, max_sessions=2)
        target.import_session(state)
        trajectory = make_random_walk_trajectory(
            12, n_features=N_FEATURES, seed=12
        )
        target.feed("idle", trajectory.frames)
        result_events = target.drain()
        assert [e.frame_index for e in result_events] == list(range(12))

    def test_record_timeline_false_is_preserved(self, monitor):
        source = MonitorService(monitor, max_sessions=2)
        source.open_session("s", record_timeline=False)
        source.feed("s", np.zeros((8, N_FEATURES)))
        for _ in range(3):
            source.tick()
        state = source.export_session("s", remove=True)
        assert not state.record_timeline
        assert state.gestures.size == 0
        target = MonitorService(monitor, max_sessions=2)
        target.import_session(state)
        target.drain()
        assert target.close_session("s").n_frames == 0

    def test_export_unknown_session_raises(self, monitor):
        service = MonitorService(monitor, max_sessions=2)
        with pytest.raises(DatasetError):
            service.export_session("ghost")

    def test_import_duplicate_and_full_service_rejected(self, monitor):
        source = MonitorService(monitor, max_sessions=2)
        source.open_session("s")
        source.feed("s", np.zeros((2, N_FEATURES)))
        state = source.export_session("s")
        with pytest.raises(ConfigurationError, match="already open"):
            source.import_session(state)
        full = MonitorService(monitor, max_sessions=1)
        full.open_session("other")
        with pytest.raises(ConfigurationError, match="slots"):
            full.import_session(state)

    def test_import_mismatched_width_rejected(self):
        narrow = make_synthetic_monitor(n_features=4, seed=1)
        source = MonitorService(narrow, max_sessions=2)
        source.open_session("s")
        source.feed("s", np.zeros((6, 4)))
        state = source.export_session("s", remove=True)
        wide = MonitorService(
            make_synthetic_monitor(n_features=6, seed=1), max_sessions=2
        )
        with pytest.raises(ShapeError):
            wide.import_session(state)
        # The failed import must leave no half-opened session behind.
        assert wide.n_open_sessions == 0
        wide.open_session("fresh")

    @staticmethod
    def hostile(state, fault):
        """One archive no service may adopt, per way of being wrong."""
        if fault in ("pending", "recent"):
            frames = getattr(state, fault).copy()
            frames[1, 3] = {"pending": np.nan, "recent": -np.inf}[fault]
            return dataclasses.replace(state, **{fault: frames}), DatasetError
        if fault == "score":
            return dataclasses.replace(state, current_score=np.nan), DatasetError
        if fault == "short":  # a position its frames do not cover
            return dataclasses.replace(state, recent=state.recent[1:]), ShapeError
        if fault == "flat":
            return dataclasses.replace(state, recent=state.recent.ravel()), ShapeError
        assert fault == "behind"
        return dataclasses.replace(state, frames_done=-1), ShapeError

    HOSTILE = ["pending", "recent", "score", "short", "flat", "behind"]

    def midstream_state(self, monitor, session_id="s"):
        source = MonitorService(monitor, max_sessions=2)
        source.open_session(session_id)
        source.feed(session_id, self.FRAMES)
        for _ in range(20):
            source.tick()
        return source.export_session(session_id, remove=True)

    FRAMES = make_random_walk_trajectory(30, n_features=N_FEATURES, seed=14).frames

    @pytest.mark.parametrize("fault", HOSTILE)
    def test_hostile_archive_is_refused_whole(self, monitor, fault):
        """``import_session`` is an ingress like ``feed``: one NaN among
        the pending frames used to be adopted and served as
        ``score=nan, flag=False`` for a window's worth of frames — the
        silent-safe verdict.  Refused before a slot is taken."""
        state = self.midstream_state(monitor)
        bad, error = self.hostile(state, fault)
        target = MonitorService(monitor, max_sessions=1)
        with pytest.raises(error):
            target.import_session(bad)
        assert target.n_open_sessions == 0
        target.import_session(state)  # the one slot is still free
        events = target.drain()
        assert [e.frame_index for e in events] == list(range(20, 30))
        assert all(np.isfinite(e.score) for e in events)

    @pytest.mark.parametrize("fault", ["pending", "short"])
    def test_hostile_archive_gets_a_typed_reply_from_a_worker(self, monitor, fault):
        """Through the fleet the refusal is the caller's typed error; the
        worker it landed on keeps serving, and takes the honest archive."""
        state = self.midstream_state(monitor, "h")
        bad, error = self.hostile(state, fault)
        with ShardedMonitorService(monitor, n_shards=2) as service:
            service.open_session("bystander")
            with pytest.raises(error):
                service.import_session(session_to_bytes(bad))
            assert service.session_ids == ["bystander"]
            assert not service.failed_sessions and service.n_shards == 2
            assert service.import_session(session_to_bytes(state)) == "h"
            events = service.drain()
        assert [e.frame_index for e in events] == list(range(20, 30))
        assert not any(e.error for e in events)


class TestSessionCodec:
    """session_to_bytes / session_from_bytes round trips."""

    def test_round_trip_preserves_every_field(self, monitor):
        service = MonitorService(monitor, max_sessions=4)
        service.open_session("codec")
        service.feed(
            "codec",
            make_random_walk_trajectory(
                20, n_features=N_FEATURES, seed=13
            ).frames,
        )
        for _ in range(9):
            service.tick()
        state = service.export_session("codec")
        restored = session_from_bytes(session_to_bytes(state))
        assert restored.session_id == state.session_id
        assert restored.frames_done == state.frames_done
        assert restored.record_timeline == state.record_timeline
        assert restored.current_gesture == state.current_gesture
        assert restored.current_score == state.current_score
        assert np.array_equal(restored.gestures, state.gestures)
        assert np.array_equal(restored.scores, state.scores)
        assert np.array_equal(restored.pending, state.pending)
        assert np.array_equal(restored.recent, state.recent)
        assert restored.recent.shape == (5, N_FEATURES)

    @pytest.mark.parametrize("version", [1, 99])
    def test_foreign_version_rejected(self, monitor, version):
        """Version 1 (paired window rings) included: session archives
        never rest on disk, so there is no reader for an older one."""
        import io
        import json

        service = MonitorService(monitor, max_sessions=2)
        service.open_session("s")
        blob = session_to_bytes(service.export_session("s"))
        with np.load(io.BytesIO(blob)) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        meta["version"] = version
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ).copy()
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        with pytest.raises(ConfigurationError, match="version"):
            session_from_bytes(buffer.getvalue())


class TestResizeParity:
    """The headline guarantee: resize mid-stream changes nothing."""

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_resize_2_4_1_matches_static_service(self, monitor, backend):
        fleet = make_fleet(8, base_seed=700, frames=45, step=3)
        static = MonitorService(monitor, max_sessions=8, backend=backend)
        for session_id, trajectory in fleet.items():
            static.open_session(session_id)
            static.feed(session_id, trajectory.frames)
        static_events = static.drain()
        static_results = {sid: static.close_session(sid) for sid in fleet}

        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=16, backend=backend
        ) as service:
            for session_id, trajectory in fleet.items():
                service.open_session(session_id)
                service.feed(session_id, trajectory.frames)
            events = []
            for _ in range(12):
                events += service.tick()
            up = service.resize(4)
            assert (up["from"], up["to"]) == (2, 4)
            assert service.n_shards == 4
            for _ in range(12):
                events += service.tick()
            down = service.resize(1)
            assert (down["from"], down["to"]) == (4, 1)
            assert service.n_shards == 1
            events += service.drain()
            assert not service.failed_sessions
            results = {sid: service.close_session(sid) for sid in fleet}

        if backend == "reference":
            # Bit-identical, order included — migration moved the exact
            # ring contents, pending frames and sticky context.
            assert [event_key(e) for e in events] == [
                event_key(e) for e in static_events
            ]
            for sid in fleet:
                assert np.array_equal(
                    results[sid].unsafe_scores,
                    static_results[sid].unsafe_scores,
                )
                assert np.array_equal(
                    results[sid].gestures, static_results[sid].gestures
                )
        else:
            # Compiled scores depend on batch composition (documented
            # atol=1e-6 contract); everything discrete stays exact.
            assert [loose_key(e) for e in events] == [
                loose_key(e) for e in static_events
            ]
            np.testing.assert_allclose(
                [e.score for e in events],
                [e.score for e in static_events],
                atol=1e-6,
            )

    def test_resize_with_interleaved_feeds(self, monitor):
        """Frames fed *between* resizes (to sessions that migrated) keep
        flowing to the right worker and the right ring state."""
        trajectory = make_random_walk_trajectory(
            60, n_features=N_FEATURES, seed=720
        )
        expected = []
        for _, gesture, score, _ in monitor.stream(trajectory):
            expected.append((gesture, score))
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            service.open_session("theatre")
            chunks = np.array_split(trajectory.frames, 4)
            collected = []
            for k, chunk in enumerate(chunks):
                service.feed("theatre", chunk)
                collected += service.tick()  # leave a backlog mid-flight
                service.resize(4 if k % 2 == 0 else 2)
            collected += service.drain()
            result = service.close_session("theatre")
        assert [e.frame_index for e in collected] == list(range(60))
        assert [(e.gesture, e.score) for e in collected] == expected
        assert np.array_equal(
            result.unsafe_scores, np.asarray([s for _, s in expected])
        )


class TestElasticShardLifecycle:
    def test_add_shard_moves_only_the_minimal_slice(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=32
        ) as service:
            sids = [service.open_session(f"slice-{i}") for i in range(16)]
            before = {sid: service.shard_of(sid) for sid in sids}
            new_index = service.add_shard()
            assert new_index == 2  # indices are never reused
            assert service.n_shards == 3
            moved = 0
            for sid in sids:
                after = service.shard_of(sid)
                if after != before[sid]:
                    # Consistent hashing: a placement only ever moves to
                    # the *new* shard, never between survivors.
                    assert after == new_index
                    moved += 1
            assert 0 < moved < len(sids)

    def test_remove_last_shard_raises_worker_error(self, monitor):
        """Regression: a zero-shard service must be unreachable — the
        last live shard refuses removal with a WorkerError-family error
        and keeps serving."""
        with ShardedMonitorService(
            monitor, n_shards=1, max_sessions_per_shard=4
        ) as service:
            sid = service.open_session("only")
            service.feed(sid, np.zeros((3, N_FEATURES)))
            with pytest.raises(WorkerError, match="last live shard"):
                service.remove_shard(0)
            # Still fully alive and serving.
            assert service.n_shards == 1
            assert len(service.drain()) == 3
            assert service.close_session(sid).n_frames == 3

    def test_resize_validates_target(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=1, max_sessions_per_shard=2
        ) as service:
            with pytest.raises(ConfigurationError):
                service.resize(0)
            summary = service.resize(1)  # no-op resize is fine
            assert summary["migrated"] == 0
            assert summary["added"] == [] and summary["removed"] == []

    def test_remove_shard_full_target_rejected_and_recovers(self, monitor):
        """A scale-down that cannot fit raises before any state is lost:
        the ring is restored and every session keeps serving."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=2
        ) as service:
            opened = []
            i = 0
            # Fill both shards to capacity (placement is by hash, so
            # probe ids until every slot is taken).
            while len(opened) < 4 and i < 200:
                try:
                    opened.append(service.open_session(f"fill-{i}"))
                except ConfigurationError:
                    pass
                i += 1
            assert len(opened) == 4, "could not fill both shards"
            for sid in opened:
                service.feed(sid, np.zeros((2, N_FEATURES)))
            victim = service.shard_of(opened[0])
            with pytest.raises(ConfigurationError, match="full"):
                service.remove_shard(victim)
            # The shard is still serving and placements still work.
            assert victim in service.shard_indices
            assert service.n_open_sessions == 4
            assert len(service.drain()) == 8
            assert not service.failed_sessions

    def test_remove_shard_whose_source_dies_mid_batch(self, monitor):
        """The move loop's failure rule for a dead source: the session in
        flight and every later one fail safe through the crash path, and
        no exchange is spent on the later ones."""
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=16
        ) as service:
            for i in range(12):
                service.open_session(f"leave-{i}")
            source, survivor = service.shard_indices
            leaving = service.sessions_on(source)
            assert len(leaving) >= 3
            tallies = count_exchanges(service)
            handle = service._shards[source]

            def send(request, _send=handle.send):
                if request.op == "migrate_out" and request.session_id == leaving[1]:
                    kill_worker(service, source)
                return _send(request)

            handle.send = send
            moved = service.remove_shard(source)
            assert moved == {leaving[0]: survivor}
            # Two exports (the second to a dead worker), then nothing.
            assert tallies[source]["sent"] == 2
            assert tallies[survivor]["sent"] == 1
            terminals = service.take_undelivered_events()
            assert sorted(e.session_id for e in terminals) == sorted(leaving[1:])
            assert all(e.flag and e.error for e in terminals)
            assert service.shard_indices == [survivor]
            assert service.shard_of(leaving[0]) == survivor

    def test_retiring_a_shard_polls_it_once(self, monitor):
        """A retiring shard's counters, samples and registry come back in
        one ``stats`` exchange before its ``stop``, and the fleet keeps
        all three."""
        fleet = make_fleet(6, frames=20, step=0)
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8
        ) as service:
            for sid, trajectory in fleet.items():
                service.open_session(sid)
                service.feed(sid, trajectory.frames)
            service.drain()
            victim = service.shard_of("proc-0")
            for sid in service.sessions_on(victim):
                service.close_session(sid)  # nothing left to move
            retired = service.stats_of(victim)
            tallies = count_exchanges(service)
            assert service.remove_shard(victim) == {}
            assert tallies[victim]["ops"] == ["stats", "stop"]
            stats = service.stats()
            counters = service.telemetry_snapshot()["counters"]
        assert retired.frames_processed > 0
        assert stats.frames_processed == counters["events_emitted"] == 120
        assert retired.telemetry.snapshot()["counters"]["events_emitted"] == (
            retired.frames_processed
        )

    def test_add_shard_onto_a_full_new_shard_keeps_it_serving(
        self, monitor, crowded_pair
    ):
        """A full target ends the batch with its error, and what moved
        stays moved: the new shard is live, in the ring and serving."""
        first, second = crowded_pair
        fleet = {
            sid: make_random_walk_trajectory(20, n_features=N_FEATURES, seed=740 + i)
            for i, sid in enumerate(crowded_pair)
        }
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=1
        ) as service:
            for sid, trajectory in fleet.items():
                service.open_session(sid)
                service.feed(sid, trajectory.frames)
            home = service.shard_of(second)
            with pytest.raises(ConfigurationError, match="shard 2 is full"):
                service.add_shard()
            assert service.shard_indices == [0, 1, 2]
            assert service._ring.place(second) == 2
            assert (service.shard_of(first), service.shard_of(second)) == (2, home)
            events = service.drain()
            assert not service.failed_sessions
        assert {
            sid: [event_key(e) for e in events if e.session_id == sid] for sid in fleet
        } == static_streams(monitor, fleet)

    def test_resize_is_rejected_after_close(self, monitor):
        service = ShardedMonitorService(
            monitor, n_shards=1, max_sessions_per_shard=2
        )
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.resize(2)
        with pytest.raises(ConfigurationError, match="closed"):
            service.add_shard()


class TestAsyncResize:
    def test_session_rides_through_resize(self, monitor):
        trajectory = make_random_walk_trajectory(
            45, n_features=N_FEATURES, seed=730
        )

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=8
            ) as service:
                async with AsyncShardedMonitor(service, batches.append) as frontend:
                    sid = await frontend.open_session("ride")
                    chunks = np.array_split(trajectory.frames, 3)
                    await frontend.feed(sid, chunks[0])

                    async def pump(n):
                        deadline = time.monotonic() + 30.0
                        while sum(map(len, batches)) < n:
                            assert time.monotonic() < deadline
                            await asyncio.sleep(0.005)

                    await pump(5)
                    summary = await frontend.resize(4)
                    assert frontend.n_shards == 4
                    await frontend.feed(sid, chunks[1])
                    await pump(20)
                    await frontend.resize(1)
                    assert frontend.n_shards == 1
                    await frontend.feed(sid, chunks[2])
                    await pump(45)
                    result = await frontend.close_session(sid)
                    return [e for batch in batches for e in batch], result, summary

        collected, result, summary = asyncio.run(run())
        assert summary["from"] == 2 and summary["to"] == 4
        assert [e.frame_index for e in collected] == list(range(45))
        gestures, scores = [], []
        for _, gesture, score, _ in monitor.stream(trajectory):
            gestures.append(gesture)
            scores.append(score)
        assert [e.gesture for e in collected] == gestures
        assert [e.score for e in collected] == scores
        assert np.array_equal(result.unsafe_scores, np.asarray(scores))

    def test_refused_resize_still_ticks_every_shard(self, monitor, crowded_pair):
        """A resize refused part-way still reconciles the tickers: the
        shard it added is ticked, so ``drain()`` returns and every
        session gets one event per frame, bit-identical to a static
        service."""
        first, _ = crowded_pair
        fleet = {
            sid: make_random_walk_trajectory(20, n_features=N_FEATURES, seed=750 + i)
            for i, sid in enumerate(crowded_pair)
        }

        async def run():
            batches = []
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=1
            ) as service:
                async with AsyncShardedMonitor(service, batches.append) as frontend:
                    for sid in fleet:
                        await frontend.open_session(sid)
                    with pytest.raises(ConfigurationError, match="full"):
                        await frontend.resize(3)
                    assert service.shard_of(first) == 2
                    assert frontend.n_shards == 3
                    for sid, trajectory in fleet.items():
                        await frontend.feed(sid, trajectory.frames)
                    await asyncio.wait_for(frontend.drain(), 10.0)
                    return [e for batch in batches for e in batch]

        events = asyncio.run(run())
        assert {
            sid: [event_key(e) for e in events if e.session_id == sid] for sid in fleet
        } == static_streams(monitor, fleet)
