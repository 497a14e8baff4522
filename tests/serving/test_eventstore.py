"""Tests for the durable event store, telemetry plane and analytics.

Covers the observability tentpole's contracts:

- the segmented append-only log: rotation at the size cap, truncated
  tail recovery (a torn write never hides earlier records), refusal of
  foreign schema versions, bounded-ring drop counting;
- exactly-once tee + bit-identical replay under a sharded fleet with
  kill and resize faults injected (the tier-1 miniature of the chaos
  gate);
- the telemetry registry threaded service → sharded router, including
  the resize-proof cumulative counters and monotonic uptime;
- analytics queries and JSON/CSV export over a stored log.
"""

import json
import os
import signal
import struct
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.serving import (
    EventStoreReader,
    EventStoreWriter,
    MonitorService,
    SessionEvent,
    ShardedMonitorService,
    TelemetryRegistry,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)
from repro.serving.analytics import (
    alert_latency_summary,
    error_rates_by_gesture,
    export_events_csv,
    export_report_json,
    failsafe_summary,
    fleet_report,
)
from repro.serving.eventstore import EVENTSTORE_VERSION, SEGMENT_MAGIC

N_FEATURES = 10


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=N_FEATURES, seed=0)


def make_event(i, sid="proc-0", error=None, flag=False, latency_us=0.0):
    return SessionEvent(
        session_id=sid,
        frame_index=i,
        gesture=i % 3,
        score=0.125 * i,
        flag=flag,
        error=error,
        latency_us=latency_us,
    )


def event_key(event):
    return (
        event.session_id,
        event.frame_index,
        event.gesture,
        event.score,
        event.flag,
        event.error,
    )


class TestSegmentedLog:
    def test_round_trip_preserves_every_field_bit_exactly(self, tmp_path):
        # Scores chosen to be non-representable in decimal: only a
        # bit-exact raw-f64 encoding round-trips them.
        events = [
            SessionEvent(
                session_id=f"s-{i % 2}",
                frame_index=i,
                gesture=-1 if i == 3 else i,
                score=float(np.float64(1.0) / 3.0) * i,
                flag=bool(i % 2),
                error="worker died" if i == 4 else None,
                latency_us=17.25 * i,
            )
            for i in range(5)
        ]
        with EventStoreWriter(tmp_path / "log", fsync="always") as writer:
            assert writer.append_batch(events, shard=3) == 5
        reader = EventStoreReader(tmp_path / "log")
        records = list(reader.iter_records())
        assert [r.shard for r in records] == [3] * 5
        assert [r.seq for r in records] == list(range(5))
        got = list(reader.replay())
        assert got == events  # dataclass equality: every compared field
        assert [e.latency_us for e in got] == [e.latency_us for e in events]
        assert [e.error for e in got] == [e.error for e in events]
        assert reader.session_ids() == ["s-0", "s-1"]
        assert [e.frame_index for e in reader.session_timeline("s-1")] == [1, 3]

    def test_rotation_at_segment_size_cap(self, tmp_path):
        with EventStoreWriter(
            tmp_path / "log", segment_bytes=512, fsync="never"
        ) as writer:
            for i in range(200):
                assert writer.append(make_event(i))
        reader = EventStoreReader(tmp_path / "log")
        segments = reader.segments()
        assert len(segments) > 1, "512-byte cap must rotate"
        assert [p.name for p in segments] == sorted(p.name for p in segments)
        # Rotation must not lose, duplicate or reorder anything.
        assert [e.frame_index for e in reader.replay()] == list(range(200))

    def test_reopen_continues_segment_numbering(self, tmp_path):
        root = tmp_path / "log"
        with EventStoreWriter(root, segment_bytes=512, fsync="never") as w:
            for i in range(100):
                w.append(make_event(i))
        n_before = len(EventStoreReader(root).segments())
        with EventStoreWriter(root, segment_bytes=512, fsync="never") as w:
            for i in range(100, 150):
                w.append(make_event(i))
        reader = EventStoreReader(root)
        # A reopened writer never appends to the old tail segment.
        assert len(reader.segments()) > n_before
        assert [e.frame_index for e in reader.replay()] == list(range(150))

    def test_truncated_tail_recovers_cleanly(self, tmp_path):
        root = tmp_path / "log"
        with EventStoreWriter(root, fsync="always") as writer:
            for i in range(10):
                writer.append(make_event(i))
        (segment,) = EventStoreReader(root).segments()
        # Tear the last record mid-payload — a crash between write()
        # and the next fsync leaves exactly this shape on disk.
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])
        recovered = list(EventStoreReader(root).replay())
        assert [e.frame_index for e in recovered] == list(range(9))
        # A fresh writer then rotates past the torn tail and the log
        # keeps growing without touching the recovered prefix.
        with EventStoreWriter(root, fsync="always") as writer:
            writer.append(make_event(99))
        assert [e.frame_index for e in EventStoreReader(root).replay()] == [
            *range(9),
            99,
        ]

    def test_foreign_version_refused(self, tmp_path):
        root = tmp_path / "log"
        root.mkdir()
        (root / "events-00000000.seg").write_bytes(
            struct.pack("<8sHH", SEGMENT_MAGIC, EVENTSTORE_VERSION + 1, 0)
        )
        with pytest.raises(ProtocolError, match="version"):
            list(EventStoreReader(root).iter_records())

    def test_foreign_magic_refused(self, tmp_path):
        root = tmp_path / "log"
        root.mkdir()
        (root / "events-00000000.seg").write_bytes(b"NOTALOG!" + b"\x00" * 4)
        with pytest.raises(ProtocolError):
            list(EventStoreReader(root).iter_records())

    def test_full_ring_is_a_counted_drop_not_a_stall(self, tmp_path):
        writer = EventStoreWriter(
            tmp_path / "log", ring_capacity=8, fsync="never"
        )
        # Park the flusher so the ring genuinely fills.
        writer._wake.clear()
        with writer._io_lock:
            accepted = sum(writer.append(make_event(i)) for i in range(32))
        assert accepted == 8
        assert writer.dropped_total == 24
        writer.close()
        assert writer.stats()["dropped"] == 24
        assert len(list(EventStoreReader(tmp_path / "log").replay())) == 8

    def test_marker_round_trip(self, tmp_path):
        with EventStoreWriter(tmp_path / "log", fsync="never") as writer:
            writer.append(make_event(0))
            writer.append_marker("resize", {"from": 2, "to": 4})
            writer.append(make_event(1))
        reader = EventStoreReader(tmp_path / "log")
        markers = list(reader.iter_markers())
        assert markers == [{"type": "resize", "from": 2, "to": 4}]
        # Markers interleave in append order but never pollute replay().
        assert [r.kind for r in reader.iter_records()] == [
            "event", "marker", "event",
        ]
        assert [e.frame_index for e in reader.replay()] == [0, 1]

    def test_invalid_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EventStoreWriter(tmp_path / "log", fsync="sometimes")

    def test_concurrent_writers_interleave_without_loss(self, tmp_path):
        writer = EventStoreWriter(tmp_path / "log", fsync="never")
        n_threads, per_thread = 8, 200

        def blast(k):
            for i in range(per_thread):
                writer.append(make_event(i, sid=f"writer-{k}"), shard=k)

        threads = [
            threading.Thread(target=blast, args=(k,))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writer.close()
        assert writer.stats()["dropped"] == 0
        reader = EventStoreReader(tmp_path / "log")
        records = list(reader.iter_records())
        assert len(records) == n_threads * per_thread
        # seq is the global append order: dense, strictly increasing.
        assert [r.seq for r in records] == list(range(len(records)))
        for k in range(n_threads):
            timeline = reader.session_timeline(f"writer-{k}")
            assert [e.frame_index for e in timeline] == list(range(per_thread))


class TestServiceTee:
    def test_local_service_tees_every_event(self, monitor, tmp_path):
        store = EventStoreWriter(tmp_path / "log", fsync="never")
        service = MonitorService(monitor, max_sessions=4, event_store=store)
        fleet = {
            f"proc-{i}": make_random_walk_trajectory(
                30 + i, n_features=N_FEATURES, seed=40 + i
            )
            for i in range(3)
        }
        for sid, trajectory in fleet.items():
            service.open_session(sid)
            service.feed(sid, trajectory.frames)
        live = service.drain()
        store.close()
        reader = EventStoreReader(tmp_path / "log")
        assert [event_key(e) for e in reader.replay()] == [
            event_key(e) for e in live
        ]
        # Ingest→emission latency rides along on both sides of the tee.
        assert all(e.latency_us > 0 for e in reader.replay())
        snap = service.telemetry.snapshot()
        assert snap["counters"]["events_emitted"] == len(live)
        assert snap["histograms"]["alert_latency_us"]["count"] == len(live)

    def test_sharded_kill_resize_campaign_replays_bit_identical(
        self, monitor, tmp_path
    ):
        """Tier-1 miniature of the chaos gate: a K-shard fleet takes a
        resize and a SIGKILL mid-stream; the on-disk log must replay
        each session's event stream — crash events included — exactly
        as the live drain delivered it."""
        store = EventStoreWriter(tmp_path / "log", fsync="never")
        fleet = {
            f"proc-{i}": make_random_walk_trajectory(
                24, n_features=N_FEATURES, seed=700 + i
            )
            for i in range(8)
        }
        live = []
        with ShardedMonitorService(
            monitor,
            n_shards=3,
            max_sessions_per_shard=8,
            event_store=store,
        ) as service:
            for sid, trajectory in fleet.items():
                service.open_session(sid)
                service.feed(sid, trajectory.frames[:12])
            live += service.drain()
            summary = service.resize(4)
            for sid, trajectory in fleet.items():
                service.feed(sid, trajectory.frames[12:])
            for _ in range(4):
                live += service.tick()
            placement = {sid: service.shard_of(sid) for sid in fleet}
            victim = placement[next(iter(fleet))]
            os.kill(service._shards[victim].process.pid, signal.SIGKILL)
            service._shards[victim].process.join(10.0)
            live += service.drain()
        store.close()
        assert store.stats()["dropped"] == 0

        reader = EventStoreReader(tmp_path / "log")
        logged = {sid: [] for sid in fleet}
        for event in reader.replay():
            logged[event.session_id].append(event)
        by_sid = {sid: [] for sid in fleet}
        for event in live:
            by_sid[event.session_id].append(event)
        for sid in fleet:
            assert [event_key(e) for e in logged[sid]] == [
                event_key(e) for e in by_sid[sid]
            ], f"store diverges from live stream for {sid}"
        # The injected faults are all on the record: a resize marker
        # and at least one terminal crash event.
        markers = list(reader.iter_markers())
        assert [m["type"] for m in markers] == ["resize"]
        assert markers[0]["to"] == summary["to"] == 4
        assert any(e.error is not None for e in reader.replay())


    def test_sharded_tee_writes_once_per_shard_tick(self, monitor, tmp_path):
        """The router's own tee batches like the gateway's: one
        ``append_batch`` per shard tick, tagged with that shard, and no
        per-event ``append`` at all."""
        store = EventStoreWriter(tmp_path / "log", fsync="never")
        singles, batches = [], []
        real_append, real_append_batch = store.append, store.append_batch

        def append(event, shard=-1):
            singles.append(event)
            return real_append(event, shard)

        def append_batch(events, shard=-1):
            events = list(events)
            batches.append((shard, [e.session_id for e in events]))
            return real_append_batch(events, shard)

        store.append, store.append_batch = append, append_batch
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8, event_store=store
        ) as service:
            for i in range(6):
                sid = service.open_session(f"proc-{i}")
                service.feed(sid, np.zeros((5, N_FEATURES)))
            on_shard = {
                index: service.sessions_on(index)
                for index in service.shard_indices
            }
            assert all(on_shard.values())
            live = [event for _ in range(5) for event in service.tick()]
        store.close()
        assert not singles
        assert sorted(batches) == sorted(list(on_shard.items()) * 5)
        replayed = list(EventStoreReader(tmp_path / "log").replay())
        assert sorted(map(event_key, replayed)) == sorted(map(event_key, live))


    def test_uncollected_drains_tee_alike(self, monitor, tmp_path):
        """``drain(collect=False)`` returns no live events at either layer,
        but both tee every one: one service's store and a K=2 fleet's
        replay equal per session."""
        fleet = {
            f"proc-{i}": make_random_walk_trajectory(
                20 + 3 * i, n_features=N_FEATURES, seed=760 + i
            )
            for i in range(6)
        }
        stores = {
            name: EventStoreWriter(tmp_path / name, fsync="never")
            for name in ("local", "sharded")
        }
        local = MonitorService(monitor, max_sessions=8, event_store=stores["local"])
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=8, event_store=stores["sharded"]
        ) as sharded:
            for service in (local, sharded):
                for sid, trajectory in fleet.items():
                    service.open_session(sid)
                    service.feed(sid, trajectory.frames[:12])
                assert service.drain(collect=False) == []
                for sid, trajectory in fleet.items():
                    service.feed(sid, trajectory.frames[12:])
                assert service.drain(collect=False) == []
        replayed = {}
        for name, store in stores.items():
            store.close()
            streams = replayed[name] = {}
            for event in EventStoreReader(tmp_path / name).replay():
                streams.setdefault(event.session_id, []).append(event_key(event))
        assert replayed["sharded"] == replayed["local"]
        assert {sid: len(keys) for sid, keys in replayed["local"].items()} == {
            sid: trajectory.n_frames for sid, trajectory in fleet.items()
        }


class TestTelemetry:
    def test_histogram_percentiles_and_merge(self):
        registry = TelemetryRegistry()
        hist = registry.histogram("lat")
        for v in [1.0, 2.0, 4.0, 1000.0]:
            hist.observe(v)
        assert hist.count == 4
        assert hist.mean() == pytest.approx(251.75)
        assert hist.percentile(50) <= hist.percentile(99)
        other = TelemetryRegistry()
        other.histogram("lat").observe(8.0)
        other.counter("n").inc(3)
        registry.merge(other.snapshot())
        snap = registry.snapshot()
        assert snap["histograms"]["lat"]["count"] == 5
        assert snap["counters"]["n"] == 3

    def test_negative_counter_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetryRegistry().counter("n").inc(-1)

    def test_service_stats_uptime_and_events_emitted(self, monitor):
        service = MonitorService(monitor, max_sessions=2)
        sid = service.open_session()
        service.feed(
            sid,
            make_random_walk_trajectory(
                12, n_features=N_FEATURES, seed=1
            ).frames,
        )
        service.drain()
        assert service.stats.events_emitted == 12
        assert service.stats.uptime_s > 0

    def test_sharded_counters_survive_resize(self, monitor):
        """The satellite fix: cumulative fleet counters must not reset
        when shards are retired — stats() folds retired shards into a
        baseline, so frames/events/uptime are monotonic across any
        resize schedule."""
        with ShardedMonitorService(
            monitor, n_shards=3, max_sessions_per_shard=8
        ) as service:
            for i in range(6):
                sid = service.open_session(f"proc-{i}")
                service.feed(
                    sid,
                    make_random_walk_trajectory(
                        20, n_features=N_FEATURES, seed=300 + i
                    ).frames,
                )
            service.drain()
            before = service.stats()
            uptime_before = before.uptime_s
            assert uptime_before > 0
            assert before.events_emitted == 120
            assert before.frames_processed == 120
            service.resize(1)  # retire two shards, migrating sessions
            after = service.stats()
            assert after.events_emitted >= before.events_emitted
            assert after.frames_processed >= before.frames_processed
            assert after.n_ticks >= before.n_ticks
            assert after.uptime_s >= uptime_before
            snap = service.telemetry_snapshot()
            assert snap["counters"]["events_delivered"] == 120
            assert snap["counters"]["resizes"] == 1
            # Per-worker registries folded in survive retirement too.
            assert snap["counters"]["events_emitted"] == 120


class TestAnalytics:
    def _stored(self, tmp_path):
        events = []
        for i in range(20):
            events.append(
                SessionEvent(
                    session_id=f"s-{i % 2}",
                    frame_index=i // 2,
                    gesture=i % 4,
                    score=0.1 * i,
                    flag=(i % 4 == 0),
                    latency_us=10.0 * (i + 1),
                )
            )
        events.append(
            SessionEvent(
                session_id="s-0",
                frame_index=10,
                gesture=0,
                score=0.0,
                flag=True,
                error="worker died",
            )
        )
        with EventStoreWriter(tmp_path / "log", fsync="never") as writer:
            for shard, event in enumerate(events):
                writer.append(event, shard=shard % 2)
        return EventStoreReader(tmp_path / "log")

    def test_error_rates_exclude_terminal_events(self, tmp_path):
        rates = error_rates_by_gesture(self._stored(tmp_path))
        assert set(rates) == {0, 1, 2, 3}
        assert rates[0] == {"events": 5, "flagged": 5, "rate": 1.0}
        assert rates[1]["flagged"] == 0

    def test_latency_and_failsafe_summaries(self, tmp_path):
        reader = self._stored(tmp_path)
        latency = alert_latency_summary(reader)
        assert latency["count"] == 20  # terminal event has no latency
        assert latency["p50_us"] <= latency["p99_us"] <= 200.0
        failsafe = failsafe_summary(reader)
        assert failsafe["events"] == 1
        assert failsafe["by_session"] == {"s-0": "worker died"}

    def test_fleet_report_and_json_export(self, tmp_path):
        reader = self._stored(tmp_path)
        report = fleet_report(reader)
        assert report["events"] == 20  # terminal events are not scored frames
        assert report["sessions"] == 2
        assert set(report["by_shard"]) == {0, 1}
        out = tmp_path / "report.json"
        assert export_report_json(reader, out) == report
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(report)
        )

    def test_csv_export_round_trips_scores(self, tmp_path):
        reader = self._stored(tmp_path)
        out = tmp_path / "events.csv"
        assert export_events_csv(reader, out) == 21
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("seq,shard,session_id,frame_index")
        assert len(lines) == 22
        first = lines[1].split(",")
        assert float(first[5]) == 0.0  # score column parses back
