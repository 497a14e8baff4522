"""Tests for the remote ingest gateway, wire protocol and client SDKs.

The tentpole invariant: a session fed over a **real TCP socket**
reproduces the local :class:`MonitorService` event stream bit for bit,
order included, for K ∈ {1, 2} shards under both inference backends.
Plus the transport semantics the wire adds: framing/truncation errors,
heartbeat and idle timeouts, bounded-send-queue backpressure, and the
fail-safe drain-and-close contract for dying clients and dying shard
workers.
"""

import asyncio
import contextlib
import dataclasses
import multiprocessing as mp
import os
import signal
import socket
import struct
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DatasetError,
    ProtocolError,
    ShapeError,
    WorkerError,
)
from repro.serving import (
    AsyncRemoteMonitorClient,
    AsyncShardedMonitor,
    EventStoreReader,
    EventStoreWriter,
    MonitorGateway,
    MonitorService,
    RemoteMonitorClient,
    ResumeState,
    ServiceStats,
    SessionEvent,
    ShardedMonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
    monitor_from_bytes,
    monitor_to_bytes,
    session_from_bytes,
    suggest_shard_count,
    transport,
)
from repro.serving.remote import protocol
from repro.serving.remote.client import _SessionCore
from repro.serving.remote.protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    MessageReader,
    MessageType,
    decode_ack,
    decode_events,
    decode_frames,
    decode_header,
    encode_ack,
    encode_events,
    encode_frames,
    encode_json,
    encode_message,
)
from repro.serving.remote.session import _RemoteSession
from repro.serving.transport import TICKS_PER_ROUND

N_FEATURES = 10


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=N_FEATURES, seed=0)


@contextlib.contextmanager
def running_gateway(monitor=None, **kwargs):
    """A gateway serving on a loop thread; yields its GatewayRunner."""
    kwargs.setdefault("heartbeat_interval_s", 0.2)
    kwargs.setdefault("idle_timeout_s", 30.0)
    gateway = MonitorGateway(monitor, **kwargs)
    with gateway.serve_in_thread() as runner:
        yield runner


def local_events(monitor, trajectory, backend="reference", session_id="s"):
    """The reference stream: one local MonitorService, one session."""
    service = MonitorService(monitor, max_sessions=4, backend=backend)
    service.open_session(session_id)
    service.feed(session_id, trajectory.frames)
    return service.drain()


def event_key(event):
    return (
        event.session_id,
        event.frame_index,
        event.gesture,
        event.score,
        event.flag,
        event.error,
    )


def wait_until(predicate, timeout_s=10.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestProtocol:
    def test_message_header_round_trip(self):
        data = encode_message(MessageType.STATS, b"abc")
        assert len(data) == HEADER_SIZE + 3
        msg_type, length = decode_header(data)
        assert msg_type is MessageType.STATS
        assert length == 3

    def test_frames_round_trip(self):
        frames = np.arange(12, dtype=float).reshape(3, 4) * 0.5
        sid, seq, decoded = decode_frames(encode_frames("theatre-7", frames, seq=41))
        assert sid == "theatre-7"
        assert seq == 41
        assert decoded.dtype == np.float64
        np.testing.assert_array_equal(decoded, frames)

    def test_single_frame_promoted(self):
        sid, seq, decoded = decode_frames(encode_frames("s", np.zeros(5)))
        assert seq == 0
        assert decoded.shape == (1, 5)

    def test_ack_round_trip(self):
        sid, seq = decode_ack(encode_ack("theatre-7", 2**40))
        assert sid == "theatre-7" and seq == 2**40
        with pytest.raises(ProtocolError):
            decode_ack(encode_ack("s", 3)[:-2])

    def test_events_round_trip(self):
        events = [
            SessionEvent("a", 0, 3, 0.25, False),
            SessionEvent("b-long-session-id", 17, 0, 0.99, True, "worker died"),
        ]
        decoded = decode_events(encode_events(events))
        assert decoded == events
        assert decode_events(encode_events([])) == []

    def test_incremental_reader_handles_arbitrary_chunking(self):
        stream = (
            encode_message(MessageType.HEARTBEAT)
            + encode_message(MessageType.FRAME, encode_frames("s", np.ones((2, 3))))
            + encode_message(MessageType.EVENT, encode_events([SessionEvent("s", 0, 1, 0.5, False)]))
        )
        reader = MessageReader()
        collected = []
        for i in range(len(stream)):  # one byte at a time
            reader.feed(stream[i : i + 1])
            collected.extend(reader.messages())
        assert [t for t, _ in collected] == [
            MessageType.HEARTBEAT,
            MessageType.FRAME,
            MessageType.EVENT,
        ]
        assert reader.buffered == 0
        sid, seq, frames = decode_frames(collected[1][1])
        assert sid == "s" and frames.shape == (2, 3)

    def test_foreign_version_rejected(self):
        bad = struct.pack("!BBHI", PROTOCOL_VERSION + 1, 1, 0, 0)
        with pytest.raises(ProtocolError, match="version"):
            decode_header(bad)

    def test_unknown_message_type_rejected(self):
        bad = struct.pack("!BBHI", PROTOCOL_VERSION, 200, 0, 0)
        with pytest.raises(ProtocolError, match="message type"):
            decode_header(bad)

    def test_nonzero_reserved_field_rejected(self):
        bad = struct.pack("!BBHI", PROTOCOL_VERSION, 1, 7, 0)
        with pytest.raises(ProtocolError, match="reserved"):
            decode_header(bad)

    def test_hostile_payload_length_rejected(self):
        bad = struct.pack("!BBHI", PROTOCOL_VERSION, 1, 0, MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError, match="cap"):
            decode_header(bad)

    @pytest.mark.parametrize("cut", [0, 1, 3, 9, 17])
    def test_truncated_frame_payload_rejected(self, cut):
        payload = encode_frames("session", np.ones((2, 4)))
        with pytest.raises(ProtocolError):
            decode_frames(payload[:cut])

    def test_frame_payload_length_mismatch_rejected(self):
        payload = encode_frames("s", np.ones((2, 4)))
        with pytest.raises(ProtocolError, match="carries"):
            decode_frames(payload[:-8])

    @pytest.mark.parametrize("cut", [0, 3, 5, 12])
    def test_truncated_event_payload_rejected(self, cut):
        payload = encode_events([SessionEvent("sess", 3, 1, 0.5, True, "x")])
        with pytest.raises(ProtocolError):
            decode_events(payload[:cut])

    def test_trailing_garbage_in_events_rejected(self):
        payload = encode_events([SessionEvent("s", 0, 1, 0.5, False)])
        with pytest.raises(ProtocolError, match="trailing"):
            decode_events(payload + b"junk")


class TestRemoteParity:
    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_wire_session_matches_local_service_bit_for_bit(
        self, monitor, n_shards, backend
    ):
        """The headline guarantee: the socket adds nothing and loses
        nothing — scores, gestures, flags and order are identical."""
        trajectory = make_random_walk_trajectory(
            40, n_features=N_FEATURES, seed=11
        )
        reference = local_events(monitor, trajectory, backend=backend)
        with running_gateway(
            monitor, n_shards=n_shards, max_sessions=8, backend=backend
        ) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                events = client.stream_session(
                    trajectory.frames, session_id="s", chunk_size=7
                )
        assert [event_key(e) for e in events] == [
            event_key(e) for e in reference
        ]

    def test_multiple_clients_each_match_their_isolated_stream(self, monitor):
        """Sessions multiplexed over several connections each reproduce
        their isolated stream() run, frame order preserved."""
        fleet = {
            f"proc-{i}": make_random_walk_trajectory(
                25 + 5 * i, n_features=N_FEATURES, seed=40 + i
            )
            for i in range(4)
        }
        with running_gateway(monitor, n_shards=1, max_sessions=8) as runner:
            clients = [
                RemoteMonitorClient(runner.host, runner.port) for _ in range(2)
            ]
            try:
                owners = {}
                for i, (sid, trajectory) in enumerate(fleet.items()):
                    client = clients[i % 2]
                    owners[sid] = client
                    assert client.open_session(sid) == sid
                    client.feed(sid, trajectory.frames)
                for sid, trajectory in fleet.items():
                    events = owners[sid].events_for(sid, trajectory.n_frames)
                    assert [e.frame_index for e in events] == list(
                        range(trajectory.n_frames)
                    )
                    gestures, scores = [], []
                    for _, gesture, score, _ in monitor.stream(trajectory):
                        gestures.append(gesture)
                        scores.append(score)
                    assert [e.gesture for e in events] == gestures
                    assert [e.score for e in events] == scores
                    summary = owners[sid].close_session(sid)
                    assert summary["n_frames"] == trajectory.n_frames
            finally:
                for client in clients:
                    client.close()

    def test_async_client_round_trip_in_one_loop(self, monitor):
        """The asyncio SDK against an in-loop gateway: open, chunked
        feeds, merged event stream, close summary, stats."""
        trajectory = make_random_walk_trajectory(
            30, n_features=N_FEATURES, seed=13
        )
        reference = local_events(monitor, trajectory)

        async def run():
            async with MonitorGateway(
                monitor, n_shards=1, max_sessions=4
            ) as gateway:
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                sid = await client.open_session("s")
                for start in range(0, trajectory.n_frames, 10):
                    await client.feed(
                        sid, trajectory.frames[start : start + 10]
                    )
                events = []
                async for event in client.events():
                    events.append(event)
                    if len(events) == trajectory.n_frames:
                        break
                summary = await client.close_session(sid)
                stats = await client.gateway_stats()
                await client.aclose()
                return events, summary, stats

        events, summary, stats = asyncio.run(run())
        assert [event_key(e) for e in events] == [
            event_key(e) for e in reference
        ]
        assert summary["n_frames"] == trajectory.n_frames
        assert stats["frames_received"] == trajectory.n_frames
        assert stats["sessions"]["closed_total"] == 1

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_64_concurrent_socket_sessions_match_one_service(
        self, monitor, n_shards
    ):
        """The gateway sustains 64 socket sessions at once — one
        connection each, all open before the first frame flows — with
        no fail-safe closure and no overflow disconnect, and every
        session's stream is the one a single MonitorService emits."""
        fleet = {
            f"wire-{i:02d}": make_random_walk_trajectory(
                24, n_features=N_FEATURES, seed=600 + i
            )
            for i in range(64)
        }
        oracle = MonitorService(monitor, max_sessions=len(fleet))
        for sid, trajectory in fleet.items():
            oracle.open_session(sid)
            oracle.feed(sid, trajectory.frames)
        expected = {sid: [] for sid in fleet}
        for event in oracle.drain():
            expected[event.session_id].append(event_key(event))

        async def stream(client, sid):
            frames = fleet[sid].frames
            for start in range(0, len(frames), 8):
                await client.feed(sid, frames[start : start + 8])
            keys = []
            async for event in client.events():
                keys.append(event_key(event))
                if len(keys) == len(frames):
                    break
            summary = await client.close_session(sid)
            assert summary["n_frames"] == len(frames)
            return keys

        async def run():
            async with MonitorGateway(
                monitor, n_shards=n_shards, max_sessions=len(fleet)
            ) as gateway:
                clients = await asyncio.gather(*(
                    AsyncRemoteMonitorClient.connect(gateway.host, gateway.port)
                    for _ in fleet
                ))
                try:
                    await asyncio.gather(*(
                        client.open_session(sid)
                        for client, sid in zip(clients, fleet)
                    ))
                    streams = await asyncio.gather(*(
                        stream(client, sid)
                        for client, sid in zip(clients, fleet)
                    ))
                    stats = await gateway.gateway_stats()
                finally:
                    await asyncio.gather(*(c.aclose() for c in clients))
                return dict(zip(fleet, streams)), stats

        streams, stats = asyncio.run(run())
        assert stats["sessions"]["peak_open"] == 64
        assert stats["sessions"]["failed_total"] == 0
        assert stats["connections"]["overflow_disconnects"] == 0
        assert streams == expected


class TestErrors:
    def test_gateway_errors_keep_their_repro_types(self, monitor):
        with running_gateway(monitor, n_shards=1, max_sessions=1) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sid = client.open_session("only")
                with pytest.raises(ConfigurationError):
                    client.open_session("only")  # duplicate id
                with pytest.raises(ConfigurationError):
                    client.open_session("overflow")  # all slots in use
                # feed is unacknowledged: the ShapeError arrives as an
                # ERROR message and raises on the next stream read.
                client.feed(sid, np.zeros((2, N_FEATURES + 3)))
                with pytest.raises(ShapeError):
                    client.gateway_stats()
                # The connection survives typed errors.
                client.feed(sid, np.zeros((3, N_FEATURES)))
                assert len(client.events_for(sid, 3)) == 3
                with pytest.raises(ProtocolError):
                    client.close_session("ghost")

    def test_events_for_preserves_other_sessions_on_error(self, monitor):
        """An async ERROR raised mid-collection must not swallow other
        sessions' already-received events — they stay buffered."""
        with running_gateway(monitor, n_shards=1, max_sessions=4) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                client.open_session("a")
                client.open_session("b")
                client.feed("b", np.zeros((2, N_FEATURES)))
                # Rejected async feed: the ERROR trails b's two events.
                client.feed("a", np.zeros((1, N_FEATURES + 2)))
                with pytest.raises(ShapeError):
                    client.events_for("a", 1)
                # b's events were popped into the requeue before the
                # ERROR raised; they must have been restored.
                events = client.events_for("b", 2)
                assert [e.frame_index for e in events] == [0, 1]

    def test_async_feed_error_raises_from_event_stream(self, monitor):
        async def run():
            async with MonitorGateway(
                monitor, n_shards=1, max_sessions=4
            ) as gateway:
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                sid = await client.open_session()
                await client.feed(sid, np.zeros((2, N_FEATURES + 1)))
                with pytest.raises(ShapeError):
                    await asyncio.wait_for(client.next_event(), 10.0)
                await client.aclose()

        asyncio.run(run())

    def test_cancelled_control_call_keeps_the_connection_in_step(self, monitor):
        """``asyncio.wait_for(client.close_session(a), t)`` giving up
        must not hand ``a``'s late reply to the next CLOSE: the request
        stays owed, its reply is swallowed, and the connection and its
        other sessions live on."""

        async def run():
            async with MonitorGateway(
                monitor, n_shards=1, max_sessions=4
            ) as gateway:
                gate = asyncio.Event()
                real_close = gateway._engine.close_session

                async def gated_close(session_id):
                    await gate.wait()
                    return await real_close(session_id)

                gateway._engine.close_session = gated_close
                async with await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                ) as client:
                    for sid in "abc":
                        await client.open_session(sid)
                    await client.feed("b", np.zeros((2, N_FEATURES)))
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(client.close_session("a"), 0.2)
                    closing_b = asyncio.create_task(client.close_session("b"))
                    await asyncio.sleep(0.05)  # b's CLOSE queues behind a's
                    gate.set()
                    summary = await asyncio.wait_for(closing_b, 10.0)
                    assert (summary["session_id"], summary["n_frames"]) == ("b", 2)
                    # The connection was never out of step: c still works.
                    await client.feed("c", np.zeros((3, N_FEATURES)))
                    events = [
                        await asyncio.wait_for(client.next_event(), 10.0)
                        for _ in range(5)
                    ]
                    assert [e.session_id for e in events] == list("bbccc")
                    stats = await client.gateway_stats()
                    assert stats["sessions"]["closed_total"] == 2
                assert not gateway.failed_sessions

        asyncio.run(run())

    def test_sync_reply_arriving_after_the_read_timeout_is_swallowed(
        self, monitor
    ):
        """The same rule on the blocking client: a control call that
        timed out stays owed, and the next call gets its own reply."""
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, heartbeat_interval_s=5.0
        ) as runner:
            gate = threading.Event()
            real_close = runner.gateway._engine.close_session

            async def gated_close(session_id):
                while not gate.is_set():
                    await asyncio.sleep(0.01)
                return await real_close(session_id)

            runner.gateway._engine.close_session = gated_close
            with RemoteMonitorClient(
                runner.host, runner.port, timeout_s=0.3
            ) as client:
                client.open_session("a")
                client.open_session("b")
                with pytest.raises(TimeoutError):
                    client.close_session("a")
                gate.set()
                assert client.close_session("b")["session_id"] == "b"
                assert client.gateway_stats()["sessions"]["closed_total"] == 2

    def test_sync_timeout_bounds_the_call_not_each_read(self):
        """A listener that sends HEARTBEAT every 50 ms and never answers
        OPEN: each heartbeat is a successful socket read, but the call as
        a whole still times out.  Its own bound, because a client that
        restarted its timeout on every read would never return."""
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def serve():
            conn, _ = listener.accept()
            with conn:
                while not stop.wait(0.05):
                    conn.sendall(encode_message(MessageType.HEARTBEAT))

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        outcome = {}

        def call():
            started = time.monotonic()
            try:
                client.open_session("never-answered")
            except Exception as exc:  # noqa: BLE001 - inspected below
                outcome["error"] = exc
            outcome["took_s"] = time.monotonic() - started

        client = RemoteMonitorClient(*listener.getsockname(), timeout_s=0.5)
        caller = threading.Thread(target=call, daemon=True)
        try:
            caller.start()
            caller.join(2.0)
            assert not caller.is_alive(), "open_session outlived its timeout_s"
        finally:
            stop.set()  # the listener hangs up: a stuck call ends too
            server.join(5.0)
            client.close()
            listener.close()
        assert isinstance(outcome["error"], TimeoutError)
        assert outcome["took_s"] < 2.0

    def test_sync_timeout_none_waits_without_bound(self, monitor):
        """``timeout_s=None`` is no deadline: every waiting call, and one
        answered only after heartbeats went by, completes."""
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, heartbeat_interval_s=0.05
        ) as runner:
            gate = threading.Event()
            real_close = runner.gateway._engine.close_session

            async def gated_close(session_id):
                while not gate.is_set():
                    await asyncio.sleep(0.01)
                return await real_close(session_id)

            runner.gateway._engine.close_session = gated_close
            frames = make_random_walk_trajectory(5, n_features=N_FEATURES, seed=90).frames
            with RemoteMonitorClient(runner.host, runner.port, timeout_s=None) as client:
                client.open_session("a")
                client.feed("a", frames)
                assert len(client.events_for("a", 4)) == 4
                assert client.next_event().frame_index == 4
                threading.Timer(0.3, gate.set).start()
                assert client.close_session("a")["n_frames"] == 5

    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected_over_the_wire(
        self, monitor, n_shards, bad
    ):
        """One NaN/Inf feature: a typed per-session ERROR, never `window`
        frames of silent ``score=nan flag=False`` — and the stream around
        the rejected batch stays bit-identical."""
        trajectory = make_random_walk_trajectory(
            30, n_features=N_FEATURES, seed=21
        )
        reference = local_events(monitor, trajectory)
        with running_gateway(
            monitor, n_shards=n_shards, max_sessions=4
        ) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sid = client.open_session("s")
                client.feed(sid, trajectory.frames[:8])
                events = client.events_for(sid, 8)
                poisoned = trajectory.frames[8:12].copy()
                poisoned[0, 5] = bad
                client.feed(sid, poisoned)
                with pytest.raises(DatasetError, match="non-finite"):
                    client.gateway_stats()
                client.feed(sid, trajectory.frames[8:])
                events += client.events_for(sid, 22)
                assert client.close_session(sid)["n_frames"] == 30
            assert not runner.gateway.failed_sessions
        assert all(np.isfinite(e.score) for e in events)
        assert [event_key(e) for e in events] == [
            event_key(e) for e in reference
        ]

    def test_rejected_non_finite_batch_leaves_the_journal(self, monitor):
        """Resume mode: the journal is what the ACK promises, so a batch
        the engine refused must be popped from it, not carried into the
        engine by a later restore (which would refuse the whole archive)."""
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sid = client.open_session("s")
                client.feed(sid, np.zeros((3, N_FEATURES)))
                client.events_for(sid, 3)
                client.feed(sid, np.full((2, N_FEATURES), np.nan))
                with pytest.raises(DatasetError):
                    client.gateway_stats()
                record = runner.gateway._sessions[sid]
                assert [batch.shape[0] for batch in record.journal] == [3]
                assert runner.stats()["resume"]["journal_frames"] == 3
                archive = record.archive()
                assert (archive.frames_done, archive.pending_frames) == (3, 0)
                assert np.isfinite(archive.recent).all()

    def test_constructor_validation(self, monitor):
        with pytest.raises(ConfigurationError):
            MonitorGateway()  # neither monitor nor bytes
        with pytest.raises(ConfigurationError):
            MonitorGateway(monitor, monitor_bytes=b"x")  # both
        with pytest.raises(ConfigurationError):
            MonitorGateway(monitor, n_shards=0)
        with pytest.raises(ConfigurationError):
            MonitorGateway(monitor, backend="turbo")
        with pytest.raises(ConfigurationError):
            MonitorGateway(monitor, send_queue_max=1)
        with pytest.raises(ConfigurationError):
            # Consumer-only clients only talk by echoing heartbeats; a
            # tighter idle bound would disconnect every healthy one.
            MonitorGateway(
                monitor, heartbeat_interval_s=10.0, idle_timeout_s=5.0
            )


class TestFailSafe:
    def test_client_disconnect_drains_then_fails_safe(self, monitor):
        """An abruptly dead client's accepted frames are still processed
        (drain), then its session closes with a terminal error-set,
        flag=True event at the gateway — never silently dropped."""
        trajectory = make_random_walk_trajectory(
            20, n_features=N_FEATURES, seed=21
        )
        with running_gateway(monitor, n_shards=1, max_sessions=4) as runner:
            client = RemoteMonitorClient(runner.host, runner.port)
            client.open_session("dying")
            client.feed("dying", trajectory.frames)
            client.close()  # vanish without CLOSE
            gateway = runner.gateway
            assert wait_until(lambda: gateway.failsafe_events)
            (event,) = gateway.failsafe_events
            assert event.session_id == "dying"
            assert event.flag is True
            assert "disconnect" in event.error
            # Drain-and-close: every accepted frame was processed first.
            assert event.frame_index == trajectory.n_frames
            assert gateway.failed_sessions == {"dying": event.error}
            assert gateway.n_open_sessions == 0
            stats = runner.stats()
            assert stats["sessions"]["failed_total"] == 1
            assert stats["frames_received"] == trajectory.n_frames

    def test_an_open_that_outlives_its_connection_releases_its_slot(self, monitor):
        """The connection ends (here: idle timeout) while its OPEN is in
        flight on a shard: the session the engine opens is closed again
        at once, and no record is registered that no teardown would ever
        drain or fail safe."""

        async def open_then_vanish():
            async with MonitorGateway(
                monitor,
                n_shards=2,
                max_sessions=4,
                heartbeat_interval_s=0.05,
                idle_timeout_s=0.2,
            ) as gateway:
                service = gateway._engine.service
                entered, release = threading.Event(), threading.Event()
                opened = []
                real_open = service.open_on_shard

                def open_once_the_client_is_gone(*args, **kwargs):
                    entered.set()
                    release.wait(10.0)
                    opened.append(real_open(*args, **kwargs))
                    return opened[-1]

                service.open_on_shard = open_once_the_client_is_gone
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(
                    encode_message(MessageType.OPEN, encode_json({"session_id": "z"}))
                )
                await writer.drain()
                while not entered.is_set():
                    await asyncio.sleep(0.01)
                writer.close()  # silent from here: the idle timeout ends it
                loop = asyncio.get_running_loop()
                started = loop.time()
                while gateway._connections:
                    assert loop.time() - started < 10.0, "never torn down"
                    await asyncio.sleep(0.01)
                release.set()
                while not opened or service.n_open_sessions:
                    assert loop.time() - started < 20.0, "slot never released"
                    await asyncio.sleep(0.01)
                return opened, dict(gateway._sessions), gateway.failsafe_events

        opened, sessions, terminals = asyncio.run(open_then_vanish())
        assert opened == ["z"]  # the engine did open it ...
        assert sessions == {}  # ... and the gateway kept no record of it
        assert terminals == []  # nothing was fed: nothing to flag

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_reopened_id_sheds_its_predecessors_failure(self, monitor, n_shards):
        """A clean procedure on a re-used id must not read as a lost
        monitor: the failure record of an earlier incarnation goes when
        the id is opened again, while STATS keeps counting failures."""
        with running_gateway(monitor, n_shards=n_shards, max_sessions=4) as runner:
            gateway = runner.gateway
            for failures in (1, 2):  # the same id fails twice
                client = RemoteMonitorClient(runner.host, runner.port)
                client.open_session("theatre-7")
                client.close()  # vanish without CLOSE
                assert wait_until(
                    lambda: len(gateway.failsafe_events) == failures
                )
            assert "disconnect" in gateway.failed_sessions["theatre-7"]
            with RemoteMonitorClient(runner.host, runner.port) as client:
                client.open_session("theatre-7")
                assert gateway.failed_sessions == {}
                client.feed("theatre-7", np.zeros((3, N_FEATURES)))
                assert len(client.events_for("theatre-7", 3)) == 3
                assert client.close_session("theatre-7")["n_frames"] == 3
                # Closed cleanly: requests for the id now name no
                # session — not the old incarnation's disconnect.
                with pytest.raises(ProtocolError, match="no session"):
                    client.close_session("theatre-7")
                client.feed("theatre-7", np.zeros((1, N_FEATURES)))
                with pytest.raises(ProtocolError, match="no session"):
                    client.gateway_stats()
            sessions = runner.stats()["sessions"]
            assert sessions["failed_total"] == 2
            assert sessions["closed_total"] == 1

    def test_killed_shard_worker_surfaces_error_events(self, monitor):
        """Killing a shard worker mid-stream: the gateway records the
        fail-safe events AND pushes them to the owning client."""
        with running_gateway(
            monitor, n_shards=2, max_sessions=16
        ) as runner:
            gateway = runner.gateway
            service = gateway._engine.service
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sids = [client.open_session(f"proc-{i}") for i in range(6)]
                placement = {sid: service.shard_of(sid) for sid in sids}
                assert len(set(placement.values())) == 2
                for sid in sids:
                    client.feed(
                        sid,
                        make_random_walk_trajectory(
                            10, n_features=N_FEATURES, seed=60
                        ).frames,
                    )
                for sid in sids:  # let the backlog fully drain first
                    client.events_for(sid, 10)
                victim_shard = placement[sids[0]]
                victims = {
                    s for s, sh in placement.items() if sh == victim_shard
                }
                process = service._shards[victim_shard].process
                os.kill(process.pid, signal.SIGKILL)
                process.join(10.0)
                # The fail-safe events reach the client over the wire...
                crashed = set()
                while len(crashed) < len(victims):
                    event = client.next_event()
                    assert event.error is not None and event.flag
                    crashed.add(event.session_id)
                assert crashed == victims
                # Closing a crash-failed session names the failure, not
                # a generic "no such session".
                with pytest.raises(WorkerError, match="failed"):
                    client.close_session(sids[0])
            # ...and are recorded at the gateway.
            assert wait_until(
                lambda: set(gateway.failed_sessions) >= victims
            )
            for sid in victims:
                assert sid in gateway.failed_sessions

    def test_hung_shard_worker_fails_its_sessions_safe(self, monitor, monkeypatch):
        """SIGSTOP one worker of a K=2 gateway: alive but silent, so only
        the reply deadline can surface it.  The client of each of its
        sessions gets one ``flag=True`` terminal naming the unresponsive
        shard, and the other shard's sessions stream on, bit-identical."""
        monkeypatch.setattr(transport, "REPLY_DEADLINE_S", 1.0)
        trajectory = make_random_walk_trajectory(
            12, n_features=N_FEATURES, seed=62
        )
        with running_gateway(monitor, n_shards=2, max_sessions=8) as runner:
            service = runner.gateway._engine.service
            with RemoteMonitorClient(
                runner.host, runner.port, timeout_s=15.0
            ) as client:
                sids = [client.open_session(f"proc-{i}") for i in range(6)]
                placement = {sid: service.shard_of(sid) for sid in sids}
                assert len(set(placement.values())) == 2
                hung = placement[sids[0]]
                victims = {s for s in sids if placement[s] == hung}
                pid = service._shards[hung].process.pid
                os.kill(pid, signal.SIGSTOP)
                for sid in sids:
                    client.feed(sid, trajectory.frames[:6])
                events = {sid: client.events_for(sid, 6) for sid in sids}
                for sid in set(sids) - victims:
                    client.feed(sid, trajectory.frames[6:])
                    events[sid] += client.events_for(sid, 6)
        for sid in victims:
            (terminal,) = events[sid]
            assert terminal.flag and terminal.frame_index == 0
            assert f"shard {hung} unresponsive after 1.0s" in terminal.error
        for sid in set(sids) - victims:
            assert [event_key(e) for e in events[sid]] == [
                event_key(e)
                for e in local_events(monitor, trajectory, session_id=sid)
            ], sid

    def test_local_engine_tick_failure_fails_safe(self, monitor):
        """K=1 has no worker process to crash, but a tick() exception
        must still fail the embedded engine *safe*: terminal error
        events for every session, WorkerError on further use — never a
        gateway that silently stops flagging."""

        async def run():
            async with MonitorGateway(
                monitor, n_shards=1, max_sessions=4
            ) as gateway:
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                sid = await client.open_session("s")
                await client.feed(sid, np.zeros((2, N_FEATURES)))
                for _ in range(2):
                    event = await asyncio.wait_for(client.next_event(), 10.0)
                    assert event.error is None

                def boom():
                    raise RuntimeError("synthetic tick explosion")

                gateway._engine.service.tick = boom
                await client.feed(sid, np.zeros((3, N_FEATURES)))
                event = await asyncio.wait_for(client.next_event(), 10.0)
                assert event.flag is True
                assert "tick failed" in event.error
                assert event.frame_index == 2  # frames served before the loss
                with pytest.raises(WorkerError, match="tick failed"):
                    await client.open_session("another")
                await client.aclose()
                return dict(gateway.failed_sessions)

        failed = asyncio.run(run())
        assert "s" in failed and "tick failed" in failed["s"]

    def test_local_engine_failure_inside_the_step_ends_where_it_stopped(self, monitor):
        """A K=1 tick that raises from inside its engine step — here the
        error stage, scoring the window that ends at frame 6 — fails the
        session safe at its true stream position: the terminal event's
        ``frame_index`` is the number of frames delivered before it."""
        frames = np.zeros((10, N_FEATURES))
        frames[6] = 7.0  # the last row of exactly one error window

        async def run():
            async with MonitorGateway(monitor, n_shards=1, max_sessions=4) as gateway:
                library = gateway._engine.service._error_library
                real_score = library.score

                def score(windows, gestures):
                    if (windows[:, -1] == 7.0).all(axis=1).any():
                        raise RuntimeError("synthetic error-stage failure")
                    return real_score(windows, gestures)

                library.score = score
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                sid = await client.open_session("s")
                await client.feed(sid, frames)
                events = []
                while not (events and events[-1].error):
                    events.append(await asyncio.wait_for(client.next_event(), 10.0))
                await client.aclose()
                return events

        *live, terminal = asyncio.run(run())
        assert [e.frame_index for e in live] == list(range(6))
        assert all(e.error is None for e in live)
        assert terminal.flag and "synthetic error-stage failure" in terminal.error
        assert terminal.frame_index == len(live)

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="worker-side injection needs the fork start method",
    )
    @pytest.mark.parametrize("exc_type", [ShapeError, RuntimeError])
    @pytest.mark.parametrize("resume", ["off", "on-once", "on-persistent"])
    def test_sharded_engine_tick_failure_fails_safe(
        self, monitor, fail_inside_step, tmp_path, exc_type, resume
    ):
        """The K=2 twin: a worker whose ``tick`` replies with an error —
        typed or not — must read as ``flag=True`` at the client, never as
        a stream that silently stops.  Resume off: the client reads the
        terminal event.  Resume on: journal recovery rebuilds the session
        on the surviving shard — the stream completes when the fault does
        not follow it there, and ends in one fail-safe terminal after the
        bounded rebuilds when it does.  The fault fires inside a round,
        at the doomed session's frame 3."""
        fired = tmp_path / "fired"

        def fire():
            if resume == "on-once" and fired.exists():
                return False
            fired.touch()
            return True

        fail_inside_step(exc_type, after=3, when=fire)
        frames = make_random_walk_trajectory(
            20, n_features=N_FEATURES, seed=77
        ).frames

        async def run():
            async with MonitorGateway(
                monitor,
                n_shards=2,
                max_sessions=4,
                start_method="fork",
                resume_grace_s=0.0 if resume == "off" else 5.0,
            ) as gateway:
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                await client.open_session("doomed")
                await client.feed("doomed", frames)
                events = []
                while len(events) < 20 and not (events and events[-1].error):
                    # The parent delivered 3 events here, then nothing.
                    events.append(
                        await asyncio.wait_for(client.next_event(), 10.0)
                    )
                if events[-1].error:  # the parent kept it listed open
                    deadline = time.monotonic() + 5.0
                    while gateway.n_open_sessions and time.monotonic() < deadline:
                        await asyncio.sleep(0.01)
                    assert gateway.n_open_sessions == 0
                failed = dict(gateway.failed_sessions)
                await client.aclose()
                return events, failed

        events, failed = asyncio.run(run())
        assert fired.exists()
        *live, last = events
        assert all(e.error is None and e.session_id == "doomed" for e in live)
        assert [e.frame_index for e in live] == list(range(len(live)))
        if resume == "on-once":
            assert last.error is None and len(events) == 20
            assert [event_key(e) for e in events] == [
                event_key(e)
                for e in local_events(
                    monitor,
                    make_random_walk_trajectory(20, n_features=N_FEATURES, seed=77),
                    session_id="doomed",
                )
            ]
            assert "doomed" not in failed
        else:
            assert last.flag is True and last.error
            assert last.frame_index == len(live)
            assert "doomed" in failed
            if resume == "off":
                assert len(live) == 3  # frames served before the loss
                assert "injected tick failure" in last.error
                assert exc_type.__name__ in last.error

    def test_stop_leaves_no_orphan_workers(self, monitor):
        gateway = MonitorGateway(monitor, n_shards=2, max_sessions=4)
        runner = gateway.serve_in_thread()
        runner.start()
        processes = [
            h.process for h in gateway._engine.service._shards.values()
        ]
        assert processes and all(p.is_alive() for p in processes)
        with RemoteMonitorClient(runner.host, runner.port) as client:
            sid = client.open_session()
            client.feed(sid, np.zeros((3, N_FEATURES)))
            client.events_for(sid, 3)
        runner.stop()
        for process in processes:
            assert not process.is_alive()
        runner.stop()  # idempotent

    def test_idle_connection_is_disconnected(self, monitor):
        with running_gateway(
            monitor,
            n_shards=1,
            max_sessions=4,
            heartbeat_interval_s=0.05,
            idle_timeout_s=0.3,
        ) as runner:
            raw = socket.create_connection((runner.host, runner.port))
            raw.settimeout(10.0)
            # Never answer anything: the gateway must hang up on us.
            deadline = time.monotonic() + 10.0
            saw_eof = False
            while time.monotonic() < deadline:
                data = raw.recv(4096)
                if not data:
                    saw_eof = True
                    break
            raw.close()
            assert saw_eof
            assert runner.stats()["connections"]["idle_disconnects"] >= 1

    def test_heartbeat_echo_keeps_connection_alive(self, monitor):
        with running_gateway(
            monitor,
            n_shards=1,
            max_sessions=4,
            heartbeat_interval_s=0.05,
            idle_timeout_s=0.4,
        ) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sid = client.open_session("steady")
                # Stay connected well past the idle timeout: every stats
                # round trip also echoes any pending heartbeats.  Spin on
                # observed state (heartbeats exchanged, idle window fully
                # elapsed) rather than a fixed sleep count so slow CI
                # machines can't race the deadline.
                start = time.monotonic()
                deadline = start + 10.0
                while time.monotonic() < deadline:
                    stats = client.gateway_stats()
                    if (
                        stats["heartbeats_sent"] > 0
                        and time.monotonic() - start > 0.6
                    ):
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("gateway never sent a heartbeat")
                client.feed(sid, np.zeros((2, N_FEATURES)))
                assert len(client.events_for(sid, 2)) == 2
                assert client.close_session(sid)["n_frames"] == 2
            stats = runner.stats()
            assert stats["heartbeats_sent"] > 0
            assert stats["connections"]["idle_disconnects"] == 0
            assert not runner.gateway.failed_sessions


class TestEventDrivenDrain:
    """A CLOSE waits on its session's drain signal, not on a timer: it
    returns in the loop passes after the event for the last accepted
    frame is routed, and a drain whose events never come still ends at
    ``drain_timeout_s``.  The engine's events are held back by swapping
    its sink, then routed by hand."""

    N = 6

    async def _close_with_events_held(self, monitor, drain_timeout_s, route, n_routed):
        async with MonitorGateway(
            monitor, n_shards=1, max_sessions=4, drain_timeout_s=drain_timeout_s
        ) as gateway:
            held = []
            gateway._engine._sink = held.extend
            client = await AsyncRemoteMonitorClient.connect(gateway.host, gateway.port)
            sid = await client.open_session("s")
            await client.feed(sid, np.zeros((self.N, N_FEATURES)))
            while len(held) < self.N:  # ticked, not routed
                await asyncio.sleep(0.01)
            loop = asyncio.get_running_loop()
            started = loop.time()
            closing = asyncio.ensure_future(client.close_session(sid))
            while sid not in {s.session_id for s in gateway._drains}:
                await asyncio.sleep(0.01)
            await route(gateway, held, sid)
            reply = await asyncio.wait_for(closing, 10.0)
            took = loop.time() - started
            events = [
                await asyncio.wait_for(client.next_event(), 5.0) for _ in range(n_routed)
            ]
            await client.aclose()
            return reply, took, events

    def test_close_returns_as_soon_as_the_last_event_is_routed(
        self, monitor, monkeypatch
    ):
        reads = []
        drained = _RemoteSession.drained
        monkeypatch.setattr(
            _RemoteSession,
            "drained",
            property(lambda session: reads.append(1) or drained.fget(session)),
        )

        async def route(gateway, held, sid):
            gateway._route_events(held[:-1])
            reads.clear()
            await asyncio.sleep(0.05)
            assert sid in gateway._sessions  # one event still owed
            assert not reads  # and nothing woke the drain to look
            gateway._route_events(held[-1:])
            for _ in range(10):  # a few loop passes
                await asyncio.sleep(0)
            assert sid not in gateway._sessions  # drained, closed, gone

        reply, took, events = asyncio.run(
            self._close_with_events_held(monitor, 30.0, route, self.N)
        )
        assert reply["n_frames"] == self.N
        assert [e.frame_index for e in events] == list(range(self.N))
        assert took < 10.0

    def test_a_drain_whose_events_never_arrive_ends_at_the_timeout(self, monitor):
        async def route(gateway, held, sid):
            pass  # the events never reach the gateway

        reply, took, events = asyncio.run(
            self._close_with_events_held(monitor, 0.3, route, 0)
        )
        assert reply["n_frames"] == 0 and events == []
        assert 0.3 <= took < 5.0

    def test_a_teardown_drains_its_sessions_under_one_deadline(self, monitor):
        """A dead client's backlog holds the engine for ``drain_timeout_s``
        in all, not once per session: two sessions whose events never
        reach the gateway both end fail-safe one timeout after the
        disconnect (two timeouts when each drain got its own)."""

        async def disconnect_with_events_held():
            async with MonitorGateway(
                monitor, n_shards=1, max_sessions=4, drain_timeout_s=0.3
            ) as gateway:
                held = []
                gateway._engine._sink = held.extend
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                for sid in ("a", "b"):
                    await client.open_session(sid)
                    await client.feed(sid, np.zeros((self.N, N_FEATURES)))
                while len(held) < 2 * self.N:  # ticked, not routed
                    await asyncio.sleep(0.01)
                loop = asyncio.get_running_loop()
                started = loop.time()
                await client.aclose()
                while len(gateway.failsafe_events) < 2:
                    assert loop.time() - started < 10.0, "teardown never ended"
                    await asyncio.sleep(0.01)
                return loop.time() - started, list(gateway.failsafe_events)

        took, terminals = asyncio.run(disconnect_with_events_held())
        assert sorted(e.session_id for e in terminals) == ["a", "b"]
        assert all(e.flag and e.error is not None for e in terminals)
        assert 0.3 <= took < 0.55

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_a_resume_during_a_close_waits_instead_of_stealing(
        self, monitor, monkeypatch, n_shards
    ):
        """A CLOSE parked in its drain owns the session's ending: a RESUME
        with the right token from a newer connection gets the retryable
        refusal instead of stealing it, and no record leaves the gateway
        without a CLOSE reply to the connection holding it as it leaves
        or a ``flag=True`` terminal.  (A steal during the drain would
        let the CLOSE end the session under its new owner, which then
        gets neither.)"""

        async def resume_while_closing():
            async with MonitorGateway(
                monitor,
                n_shards=n_shards,
                max_sessions=4,
                drain_timeout_s=30.0,
                resume_grace_s=30.0,
            ) as gateway:
                held = []
                gateway._engine._sink = held.extend
                holders = {}  # record -> id of the connection holding it as it ends
                end = _RemoteSession.end

                def ends(session):
                    holders.setdefault(session, getattr(session.conn, "id", None))
                    end(session)

                monkeypatch.setattr(_RemoteSession, "end", ends)
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                sid = await client.open_session("s")
                await client.feed(sid, np.zeros((self.N, N_FEATURES)))
                while len(held) < self.N:  # ticked, not routed
                    await asyncio.sleep(0.01)
                session = gateway._sessions[sid]
                owner = session.conn.id
                closing = asyncio.ensure_future(client.close_session(sid))
                while session not in gateway._drains:
                    await asyncio.sleep(0.01)
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(
                    encode_message(
                        MessageType.RESUME,
                        encode_json(
                            {"session_id": sid, "token": session.token, "last_event": 0}
                        ),
                    )
                )
                await writer.drain()
                msg_type, length = decode_header(
                    await asyncio.wait_for(reader.readexactly(HEADER_SIZE), 10.0)
                )
                answer = protocol.decode_json(await reader.readexactly(length))
                gateway._route_events(held)
                reply = await asyncio.wait_for(closing, 10.0)
                writer.close()
                await client.aclose()
                terminals = list(gateway.failsafe_events)
                left = [(s.session_id, holder) for s, holder in holders.items()]
                return owner, msg_type, answer, reply, left, terminals

        owner, msg_type, answer, reply, left, terminals = asyncio.run(
            resume_while_closing()
        )
        # The CLOSE reply went to ``owner``, the closing client.
        flagged = {e.session_id for e in terminals if e.flag and e.error is not None}
        for sid, holder in left:
            assert sid in flagged or holder == owner, (sid, holder)
        assert left == [("s", owner)] and not terminals
        assert reply["n_frames"] == self.N
        assert msg_type is MessageType.ERROR and answer["in_reply_to"] == "RESUME"
        assert answer["error_type"] == "ProtocolError"
        assert "no parked session" in answer["error"]  # retryable: it waits


class TestBackpressure:
    def test_send_queue_overflow_disconnects_slow_consumer(self, monitor):
        """A consumer that stops reading must be cut loose — its bounded
        queue overflows, the connection drops, its sessions fail safe —
        while the gateway keeps serving everyone else."""
        with running_gateway(
            monitor, n_shards=1, max_sessions=8, send_queue_max=8
        ) as runner:
            gateway = runner.gateway
            slow = RemoteMonitorClient(runner.host, runner.port)
            slow.open_session("slow")

            async def park_writer():
                (conn,) = gateway._connections.values()
                conn.writer_gate.clear()

            runner.run(park_writer())
            # 50 events against a parked writer and a queue of 8.
            slow.feed("slow", np.zeros((50, N_FEATURES)))
            assert wait_until(lambda: gateway.failed_sessions)
            assert "overflow" in gateway.failed_sessions["slow"]
            (event,) = [
                e for e in gateway.failsafe_events if e.session_id == "slow"
            ]
            assert event.flag is True
            stats = runner.stats()
            assert stats["connections"]["overflow_disconnects"] == 1
            assert stats["connections"]["open"] == 0
            slow.close()
            # The gateway still serves a well-behaved client afterwards.
            with RemoteMonitorClient(runner.host, runner.port) as client:
                events = client.stream_session(
                    np.zeros((5, N_FEATURES)), session_id="healthy"
                )
                assert len(events) == 5


    def test_fleet_overflow_is_counted_in_messages(self, monitor):
        """K=2: an EVENT message may carry several events, but the bound
        is still ``send_queue_max`` *messages* — the parked writer's
        queue fills to exactly that before the client is cut loose."""
        with running_gateway(
            monitor, n_shards=2, max_sessions=8, send_queue_max=8
        ) as runner:
            gateway = runner.gateway
            slow = RemoteMonitorClient(runner.host, runner.port)
            slow.open_session("slow")

            async def park_writer():
                (conn,) = gateway._connections.values()
                conn.writer_gate.clear()

            runner.run(park_writer())
            # Enough frames for more than send_queue_max full rounds.
            slow.feed("slow", np.zeros((200, N_FEATURES)))
            assert wait_until(lambda: gateway.failed_sessions)
            assert "overflow" in gateway.failed_sessions["slow"]
            stats = runner.stats()
            assert stats["connections"]["overflow_disconnects"] == 1
            assert stats["queues"]["peak_depth"] == 8
            assert 8 <= stats["events_sent"] < 200
            slow.close()


class TestEventHandOff:
    """PR 14: the K=1 engine lives on the loop thread, and a tick's
    events travel from either engine to the sockets as one list."""

    def test_k1_ticks_run_on_the_loop_thread(self, monitor):
        async def run():
            async with MonitorGateway(
                monitor, n_shards=1, max_sessions=4
            ) as gateway:
                service = gateway._engine.service
                tick_threads = set()
                real_tick = service.tick

                def spying_tick():
                    tick_threads.add(threading.get_ident())
                    return real_tick()

                service.tick = spying_tick
                client = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                sid = await client.open_session("s")
                await client.feed(sid, np.zeros((12, N_FEATURES)))
                for _ in range(12):
                    await asyncio.wait_for(client.next_event(), 10.0)
                await client.aclose()
                return tick_threads, threading.get_ident()

        tick_threads, loop_thread = asyncio.run(run())
        assert tick_threads == {loop_thread}

    def test_k1_backlog_shares_ticks_with_a_paced_session(self, monitor):
        """One tick per loop pass: a session fed frame by frame is served
        *inside* the ticks of another session's long backlog, not after
        it (socket reads land between the ticks)."""
        chunk = 600

        async def run():
            async with MonitorGateway(
                monitor, n_shards=1, max_sessions=4
            ) as gateway:
                service = gateway._engine.service
                ticks = []
                real_tick = service.tick

                def spying_tick():
                    events = real_tick()
                    ticks.append([(e.session_id, e.frame_index) for e in events])
                    return events

                service.tick = spying_tick
                bulk = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                paced = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                await bulk.open_session("bulk")
                await paced.open_session("paced")
                await bulk.feed("bulk", np.zeros((chunk, N_FEATURES)))
                await asyncio.wait_for(bulk.next_event(), 10.0)
                for _ in range(5):  # each frame waits for its own event
                    await paced.feed("paced", np.zeros(N_FEATURES))
                    await asyncio.wait_for(paced.next_event(), 10.0)
                for _ in range(chunk - 1):
                    await asyncio.wait_for(bulk.next_event(), 10.0)
                await bulk.aclose()
                await paced.aclose()
                return ticks

        ticks = asyncio.run(run())
        where = {key: i for i, tick in enumerate(ticks) for key in tick}
        assert where[("paced", 4)] < where[("bulk", chunk - 1)]
        shared = [t for t in ticks if ("paced", 0) in t]
        assert len(shared) == 1 and len(shared[0]) == 2  # one tick, both sessions
        assert max(len(t) for t in ticks) == 2

    def test_k1_control_ops_interleaved_with_a_backlog_stay_bit_identical(
        self, monitor
    ):
        """open / close / export (park) / import (resume) all run on the
        loop thread between the ticks of a backlog; every stream still
        equals a plain MonitorService's."""
        long = make_random_walk_trajectory(300, n_features=N_FEATURES, seed=31)
        short = make_random_walk_trajectory(20, n_features=N_FEATURES, seed=32)
        moved = make_random_walk_trajectory(60, n_features=N_FEATURES, seed=33)
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            gateway = runner.gateway
            with RemoteMonitorClient(runner.host, runner.port) as client:
                client.open_session("long")
                client.feed("long", long.frames)  # the backlog
                # open + feed + drain-and-close inside it
                client.open_session("short")
                client.feed("short", short.frames)
                short_events = client.events_for("short", short.n_frames)
                assert client.close_session("short")["n_frames"] == 20
                # export with pending frames (park) + import (resume)
                first = RemoteMonitorClient(runner.host, runner.port)
                first.open_session("moved")
                first.feed("moved", moved.frames[:40])
                moved_events = first.events_for("moved", 5)
                first.close()
                state = first.detach_session("moved")
                assert wait_until(lambda: gateway.n_parked_sessions == 1)
                with RemoteMonitorClient(runner.host, runner.port) as second:
                    second.resume_session(state)
                    second.feed("moved", moved.frames[40:])
                    moved_events += second.events_for("moved", 55)
                    second.close_session("moved")
                long_events = client.events_for("long", long.n_frames)
            assert not gateway.failed_sessions
        for events, trajectory, sid in (
            (long_events, long, "long"),
            (short_events, short, "short"),
            (moved_events, moved, "moved"),
        ):
            assert [event_key(e) for e in events] == [
                event_key(e)
                for e in local_events(monitor, trajectory, session_id=sid)
            ]

    def test_k2_one_fleet_tick_is_one_event_message_per_connection(
        self, monitor, tmp_path
    ):
        """Raw socket, K=2: every shard round's events for this connection
        (up to ``TICKS_PER_ROUND`` ticks) arrive as exactly one EVENT
        message, in tick order; the decoded stream and the on-disk replay
        are bit-identical to a local run."""
        fleet = {
            f"proc-{i}": make_random_walk_trajectory(
                20, n_features=N_FEATURES, seed=80 + i
            )
            for i in range(6)
        }
        store = EventStoreWriter(tmp_path)
        with running_gateway(
            monitor, n_shards=2, max_sessions=8, event_store=store
        ) as runner:
            frontend = runner.gateway._engine
            service = frontend.service
            batches = []
            real_tick = frontend._tick

            async def spying_tick(index):
                events = await real_tick(index)
                if events:
                    batches.append(tuple(event_key(e) for e in events))
                return events

            frontend._tick = spying_tick
            raw = socket.create_connection((runner.host, runner.port))
            raw.settimeout(10.0)
            reader = MessageReader()
            messages = []

            def pump(until):
                while not until():
                    data = raw.recv(65536)
                    assert data, "gateway closed the connection"
                    reader.feed(data)
                    messages.extend(reader.messages())

            try:
                raw.sendall(
                    b"".join(
                        encode_message(
                            MessageType.OPEN,
                            protocol.encode_json({"session_id": sid}),
                        )
                        for sid in fleet
                    )
                )
                pump(lambda: len(messages) == len(fleet))
                assert all(t is MessageType.OPEN for t, _ in messages)
                messages.clear()
                raw.sendall(
                    b"".join(
                        encode_message(
                            MessageType.FRAME,
                            encode_frames(sid, trajectory.frames),
                        )
                        for sid, trajectory in fleet.items()
                    )
                )
                total = sum(t.n_frames for t in fleet.values())
                pump(
                    lambda: sum(
                        len(decode_events(p))
                        for t, p in messages
                        if t is MessageType.EVENT
                    )
                    == total
                )
                # Read before the close: the gateway fails the dropped
                # connection's sessions safe and takes them off their shards.
                on_one_shard = max(
                    len(service.sessions_on(i)) for i in service.shard_indices
                )
            finally:
                raw.close()
        store.close()
        event_messages = [
            tuple(event_key(e) for e in decode_events(payload))
            for msg_type, payload in messages
            if msg_type is MessageType.EVENT
        ]
        # One message per non-empty shard round, same content, and fewer
        # messages than events: sessions sharing a shard share messages,
        # and the ticks of one round share them too.
        assert sorted(event_messages) == sorted(batches)
        assert on_one_shard >= 2
        sessions_per_message = [len({key[0] for key in m}) for m in event_messages]
        assert max(sessions_per_message) == on_one_shard
        assert max(len(m) for m in event_messages) > on_one_shard
        for message in event_messages:
            per_session = {}
            for key in message:
                per_session[key[0]] = per_session.get(key[0], 0) + 1
            assert max(per_session.values()) <= TICKS_PER_ROUND
        streams = {sid: [] for sid in fleet}
        for message in event_messages:
            for key in message:
                streams[key[0]].append(key)
        replayed = {sid: [] for sid in fleet}
        for event in EventStoreReader(tmp_path).replay():
            if event.error is None:  # the raw close fails each session safe
                replayed[event.session_id].append(event_key(event))
        for sid, trajectory in fleet.items():
            reference = [
                event_key(e)
                for e in local_events(monitor, trajectory, session_id=sid)
            ]
            assert streams[sid] == reference
            assert replayed[sid] == reference

    def test_sink_gets_each_round_as_one_list(self, monitor):
        """`AsyncShardedMonitor`'s sink gets each tick round's events as
        one non-empty list, in per-session frame order, and a killed
        shard's crash terminals arrive through it too, last in their
        sessions' streams."""
        frames = np.zeros((6, N_FEATURES))
        sunk = []

        async def run():
            with ShardedMonitorService(
                monitor, n_shards=2, max_sessions_per_shard=4
            ) as service:
                async with AsyncShardedMonitor(service, sunk.append) as frontend:
                    sids = [
                        await frontend.open_session(f"proc-{i}")
                        for i in range(4)
                    ]
                    assert len({service.shard_of(s) for s in sids}) == 2
                    for sid in sids:
                        await frontend.feed(sid, frames)
                    await frontend.drain()
                    victim = service.shard_of(sids[0])
                    victims = {s for s in sids if service.shard_of(s) == victim}
                    os.kill(service._shards[victim].process.pid, signal.SIGKILL)
                    deadline = time.monotonic() + 10.0
                    while (
                        sum(e.error is not None for b in sunk for e in b)
                        < len(victims)
                        and time.monotonic() < deadline
                    ):
                        await asyncio.sleep(0.02)
                    return sids, victims

        sids, victims = asyncio.run(run())
        assert all(isinstance(b, list) and b for b in sunk)
        flat = [e for b in sunk for e in b]
        assert all(isinstance(e, SessionEvent) for e in flat)
        for sid in sids:
            mine = [e for e in flat if e.session_id == sid]
            normal = [e.frame_index for e in mine if e.error is None]
            assert normal == list(range(6))
            crashed = [e for e in mine if e.error is not None]
            assert len(crashed) == (1 if sid in victims else 0)
            assert all(e.flag and e is mine[-1] for e in crashed)


class TestGatewayStats:
    def test_counters_and_shard_aggregation(self, monitor):
        with running_gateway(monitor, n_shards=2, max_sessions=8) as runner:
            with RemoteMonitorClient(
                runner.host, runner.port
            ) as a, RemoteMonitorClient(runner.host, runner.port) as b:
                for i, client in enumerate((a, b)):
                    sid = client.open_session(f"proc-{i}")
                    client.feed(sid, np.zeros((4, N_FEATURES)))
                    client.events_for(sid, 4)
                stats = a.gateway_stats()
                assert stats["protocol_version"] == PROTOCOL_VERSION
                assert stats["n_shards"] == 2
                assert stats["connections"]["open"] == 2
                assert stats["connections"]["total"] == 2
                assert stats["sessions"]["open"] == 2
                assert stats["sessions"]["peak_open"] == 2
                assert stats["frames_received"] == 8
                assert stats["events_sent"] >= 8
                assert stats["queues"]["capacity"] == 1024
                shard_totals = sum(
                    s["frames_processed"] for s in stats["shards"].values()
                )
                assert shard_totals == 8
                assert all(
                    s["tick_p99_ms"] >= s["tick_p50_ms"] >= 0.0
                    for s in stats["shards"].values()
                )

    def test_one_stats_exchange_per_shard_carries_the_telemetry(self, monitor):
        """A K=2 ``gateway_stats()`` sends each live shard one request,
        and its telemetry still holds the shards' registries, the
        router's counters and every gateway count as ``gateway_*``."""
        from test_sharded import count_exchanges

        with running_gateway(monitor, n_shards=2, max_sessions=8) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                for i in range(4):
                    sid = client.open_session(f"proc-{i}")
                    client.feed(sid, np.zeros((4, N_FEATURES)))
                    client.events_for(sid, 4)
                tallies = count_exchanges(runner.gateway._fleet)
                stats = runner.run(runner.gateway.gateway_stats())
                ops = {i: list(tally["ops"]) for i, tally in tallies.items()}
        assert ops == {0: ["stats"], 1: ["stats"]}
        telemetry = stats["telemetry"]
        counters = telemetry["counters"]
        assert counters["events_emitted"] == counters["events_delivered"] == 16
        assert telemetry["histograms"]["alert_latency_us"]["count"] == 16
        assert counters["gateway_frames_received"] == stats["frames_received"] == 16
        assert counters["gateway_sessions_opened"] == 4
        for key in ("restore_retries_total", "parked_total", "recovered_total"):
            assert counters[f"gateway_{key}"] == stats["resume"][key] == 0
        assert counters["gateway_overflow_disconnects"] == 0
        assert counters["gateway_idle_disconnects"] == 0


class TestGatewayResize:
    def test_client_session_rides_through_resizes(self, monitor):
        """A socket session streaming across a K=2→4→1 gateway resize
        sees the exact event stream of the local engine — no fail-safe
        closure, no gap, no reorder — and STATS reports the resizes."""
        trajectory = make_random_walk_trajectory(
            45, n_features=N_FEATURES, seed=61
        )
        reference = local_events(
            monitor, trajectory, session_id="theatre-elastic"
        )
        with running_gateway(monitor, n_shards=2, max_sessions=16) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sid = client.open_session("theatre-elastic")
                chunks = np.array_split(trajectory.frames, 3)
                events = []
                client.feed(sid, chunks[0])
                events += client.events_for(sid, len(chunks[0]))
                summary = runner.run(runner.gateway.resize(4))
                assert (summary["from"], summary["to"]) == (2, 4)
                client.feed(sid, chunks[1])
                events += client.events_for(sid, len(chunks[1]))
                runner.run(runner.gateway.resize(1))
                client.feed(sid, chunks[2])
                events += client.events_for(sid, len(chunks[2]))
                stats = client.gateway_stats()
                close_summary = client.close_session(sid)
        assert [event_key(e) for e in events] == [
            event_key(e) for e in reference
        ]
        assert close_summary["n_frames"] == trajectory.n_frames
        assert stats["n_shards"] == 1
        assert stats["resizes"]["count"] == 2
        assert [
            (e["from"], e["to"]) for e in stats["resizes"]["events"]
        ] == [(2, 4), (4, 1)]
        assert all(
            e["trigger"] == "manual" for e in stats["resizes"]["events"]
        )
        assert stats["sessions"]["failed_total"] == 0
        assert not runner.gateway.failsafe_events

    @pytest.mark.parametrize(
        "tick_ms, expected", [(33.3, 4), (8.0, 2), (None, 1)],
        ids=["hot", "in-band", "idle"],
    )
    def test_operator_recipe_resizes_to_the_policy_count(
        self, monitor, tmp_path, tick_ms, expected
    ):
        """The manual scaling recipe: the policy reads the gateway's own
        per-shard snapshot (every shard at ``tick_ms`` p99 here, so no
        wall clock decides), the operator resizes to its answer, and a
        socket session rides through; the resize is on the record with
        ``trigger: "manual"``, in STATS and in the event store."""
        trajectory = make_random_walk_trajectory(
            30, n_features=N_FEATURES, seed=62
        )
        reference = local_events(monitor, trajectory, session_id="recipe")
        store = EventStoreWriter(tmp_path)
        with running_gateway(
            monitor, n_shards=2, max_sessions=16, event_store=store
        ) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sid = client.open_session("recipe")
                head, tail = np.array_split(trajectory.frames, 2)
                client.feed(sid, head)
                events = client.events_for(sid, len(head))
                snapshot = runner.run(runner.gateway.shard_stats())
                assert sorted(snapshot) == sorted(
                    runner.gateway._engine.service.shard_indices
                )
                assert all(isinstance(s, ServiceStats) for s in snapshot.values())
                load = {index: ServiceStats(capacity=100) for index in snapshot}
                for stats in load.values():
                    for _ in range(100 if tick_ms is not None else 0):
                        stats.record(tick_ms, 4)
                k = suggest_shard_count(load, max_shards=4)
                assert k == expected
                summary = runner.run(runner.gateway.resize(k))
                assert (summary["from"], summary["to"]) == (2, expected)
                client.feed(sid, tail)
                events += client.events_for(sid, len(tail))
                stats = client.gateway_stats()
                client.close_session(sid)
        store.close()
        assert [event_key(e) for e in events] == [
            event_key(e) for e in reference
        ]
        assert stats["n_shards"] == expected
        (event,) = stats["resizes"]["events"]
        assert (event["from"], event["to"], event["trigger"]) == (
            2,
            expected,
            "manual",
        )
        markers = list(EventStoreReader(tmp_path).iter_markers())
        assert markers == [dict(event, type="resize")]

    def test_refused_resize_leaves_every_shard_serving(self, monitor, crowded_pair):
        """A resize refused part-way — the first session moved onto the
        new shard, which is then full for the second — still leaves
        every live shard ticked: each socket session gets all its
        events, no CLOSE reports fewer frames than were fed, and STATS
        counts the shards it lists."""
        trajectories = {
            sid: make_random_walk_trajectory(20, n_features=N_FEATURES, seed=64 + i)
            for i, sid in enumerate(crowded_pair)
        }
        with running_gateway(monitor, n_shards=2, max_sessions=1) as runner:
            with RemoteMonitorClient(runner.host, runner.port, timeout_s=10.0) as client:
                for sid in trajectories:
                    client.open_session(sid)
                with pytest.raises(ConfigurationError, match="full"):
                    runner.run(runner.gateway.resize(3))
                for sid, trajectory in trajectories.items():
                    client.feed(sid, trajectory.frames)
                events = {sid: client.events_for(sid, 20) for sid in trajectories}
                stats = client.gateway_stats()
                closes = {sid: client.close_session(sid) for sid in trajectories}
        for sid, trajectory in trajectories.items():
            assert [event_key(e) for e in events[sid]] == [
                event_key(e) for e in local_events(monitor, trajectory, session_id=sid)
            ]
            assert closes[sid]["n_frames"] == 20
        assert stats["n_shards"] == len(stats["shards"]) == 3
        assert stats["resizes"]["count"] == 0
        assert not runner.gateway.failsafe_events

    @pytest.mark.parametrize("change", ["resize", "shed"])
    def test_shape_changes_need_a_started_gateway(self, monitor, change):
        gateway = MonitorGateway(monitor, n_shards=2, max_sessions=4)
        call = gateway.resize(3) if change == "resize" else gateway.shed(["s"], 0)
        with pytest.raises(ConfigurationError, match="not started"):
            asyncio.run(call)
        assert gateway.resize_events == [] and gateway.shed_events == []

    def test_embedded_engine_rejects_resize(self, monitor):
        with running_gateway(monitor, n_shards=1, max_sessions=4) as runner:
            with pytest.raises(ConfigurationError, match="n_shards >= 2"):
                runner.run(runner.gateway.resize(2))
            stats = runner.stats()
            assert stats["resizes"]["count"] == 0


class TestSnapshotRestart:
    def test_backend_choice_survives_gateway_restarts(self, monitor):
        """The satellite contract: a float32 compiled backend embedded
        in the snapshot drives every gateway booted from those bytes —
        across restarts — and the served events match the local
        compiled-f32 engine bit for bit."""
        blob = monitor_to_bytes(monitor, backend="compiled-f32")
        trajectory = make_random_walk_trajectory(
            25, n_features=N_FEATURES, seed=31
        )
        reference = local_events(
            monitor_from_bytes(blob), trajectory, backend="compiled-f32"
        )
        runs = []
        for _ in range(2):  # boot, serve, stop; then boot again
            with running_gateway(monitor_bytes=blob, max_sessions=4) as runner:
                assert runner.gateway.backend == "compiled-f32"
                with RemoteMonitorClient(runner.host, runner.port) as client:
                    runs.append(
                        client.stream_session(trajectory.frames, session_id="s")
                    )
        for events in runs:
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]

    def test_explicit_backend_overrides_snapshot(self, monitor):
        blob = monitor_to_bytes(monitor, backend="compiled")
        gateway = MonitorGateway(monitor_bytes=blob, backend="reference")
        assert gateway.backend == "reference"
        gateway = MonitorGateway(monitor_bytes=blob)
        assert gateway.backend == "compiled"


class TestPartialStart:
    def test_failed_bind_terminates_spawned_workers(self, monitor, monkeypatch):
        """A start() that spawns the shard fleet but fails to bind the
        socket must not leave orphaned worker processes behind."""
        from repro.serving import ShardedMonitorService

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken_port = blocker.getsockname()[1]

        spawned = []
        original_close = ShardedMonitorService.close

        def capturing_close(self):
            spawned.extend(h.process for h in self._shards.values())
            original_close(self)

        monkeypatch.setattr(ShardedMonitorService, "close", capturing_close)

        async def run():
            gateway = MonitorGateway(
                monitor, n_shards=2, max_sessions=4, port=taken_port
            )
            with pytest.raises(OSError):
                await gateway.start()
            await gateway.stop()  # must not raise on the partial state

        try:
            asyncio.run(run())
        finally:
            blocker.close()
        assert len(spawned) == 2
        for process in spawned:
            assert not process.is_alive()


class TestProtocolOverTheWire:
    def test_garbage_bytes_get_a_protocol_error_then_disconnect(self, monitor):
        with running_gateway(monitor, n_shards=1, max_sessions=4) as runner:
            raw = socket.create_connection((runner.host, runner.port))
            raw.settimeout(10.0)
            raw.sendall(struct.pack("!BBHI", 99, 1, 0, 0))  # wrong version
            reader = MessageReader()
            got_error = False
            try:
                while True:
                    data = raw.recv(4096)
                    if not data:
                        break
                    reader.feed(data)
                    for msg_type, payload in reader.messages():
                        if msg_type is MessageType.ERROR:
                            info = protocol.decode_json(payload)
                            assert info["error_type"] == "ProtocolError"
                            got_error = True
            finally:
                raw.close()
            assert got_error

    def test_malformed_close_session_id_gets_protocol_error(self, monitor):
        """A CLOSE whose session_id is not a string (e.g. a list) must be
        rejected as a protocol violation, not crash the handler."""
        with running_gateway(monitor, n_shards=1, max_sessions=4) as runner:
            raw = socket.create_connection((runner.host, runner.port))
            raw.settimeout(10.0)
            raw.sendall(
                encode_message(
                    MessageType.CLOSE,
                    protocol.encode_json({"session_id": ["not", "a", "str"]}),
                )
            )
            reader = MessageReader()
            got_error = False
            try:
                while not got_error:
                    data = raw.recv(4096)
                    if not data:
                        break
                    reader.feed(data)
                    for msg_type, payload in reader.messages():
                        if msg_type is MessageType.ERROR:
                            info = protocol.decode_json(payload)
                            assert info["error_type"] == "ProtocolError"
                            got_error = True
            finally:
                raw.close()
            assert got_error
            # The gateway is unharmed: a fresh client still gets served.
            with RemoteMonitorClient(runner.host, runner.port) as client:
                events = client.stream_session(
                    np.zeros((3, N_FEATURES)), session_id="after"
                )
                assert len(events) == 3

    @pytest.mark.parametrize(
        "request_, refusal",
        [
            ({"session_id": 7, "token": "TOKEN"}, "session_id and token strings"),
            ({"session_id": "m", "token": None}, "session_id and token strings"),
            ({"session_id": "m", "token": "TOKEN", "last_event": -1}, "non-negative"),
            ({"session_id": "m", "token": "TOKEN", "last_event": True}, "non-negative"),
        ],
        ids=["id", "token", "negative", "boolean"],
    )
    def test_malformed_resume_gets_protocol_error(self, monitor, request_, refusal):
        """A RESUME whose id or token is not a string, or whose
        ``last_event`` is not a non-negative int — a JSON ``true`` is no
        count, however Python ranks bool — is a protocol violation: an
        ERROR, then the connection ends, and the parked session it names
        stays parked."""
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("m")
            first.feed(sid, np.zeros((2, N_FEATURES)))
            first.events_for(sid, 2)
            first.close()
            token = first.detach_session(sid).token
            assert wait_until(lambda: runner.gateway.n_parked_sessions == 1)
            if request_.get("token") == "TOKEN":
                request_ = dict(request_, token=token)
            raw = socket.create_connection((runner.host, runner.port))
            raw.settimeout(10.0)
            raw.sendall(encode_message(MessageType.RESUME, encode_json(request_)))
            reader = MessageReader()
            answers = []
            try:
                while True:
                    data = raw.recv(4096)
                    if not data:
                        break  # the gateway ended the connection
                    reader.feed(data)
                    answers += [
                        message
                        for message in reader.messages()
                        if message[0] is not MessageType.HEARTBEAT
                    ]
            finally:
                raw.close()
            assert [msg_type for msg_type, _ in answers] == [MessageType.ERROR]
            info = protocol.decode_json(answers[0][1])
            assert info["error_type"] == "ProtocolError"
            assert refusal in info["error"]
            assert runner.gateway.n_parked_sessions == 1

    def test_an_old_clients_record_timeline_key_is_ignored(
        self, monitor, monkeypatch
    ):
        """Nothing reads a wire session's engine-side timeline (the CLOSE
        reply is built from the gateway's record), so no OPEN can make
        the engine grow two list entries per frame for the life of the
        procedure."""
        monkeypatch.setattr(
            _SessionCore,
            "open_message",
            staticmethod(
                lambda session_id, *_: encode_message(
                    MessageType.OPEN,
                    encode_json({"session_id": session_id, "record_timeline": True}),
                )
            ),
        )
        with running_gateway(monitor, n_shards=1, max_sessions=4) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sid = client.open_session("old")
                client.feed(sid, np.zeros((6, N_FEATURES)))
                assert len(client.events_for(sid, 6)) == 6
                session = runner.gateway._engine.service._sessions[sid]
                assert session.frames_done == 6
                assert (session.gestures, session.scores) == ([], [])
                assert client.close_session(sid)["n_frames"] == 6

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_session_id_no_event_can_carry_is_refused_at_open(
        self, monitor, n_shards
    ):
        """OPEN is JSON and would take any id; ACK and EVENT name the
        session in a u16-length UTF-8 field.  An id that does not fit
        one (too long, or not UTF-8 text at all) is refused when it is
        asked for — typed, in reply to OPEN, the connection intact —
        not discovered when its first alert cannot be encoded."""
        with running_gateway(
            monitor, n_shards=n_shards, max_sessions=4
        ) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                with pytest.raises(ProtocolError, match="65536 bytes"):
                    client.open_session("é" * 32768)
                with pytest.raises(WorkerError, match="UnicodeEncodeError"):
                    client.open_session("lone-surrogate-\ud800")
                assert runner.gateway.n_open_sessions == 0
                longest = "x" * 0xFFFF  # the bound itself still fits
                assert client.open_session(longest) == longest
                client.feed(longest, np.zeros((2, N_FEATURES)))
                assert len(client.events_for(longest, 2)) == 2
                assert client.close_session(longest)["n_frames"] == 2

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_unencodable_event_costs_only_its_own_connection(
        self, monitor, n_shards, tmp_path, monkeypatch
    ):
        """A crash batch in which one connection's EVENT cannot be
        encoded: the batch is teed whole, every other connection still
        receives its terminal event, and the connection that cannot be
        told is cut off with its remaining sessions failed safe."""
        from repro.serving.remote import gateway as gateway_module

        def encode_unless_poisoned(events):
            if any(e.session_id == "poison" for e in events):
                raise ProtocolError("session id of 70000 bytes is too long")
            return encode_events(events)

        monkeypatch.setattr(
            gateway_module, "encode_events", encode_unless_poisoned
        )
        store = EventStoreWriter(tmp_path)
        with running_gateway(
            monitor, n_shards=n_shards, max_sessions=8, event_store=store
        ) as runner:
            gateway = runner.gateway
            first = RemoteMonitorClient(runner.host, runner.port)
            first.open_session("poison")
            first.open_session("sibling")
            with RemoteMonitorClient(runner.host, runner.port) as second:
                second.open_session("bystander")

                async def crash():
                    gateway._route_events(
                        [
                            SessionEvent.failsafe(sid, 0, "shard 0 worker died")
                            for sid in ("poison", "bystander")
                        ]
                    )

                runner.run(crash())
                event = second.next_event()
                assert event_key(event) == (
                    "bystander", 0, 0, 0.0, True, "shard 0 worker died"
                )
            assert wait_until(lambda: "sibling" in gateway.failed_sessions)
            assert "unencodable event" in gateway.failed_sessions["sibling"]
            assert set(gateway.failed_sessions) == {
                "poison", "sibling", "bystander"
            }
            first.close()
        store.close()
        logged = [e for e in EventStoreReader(tmp_path).replay() if e.error]
        assert sorted(e.session_id for e in logged) == [
            "bystander", "poison", "sibling"
        ]
        assert all(e.flag for e in logged)


class TestResume:
    """Session resume over reconnects (PR 7): park/adopt, seq/ack
    replay, token auth, grace expiry, and transparent worker-crash
    recovery — the stream a resuming client assembles must be
    bit-identical to an uninterrupted local run."""

    def test_detach_resume_is_bit_identical(self, monitor):
        trajectory = make_random_walk_trajectory(
            24, n_features=N_FEATURES, seed=71
        )
        reference = local_events(monitor, trajectory, session_id="r")
        with running_gateway(
            monitor, n_shards=2, max_sessions=8, resume_grace_s=30.0
        ) as runner:
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("r")
            first.feed(sid, trajectory.frames[:10])
            events = first.events_for(sid, 10)
            # Drop the connection without closing the session: the
            # gateway parks it for the grace window instead of failing
            # it safe.
            first.close()
            state = first.detach_session(sid)
            assert state.token and state.next_seq == 10
            assert wait_until(lambda: runner.gateway.n_parked_sessions == 1)
            with RemoteMonitorClient(runner.host, runner.port) as second:
                assert second.resume_session(state) == sid
                second.feed(sid, trajectory.frames[10:])
                events += second.events_for(sid, 14)
                summary = second.close_session(sid)
            assert summary["n_frames"] == 24
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]
            assert not runner.gateway.failed_sessions
            stats = runner.stats()["resume"]
            assert stats["enabled"] and stats["resumed_total"] == 1
            assert stats["parked_total"] == 1 and stats["parked"] == 0

    def test_resume_replays_unacked_frames_and_missed_events(self, monitor):
        """Disconnect with frames possibly unacked and events undelivered:
        the client replays its buffered tail (the gateway trims the
        overlap by seq) and the gateway replays the missed events — no
        gap, no duplicate."""
        trajectory = make_random_walk_trajectory(
            16, n_features=N_FEATURES, seed=72
        )
        reference = local_events(monitor, trajectory, session_id="u")
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("u")
            first.feed(sid, trajectory.frames[:9])
            # Read nothing back: every event is "missed", and the ACK
            # may or may not have crossed the wire when we vanish.
            first.close()
            state = first.detach_session(sid)
            assert state.acked_seq == 0 and len(state.buffer) == 1
            assert wait_until(lambda: runner.gateway.n_parked_sessions == 1)
            with RemoteMonitorClient(runner.host, runner.port) as second:
                second.resume_session(state)
                second.feed(sid, trajectory.frames[9:])
                events = second.events_for(sid, 16)
                second.close_session(sid)
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]

    def test_pending_events_carry_over(self, monitor):
        """Events decoded by the dead connection but never consumed ride
        the ResumeState and come out of the new client first."""
        trajectory = make_random_walk_trajectory(
            8, n_features=N_FEATURES, seed=73
        )
        reference = local_events(monitor, trajectory, session_id="p")
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("p")
            first.feed(sid, trajectory.frames)
            # Force the events onto this client's buffer, then put them
            # back unconsumed so detach must carry them.
            events = first.events_for(sid, 8)
            first._core.events.extendleft(reversed(events))
            first.close()
            state = first.detach_session(sid)
            assert len(state.pending_events) == 8
            assert state.events_received == 8
            assert wait_until(lambda: runner.gateway.n_parked_sessions == 1)
            with RemoteMonitorClient(runner.host, runner.port) as second:
                second.resume_session(state)
                events = second.events_for(sid, 8)
                second.close_session(sid)
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]

    def test_resume_token_mismatch_rejected(self, monitor):
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("t")
            first.feed(sid, np.zeros((2, N_FEATURES)))
            first.events_for(sid, 2)
            first.close()
            state = first.detach_session(sid)
            assert wait_until(lambda: runner.gateway.n_parked_sessions == 1)
            state.token = "0" * len(state.token)
            with RemoteMonitorClient(runner.host, runner.port) as second:
                with pytest.raises(ProtocolError, match="token mismatch"):
                    second.resume_session(state)
            # The parked session is untouched — a forger must not be
            # able to evict it.
            assert runner.gateway.n_parked_sessions == 1

    def test_resume_unknown_session_rejected(self, monitor):
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                ghost = ResumeState(
                    session_id="never-opened",
                    token="f" * 32,
                    next_seq=0,
                    acked_seq=0,
                    events_received=0,
                )
                with pytest.raises(ProtocolError, match="no parked session"):
                    client.resume_session(ghost)

    def test_grace_expiry_fails_safe(self, monitor):
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=0.2
        ) as runner:
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("late")
            first.feed(sid, np.zeros((2, N_FEATURES)))
            first.events_for(sid, 2)
            first.close()
            state = first.detach_session(sid)
            assert wait_until(lambda: sid in runner.gateway.failed_sessions)
            assert "grace window expired" in runner.gateway.failed_sessions[sid]
            assert runner.gateway.n_parked_sessions == 0
            # Resuming after expiry names the failure.
            with RemoteMonitorClient(runner.host, runner.port) as second:
                with pytest.raises(WorkerError, match="failed"):
                    second.resume_session(state)
            assert runner.stats()["resume"]["expired_total"] == 1

    def test_resume_disabled_by_default(self, monitor):
        """resume_grace_s=0 keeps PR 4's fail-safe disconnect contract:
        no token in the OPEN ack, detach refuses, and a disconnect
        drains-and-closes as before."""
        with running_gateway(monitor, n_shards=1, max_sessions=4) as runner:
            assert not runner.stats()["resume"]["enabled"]
            client = RemoteMonitorClient(runner.host, runner.port)
            sid = client.open_session("legacy")
            with pytest.raises(ProtocolError, match="no resume state"):
                client.detach_session(sid)

    def test_worker_crash_recovers_transparently(self, monitor):
        """With resume enabled, a SIGKILLed shard worker no longer kills
        its sessions: the gateway replays each journal onto a live
        shard and the client's stream continues, bit-identical."""
        trajectory = make_random_walk_trajectory(
            20, n_features=N_FEATURES, seed=74
        )
        with running_gateway(
            monitor, n_shards=2, max_sessions=16, resume_grace_s=30.0
        ) as runner:
            gateway = runner.gateway
            service = gateway._engine.service
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sids = [client.open_session(f"proc-{i}") for i in range(6)]
                placement = {sid: service.shard_of(sid) for sid in sids}
                assert len(set(placement.values())) == 2
                collected = {sid: [] for sid in sids}
                for sid in sids:
                    client.feed(sid, trajectory.frames[:12])
                for sid in sids:  # let the backlog fully drain first
                    collected[sid].extend(client.events_for(sid, 12))
                victim_shard = placement[sids[0]]
                process = service._shards[victim_shard].process
                os.kill(process.pid, signal.SIGKILL)
                process.join(10.0)
                assert wait_until(
                    lambda: runner.stats()["resume"]["recovered_total"]
                    >= sum(
                        1 for s in sids if placement[s] == victim_shard
                    )
                )
                for sid in sids:
                    client.feed(sid, trajectory.frames[12:])
                for sid in sids:
                    collected[sid].extend(client.events_for(sid, 8))
                for sid in sids:
                    assert client.close_session(sid)["n_frames"] == 20
            assert not gateway.failed_sessions
            for sid in sids:
                reference = local_events(monitor, trajectory, session_id=sid)
                assert [event_key(e) for e in collected[sid]] == [
                    event_key(e) for e in reference
                ], sid

    def test_resume_onto_a_just_killed_worker_lands_on_a_survivor(self, monitor):
        """A worker SIGKILLed just as a parked session's RESUME imports
        onto it: its ticker has not seen the exit yet, so the shard is
        still in the hash ring and the import is the exchange that
        discovers the death.  The import dies with the worker; the
        restore must start over and land the session on a survivor
        instead of failing it."""
        trajectory = make_random_walk_trajectory(
            24, n_features=N_FEATURES, seed=76
        )
        reference = local_events(monitor, trajectory, session_id="k")
        with running_gateway(
            monitor, n_shards=2, max_sessions=8, resume_grace_s=30.0
        ) as runner:
            gateway = runner.gateway
            engine = gateway._engine
            service = engine.service
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("k")
            first.feed(sid, trajectory.frames[:10])
            events = first.events_for(sid, 10)
            home = service.shard_of(sid)
            first.close()
            state = first.detach_session(sid)
            assert wait_until(lambda: gateway.n_parked_sessions == 1)
            process = service._shards[home].process
            real_import = engine.import_session

            async def import_onto_a_dying_worker(state, record_timeline=True):
                # Killed and reaped on the loop thread, so the home
                # shard's ticker cannot run before the import takes the
                # shard's turns: the import is what finds it dead.
                if process.is_alive():
                    os.kill(process.pid, signal.SIGKILL)
                    process.join(10.0)
                return await real_import(state, record_timeline)

            engine.import_session = import_onto_a_dying_worker
            with RemoteMonitorClient(runner.host, runner.port) as second:
                assert second.resume_session(state) == sid
                second.feed(sid, trajectory.frames[10:])
                events += second.events_for(sid, 14)
                assert second.close_session(sid)["n_frames"] == 24
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]
            assert not gateway.failed_sessions
            assert service.shard_indices == [1 - home]
            assert runner.stats()["resume"]["restore_retries_total"] >= 1

    def test_async_detach_resume(self, monitor):
        trajectory = make_random_walk_trajectory(
            12, n_features=N_FEATURES, seed=75
        )
        reference = local_events(monitor, trajectory, session_id="a")

        async def run():
            async with MonitorGateway(
                monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
            ) as gateway:
                first = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                sid = await first.open_session("a")
                await first.feed(sid, trajectory.frames[:7])
                events = []
                for _ in range(7):
                    events.append(
                        await asyncio.wait_for(first.next_event(), 10.0)
                    )
                await first.aclose()
                state = first.detach_session(sid)
                assert state.next_seq == 7

                async def parked():
                    return gateway.n_parked_sessions == 1

                deadline = asyncio.get_running_loop().time() + 10.0
                while not await parked():
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                second = await AsyncRemoteMonitorClient.connect(
                    gateway.host, gateway.port
                )
                try:
                    assert await second.resume_session(state) == sid
                    await second.feed(sid, trajectory.frames[7:])
                    for _ in range(5):
                        events.append(
                            await asyncio.wait_for(second.next_event(), 10.0)
                        )
                    summary = await second.close_session(sid)
                finally:
                    await second.aclose()
                assert summary["n_frames"] == 12
                return events

        events = asyncio.run(run())
        assert [event_key(e) for e in events] == [
            event_key(e) for e in reference
        ]


class TestRestoreCost:
    """A session is its stream position and its last ``W`` frames: what
    the gateway holds for it, and what bringing its engine side back
    costs, must not grow with how long it has run."""

    CHUNK = 100

    @pytest.mark.parametrize("loss", ["worker killed", "client resumes"])
    def test_restore_is_flat_and_the_journal_bounded(self, monitor, loss):
        """3 000 frames in, then the engine side is lost — its worker
        SIGKILLed, or released by a disconnect and brought back by the
        RESUME.  The engine is handed ``W`` rows (plus what was still in
        flight, here nothing), not the session's history; the record
        never held more than ``W`` + a batch + the undelivered; and the
        stream the client assembles is the uninterrupted local one."""
        trajectory = make_random_walk_trajectory(
            3200, n_features=N_FEATURES, seed=91
        )
        reference = local_events(monitor, trajectory, session_id="long")
        with running_gateway(
            monitor, n_shards=2, max_sessions=8, resume_grace_s=30.0
        ) as runner:
            gateway = runner.gateway
            engine = gateway._engine
            window = engine.service.history_frames
            assert window == 5
            handed = []  # rows per engine call, restore or not
            real_import, real_feed = engine.import_session, engine.feed

            async def spied_import(state, record_timeline=True):
                archive = session_from_bytes(state)
                handed.append(archive.recent.shape[0] + archive.pending_frames)
                return await real_import(state, record_timeline)

            async def spied_feed(session_id, frames):
                handed.append(frames.shape[0])
                return await real_feed(session_id, frames)

            engine.import_session, engine.feed = spied_import, spied_feed
            client = RemoteMonitorClient(runner.host, runner.port)
            sid = client.open_session("long")
            events = []
            for start in range(0, 3000, self.CHUNK):
                client.feed(sid, trajectory.frames[start : start + self.CHUNK])
                events += client.events_for(sid, self.CHUNK)
                held = runner.stats()["resume"]["journal_frames"]
                assert held <= window + self.CHUNK, (start, held)
            assert gateway._sessions[sid].delivered == 3000
            del handed[:]
            if loss == "worker killed":
                process = engine.service._shards[
                    engine.service.shard_of(sid)
                ].process
                os.kill(process.pid, signal.SIGKILL)
                process.join(10.0)
                assert wait_until(
                    lambda: runner.stats()["resume"]["recovered_total"] == 1
                )
            else:
                client.close()
                state = client.detach_session(sid)
                assert wait_until(lambda: gateway.n_parked_sessions == 1)
                client = RemoteMonitorClient(runner.host, runner.port)
                assert client.resume_session(state) == sid
            # One import per attempt, each of W rows, and not one feed.
            retries = runner.stats()["resume"]["restore_retries_total"]
            assert handed == [window] * (1 + retries)
            client.feed(sid, trajectory.frames[3000:])
            events += client.events_for(sid, 200)
            assert client.close_session(sid)["n_frames"] == 3200
            client.close()
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]
            assert not gateway.failed_sessions
            assert runner.stats()["resume"]["journal_frames"] == 0


class TestResumeReplay:
    """The gateway-side resume paths: the missed-event replay as one
    EVENT message, the restore a RESUME retries like crash recovery
    does, and the one admission check behind both the parked and the
    steal route."""

    @pytest.mark.parametrize("resumer", ["sync", "async"])
    def test_replay_larger_than_the_send_queue_resumes(self, monitor, resumer):
        """A client owed more events than ``send_queue_max`` messages
        (1 500 > 1 024, both defaults) must still be able to resume:
        the replay is one message, not one per event."""
        trajectory = make_random_walk_trajectory(
            1520, n_features=N_FEATURES, seed=81
        )
        reference = local_events(monitor, trajectory, session_id="big")
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            gateway = runner.gateway
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("big")
            first.feed(sid, trajectory.frames[:1500])
            # Read nothing back: every one of the 1 500 events is owed.
            assert wait_until(
                lambda: gateway._sessions[sid].delivered == 1500, 60.0
            )
            first.close()
            state = first.detach_session(sid)
            assert state.events_received == 0
            assert wait_until(lambda: gateway.n_parked_sessions == 1)

            if resumer == "sync":
                with RemoteMonitorClient(runner.host, runner.port) as second:
                    second.resume_session(state)
                    second.feed(sid, trajectory.frames[1500:])
                    events = second.events_for(sid, 1520)
                    assert second.close_session(sid)["n_frames"] == 1520
            else:

                async def run():
                    async with await AsyncRemoteMonitorClient.connect(
                        runner.host, runner.port
                    ) as second:
                        await second.resume_session(state)
                        await second.feed(sid, trajectory.frames[1500:])
                        got = [
                            await asyncio.wait_for(second.next_event(), 30.0)
                            for _ in range(1520)
                        ]
                        summary = await second.close_session(sid)
                        assert summary["n_frames"] == 1520
                        return got

                events = asyncio.run(run())
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]
            stats = runner.stats()
            assert stats["connections"]["overflow_disconnects"] == 0
            assert stats["resume"]["resumed_total"] == 1
            assert not gateway.failed_sessions

    def test_resume_retries_its_restore_like_crash_recovery(self, monitor):
        """A RESUME whose import lands on a worker that just died must
        retry the restore, as live crash recovery does, not fail the
        session for good."""
        trajectory = make_random_walk_trajectory(
            24, n_features=N_FEATURES, seed=82
        )
        reference = local_events(monitor, trajectory, session_id="again")
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            gateway = runner.gateway
            engine = gateway._engine
            real_import = engine.import_session
            imports = []

            async def flaky_import(state, record_timeline=True):
                imports.append(session_from_bytes(state).frames_done)
                if len(imports) == 1:
                    raise WorkerError("shard worker died (found by this import)")
                return await real_import(state, record_timeline)

            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("again")
            first.feed(sid, trajectory.frames[:10])
            events = first.events_for(sid, 10)
            first.close()
            state = first.detach_session(sid)
            assert wait_until(lambda: gateway.n_parked_sessions == 1)
            assert engine.service.n_open_sessions == 0  # parked: no engine side
            engine.import_session = flaky_import
            with RemoteMonitorClient(runner.host, runner.port) as second:
                assert second.resume_session(state) == sid
                second.feed(sid, trajectory.frames[10:])
                events += second.events_for(sid, 14)
                assert second.close_session(sid)["n_frames"] == 24
            assert imports == [10, 10]
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]
            assert not gateway.failed_sessions
            stats = runner.stats()["resume"]
            assert stats["restore_retries_total"] == 1
            assert stats["recovered_total"] == 0  # a resume, not a recovery

    def test_crash_found_by_the_parks_own_close_starts_no_restore(self, monitor):
        """The exchange that discovers a dead worker can be the park's
        own release of the engine side.  That crash must not start a
        live restore under the park: the session is about to have no
        owner to stream to, and whoever resumes it restores it — from a
        record that by then holds the frames admitted meanwhile."""
        trajectory = make_random_walk_trajectory(
            30, n_features=N_FEATURES, seed=84
        )
        reference = local_events(monitor, trajectory, session_id="race")
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            gateway = runner.gateway
            engine = gateway._engine
            real_close = engine.close_session
            imports = []
            real_import = engine.import_session

            async def counting_import(state, record_timeline=True):
                imports.append(session_from_bytes(state).frames_done)
                return await real_import(state, record_timeline)

            async def close_finds_the_crash(session_id):
                # What the fleet does when a close lands on a dead
                # worker: the session is lost, its crash event is routed
                # before the error reaches the caller.
                delivered = gateway._sessions[session_id].delivered
                await real_close(session_id)
                gateway._route_events(
                    [
                        SessionEvent.failsafe(
                            session_id, delivered, "shard 0 worker died"
                        )
                    ]
                )
                await asyncio.sleep(0.025)
                engine.close_session = real_close
                raise WorkerError("close of session failed: worker died")

            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("race")
            for start in range(0, 10, 2):  # five journal batches
                first.feed(sid, trajectory.frames[start : start + 2])
            events = first.events_for(sid, 10)
            engine.close_session = close_finds_the_crash
            engine.import_session = counting_import
            first.close()
            state = first.detach_session(sid)
            assert wait_until(lambda: gateway.n_parked_sessions == 1)
            assert imports == [] and gateway._sessions[sid].phase != "recovering"
            with RemoteMonitorClient(runner.host, runner.port) as second:
                assert second.resume_session(state) == sid
                second.feed(sid, trajectory.frames[10:])
                # Bounded here: heartbeats keep a starved read alive.
                assert wait_until(
                    lambda: gateway._sessions[sid].delivered == 30
                ), "frames lost across the park"
                events += second.events_for(sid, 20)
                assert second.close_session(sid)["n_frames"] == 30
            assert imports == [10]
            assert [event_key(e) for e in events] == [
                event_key(e) for e in reference
            ]
            assert not gateway.failed_sessions
            assert runner.stats()["resume"]["recovered_total"] == 0

    ADMISSION_FAULTS = {
        "token": (
            lambda s: dataclasses.replace(s, token="0" * len(s.token)),
            ProtocolError,
            "resume token mismatch for 'adm'",
        ),
        "last_event": (
            lambda s: dataclasses.replace(s, events_received=9),
            ProtocolError,
            "RESUME last_event 9 exceeds the 8 events delivered for 'adm'",
        ),
        "ring": (
            lambda s: dataclasses.replace(s, events_received=0),
            WorkerError,
            "session 'adm' is beyond replay reach",
        ),
    }

    @pytest.mark.parametrize("route", ["parked", "live"])
    @pytest.mark.parametrize("fault", sorted(ADMISSION_FAULTS))
    def test_resume_admission(self, monitor, route, fault):
        """One admission check behind both routes — a parked session,
        and one still bound to a connection the gateway has not yet
        noticed is dead: same refusal, word for word.  What differs is
        documented: a parked session a client can no longer be caught
        up on lapses (fail-safe); a live one stays with its connection."""
        forge, error_type, message = self.ADMISSION_FAULTS[fault]
        trajectory = make_random_walk_trajectory(
            12, n_features=N_FEATURES, seed=83
        )
        reference = local_events(monitor, trajectory, session_id="adm")
        with running_gateway(
            monitor,
            n_shards=1,
            max_sessions=4,
            resume_grace_s=30.0,
            event_replay_max=4,
        ) as runner:
            gateway = runner.gateway
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("adm")
            first.feed(sid, trajectory.frames[:8])
            events = first.events_for(sid, 8)
            state = first.detach_session(sid)  # local bookkeeping only
            if route == "parked":
                first.close()
                assert wait_until(lambda: gateway.n_parked_sessions == 1)
            with RemoteMonitorClient(runner.host, runner.port) as second:
                with pytest.raises(error_type) as refusal:
                    second.resume_session(forge(state))
                assert str(refusal.value) == message
                if (route, fault) == ("parked", "ring"):
                    assert "resume replay window exceeded" in (
                        gateway.failed_sessions[sid]
                    )
                    assert gateway.n_parked_sessions == 0
                    with pytest.raises(WorkerError, match="failed"):
                        second.resume_session(state)
                else:
                    # Untouched: the rightful owner still resumes it.
                    assert gateway.n_parked_sessions == (route == "parked")
                    assert second.resume_session(state) == sid
                    second.feed(sid, trajectory.frames[8:])
                    events += second.events_for(sid, 4)
                    assert second.close_session(sid)["n_frames"] == 12
                    assert [event_key(e) for e in events] == [
                        event_key(e) for e in reference
                    ]
                    assert not gateway.failed_sessions
            first.close()

    def test_an_adopts_overrun_is_announced_after_its_release(self, monitor):
        """Events that land while a resume's adopt restores the session
        can put it beyond replay reach, and the adopt fails it safe.
        The refusal goes out only once the engine side is released, so
        a client that reopens the id on the refusal — on another
        connection: one connection's messages are handled in turn —
        finds it free.  K=2: the fleet's close suspends (here, for
        0.3 s more), the embedded engine's never does."""
        trajectory = make_random_walk_trajectory(16, n_features=N_FEATURES, seed=87)
        with running_gateway(
            monitor,
            n_shards=2,
            max_sessions=4,
            resume_grace_s=30.0,
            event_replay_max=4,
        ) as runner:
            gateway = runner.gateway
            engine = gateway._engine
            real_feed, real_import, real_close = (
                engine.feed,
                engine.import_session,
                engine.close_session,
            )

            async def journal_only(session_id, frames):
                return None  # accepted and journaled; the restore feeds it

            async def import_then_tick(state, record_timeline=True):
                session_id = await real_import(state, record_timeline)
                while gateway._sessions[session_id].delivered < 16:
                    await asyncio.sleep(0.01)
                return session_id

            async def slow_close(session_id):
                await asyncio.sleep(0.3)
                return await real_close(session_id)

            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("over")
            first.feed(sid, trajectory.frames[:8])
            first.events_for(sid, 8)
            engine.feed = journal_only
            first.feed(sid, trajectory.frames[8:])
            assert wait_until(lambda: gateway._sessions[sid].fed == 16)
            engine.feed = real_feed
            first.close()
            state = first.detach_session(sid)
            assert wait_until(lambda: gateway.n_parked_sessions == 1)
            engine.import_session, engine.close_session = import_then_tick, slow_close
            with RemoteMonitorClient(
                runner.host, runner.port
            ) as second, RemoteMonitorClient(runner.host, runner.port) as third:
                with pytest.raises(WorkerError, match="beyond replay reach"):
                    second.resume_session(state)
                assert third.open_session(sid) == sid
                engine.close_session = real_close
                third.feed(sid, trajectory.frames[:4])
                events = third.events_for(sid, 4)
                assert third.close_session(sid)["n_frames"] == 4
            (terminal,) = gateway.failsafe_events
            assert terminal.session_id == sid and terminal.frame_index == 16
            assert "resume replay window exceeded" in terminal.error
        assert [e.frame_index for e in events] == [0, 1, 2, 3]
        assert not any(e.error for e in events)

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_a_stale_resume_does_not_take_the_session_back(self, monitor, n_shards):
        """A RESUME from a connection accepted before the session's owner
        — one still buffered on a dead connection, read after the live
        connection's — is refused: the session stays with the newer
        connection, whose frames keep flowing."""
        trajectory = make_random_walk_trajectory(12, n_features=N_FEATURES, seed=85)
        reference = local_events(monitor, trajectory, session_id="stale")
        with running_gateway(
            monitor, n_shards=n_shards, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            gateway = runner.gateway
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("stale")
            first.feed(sid, trajectory.frames[:6])
            events = first.events_for(sid, 6)
            state = first.detach_session(sid)  # local bookkeeping only
            with RemoteMonitorClient(runner.host, runner.port) as second:
                assert second.resume_session(state) == sid  # a steal
                with pytest.raises(ProtocolError, match="older than its owner"):
                    first.resume_session(state)
                second.feed(sid, trajectory.frames[6:])
                events += second.events_for(sid, 6)
                assert second.close_session(sid)["n_frames"] == 12
            first.close()
            assert not gateway.failed_sessions
        assert [event_key(e) for e in events] == [event_key(e) for e in reference]

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_a_refused_batch_keeps_the_seq_in_step(self, monitor, n_shards):
        """With resume on, a batch the engine refuses still took its rows
        of the client's seq space: one ERROR, then the next batch is no
        sequence gap — its events arrive on the same connection."""
        trajectory = make_random_walk_trajectory(8, n_features=N_FEATURES, seed=86)
        reference = local_events(monitor, trajectory, session_id="refused")
        with running_gateway(
            monitor, n_shards=n_shards, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            with RemoteMonitorClient(runner.host, runner.port) as client:
                sid = client.open_session("refused")
                client.feed(sid, np.zeros((2, N_FEATURES + 3)))
                client.feed(sid, trajectory.frames)
                with pytest.raises(ShapeError):
                    client.events_for(sid, 8)
                events = client.events_for(sid, 8)
                assert client.close_session(sid)["n_frames"] == 8
                connections = runner.stats()["connections"]
            assert (connections["open"], connections["total"]) == (1, 1)
            assert not runner.gateway.failed_sessions
        assert [event_key(e) for e in events] == [event_key(e) for e in reference]

    def test_open_of_a_parked_id_is_refused(self, monitor):
        """A parked session is still the gateway's: an OPEN reusing its
        id must not replace the record (and the fail-safe it is owed)."""
        with running_gateway(
            monitor, n_shards=1, max_sessions=4, resume_grace_s=30.0
        ) as runner:
            first = RemoteMonitorClient(runner.host, runner.port)
            sid = first.open_session("mine")
            first.close()
            assert wait_until(lambda: runner.gateway.n_parked_sessions == 1)
            with RemoteMonitorClient(runner.host, runner.port) as second:
                with pytest.raises(ConfigurationError, match="already open"):
                    second.open_session(sid)
            assert runner.gateway.n_parked_sessions == 1


class TestClientCore:
    """The sans-IO conversation core both SDKs hold, driven without a
    socket: messages in through ``receive``, messages out through a
    list, a :class:`concurrent.futures.Future` per request."""

    @staticmethod
    def event(session_id, frame_index):
        return SessionEvent(
            session_id=session_id,
            frame_index=frame_index,
            gesture=1,
            score=0.25,
            flag=False,
        )

    @staticmethod
    def sent_frames(messages):
        reader = MessageReader()
        reader.feed(b"".join(messages))
        out = []
        while (message := reader.next_message()) is not None:
            assert message[0] is MessageType.FRAME
            out.append(decode_frames(message[1]))
        return out

    @staticmethod
    def ask(core, expect, state=None):
        reply = Future()
        core.request(expect, reply, state)
        return reply

    @staticmethod
    def answer(core, msg_type, payload=b""):
        """One gateway message in; what ``receive`` returned and sent."""
        sent = []
        if isinstance(payload, dict):
            payload = encode_json(payload)
        return core.receive(msg_type, payload, sent.append), sent

    @staticmethod
    def error(in_reply_to, error_type="ShapeError", text="bad batch"):
        return {
            "error_type": error_type,
            "error": text,
            "session_id": None,
            "in_reply_to": in_reply_to,
        }

    def opened(self, session_id="c", token="tok"):
        core = _SessionCore()
        reply = self.ask(core, MessageType.OPEN)
        ack = {"session_id": session_id}
        if token is not None:
            ack["resume_token"] = token
        assert self.answer(core, MessageType.OPEN, ack) == (None, [])
        assert reply.result(0) == session_id
        return core

    def test_scripted_session_detaches_into_the_expected_state(self):
        frames = np.arange(80, dtype=float).reshape(8, N_FEATURES)
        core, sid = self.opened(), "c"
        sent = []
        core.send_frames(sid, frames[:3], sent.append)
        core.send_frames(sid, frames[3], sent.append)  # one row, promoted
        core.send_frames(sid, frames[4:], sent.append)
        assert [(s, seq, f.shape[0]) for s, seq, f in self.sent_frames(sent)] == [
            ("c", 0, 3), ("c", 3, 1), ("c", 4, 4),
        ]
        self.answer(core, MessageType.ACK, encode_ack("c", 3))
        self.answer(core, MessageType.ACK, encode_ack("other", 99))  # ignored
        assert self.answer(core, MessageType.HEARTBEAT) == (
            None, [encode_message(MessageType.HEARTBEAT)],
        )
        self.answer(
            core,
            MessageType.EVENT,
            encode_events(
                [self.event("c", 0), self.event("orphan", 0), self.event("c", 1)]
            ),
        )
        assert [(e.session_id, e.frame_index) for e in core.events] == [
            ("c", 0), ("c", 1),
        ]
        core.events.popleft()  # the application consumes one
        state = core.detach(sid)
        assert (state.session_id, state.token) == ("c", "tok")
        assert (state.next_seq, state.acked_seq) == (8, 3)
        assert state.events_received == 2  # decoded, consumed or not; no orphan
        assert [(seq, f.shape[0]) for seq, f in state.buffer] == [(3, 1), (4, 4)]
        assert [e.frame_index for e in state.pending_events] == [1]
        assert not core.events
        with pytest.raises(ProtocolError, match="no resume state"):
            core.detach(sid)  # detached: this client no longer owns it
        self.answer(core, MessageType.EVENT, encode_events([self.event("c", 2)]))
        assert not core.events

    def test_detach_leaves_everything_else_buffered_in_order(self):
        core = self.opened("a")
        reply = self.ask(core, MessageType.OPEN)
        self.answer(core, MessageType.OPEN, {"session_id": "b", "resume_token": "t"})
        assert reply.result(0) == "b"
        self.answer(
            core,
            MessageType.EVENT,
            encode_events([self.event(s, i) for i in range(2) for s in "ab"]),
        )
        failure = ShapeError("surfaced by the async shell")
        core.events.append(failure)
        self.answer(core, MessageType.EVENT, encode_events([self.event("b", 2)]))
        state = core.detach("a")
        assert [e.frame_index for e in state.pending_events] == [0, 1]
        assert [getattr(e, "frame_index", e) for e in core.events] == [
            0, 1, failure, 2,
        ]

    def test_send_failure_leaves_the_batch_unbuffered(self):
        core = self.opened()

        def broken(message):
            raise WorkerError("gateway connection lost")

        with pytest.raises(WorkerError):
            core.send_frames("c", np.zeros((2, N_FEATURES)), broken)
        state = core.detach("c")
        assert state.next_seq == 0 and state.buffer == []

    def test_resume_replays_exactly_the_unacked_batches(self):
        frames = np.arange(100, dtype=float).reshape(10, N_FEATURES)
        state = ResumeState(
            session_id="r",
            token="tok",
            next_seq=10,
            acked_seq=0,
            events_received=4,
            buffer=[(0, frames[:3]), (3, frames[3:8]), (8, frames[8:])],
            pending_events=[self.event("r", 3)],
        )
        request = MessageReader()
        request.feed(_SessionCore.resume_message(state))
        msg_type, payload = request.next_message()
        assert msg_type is MessageType.RESUME
        assert protocol.decode_json(payload) == {
            "session_id": "r", "token": "tok", "last_event": 4,
        }
        core = _SessionCore()
        reply = self.ask(core, MessageType.RESUME, state)
        # Not bound before the gateway says so: an event is an orphan.
        self.answer(core, MessageType.EVENT, encode_events([self.event("r", 9)]))
        assert not core.events
        # acked_seq 5 falls inside the second batch: the first is fully
        # held by the gateway, the second is re-sent whole (the gateway
        # trims the overlap by seq), the third was never seen.
        self.answer(core, MessageType.RESUME, {"session_id": "r", "acked_seq": 5})
        resent = self.sent_frames(reply.result(0))
        assert [(s, seq) for s, seq, _ in resent] == [("r", 3), ("r", 8)]
        np.testing.assert_array_equal(resent[0][2], frames[3:8])
        np.testing.assert_array_equal(resent[1][2], frames[8:])
        # The carried-over event first, the gateway's replay behind it.
        self.answer(core, MessageType.EVENT, encode_events([self.event("r", 4)]))
        assert [e.frame_index for e in core.events] == [3, 4]
        again = core.detach("r")
        assert (again.next_seq, again.acked_seq) == (10, 5)
        assert again.events_received == 5

    def test_a_refused_or_abandoned_resume_binds_nothing(self):
        state = ResumeState("r", "tok", 0, 0, 1, pending_events=[self.event("r", 0)])
        core = _SessionCore()
        refused = self.ask(core, MessageType.RESUME, state)
        self.answer(
            core, MessageType.ERROR, self.error("RESUME", "ProtocolError", "busy")
        )
        with pytest.raises(ProtocolError, match="busy"):
            refused.result(0)
        abandoned = self.ask(core, MessageType.RESUME, state)
        abandoned.cancel()
        self.answer(core, MessageType.RESUME, {"session_id": "r", "acked_seq": 0})
        self.answer(core, MessageType.EVENT, encode_events([self.event("r", 1)]))
        assert not core.events  # ``state`` is whole for the next connection
        with pytest.raises(ProtocolError, match="no resume state"):
            core.detach("r")

    # -- the reply FIFO: one late-reply rule for both SDKs ---------------
    def test_late_reply_after_a_timeout_is_swallowed(self):
        core = self.opened()
        gave_up = self.ask(core, MessageType.STATS)
        gave_up.cancel()  # the caller's timeout; the reply stays owed
        waiting = self.ask(core, MessageType.CLOSE)
        assert self.answer(core, MessageType.STATS, {"late": True}) == (None, [])
        assert not waiting.done()
        self.answer(core, MessageType.CLOSE, {"session_id": "c", "n_frames": 7})
        assert waiting.result(0) == {"session_id": "c", "n_frames": 7}
        with pytest.raises(ProtocolError, match="no resume state"):
            core.detach("c")  # closed: the session left with its reply

    def test_attributed_error_for_an_abandoned_request_is_swallowed(self):
        core = _SessionCore()
        gave_up = self.ask(core, MessageType.OPEN)
        gave_up.cancel()
        waiting = self.ask(core, MessageType.OPEN)
        outcome = self.answer(
            core, MessageType.ERROR, self.error("OPEN", "ConfigurationError")
        )
        assert outcome == (None, []) and not waiting.done()
        self.answer(core, MessageType.OPEN, {"session_id": "mine"})
        assert waiting.result(0) == "mine"

    def test_unattributed_error_leaves_the_owed_reply_owed(self):
        core = self.opened()
        waiting = self.ask(core, MessageType.STATS)
        surfaced, _ = self.answer(core, MessageType.ERROR, self.error(None))
        assert isinstance(surfaced, ShapeError) and "bad batch" in str(surfaced)
        # ... and so does an ERROR answering a type the oldest request
        # did not ask for, or one arriving with nothing owed at all.
        surfaced, _ = self.answer(
            core, MessageType.ERROR, self.error("CLOSE", "Mystery", "?")
        )
        assert isinstance(surfaced, WorkerError) and "Mystery" in str(surfaced)
        assert not waiting.done()
        self.answer(core, MessageType.STATS, {"frames": 3})
        assert waiting.result(0) == {"frames": 3}
        surfaced, _ = self.answer(core, MessageType.ERROR, self.error("STATS"))
        assert isinstance(surfaced, ShapeError)

    def test_two_outstanding_requests_of_one_type_get_their_own_replies(self):
        core = self.opened("a")
        first = self.ask(core, MessageType.CLOSE)
        second = self.ask(core, MessageType.CLOSE)
        self.answer(core, MessageType.CLOSE, {"session_id": "a", "n_frames": 1})
        assert first.result(0)["session_id"] == "a" and not second.done()
        self.answer(
            core, MessageType.ERROR, self.error("CLOSE", "ProtocolError", "no b")
        )
        with pytest.raises(ProtocolError, match="no b"):
            second.result(0)

    def test_unsolicited_reply_is_a_protocol_error(self):
        core = self.opened()
        with pytest.raises(ProtocolError, match="unsolicited STATS"):
            self.answer(core, MessageType.STATS, {})
        waiting = self.ask(core, MessageType.CLOSE)
        with pytest.raises(ProtocolError, match="unsolicited OPEN"):
            self.answer(core, MessageType.OPEN, {"session_id": "x"})
        assert not waiting.done()

    def test_a_dead_connection_fails_every_request_still_waited_for(self):
        core = self.opened()
        gave_up, waiting = (self.ask(core, MessageType.STATS) for _ in range(2))
        gave_up.cancel()
        core.fail(WorkerError("gateway connection lost"))
        assert gave_up.cancelled()
        with pytest.raises(WorkerError, match="connection lost"):
            waiting.result(0)
