"""Client SDKs for the remote ingest gateway: sync sockets and asyncio.

Two clients over the same wire protocol
(:mod:`~repro.serving.remote.protocol`):

- :class:`RemoteMonitorClient` — blocking sockets, for robot-side
  integrations, scripts and tests that live in synchronous code.  Every
  read transparently answers gateway heartbeats and buffers event
  messages, so control calls (``open_session``, ``close_session``,
  ``gateway_stats``) and the event reader (``next_event``) can
  interleave freely on one connection.
- :class:`AsyncRemoteMonitorClient` — asyncio streams, for
  fleet-scale ingest (``bench/``'s ``sat_wire_k2`` workload drives 64
  sessions through these).  A background reader task demultiplexes the stream:
  events flow to the ``events()`` async iterator, control replies
  resolve the awaiting call, heartbeats are echoed.

Shared semantics:

- ``feed`` is **unacknowledged** at the call site — frames stream at
  full rate and backpressure is TCP itself (``sendall`` /
  ``writer.drain()`` block when the gateway falls behind).  A feed the
  gateway rejects (wrong width, unknown session) arrives as an ERROR
  message and is raised by the *next* call that reads the stream.
- gateway-side failures re-raise as their original
  :mod:`repro.errors` types (same mapping as the shard transport), so
  remote and local engines fail identically at the call site.
- an event with ``error`` set is a terminal fail-safe notice for its
  session (worker crash at the gateway), carrying ``flag=True``.
- **session resume** — when the gateway runs with a resume grace
  window, OPEN acks carry a ``resume_token`` and both clients
  transparently number their FRAME batches, buffer them until the
  gateway's ACK, and count events at wire-decode time.  After a
  disconnect, :meth:`~RemoteMonitorClient.detach_session` captures a
  :class:`ResumeState` (pure local bookkeeping — it works on a dead
  client) and :meth:`~RemoteMonitorClient.resume_session` on a fresh
  connection replays the unacked tail from the gateway's acked seq and
  re-queues carried-over events — no frame or event is lost or
  duplicated across the reconnect.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import socket
from collections import deque
from collections.abc import AsyncIterator
from dataclasses import dataclass, field

import numpy as np

from ... import errors
from ...errors import ProtocolError, WorkerError
from ..service import SessionEvent
from .protocol import (
    HEADER_SIZE,
    MessageReader,
    MessageType,
    decode_ack,
    decode_events,
    decode_header,
    decode_json,
    encode_frames,
    encode_json,
    encode_message,
)

logger = logging.getLogger(__name__)


@dataclass
class ResumeState:
    """Everything needed to resume a session on a new connection.

    Produced by ``detach_session`` (both SDKs), consumed by
    ``resume_session``.  ``buffer`` holds the frame batches the gateway
    never acked, keyed by their wire seq; ``pending_events`` are events
    that were decoded off the old connection but not yet consumed by the
    application — they are re-queued on the resuming client so the
    stream stays gapless.
    """

    session_id: str
    token: str
    next_seq: int  #: frames sent so far (the next batch's seq)
    acked_seq: int  #: frames the gateway had acked at detach time
    events_received: int  #: events decoded off the wire for this session
    buffer: list = field(default_factory=list)  #: [(seq, frames)] unacked
    pending_events: list = field(default_factory=list)


class _SessionTrack:
    """Per-session resume bookkeeping inside a client."""

    __slots__ = ("token", "next_seq", "acked", "buffer", "events_received")

    def __init__(self, token: str | None) -> None:
        self.token = token
        self.next_seq = 0
        self.acked = 0
        self.buffer: deque = deque()  # (seq, frames) awaiting an ACK
        self.events_received = 0

    def record_send(self, seq: int, frames: np.ndarray) -> None:
        self.next_seq = seq + frames.shape[0]
        if self.token is not None:
            self.buffer.append((seq, frames))

    def record_ack(self, acked: int) -> None:
        if acked > self.acked:
            self.acked = acked
        while self.buffer and self.buffer[0][0] + self.buffer[0][1].shape[0] <= self.acked:
            self.buffer.popleft()


class _SessionCore:
    """The socket-free half of both client SDKs.

    Sans-IO, like :class:`~repro.serving.remote.protocol.MessageReader`:
    payloads in, messages out, and the per-session resume bookkeeping
    (seq numbering, unacked buffer, decode-time event counts) in
    between.  Each SDK owns one and adds only its own I/O — who reads
    the socket, and where decoded events wait for the application.
    """

    def __init__(self) -> None:
        self._tracks: dict[str, _SessionTrack] = {}

    @staticmethod
    def open_message(session_id: str | None, record_timeline: bool) -> bytes:
        return encode_message(
            MessageType.OPEN,
            encode_json(
                {"session_id": session_id, "record_timeline": record_timeline}
            ),
        )

    def opened(self, payload: bytes) -> str:
        """Bind the session an OPEN ack names; returns its id."""
        ack = decode_json(payload)
        sid = ack["session_id"]
        self._tracks[sid] = _SessionTrack(ack.get("resume_token"))
        return sid

    @staticmethod
    def close_message(session_id: str) -> bytes:
        return encode_message(
            MessageType.CLOSE, encode_json({"session_id": session_id})
        )

    def drop(self, session_id: str) -> None:
        """Forget a session (closed, or its resume was refused)."""
        self._tracks.pop(session_id, None)

    def send_frames(self, session_id: str, frames: np.ndarray, send) -> None:
        """Number one batch of kinematics rows, encode it and hand the
        FRAME message to ``send``; the batch is buffered for a resume
        replay only once ``send`` has returned."""
        frames = np.ascontiguousarray(frames, dtype="<f8")
        if frames.ndim == 1:
            frames = frames[None, :]
        track = self._tracks.get(session_id)
        seq = track.next_seq if track is not None else 0
        send(
            encode_message(
                MessageType.FRAME, encode_frames(session_id, frames, seq)
            )
        )
        if track is not None:
            track.record_send(seq, frames)

    def events(self, payload: bytes) -> list[SessionEvent]:
        """Decode an EVENT payload into the events this connection owns."""
        owned = []
        for event in decode_events(payload):
            track = self._tracks.get(event.session_id)
            if track is None:
                # No track means this connection never bound the
                # session (an OPEN/RESUME ack installs one): the event
                # is an orphan from a resume attempt that was abandoned
                # mid-flight — the session lives (or will live) on
                # another connection, which receives the event via the
                # resume replay.
                continue
            # Counted at decode time, not consumption time: what a
            # resume must NOT replay is exactly what already crossed
            # the wire.
            track.events_received += 1
            owned.append(event)
        return owned

    def acked(self, payload: bytes) -> None:
        session_id, seq = decode_ack(payload)
        track = self._tracks.get(session_id)
        if track is not None:
            track.record_ack(seq)

    def detach(self, session_id: str) -> ResumeState:
        """Take a session's resume state off this client (the SDK adds
        the events it still holds undelivered).  Raises
        :class:`~repro.errors.ProtocolError` when the session has none
        (opened on a gateway without a grace window)."""
        track = self._tracks.pop(session_id, None)
        if track is None or track.token is None:
            raise ProtocolError(
                f"session {session_id!r} has no resume state "
                "(gateway resume disabled?)"
            )
        return ResumeState(
            session_id=session_id,
            token=track.token,
            next_seq=track.next_seq,
            acked_seq=track.acked,
            events_received=track.events_received,
            buffer=list(track.buffer),
        )

    @staticmethod
    def resume_message(state: ResumeState) -> bytes:
        return encode_message(
            MessageType.RESUME,
            encode_json(
                {
                    "session_id": state.session_id,
                    "token": state.token,
                    "last_event": state.events_received,
                }
            ),
        )

    def install(self, state: ResumeState) -> None:
        """Bind a detached session: from here on its events are owned
        (and counted) by this connection."""
        track = _SessionTrack(state.token)
        track.next_seq = state.next_seq
        track.acked = state.acked_seq
        track.events_received = state.events_received
        track.buffer = deque(state.buffer)
        self._tracks[state.session_id] = track

    def resumed(self, session_id: str, payload: bytes) -> list[bytes]:
        """The FRAME messages a RESUME reply asks for: the buffered
        batches reaching past the gateway's acked seq (the gateway trims
        any overlap inside the first by seq)."""
        track = self._tracks[session_id]
        track.record_ack(int(decode_json(payload)["acked_seq"]))
        return [
            encode_message(
                MessageType.FRAME, encode_frames(session_id, frames, seq)
            )
            for seq, frames in track.buffer
        ]


def _gateway_exception(info: dict) -> Exception:
    """Rebuild a gateway ERROR payload as its original exception type.

    Mirrors :func:`repro.serving.transport.raise_remote`: names inside
    the :mod:`repro.errors` hierarchy come back as that class, anything
    else degrades to :class:`WorkerError` carrying the original name.
    """
    error_type = info.get("error_type") or ""
    message = info.get("error") or ""
    cls = getattr(errors, error_type, None)
    if isinstance(cls, type) and issubclass(cls, errors.ReproError):
        return cls(message)
    return WorkerError(f"{error_type}: {message}")


class RemoteMonitorClient:
    """Synchronous gateway client over one blocking TCP connection.

    ::

        with RemoteMonitorClient(host, port) as client:
            sid = client.open_session("theatre-7")
            client.feed(sid, frames)                # (n, n_features) float64
            for event in client.events_for(sid, n_frames):
                ...
            summary = client.close_session(sid)     # {"n_frames", "n_flagged"}

    One connection can multiplex many sessions.  All methods may raise
    the gateway's re-mapped :mod:`repro.errors` exceptions; a dead
    gateway surfaces as :class:`WorkerError`.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.timeout_s = timeout_s
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = MessageReader()
        self._events: deque[SessionEvent] = deque()
        #: Reply types still owed by the gateway for requests that were
        #: answered by an *asynchronous* ERROR instead (e.g. a rejected
        #: feed raising out of a stats call); swallowed when they arrive.
        self._stale: deque[MessageType] = deque()
        self._core = _SessionCore()
        self._closed = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "RemoteMonitorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection.  Sessions still open on it are ended
        fail-safe by the gateway (drain-and-close, ``error`` set)."""
        if not self._closed:
            self._closed = True
            # A close() failing on an already-broken socket is the
            # expected teardown race, not an error worth surfacing.
            with contextlib.suppress(OSError):
                self._sock.close()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _send(self, message: bytes) -> None:
        if self._closed:
            raise WorkerError("client is closed")
        try:
            self._sock.sendall(message)
        except OSError as exc:
            raise WorkerError(f"gateway connection lost: {exc}") from exc

    def _read_next(self) -> tuple[MessageType, bytes]:
        """One complete message off the stream (blocking)."""
        while True:
            message = self._reader.next_message()
            if message is not None:
                return message
            try:
                data = self._sock.recv(65536)
            except socket.timeout as exc:
                raise TimeoutError(
                    f"no gateway message within {self._sock.gettimeout()}s"
                ) from exc
            except OSError as exc:
                raise WorkerError(f"gateway connection lost: {exc}") from exc
            if not data:
                raise WorkerError("gateway closed the connection")
            self._reader.feed(data)

    def _read_until(self, expected: MessageType | None) -> bytes | None:
        """The one demux loop: read until ``expected`` arrives, or —
        with ``expected=None`` — until at least one event is buffered.

        Along the way: heartbeats are echoed, events buffered, and
        mapped ERRORs raised.  An ERROR not attributed to this request
        (``in_reply_to``) is an asynchronous failure — e.g. a rejected
        unacked feed; it is raised here while the still-owed
        ``expected`` reply is marked *stale* so a later read swallows it
        (reply or attributed ERROR alike, FIFO) instead of
        desynchronising the stream.  A read timeout likewise marks the
        owed reply stale before propagating.
        """
        while True:
            if expected is None and self._events:
                return None
            try:
                msg_type, payload = self._read_next()
            except TimeoutError:
                if expected is not None:
                    self._stale.append(expected)
                raise
            if msg_type is MessageType.HEARTBEAT:
                self._send(encode_message(MessageType.HEARTBEAT))
                continue
            if msg_type is MessageType.EVENT:
                self._events.extend(self._core.events(payload))
                continue
            if msg_type is MessageType.ACK:
                self._core.acked(payload)
                continue
            if self._stale and msg_type is self._stale[0]:
                self._stale.popleft()
                continue
            if msg_type is MessageType.ERROR:
                info = decode_json(payload)
                in_reply_to = info.get("in_reply_to")
                if (
                    in_reply_to is not None
                    and self._stale
                    and in_reply_to == self._stale[0].name
                ):
                    # Replies arrive in request order, so an attributed
                    # ERROR matching the oldest owed reply answers that
                    # abandoned request — swallow it, don't blame the
                    # current one.
                    self._stale.popleft()
                    continue
                if expected is not None and in_reply_to != expected.name:
                    self._stale.append(expected)
                raise _gateway_exception(info)
            if expected is not None and msg_type is expected:
                return payload
            raise ProtocolError(
                f"expected {expected.name} reply, got {msg_type.name}"
                if expected is not None
                else f"unexpected {msg_type.name} while waiting for events"
            )

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(
        self, session_id: str | None = None, record_timeline: bool = False
    ) -> str:
        """Open a session on the gateway; returns the (possibly
        gateway-assigned) session id."""
        self._send(self._core.open_message(session_id, record_timeline))
        return self._core.opened(self._read_until(MessageType.OPEN))

    def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Stream kinematics rows (see the module docs; acked and
        buffered for resume when the gateway granted a resume token)."""
        self._core.send_frames(session_id, frames, self._send)

    def next_event(self) -> SessionEvent:
        """The next event from any of this connection's sessions."""
        self._read_until(None)
        return self._events.popleft()

    def events_for(self, session_id: str, n_events: int) -> list[SessionEvent]:
        """Collect the next ``n_events`` events of one session (events of
        other sessions on this connection stay buffered).

        Returns early when the session's *terminal* fail-safe event
        arrives (``error`` set — a shard crash or gateway-side closure):
        nothing further will ever come for that session, so waiting for
        the full count would only time out and bury the reason.
        """
        collected: list[SessionEvent] = []
        requeue: list[SessionEvent] = []
        try:
            while len(collected) < n_events:
                event = self.next_event()
                if event.session_id == session_id:
                    collected.append(event)
                    if event.error is not None:
                        break
                else:
                    requeue.append(event)
        finally:
            # Restore other sessions' events even when next_event raises
            # (async ERROR, timeout) — they were received, not consumed.
            self._events.extendleft(reversed(requeue))
        return collected

    def close_session(self, session_id: str) -> dict:
        """Close a session (the gateway drains it first); returns the
        summary ``{"session_id", "n_frames", "n_flagged"}``.  Events
        still in flight are buffered for ``next_event``."""
        self._send(self._core.close_message(session_id))
        summary = decode_json(self._read_until(MessageType.CLOSE))
        self._core.drop(session_id)
        return summary

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def detach_session(self, session_id: str) -> ResumeState:
        """Capture a session's resume state off this client.

        Pure local bookkeeping — no socket traffic — so it works on a
        client whose connection already died, which is the point: after
        a crash/disconnect, detach here, connect a fresh client, and
        :meth:`resume_session` there.  Raises
        :class:`~repro.errors.ProtocolError` when the session has no
        resume state (opened on a gateway without a grace window).
        """
        state = self._core.detach(session_id)
        state.pending_events = [
            e for e in self._events if e.session_id == session_id
        ]
        if state.pending_events:
            self._events = deque(
                e for e in self._events if e.session_id != session_id
            )
        return state

    def resume_session(self, state: ResumeState) -> str:
        """Adopt a detached session onto this connection.

        Presents the resume token, learns the gateway's acked seq, and
        replays only the unacked tail of the buffered frames (the
        gateway trims any overlap by seq).  Events the old connection
        decoded but the application never consumed are re-queued first,
        and the gateway follows its RESUME ack with the events the
        client missed — the merged stream is gapless and
        duplicate-free.
        """
        self._send(self._core.resume_message(state))
        reply = self._read_until(MessageType.RESUME)
        # Nothing read past the reply yet: the replayed events behind it
        # will find the session bound.
        self._core.install(state)
        # Carried-over events predate anything this connection will
        # deliver for the session (the gateway's replay starts after
        # our last_event), so plain FIFO order is already correct.
        self._events.extend(state.pending_events)
        for message in self._core.resumed(state.session_id, reply):
            self._send(message)
        return state.session_id

    def gateway_stats(self) -> dict:
        """Fetch :meth:`MonitorGateway.gateway_stats` over the wire."""
        self._send(encode_message(MessageType.STATS))
        return decode_json(self._read_until(MessageType.STATS))

    def stream_session(
        self,
        frames: np.ndarray,
        session_id: str | None = None,
        chunk_size: int = 64,
        max_in_flight: int = 256,
    ) -> list[SessionEvent]:
        """Convenience: open, feed in chunks, collect every event, close.

        Returns the session's full event list (one per frame, in frame
        order) — the remote analogue of
        :meth:`repro.core.SafetyMonitor.stream` over a whole trajectory.
        Feeding and reading interleave so at most ``max_in_flight``
        events are ever outstanding: a long trajectory fed blind would
        otherwise overflow the gateway's bounded send queue and get
        this client disconnected as a slow consumer.  Raises
        :class:`WorkerError` if the session ends fail-safe mid-stream.
        """
        frames = np.asarray(frames, dtype=float)
        if frames.ndim == 1:
            frames = frames[None, :]
        sid = self.open_session(session_id)
        events: list[SessionEvent] = []
        fed = 0
        for start in range(0, frames.shape[0], chunk_size):
            chunk = frames[start : start + chunk_size]
            self.feed(sid, chunk)
            fed += chunk.shape[0]
            outstanding = fed - len(events)
            if outstanding > max_in_flight:
                events.extend(self.events_for(sid, outstanding - max_in_flight))
                if events and events[-1].error is not None:
                    break
        if not (events and events[-1].error is not None):
            events.extend(self.events_for(sid, frames.shape[0] - len(events)))
        if events and events[-1].error is not None:
            raise WorkerError(
                f"session {sid!r} ended fail-safe: {events[-1].error}"
            )
        self.close_session(sid)
        return events


class AsyncRemoteMonitorClient:
    """Asyncio gateway client: concurrent ingest and a live event stream.

    ::

        client = await AsyncRemoteMonitorClient.connect(host, port)
        sid = await client.open_session("theatre-7")
        await client.feed(sid, frames)
        async for event in client.events():
            ...
        await client.close_session(sid)
        await client.aclose()

    A background reader task demultiplexes the connection; control
    calls are serialised (one in flight at a time), feeds and event
    consumption run freely alongside them.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        timeout_s: float = 60.0,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.timeout_s = timeout_s
        self._events: asyncio.Queue = asyncio.Queue()
        self._control_lock = asyncio.Lock()
        self._pending: tuple[MessageType, asyncio.Future] | None = None
        self._conn_error: Exception | None = None
        self._core = _SessionCore()
        self._closed = False
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="remote-client-reader"
        )

    @classmethod
    async def connect(
        cls, host: str, port: int, timeout_s: float = 60.0
    ) -> "AsyncRemoteMonitorClient":
        """Open a gateway connection; raises :class:`WorkerError` when the
        gateway is unreachable within ``timeout_s``."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout_s
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise WorkerError(
                f"cannot reach gateway at {host}:{port}: {exc}"
            ) from exc
        return cls(reader, writer, timeout_s=timeout_s)

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(HEADER_SIZE)
                msg_type, length = decode_header(header)
                payload = (
                    await self._reader.readexactly(length) if length else b""
                )
                if msg_type is MessageType.HEARTBEAT:
                    self._writer.write(encode_message(MessageType.HEARTBEAT))
                    continue
                if msg_type is MessageType.EVENT:
                    for event in self._core.events(payload):
                        self._events.put_nowait(event)
                    continue
                if msg_type is MessageType.ACK:
                    self._core.acked(payload)
                    continue
                if msg_type is MessageType.ERROR:
                    info = decode_json(payload)
                    exc = _gateway_exception(info)
                    pending = self._pending
                    if (
                        pending is not None
                        and info.get("in_reply_to") == pending[0].name
                        and not pending[1].done()
                    ):
                        self._pending = None
                        pending[1].set_exception(exc)
                    else:
                        # Asynchronous failure (e.g. a rejected unacked
                        # feed): surfaced through the event stream.
                        self._events.put_nowait(exc)
                    continue
                pending = self._pending
                if pending is not None and pending[0] is msg_type:
                    self._pending = None
                    if not pending[1].done():
                        pending[1].set_result(payload)
                    continue
                raise ProtocolError(f"unsolicited {msg_type.name} message")
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            if isinstance(exc, (asyncio.IncompleteReadError, ConnectionError, OSError)):
                exc = WorkerError(f"gateway connection lost: {exc}")
            self._conn_error = exc
            self._resolve_pending_error(exc)
            self._events.put_nowait(_STREAM_END)

    def _resolve_pending_error(self, exc: Exception) -> bool:
        pending = self._pending
        if pending is not None and not pending[1].done():
            self._pending = None
            pending[1].set_exception(exc)
            return True
        return False

    def _check_alive(self) -> None:
        if self._closed:
            raise WorkerError("client is closed")
        if self._conn_error is not None:
            raise self._conn_error

    async def _control(self, message: bytes, expect: MessageType) -> bytes:
        async with self._control_lock:
            self._check_alive()
            future = asyncio.get_running_loop().create_future()
            self._pending = (expect, future)
            try:
                self._writer.write(message)
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                # The request never made it out: retire the pending slot
                # so the reader loop cannot resolve an abandoned future.
                if self._pending is not None and self._pending[1] is future:
                    self._pending = None
                future.cancel()
                raise WorkerError(f"gateway connection lost: {exc}") from exc
            try:
                # Bound the wait like the sync client's socket timeout:
                # a live-but-wedged gateway must not hang callers.
                return await asyncio.wait_for(future, self.timeout_s)
            except asyncio.TimeoutError:
                # The reply may still arrive later; rather than risk
                # attributing it to a future request, declare the
                # connection dead (the gateway fail-safes our sessions).
                self._conn_error = WorkerError(
                    f"no {expect.name} reply within {self.timeout_s}s; "
                    "connection abandoned"
                )
                if self._pending is not None and self._pending[1] is future:
                    self._pending = None
                self._reader_task.cancel()
                self._events.put_nowait(_STREAM_END)
                raise TimeoutError(
                    f"no {expect.name} reply within {self.timeout_s}s"
                ) from None

    # ------------------------------------------------------------------
    async def open_session(
        self, session_id: str | None = None, record_timeline: bool = False
    ) -> str:
        """Open a session; returns the (possibly assigned) session id."""
        payload = await self._control(
            self._core.open_message(session_id, record_timeline),
            MessageType.OPEN,
        )
        return self._core.opened(payload)

    async def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Stream kinematics rows; ``await`` applies TCP backpressure
        when the gateway is behind (acked and buffered for resume when
        the gateway granted a resume token)."""
        self._check_alive()
        try:
            self._core.send_frames(session_id, frames, self._writer.write)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise WorkerError(f"gateway connection lost: {exc}") from exc

    async def close_session(self, session_id: str) -> dict:
        """Drain-and-close one session; returns the gateway's summary."""
        payload = await self._control(
            self._core.close_message(session_id), MessageType.CLOSE
        )
        self._core.drop(session_id)
        return decode_json(payload)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def detach_session(self, session_id: str) -> ResumeState:
        """Capture a session's resume state (local bookkeeping only —
        works on a client whose connection already died).  See
        :meth:`RemoteMonitorClient.detach_session`."""
        state = self._core.detach(session_id)
        state.pending_events = self._take_events(session_id)
        return state

    def _take_events(self, session_id: str) -> list[SessionEvent]:
        """Pull one session's buffered events out of the queue; whatever
        else waits there (other sessions, errors, the end marker) keeps
        its order."""
        taken: list[SessionEvent] = []
        keep: list = []
        while True:
            try:
                item = self._events.get_nowait()
            except asyncio.QueueEmpty:
                break
            if (
                isinstance(item, SessionEvent)
                and item.session_id == session_id
            ):
                taken.append(item)
            else:
                keep.append(item)
        for item in keep:
            self._events.put_nowait(item)
        return taken

    async def resume_session(self, state: ResumeState) -> str:
        """Adopt a detached session onto this connection; replays the
        unacked frame tail.  See
        :meth:`RemoteMonitorClient.resume_session`."""
        # Bind the session and re-queue carried-over events *before*
        # the request goes out: the reader task may process the
        # gateway's replayed events the moment the RESUME reply
        # resolves, and they must find the session bound (decode-time
        # counting) and land behind the carried-over ones.
        self._core.install(state)
        for event in state.pending_events:
            self._events.put_nowait(event)
        try:
            payload = await self._control(
                self._core.resume_message(state), MessageType.RESUME
            )
        except BaseException:
            # Rejected: roll back so ``state`` stays valid for a retry
            # on another connection.  No replay event can have arrived
            # (the session was never adopted), so the queue holds at
            # most the events we just added — reclaim them.
            self._core.drop(state.session_id)
            self._take_events(state.session_id)
            raise
        try:
            for message in self._core.resumed(state.session_id, payload):
                self._writer.write(message)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise WorkerError(f"gateway connection lost: {exc}") from exc
        return state.session_id

    async def gateway_stats(self) -> dict:
        """Fetch :meth:`MonitorGateway.gateway_stats` over the wire."""
        payload = await self._control(
            encode_message(MessageType.STATS), MessageType.STATS
        )
        return decode_json(payload)

    async def next_event(self) -> SessionEvent:
        """The next event from any of this connection's sessions."""
        self._check_alive()
        item = await self._events.get()
        if item is _STREAM_END:
            raise self._conn_error or WorkerError("gateway connection lost")
        if isinstance(item, Exception):
            raise item
        return item

    async def events(self) -> AsyncIterator[SessionEvent]:
        """Yield events until the connection ends.  Asynchronous gateway
        ERRORs (e.g. a rejected feed) raise out of the iterator."""
        while True:
            try:
                yield await self.next_event()
            except WorkerError:
                if self._closed or self._conn_error is not None:
                    return
                raise

    async def aclose(self) -> None:
        """Close the connection (gateway fail-safes any open sessions)."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass  # the expected outcome of cancel()
        except Exception as exc:  # noqa: BLE001 - teardown must finish,
            # but a reader that died on something other than our cancel
            # is still logged rather than silently dropped.
            logger.warning("reader task ended with error during close: %s", exc)
        self._writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.wait_closed()

    async def __aenter__(self) -> "AsyncRemoteMonitorClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


#: Sentinel the reader task pushes when the connection ends.
_STREAM_END = object()
