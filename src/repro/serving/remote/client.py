"""Client SDKs for the remote ingest gateway: sync sockets and asyncio.

One conversation core and two I/O shells over the wire protocol
(:mod:`~repro.serving.remote.protocol`):

- :class:`_SessionCore` — the client's whole side of the conversation,
  sans-IO: :meth:`~_SessionCore.receive` takes every message off the
  stream (heartbeats echoed, owned events counted and buffered, acks
  applied, replies matched to the requests in flight, ERRORs
  attributed), and the one buffer of decoded-but-unconsumed events
  lives there, carried across a resume by ``detach`` and the RESUME
  reply.
- :class:`RemoteMonitorClient` — blocking sockets, for robot-side
  integrations, scripts and tests that live in synchronous code.  The
  *caller* reads the socket: any call that waits (a control reply,
  ``next_event``) pumps the stream through the core until what it
  waits for is there, so control calls and event reads interleave
  freely on one connection.
- :class:`AsyncRemoteMonitorClient` — asyncio streams, for fleet-scale
  ingest (``bench/``'s ``sat_wire_k2`` workload drives 64 sessions
  through these).  A background *reader task* pumps the stream through
  the core; callers await a future (control replies) or the event
  buffer.

What the two shells share, because the core decides it:

- ``feed`` is **unacknowledged** at the call site — frames stream at
  full rate and backpressure is TCP itself (``sendall`` /
  ``writer.drain()`` block when the gateway falls behind).  A feed the
  gateway rejects (wrong width, unknown session) arrives as an ERROR
  naming no request: the sync client raises it from whichever call is
  reading the stream, the async client from the event stream, in
  stream order.
- **requests are answered in order** — the gateway serves one
  connection's messages one at a time, so the core keeps a FIFO of the
  requests in flight, and a reply (or an ERROR whose ``in_reply_to``
  names the oldest request's type) resolves the oldest.  A request
  whose caller gave up — a timeout, a cancelled task — *stays owed*:
  its reply is swallowed when it arrives, the next request gets its
  own, and the connection and its other sessions live on.
- gateway-side failures re-raise as their original
  :mod:`repro.errors` types (same mapping as the shard transport), so
  remote and local engines fail identically at the call site.
- an event with ``error`` set is a terminal fail-safe notice for its
  session (worker crash at the gateway), carrying ``flag=True``.
- **session resume** — when the gateway runs with a resume grace
  window, OPEN acks carry a ``resume_token`` and the core numbers the
  FRAME batches, buffers them until the gateway's ACK, and counts
  events at wire-decode time.  After a disconnect,
  :meth:`~RemoteMonitorClient.detach_session` captures a
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
import time
from collections import deque
from collections.abc import AsyncIterator
from concurrent.futures import Future
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
    """One connection's conversation with the gateway, socket-free.

    Sans-IO, like :class:`~repro.serving.remote.protocol.MessageReader`:
    every message the connection carries passes through here —
    :meth:`send_frames` and :meth:`request` on the way out,
    :meth:`receive` on the way in — and what the conversation has
    established lives here: the per-session resume bookkeeping (seq
    numbering, unacked buffer, decode-time event counts), the FIFO of
    requests the gateway still owes a reply, and ``events``, the one
    buffer of decoded items the application has yet to consume.  Each
    SDK owns one per connection and adds only its I/O: who reads the
    socket, and how a caller waits.

    A request's caller waits on a *future* — anything with ``done()``,
    ``set_result()`` and ``set_exception()``; the shells pass a
    :class:`concurrent.futures.Future` or an :class:`asyncio.Future` —
    and gives up by cancelling it.
    """

    def __init__(self) -> None:
        self._tracks: dict[str, _SessionTrack] = {}
        #: (reply type, future, ResumeState | None) per request in
        #: flight, oldest first.
        self._owed: deque = deque()
        #: Owned events in wire order (the async shell adds the
        #: unattributed errors it surfaces through the same stream).
        self.events: deque = deque()

    @staticmethod
    def open_message(session_id: str | None) -> bytes:
        return encode_message(
            MessageType.OPEN, encode_json({"session_id": session_id})
        )

    @staticmethod
    def close_message(session_id: str) -> bytes:
        return encode_message(
            MessageType.CLOSE, encode_json({"session_id": session_id})
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

    def request(
        self, expect: MessageType, future, state: ResumeState | None = None
    ) -> None:
        """Book a request about to go out: the gateway owes it an
        ``expect`` reply, which resolves ``future`` (``state``: the
        session a RESUME asks for)."""
        self._owed.append((expect, future, state))

    def receive(self, msg_type: MessageType, payload: bytes, send) -> Exception | None:
        """Take one message off the stream.

        A heartbeat is echoed through ``send``; events of sessions this
        connection owns are counted and appended to ``events``; an ack
        trims its session's replay buffer; a reply, or an ERROR whose
        ``in_reply_to`` names the oldest request in flight, resolves
        that request.  Any other ERROR is asynchronous — a rejected
        unacked feed, an idle timeout — and is *returned*, mapped to its
        exception, for the shell to surface; requests in flight stay
        owed.  A reply nobody asked for is a :class:`ProtocolError`.
        """
        if msg_type is MessageType.EVENT:
            for event in decode_events(payload):
                track = self._tracks.get(event.session_id)
                if track is None:
                    # This connection never bound the session (an OPEN
                    # or RESUME reply installs the track): the event is
                    # an orphan of a resume its caller gave up on — the
                    # session lives (or will live) on another
                    # connection, which gets the event by resume replay.
                    continue
                # Counted at decode time, not consumption time: what a
                # resume must NOT replay is exactly what already crossed
                # the wire.
                track.events_received += 1
                self.events.append(event)
            return None
        if msg_type is MessageType.ACK:
            session_id, seq = decode_ack(payload)
            track = self._tracks.get(session_id)
            if track is not None:
                track.record_ack(seq)
            return None
        if msg_type is MessageType.HEARTBEAT:
            send(encode_message(MessageType.HEARTBEAT))
            return None
        info = decode_json(payload)
        expect = self._owed[0][0] if self._owed else None
        if msg_type is MessageType.ERROR:
            error = _gateway_exception(info)
            if expect is None or info.get("in_reply_to") != expect.name:
                return error
        elif msg_type is not expect:
            raise ProtocolError(f"unsolicited {msg_type.name} message")
        _, future, state = self._owed.popleft()
        if msg_type is MessageType.CLOSE:
            self._tracks.pop(info["session_id"], None)
        if future.done():
            # The caller gave up (timeout, cancellation): its reply is
            # swallowed here, never handed to the next request.
            return None
        if msg_type is MessageType.ERROR:
            future.set_exception(error)
        elif msg_type is MessageType.OPEN:
            self._tracks[info["session_id"]] = _SessionTrack(info.get("resume_token"))
            future.set_result(info["session_id"])
        elif msg_type is MessageType.RESUME:
            future.set_result(self._install(state, int(info["acked_seq"])))
        else:
            future.set_result(info)
        return None

    def fail(self, exc: Exception) -> None:
        """The connection ended: every request still owed fails with
        ``exc``."""
        while self._owed:
            future = self._owed.popleft()[1]
            if not future.done():
                future.set_exception(exc)

    def detach(self, session_id: str) -> ResumeState:
        """Take a session off this client: its resume state, with the
        events it still holds unconsumed.  Raises
        :class:`~repro.errors.ProtocolError` when the session has none
        (opened on a gateway without a grace window)."""
        track = self._tracks.pop(session_id, None)
        if track is None or track.token is None:
            raise ProtocolError(
                f"session {session_id!r} has no resume state "
                "(gateway resume disabled?)"
            )
        pending, kept = [], []
        for item in self.events:
            mine = isinstance(item, SessionEvent) and item.session_id == session_id
            (pending if mine else kept).append(item)
        self.events.clear()
        self.events.extend(kept)
        return ResumeState(
            session_id=session_id,
            token=track.token,
            next_seq=track.next_seq,
            acked_seq=track.acked,
            events_received=track.events_received,
            buffer=list(track.buffer),
            pending_events=pending,
        )

    def _install(self, state: ResumeState, acked_seq: int) -> list[bytes]:
        """Bind a detached session on its RESUME reply — nothing behind
        the reply is decoded yet, so the gateway's replayed events find
        the session owned (and counted) here and land behind the
        carried-over ones, which predate them.  Returns the FRAME
        messages the reply asks for: the buffered batches reaching past
        the gateway's ``acked_seq`` (the gateway trims any overlap
        inside the first by seq)."""
        track = _SessionTrack(state.token)
        track.next_seq = state.next_seq
        track.acked = state.acked_seq
        track.events_received = state.events_received
        track.buffer = deque(state.buffer)
        track.record_ack(acked_seq)
        self._tracks[state.session_id] = track
        self.events.extend(state.pending_events)
        return [
            encode_message(
                MessageType.FRAME, encode_frames(state.session_id, frames, seq)
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
    gateway surfaces as :class:`WorkerError`.  ``timeout_s`` bounds each
    call that waits (a control call, ``next_event``, ``events_for``) as
    a whole: what else the stream carries meanwhile — heartbeats, other
    sessions' events — does not extend it (``TimeoutError``);
    ``None`` waits without bound.
    """

    def __init__(
        self, host: str, port: int, timeout_s: float | None = 60.0
    ) -> None:
        self.timeout_s = timeout_s
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = MessageReader()
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
            self._sock.settimeout(self.timeout_s)  # a read may have shortened it
            self._sock.sendall(message)
        except OSError as exc:
            raise WorkerError(f"gateway connection lost: {exc}") from exc

    def _deadline(self) -> float | None:
        """The ``time.monotonic()`` by which a call starting now must end
        (``None``: ``timeout_s`` is ``None``, no deadline)."""
        if self.timeout_s is None:
            return None
        return time.monotonic() + self.timeout_s

    def _read_next(self, deadline: float | None) -> tuple[MessageType, bytes]:
        """One complete message off the stream, blocking until
        ``deadline`` at the latest (then ``TimeoutError``)."""
        while True:
            message = self._reader.next_message()
            if message is not None:
                return message
            expired = f"gateway call not answered within {self.timeout_s}s"
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                raise TimeoutError(expired)
            try:
                self._sock.settimeout(left)
                data = self._sock.recv(65536)
            except socket.timeout as exc:
                raise TimeoutError(expired) from exc
            except OSError as exc:
                raise WorkerError(f"gateway connection lost: {exc}") from exc
            if not data:
                raise WorkerError("gateway closed the connection")
            self._reader.feed(data)

    def _pump(self, ready, deadline: float | None) -> None:
        """Read the stream through the core until ``ready()``, by
        ``deadline``.  An asynchronous gateway ERROR (e.g. a rejected
        unacked feed) is raised from here, whatever the caller was
        waiting for."""
        while not ready():
            error = self._core.receive(*self._read_next(deadline), self._send)
            if error is not None:
                raise error

    def _call(
        self, message: bytes, expect: MessageType, state: ResumeState | None = None
    ):
        """Send one request and read until its reply."""
        deadline = self._deadline()
        reply: Future = Future()
        self._core.request(expect, reply, state)
        try:
            self._send(message)
            self._pump(reply.done, deadline)
        finally:
            # Leaving without the reply (a read timeout, an asynchronous
            # ERROR) is giving up on it: a no-op once resolved.
            reply.cancel()
        return reply.result()

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, session_id: str | None = None) -> str:
        """Open a session on the gateway; returns the (possibly
        gateway-assigned) session id."""
        return self._call(self._core.open_message(session_id), MessageType.OPEN)

    def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Stream kinematics rows (see the module docs; acked and
        buffered for resume when the gateway granted a resume token)."""
        self._core.send_frames(session_id, frames, self._send)

    def next_event(self) -> SessionEvent:
        """The next event from any of this connection's sessions."""
        return self._next_event(self._deadline())

    def _next_event(self, deadline: float | None) -> SessionEvent:
        self._pump(lambda: self._core.events, deadline)
        return self._core.events.popleft()

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
        deadline = self._deadline()
        try:
            while len(collected) < n_events:
                event = self._next_event(deadline)
                if event.session_id == session_id:
                    collected.append(event)
                    if event.error is not None:
                        break
                else:
                    requeue.append(event)
        finally:
            # Restore other sessions' events even when next_event raises
            # (async ERROR, timeout) — they were received, not consumed.
            self._core.events.extendleft(reversed(requeue))
        return collected

    def close_session(self, session_id: str) -> dict:
        """Close a session (the gateway drains it first); returns the
        summary ``{"session_id", "n_frames", "n_flagged"}``.  Events
        still in flight are buffered for ``next_event``."""
        return self._call(self._core.close_message(session_id), MessageType.CLOSE)

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
        return self._core.detach(session_id)

    def resume_session(self, state: ResumeState) -> str:
        """Adopt a detached session onto this connection.

        Presents the resume token, learns the gateway's acked seq, and
        replays only the unacked tail of the buffered frames (the
        gateway trims any overlap by seq).  Events the old connection
        decoded but the application never consumed are re-queued first,
        and the gateway follows its RESUME ack with the events the
        client missed — the merged stream is gapless and
        duplicate-free.  A refused resume leaves ``state`` valid for a
        retry.
        """
        replay = self._call(
            self._core.resume_message(state), MessageType.RESUME, state
        )
        for message in replay:
            self._send(message)
        return state.session_id

    def gateway_stats(self) -> dict:
        """Fetch :meth:`MonitorGateway.gateway_stats` over the wire."""
        return self._call(encode_message(MessageType.STATS), MessageType.STATS)

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

    A background reader task pumps the connection through the
    conversation core; control calls, feeds and event consumption run
    freely alongside each other (replies come back in request order).
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
        self._core = _SessionCore()
        #: Set whenever ``next_event`` has something to look at: a
        #: buffered item, or the end of the connection.
        self._arrived = asyncio.Event()
        self._conn_error: Exception | None = None
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
        core, events = self._core, self._core.events
        try:
            while True:
                header = await self._reader.readexactly(HEADER_SIZE)
                msg_type, length = decode_header(header)
                payload = (
                    await self._reader.readexactly(length) if length else b""
                )
                error = core.receive(msg_type, payload, self._writer.write)
                if error is not None:
                    # Asynchronous failure (e.g. a rejected unacked
                    # feed): surfaced through the event stream.
                    events.append(error)
                if events:
                    self._arrived.set()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            if isinstance(exc, (asyncio.IncompleteReadError, ConnectionError, OSError)):
                exc = WorkerError(f"gateway connection lost: {exc}")
            self._conn_error = exc
            core.fail(exc)
            self._arrived.set()

    def _check_alive(self) -> None:
        if self._closed:
            raise WorkerError("client is closed")
        if self._conn_error is not None:
            raise self._conn_error

    async def _write(self, message: bytes) -> None:
        try:
            self._writer.write(message)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise WorkerError(f"gateway connection lost: {exc}") from exc

    async def _call(
        self, message: bytes, expect: MessageType, state: ResumeState | None = None
    ):
        """Send one request and await its reply — bounded like the sync
        client's socket timeout: a live-but-wedged gateway must not hang
        callers."""
        self._check_alive()
        reply = asyncio.get_running_loop().create_future()
        self._core.request(expect, reply, state)
        try:
            try:
                await self._write(message)
            except WorkerError as exc:
                self._core.fail(exc)  # a dead connection answers nothing
            return await asyncio.wait_for(reply, self.timeout_s)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"no {expect.name} reply within {self.timeout_s}s"
            ) from None
        finally:
            # Leaving without the reply (timeout, cancellation, a failed
            # write) is giving up on it: a no-op once resolved.
            reply.cancel()

    # ------------------------------------------------------------------
    async def open_session(self, session_id: str | None = None) -> str:
        """Open a session; returns the (possibly assigned) session id."""
        return await self._call(
            self._core.open_message(session_id), MessageType.OPEN
        )

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
        return await self._call(
            self._core.close_message(session_id), MessageType.CLOSE
        )

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def detach_session(self, session_id: str) -> ResumeState:
        """Capture a session's resume state (local bookkeeping only —
        works on a client whose connection already died).  See
        :meth:`RemoteMonitorClient.detach_session`."""
        return self._core.detach(session_id)

    async def resume_session(self, state: ResumeState) -> str:
        """Adopt a detached session onto this connection; replays the
        unacked frame tail.  See
        :meth:`RemoteMonitorClient.resume_session`."""
        replay = await self._call(
            self._core.resume_message(state), MessageType.RESUME, state
        )
        await self._write(b"".join(replay))
        return state.session_id

    async def gateway_stats(self) -> dict:
        """Fetch :meth:`MonitorGateway.gateway_stats` over the wire."""
        return await self._call(
            encode_message(MessageType.STATS), MessageType.STATS
        )

    async def next_event(self) -> SessionEvent:
        """The next event from any of this connection's sessions; once
        the connection has ended and the buffer is empty, the reason."""
        events = self._core.events
        while not events:
            self._check_alive()
            self._arrived.clear()
            await self._arrived.wait()
        item = events.popleft()
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
        self._arrived.set()  # a blocked next_event learns of the close
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
