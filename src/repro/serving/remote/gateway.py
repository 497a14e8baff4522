"""The network front door: an asyncio TCP gateway over the serving stack.

:class:`MonitorGateway` accepts client connections speaking the
length-prefixed binary protocol (:mod:`~repro.serving.remote.protocol`)
and routes their sessions into an embedded serving engine — a single
in-process :class:`~repro.serving.service.MonitorService` for
``n_shards=1``, or a :class:`~repro.serving.sharded.ShardedMonitorService`
behind an :class:`~repro.serving.async_frontend.AsyncShardedMonitor` for
a multi-worker fleet.  Either way a session fed over the wire reproduces
the local engine's :class:`SessionEvent` stream bit for bit, frame order
included (``tests/serving/test_remote.py`` locks this in for K ∈ {1, 2}
under both inference backends).

Flow control and failure semantics:

- **Backpressure** — every connection owns a bounded send queue drained
  by one writer task (which coalesces queued messages into single
  socket writes).  A consumer that stops reading fills the TCP window,
  then the queue; on overflow the gateway disconnects that client (one
  slow dashboard must never stall the monitoring of every theatre) and
  fails its sessions safe.  Ingest-side backpressure is TCP itself:
  clients feeding faster than the engine drains block in
  ``writer.drain()`` / ``socket.sendall``.
- **Heartbeats and idle timeouts** — the gateway pings every
  ``heartbeat_interval_s``; clients echo (both SDKs do automatically).
  A connection silent past ``idle_timeout_s`` is treated as dead.
- **Fail-safe disconnects** — when a client vanishes (EOF, reset, idle
  timeout, queue overflow), its sessions are *drained* (already-fed
  frames are processed, never dropped) and closed, and one terminal
  :class:`SessionEvent` per session with ``error`` set and ``flag=True``
  is recorded at the gateway (:attr:`MonitorGateway.failsafe_events`,
  :attr:`MonitorGateway.failed_sessions`) — the PR 2 contract: a lost
  monitor reads as unsafe, never as silently safe.  A shard worker
  crash surfaces the same way *and* is pushed to the owning client as
  an EVENT with ``error`` set.
- **Session resume** (``resume_grace_s > 0``) — disconnects *park* the
  session instead (engine side released, in-flight events folded into
  a replay history); a client returning within the grace window
  presents its resume token, replays frames from the acked seq the
  RESUME reply names, and receives the events it missed before any
  live one — zero lost frames, no duplicates.  Accepted frame batches
  are acked (v2 ACK) and journaled until no future event can depend on
  them, so the record alone restores the engine side
  (:meth:`_RemoteSession.archive`) — for a resume, and for a shard
  worker crash, which becomes a transparent restore instead of a
  terminal event.  An unresumed park falls back to the fail-safe
  contract when the window lapses.  See ``docs/remote.md``.

``gateway_stats()`` aggregates the engine's per-shard
:meth:`shard_stats` with connection/session/queue-depth counters; the
STATS wire message returns it to any client.  See ``docs/remote.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
import time
from typing import TYPE_CHECKING

from ...errors import ConfigurationError, ProtocolError, ReproError, WorkerError
from ...nn.backends import DEFAULT_BACKEND, validate_backend_name
from ...nn.layers.contract import numerics_fingerprint
from ..async_frontend import AsyncShardedMonitor
from ..service import MonitorService, ServiceStats, SessionEvent
from ..sharded import ShardedMonitorService
from ..telemetry import TelemetryRegistry
from ..snapshot import (
    monitor_from_bytes,
    session_from_bytes,
    session_to_bytes,
    snapshot_backend,
)
from .protocol import (
    HEADER_SIZE,
    PROTOCOL_VERSION,
    MessageType,
    decode_frames,
    decode_header,
    decode_json,
    encode_ack,
    encode_events,
    encode_json,
    encode_message,
)
from .session import ENDED, LIVE, PARKING, _RemoteSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..eventstore import EventStoreWriter

#: Sentinel ending a connection's writer task.
_CLOSED = object()

#: Messages a writer task coalesces into one socket write at most.
_WRITE_BATCH = 64

#: The gateway's lifetime counts, each the ``gateway_<name>`` counter
#: of :attr:`MonitorGateway.telemetry` (created with the gateway, so
#: STATS lists every one from the start).
_COUNTS = (
    "connections_total", "idle_disconnects", "overflow_disconnects",
    "heartbeats_sent", "sessions_opened", "sessions_closed",
    "frames_received", "acks_sent", "events_sent", "events_dropped",
    "events_failsafe", "parked_total", "resumed_total",
    "resume_expired_total", "recovered_total", "restore_retries_total",
)


class _LocalEngine:
    """Single-threaded serving engine over one in-process :class:`MonitorService`.

    The K=1 topology: no worker processes, no executor, no lock — every
    call into the service (open/feed/tick/close/import/stats)
    runs on the event-loop thread.  :meth:`feed` schedules
    :meth:`_tick_once` with ``call_soon``; each pass of the loop runs at
    most **one** tick, hands its events to ``sink`` (the gateway's
    ``_route_events``) as one list, and reschedules itself while frames
    are pending — socket reads land between the ticks of a backlog, so
    sessions fed at different cadences share ticks.  The loop is blocked
    for the length of one tick; frames arriving meanwhile wait in their
    sockets (they could not have been ticked sooner anyway).  Overlap of
    ingest and inference is what ``n_shards >= 2`` is for.  The
    coroutines mirror the surface of :class:`AsyncShardedMonitor` the
    gateway routes through; none of them ever suspends.
    """

    def __init__(self, service: MonitorService, sink) -> None:
        self.service = service
        self._sink = sink
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tick_scheduled = False
        self._closed = False
        self._failure: str | None = None

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    def _schedule_tick(self) -> None:
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self._loop.call_soon(self._tick_once)

    def _tick_once(self) -> None:
        self._tick_scheduled = False
        if self._closed or self._failure is not None:
            return
        try:
            # Looked up per call: a patched MonitorService.tick (tracing,
            # fault injection) takes effect on the next tick.
            events = self.service.tick()
        except Exception as exc:  # noqa: BLE001 - a dead ticker must fail safe
            # The sharded path converts a broken worker into fail-safe
            # crash events; the embedded engine owes its sessions the
            # same — a monitor that silently stops flagging is the one
            # outcome the serving contract forbids.
            self._failure = (
                f"local engine tick failed: {type(exc).__name__}: {exc}"
            )
            events = [
                SessionEvent.failsafe(
                    session_id,
                    self.service.frames_done(session_id),
                    self._failure,
                )
                for session_id in self.service.session_ids
            ]
        else:
            if self.service.has_pending:
                self._schedule_tick()
        if events:
            self._sink(events)

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise WorkerError(self._failure)

    async def open_session(self, session_id: str | None, record_timeline: bool) -> str:
        self._check_failure()
        return self.service.open_session(session_id, record_timeline)

    async def feed(self, session_id: str, frames) -> None:
        self._check_failure()
        self.service.feed(session_id, frames)
        self._schedule_tick()

    async def close_session(self, session_id: str):
        self._check_failure()
        return self.service.close_session(session_id)

    async def import_session(
        self, state: bytes, record_timeline: bool = True
    ) -> str:
        self._check_failure()
        session_id = self.service.import_session(session_from_bytes(state))
        self._schedule_tick()  # imported state may carry pending frames
        return session_id

    async def shard_stats(self) -> dict[int, ServiceStats]:
        return {0: self.service.stats}

    async def aclose(self) -> None:
        self._closed = True


class _Connection:
    """One accepted client connection and its tasks/queues."""

    def __init__(
        self,
        conn_id: int,
        writer: asyncio.StreamWriter,
        send_queue_max: int,
    ) -> None:
        self.id = conn_id
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=send_queue_max)
        self.sessions: set[str] = set()
        self.last_recv = asyncio.get_running_loop().time()
        self.closed = False  # no further routing to this connection
        self.torn_down = False  # teardown ran (idempotence guard)
        self.heartbeat_task: asyncio.Task | None = None
        self.writer_task: asyncio.Task | None = None
        #: Test hook: clearing this parks the writer task, letting the
        #: backpressure suite fill the send queue deterministically.
        self.writer_gate = asyncio.Event()
        self.writer_gate.set()

    def enqueue(self, data: bytes) -> bool:
        """Queue bytes for the writer task; False on overflow."""
        if self.closed:
            return True  # silently dropped; teardown is in flight
        try:
            self.queue.put_nowait(data)
        except asyncio.QueueFull:
            return False
        return True

    async def write_loop(self) -> None:
        """Drain the send queue, coalescing bursts into single writes."""
        try:
            while True:
                chunk = await self.queue.get()
                if chunk is _CLOSED:
                    return
                await self.writer_gate.wait()
                parts = [chunk]
                while len(parts) < _WRITE_BATCH:
                    try:
                        extra = self.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is _CLOSED:
                        self.queue.put_nowait(_CLOSED)
                        break
                    parts.append(extra)
                self.writer.write(b"".join(parts))
                await self.writer.drain()
        except (ConnectionError, OSError):
            return  # peer is gone; the read loop's teardown handles it

    async def aclose(self) -> None:
        """Stop the heartbeat, let the writer flush what is queued, and
        close the socket.  Safe to call from the heartbeat task itself
        (an idle timeout tears its own connection down)."""
        if (
            self.heartbeat_task is not None
            and self.heartbeat_task is not asyncio.current_task()
        ):
            self.heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self.heartbeat_task
        if self.writer_task is not None:
            self.writer_gate.set()
            try:
                self.queue.put_nowait(_CLOSED)
            except asyncio.QueueFull:
                self.writer_task.cancel()  # queue wedged; no orderly flush
            # A writer wedged in drain() against a non-reading peer must
            # not wedge the teardown with it: past the bound wait_for
            # cancels it.  A cancelled writer (that, or the wedged queue
            # above) completing here is the expected outcome.
            with contextlib.suppress(asyncio.CancelledError, asyncio.TimeoutError):
                await asyncio.wait_for(self.writer_task, 5.0)
        self.writer.close()


class MonitorGateway:
    """Serve the safety monitor to remote clients over TCP.

    Parameters
    ----------
    monitor / monitor_bytes:
        Exactly one of a live trained :class:`SafetyMonitor` or a
        :func:`~repro.serving.snapshot.monitor_to_bytes` archive.
    n_shards:
        ``1`` embeds a single in-process :class:`MonitorService`;
        ``>= 2`` spawns a :class:`ShardedMonitorService` fleet behind an
        :class:`AsyncShardedMonitor`.
    max_sessions:
        Slot capacity of the engine — total for ``n_shards=1``, per
        shard otherwise (consistent hashing needs headroom, see
        ``docs/serving.md``).
    backend:
        Inference backend for the engine; ``None`` resolves to the
        choice embedded in ``monitor_bytes`` (via
        :func:`~repro.serving.snapshot.snapshot_backend`), falling back
        to ``"reference"`` — the same resolution the sharded service
        applies, so a snapshot's backend choice survives any number of
        gateway restarts.
    host / port:
        Bind address; port ``0`` picks a free port (read
        :attr:`port` after :meth:`start`).
    send_queue_max:
        Per-connection bounded send queue (messages).  Overflow — a
        consumer that stopped reading — disconnects that client.
    heartbeat_interval_s / idle_timeout_s:
        Gateway→client ping cadence, and how long a connection may stay
        silent before it is declared dead (fail-safe close).
    drain_timeout_s:
        How long a disconnect waits for its sessions' already-fed
        frames to finish processing before closing them anyway — one
        deadline per teardown, shared by all of the connection's
        sessions — and how long a CLOSE waits for its own session's.
    data_plane:
        ``"shm"`` is the only data plane; keyword retained until the
        benchmark stops passing it.
    resume_grace_s / event_replay_max:
        ``resume_grace_s > 0`` enables session resume: a disconnected
        client's sessions are *parked* for that many seconds instead of
        fail-safe closed, frame batches are acked (v2 ACK messages) and
        journaled while an event still to come can depend on them — so
        a shard worker crash is recovered transparently from the
        session's record — and a reconnecting client presenting its
        resume token replays from its last-acked seq.
        ``event_replay_max`` bounds the per-session ring of delivered
        events kept for replaying what a vanished client never read.
        The default ``0.0`` keeps the fail-safe-on-disconnect contract.
        See ``docs/remote.md`` ("Session resume").
    event_store:
        Optional :class:`~repro.serving.eventstore.EventStoreWriter`
        the gateway tees its client-visible event stream into: every
        delivered event, every event absorbed into a parked session's
        replay history, every terminal fail-safe event, plus a marker
        per applied resize or shed.  The tee happens at the gateway (the
        engine is built *without* a store), so the on-disk log replays the
        exact exactly-once stream clients saw — duplicates filtered,
        crash regenerations deduplicated.  The caller owns the writer's
        lifecycle (``close()`` it after ``stop()``); a full ring is a
        counted drop in the writer's stats, never a stalled gateway.
        See ``docs/observability.md``.

    Lifecycle: ``await start()`` → serve → ``await stop()`` (or use as
    an async context manager).  :meth:`serve_in_thread` bridges the
    gateway into synchronous programs via :class:`GatewayRunner`.

    Every wire-opened session is one :class:`_RemoteSession` record in
    one map from OPEN until close, fail-safe or lapse; a parked session
    is that record without a connection (:attr:`n_open_sessions` and
    :attr:`n_parked_sessions` count the two).  The record alone changes
    and interprets the session's stream position (seq, ack, journal,
    replay) and its ``phase`` — which task, if any, is changing its
    engine side — and decides what a crash, park, lapse, resume or
    close does; the handlers here do the awaits and the engine calls and
    I/O its answers call for, a CLOSE and a disconnect with no park end
    a session through one :meth:`_close`, and every fail-safe ending is
    :meth:`_fail_session`.
    """

    def __init__(
        self,
        monitor=None,
        *,
        monitor_bytes: bytes | None = None,
        n_shards: int = 1,
        max_sessions: int = 64,
        backend: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        send_queue_max: int = 1024,
        heartbeat_interval_s: float = 10.0,
        idle_timeout_s: float = 60.0,
        drain_timeout_s: float = 10.0,
        start_method: str | None = None,
        data_plane: str = "shm",
        resume_grace_s: float = 0.0,
        event_replay_max: int = 4096,
        event_store: "EventStoreWriter | None" = None,
    ) -> None:
        if (monitor is None) == (monitor_bytes is None):
            raise ConfigurationError("pass exactly one of monitor / monitor_bytes")
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if max_sessions < 1:
            raise ConfigurationError("max_sessions must be >= 1")
        if data_plane != "shm":
            raise ConfigurationError(
                f'data_plane must be "shm", got {data_plane!r}'
            )
        if send_queue_max < 2:
            raise ConfigurationError("send_queue_max must be >= 2")
        if heartbeat_interval_s <= 0 or drain_timeout_s <= 0:
            raise ConfigurationError("intervals/timeouts must be > 0")
        if idle_timeout_s is not None and idle_timeout_s <= heartbeat_interval_s:
            # A consumer-only client's sole traffic is echoing our
            # pings; a tighter idle bound would disconnect every
            # healthy-but-quiet connection.
            raise ConfigurationError(
                "idle_timeout_s must exceed heartbeat_interval_s (or be None)"
            )
        if backend is None and monitor_bytes is not None:
            backend = snapshot_backend(monitor_bytes)
        self.backend = validate_backend_name(
            DEFAULT_BACKEND if backend is None else backend
        )
        self._monitor = monitor
        self._monitor_bytes = monitor_bytes
        self._n_shards = int(n_shards)
        self.max_sessions = int(max_sessions)
        self.host = host
        self.port = int(port)  # rebound to the real port by start()
        self.send_queue_max = int(send_queue_max)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.idle_timeout_s = idle_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self._start_method = start_method
        if resume_grace_s < 0:
            raise ConfigurationError("resume_grace_s must be >= 0")
        if event_replay_max < 1:
            raise ConfigurationError("event_replay_max must be >= 1")
        self.resume_grace_s = float(resume_grace_s)
        self.event_replay_max = int(event_replay_max)
        self.event_store = event_store
        #: Applied resizes, oldest first — summary dicts surfaced to
        #: STATS clients by gateway_stats().
        self.resize_events: list[dict] = []
        #: Applied sheds, oldest first — the placement-change records
        #: surfaced to STATS clients and teed into the event store as
        #: ``"shed"`` markers.
        self.shed_events: list[dict] = []

        self._engine: _LocalEngine | AsyncShardedMonitor | None = None
        #: The fleet behind a sharded engine, kept solely so
        #: :meth:`_shutdown_engine` can terminate its worker processes.
        self._fleet: ShardedMonitorService | None = None
        self._server: asyncio.Server | None = None
        #: Strong references to fire-and-forget teardown tasks (the
        #: event loop only keeps weak ones; a GC'd teardown would leak
        #: the connection and skip its sessions' fail-safe closure).
        self._bg_tasks: set[asyncio.Task] = set()
        self._connections: dict[int, _Connection] = {}
        self._conn_ids = itertools.count()
        #: Every wire-opened session, live or parked, by session id.
        self._sessions: dict[str, _RemoteSession] = {}
        #: The signal a :meth:`_close` waits on, per session being
        #: drained; :meth:`_end_drain` sets and drops it.
        self._drains: dict[_RemoteSession, asyncio.Event] = {}
        self._started = False
        self._stopped = False
        #: Monotonic construction instant backing :attr:`uptime_s` —
        #: lifetime counters in gateway_stats() are rates against this.
        self._started_at = time.monotonic()

        #: Terminal fail-safe events recorded at the gateway: client
        #: disconnects, idle timeouts, queue overflows, shard crashes,
        #: shutdown with live sessions.  ``error`` set, ``flag=True``.
        self.failsafe_events: list[SessionEvent] = []
        #: Session id -> reason, for every session that ended fail-safe;
        #: an entry lasts until its id is opened again.
        self.failed_sessions: dict[str, str] = {}

        #: Every :data:`_COUNTS` name's counter in :attr:`telemetry`,
        #: bound once so that counting costs no registry lookup;
        #: gateway_stats() reads its STATS keys from them.  And two peaks.
        self.telemetry = TelemetryRegistry()
        self._counts = {
            name: self.telemetry.counter(f"gateway_{name}") for name in _COUNTS
        }
        self._peak_open_sessions = 0
        self._peak_queue_depth = 0

    @property
    def _resume_enabled(self) -> bool:
        return self.resume_grace_s > 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Build the engine, bind the socket; returns ``(host, port)``."""
        if self._started:
            raise ConfigurationError("gateway is already started")
        self._started = True
        loop = asyncio.get_running_loop()
        self._engine = await loop.run_in_executor(None, self._build_engine)
        try:
            await self._engine.start()
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port
            )
        except BaseException:
            # A failed bind (port in use, ...) must not orphan a fleet
            # of already-spawned shard workers.
            await self._shutdown_engine()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def _shutdown_engine(self) -> None:
        """End the engine's tasks and terminate any worker processes."""
        if self._engine is None:
            return
        await self._engine.aclose()
        if self._fleet is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._fleet.close
            )

    def _build_engine(self):
        """Blocking engine construction (model compile / worker spawn)."""
        if self._n_shards == 1:
            monitor = self._monitor
            if monitor is None:
                monitor = monitor_from_bytes(self._monitor_bytes)
            service = MonitorService(
                monitor, max_sessions=self.max_sessions, backend=self.backend
            )
            return _LocalEngine(service, self._route_events)
        self._fleet = ShardedMonitorService(
            self._monitor,
            n_shards=self._n_shards,
            max_sessions_per_shard=self.max_sessions,
            monitor_bytes=self._monitor_bytes,
            backend=self.backend,
            start_method=self._start_method,
        )
        return AsyncShardedMonitor(self._fleet, sink=self._route_events)

    async def stop(self) -> None:
        """Stop accepting, fail-safe every live connection, drain the
        engine's tasks and terminate any worker processes.  Idempotent."""
        stopped, self._stopped = self._stopped, True
        if stopped or not self._started:
            return
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections.values()):
            await self._teardown(conn, "gateway shutting down", allow_park=False)
        # Overflow teardowns / recoveries still in flight.
        await asyncio.gather(*list(self._bg_tasks), return_exceptions=True)
        # Only parked sessions are left, and they cannot outlive the
        # gateway: fail them safe now.
        for session in list(self._sessions.values()):
            self._expire_parked(session, "gateway shutting down")
        await self._shutdown_engine()

    async def __aenter__(self) -> "MonitorGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def serve_in_thread(self) -> "GatewayRunner":
        """Run this gateway on a dedicated event-loop thread (sync bridge)."""
        return GatewayRunner(self)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(next(self._conn_ids), writer, self.send_queue_max)
        self._connections[conn.id] = conn
        self._counts["connections_total"].inc()
        conn.writer_task = asyncio.create_task(
            conn.write_loop(), name=f"gateway-writer-{conn.id}"
        )
        conn.heartbeat_task = asyncio.create_task(
            self._heartbeat_loop(conn), name=f"gateway-heartbeat-{conn.id}"
        )
        reason = "client disconnected"
        try:
            while not conn.closed:
                header = await reader.readexactly(HEADER_SIZE)
                msg_type, length = decode_header(header)
                payload = await reader.readexactly(length) if length else b""
                conn.last_recv = asyncio.get_running_loop().time()
                await self._dispatch(conn, msg_type, payload)
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            # EOF or reset: the fail-safe teardown below handles it, and
            # the close reason records what actually ended the stream.
            reason = f"client disconnected ({type(exc).__name__})"
        except ProtocolError as exc:
            reason = f"protocol violation: {exc}"
            self._send_error(conn, ProtocolError(str(exc)), None)
        finally:
            await self._teardown(conn, reason)

    async def _handle_stats(self, conn: _Connection, payload: bytes) -> None:
        self._send_json(conn, MessageType.STATS, await self.gateway_stats())

    async def _handle_open(self, conn: _Connection, payload: bytes) -> None:
        session_id = decode_json(payload).get("session_id")
        if session_id is not None and not isinstance(session_id, str):
            raise ProtocolError("OPEN session_id must be a string or null")
        try:
            if session_id in self._sessions:
                # The engine refuses a live id itself, but a parked one
                # it may no longer hold: its record (and the fail-safe it
                # is owed if nobody resumes) must not be overwritten.
                raise ConfigurationError(f"session {session_id!r} is already open")
            if session_id is not None:
                # OPEN is JSON, but every ACK and EVENT names the session
                # in a u16-length UTF-8 field: an id that does not fit
                # one could be fed yet never alerted on.
                encode_ack(session_id, 0)
            # No timeline: a wire session's summary is built from the
            # record, and nothing reads the engine's per-frame lists.
            session_id = await self._engine.open_session(session_id, False)
        except (ReproError, UnicodeError) as exc:
            self._send_error(conn, exc, session_id, MessageType.OPEN)
            return
        if conn.closed:
            # The connection died while the open was in flight; release
            # the engine slot instead of registering a zombie session
            # that no teardown will ever drain or fail safe.
            with contextlib.suppress(ReproError):
                await self._engine.close_session(session_id)
            return
        # A new incarnation of the id: a predecessor's failure record
        # must not answer for it (nor for requests after its clean close).
        self.failed_sessions.pop(session_id, None)
        session = _RemoteSession(
            session_id,
            conn,
            self.event_replay_max if self._resume_enabled else None,
            self._engine.service.history_frames,
        )
        self._sessions[session_id] = session
        self._counts["sessions_opened"].inc()
        self._peak_open_sessions = max(self._peak_open_sessions, self.n_open_sessions)
        self._send_json(conn, MessageType.OPEN, session.open_reply())

    def _no_session_error(self, session_id: str, message: str) -> ReproError:
        """Why a request names a session this connection cannot act on:
        the recorded failure when the session ended fail-safe, else a
        :class:`ProtocolError` carrying ``message``."""
        reason = self.failed_sessions.get(session_id)
        if reason is not None and session_id not in self._sessions:
            return WorkerError(f"session {session_id!r} failed: {reason}")
        return ProtocolError(message)

    def _request_session(
        self, conn: _Connection, session_id: str, in_reply_to: MessageType | None = None
    ) -> _RemoteSession | None:
        """The session a FRAME or CLOSE acts on; ``None`` — the ERROR
        already sent — when ``conn`` does not own it."""
        session = self._sessions.get(session_id)
        if session is not None and session.conn is conn:
            return session
        self._send_error(
            conn,
            self._no_session_error(
                session_id, f"no session {session_id!r} open on this connection"
            ),
            session_id,
            in_reply_to,
        )
        return None

    async def _handle_frames(self, conn: _Connection, payload: bytes) -> None:
        session_id, seq, frames = decode_frames(payload)
        session = self._request_session(conn, session_id)
        if session is None:
            return
        frames = session.admit(seq, frames)
        # While a task changes the engine side, feeding it here would
        # race the task: the batch waits in the journal.
        if frames is not None and session.phase is LIVE:
            try:
                await self._engine.feed(session_id, frames)
            except ReproError as exc:
                # A worker crash with resume on is not the batch's
                # fault: the crash's terminal event triggers the
                # restore, which carries it.  Anything else (shape, ...)
                # is, and the batch is rejected.
                if session.journal is None or not isinstance(exc, WorkerError):
                    session.retract()
                    self._send_error(conn, exc, session_id)
                    return
        n_frames = 0 if frames is None else frames.shape[0]
        ack = session.accept(n_frames)
        self._counts["frames_received"].inc(n_frames)
        if ack is not None:
            self._enqueue_or_overflow(
                conn, encode_message(MessageType.ACK, encode_ack(session_id, ack))
            )
            self._counts["acks_sent"].inc()

    async def _handle_close(self, conn: _Connection, payload: bytes) -> None:
        session_id = decode_json(payload).get("session_id")
        if not isinstance(session_id, str):
            raise ProtocolError("CLOSE session_id must be a string")
        session = self._request_session(conn, session_id, MessageType.CLOSE)
        if session is not None and not await self._close(
            session, conn, asyncio.get_running_loop().time() + self.drain_timeout_s
        ):
            # Stolen, ended fail-safe or parked under the drain, or still
            # recovering at the deadline: the record's ending is not ours.
            self._send_error(
                conn,
                self._no_session_error(
                    session_id,
                    f"session {session_id!r} was not closed on this connection",
                ),
                session_id,
                MessageType.CLOSE,
            )

    async def _handle_resume(self, conn: _Connection, payload: bytes) -> None:
        """Bind a session to this connection on the strength of its token.

        The client proves ownership with the resume token from its OPEN
        ack and reports ``last_event`` — how many events it received
        before the disconnect.  A *parked* session is adopted: its
        engine side is restored first (:meth:`_adopt`).  A session
        still bound to another connection the gateway has not yet
        noticed is dead (a half-open socket, or an EOF teardown still
        queued) is *stolen*: the engine never hears about it, only the
        event route and the frame source move, and the old connection
        loses ownership at once — its later frames fail the ownership
        check and its teardown skips the session (no park, no
        fail-safe).

        The reply carries ``acked_seq`` (frames the gateway durably
        holds; the client replays everything after it) and is followed
        by the events the client missed, in order, as one EVENT message
        ahead of any live event (an engine's events for this session
        are routed only after the handler returns control to the loop,
        and the writer drains its queue in FIFO order) — so the resumed
        stream is gapless and duplicate-free.
        """
        request = decode_json(payload)
        session_id = request.get("session_id")
        token = request.get("token")
        last_event = request.get("last_event", 0)
        if not isinstance(session_id, str) or not isinstance(token, str):
            raise ProtocolError("RESUME requires session_id and token strings")
        if (
            isinstance(last_event, bool)  # JSON true is no count
            or not isinstance(last_event, int)
            or last_event < 0
        ):
            raise ProtocolError("RESUME last_event must be a non-negative int")
        session = self._sessions.get(session_id)
        if session is None or session.token is None or session.busy:
            # Nothing to resume — or not yet: every busy phase ends on
            # its own, so the client retries the same request.
            error = self._no_session_error(
                session_id, f"no parked session {session_id!r}"
            )
        else:
            error = session.refusal(token, last_event, conn)
            if isinstance(error, WorkerError):
                # Beyond replay reach: resuming would silently skip
                # events, so a park fails safe now.  (A session still
                # bound to its old connection does not lapse: when that
                # dies for real, the park / expiry lifecycle decides.)
                self._expire_parked(session, session.overrun(last_event))
        if error is not None:
            self._send_error(conn, error, session_id, MessageType.RESUME)
            return
        if session.conn is None and not await self._adopt(
            conn, session, token, last_event
        ):
            return
        session.resume(conn)
        self._counts["resumed_total"].inc()
        self._peak_open_sessions = max(self._peak_open_sessions, self.n_open_sessions)
        self._send_json(conn, MessageType.RESUME, session.resume_reply())
        replay = session.replay(last_event)
        if replay:
            # One message however many events are owed: a message per
            # event, enqueued here with no await for the writer to
            # drain on, would overflow the send queue with the replay
            # itself (event_replay_max defaults above send_queue_max).
            self._send_events(conn, replay)

    async def _adopt(
        self, conn: _Connection, session: _RemoteSession, token: str, last_event: int
    ) -> bool:
        """Restore a parked session's engine side for ``conn``.

        False when the resume ended here: the session failed safe
        (error already sent) or the resumer vanished and the session is
        parked again.
        """
        session.adopt()
        session.expiry.cancel()
        try:
            if not await self._restore(session):
                return False  # lapsed underneath the adopt (shutdown)
        except ReproError as exc:
            self._fail_session(session, f"resume failed: {exc}")
            self._send_error(conn, exc, session.session_id, MessageType.RESUME)
            return False
        if conn.closed:
            # The resumer vanished while the adopt was in flight: park
            # again rather than leak a session nobody tracks.
            await self._park_session(session, session.reason)
            if self._stopped:
                self._expire_parked(session)
            return False
        error = session.refusal(token, last_event, conn)
        if error is not None:
            # Events that landed while the adopt was in flight evicted
            # ring entries; the client can no longer be caught up
            # gaplessly.  As in :meth:`_close`, the engine side goes
            # before the ending is announced: a client that reopens the
            # id on the refusal must find it free.
            reason = session.overrun(last_event)
            session.end()
            with contextlib.suppress(ReproError):
                await self._engine.close_session(session.session_id)
            self._fail_session(session, reason)
            self._send_error(conn, error, session.session_id, MessageType.RESUME)
            return False
        return True

    async def _close(
        self,
        session: _RemoteSession,
        conn: _Connection,
        deadline: float,
        reason: str | None = None,
    ) -> bool:
        """Drain ``session``, then release it — the one ending of a
        session its owner ``conn`` is done with: its CLOSE (``reason``
        ``None``) or its end with no park (``reason``), the *drain* and
        *close* halves of the drain-and-close contract.

        Waits on the session's signal while the record says so
        (:meth:`_RemoteSession.close`: a recovery to wait out, events
        still owed), until the loop clock reaches ``deadline``.
        :meth:`_end_drain` sets the signal when the event for the last
        accepted frame is routed, when the session ends, parks or
        settles.  Then, if the release is still this closer's own
        (:meth:`_RemoteSession.closes`), releases the session's engine
        side and ends it: the CLOSE reply, or :meth:`_fail_session`'s
        terminal.  False when the ending was somebody else's.
        """
        while session.close(conn, reason):
            signal = self._drains.setdefault(session, asyncio.Event())
            try:
                await asyncio.wait_for(
                    signal.wait(), deadline - asyncio.get_running_loop().time()
                )
            except asyncio.TimeoutError:
                break
        if not session.closes(conn, reason):
            return False
        # The release is this closer's: ended, the record is no task's to
        # act on while its engine side goes (a dead worker has nothing
        # left to release), and the ending is announced once it has —
        # the id may then be opened again at once.
        session.end()
        with contextlib.suppress(ReproError):
            await self._engine.close_session(session.session_id)
        if reason is None:
            self._unregister(session)
            self._counts["sessions_closed"].inc()
            self._send_json(conn, MessageType.CLOSE, session.close_reply())
        else:
            self._fail_session(session, reason)
        return True

    def _end_drain(self, session: _RemoteSession) -> None:
        """Wake whoever drains ``session``: its wait may have ended."""
        signal = self._drains.pop(session, None)
        if signal is not None:
            signal.set()

    async def _teardown(
        self, conn: _Connection, reason: str, allow_park: bool = True
    ) -> None:
        """Disconnect a client.

        Default contract: drain-and-close its sessions fail-safe
        (:meth:`_close`, which takes over a CLOSE in flight), all of
        them under one ``drain_timeout_s`` deadline.  With resume
        enabled (and ``allow_park``), sessions are parked for the grace
        window instead — no drain, no closure: the record's journal
        holds the frames still to process, and in-flight events keep
        landing in the parked history until a resume or expiry.
        """
        if conn.torn_down:
            return
        conn.torn_down = True
        conn.closed = True  # stop routing/replies to this connection now
        park = self._resume_enabled and allow_park and not self._stopped
        deadline = asyncio.get_running_loop().time() + self.drain_timeout_s
        # A bound record is always in the map: end() unbinds it.
        for session in [self._sessions[sid] for sid in conn.sessions]:
            if not park:
                await self._close(session, conn, deadline, reason)
            elif session.conn is conn:  # not ended or stolen meanwhile
                await self._park_session(session, reason)
        self._connections.pop(conn.id, None)
        await conn.aclose()

    # ------------------------------------------------------------------
    # Session parking (resume grace window)
    # ------------------------------------------------------------------
    async def _park_session(self, session: _RemoteSession, reason: str) -> None:
        """Release a disconnected session's engine side and hold its
        record for the grace window."""
        if session.park(reason):
            # Whatever the engine had not processed is in the journal; a
            # dead worker has nothing left to release.
            with contextlib.suppress(ReproError):
                await self._engine.close_session(session.session_id)
            session.settle()
            if session.phase is ENDED:
                return  # ended while the close ran: no longer ours to park
        self._end_drain(session)
        self._counts["parked_total"].inc()
        session.expiry = asyncio.get_running_loop().call_later(
            self.resume_grace_s, self._expire_parked, session
        )

    def _expire_parked(
        self, session: _RemoteSession, reason: str | None = None
    ) -> None:
        """Fail a parked session safe: the grace window lapsed unresumed
        (or ``reason``)."""
        if session.lapses:
            self._counts["resume_expired_total"].inc()
            self._fail_session(
                session,
                reason
                or f"resume grace window expired ({self.resume_grace_s}s): "
                f"{session.reason}",
            )

    async def _restore(self, session: _RemoteSession) -> bool:
        """Bring a session's engine side back from its record.

        The one restore in the gateway, behind transparent worker-crash
        recovery (the record ``RECOVERING``) and behind a resume
        (``RESUMING``) alike: import :meth:`_RemoteSession.archive` —
        the session at ``delivered``, every accepted frame not yet
        processed as its pending input; consistent hashing places it on
        a live shard — then feed whatever was admitted while the import
        ran.  The cost is the engine's ``history_frames`` plus the
        undelivered frames, however long the session has run.  Ticks
        are deterministic, so the stream continues bit-identically, and
        an event of the lost engine side still in flight meets the
        record's duplicate filter.  Any failure on the way — the engine
        still reaping the crash, a worker found dead only by this very
        exchange, a *second* crash under the shard the session just
        landed on — releases whatever half-state exists and starts over
        from a fresh archive; the last failure is raised once the
        bounded restarts are exhausted.  Returns False, its own engine
        session released, when the record stops wanting the restore
        underneath (:attr:`_RemoteSession.wanted`: it ended, or a
        recovering session was parked): whoever resumes it restores
        anew.
        """
        session_id = session.session_id
        for attempt in range(1, 9):
            if not session.wanted:
                return False
            imported = False
            failure = None
            try:
                state = session.archive()
                sent = state.frames_done + state.pending_frames
                await self._engine.import_session(session_to_bytes(state))
                imported = True
                while session.wanted:
                    tail = session.held()[sent - session.base :]
                    if not len(tail):
                        # No await since the journal was read: the
                        # caller can settle the record before any frame
                        # slips in unfed.
                        return True
                    await self._engine.feed(session_id, tail)
                    sent += len(tail)
            except ReproError as exc:
                failure = exc
            if imported or session.wanted:
                # The half-restored engine session must go before a
                # retry (a crashed shard's failure record is popped by
                # the re-import, a survivor is closed outright: the next
                # attempt starts from a clean slate) and before an
                # abandonment — but an abandoned id this attempt never
                # imported holds nothing of the task's, and once the
                # session ended it may be somebody else's.
                with contextlib.suppress(ReproError):
                    await self._engine.close_session(session_id)
            if not session.wanted:
                return False
            if attempt == 8:
                raise failure
            self._counts["restore_retries_total"].inc()
            await asyncio.sleep(0.05 * attempt)

    async def _recover_session(self, session: _RemoteSession) -> None:
        """Restore a live session whose worker died; only when the
        restore's restarts are exhausted does the session fall back to
        the fail-safe contract."""
        try:
            if await self._restore(session):
                self._counts["recovered_total"].inc()
        except ReproError as exc:
            self._fail_session(session, f"unrecoverable worker crash: {exc}")
        session.settle()
        self._end_drain(session)  # a CLOSE waiting the restore out claims now

    _HANDLERS = {
        MessageType.FRAME: _handle_frames,
        MessageType.OPEN: _handle_open,
        MessageType.CLOSE: _handle_close,
        MessageType.RESUME: _handle_resume,
        MessageType.STATS: _handle_stats,
    }

    async def _dispatch(
        self, conn: _Connection, msg_type: MessageType, payload: bytes
    ) -> None:
        if msg_type is MessageType.HEARTBEAT:
            return  # liveness only; last_recv is already refreshed
        handler = self._HANDLERS.get(msg_type)
        if handler is None:
            raise ProtocolError(f"unexpected client message type {msg_type.name}")
        await handler(self, conn, payload)

    # ------------------------------------------------------------------
    # Per-connection tasks
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self, conn: _Connection) -> None:
        """Ping the client; declare it dead past the idle timeout."""
        loop = asyncio.get_running_loop()
        while not conn.closed:
            await asyncio.sleep(self.heartbeat_interval_s)
            if conn.closed:
                return
            if (
                self.idle_timeout_s is not None
                and loop.time() - conn.last_recv > self.idle_timeout_s
            ):
                self._counts["idle_disconnects"].inc()
                self._send_error(
                    conn,
                    WorkerError(
                        f"idle timeout: no traffic for {self.idle_timeout_s}s"
                    ),
                    None,
                )
                await self._teardown(conn, "idle timeout")
                return
            self._enqueue_or_overflow(conn, encode_message(MessageType.HEARTBEAT))
            self._counts["heartbeats_sent"].inc()

    # ------------------------------------------------------------------
    # Event routing
    # ------------------------------------------------------------------
    def _route_events(self, batch: list[SessionEvent]) -> None:
        """Route one engine hand-over's events to their owning connections.

        The single sink both engines call, on the loop thread, with the
        events of one K=1 tick, of one fleet shard's tick round, or of
        one crash/resize/shed flush.  Every
        per-event decision is taken in batch order — each session's
        record says whether the event joins its client-visible stream —
        then the accepted events are teed into the durable log with one
        ``append_batch`` and each connection gets **one** EVENT message
        carrying its events in that order.  The tee comes first: what a
        connection can or cannot be sent never decides what is logged.
        """
        outgoing: dict[_Connection, list[SessionEvent]] = {}
        logged: list[SessionEvent] = []
        for event in batch:
            session = self._sessions.get(event.session_id)
            if session is None:
                self._counts["events_dropped"].inc()
                continue
            if event.error is not None and session.journal is not None:
                # Resume mode treats a worker crash as recoverable:
                # restore from the record instead of failing the
                # session safe — now for a live session, at resume time
                # for a parked one.
                if session.crash():
                    self._spawn(
                        self._recover_session(session),
                        f"gateway-recover-{event.session_id}",
                    )
                continue
            if not session.deliver(event):
                continue
            if self._drains and session.drained:
                self._end_drain(session)
            # Past the duplicate filter: part of the client-visible
            # stream, and of the durable log, exactly once — sent now,
            # or, in flight when its client vanished, kept in the
            # history for the resume to replay.
            logged.append(event)
            conn = session.conn
            if conn is not None and not conn.closed:
                outgoing.setdefault(conn, []).append(event)
            if event.error is not None:
                # Terminal: the engine lost this session (worker crash).
                # Surface it at the gateway too, not only on the wire.
                self._note_failsafe(event)
                self._unregister(session)
        if logged and self.event_store is not None:
            self.event_store.append_batch(logged)
        for conn, events in outgoing.items():
            self._send_events(conn, events)

    def _send_events(self, conn: _Connection, events: list[SessionEvent]) -> None:
        """Queue one EVENT message carrying ``events`` in order."""
        try:
            payload = encode_events(events)
        except ProtocolError as exc:
            # An event the wire cannot carry must neither be skipped
            # silently nor cost other connections theirs: this
            # connection ends (its sessions park or fail safe).
            self._disconnect(conn, f"unencodable event: {exc}")
            return
        self._enqueue_or_overflow(conn, encode_message(MessageType.EVENT, payload))
        self._counts["events_sent"].inc(len(events))

    def _send_json(self, conn: _Connection, msg_type: MessageType, obj: dict) -> None:
        self._enqueue_or_overflow(conn, encode_message(msg_type, encode_json(obj)))

    def _enqueue_or_overflow(self, conn: _Connection, data: bytes) -> None:
        self._peak_queue_depth = max(self._peak_queue_depth, conn.queue.qsize())
        if not conn.enqueue(data):
            self._counts["overflow_disconnects"].inc()
            self._disconnect(conn, "send queue overflow (client not reading events)")

    def _disconnect(self, conn: _Connection, reason: str) -> None:
        """Cut a connection off from a synchronous path: routing to it
        stops now, its teardown runs as a background task."""
        conn.closed = True
        self._spawn(self._teardown(conn, reason))

    def _spawn(self, coro, name: str | None = None) -> None:
        """Run a fire-and-forget task, strongly referenced until done."""
        task = asyncio.get_running_loop().create_task(coro, name=name)
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)

    def _send_error(
        self,
        conn: _Connection,
        exc: Exception,
        session_id: str | None,
        in_reply_to: MessageType | None = None,
    ) -> None:
        """Report a failure to the client.

        ``in_reply_to`` names the control request this error answers
        (OPEN/CLOSE), letting clients tell a failed request apart from
        an *asynchronous* error (a rejected unacked FRAME, an idle
        timeout) that arrives while some other reply is pending.
        """
        self._send_json(
            conn,
            MessageType.ERROR,
            {
                "error_type": type(exc).__name__,
                "error": str(exc),
                "session_id": session_id,
                "in_reply_to": in_reply_to.name if in_reply_to is not None else None,
            },
        )

    def _note_failsafe(self, event: SessionEvent) -> None:
        self.failsafe_events.append(event)
        self._counts["events_failsafe"].inc()
        self.failed_sessions[event.session_id] = event.error or "unknown"

    def _fail_session(self, session: _RemoteSession, reason: str) -> None:
        """End a session fail-safe — the one ending behind every
        disconnect, lapse, failed resume and exhausted recovery: the
        record leaves the map, its terminal event (``flag=True``, at
        the position the client-visible stream stops at) is noted and
        teed into the store, and a connection still listening is sent
        it."""
        conn = session.conn
        self._unregister(session)
        event = session.terminal(reason)
        self._note_failsafe(event)
        if self.event_store is not None:
            self.event_store.append(event)
        if conn is not None and not conn.closed:
            self._send_events(conn, [event])

    def _unregister(self, session: _RemoteSession) -> None:
        self._sessions.pop(session.session_id, None)
        session.end()
        self._end_drain(session)
        if session.expiry is not None:
            session.expiry.cancel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        """Monotonic seconds since this gateway was constructed.

        Never resets — resizes, sheds and reconnect storms leave it (and
        the cumulative event counters it contextualises) strictly
        increasing.
        """
        return time.monotonic() - self._started_at

    @property
    def n_open_sessions(self) -> int:
        """Number of wire-opened sessions currently live."""
        return len(self._sessions) - self.n_parked_sessions

    @property
    def n_parked_sessions(self) -> int:
        """Number of sessions parked awaiting a resume: no connection
        holds them, and their park's release has landed (a closing
        session whose release is in flight still counts as open)."""
        # list() first: tests and harnesses read this off the loop thread.
        return sum(
            s.conn is None and s.phase not in (PARKING, ENDED)
            for s in list(self._sessions.values())
        )

    @property
    def n_shards(self) -> int:
        """Live shard count: the fleet's, after any reshape — refused
        part-way or not — and crash; the constructor's ``n_shards``
        before :meth:`start` and for the embedded single-service
        engine."""
        return self._n_shards if self._fleet is None else self._fleet.n_shards

    def _elastic_engine(self, action: str) -> AsyncShardedMonitor:
        """The sharded engine a fleet reshape runs on."""
        if self._engine is None:
            raise ConfigurationError("gateway is not started")
        if self._fleet is None:
            raise ConfigurationError(
                f"the embedded single-service engine cannot {action}; "
                "start the gateway with n_shards >= 2 for a sharded fleet"
            )
        return self._engine

    async def resize(self, target_k: int) -> dict:
        """Live-resize the serving fleet to ``target_k`` shards.

        Open socket sessions ride through: their state — pending frames
        included — migrates between workers, no event is lost and no
        fail-safe closure occurs.  The resize is recorded in
        :attr:`resize_events` and visible to every STATS client.  A
        resize refused part-way (a full target) raises and is not
        recorded, but every live shard — one it added included — keeps
        being ticked, and STATS reports the live count.  Only available
        on a sharded gateway (``n_shards >= 2`` at construction); the
        embedded single-service engine raises
        :class:`~repro.errors.ConfigurationError`.
        """
        summary = await self._elastic_engine("resize").resize(target_k)
        event = dict(summary, trigger="manual")
        self.resize_events.append(event)
        if self.event_store is not None:
            self.event_store.append_marker("resize", dict(event))
        return summary

    async def shed(self, session_ids: list[str], to_shard: int) -> dict[str, int]:
        """Live-migrate named sessions onto one shard and pin them there.

        What an operator (or a chaos campaign) calls to move sessions
        off a hot shard: sessions ride through exactly as they do under
        resize — pending frames migrate, no event is lost, no
        fail-safe closure — and the placement overlay keeps routing
        them to ``to_shard`` afterwards.  Sessions that closed or
        failed meanwhile are skipped, and a full target ends the batch;
        the returned ``{session_id: previous shard}`` map names what
        actually moved.  Applied sheds are recorded in
        :attr:`shed_events` and visible to every STATS client.  Only
        available on a sharded gateway (``n_shards >= 2`` at
        construction).
        """
        moved = await self._elastic_engine("shed").shed(list(session_ids), to_shard)
        if moved:
            event = {
                "to": to_shard,
                "sessions": sorted(moved),
                "n": len(moved),
                "trigger": "manual",
            }
            self.shed_events.append(event)
            if self.event_store is not None:
                self.event_store.append_marker("shed", dict(event))
        return moved

    async def shard_stats(self) -> dict[int, ServiceStats]:
        """The embedded engine's per-shard :class:`ServiceStats`.

        Raw objects (retained tick-latency samples included), polled
        without disturbing the engine's pipe protocol — feed the dict to
        :func:`~repro.serving.sharded.suggest_shard_count` or merge the
        samples for fleet-wide percentiles.  ``gateway_stats()`` carries
        the JSON-friendly reduction of the same data.
        """
        if self._engine is None:
            return {}
        return await self._engine.shard_stats()

    async def gateway_stats(self) -> dict:
        """Aggregate serving and transport statistics (JSON-serialisable).

        Folds the engine's per-shard :class:`ServiceStats` (tick/frame
        counters, tick-latency percentiles, registries: one ``stats``
        exchange per shard) together with the gateway's own connection,
        session, queue-depth and fail-safe counts (:attr:`telemetry`) —
        also what the STATS wire message returns, and the input half of
        :func:`~repro.serving.sharded.suggest_shard_count` (pass the
        engine's ``shard_stats()``).
        """
        shard_stats = await self._engine.shard_stats() if self._engine else {}
        depths = [c.queue.qsize() for c in self._connections.values()]
        # Fold the registries the shards' stats carry, the router's
        # (retired shards and its incident counters; no IPC) and the
        # gateway's own into one snapshot — the fleet telemetry plane as
        # one JSON document.
        counts = {name: counter.value for name, counter in self._counts.items()}
        registry = TelemetryRegistry()
        registry.merge(self.telemetry.snapshot())
        if self._fleet is not None:
            registry.merge(self._fleet.router_telemetry_snapshot())
        for stats in shard_stats.values():
            registry.merge(stats.telemetry.snapshot())
        store_stats = (
            self.event_store.stats() if self.event_store is not None else None
        )
        return {
            "protocol_version": PROTOCOL_VERSION,
            "n_shards": self.n_shards,
            "backend": self.backend,
            # The arithmetic this host's reference contraction computes
            # with: two gateways' streams may be compared bit for bit
            # iff "backend" and "numerics" agree (workers are forks of
            # this process; theirs are under telemetry.labels).
            "numerics": numerics_fingerprint(),
            "uptime_s": self.uptime_s,
            # Cumulative event accounting: emitted to clients, recorded
            # fail-safe, and dropped by the durable log's bounded ring
            # (0 without a store — the tee never blocks, only counts).
            "events": {
                "emitted": counts["events_sent"],
                "failsafe": counts["events_failsafe"],
                "dropped": counts["events_dropped"],
                "dropped_log": (
                    store_stats["dropped"] if store_stats is not None else 0
                ),
            },
            "store": store_stats,
            "telemetry": registry.snapshot(),
            # Resize history: how clients learn the fleet changed shape
            # underneath their sessions — and that nothing happened to
            # those sessions.
            "resizes": {
                "count": len(self.resize_events),
                "events": self.resize_events[-16:],
            },
            # Placement history: which sessions were shed onto which
            # shard.
            "placement": {
                "count": len(self.shed_events),
                "events": self.shed_events[-16:],
            },
            "connections": {
                "open": len(self._connections),
                "total": counts["connections_total"],
                "overflow_disconnects": counts["overflow_disconnects"],
                "idle_disconnects": counts["idle_disconnects"],
            },
            "sessions": {
                "open": self.n_open_sessions,
                "peak_open": self._peak_open_sessions,
                "opened_total": counts["sessions_opened"],
                "closed_total": counts["sessions_closed"],
                "failed_total": counts["events_failsafe"],
            },
            "queues": {
                "capacity": self.send_queue_max,
                "depths": depths,
                "max_depth": max(depths, default=0),
                "peak_depth": self._peak_queue_depth,
            },
            "resume": {
                "enabled": self._resume_enabled,
                "grace_s": self.resume_grace_s,
                "parked": self.n_parked_sessions,
                "parked_total": counts["parked_total"],
                "resumed_total": counts["resumed_total"],
                "expired_total": counts["resume_expired_total"],
                "recovered_total": counts["recovered_total"],
                "restore_retries_total": counts["restore_retries_total"],
                "journal_frames": sum(
                    len(batch)
                    for session in self._sessions.values()
                    for batch in session.journal or ()
                ),
                "acks_sent": counts["acks_sent"],
            },
            "frames_received": counts["frames_received"],
            "events_sent": counts["events_sent"],
            "events_dropped": counts["events_dropped"],
            "heartbeats_sent": counts["heartbeats_sent"],
            "shards": {
                str(index): {
                    "n_ticks": stats.n_ticks,
                    "frames_processed": stats.frames_processed,
                    "tick_p50_ms": stats.percentile_ms(50),
                    "tick_p99_ms": stats.percentile_ms(99),
                }
                for index, stats in shard_stats.items()
            },
        }


class GatewayRunner:
    """Run a :class:`MonitorGateway` on a dedicated event-loop thread.

    The bridge for synchronous programs (the sync client SDK, pytest,
    ``examples/remote_clients.py``): the gateway's asyncio machinery
    lives on a daemon thread; the caller gets ``(host, port)`` plus
    :meth:`run` to submit coroutines (e.g. ``gateway.gateway_stats()``)
    from sync code.  Use as a context manager — exit stops the gateway
    (terminating any shard workers) and joins the loop thread.
    """

    def __init__(self, gateway: MonitorGateway, startup_timeout_s: float = 120.0):
        self.gateway = gateway
        self._startup_timeout_s = startup_timeout_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.host: str | None = None
        self.port: int | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the gateway; returns ``(host, port)``."""
        if self._thread is not None:
            raise ConfigurationError("runner is already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="gateway-loop", daemon=True
        )
        self._thread.start()
        start_future = asyncio.run_coroutine_threadsafe(
            self.gateway.start(), self._loop
        )
        try:
            self.host, self.port = start_future.result(
                self._startup_timeout_s
            )
        except BaseException:
            # The start() coroutine may still be mid-flight (e.g. the
            # engine build on an executor thread); let it settle and
            # tear the gateway down before killing the loop, so a slow
            # startup never orphans already-spawned shard workers.
            with contextlib.suppress(BaseException):
                start_future.result(self._startup_timeout_s)
            with contextlib.suppress(BaseException):
                asyncio.run_coroutine_threadsafe(
                    self.gateway.stop(), self._loop
                ).result(self._startup_timeout_s)
            self._stop_loop()
            raise
        return self.host, self.port

    def run(self, coro, timeout_s: float | None = 60.0):
        """Execute a coroutine on the gateway's loop; return its result."""
        if self._loop is None:
            raise ConfigurationError("runner is not started")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout_s
        )

    def stats(self) -> dict:
        """Synchronous :meth:`MonitorGateway.gateway_stats`."""
        return self.run(self.gateway.gateway_stats())

    def stop(self) -> None:
        """Stop the gateway and join the loop thread.  Idempotent."""
        if self._loop is None:
            return
        stop_future = asyncio.run_coroutine_threadsafe(
            self.gateway.stop(), self._loop
        )
        try:
            stop_future.result(self._startup_timeout_s)
        except BaseException:
            # A slow shutdown (per-session drains, writer flushes) must
            # still finish terminating worker processes before the loop
            # dies — give it one more full timeout, best effort.
            with contextlib.suppress(BaseException):
                stop_future.result(self._startup_timeout_s)
            raise
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(30.0)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "GatewayRunner":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
