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
  session instead (engine state exported through the migration codec,
  in-flight events folded into a replay history); a client returning
  within the grace window presents its resume token, replays frames
  from the acked seq the RESUME reply names, and receives the events
  it missed before any live one — zero lost frames, no duplicates.
  Accepted frame batches are acked (v2 ACK) and journaled, which also
  turns a shard worker crash into a transparent re-open-and-replay
  instead of a terminal event.  An unresumed park falls back to the
  fail-safe contract when the window lapses.  See ``docs/remote.md``.

``gateway_stats()`` aggregates the engine's per-shard
:meth:`shard_stats` with connection/session/queue-depth counters; the
STATS wire message returns it to any client.  See ``docs/remote.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import secrets
import threading
import time
from collections import deque
from typing import TYPE_CHECKING

from ...errors import ConfigurationError, ProtocolError, ReproError, WorkerError
from ...nn.backends import DEFAULT_BACKEND, validate_backend_name
from ...nn.layers.contract import numerics_fingerprint
from ..async_frontend import AsyncShardedMonitor
from ..autoscaler import MonitorAutoscaler
from ..balancer import MonitorBalancer
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..eventstore import EventStoreWriter

#: Sentinel ending a connection's writer task.
_CLOSED = object()

#: Messages a writer task coalesces into one socket write at most.
_WRITE_BATCH = 64


class _LocalEngine:
    """Single-threaded serving engine over one in-process :class:`MonitorService`.

    The K=1 topology: no worker processes, no executor, no lock — every
    call into the service (open/feed/tick/close/export/import/telemetry)
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

    async def export_session(self, session_id: str) -> bytes:
        self._check_failure()
        return session_to_bytes(
            self.service.export_session(session_id, remove=True)
        )

    async def import_session(
        self, state: bytes, record_timeline: bool = True
    ) -> str:
        self._check_failure()
        session_id = self.service.import_session(session_from_bytes(state))
        self._schedule_tick()  # imported state may carry pending frames
        return session_id

    async def shard_stats(self) -> dict[int, ServiceStats]:
        return {0: self.service.stats}

    async def telemetry(self) -> dict:
        return self.service.telemetry.snapshot()

    async def resize(self, target_k: int) -> dict:
        raise ConfigurationError(
            "the embedded single-service engine cannot resize; start the "
            "gateway with n_shards >= 2 for an elastic fleet"
        )

    async def shed(self, session_ids: list[str], to_shard: int) -> dict[str, int]:
        raise ConfigurationError(
            "the embedded single-service engine has no shards to shed "
            "between; start the gateway with n_shards >= 2 for a "
            "load-balanced fleet"
        )

    async def aclose(self) -> None:
        self._closed = True


class _RemoteSession:
    """The gateway's one record of a wire-opened session, OPEN to end.

    The record stays in ``MonitorGateway._sessions`` from OPEN until
    close, fail-safe or lapse; *live* and *parked* are phases of it, not
    separate objects.  ``conn`` is the owning connection, or ``None``
    while the session is parked for the resume grace window.

    With resume enabled (``resume_grace_s > 0``) the record carries the
    session's durability state: the resume ``token`` handed to the
    client at OPEN, the ``journal`` of every accepted frame batch (the
    source every engine-side rebuild replays), and the ``history`` ring
    of recently delivered events (the replay source for events a
    disconnected client never read — events in flight through the
    engine when the client vanished keep landing in it while parked).

    Phase flags, each a guard some handler checks before acting:

    - ``recovering`` — a background task is rebuilding the engine side
      from the journal after a worker crash.  Incoming frames are
      journaled (and acked: the journal is what the ack promises) but
      not fed until the task catches up; a park meanwhile is *cold*, and
      a RESUME waits until the task has noticed the park and let go.
    - ``parking`` — the park's export is in flight: the engine side is
      mid-removal, so a RESUME must wait for the park to land instead of
      re-binding a session whose engine state is about to vanish, and a
      crash event starts no recovery (the export is about to fail and
      park the session cold; a rebuild would re-open the id under it).
    - ``inflight`` — FRAME batches currently awaiting their engine feed.
      While > 0, ``fed`` understates what the journal will hold once
      those handlers resume — a RESUME reading it now would report an
      acked_seq that makes the client re-send the in-flight batch past
      the duplicate filter.  Resumes wait.
    - ``resuming`` — a RESUME is adopting this parked session (import or
      journal rebuild in flight); a second RESUME is refused.

    Park-only fields: ``state`` is the engine-exported
    :func:`session_to_bytes` archive (pending frames and window rings
    included), or ``None`` when the export was impossible — the owning
    worker was dead or mid-recovery — in which case the journal alone
    rebuilds the session (a *cold adopt*, bit-identical because
    inference is deterministic); ``reason`` is why the connection
    ended; ``expiry`` is the grace-window timer.
    """

    __slots__ = (
        "conn", "fed", "delivered", "flagged", "token", "journal",
        "history", "record_timeline", "recovering", "parking", "inflight",
        "resuming", "state", "reason", "expiry",
    )

    def __init__(
        self, conn: "_Connection", record_timeline: bool = False
    ) -> None:
        self.conn: _Connection | None = conn
        self.fed = 0  # frames accepted off the wire
        self.delivered = 0  # events routed back (== frames processed)
        self.flagged = 0  # events with flag=True
        self.token: str | None = None
        self.journal: list | None = None  # frame batches, oldest first
        self.history: deque | None = None  # recently delivered events
        self.record_timeline = record_timeline
        self.recovering = False
        self.parking = False
        self.inflight = 0
        self.resuming = False
        self.state: bytes | None = None
        self.reason: str | None = None
        self.expiry: asyncio.TimerHandle | None = None


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
        self.last_recv = 0.0
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
        How long a disconnect/close waits for a session's already-fed
        frames to finish processing before closing it anyway.
    data_plane:
        ``"shm"`` is the only data plane; keyword retained until the
        benchmark stops passing it.
    autoscale_interval_s / autoscale_max_shards:
        When ``autoscale_interval_s`` is set (requires ``n_shards >=
        2``), the gateway runs a
        :class:`~repro.serving.autoscaler.MonitorAutoscaler` over its
        fleet at that cadence, live-resizing within ``[1,
        autoscale_max_shards]``.  Every applied (or manual
        :meth:`resize`) resize is recorded and visible to STATS clients
        — socket sessions ride through resizes transparently, their
        frames migrating with them.
    balance_interval_s / balance_max_moves:
        When ``balance_interval_s`` is set (requires ``n_shards >= 2``),
        the gateway runs a
        :class:`~repro.serving.balancer.MonitorBalancer` over its fleet
        at that cadence — the *skew* level of the two-level controller:
        sessions are continuously shed off hot shards (at most
        ``balance_max_moves`` per cycle) through the same live-migration
        path resize uses, so socket sessions ride through sheds
        transparently too.  When both loops run they are cross-linked:
        a shed in flight defers a pending resize, and every applied
        resize resets the balancer's hysteresis.  Applied sheds (and
        manual :meth:`shed` calls) are recorded in :attr:`shed_events`,
        surfaced in STATS under ``"placement"``, and tee a ``"shed"``
        marker into the event store next to the resize markers.
    resume_grace_s / event_replay_max:
        ``resume_grace_s > 0`` enables session resume: a disconnected
        client's sessions are *parked* (engine state exported via the
        migration codec) for that many seconds instead of fail-safe
        closed, frame batches are acked (v2 ACK messages) and journaled
        — so a shard worker crash is recovered transparently by
        replaying the journal — and a reconnecting client presenting
        its resume token replays from its last-acked seq.
        ``event_replay_max`` bounds the per-session ring of delivered
        events kept for replaying what a vanished client never read.
        The default ``0.0`` keeps the fail-safe-on-disconnect contract.
        See ``docs/remote.md`` ("Session resume").
    event_store:
        Optional :class:`~repro.serving.eventstore.EventStoreWriter`
        the gateway tees its client-visible event stream into: every
        delivered event, every event absorbed into a parked session's
        replay history, every terminal fail-safe event, plus a marker
        per applied resize.  The tee happens at the gateway (the engine
        is built *without* a store), so the on-disk log replays the
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
    :attr:`n_parked_sessions` count the two phases).
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
        autoscale_interval_s: float | None = None,
        autoscale_max_shards: int = 8,
        balance_interval_s: float | None = None,
        balance_max_moves: int = 8,
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
        if backend is not None:
            backend = validate_backend_name(backend)
        if monitor_bytes is None:
            self.backend = backend or DEFAULT_BACKEND
        else:
            self.backend = validate_backend_name(
                backend or snapshot_backend(monitor_bytes) or DEFAULT_BACKEND
            )
        self._monitor = monitor
        self._monitor_bytes = monitor_bytes
        self.n_shards = int(n_shards)
        self.max_sessions = int(max_sessions)
        self.host = host
        self.port = int(port)  # rebound to the real port by start()
        self.send_queue_max = int(send_queue_max)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.idle_timeout_s = idle_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self._start_method = start_method
        if autoscale_interval_s is not None:
            if autoscale_interval_s <= 0:
                raise ConfigurationError("autoscale_interval_s must be > 0")
            if n_shards < 2:
                raise ConfigurationError(
                    "autoscaling requires a sharded fleet (n_shards >= 2)"
                )
        self.autoscale_interval_s = autoscale_interval_s
        self.autoscale_max_shards = int(autoscale_max_shards)
        if balance_interval_s is not None:
            if balance_interval_s <= 0:
                raise ConfigurationError("balance_interval_s must be > 0")
            if n_shards < 2:
                raise ConfigurationError(
                    "load balancing requires a sharded fleet (n_shards >= 2)"
                )
        if balance_max_moves < 1:
            raise ConfigurationError("balance_max_moves must be >= 1")
        self.balance_interval_s = balance_interval_s
        self.balance_max_moves = int(balance_max_moves)
        if resume_grace_s < 0:
            raise ConfigurationError("resume_grace_s must be >= 0")
        if event_replay_max < 1:
            raise ConfigurationError("event_replay_max must be >= 1")
        self.resume_grace_s = float(resume_grace_s)
        self.event_replay_max = int(event_replay_max)
        self.event_store = event_store
        self._autoscaler: MonitorAutoscaler | None = None
        self._balancer: MonitorBalancer | None = None
        #: Applied resizes (manual and autoscaler), oldest first —
        #: summary dicts surfaced to STATS clients by gateway_stats().
        self.resize_events: list[dict] = []
        #: Applied sheds (manual and balancer), oldest first — the
        #: placement-change records surfaced to STATS clients and teed
        #: into the event store as ``"shed"`` markers.
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

        # Lifetime counters surfaced by gateway_stats().
        self._connections_total = 0
        self._sessions_opened = 0
        self._sessions_closed = 0
        self._frames_received = 0
        self._events_sent = 0
        self._events_dropped = 0
        self._heartbeats_sent = 0
        self._overflow_disconnects = 0
        self._idle_disconnects = 0
        self._peak_open_sessions = 0
        self._peak_queue_depth = 0
        self._acks_sent = 0
        self._parked_total = 0
        self._resumed_total = 0
        self._resume_expired_total = 0
        self._recovered_total = 0

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
            # The constructor rejected both loops for n_shards < 2, so
            # the engine here is the AsyncShardedMonitor.
            if self.autoscale_interval_s is not None:
                self._autoscaler = MonitorAutoscaler(
                    self._engine,
                    interval_s=self.autoscale_interval_s,
                    max_shards=self.autoscale_max_shards,
                    on_resize=self._note_resize,
                )
                await self._autoscaler.start()
            if self.balance_interval_s is not None:
                self._balancer = MonitorBalancer(
                    self._engine,
                    interval_s=self.balance_interval_s,
                    max_moves=self.balance_max_moves,
                    on_shed=self._note_shed,
                )
                if self._autoscaler is not None:
                    # Cross-link the two controller levels: shed in
                    # flight defers a pending resize; an applied resize
                    # resets the balancer's hysteresis.
                    self._autoscaler.balancer = self._balancer
                await self._balancer.start()
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
        if self._balancer is not None:
            await self._balancer.stop()
            self._balancer = None
        if self._autoscaler is not None:
            await self._autoscaler.stop()
            self._autoscaler = None
        if self._engine is None:
            return
        await self._engine.aclose()
        if self._fleet is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._fleet.close
            )

    def _build_engine(self):
        """Blocking engine construction (model compile / worker spawn)."""
        if self.n_shards == 1:
            monitor = self._monitor
            if monitor is None:
                monitor = monitor_from_bytes(self._monitor_bytes)
            service = MonitorService(
                monitor, max_sessions=self.max_sessions, backend=self.backend
            )
            return _LocalEngine(service, self._route_events)
        self._fleet = ShardedMonitorService(
            self._monitor,
            n_shards=self.n_shards,
            max_sessions_per_shard=self.max_sessions,
            monitor_bytes=self._monitor_bytes,
            backend=self.backend,
            start_method=self._start_method,
        )
        return AsyncShardedMonitor(self._fleet, sink=self._route_events)

    async def stop(self) -> None:
        """Stop accepting, fail-safe every live connection, drain the
        engine's tasks and terminate any worker processes.  Idempotent."""
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections.values()):
            await self._teardown(conn, "gateway shutting down", allow_park=False)
        if self._bg_tasks:  # overflow teardowns / recoveries still in flight
            await asyncio.gather(*list(self._bg_tasks), return_exceptions=True)
        # Only parked sessions are left, and they cannot outlive the
        # gateway: fail them safe now.
        for session_id in list(self._sessions):
            self._expire_parked(session_id, reason="gateway shutting down")
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
        conn.last_recv = asyncio.get_running_loop().time()
        self._connections[conn.id] = conn
        self._connections_total += 1
        conn.writer_task = asyncio.create_task(
            self._writer_loop(conn), name=f"gateway-writer-{conn.id}"
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
        except asyncio.CancelledError:  # pragma: no cover - loop shutdown
            raise
        finally:
            await self._teardown(conn, reason)

    async def _dispatch(
        self, conn: _Connection, msg_type: MessageType, payload: bytes
    ) -> None:
        if msg_type is MessageType.HEARTBEAT:
            return  # liveness only; last_recv is already refreshed
        if msg_type is MessageType.FRAME:
            await self._handle_frames(conn, payload)
            return
        if msg_type is MessageType.OPEN:
            await self._handle_open(conn, payload)
            return
        if msg_type is MessageType.CLOSE:
            await self._handle_close(conn, payload)
            return
        if msg_type is MessageType.RESUME:
            await self._handle_resume(conn, payload)
            return
        if msg_type is MessageType.STATS:
            stats = await self.gateway_stats()
            self._enqueue_or_overflow(
                conn, encode_message(MessageType.STATS, encode_json(stats))
            )
            return
        raise ProtocolError(f"unexpected client message type {msg_type.name}")

    async def _handle_open(self, conn: _Connection, payload: bytes) -> None:
        request = decode_json(payload)
        session_id = request.get("session_id")
        if session_id is not None and not isinstance(session_id, str):
            raise ProtocolError("OPEN session_id must be a string or null")
        record_timeline = bool(request.get("record_timeline", False))
        if session_id in self._sessions:
            # The engine refuses a live id itself, but a parked one it
            # may no longer hold: its record (and the fail-safe it is
            # owed if nobody resumes) must not be overwritten.
            error = ConfigurationError(f"session {session_id!r} is already open")
            self._send_error(conn, error, session_id, MessageType.OPEN)
            return
        try:
            session_id = await self._engine.open_session(
                session_id, record_timeline
            )
        except ReproError as exc:
            self._send_error(conn, exc, session_id, MessageType.OPEN)
            return
        if conn.torn_down or conn.closed:
            # The connection died while the open was in flight; release
            # the engine slot instead of registering a zombie session
            # that no teardown will ever drain or fail safe.
            with contextlib.suppress(ReproError):
                await self._engine.close_session(session_id)
            return
        # A new incarnation of the id: a predecessor's failure record
        # must not answer for it (nor for requests after its clean close).
        self.failed_sessions.pop(session_id, None)
        session = _RemoteSession(conn, record_timeline)
        ack: dict = {"session_id": session_id}
        if self._resume_enabled:
            session.token = secrets.token_hex(16)
            session.journal = []
            session.history = deque(maxlen=self.event_replay_max)
            ack["resume_token"] = session.token
        self._sessions[session_id] = session
        conn.sessions.add(session_id)
        self._sessions_opened += 1
        self._peak_open_sessions = max(
            self._peak_open_sessions, self.n_open_sessions
        )
        self._enqueue_or_overflow(
            conn, encode_message(MessageType.OPEN, encode_json(ack))
        )

    def _no_session_error(
        self, session_id: str, session: _RemoteSession | None, message: str
    ) -> ReproError:
        """Why a request names a session this connection cannot act on:
        the recorded failure when the session ended fail-safe, else a
        :class:`ProtocolError` carrying ``message``."""
        reason = self.failed_sessions.get(session_id)
        if reason is not None and session is None:
            return WorkerError(f"session {session_id!r} failed: {reason}")
        return ProtocolError(message)

    async def _handle_frames(self, conn: _Connection, payload: bytes) -> None:
        session_id, seq, frames = decode_frames(payload)
        session = self._sessions.get(session_id)
        if session is None or session.conn is not conn:
            error = self._no_session_error(
                session_id,
                session,
                f"no session {session_id!r} open on this connection",
            )
            self._send_error(conn, error, session_id)
            return
        if session.journal is not None:
            # Resume mode: validate the batch's position in the stream.
            # ``seq`` counts frames the client sent before this batch;
            # ``fed`` counts frames we accepted — a gap means frames were
            # lost in a way the protocol cannot repair.
            expected = session.fed
            if seq > expected:
                raise ProtocolError(
                    f"FRAME sequence gap for session {session_id!r}: "
                    f"got seq {seq}, expected {expected}"
                )
            if seq < expected:
                # A resume replay overlapping frames already accepted
                # before the disconnect: drop the duplicate prefix.
                overlap = expected - seq
                if overlap >= frames.shape[0]:
                    self._send_ack(conn, session_id, session.fed)
                    return
                frames = frames[overlap:]
            session.journal.append(frames)
            if session.recovering:
                # The recovery task replays the journal tail; feeding
                # the engine here would race it.  The journal is what
                # the ack promises, so acking now is honest.
                session.fed += frames.shape[0]
                self._frames_received += frames.shape[0]
                self._send_ack(conn, session_id, session.fed)
                return
        session.inflight += 1
        try:
            await self._engine.feed(session_id, frames)
        except ReproError as exc:
            if session.journal is not None:
                if isinstance(exc, WorkerError):
                    # Worker crash with resume on: the crash's terminal
                    # event triggers transparent journal recovery, and
                    # the journaled frames will be replayed — accept.
                    session.fed += frames.shape[0]
                    self._frames_received += frames.shape[0]
                    self._send_ack(conn, session_id, session.fed)
                    return
                session.journal.pop()  # client fault (shape, ...): rejected
            self._send_error(conn, exc, session_id)
            return
        finally:
            session.inflight -= 1
        session.fed += frames.shape[0]
        self._frames_received += frames.shape[0]
        if session.journal is not None:
            self._send_ack(conn, session_id, session.fed)

    def _send_ack(self, conn: _Connection, session_id: str, seq: int) -> None:
        self._enqueue_or_overflow(
            conn, encode_message(MessageType.ACK, encode_ack(session_id, seq))
        )
        self._acks_sent += 1

    async def _handle_close(self, conn: _Connection, payload: bytes) -> None:
        request = decode_json(payload)
        session_id = request.get("session_id")
        if not isinstance(session_id, str):
            raise ProtocolError("CLOSE session_id must be a string")
        session = self._sessions.get(session_id)
        if session is None or session.conn is not conn:
            error = self._no_session_error(
                session_id,
                session,
                f"no session {session_id!r} open on this connection",
            )
            self._send_error(conn, error, session_id, MessageType.CLOSE)
            return
        await self._drain_session(session_id)
        try:
            await self._engine.close_session(session_id)
        except ReproError as exc:
            # A crash event for this session has been (or will be)
            # routed; the close itself reports the failure.
            self._send_error(conn, exc, session_id, MessageType.CLOSE)
            return
        summary = {
            "session_id": session_id,
            "n_frames": session.delivered,
            "n_flagged": session.flagged,
        }
        self._unregister(session_id)
        self._sessions_closed += 1
        self._enqueue_or_overflow(
            conn, encode_message(MessageType.CLOSE, encode_json(summary))
        )

    async def _handle_resume(self, conn: _Connection, payload: bytes) -> None:
        """Bind a session to this connection on the strength of its token.

        The client proves ownership with the resume token from its OPEN
        ack and reports ``last_event`` — how many events it received
        before the disconnect.  A *parked* session is adopted: its
        engine side is brought back first (:meth:`_adopt`).  A session
        still bound to another connection the gateway has not yet
        noticed is dead (a half-open socket, or an EOF teardown still
        queued) is *stolen*: the engine never hears about it, only the
        event route and the frame source move, and the old connection
        loses ownership at once — its later frames fail the
        ``_handle_frames`` ownership check and its teardown skips the
        session (no park, no fail-safe).

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
        if not isinstance(last_event, int) or last_event < 0:
            raise ProtocolError("RESUME last_event must be a non-negative int")
        session = self._sessions.get(session_id)
        if (
            session is None
            or session.token is None
            or session.parking
            or session.inflight
            or session.resuming
            or (session.conn is None and session.recovering)
        ):
            # Nothing to resume — or not yet: each busy phase above ends
            # on its own, so the client retries the same request.
            error = self._no_session_error(
                session_id, session, f"no parked session {session_id!r}"
            )
            self._send_error(conn, error, session_id, MessageType.RESUME)
            return
        error = self._resume_refusal(session_id, session, token, last_event)
        if error is not None:
            if session.conn is None and isinstance(error, WorkerError):
                # Beyond replay reach: resuming would silently skip
                # events, so the park fails safe now.  (A session still
                # bound to its old connection stays there — when that
                # dies for real, the park / expiry lifecycle decides.)
                self._expire_parked(
                    session_id,
                    reason=(
                        f"resume replay window exceeded: client missed "
                        f"{session.delivered - last_event} events, ring "
                        f"holds {len(session.history)}"
                    ),
                )
            self._send_error(conn, error, session_id, MessageType.RESUME)
            return
        if session.conn is None and not await self._adopt(
            conn, session_id, session, token, last_event
        ):
            return
        if session.conn is not conn:
            if session.conn is not None:
                session.conn.sessions.discard(session_id)
            session.conn = conn
            conn.sessions.add(session_id)
        self._resumed_total += 1
        self._peak_open_sessions = max(
            self._peak_open_sessions, self.n_open_sessions
        )
        self._enqueue_or_overflow(
            conn,
            encode_message(
                MessageType.RESUME,
                encode_json(
                    {
                        "session_id": session_id,
                        "acked_seq": session.fed,
                        "delivered": session.delivered,
                        "resume_token": session.token,
                    }
                ),
            ),
        )
        missed = session.delivered - last_event
        if missed:
            # One message however many events are owed: a message per
            # event, enqueued here with no await for the writer to
            # drain on, would overflow the send queue with the replay
            # itself (event_replay_max defaults above send_queue_max).
            replay = list(session.history)[-missed:]
            self._enqueue_or_overflow(
                conn, encode_message(MessageType.EVENT, encode_events(replay))
            )
            self._events_sent += missed

    def _resume_refusal(
        self,
        session_id: str,
        session: _RemoteSession,
        token: str,
        last_event: int,
    ) -> ReproError | None:
        """The one admission check of a RESUME, parked or live: the
        error to answer with, or ``None`` when the client may have the
        session and can be caught up gaplessly from the replay ring."""
        if not secrets.compare_digest(token, session.token):
            return ProtocolError(f"resume token mismatch for {session_id!r}")
        if last_event > session.delivered:
            return ProtocolError(
                f"RESUME last_event {last_event} exceeds the "
                f"{session.delivered} events delivered for {session_id!r}"
            )
        if session.delivered - last_event > len(session.history):
            return WorkerError(f"session {session_id!r} is beyond replay reach")
        return None

    async def _adopt(
        self,
        conn: _Connection,
        session_id: str,
        session: _RemoteSession,
        token: str,
        last_event: int,
    ) -> bool:
        """Bring a parked session's engine side back for ``conn``.

        Imports the parked archive, or — parked cold, or the import
        landing on a worker that died unnoticed and took the archive
        with it — rebuilds from the journal.  False when the resume
        ended here: the session failed safe (error already sent) or the
        resumer vanished and the session is parked again.
        """
        session.resuming = True
        session.expiry.cancel()
        session.expiry = None
        try:
            if session.state is not None:
                try:
                    await self._engine.import_session(
                        session.state, session.record_timeline
                    )
                except WorkerError:
                    # The target worker died under the import (a crash
                    # the engine had not noticed yet) and took the
                    # archive with it; the journal still covers a cold
                    # adopt, exactly as when the export itself fails.
                    session.state = None
            if session.state is None and not await self._rebuild(
                session_id, session, parked=True
            ):
                return False  # lapsed underneath the adopt (shutdown)
        except ReproError as exc:
            self._unregister(session_id)
            self._record_failsafe(
                SessionEvent.failsafe(
                    session_id, session.delivered, f"resume failed: {exc}"
                )
            )
            self._send_error(conn, exc, session_id, MessageType.RESUME)
            return False
        if conn.torn_down or conn.closed:
            # The resumer vanished while the adopt was in flight: park
            # again (fresh export — the engine now owns the session)
            # rather than leak a session nobody tracks.
            try:
                session.state = await self._engine.export_session(session_id)
            except ReproError:
                session.state = None  # journal still covers a cold adopt
            session.resuming = False
            self._schedule_expiry(session_id, session)
            if self._stopped:
                self._expire_parked(session_id)
            return False
        session.resuming = False
        session.state = None
        error = self._resume_refusal(session_id, session, token, last_event)
        if error is not None:
            # Events that landed while the adopt was in flight evicted
            # ring entries; the client can no longer be caught up
            # gaplessly.
            self._unregister(session_id)
            self._record_failsafe(
                SessionEvent.failsafe(
                    session_id,
                    session.delivered,
                    "resume replay window exceeded during adopt",
                )
            )
            self._send_error(conn, error, session_id, MessageType.RESUME)
            with contextlib.suppress(ReproError):
                await self._engine.close_session(session_id)
            return False
        return True

    async def _drain_session(self, session_id: str) -> None:
        """Park until every accepted frame of a session has produced its
        event (bounded by ``drain_timeout_s``) — the *drain* half of the
        drain-and-close disconnect contract."""
        session = self._sessions.get(session_id)
        if session is None:
            return
        deadline = asyncio.get_running_loop().time() + self.drain_timeout_s
        while (
            session.delivered < session.fed
            and self._sessions.get(session_id) is session
            and session.conn is not None
            and asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(0.002)

    async def _teardown(
        self, conn: _Connection, reason: str, allow_park: bool = True
    ) -> None:
        """Disconnect a client.

        Default contract: drain-and-close its sessions fail-safe.  With
        resume enabled (and ``allow_park``), sessions are parked for the
        grace window instead — no drain, no closure: the exported state
        carries the pending frames, and in-flight events keep landing in
        the parked history until a resume or expiry.
        """
        if conn.torn_down:
            return
        conn.torn_down = True
        conn.closed = True  # stop routing/replies to this connection now
        park = self._resume_enabled and allow_park and not self._stopped
        for session_id in list(conn.sessions):
            if park:
                await self._park_session(conn, session_id, reason)
                continue
            await self._drain_session(session_id)
            session = self._sessions.get(session_id)
            if session is None or session.conn is not conn:
                continue  # already ended (e.g. shard crash event)
            # Engine-side loss; the fail-safe event below stands.
            with contextlib.suppress(ReproError):
                await self._engine.close_session(session_id)
            self._record_failsafe(
                SessionEvent.failsafe(session_id, session.delivered, reason)
            )
            self._unregister(session_id)
        conn.sessions.clear()
        self._connections.pop(conn.id, None)
        if (
            conn.heartbeat_task is not None
            and conn.heartbeat_task is not asyncio.current_task()
        ):
            conn.heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await conn.heartbeat_task
        if conn.writer_task is not None:
            conn.writer_gate.set()
            try:
                conn.queue.put_nowait(_CLOSED)
            except asyncio.QueueFull:
                conn.writer_task.cancel()  # queue wedged; no orderly flush
            # A cancelled writer (queue wedged above) completing here is
            # the expected outcome, not an error.
            with contextlib.suppress(asyncio.CancelledError):
                try:
                    # A writer wedged in drain() against a non-reading
                    # peer must not wedge the teardown with it.
                    await asyncio.wait_for(
                        asyncio.shield(conn.writer_task), 5.0
                    )
                except asyncio.TimeoutError:
                    conn.writer_task.cancel()
            if not conn.writer_task.done():
                with contextlib.suppress(asyncio.CancelledError):
                    await conn.writer_task
        conn.writer.close()

    # ------------------------------------------------------------------
    # Session parking (resume grace window)
    # ------------------------------------------------------------------
    async def _park_session(
        self, conn: _Connection, session_id: str, reason: str
    ) -> None:
        """Export a disconnected session and hold it for the grace window."""
        session = self._sessions.get(session_id)
        if session is None or session.conn is not conn:
            return  # already ended (e.g. shard crash event)
        state: bytes | None = None
        if not session.recovering:
            session.parking = True
            # A mid-recovery session's engine state is a partial journal
            # replay — exporting it would drop the un-replayed tail, so
            # it parks cold (journal only) and the recovery task, seeing
            # the session parked, releases its half-open engine side.
            try:
                state = await self._engine.export_session(session_id)
            except ReproError:
                state = None  # worker dead: the journal covers cold adopt
            session.parking = False
            if (
                self._sessions.get(session_id) is not session
                or session.conn is not conn
            ):
                # Ended — or stolen by a RESUME on a fresh connection —
                # while the export ran; it is no longer ours to park.
                return
        conn.sessions.discard(session_id)
        session.conn = None
        session.state = state
        session.reason = reason
        self._parked_total += 1
        self._schedule_expiry(session_id, session)

    def _schedule_expiry(
        self, session_id: str, session: _RemoteSession
    ) -> None:
        session.expiry = asyncio.get_running_loop().call_later(
            self.resume_grace_s, self._expire_parked, session_id
        )

    def _expire_parked(self, session_id: str, reason: str | None = None) -> None:
        """Fail a parked session safe: the grace window lapsed unresumed."""
        session = self._sessions.get(session_id)
        if session is None or session.conn is not None:
            return
        self._unregister(session_id)
        self._resume_expired_total += 1
        self._record_failsafe(
            SessionEvent.failsafe(
                session_id,
                session.delivered,
                reason
                or (
                    f"resume grace window expired "
                    f"({self.resume_grace_s}s): {session.reason}"
                ),
            )
        )

    async def _rebuild(
        self, session_id: str, session: _RemoteSession, parked: bool
    ) -> bool:
        """Rebuild a session's engine side from its frame journal.

        The one journal replay in the gateway, behind transparent
        worker-crash recovery (``parked=False``) and behind a cold adopt
        (``parked=True``) alike.  Re-opens the id on a live shard
        (consistent hashing skips a dead one) and replays every
        journaled batch, frame zero onwards — ticks are deterministic,
        so the regenerated events are bit-identical, and those for
        already-delivered frames are dropped by the routing filter: the
        client sees an uninterrupted, duplicate-free stream.  Any
        mid-rebuild failure — the engine still reaping the crash, a
        worker found dead only by this very exchange, or a *second*
        crash taking down the shard the session was just rebuilt on —
        releases whatever half-state exists and restarts from scratch
        (the journal always covers a full rebuild).  Raises the last
        failure once the bounded restarts are exhausted.  Returns False,
        its own engine session released, when the session ends or
        leaves the phase it was in (live to parked) underneath: whoever
        resumes it rebuilds anew.
        """

        def wanted() -> bool:
            return (
                self._sessions.get(session_id) is session
                and (session.conn is None) == parked
            )

        for attempt in range(1, 9):
            if not wanted():
                return False
            opened = False
            failure = None
            try:
                await self._engine.open_session(
                    session_id, session.record_timeline
                )
                opened = True
                replayed = 0
                while wanted():
                    if replayed == len(session.journal):
                        # No await since the length check: the caller
                        # can flip the session's phase before any frame
                        # slips in unreplayed.
                        return True
                    await self._engine.feed(
                        session_id, session.journal[replayed]
                    )
                    replayed += 1
            except ReproError as exc:
                failure = exc
            if opened or wanted():
                # The half-open engine session must go before a retry
                # (a crashed shard's failure record is popped by the
                # re-open, a survivor is closed outright: the next
                # attempt starts from a clean slate) and before an
                # abandonment — but an id this attempt never opened and
                # no longer owns may be somebody else's by now.
                with contextlib.suppress(ReproError):
                    await self._engine.close_session(session_id)
            if not wanted():
                return False
            if attempt == 8:
                raise failure
            await asyncio.sleep(0.05 * attempt)

    def _begin_recovery(self, session_id: str, session: _RemoteSession) -> None:
        """Spawn the transparent worker-crash recovery task."""
        session.recovering = True
        task = asyncio.get_running_loop().create_task(
            self._recover_session(session_id, session),
            name=f"gateway-recover-{session_id}",
        )
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)

    async def _recover_session(
        self, session_id: str, session: _RemoteSession
    ) -> None:
        """Rebuild a live session whose worker died; only when the
        rebuild's restarts are exhausted does the session fall back to
        the fail-safe contract."""
        try:
            if await self._rebuild(session_id, session, parked=False):
                self._recovered_total += 1
        except ReproError as exc:
            event = SessionEvent.failsafe(
                session_id,
                session.delivered,
                f"unrecoverable worker crash: {exc}",
            )
            if not session.conn.closed:
                self._enqueue_or_overflow(
                    session.conn,
                    encode_message(MessageType.EVENT, encode_events([event])),
                )
                self._events_sent += 1
            self._record_failsafe(event)
            self._unregister(session_id)
        session.recovering = False

    # ------------------------------------------------------------------
    # Per-connection tasks
    # ------------------------------------------------------------------
    async def _writer_loop(self, conn: _Connection) -> None:
        """Drain the send queue, coalescing bursts into single writes."""
        try:
            while True:
                chunk = await conn.queue.get()
                if chunk is _CLOSED:
                    return
                await conn.writer_gate.wait()
                parts = [chunk]
                while len(parts) < _WRITE_BATCH:
                    try:
                        extra = conn.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is _CLOSED:
                        conn.queue.put_nowait(_CLOSED)
                        break
                    parts.append(extra)
                conn.writer.write(b"".join(parts))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            return  # peer is gone; the read loop's teardown handles it
        except asyncio.CancelledError:  # pragma: no cover - loop shutdown
            raise

    async def _heartbeat_loop(self, conn: _Connection) -> None:
        """Ping the client; declare it dead past the idle timeout."""
        loop = asyncio.get_running_loop()
        try:
            while not conn.closed:
                await asyncio.sleep(self.heartbeat_interval_s)
                if conn.closed:
                    return
                if (
                    self.idle_timeout_s is not None
                    and loop.time() - conn.last_recv > self.idle_timeout_s
                ):
                    self._idle_disconnects += 1
                    self._send_error(
                        conn,
                        WorkerError(
                            f"idle timeout: no traffic for "
                            f"{self.idle_timeout_s}s"
                        ),
                        None,
                    )
                    await self._teardown(conn, "idle timeout")
                    return
                self._enqueue_or_overflow(
                    conn, encode_message(MessageType.HEARTBEAT)
                )
                self._heartbeats_sent += 1
        except asyncio.CancelledError:
            return

    # ------------------------------------------------------------------
    # Event routing
    # ------------------------------------------------------------------
    def _route_events(self, batch: list[SessionEvent]) -> None:
        """Route one engine tick's events to their owning connections.

        The single sink both engines call, on the loop thread, with the
        events of one tick (or one crash/resize/shed flush).  Every
        per-event decision is taken in batch order; then each connection
        gets **one** EVENT message carrying its events in that order,
        and the accepted events are teed into the durable log with one
        ``append_batch``.
        """
        outgoing: dict[_Connection, list[SessionEvent]] = {}
        logged: list[SessionEvent] = []
        for event in batch:
            session = self._sessions.get(event.session_id)
            if session is None:
                self._events_dropped += 1
                continue
            conn = session.conn
            if event.error is not None and session.journal is not None:
                # Resume mode treats a worker crash as recoverable:
                # rebuild from the journal instead of failing the
                # session safe — now for a live session, at resume time
                # for a parked one.  A session whose park is in flight
                # counts as parked already: its export is about to fail
                # on the dead worker and park it cold, whereas a rebuild
                # started now would re-open the id underneath that
                # export, which would then carry off a half-replayed
                # session as if it were the whole one.  A second
                # terminal event while recovery is already in flight is
                # a stale echo of the same crash.
                if (
                    conn is not None
                    and not session.parking
                    and not session.recovering
                ):
                    self._begin_recovery(event.session_id, session)
                continue
            if (
                session.journal is not None
                and event.frame_index < session.delivered
            ):
                # Journal-replay regeneration after a crash recovery (or
                # cold adopt): the client already has this event.  Events
                # arrive one per frame in frame order, so a fresh event
                # always lands exactly at frame_index == delivered.
                continue
            session.delivered += 1
            if event.flag:
                session.flagged += 1
            if session.history is not None:
                session.history.append(event)
            # Past the duplicate filter: part of the client-visible
            # stream, and of the durable log, exactly once — sent now,
            # or, in flight when its client vanished, kept in the
            # history for the resume to replay.
            logged.append(event)
            if conn is not None and not conn.closed:
                outgoing.setdefault(conn, []).append(event)
            if event.error is not None:
                # Terminal: the engine lost this session (worker crash).
                # Surface it at the gateway too, not only on the wire.
                self._note_failsafe(event)
                self._unregister(event.session_id)
        for conn, events in outgoing.items():
            self._enqueue_or_overflow(
                conn, encode_message(MessageType.EVENT, encode_events(events))
            )
            self._events_sent += len(events)
        if logged and self.event_store is not None:
            self.event_store.append_batch(logged)

    def _enqueue_or_overflow(self, conn: _Connection, data: bytes) -> None:
        self._peak_queue_depth = max(self._peak_queue_depth, conn.queue.qsize())
        if not conn.enqueue(data):
            self._overflow_disconnects += 1
            conn.closed = True  # stop routing immediately
            task = asyncio.get_running_loop().create_task(
                self._teardown(
                    conn, "send queue overflow (client not reading events)"
                )
            )
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
        self._enqueue_or_overflow(
            conn,
            encode_message(
                MessageType.ERROR,
                encode_json(
                    {
                        "error_type": type(exc).__name__,
                        "error": str(exc),
                        "session_id": session_id,
                        "in_reply_to": (
                            in_reply_to.name if in_reply_to is not None else None
                        ),
                    }
                ),
            ),
        )

    def _note_failsafe(self, event: SessionEvent) -> None:
        self.failsafe_events.append(event)
        self.failed_sessions[event.session_id] = event.error or "unknown"

    def _record_failsafe(self, event: SessionEvent) -> None:
        """Note a terminal event raised outside routing and tee it."""
        self._note_failsafe(event)
        if self.event_store is not None:
            self.event_store.append(event)

    def _unregister(self, session_id: str) -> None:
        session = self._sessions.pop(session_id, None)
        if session is None:
            return
        if session.conn is not None:
            session.conn.sessions.discard(session_id)
        if session.expiry is not None:
            session.expiry.cancel()
            session.expiry = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        """Monotonic seconds since this gateway was constructed.

        Never resets — resizes, autoscaler actions and reconnect storms
        leave it (and the cumulative event counters it contextualises)
        strictly increasing.
        """
        return time.monotonic() - self._started_at

    @property
    def n_open_sessions(self) -> int:
        """Number of wire-opened sessions currently live."""
        return len(self._sessions) - self.n_parked_sessions

    @property
    def n_parked_sessions(self) -> int:
        """Number of sessions parked awaiting a resume."""
        # list() first: tests and harnesses read this off the loop thread.
        return sum(s.conn is None for s in list(self._sessions.values()))

    async def resize(self, target_k: int) -> dict:
        """Live-resize the serving fleet to ``target_k`` shards.

        Open socket sessions ride through: their state — pending frames
        included — migrates between workers, no event is lost and no
        fail-safe closure occurs.  The resize is recorded in
        :attr:`resize_events` and visible to every STATS client.  Only
        available on a sharded gateway (``n_shards >= 2`` at
        construction); the embedded single-service engine raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if self._engine is None:
            raise ConfigurationError("gateway is not started")
        summary = await self._engine.resize(target_k)
        self._note_resize(dict(summary, trigger="manual"))
        return summary

    def _note_resize(self, event: dict) -> None:
        """Record an applied resize (manual or autoscaler-triggered)."""
        self.resize_events.append(event)
        self.n_shards = int(event.get("to", self.n_shards))
        if self._balancer is not None and event.get("trigger") != "autoscaler":
            # The autoscaler resets the balancer itself before calling
            # on_resize; a *manual* resize must reset it here, or the
            # balancer would act on a hot-streak built against the old
            # topology.
            self._balancer.notify_resize(event)
        if self.event_store is not None:
            self.event_store.append_marker("resize", dict(event))

    async def shed(self, session_ids: list[str], to_shard: int) -> dict[str, int]:
        """Live-migrate named sessions onto one shard and pin them there.

        The manual twin of the balancer's continuous loop (and what a
        chaos campaign injects): sessions ride through exactly as they
        do under resize — pending frames migrate, no event is lost, no
        fail-safe closure — and the placement overlay keeps routing
        them to ``to_shard`` afterwards.  Sessions that closed or
        failed meanwhile are skipped; the returned
        ``{session_id: previous shard}`` map names what actually moved.
        Applied sheds are recorded in :attr:`shed_events` and visible
        to every STATS client.  Only available on a sharded gateway
        (``n_shards >= 2`` at construction).
        """
        if self._engine is None:
            raise ConfigurationError("gateway is not started")
        moved = await self._engine.shed(list(session_ids), to_shard)
        if moved:
            self._note_shed(
                {
                    "to": to_shard,
                    "sessions": sorted(moved),
                    "n": len(moved),
                    "trigger": "manual",
                }
            )
        return moved

    def _note_shed(self, event: dict) -> None:
        """Record an applied shed (manual or balancer-triggered)."""
        self.shed_events.append(event)
        if self.event_store is not None:
            self.event_store.append_marker("shed", dict(event))

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
        counters, tick-latency percentiles) together with the gateway's
        own connection, session, queue-depth and fail-safe counters —
        also what the STATS wire message returns, and the input half of
        :func:`~repro.serving.sharded.suggest_shard_count` (pass the
        engine's ``shard_stats()``).
        """
        shard_stats = await self._engine.shard_stats() if self._engine else {}
        depths = [c.queue.qsize() for c in self._connections.values()]
        # Fold the engine registries (per-shard, resize-proof) together
        # with the gateway's own lifetime counters into one snapshot —
        # the fleet telemetry plane as one JSON document.
        registry = TelemetryRegistry()
        if self._engine is not None:
            registry.merge(await self._engine.telemetry())
        registry.counter("gateway_events_sent").inc(self._events_sent)
        registry.counter("gateway_events_failsafe").inc(
            len(self.failsafe_events)
        )
        registry.counter("gateway_frames_received").inc(self._frames_received)
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
                "emitted": self._events_sent,
                "failsafe": len(self.failsafe_events),
                "dropped": self._events_dropped,
                "dropped_log": (
                    store_stats["dropped"] if store_stats is not None else 0
                ),
            },
            "store": store_stats,
            "telemetry": registry.snapshot(),
            # Resize history (manual and autoscaler): how clients learn
            # the fleet changed shape underneath their sessions — and
            # that nothing happened to those sessions.
            "resizes": {
                "count": len(self.resize_events),
                "autoscaling": self.autoscale_interval_s is not None,
                "events": self.resize_events[-16:],
            },
            # Placement history (manual sheds and the balancer): the
            # skew level of the two-level controller — which sessions
            # were moved off a hot shard, where they landed, and the
            # p99 evidence the decision was made on.
            "placement": {
                "count": len(self.shed_events),
                "balancing": self.balance_interval_s is not None,
                "events": self.shed_events[-16:],
            },
            "connections": {
                "open": len(self._connections),
                "total": self._connections_total,
                "overflow_disconnects": self._overflow_disconnects,
                "idle_disconnects": self._idle_disconnects,
            },
            "sessions": {
                "open": self.n_open_sessions,
                "peak_open": self._peak_open_sessions,
                "opened_total": self._sessions_opened,
                "closed_total": self._sessions_closed,
                "failed_total": len(self.failsafe_events),
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
                "parked_total": self._parked_total,
                "resumed_total": self._resumed_total,
                "expired_total": self._resume_expired_total,
                "recovered_total": self._recovered_total,
                "acks_sent": self._acks_sent,
            },
            "frames_received": self._frames_received,
            "events_sent": self._events_sent,
            "events_dropped": self._events_dropped,
            "heartbeats_sent": self._heartbeats_sent,
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
