"""Sharded multi-process serving: fan sessions out across worker processes.

:class:`ShardedMonitorService` scales the single-process
:class:`~repro.serving.service.MonitorService` past one core and one
GIL: N worker processes each run their own ``MonitorService`` tick loop
over a private :func:`multiprocessing.Pipe`, and the router places every
session on a shard by **consistent hashing** of its session id
(:class:`_HashRing`), so placement is deterministic, independent of open
order, and minimally disturbed when a shard leaves the ring.

Parity is the design invariant: because each worker rebuilds the same
monitor from the same snapshot bytes and inference is batch-size
invariant (:mod:`repro.nn.layers.contract`), a session served by a
K-shard service emits bit-identical :class:`SessionEvent` streams to the
same session on one local ``MonitorService`` — the sharded parity suite
(``tests/serving/test_sharded.py``, ``tests/core/test_parity.py``)
locks this in for K ∈ {1, 2, 4}.

Failure semantics are fail-safe: when a worker dies, stays silent past
the reply deadline (:data:`~repro.serving.transport.REPLY_DEADLINE_S`)
or answers a tick with an error, its sessions are not silently
dropped — each one surfaces a terminal :class:`SessionEvent` with
``error`` set and ``flag=True`` (a monitoring outage on a surgical robot
must read as *unsafe*, see ``docs/serving.md``), the sessions move to
:attr:`failed_sessions`, and the dead shard leaves the hash ring so new
sessions rebalance onto the survivors while healthy shards keep ticking.

Data moves over the **shared-memory data plane** (:mod:`.shm`): each
shard owns a frame ring ``feed()`` writes into without a reply round
trip (a full ring is the back-pressure signal) and an event ring, sized
to hold one tick round, whose batches every round reads in place, so
the pipe carries only control ops.  Sessions are addressed on the rings
by their global opening ``order`` — the same integer that merges event
streams — and frame widths are validated router-side against the
snapshot (:func:`~repro.serving.snapshot.snapshot_n_features`), or the
width the first feed bound when the snapshot constrains none, so a bad
``feed`` still raises synchronously.  Frame blocks the *worker*
rejects after that (the safety net) surface as deferred
``ingest_errors`` on the next exchange and fail the session safe.

The fleet is also **elastic** without dropping a frame:
:meth:`ShardedMonitorService.add_shard` / :meth:`remove_shard` /
:meth:`resize` move live sessions between workers by exporting their
complete serving state — stream position, pending and recent frames,
sticky gesture/score context (:meth:`MonitorService.export_session` via the
:mod:`~repro.serving.snapshot` session codec) — and importing it on the
consistent-hash target, so a fleet resized mid-stream reproduces the
static single-service event stream bit for bit under the reference
backend (``tests/serving/test_elasticity.py``).  Every reshape —
add, remove, :meth:`~ShardedMonitorService.shed` — moves sessions
through one loop with one failure rule: a session closed or failed
meanwhile, or already on its target, is skipped; a dead source or
target skips the session (the crash path has already failed it safe,
and no exchange is spent on it); a full target ends the batch with its
``ConfigurationError``, and what moved stays moved.  A reshape refused
part-way thus leaves every session routed and every live shard — one
it added included — serving; the asyncio front-end reconciles its
tickers after every fleet-wide call, refused or not, so each live
shard is still ticked.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import itertools
import logging
import math
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.pipeline import SafetyMonitor
from ..errors import (
    ConfigurationError,
    DatasetError,
    ReproError,
    ShapeError,
    WorkerError,
)
from ..nn.backends import DEFAULT_BACKEND, validate_backend_name
from .service import ServiceStats, SessionEvent, SessionResult, reject_non_finite
from .telemetry import TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .eventstore import EventStoreWriter
from .shm import DEFAULT_FRAME_RING_BYTES, ShmRing, event_ring_capacity
from .snapshot import (
    monitor_to_bytes,
    session_snapshot_id,
    session_snapshot_meta,
    snapshot_backend,
    snapshot_history_frames,
    snapshot_n_features,
)
from . import transport
from .transport import TICKS_PER_ROUND, Reply, Request, raise_remote, recv_message
from .worker import worker_main

logger = logging.getLogger(__name__)

#: Frame interval of the paper's 30 Hz kinematics stream — the tick
#: deadline :func:`suggest_shard_count` sizes fleets against.
FRAME_INTERVAL_MS = 1000.0 / 30.0


def _stable_hash(key: str) -> int:
    """Process-independent 128-bit hash (``hash()`` is salted per run)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest(), "big")


def suggest_shard_count(
    shard_stats: dict[int, ServiceStats],
    *,
    frame_interval_ms: float = FRAME_INTERVAL_MS,
    high_watermark: float = 0.5,
    low_watermark: float = 0.1,
    min_shards: int = 1,
    max_shards: int | None = None,
) -> int:
    """Recommend a shard count from observed per-shard tick latency.

    A pure function over a :meth:`ShardedMonitorService.shard_stats`
    snapshot (no IPC, no side effects), for an operator to apply with
    :meth:`ShardedMonitorService.resize` (or a gateway's ``resize``) —
    from a cron job or an operator script:

    - the serving deadline is one frame interval (33.3 ms at the
      paper's 30 Hz); the *busiest* shard's p99 tick latency is the
      signal, because consistent hashing makes the hottest shard the
      first to miss the deadline;
    - above ``high_watermark`` (fraction of the interval) the fleet
      scales **up** proportionally to the overshoot — tick cost is
      roughly linear in resident sessions, so doubling shards roughly
      halves the hottest shard's batch;
    - below ``low_watermark`` the fleet scales **down**, but only as far
      as keeps the *projected* busiest p99 (linear consolidation of
      today's load onto fewer workers) under half the high watermark, so
      a scale-down never triggers the next scale-up by itself;
    - inside the band the current count is kept (hysteresis).

    Shards with no recorded ticks count as idle.  The result is clamped
    to ``[min_shards, max_shards]``; an empty ``shard_stats`` returns
    ``min_shards``.
    """
    if not 0 < low_watermark < high_watermark <= 1.0:
        raise ConfigurationError(
            "need 0 < low_watermark < high_watermark <= 1"
        )
    if frame_interval_ms <= 0:
        raise ConfigurationError("frame_interval_ms must be > 0")
    if min_shards < 1:
        raise ConfigurationError("min_shards must be >= 1")
    if max_shards is not None and max_shards < min_shards:
        raise ConfigurationError("max_shards must be >= min_shards")

    def clamp(count: int) -> int:
        count = max(count, min_shards)
        if max_shards is not None:
            count = min(count, max_shards)
        return count

    n_shards = len(shard_stats)
    if n_shards == 0:
        return clamp(min_shards)
    busiest_ms = max(
        (s.percentile_ms(99) for s in shard_stats.values()), default=0.0
    )
    high_ms = high_watermark * frame_interval_ms
    low_ms = low_watermark * frame_interval_ms
    if busiest_ms > high_ms:
        return clamp(int(math.ceil(n_shards * busiest_ms / high_ms)))
    if busiest_ms < low_ms and n_shards > min_shards:
        if busiest_ms <= 0.0:
            return clamp(min_shards)
        target = int(math.ceil(n_shards * busiest_ms / (0.5 * high_ms)))
        return clamp(min(n_shards, target))
    return clamp(n_shards)


#: Virtual nodes each shard contributes to the hash ring.  A constant,
#: not a parameter: changing it silently changes every placement.
_HASH_REPLICAS = 64


class _HashRing:
    """Consistent-hash ring with virtual nodes.

    Each shard contributes :data:`_HASH_REPLICAS` points on the ring; a
    key lands on the first point clockwise from its own hash.  Removing
    a shard only re-homes the keys that pointed at it — the property
    that makes drain-and-rebalance cheap.
    """

    def __init__(self) -> None:
        self._points: list[tuple[int, int]] = []  # (hash, shard), sorted

    def add(self, shard: int) -> None:
        for r in range(_HASH_REPLICAS):
            point = (_stable_hash(f"shard-{shard}:vnode-{r}"), shard)
            bisect.insort(self._points, point)

    def remove(self, shard: int) -> None:
        self._points = [p for p in self._points if p[1] != shard]

    def place(self, key: str) -> int:
        if not self._points:
            raise WorkerError("no live shards left in the hash ring")
        i = bisect.bisect_left(self._points, (_stable_hash(key), -1))
        if i == len(self._points):
            i = 0  # wrap around the ring
        return self._points[i][1]

    def __len__(self) -> int:
        return len(self._points)


@dataclass
class _SessionRecord:
    """Router-side bookkeeping for one placed session."""

    shard: int
    order: int  # global opening order; merge key for event streams
    events_seen: int = 0
    record_timeline: bool = True


class _ShardHandle:
    """Router-side view of one worker process, its pipe and its rings."""

    def __init__(
        self,
        index: int,
        process,
        conn,
        frame_ring: ShmRing,
        event_ring: ShmRing,
    ) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: Router-owned shm rings.  The router creates them in
        #: ``_spawn_shard`` and is the only side that ever unlinks — on
        #: stop, on crash, on removal.
        self.frame_ring = frame_ring
        self.event_ring = event_ring
        #: route id -> session id, for decoding event-ring batches.
        self.routes: dict[int, str] = {}
        #: ``(route, message)`` ingest failures stashed off replies until
        #: the next tick/drain converts them to fail-safe events.
        self.pending_ingest: list[tuple[int, str]] = []
        self.alive = True
        #: Frame-ring writes so far.  ``feed`` counts them, and one feed
        #: at a time writes a shard's ring (the ring has one producer),
        #: so the increment needs no lock; other threads only read it.
        self.writes = 0
        #: ``writes`` when the request in flight was sent, and when the
        #: request the last reply answered was sent.
        self._writes_at_send = 0
        self._writes_answered = 0
        #: The last reply's ``has_pending``.
        self._reply_pending = False

    @property
    def maybe_pending(self) -> bool:
        """True while the worker may still have un-ticked frames.

        A reply's ``has_pending`` speaks for the frames written before
        its request was sent: the worker ingests the ring before it
        dispatches a request, but a write racing the exchange (a feed
        while a tick round is in flight) may land after the worker
        answered.  So a write counted since that request went out keeps
        the shard pending whatever the reply said — a stale
        ``has_pending=False`` must not park the shard on frames nothing
        would then tick.
        """
        return self._reply_pending or self.writes != self._writes_answered

    def send(self, request: Request) -> None:
        self._writes_at_send = self.writes
        try:
            self.conn.send(request)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerError(f"shard {self.index} pipe broken: {exc}") from exc

    def recv(self, timeout_s: float) -> Reply:
        """Read one reply, or raise ``WorkerError``: the worker died, is
        unresponsive, or sent a corrupt/truncated/foreign reply — it
        cannot be trusted to stay in protocol either way."""
        try:
            reply: Reply = recv_message(
                self.conn,
                Reply,
                timeout_s=timeout_s,
                who=f"shard {self.index}",
            )
        except EOFError as exc:
            exitcode = self.process.exitcode
            raise WorkerError(
                f"shard {self.index} worker died (exitcode {exitcode})"
            ) from exc
        # Pending first: a reader in between sees the older, smaller
        # count and errs towards one more tick, never towards parking.
        self._reply_pending = reply.has_pending
        self._writes_answered = self._writes_at_send
        if reply.ingest_errors:
            self.pending_ingest.extend(reply.ingest_errors)
        return reply

    def request(self, request: Request, timeout_s: float) -> Reply:
        self.send(request)
        return self.recv(timeout_s)

    def destroy_rings(self) -> None:
        """Detach and unlink this shard's shm segments.  Idempotent."""
        self.frame_ring.destroy()
        self.event_ring.destroy()

    def stop(self) -> None:
        """Stop the worker: the ``stop`` exchange while it is live, one
        join bounded by the reply deadline, then SIGKILL for whatever
        still runs (a failed shard's worker is already killed)."""
        if self.alive:
            try:
                self.request(Request("stop"), transport.REPLY_DEADLINE_S)
            except WorkerError as exc:
                # Not silent: the worker is killed below either way, but
                # record *why* the graceful path failed — a stop that
                # routinely escalates is a bug.
                logger.warning(
                    "shard %d stop handshake failed: %s", self.index, exc
                )
        try:
            self.conn.close()
        except OSError as exc:
            logger.warning(
                "shard %d pipe close failed during stop: %s", self.index, exc
            )
        self.process.join(transport.REPLY_DEADLINE_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.alive = False
        self.destroy_rings()


class ShardedMonitorService:
    """Serve sessions across N worker processes behind one façade.

    Parameters
    ----------
    monitor:
        Trained :class:`SafetyMonitor`; snapshotted once
        (:func:`~repro.serving.snapshot.monitor_to_bytes`) and shipped to
        every worker.  Pass ``monitor_bytes`` instead to reuse an
        existing snapshot (e.g. loaded from disk).
    n_shards:
        Number of worker processes.
    max_sessions_per_shard:
        Slot capacity of each worker's :class:`MonitorService`.
        Consistent hashing spreads sessions statistically, not evenly —
        leave headroom (see ``docs/serving.md``).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` where
        available (fast) and falls back to ``spawn``.
    backend:
        Inference backend every worker's engine runs (see
        :data:`repro.nn.backends.BACKEND_NAMES`).  ``None`` resolves to
        the choice embedded in ``monitor_bytes`` (see
        :func:`~repro.serving.snapshot.monitor_to_bytes`), falling back
        to ``"reference"``.  All K shards of this service — including
        any spawned later — run the resolved plan, which is also
        embedded in the snapshot when the service serialises a live
        ``monitor`` itself.  Caller-supplied ``monitor_bytes`` are
        shipped verbatim: an explicit ``backend`` override applies to
        this fleet without rewriting the archive's own metadata.
    frame_ring_bytes:
        Capacity of each shard's shared-memory frame ring (:mod:`.shm`):
        ``feed()`` is a zero-ack write into it with ring-full
        back-pressure, so it bounds the un-ingested backlog a shard will
        buffer before ``feed()`` blocks.  See
        :data:`~repro.serving.shm.DEFAULT_FRAME_RING_BYTES`.  Each
        shard's event ring is derived, not configured: it holds one
        round of :data:`~repro.serving.transport.TICKS_PER_ROUND`
        batches of ``max_sessions_per_shard`` events
        (:func:`~repro.serving.shm.event_ring_capacity`).
    event_store:
        Optional :class:`~repro.serving.eventstore.EventStoreWriter`
        the router tees every delivered event into — live tick/drain
        events (tagged with their shard index), fail-safe crash and
        ingest-failure terminals, and a ``"resize"`` marker per
        :meth:`resize` — each exactly once, at the point it enters the
        merged stream.  Leave ``None`` when a gateway in front owns
        the tee.

    The façade mirrors the :class:`MonitorService` lifecycle —
    ``open_session`` / ``feed`` / ``tick`` / ``drain`` /
    ``close_session`` — and adds shard lifecycle: :meth:`add_shard` /
    :meth:`remove_shard` / :meth:`resize` (live migration — sessions and
    their un-ticked frames move between workers, nothing closes),
    :attr:`failed_sessions` and :meth:`close`.  It also exposes a
    per-shard sub-surface (:meth:`tick_shard`,
    :meth:`shard_maybe_pending`, …) for callers that serialise access
    per shard, such as the asyncio front-end
    (:class:`~repro.serving.async_frontend.AsyncShardedMonitor`).
    """

    def __init__(
        self,
        monitor: SafetyMonitor | None = None,
        n_shards: int = 2,
        max_sessions_per_shard: int = 64,
        *,
        monitor_bytes: bytes | None = None,
        start_method: str | None = None,
        backend: str | None = None,
        frame_ring_bytes: int = DEFAULT_FRAME_RING_BYTES,
        event_store: "EventStoreWriter | None" = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if max_sessions_per_shard < 1:
            raise ConfigurationError("max_sessions_per_shard must be >= 1")
        if (monitor is None) == (monitor_bytes is None):
            raise ConfigurationError(
                "pass exactly one of monitor / monitor_bytes"
            )
        if backend is not None:
            backend = validate_backend_name(backend)
        if monitor_bytes is None:
            assert monitor is not None
            self.backend = backend or DEFAULT_BACKEND
            # Embed the resolved choice so this snapshot — and anything
            # bootstrapped from it later — keeps running the same plan.
            monitor_bytes = monitor_to_bytes(monitor, backend=self.backend)
        else:
            # A snapshot written by a newer (or tampered) producer may
            # carry a name this version does not know — fail here with a
            # clear error rather than letting every worker die at spawn.
            self.backend = validate_backend_name(
                backend or snapshot_backend(monitor_bytes) or DEFAULT_BACKEND
            )
        self.monitor_bytes = monitor_bytes
        self.max_sessions_per_shard = int(max_sessions_per_shard)
        self.frame_ring_bytes = int(frame_ring_bytes)
        # Router-side feed validation width: with the asynchronous frame
        # ring there is no reply to carry a worker-side ShapeError, so
        # the router enforces the trained width up front — or, when the
        # snapshot constrains none, binds it on the first accepted feed
        # (the same rule MonitorService applies).
        self._n_features = snapshot_n_features(monitor_bytes)
        #: :attr:`MonitorService.history_frames` of every worker's service.
        self.history_frames = snapshot_history_frames(monitor_bytes)
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)
        self._ring = _HashRing()
        #: Placement overlay: sessions shed off a hot shard are pinned
        #: to their landing shard here, overriding the (load-blind)
        #: consistent-hash ring for every later placement decision.
        #: See :meth:`_place` / :meth:`shed`.
        self._overlay: dict[str, int] = {}
        self._shards: dict[int, _ShardHandle] = {}
        self._sessions: dict[str, _SessionRecord] = {}
        self.failed_sessions: dict[str, str] = {}
        self.event_store = event_store
        #: Router-side instruments: cumulative event accounting that no
        #: resize or crash can reset (the per-shard ServiceStats die
        #: with their workers; these live with the router).
        self.telemetry = TelemetryRegistry()
        #: Counter/latency/registry baseline folded in from retired
        #: shards (graceful ``remove_shard``), so :meth:`stats` and the
        #: telemetry are monotonic across resizes instead of forgetting
        #: retired workers.
        self._retired_stats = ServiceStats()
        self._started = time.monotonic()
        self._undelivered: list[tuple[int, SessionEvent]] = []
        self._order = itertools.count()
        self._next_id = 0
        self._next_shard_index = n_shards  # indices are never reused
        self._closed = False
        self._lock = threading.Lock()  # guards crash bookkeeping
        for index in range(n_shards):
            self._spawn_shard(index)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_shard(self, index: int) -> None:
        frame_ring = ShmRing(self.frame_ring_bytes)
        event_ring = ShmRing(
            event_ring_capacity(TICKS_PER_ROUND, self.max_sessions_per_shard)
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        try:
            process = self._ctx.Process(
                target=worker_main,
                args=(
                    child_conn,
                    self.monitor_bytes,
                    self.max_sessions_per_shard,
                    frame_ring.name,
                    event_ring.name,
                    self.backend,
                ),
                name=f"monitor-shard-{index}",
                daemon=True,
            )
            process.start()
        except Exception:
            frame_ring.destroy()
            event_ring.destroy()
            raise
        child_conn.close()
        handle = _ShardHandle(index, process, parent_conn, frame_ring, event_ring)
        try:
            reply = handle.request(Request("ping"), timeout_s=60.0)
        except WorkerError as exc:
            handle.stop()  # also unlinks the rings just created
            raise WorkerError(f"shard {index} failed to start: {exc}") from exc
        raise_remote(reply)
        self._shards[index] = handle
        self._ring.add(index)

    def _fail_sessions(
        self, reasons: dict[str, str], shard: int
    ) -> list[tuple[int, SessionEvent]]:
        """Fail sessions safe — the one way a session leaves the router unserved.

        Every session of ``reasons`` (id -> cause) that is still open
        loses its record and placement pin, lands in
        :attr:`failed_sessions`, and gets one terminal event at its exact
        ``frame_index`` (frames served so far) carrying ``flag=True``:
        losing the monitor mid-procedure is treated as unsafe, never as
        silently safe.  Returns ``(order, event)`` pairs so callers can
        merge them into whatever stream they are delivering.  Terminals
        are accounted (and persisted, one batch tagged ``shard``) here at
        creation, not at delivery — ``_undelivered`` may deliver them
        later, but they must never tee twice.  Caller holds ``_lock``.
        """
        pairs: list[tuple[int, SessionEvent]] = []
        for session_id, reason in reasons.items():
            record = self._sessions.pop(session_id, None)
            if record is None:
                continue  # closed, or already failed by another path
            self._overlay.pop(session_id, None)
            self.failed_sessions[session_id] = reason
            terminal = SessionEvent.failsafe(session_id, record.events_seen, reason)
            pairs.append((record.order, terminal))
        if pairs:
            self.telemetry.counter("failsafe_events").inc(len(pairs))
            if self.event_store is not None:
                self.event_store.append_batch(
                    [event for _, event in pairs], shard=shard
                )
        return pairs

    def _fail_shard(
        self, handle: _ShardHandle, reason: str
    ) -> list[tuple[int, SessionEvent]]:
        """Mark a shard dead and fail its sessions (:meth:`_fail_sessions`).

        It leaves the hash ring, so new sessions rebalance onto the
        survivors, and its worker is killed (SIGKILL: a stopped, hung
        worker never acts on SIGTERM) — which also ends, with
        end-of-file, any wait on its pipe.  Idempotent: a shard already
        failed returns no pairs.

        A shard fails on whichever thread finds it broken, which under
        the asyncio front-end is not always the one using it: an
        executor feed may be copying into the frame ring, a tick round
        on the loop may be reading the event ring or waiting on the
        pipe's fd.  Its rings are destroyed here all the same — crash is
        one of the three unlink paths (stop, removal, crash), and the
        memory goes with the shard — because :class:`ShmRing` serialises
        every access with its close: a copy in progress finishes first,
        and a later one raises ``WorkerError``.  The pipe end stays open
        until :meth:`_ShardHandle.stop` (:meth:`close`,
        :meth:`remove_shard`): closing it could free its fd number for
        reuse while the event loop still watches it.
        """
        with self._lock:
            if not handle.alive:
                return []
            handle.alive = False
            self._ring.remove(handle.index)
            handle.routes.clear()
            pairs = self._fail_sessions(
                {
                    session_id: reason
                    for session_id, record in self._sessions.items()
                    if record.shard == handle.index
                },
                handle.index,
            )
        if handle.process.is_alive():
            handle.process.kill()
        handle.destroy_rings()
        return pairs

    def _queue_crash(self, handle: _ShardHandle, reason: str) -> None:
        """Fail a shard outside a tick; its events deliver on the next one."""
        pairs = self._fail_shard(handle, reason)
        with self._lock:
            self._undelivered.extend(pairs)

    def _live_shard(self, index: int) -> _ShardHandle:
        handle = self._shards.get(index)
        if handle is None or not handle.alive:
            raise WorkerError(f"shard {index} is not live")
        return handle

    def _exchange(self, handle: _ShardHandle, request: Request):
        """One control-op request/reply; returns the reply's value.

        With :meth:`_round` the only code that touches a worker pipe
        after spawn, and where a control op's outcome is classified:

        - **the worker cannot be trusted** — a transport failure (dead,
          silent past the reply deadline, corrupt or foreign reply), or
          an error reply :func:`raise_remote` can only render as
          ``WorkerError`` (a type outside :mod:`repro.errors`).  The
          shard fails safe (:meth:`_queue_crash`) and ``WorkerError``
          naming the op, its session and the cause is raised.
        - **the caller's error** — any other :mod:`repro.errors` reply
          (full shard, duplicate id, unknown session) is re-raised as
          its own type, as a local :class:`MonitorService` would raise
          it; the worker keeps serving.
        """
        try:
            reply = handle.request(request, transport.REPLY_DEADLINE_S)
            raise_remote(reply)
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            of = f" of session {request.session_id!r}" if request.session_id else ""
            raise WorkerError(f"{request.op}{of} failed: {exc}") from exc
        return reply.value

    def _flush_undelivered(self) -> list[tuple[int, SessionEvent]]:
        with self._lock:
            flushed = self._undelivered
            self._undelivered = []
        return flushed

    def _reap_dead(self) -> list[tuple[int, SessionEvent]]:
        """Fail shards whose process died while nobody was talking to it.

        A broken pipe only surfaces on the next exchange, and idle
        shards are never contacted — this cheap liveness poll (no IPC)
        makes every tick/drain notice such deaths promptly.
        """
        pairs: list[tuple[int, SessionEvent]] = []
        for handle in self._live_shards():
            if not handle.process.is_alive():
                pairs.extend(
                    self._fail_shard(
                        handle,
                        f"shard {handle.index} worker died "
                        f"(exitcode {handle.process.exitcode})",
                    )
                )
        return pairs

    def _live_shards(self) -> list[_ShardHandle]:
        return [h for h in self._shards.values() if h.alive]

    # ------------------------------------------------------------------
    # Elasticity: live migration, add/remove/resize
    # ------------------------------------------------------------------
    def _check_room(self, index: int, action: str) -> None:
        """Refuse, *before* any state moves, to land a session on a full shard."""
        with self._lock:
            used = sum(1 for r in self._sessions.values() if r.shard == index)
        if used >= self.max_sessions_per_shard:
            raise ConfigurationError(
                f"shard {index} is full ({self.max_sessions_per_shard} "
                f"slots); cannot {action} onto it"
            )

    def shard_occupancy(self) -> dict[int, int]:
        """Open-session count per live shard (no IPC).

        Paired with :meth:`shard_stats` it tells an operator which
        shard is hot and which has room before a :meth:`shed`.
        """
        with self._lock:
            occupancy = {handle.index: 0 for handle in self._live_shards()}
            for record in self._sessions.values():
                if record.shard in occupancy:
                    occupancy[record.shard] += 1
        return occupancy

    def sessions_on(self, index: int) -> list[str]:
        """Open session ids routed to one shard, in opening order (no IPC)."""
        with self._lock:
            pairs = [
                (r.order, s)
                for s, r in self._sessions.items()
                if r.shard == index
            ]
        return [session_id for _, session_id in sorted(pairs)]

    def _place(self, session_id: str) -> int:
        """Consistent-hash placement with the shed overlay applied.

        Sessions shed off a hot shard (:meth:`shed`) are pinned to their
        landing shard, so every later placement decision — park/resume
        re-import (:meth:`resolve_import`), re-open of the same id
        (:meth:`resolve_placement`), and the minimal-slice rebalance of
        :meth:`add_shard` — follows the migration instead of snapping
        back to the load-blind ring.  A pin whose target is gone
        (crashed or removed) is dropped and the session falls back to
        plain ring placement.
        """
        pinned = self._overlay.get(session_id)
        if pinned is not None:
            handle = self._shards.get(pinned)
            if handle is not None and handle.alive:
                return pinned
            self._overlay.pop(session_id, None)
        return self._ring.place(session_id)

    def _move(
        self, session_ids, target_of, moves: dict[str, tuple[int, int]]
    ) -> None:
        """Live-migrate sessions one at a time: the one move loop behind
        :meth:`add_shard`, :meth:`remove_shard` and :meth:`shed`.

        ``target_of(session_id)`` is asked on that session's turn, so a
        placement reads the ring as it stands then, and each session
        moved lands in ``moves`` as ``(source, target)`` — which the
        caller keeps, whatever the loop raises.  One failure rule:

        - a session closed or failed meanwhile, or already on its
          target, is skipped;
        - a dead source or target skips the session: the crash path has
          already failed safe what the death took (every session of a
          dead source; the session whose import found the target dead),
          and a shard known dead is spent no exchange;
        - a full target ends the batch with its ``ConfigurationError``;
          what moved stays moved.
        """
        for session_id in session_ids:
            with self._lock:
                record = self._sessions.get(session_id)
            if record is None:
                continue
            source, target = record.shard, target_of(session_id)
            if target == source:
                continue
            try:
                self._migrate_session(session_id, record, target)
            except WorkerError:
                continue
            moves[session_id] = (source, target)

    def shed(self, session_ids: list[str], to_shard: int) -> dict[str, int]:
        """Migrate named sessions onto an explicit shard and pin them.

        The manual placement actuator (the asyncio front-end and the
        gateway wrap it): the sessions are live-migrated by
        :meth:`_move` — pending frames and window state intact, so ticks
        after the shed are bit-identical to an unbalanced run — and
        every named session that then sits on ``to_shard`` is pinned to
        it in the placement overlay, so future :meth:`feed` routing,
        park/resume round trips and ``add_shard`` rebalances all follow
        the move.

        Safe to race with a live fleet: the move loop's failure rule
        applies, except that a full target ends the batch quietly — the
        sessions that moved are the answer.  Returns ``{session_id:
        previous shard}`` for the sessions actually moved.

        Raises :class:`~repro.errors.WorkerError` only for a dead or
        unknown ``to_shard`` — a plan aimed at a shard that no longer
        exists is a caller bug, not a race to absorb.
        """
        self._check_open()
        self._live_shard(to_shard)
        moves: dict[str, tuple[int, int]] = {}
        with contextlib.suppress(ConfigurationError):  # the target is full
            self._move(session_ids, lambda _: to_shard, moves)
        with self._lock:
            for session_id in session_ids:
                record = self._sessions.get(session_id)
                if record is not None and record.shard == to_shard:
                    self._overlay[session_id] = to_shard
        moved = {session_id: source for session_id, (source, _) in moves.items()}
        if moved:
            self.telemetry.counter("sheds").inc()
            self.telemetry.counter("sessions_shed").inc(len(moved))
            if self.event_store is not None:
                self.event_store.append_marker(
                    "shed",
                    {"to": to_shard, "moved": dict(sorted(moved.items()))},
                )
        return moved

    def _migrate_session(
        self, session_id: str, record: _SessionRecord, target_index: int
    ) -> None:
        """Move one live session between shards: export → import.

        No drain happens and none is needed — the exported
        :class:`~repro.serving.service.SessionState` carries the
        session's pending and recent frames, so the next
        :meth:`tick` advances it on the target exactly as it would have
        on the source (the resize-parity guarantee).  ``record`` stays
        the session's record, its shard rewritten: the asyncio
        front-end reads the record's identity as the session's
        incarnation.

        Failure semantics: a dead target raises ``WorkerError`` and a
        full one ``ConfigurationError``, both *before* anything is
        exported (the session stays where it was); a source worker
        dying mid-export fails that shard's sessions through the usual
        crash path; a target that dies after the export — or answers
        the import with any error — fail-safes the in-limbo session
        (terminal ``error`` event, :attr:`failed_sessions`): its state
        died with that exchange.
        """
        source = self._shards[record.shard]
        target = self._live_shard(target_index)
        self._check_room(target_index, f"migrate session {session_id!r}")
        state = self._exchange(source, Request("migrate_out", session_id=session_id))
        source.routes.pop(record.order, None)
        try:
            # The session keeps its global order as its route id on the
            # target's rings — the merge key never moves.
            self._exchange(
                target,
                Request(
                    "migrate_in", session_id=session_id, state=state, route=record.order
                ),
            )
        except ReproError as exc:
            # Exported but never landed: whatever the target answered,
            # the state is gone with this exchange.  Fail the session
            # safe rather than let it vanish silently.
            reason = f"lost migrating to shard {target_index}: {exc}"
            with self._lock:
                self._undelivered.extend(
                    self._fail_sessions({session_id: reason}, target_index)
                )
            raise
        with self._lock:
            record.shard = target_index
            target.routes[record.order] = session_id

    def remove_shard(self, index: int) -> dict[str, int]:
        """Migrate every session off one shard, then retire the worker.

        The shard leaves the hash ring and releases its shed pins, its
        sessions are re-placed on the remaining ring and live-migrated
        there by :meth:`_move` — pending frames, window state and
        timeline intact, **no drain, no dropped frame, no closed
        session** — and the worker process is stopped.  A source that
        dies mid-batch has failed its remaining sessions safe; it is
        retired all the same.  Returns ``{session_id: new shard
        index}`` for the migrated sessions.

        Raises
        ------
        WorkerError
            If this is the last live shard — sessions would have
            nowhere to go, and a zero-shard service could serve nothing.
        ConfigurationError
            If a re-placement target has no free slot.  On this and any
            other error the ring is restored and the shard keeps
            serving; sessions already migrated stay where they landed
            (they remain correctly routed either way).
        """
        handle = self._shards.get(index)
        if handle is None:
            raise ConfigurationError(f"no shard {index}")
        moves: dict[str, tuple[int, int]] = {}
        if handle.alive:
            if len(self._live_shards()) <= 1:
                raise WorkerError(
                    "cannot remove the last live shard: its sessions "
                    "would have nowhere to migrate (resize to >= 1 "
                    "shard, or close the service)"
                )
            self._ring.remove(index)
            with self._lock:
                # A shed target being retired releases its pins: the
                # sessions fall back to ring placement, so no session is
                # ever stranded on a pin to a shard that no longer exists.
                for session_id in [
                    s for s, pin in self._overlay.items() if pin == index
                ]:
                    del self._overlay[session_id]
            try:
                self._move(self.sessions_on(index), self._place, moves)
            except Exception:
                if handle.alive:
                    self._ring.add(index)
                raise
            if handle.alive:
                self._retire_shard_counters(handle)
        handle.stop()  # a crashed shard's pipe end goes too
        del self._shards[index]
        return {session_id: target for session_id, (_, target) in moves.items()}

    def _retire_shard_counters(self, handle: _ShardHandle) -> None:
        """Fold a retiring shard's lifetime counters into the baseline.

        Without this, every graceful scale-down silently *shrank* the
        aggregate :meth:`stats` and telemetry — the retired worker's
        ``n_ticks``/``frames_processed``/``events_emitted`` vanished
        with its pipe.  One ``stats`` exchange carries the counters and
        the registry alike.  Fetched best-effort: a shard that dies
        during its own retirement interview simply contributes nothing.
        """
        try:
            self._retired_stats.merge(self.stats_of(handle.index))
        except WorkerError:
            return

    def add_shard(self) -> int:
        """Spawn one new worker and rebalance the minimal hash slice.

        The new shard joins the ring under a never-reused index, and
        :meth:`_move` live-migrates onto it only the sessions whose
        consistent-hash placement *changed* — exactly the keys the new
        ring points at it (frames and window state intact).  Everything
        else is untouched: that minimality is the point of consistent
        hashing.  A full new shard raises ``ConfigurationError``; the
        shard stays live and in the ring, serving what landed.

        Returns the new shard's index.
        """
        self._check_open()
        index = self._next_shard_index
        self._spawn_shard(index)
        self._next_shard_index = index + 1
        self._move(self.session_ids, self._place, {})
        return index

    def resize(self, target_k: int) -> dict:
        """Live-resize the fleet to ``target_k`` shards (the actuator).

        Applies :meth:`add_shard` / :meth:`remove_shard` until the live
        shard count matches — this is what turns a
        :func:`suggest_shard_count` recommendation into reality without
        a fleet rebuild and without interrupting a single session.
        Scale-down retires the highest-index
        shards first; indices are never reused.

        Returns a summary dict: ``{"from", "to", "added", "removed",
        "migrated"}`` (``migrated`` counts sessions that changed shard).
        A step refused part-way (a full target) raises, with no summary
        and no marker; the fleet stays as far as it got.
        """
        if target_k < 1:
            raise ConfigurationError("target_k must be >= 1")
        self._check_open()
        before = self.n_shards
        with self._lock:
            placement = {s: r.shard for s, r in self._sessions.items()}
        added: list[int] = []
        removed: list[int] = []
        while self.n_shards < target_k:
            added.append(self.add_shard())
        while self.n_shards > target_k:
            victim = max(h.index for h in self._live_shards())
            self.remove_shard(victim)
            removed.append(victim)
        with self._lock:
            migrated = sum(
                1
                for s, r in self._sessions.items()
                if placement.get(s, r.shard) != r.shard
            )
        summary = {
            "from": before,
            "to": self.n_shards,
            "added": added,
            "removed": removed,
            "migrated": migrated,
        }
        self.telemetry.counter("resizes").inc()
        if self.event_store is not None:
            self.event_store.append_marker("resize", summary)
        return summary

    def close(self) -> None:
        """Stop every worker process (graceful ``stop``, then SIGKILL).

        Does **not** drain: call :meth:`drain` first if un-ticked frames
        must still be processed, and :meth:`close_session` for the
        timelines.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._shards.values():
            handle.stop()
        self._shards.clear()

    def __enter__(self) -> "ShardedMonitorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception as exc:  # noqa: BLE001 - a destructor must not
            # raise, but the failure is still recorded (debug level: at
            # interpreter shutdown even logging may be torn down, hence
            # the inner suppress).
            with contextlib.suppress(Exception):
                logger.debug("close() during __del__ failed: %s", exc)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of live shards (dead workers are excluded)."""
        return len(self._live_shards())

    @property
    def shard_indices(self) -> list[int]:
        """Indices of live shards."""
        return [h.index for h in self._live_shards()]

    def shard_of(self, session_id: str) -> int:
        """Shard index an open session lives on."""
        return self._record(session_id).shard

    def resolve_placement(self, session_id: str | None = None) -> tuple[str, int]:
        """Allocate/validate a session id and compute its shard (no IPC).

        Split from :meth:`open_on_shard` so the asyncio front-end can
        take the target shard's turn *before* the blocking pipe call.
        """
        self._check_open()
        if session_id is None:
            session_id = f"session-{self._next_id:04d}"
            self._next_id += 1
            while session_id in self._sessions or session_id in self.failed_sessions:
                session_id = f"session-{self._next_id:04d}"
                self._next_id += 1
        elif session_id in self._sessions:
            raise ConfigurationError(f"session {session_id!r} is already open")
        return session_id, self._place(session_id)

    def open_on_shard(
        self, session_id: str, shard: int, record_timeline: bool = True
    ) -> str:
        """Open a resolved placement on its shard (the IPC half)."""
        return self._admit(
            shard,
            Request(
                "open",
                session_id=session_id,
                record_timeline=record_timeline,
                route=next(self._order),
            ),
        )

    def _admit(self, shard: int, request: Request, events_seen: int = 0) -> str:
        """Land an ``open``/``migrate_in`` on a shard and record the placement.

        The global opening order doubles as the session's route id on
        the shm rings, so it is allocated *before* the request and
        shipped inside (a failed admission just burns a counter value).
        ``events_seen`` is where the session's stream stands — frames
        already served elsewhere for an import — so a fail-safe terminal
        names the frame monitoring was lost at, not one counted from
        the import.
        """
        handle = self._live_shard(shard)
        self._exchange(handle, request)
        with self._lock:  # _fail_shard may iterate from another thread
            self._sessions[request.session_id] = _SessionRecord(
                shard=shard,
                order=request.route,
                events_seen=events_seen,
                record_timeline=request.record_timeline,
            )
            handle.routes[request.route] = request.session_id
        # An explicit re-open (or re-import) of a crash-failed id starts
        # a new life for it (the gateway's crash recovery does exactly
        # this); the stale failure record must not shadow the new session.
        self.failed_sessions.pop(request.session_id, None)
        return request.session_id

    # ------------------------------------------------------------------
    # Session lifecycle (MonitorService-mirroring façade)
    # ------------------------------------------------------------------
    @property
    def n_open_sessions(self) -> int:
        """Number of currently open (non-failed) sessions."""
        return len(self._sessions)

    @property
    def session_ids(self) -> list[str]:
        """Open session ids in global opening order."""
        with self._lock:  # snapshot; opens/crashes may run concurrently
            return list(self._sessions)

    @property
    def has_pending(self) -> bool:
        """True while any live shard may still have un-ticked frames."""
        return any(h.maybe_pending for h in self._live_shards())

    def open_session(
        self, session_id: str | None = None, record_timeline: bool = True
    ) -> str:
        """Place a session on its consistent-hash shard and open it there.

        Semantics mirror :meth:`MonitorService.open_session`; capacity is
        per shard, so a full target shard raises ``ConfigurationError``
        even when other shards have room (placement is by hash, not by
        load — see ``docs/serving.md`` for sizing guidance).
        """
        session_id, shard = self.resolve_placement(session_id)
        return self.open_on_shard(session_id, shard, record_timeline)

    def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Enqueue kinematics frames on the session's shard.

        A single copy into the shard's frame ring — **no reply round
        trip**.  Back-pressure replaces the ack: a block goes in chunks
        of at most half the ring (:meth:`ShmRing.frame_chunks`), and a
        chunk that does not fit sends the worker a ``ping``
        (:meth:`_exchange`), which it answers only after reading its ring
        empty — so the chunk then fits.  Counted as
        ``feeds_backpressured`` in the router's telemetry; a dead or hung
        worker fails its shard safe as on every other exchange.  Shape and
        width are validated here, synchronously, against the snapshot's
        trained width (or the width the fleet's first feed bound);
        anything the worker itself rejects later surfaces on the next
        :meth:`tick`/:meth:`drain` as that session's fail-safe terminal
        event.

        Raises :class:`~repro.errors.WorkerError` if the session was lost
        to a worker crash (failed sessions are never silently re-opened),
        :class:`~repro.errors.ShapeError` on a frame-width mismatch,
        :class:`~repro.errors.DatasetError` when any value is NaN or
        ±Inf (nothing reaches the ring).
        """
        self._check_open()
        record = self._record(session_id)
        handle = self._shards[record.shard]
        frames = np.asarray(frames, dtype=float)
        if frames.ndim == 1:
            frames = frames[None, :]
        if frames.ndim != 2:
            raise ShapeError(
                f"frames must be (n, n_features), got shape {frames.shape}"
            )
        if frames.shape[0] == 0:
            return
        if self._n_features is None:
            self._n_features = frames.shape[1]
        elif frames.shape[1] != self._n_features:
            raise ShapeError(
                f"fleet is bound to {self._n_features} kinematics "
                f"features, got frames with {frames.shape[1]}"
            )
        reject_non_finite(session_id, frames)
        if not handle.process.is_alive():
            reason = (
                f"shard {handle.index} worker died "
                f"(exitcode {handle.process.exitcode})"
            )
            self._queue_crash(handle, reason)
            raise WorkerError(f"session {session_id!r} lost: {reason}")
        waited = False
        try:
            for chunk in handle.frame_ring.frame_chunks(frames):
                while not handle.frame_ring.try_write_frames(record.order, chunk):
                    waited = True
                    self._exchange(handle, Request("ping"))
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            raise WorkerError(f"session {session_id!r} lost: {exc}") from exc
        handle.writes += 1
        if waited:
            self.telemetry.counter("feeds_backpressured").inc()

    def _room_for(self, shard: int, frames) -> bool:
        """True when ``frames`` fit ``shard``'s frame ring as one record
        right now: :meth:`feed` would neither chunk nor wait.  No IPC;
        exact for the ring's one producer (:meth:`ShmRing._has_room`)."""
        handle = self._shards.get(shard)
        return (
            handle is not None
            and handle.alive
            and handle.frame_ring._has_room(np.size(frames))
        )

    def _round(self, request: Request, index: int | None = None):
        """One broadcast-and-collect ``tick`` round, in two halves.

        Under :meth:`tick`, :meth:`drain` and :meth:`tick_shard`
        (``index`` names the one shard asked).  The request goes to
        every target before any reply is read, so shards compute
        concurrently, and the round then reads **exactly one reply per
        request it sent, whatever the earlier shards answered**: no
        shard's failure is raised out of the round, leaves another
        shard's reply in its pipe, or costs another shard its events.

        A generator, so that its caller decides how to wait between the
        halves.  The send half runs to the first ``yield``, which hands
        out the handles whose replies the round owes; the caller sends
        back the set of them whose pipes it saw become readable, or
        ``None`` to have each reply read blocking (bounded by the reply
        deadline, :data:`~repro.serving.transport.REPLY_DEADLINE_S`).
        The receive half runs to the second ``yield``, which hands out
        the events.  The sync callers run the halves back to back
        (:meth:`_run_round`);
        :class:`~repro.serving.async_frontend.AsyncShardedMonitor` awaits
        the pipes on its event loop between them.  A handle left out of
        the readable set stayed silent for the whole wait: it is
        unresponsive.

        A shard whose exchange fails — transport failure, event ring
        out of step with the reply, or an error reply of *any* type
        (its service is in an unknown state) — fails safe
        (:meth:`_fail_shard`): its sessions' terminals join this round's
        output, as do queued crash terminals, the liveness poll's and
        deferred ingest failures, while the survivors' events flow on.

        A ``tick`` request may carry ``ticks=n > 1``: the worker then runs
        one engine step of up to ``n`` ticks and announces their batches
        in one reply.  An error reply may announce the batches written
        before the failure; they are delivered before the shard fails
        safe.

        The events are the k-th ticks of all shards merged in global
        session opening order (what one :class:`MonitorService` over the
        same sessions would produce).  A failed shard's terminals join
        the position after the last tick it delivered — so each lands
        after its session's events — deferred ingest failures join the
        round's last tick, and the terminals queued before the round
        join its first.
        """
        ticks = {0: self._flush_undelivered() + self._reap_dead()}
        sent: list[_ShardHandle] = []
        for handle in self._live_shards():
            if handle.maybe_pending if index is None else handle.index == index:
                try:
                    handle.send(request)
                    sent.append(handle)
                except WorkerError as exc:
                    ticks[0].extend(self._fail_shard(handle, str(exc)))
        readable = yield sent
        for handle in sent:
            done = 0  # this shard's ticks delivered so far
            try:
                if readable is not None and handle not in readable:
                    raise WorkerError(
                        f"shard {handle.index} unresponsive after "
                        f"{transport.REPLY_DEADLINE_S}s"
                    )
                reply = handle.recv(transport.REPLY_DEADLINE_S)
                # An error reply announces too (none when it answers no tick).
                for tick_events in self._collect_ticks(handle, reply.value or 0):
                    ticks.setdefault(done, []).extend(
                        self._account_events(handle, tick_events)
                    )
                    done += 1
                if not reply.ok:
                    raise WorkerError(
                        f"shard {handle.index} {request.op} failed: "
                        f"{reply.error_type}: {reply.error}"
                    )
            except WorkerError as exc:
                ticks.setdefault(done, []).extend(
                    self._fail_shard(handle, str(exc))
                )
        # After the round's last tick: a block the worker rejected after
        # its step follows the events the step gave its session.
        ticks[max(ticks)].extend(self._ingest_failures())
        yield [
            event
            for k in sorted(ticks)
            for _, event in sorted(ticks[k], key=lambda pair: pair[0])
        ]

    def _run_round(self, request: Request, index: int | None = None) -> list[SessionEvent]:
        """A :meth:`_round` with its halves back to back: its events."""
        round_ = self._round(request, index)
        next(round_)
        return round_.send(None)

    def tick_shard(self, index: int) -> list[SessionEvent]:
        """Advance one shard by one frame per pending session
        (:meth:`_round`): its events plus any queued crash events; a
        failure of *this* shard becomes terminal events, not an exception."""
        return self._run_round(Request("tick"), index)

    def tick(self) -> list[SessionEvent]:
        """Advance every live shard by one frame per pending session
        (:meth:`_round`): shards tick concurrently; failed shards surface
        as terminal per-session events, never as an exception."""
        return self._run_round(Request("tick"))

    def drain(self, collect: bool = True) -> list[SessionEvent]:
        """Tick every shard until no live shard has pending frames.

        A run of :meth:`_round` calls of :data:`TICKS_PER_ROUND` ticks
        each, so K shards drain concurrently and every round obeys the
        one failure rule.  With ``collect=True`` the per-tick event
        lists are interleaved tick-by-tick across shards (a single
        service's drain order); with ``collect=False`` only the
        fail-safe terminals are returned — those are never dropped —
        while every event is still counted and teed to ``event_store``.
        """
        request = Request("tick", ticks=TICKS_PER_ROUND)
        events = self._run_round(request)
        while self.has_pending:
            events.extend(self._run_round(request))
        return events if collect else [e for e in events if e.error is not None]

    def close_session(self, session_id: str) -> SessionResult:
        """Free the session's slot on its shard; return its timeline.

        A session lost to a crash raises :class:`WorkerError` naming the
        failure (its id stays in :attr:`failed_sessions`).
        """
        self._check_open()
        record = self._record(session_id)
        handle = self._shards[record.shard]
        result = self._exchange(handle, Request("close", session_id=session_id))
        with self._lock:
            del self._sessions[session_id]
            self._overlay.pop(session_id, None)
            handle.routes.pop(record.order, None)
        return result

    # ------------------------------------------------------------------
    # Session export / import (gateway resume + external checkpointing)
    # ------------------------------------------------------------------
    def export_session(self, session_id: str) -> bytes:
        """Remove a live session from the fleet, returning its state.

        The returned bytes are the :func:`session_to_bytes` archive —
        pending and recent frames included — so a later
        :meth:`import_session` resumes the session bit-identically, on
        this fleet or another one with the same monitor snapshot.  This
        is :meth:`_migrate_session`'s export half exposed as a public
        primitive; the gateway parks disconnected sessions with it.

        Raises :class:`~repro.errors.WorkerError` if the session was
        lost to a crash or its worker dies mid-export.
        """
        self._check_open()
        record = self._record(session_id)
        handle = self._shards[record.shard]
        state = self._exchange(handle, Request("migrate_out", session_id=session_id))
        with self._lock:
            self._sessions.pop(session_id, None)
            handle.routes.pop(record.order, None)
        return state

    def resolve_import(self, state: bytes) -> tuple[str, int]:
        """Validate an exported archive and compute its shard (no IPC).

        The session keeps the id embedded in its snapshot and is placed
        as :meth:`resolve_placement` places that id — so an export/import
        round trip lands it exactly where a fresh open would, on its
        pinned shard if it was shed (a shed's placement survives
        disconnect/reconnect).  Raises
        :class:`~repro.errors.ConfigurationError` if the archive is
        foreign-versioned or the id is already open.
        """
        return self.resolve_placement(session_snapshot_id(state))

    def import_on_shard(
        self, state: bytes, session_id: str, shard: int,
        record_timeline: bool = True,
    ) -> str:
        """Land a resolved import on its shard (the IPC half)."""
        self._check_room(shard, f"import session {session_id!r}")
        return self._admit(
            shard,
            Request(
                "migrate_in",
                session_id=session_id,
                record_timeline=record_timeline,
                state=state,
                route=next(self._order),
            ),
            events_seen=session_snapshot_meta(state)[1],
        )

    def import_session(
        self, state: bytes, record_timeline: bool = True
    ) -> str:
        """Re-admit an exported session; returns its (unchanged) id.

        The inverse of :meth:`export_session`: the session resumes on
        its hash-placed shard with pending frames and window state
        intact, so subsequent ticks are bit-identical to a never-
        exported run.
        """
        session_id, shard = self.resolve_import(state)
        return self.import_on_shard(state, session_id, shard, record_timeline)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_maybe_pending(self, index: int) -> bool:
        """True while shard ``index`` is live and may have pending frames."""
        handle = self._shards.get(index)
        return handle is not None and handle.alive and handle.maybe_pending

    def take_undelivered_events(self) -> list[SessionEvent]:
        """Claim the fail-safe events queued outside a tick.

        A shard failed outside a tick (by a :meth:`feed`, a control op,
        a migration) queues its sessions' terminal events for the next
        :meth:`tick`/:meth:`drain`.  Callers that cannot guarantee a
        further tick — the asyncio front-end after a ``WorkerError``, or
        an idle ticker's pass — claim them here instead; events are only
        ever delivered once, by whichever path gets there first.

        Also runs the no-IPC liveness check, so a worker that dies while
        its shard is idle (nothing to tick, nothing talking to it) still
        surfaces its sessions' fail-safe terminal events here — at once
        under the front-end, whose idle ticker its exit wakes.
        """
        pairs = (
            self._flush_undelivered() + self._reap_dead() + self._ingest_failures()
        )
        pairs.sort(key=lambda p: p[0])
        return [event for _, event in pairs]

    def stats_of(self, index: int) -> ServiceStats:
        """One live shard's :class:`ServiceStats`, its registry included
        (one IPC exchange): the single-shard primitive callers that
        serialise pipe access per shard (the asyncio front-end) use to
        poll one worker under its turn without touching the others."""
        return self._exchange(self._live_shard(index), Request("stats"))

    def shard_stats(self) -> dict[int, ServiceStats]:
        """Per-live-shard :class:`ServiceStats` (one IPC each); a shard
        that dies under the poll is skipped (its crash is queued)."""
        out = {}
        for handle in self._live_shards():
            try:
                out[handle.index] = self.stats_of(handle.index)
            except WorkerError:
                continue
        return out

    def stats(self) -> ServiceStats:
        """Aggregate stats: summed counters, merged tick-latency samples.

        Shards tick concurrently, so summed ``n_ticks`` counts worker
        ticks, not wall-clock rounds; percentiles describe the per-shard
        tick latency distribution.  Counters include every shard this
        fleet ever retired (see :meth:`_retire_shard_counters`), so the
        aggregate is monotonic across resizes, and ``uptime_s`` is the
        fleet's own lifetime, not the youngest worker's.
        """
        merged = ServiceStats()
        merged._started = self._started
        for stats in (self._retired_stats, *self.shard_stats().values()):
            merged.merge(stats)
        return merged

    @property
    def uptime_s(self) -> float:
        """Monotonic seconds since this fleet was constructed."""
        return time.monotonic() - self._started

    def router_telemetry_snapshot(self) -> dict:
        """The no-IPC half of :meth:`telemetry_snapshot`.

        Retired shards' registries plus the router's own incident
        counters — everything that does not require talking to a
        worker, split out so callers that poll shard by shard (the
        gateway's ``gateway_stats()``) can merge it with the registries
        their :class:`ServiceStats` carry.
        """
        merged = TelemetryRegistry()
        merged.merge(self._retired_stats.telemetry.snapshot())
        merged.merge(self.telemetry.snapshot())
        return merged.snapshot()

    def telemetry_snapshot(self) -> dict:
        """Fleet-wide telemetry: every live shard + retired + router.

        Merges each worker's registry (event counts, alert-latency
        histograms) as its :meth:`shard_stats` carry it, the registries
        of shards retired by resizes, and the router's own incident
        counters (``failsafe_events``, ``events_delivered``,
        ``resizes``) into one
        :meth:`~repro.serving.telemetry.TelemetryRegistry.snapshot`
        dict.  Cumulative across resizes by construction.
        """
        merged = TelemetryRegistry()
        merged.merge(self.router_telemetry_snapshot())
        for stats in self.shard_stats().values():
            merged.merge(stats.telemetry.snapshot())
        return merged.snapshot()

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "service is closed; no further sessions can be served"
            )

    def _record(self, session_id: str) -> _SessionRecord:
        record = self._sessions.get(session_id)
        if record is None:
            reason = self.failed_sessions.get(session_id)
            if reason is not None:
                raise WorkerError(f"session {session_id!r} failed: {reason}")
            raise DatasetError(f"no open session {session_id!r}")
        return record

    def _account_events(
        self, handle: _ShardHandle, events: list[SessionEvent]
    ) -> list[tuple[int, SessionEvent]]:
        """Pair one shard tick's events with their merge keys; count and
        tee them — one store write per shard tick, like the gateway's tee
        (events of sessions closed concurrently are their own batch)."""
        pairs = []
        for event in events:
            record = self._sessions.get(event.session_id)
            if record is None:  # closed concurrently; still deliver
                pairs.append((-1, event))
            else:
                record.events_seen += 1
                pairs.append((record.order, event))
        if events:
            self.telemetry.counter("events_delivered").inc(len(events))
            if self.event_store is not None:
                routed = [event for order, event in pairs if order >= 0]
                if routed:
                    self.event_store.append_batch(routed, shard=handle.index)
                if len(routed) < len(pairs):
                    self.event_store.append_batch(
                        [event for order, event in pairs if order < 0], shard=-1
                    )
        return pairs

    # ------------------------------------------------------------------
    # Shm data plane: event-ring decode and deferred ingest failures
    # ------------------------------------------------------------------
    def _collect_ticks(
        self, handle: _ShardHandle, n_ring: int
    ) -> list[list[SessionEvent]]:
        """Read the ``n_ring`` event batches one reply announced off the
        shard's event ring, oldest first."""
        ticks: list[list[SessionEvent]] = []
        for _ in range(n_ring):
            batch = handle.event_ring.read_events()
            if batch is None:
                raise WorkerError(
                    f"shard {handle.index} event ring out of sync: "
                    f"announced batch missing"
                )
            ticks.append(self._decode_event_batch(handle, batch))
        return ticks

    @staticmethod
    def _decode_event_batch(
        handle: _ShardHandle, batch: np.ndarray
    ) -> list[SessionEvent]:
        """Rebuild :class:`SessionEvent` objects from one ring record.

        Column by column: one ``tolist()`` per field turns the whole
        record into Python scalars at once, where reading six structured
        scalars per row costs three times as much per event.
        """
        events = []
        session_of = handle.routes.get
        for route, frame, gesture, score, flags, latency_us in zip(
            *(
                batch[name].tolist()
                for name in ("route", "frame", "gesture", "score", "flags", "latency_us")
            )
        ):
            session_id = session_of(route)
            if session_id is None:  # pragma: no cover - protocol guard
                logger.warning(
                    "shard %d emitted an event for unknown route %d",
                    handle.index,
                    route,
                )
                continue
            # Positional: a frozen dataclass's keywords cost a third more.
            events.append(
                SessionEvent(
                    session_id, frame, gesture, score, bool(flags & 1), None, latency_us
                )
            )
        return events

    def _ingest_failures(self) -> list[tuple[int, SessionEvent]]:
        """Convert stashed frame-ring rejections to fail-safe events.

        The asynchronous data plane has no feed reply to raise through:
        a frame block the worker rejected (after the router's own width
        check — so: a true anomaly) arrives as ``(route, message)`` on a
        later reply, and this gives each one the same terminal treatment
        a crash gets (:meth:`_fail_sessions`), naming the cause.
        """
        pairs: list[tuple[int, SessionEvent]] = []
        for handle in list(self._shards.values()):
            reasons = {}
            # Popped, never swapped: a reply being read on another thread
            # may be stashing onto this very list.
            while handle.pending_ingest:
                route, message = handle.pending_ingest.pop(0)
                session_id = handle.routes.pop(route, None)
                if session_id is not None:  # else: already failed or closed
                    reasons[session_id] = (
                        f"shard {handle.index} rejected frames for session "
                        f"{session_id!r}: {message}"
                    )
            if reasons:
                with self._lock:
                    pairs.extend(self._fail_sessions(reasons, handle.index))
        return pairs
