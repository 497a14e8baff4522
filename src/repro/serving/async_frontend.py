"""Asyncio front-end over the sharded service: non-blocking ingest.

A robot fleet feeds kinematics over the network at its own cadence; the
serving tier must accept frames and deliver events without ever letting
one slow or dead shard stall the rest.  :class:`AsyncShardedMonitor`
wraps a :class:`~repro.serving.sharded.ShardedMonitorService` with that
contract:

- :meth:`feed` / :meth:`open_session` / :meth:`close_session` are
  coroutines; the blocking exchange — a shared-memory ring write for
  ``feed`` (no reply round-trip, it blocks only on ring back-pressure),
  a pipe request/reply for control ops —
  runs on an executor thread while the event loop keeps serving
  everything else;
- one background ticker task per shard advances that shard whenever it
  has pending frames and hands each tick's
  :class:`~repro.serving.service.SessionEvent`\\ s over as one list —
  to the ``sink`` callable the front-end was wired with (the gateway's
  router), or else onto the queue behind :meth:`events`;
- :meth:`events` is the merged async event stream.  A worker crash
  surfaces *in the stream* as terminal events with ``error`` set (and
  ``flag=True``), while the other shards' tickers keep running.

Per-shard ``asyncio.Lock``\\ s serialise access to each worker's pipe
(one pipe cannot carry two interleaved request/reply exchanges), which
is also what guarantees a slow shard only ever delays *its own*
sessions.  Do not mix sync calls (``service.tick()`` etc.) with a
running front-end — go through the front-end exclusively.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import AsyncIterator, Callable

import numpy as np

from ..errors import WorkerError
from .service import ServiceStats, SessionEvent, SessionResult
from .sharded import ShardedMonitorService

#: Sentinel pushed to the event queue when the front-end shuts down.
_CLOSED = object()


class AsyncShardedMonitor:
    """Async ingest/egress façade over a :class:`ShardedMonitorService`.

    Use as an async context manager::

        service = ShardedMonitorService(monitor, n_shards=4)
        async with AsyncShardedMonitor(service) as frontend:
            sid = await frontend.open_session("theatre-7")
            await frontend.feed(sid, frames)        # returns immediately
            async for event in frontend.events():   # merged across shards
                ...

    ``sink`` is wiring, not tuning: a callable taking one
    ``list[SessionEvent]`` — the events of one shard tick, or of one
    crash/resize/shed flush — called on the loop thread in place of
    queueing for :meth:`events` (which then stays empty).  The gateway
    passes its router; leave it out to consume :meth:`events`.

    The front-end does not own the service's worker processes; call
    ``service.close()`` (or use the service as a context manager) after
    :meth:`aclose`.
    """

    def __init__(
        self,
        service: ShardedMonitorService,
        poll_interval_s: float = 1.0,
        sink: Callable[[list[SessionEvent]], None] | None = None,
    ) -> None:
        self._service = service
        #: How often a parked (idle-shard) ticker polls worker liveness,
        #: so a worker dying while nothing is pending still surfaces its
        #: sessions' fail-safe terminal events within this bound.
        self.poll_interval_s = poll_interval_s
        #: Event batches awaiting :meth:`events` (unused with a sink).
        self._queue: asyncio.Queue = asyncio.Queue()
        self._sink = sink if sink is not None else self._queue.put_nowait
        self._locks: dict[int, asyncio.Lock] = {}
        self._kick: dict[int, asyncio.Event] = {}
        self._tasks: list[asyncio.Task] = []
        self._closed = False
        self._started = False

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "AsyncShardedMonitor":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def start(self) -> None:
        """Spawn one ticker task per live shard (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in self._service.shard_indices:
            self._locks[index] = asyncio.Lock()
            self._kick[index] = asyncio.Event()
            self._tasks.append(
                asyncio.create_task(
                    self._shard_loop(index), name=f"ticker-shard-{index}"
                )
            )

    async def aclose(self) -> None:
        """Stop the tickers and terminate the :meth:`events` stream.

        Pending frames are left un-ticked (use :meth:`drain` first when
        they must be processed); the underlying service stays open.
        """
        if self._closed:
            return
        self._closed = True
        for kick in self._kick.values():
            kick.set()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._queue.put_nowait(_CLOSED)

    # ------------------------------------------------------------------
    def _emit(self, batch: list[SessionEvent]) -> None:
        """Hand one tick's (or one flush's) events over, in order."""
        if batch:
            self._sink(batch)

    async def _run_on_shard(self, index: int, fn, *args):
        """Run one blocking pipe exchange for a shard on the executor.

        The shard's lock is held for the duration: a pipe is a strict
        request/reply channel, so exchanges must not interleave.

        When the exchange discovers a dead worker (``WorkerError``), the
        lost sessions' terminal events are claimed here and pushed onto
        the event stream before re-raising — the shard's ticker may
        already have parked, so a later tick cannot be relied on to
        deliver them.
        """
        lock = self._locks.setdefault(index, asyncio.Lock())
        async with lock:
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, fn, *args
                )
            except WorkerError:
                self._emit(self._service.take_undelivered_events())
                raise

    async def _shard_loop(self, index: int) -> None:
        """Tick one shard whenever it has pending frames."""
        kick = self._kick[index]
        while not self._closed:
            kick.clear()
            if not self._service.shard_maybe_pending(index):
                if index not in self._service.shard_indices:
                    break  # shard crashed or was removed; nothing to tick
                try:
                    await asyncio.wait_for(
                        kick.wait(), timeout=self.poll_interval_s
                    )
                except asyncio.TimeoutError:
                    # Nothing woke us: cheap liveness poll so a worker
                    # that died while idle still fails fast-safe.
                    self._emit(self._service.take_undelivered_events())
                continue
            self._emit(
                await self._run_on_shard(
                    index, self._service.tick_shard, index
                )
            )
            # Let feeds/consumers run between ticks of a busy shard.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    async def _run_on_session_shard(self, session_id: str, fn, *args):
        """Run a session-addressed exchange under its *current* shard lock.

        The owning shard is resolved before the lock can be taken, and a
        concurrent :meth:`resize` (which holds every lock while it
        migrates sessions) may move the session meanwhile — executing
        then would talk to the new shard's pipe under the old shard's
        lock, unserialised against that shard's ticker.  So the shard is
        re-resolved once the lock is held and the acquisition retried
        until they agree.
        """
        while True:
            shard = self._service.shard_of(session_id)
            lock = self._locks.setdefault(shard, asyncio.Lock())
            async with lock:
                if self._service.shard_of(session_id) != shard:
                    continue  # migrated while we waited; re-resolve
                try:
                    return (
                        await asyncio.get_running_loop().run_in_executor(
                            None, fn, *args
                        ),
                        shard,
                    )
                except WorkerError:
                    self._emit(self._service.take_undelivered_events())
                    raise

    async def open_session(
        self, session_id: str | None = None, record_timeline: bool = True
    ) -> str:
        """Place and open a session (see
        :meth:`ShardedMonitorService.open_session`)."""
        while True:
            session_id, shard = self._service.resolve_placement(session_id)
            lock = self._locks.setdefault(shard, asyncio.Lock())
            async with lock:
                if shard not in self._service.shard_indices:
                    continue  # shard resized away while we waited; re-place
                try:
                    return await asyncio.get_running_loop().run_in_executor(
                        None,
                        self._service.open_on_shard,
                        session_id,
                        shard,
                        record_timeline,
                    )
                except WorkerError:
                    self._emit(self._service.take_undelivered_events())
                    raise

    async def export_session(self, session_id: str) -> bytes:
        """Remove a session from the fleet, returning its exported state
        (see :meth:`ShardedMonitorService.export_session`)."""
        state, _ = await self._run_on_session_shard(
            session_id, self._service.export_session, session_id
        )
        return state

    async def import_session(
        self, state: bytes, record_timeline: bool = True
    ) -> str:
        """Re-admit an exported session under its shard's pipe lock.

        Mirrors :meth:`open_session`'s placement loop: the target shard
        is resolved from the id embedded in ``state``, the lock taken,
        and placement re-checked in case a resize retired the shard
        while we waited.  The target's ticker is kicked afterwards —
        imported state may carry pending frames that must tick without
        waiting for the next :meth:`feed`.
        """
        while True:
            session_id, shard = self._service.resolve_import(state)
            lock = self._locks.setdefault(shard, asyncio.Lock())
            async with lock:
                if shard not in self._service.shard_indices:
                    continue  # shard resized away while we waited; re-place
                try:
                    sid = await asyncio.get_running_loop().run_in_executor(
                        None,
                        self._service.import_on_shard,
                        state,
                        session_id,
                        shard,
                        record_timeline,
                    )
                except WorkerError:
                    self._emit(self._service.take_undelivered_events())
                    raise
            kick = self._kick.get(shard)
            if kick is not None:
                kick.set()
            return sid

    async def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Enqueue frames for a session without blocking the event loop.

        Waits only on the owning shard's frame-ring write (other
        shards' ingest and ticking proceed concurrently), then wakes
        that shard's ticker.
        """
        _, shard = await self._run_on_session_shard(
            session_id, self._service.feed, session_id, frames
        )
        kick = self._kick.get(shard)
        if kick is not None:
            kick.set()

    async def close_session(self, session_id: str) -> SessionResult:
        """Close a session and return its timeline (see
        :meth:`ShardedMonitorService.close_session`)."""
        result, _ = await self._run_on_session_shard(
            session_id, self._service.close_session, session_id
        )
        return result

    async def drain(self) -> None:
        """Wait until no live shard has pending frames.

        The tickers do the actual work; this just parks until the
        backlog is gone (events keep flowing to :meth:`events`).
        """
        while any(
            self._service.shard_maybe_pending(i)
            for i in self._service.shard_indices
        ):
            await asyncio.sleep(0.001)

    @property
    def n_shards(self) -> int:
        """Number of live shards in the underlying service."""
        return self._service.n_shards

    @property
    def service(self) -> "ShardedMonitorService":
        """The wrapped :class:`ShardedMonitorService` (configuration
        introspection — e.g. the balancer reads
        ``max_sessions_per_shard`` for its capacity clamp).  Drive the
        fleet through this front-end's coroutines, not directly."""
        return self._service

    async def resize(self, target_k: int) -> dict:
        """Live-resize the fleet without dropping a session or a frame.

        Runs :meth:`ShardedMonitorService.resize` on the executor while
        holding **every** shard's pipe lock — migration is a two-pipe
        exchange, so no ticker or feed may interleave with it — then
        reconciles the ticker tasks: new shards get their own loops,
        loops of removed shards park and exit on their next wake-up, and
        every ticker is kicked so migrated backlogs resume immediately.
        Returns the service's resize summary dict.
        """
        indices = sorted(set(self._locks) | set(self._service.shard_indices))
        async with contextlib.AsyncExitStack() as stack:
            for index in indices:
                await stack.enter_async_context(
                    self._locks.setdefault(index, asyncio.Lock())
                )
            result = await asyncio.get_running_loop().run_in_executor(
                None, self._service.resize, target_k
            )
        # Fail-safe events queued by a crash during the resize must not
        # wait for a tick that may never come.
        self._emit(self._service.take_undelivered_events())
        # Prune per-shard state of retired indices (indices are never
        # reused, so without this an oscillating autoscaler would grow
        # the lock/kick maps and the task list without bound).  Waiters
        # and loops holding references to a popped lock/event keep
        # working; removal only stops *future* lookups.
        live = set(self._service.shard_indices)
        for index in [i for i in self._kick if i not in live]:
            self._kick.pop(index).set()  # wake the parked loop so it exits
            self._locks.pop(index, None)
        self._tasks = [t for t in self._tasks if not t.done()]
        if self._started and not self._closed:
            for index in live:
                if index not in self._kick:
                    self._locks.setdefault(index, asyncio.Lock())
                    self._kick[index] = asyncio.Event()
                    self._tasks.append(
                        asyncio.create_task(
                            self._shard_loop(index),
                            name=f"ticker-shard-{index}",
                        )
                    )
            for kick in self._kick.values():
                kick.set()
        return result

    async def shed(self, session_ids: list[str], to_shard: int) -> dict[str, int]:
        """Migrate named sessions onto ``to_shard`` and pin them there.

        The balancer's actuator
        (:meth:`~repro.serving.balancer.MonitorBalancer.step` calls this
        with the sessions its plan selected).  Like :meth:`resize` it
        holds **every** shard's pipe lock around the blocking
        :meth:`ShardedMonitorService.shed` call — each migration is a
        two-pipe exchange whose source varies per session — then flushes
        crash-queued fail-safe events and kicks the tickers so migrated
        backlogs resume immediately on their new shard.  Returns the
        service's ``{session_id: previous shard}`` map.
        """
        indices = sorted(set(self._locks) | set(self._service.shard_indices))
        async with contextlib.AsyncExitStack() as stack:
            for index in indices:
                await stack.enter_async_context(
                    self._locks.setdefault(index, asyncio.Lock())
                )
            moved = await asyncio.get_running_loop().run_in_executor(
                None, self._service.shed, list(session_ids), to_shard
            )
        self._emit(self._service.take_undelivered_events())
        for kick in self._kick.values():
            kick.set()
        return moved

    def shard_occupancy(self) -> dict[int, int]:
        """Open-session count per live shard (no IPC, no lock needed)."""
        return self._service.shard_occupancy()

    def sessions_on(self, index: int) -> list[str]:
        """Open session ids routed to one shard (no IPC, no lock needed)."""
        return self._service.sessions_on(index)

    async def shard_stats(self) -> dict[int, "ServiceStats"]:
        """Per-shard :class:`ServiceStats` without disturbing the tickers.

        Each shard is polled under its own pipe lock — the same lock the
        ticker and ``feed`` take — so the strict request/reply pipe
        protocol is preserved while the fleet keeps serving.  Shards
        that die under the poll are skipped (their crash events surface
        through the usual fail-safe paths).  The remote gateway's
        ``gateway_stats()`` aggregates this, and the dict feeds
        :func:`~repro.serving.sharded.suggest_shard_count` directly.
        """
        out: dict[int, "ServiceStats"] = {}
        for index in list(self._service.shard_indices):
            try:
                out[index] = await self._run_on_shard(
                    index, self._service.stats_of, index
                )
            except WorkerError:
                continue
        return out

    async def telemetry(self) -> dict:
        """Fleet-wide telemetry snapshot without disturbing the tickers.

        The async twin of
        :meth:`ShardedMonitorService.telemetry_snapshot`: each live
        shard's registry is fetched under its own pipe lock (one shard
        at a time, like :meth:`shard_stats`), then merged with the
        router's retired-shard baseline and incident counters.
        """
        from .telemetry import TelemetryRegistry

        merged = TelemetryRegistry()
        merged.merge(self._service.router_telemetry_snapshot())
        for index in list(self._service.shard_indices):
            try:
                merged.merge(
                    await self._run_on_shard(
                        index, self._service.telemetry_of, index
                    )
                )
            except WorkerError:
                continue
        return merged.snapshot()

    async def events(self) -> AsyncIterator[SessionEvent]:
        """Merged event stream across all shards.

        Yields until :meth:`aclose`; events of one session arrive in
        frame order, interleaving across sessions follows shard timing.
        Crash events (``error`` set) are part of the stream.
        """
        while True:
            batch = await self._queue.get()
            if batch is _CLOSED:
                return
            for event in batch:
                yield event
