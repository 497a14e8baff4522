"""Asyncio front-end over the sharded service: non-blocking ingest.

A robot fleet feeds kinematics over the network at its own cadence; the
serving tier must accept frames and deliver events without ever letting
one slow or dead shard stall the rest.  :class:`AsyncShardedMonitor`
wraps a :class:`~repro.serving.sharded.ShardedMonitorService` with that
contract:

- the data path stays on the event loop.  :meth:`feed` copies the block
  into its shard's shared-memory frame ring right there, on the loop
  thread, whenever the ring has room for it and no control op or
  back-pressure feed holds or awaits the shard's turn — a write with no
  reply to wait for.
  One background ticker task per shard sends the worker a tick request
  whenever the shard has pending frames — one round, one engine step
  of up to :data:`TICKS_PER_ROUND` ticks run by the worker — awaits
  the worker's pipe becoming readable, reads the reply and the event
  ring, and hands the round's
  :class:`~repro.serving.service.SessionEvent`\\ s over as one list to
  the ``sink`` callable the front-end was wired with (the gateway's
  router).  An idle ticker waits for a kick or its worker's exit,
  never on a timer, and every wait on a worker ends at the reply
  deadline (:data:`~repro.serving.transport.REPLY_DEADLINE_S`);
- what has to block runs on an executor thread: control ops (open,
  close, export, import, stats: one pipe request/reply
  each), a feed that must wait on ring back-pressure (the ring is full,
  or the block is over half the ring and goes in chunks; a chunk that
  does not fit costs one ``ping`` exchange), and the fleet-wide
  :meth:`resize` / :meth:`shed`;
- a dead or hung worker surfaces *in the sink* as its sessions'
  terminal events with ``error`` set (and ``flag=True``), while the
  other shards' tickers keep running.

Each shard has one turn, an ``asyncio.Lock``: one pipe cannot carry
two interleaved request/reply exchanges, the frame ring has one
producer, and a feed must not overtake a control op or an earlier feed
of its shard.  Ticks, control ops and back-pressure feeds take it; the
front-end counts the control ops and back-pressure feeds that hold or
await it (ticks are not counted), and an inline feed runs only while
that count is zero.

So an inline feed never waits on a tick; a back-pressure feed waits for
its shard's turn.  :meth:`resize` and :meth:`shed` hold the turn of
every shard, and a slow shard only ever delays *its own* sessions.  Do
not mix sync calls (``service.tick()`` etc.) with a running front-end —
go through the front-end exclusively.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import Counter
from collections.abc import Callable

import numpy as np

from ..errors import WorkerError
from .service import ServiceStats, SessionEvent, SessionResult
from .sharded import ShardedMonitorService
from . import transport
from .transport import TICKS_PER_ROUND, Request


class AsyncShardedMonitor:
    """Async ingest/egress façade over a :class:`ShardedMonitorService`.

    Use as an async context manager::

        service = ShardedMonitorService(monitor, n_shards=4)
        async with AsyncShardedMonitor(service, batches.append) as frontend:
            sid = await frontend.open_session("theatre-7")
            await frontend.feed(sid, frames)        # returns immediately
            await frontend.drain()                  # events are in batches

    ``sink`` is wiring, not tuning: a callable taking one
    ``list[SessionEvent]`` — the events of one shard's tick round, or of
    one crash/resize/shed flush — called on the loop thread.  Events of
    one session arrive in frame order, crash terminals included; the
    gateway passes its router.

    The front-end does not own the service's worker processes; call
    ``service.close()`` (or use the service as a context manager) after
    :meth:`aclose`.
    """

    def __init__(
        self,
        service: ShardedMonitorService,
        sink: Callable[[list[SessionEvent]], None],
    ) -> None:
        self._service = service
        self._sink = sink
        #: Each shard's turn, and how many control ops and back-pressure
        #: feeds hold or await it (module docstring).  ``locked()`` turns
        #: false the moment a holder releases, before the next waiter
        #: has run; the count stays above zero until every waiter is done.
        self._pipe: dict[int, asyncio.Lock] = {}
        self._claims: Counter[int] = Counter()
        self._kick: dict[int, asyncio.Event] = {}
        #: Set by a ticker that finds no live shard pending, or stops:
        #: what :meth:`drain` waits on.
        self._settled = asyncio.Event()
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
        if not self._started:
            self._started = True
            self._reconcile()

    def _reconcile(self) -> None:
        """One ticker per live shard, once started: a shard without one
        gets its loop, and a retired shard's kick, turn and done task go
        (indices are never reused: repeated reshapes would otherwise
        grow the maps and the task list without bound).  Waiters and
        loops holding a popped turn or kick keep working; removal only
        stops *future* lookups, and the set kick wakes the retired
        shard's parked loop so it exits."""
        live = set(self._service.shard_indices)
        for index in [i for i in self._kick if i not in live]:
            self._kick.pop(index).set()
            self._pipe.pop(index, None)
        self._tasks = [t for t in self._tasks if not t.done()]
        if self._started and not self._closed:
            for index in live - set(self._kick):
                self._kick[index] = asyncio.Event()
                self._tasks.append(
                    asyncio.create_task(
                        self._shard_loop(index), name=f"ticker-shard-{index}"
                    )
                )

    async def aclose(self) -> None:
        """Stop the tickers.

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

    # ------------------------------------------------------------------
    def _emit(self, batch: list[SessionEvent]) -> None:
        """Hand one round's (or one flush's) events over, in order."""
        if batch:
            self._sink(batch)

    def _any_pending(self) -> bool:
        return any(
            self._service.shard_maybe_pending(i)
            for i in self._service.shard_indices
        )

    def _settle(self) -> None:
        """Wake :meth:`drain` if no live shard may have pending frames."""
        if not self._any_pending():
            self._settled.set()

    def _wake(self, shard: int) -> None:
        """Kick ``shard``'s ticker: a feed or an import left it frames."""
        kick = self._kick.get(shard)
        if kick is not None:
            kick.set()

    @contextlib.contextmanager
    def _handing_over_crashes(self):
        """When a call discovers a dead worker (``WorkerError``), the lost
        sessions' terminal events are claimed and handed over before it
        propagates: the shard's ticker may already have parked, so no
        later tick can be relied on to deliver them."""
        try:
            yield
        except WorkerError:
            self._emit(self._service.take_undelivered_events())
            raise

    @contextlib.asynccontextmanager
    async def _turns(self, shard: int):
        """Hold ``shard``'s turn, counted from before the wait until the
        release, so an inline feed can tell that a call is queued."""
        self._claims[shard] += 1
        try:
            async with self._pipe.setdefault(shard, asyncio.Lock()):
                yield
        finally:
            self._claims[shard] -= 1
            if not self._claims[shard]:
                del self._claims[shard]

    async def _run(self, resolve, call):
        """Run ``call(shard)``, one blocking exchange, on the executor.

        The one turn–resolve–revalidate–run loop under every coroutine
        that sends a single worker's exchange off the loop thread:
        control ops, and a feed that has to wait on back-pressure.
        ``resolve()`` names the shard (no IPC) and its turn
        (:meth:`_turns`) is held for the duration.  A concurrent
        :meth:`resize` or :meth:`shed` (which hold every turn while they
        migrate) may move the session or retire the shard while we
        wait — executing then would talk to another shard's pipe
        unserialised against its ticker — so ``resolve()`` runs again
        under the turn, retrying until both agree.  Afterwards the
        shard's ticker is woken.
        """
        while True:
            shard = resolve()
            async with self._turns(shard):
                if resolve() != shard:
                    continue  # moved or retired while we waited; re-resolve
                with self._handing_over_crashes():
                    result = await asyncio.get_running_loop().run_in_executor(
                        None, call, shard
                    )
            self._wake(shard)
            return result

    def _shard_of(self, session_id: str):
        """``resolve`` for a session-addressed exchange: the shard of *this
        incarnation* of the session.  A resize or shed moves its record
        and the exchange follows; a crash then a re-open of the id (the
        gateway's crash recovery) replaces the record, and an exchange
        that waited on the lost session must fail like one — a feed that
        followed the id would land frames the recovery already carried."""
        record = self._service._record(session_id)

        def resolve() -> int:
            if self._service._record(session_id) is not record:
                raise WorkerError(f"session {session_id!r} was lost and re-opened")
            return record.shard

        return resolve

    async def _shard_loop(self, index: int) -> None:
        """Tick one shard whenever it has pending frames.

        A pass with nothing to tick hands over what
        :meth:`ShardedMonitorService.take_undelivered_events` holds —
        queued crash terminals, deaths its liveness check reaps,
        ingest failures a control op's reply stashed — then waits for a
        kick or for its worker's exit (:meth:`_idle`).  The hand-over
        holds the shard's turn: :meth:`resize` and :meth:`shed`
        hold every turn while they add and delete shards, which the
        hand-over iterates.

        The loop cannot end while sessions are still routed to its
        shard.  The tick round already turns every worker failure into
        terminal events, so whatever still escapes a pass is a
        router-side fault — and the ticker owes the shard's sessions
        what ``_LocalEngine`` owes its own: the shard fails safe
        (terminal ``flag=True`` events, ``failed_sessions``), handed
        over by the next pass, never a session that silently stops
        being monitored.

        A round, or a pass with nothing to tick, that leaves no live
        shard pending wakes :meth:`drain`; so does the loop's end.
        """
        kick = self._kick[index]
        while not self._closed:
            kick.clear()
            try:
                if self._service.shard_maybe_pending(index):
                    # Let the feeds and calls already scheduled run first:
                    # a round then carries their frames, and a feed that
                    # must wait on back-pressure takes the turn before it.
                    await asyncio.sleep(0)
                    # Looked up per round: a patched _tick (tracing, fault
                    # injection) takes effect on the next one.
                    self._emit(await self._tick(index))
                    self._settle()
                    continue
                async with self._pipe.setdefault(index, asyncio.Lock()):
                    self._emit(self._service.take_undelivered_events())
                    handle = self._service._shards.get(index)
                if handle is None or not handle.alive:
                    # Crashed or removed: nothing to tick.  Its turn goes
                    # too, as :meth:`_reconcile` prunes a retired shard's.
                    self._pipe.pop(index, None)
                    break
                self._settle()
                await self._idle(kick, handle.process)
            except Exception as exc:  # noqa: BLE001 - a dead ticker must fail safe
                handle = self._service._shards.get(index)
                if handle is not None:
                    self._service._queue_crash(
                        handle,
                        f"shard {index} ticker failed: {type(exc).__name__}: {exc}",
                    )
        self._settled.set()

    @staticmethod
    async def _idle(kick: asyncio.Event, process) -> None:
        """Wait until the ticker is kicked or ``process`` — its shard's
        worker — exits, whichever comes first; never on a timer.

        The worker's sentinel turns readable when it exits, so a worker
        that dies while its shard is idle wakes the ticker at once.
        ``process`` stays referenced for the whole wait (this frame holds
        it) and the reader goes before the wait returns: a collected
        process closes its sentinel, whose fd number could then be
        reused while the loop still watched it.
        """
        loop = asyncio.get_running_loop()
        loop.add_reader(process.sentinel, kick.set)
        try:
            await kick.wait()
        finally:
            loop.remove_reader(process.sentinel)

    async def _tick(self, index: int) -> list[SessionEvent]:
        """One tick round of shard ``index``, on the loop thread.

        The one call :meth:`_shard_loop` makes per round (tracing and
        fault injection patch it here): up to :data:`TICKS_PER_ROUND`
        ticks of the shard's worker.  Under the shard's turn (uncounted) it
        runs :meth:`ShardedMonitorService._round`'s send half, awaits the
        worker's pipe (:meth:`_readable`), then runs the receive half,
        which reads the reply and the event ring and applies the round's
        outcome rule.  No thread waits on the worker.
        """
        async with self._pipe.setdefault(index, asyncio.Lock()):
            round_ = self._service._round(
                Request("tick", ticks=TICKS_PER_ROUND), index
            )
            sent = next(round_)
            try:
                readable = {h for h in sent if await self._readable(h.conn)}
            except BaseException:  # cancelled mid-round, most likely
                # Still read the owed reply (blocking): no pipe is ever
                # left a reply out of step for its next exchange.
                self._emit(round_.send(None))
                raise
            return round_.send(readable)

    async def _readable(self, conn) -> bool:
        """Await a worker pipe until it is readable — a reply waiting, or
        end-of-file from a dead worker — for at most the reply deadline,
        :data:`~repro.serving.transport.REPLY_DEADLINE_S`.  False when
        the wait timed out."""
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        fd = conn.fileno()

        def on_readable() -> None:
            loop.remove_reader(fd)
            if not ready.done():  # not timed out in this same loop pass
                ready.set_result(True)

        loop.add_reader(fd, on_readable)
        try:
            return await asyncio.wait_for(ready, transport.REPLY_DEADLINE_S)
        except asyncio.TimeoutError:
            return False
        finally:
            loop.remove_reader(fd)

    # ------------------------------------------------------------------
    async def open_session(
        self, session_id: str | None = None, record_timeline: bool = True
    ) -> str:
        """Place and open a session (see
        :meth:`ShardedMonitorService.open_session`)."""
        session_id, _ = self._service.resolve_placement(session_id)
        return await self._run(
            lambda: self._service.resolve_placement(session_id)[1],
            lambda shard: self._service.open_on_shard(
                session_id, shard, record_timeline
            ),
        )

    async def export_session(self, session_id: str) -> bytes:
        """Remove a session from the fleet, returning its exported state
        (see :meth:`ShardedMonitorService.export_session`)."""
        return await self._run(
            self._shard_of(session_id),
            lambda _: self._service.export_session(session_id),
        )

    async def import_session(
        self, state: bytes, record_timeline: bool = True
    ) -> str:
        """Re-admit an exported session, placed like :meth:`open_session`
        by the id embedded in ``state``; pending frames it carries tick
        without waiting for the next :meth:`feed`."""
        session_id, _ = self._service.resolve_import(state)
        return await self._run(
            lambda: self._service.resolve_placement(session_id)[1],
            lambda shard: self._service.import_on_shard(
                state, session_id, shard, record_timeline
            ),
        )

    async def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Enqueue frames for a session without blocking the event loop.

        In the common case this never leaves the loop thread: when the
        shard's frame ring has room for the whole block and no control
        op or back-pressure feed holds or awaits the shard's turn,
        :meth:`ShardedMonitorService.feed` — validation and one ring
        copy — runs right here, and never exchanges.  The room check is
        exact: the loop thread is then the ring's only producer, and
        room only grows until it writes.  Otherwise (ring full, block
        over half the ring, or a call to queue behind) the same call
        runs on the executor under the shard's turn, after every call
        queued on the turn before it — so one session's frames land in
        order either way — and a chunk that does not fit costs one
        ``ping`` exchange.  A refused block raises here, on both paths;
        then the shard's ticker is woken.
        """
        resolve = self._shard_of(session_id)
        shard = resolve()
        if not self._claims[shard] and self._service._room_for(shard, frames):
            with self._handing_over_crashes():
                self._service.feed(session_id, frames)
            self._wake(shard)
            return
        await self._run(resolve, lambda _: self._service.feed(session_id, frames))

    async def close_session(self, session_id: str) -> SessionResult:
        """Close a session and return its timeline (see
        :meth:`ShardedMonitorService.close_session`)."""
        return await self._run(
            self._shard_of(session_id),
            lambda _: self._service.close_session(session_id),
        )

    async def drain(self) -> None:
        """Wait until no live shard has pending frames.

        The tickers do the actual work (events keep flowing to the
        sink); this parks, on no timer, until a ticker's round or idle
        pass finds no live shard pending, or a ticker stops — its shard
        failed or was removed — and then looks again.
        """
        while self._any_pending():
            self._settled.clear()
            await self._settled.wait()

    @property
    def n_shards(self) -> int:
        """Number of live shards in the underlying service."""
        return self._service.n_shards

    @property
    def service(self) -> "ShardedMonitorService":
        """The wrapped :class:`ShardedMonitorService`, for configuration
        and placement introspection (``max_sessions_per_shard``,
        ``shard_occupancy()``, ``sessions_on()``).  Drive the fleet
        through this front-end's coroutines, not directly."""
        return self._service

    async def _run_on_fleet(self, fn, *args):
        """Run a fleet-wide blocking call holding **every** shard's turn.

        Migration is a two-pipe exchange whose source varies per
        session, so no ticker, feed or control op may interleave with a
        resize or a shed — and with every turn held and counted, no feed
        runs inline either.  Afterwards, whether or not the call raised
        (a reshape refused part-way has still moved sessions and may
        have added a shard), the tickers are reconciled
        (:meth:`_reconcile`), every ticker is kicked so migrated
        backlogs resume at once, and fail-safe events queued by a crash
        during the call are handed over (no tick may ever come for
        them).
        """
        indices = sorted(set(self._pipe) | set(self._service.shard_indices))
        try:
            async with contextlib.AsyncExitStack() as stack:
                for index in indices:
                    await stack.enter_async_context(self._turns(index))
                return await asyncio.get_running_loop().run_in_executor(
                    None, fn, *args
                )
        finally:
            self._reconcile()
            for kick in self._kick.values():
                kick.set()
            self._emit(self._service.take_undelivered_events())

    async def resize(self, target_k: int) -> dict:
        """Live-resize the fleet without dropping a session or a frame:
        :meth:`ShardedMonitorService.resize` on :meth:`_run_on_fleet`,
        so new shards get their tickers and removed shards' tickers
        exit — also when the reshape is refused part-way.  Returns the
        service's resize summary dict."""
        return await self._run_on_fleet(self._service.resize, target_k)

    async def shed(self, session_ids: list[str], to_shard: int) -> dict[str, int]:
        """Migrate named sessions onto ``to_shard`` and pin them there:
        :meth:`ShardedMonitorService.shed` on :meth:`_run_on_fleet`.
        Returns the service's ``{session_id: previous shard}`` map."""
        return await self._run_on_fleet(
            self._service.shed, list(session_ids), to_shard
        )

    async def shard_stats(self) -> dict[int, "ServiceStats"]:
        """Per-shard :class:`ServiceStats`, registries included, without
        disturbing the tickers: one shard at a time, each under its own
        turn, so the fleet keeps serving.  Shards that die under the
        poll are skipped (their crash events surface through the usual
        fail-safe paths).  The remote gateway's ``gateway_stats()``
        aggregates this, and the dict feeds
        :func:`~repro.serving.sharded.suggest_shard_count` directly.
        """
        out = {}
        for index in list(self._service.shard_indices):
            try:
                out[index] = await self._run(
                    lambda i=index: i, self._service.stats_of
                )
            except WorkerError:
                continue
        return out
