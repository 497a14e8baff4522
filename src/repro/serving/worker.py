"""Shard worker: one process, one :class:`MonitorService`, one pipe.

:func:`worker_main` is the entry point the sharded router spawns for
every shard.  It rebuilds the trained monitor from the snapshot bytes it
was handed (:func:`repro.serving.snapshot.monitor_from_bytes` — no code
or pickled objects cross the process boundary, only arrays and JSON),
then serves until told to stop or the router side of the pipe disappears.

The pipe carries control ops only; the bulk traffic moves through the
two shared-memory rings (:mod:`repro.serving.shm`) the router created
for this shard:

- **frame ring** (in): the worker reads it empty before it dispatches
  *any* pipe request, after the engine step of a ``tick`` round, and
  after each reply.  So a ``feed`` written to the ring is always
  ordered ahead of the ``tick``/``close``/``migrate_out`` that followed
  it on the router thread, and a writer that found the ring full gets
  its room back by sending a ``ping``.  Then the worker sleeps in the
  pipe read until the next request: no timer wakes it.
- **event ring** (out): a ``tick`` round is one engine step
  (:meth:`MonitorService.advance`) of up to ``ticks`` frames per
  session, and each of its ticks goes on the ring as one batch of
  :data:`~repro.serving.shm.EVENT_DTYPE` rows, packed column by column
  from the step's :class:`~repro.serving.service.EventBlock` — no
  per-event object; the pipe reply carries only the batch count.  This is the only way events leave a
  worker.
  The router sizes the ring to hold one round and reads it empty before
  the next, so a batch that does not fit is a broken contract: the tick
  round raises, and the shard fails safe.

A frame block the service rejects (a safety net — the router validates
shape and width before writing) cannot raise in ``feed()`` any more,
because there is no reply to raise through: the worker evicts the
session and reports ``(route, error)`` in ``Reply.ingest_errors`` on
the next exchange, and the router fails the session safe from there.

Worker-side exceptions are converted to error replies (the worker keeps
serving its other sessions); only a broken pipe or an explicit ``stop``
ends the process.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import WorkerError
from ..nn.backends import DEFAULT_BACKEND
from .service import EventBlock, MonitorService, StepFailure
from .shm import EVENT_DTYPE, ShmRing
from .snapshot import monitor_from_bytes, session_from_bytes, session_to_bytes
from .transport import Reply, Request, error_reply, recv_message


class _ShardWorker:
    """Per-process worker state: the service, the rings, the route map."""

    def __init__(
        self,
        service: MonitorService,
        frame_ring: ShmRing,
        event_ring: ShmRing,
    ) -> None:
        self.service = service
        self.frame_ring = frame_ring
        self.event_ring = event_ring
        #: session id -> route id; the inverse map addresses ring frames.
        self._routes: dict[str, int] = {}
        self._sessions_by_route: dict[int, str] = {}
        #: Deferred (route, message) ingest failures, reported on the
        #: next reply (see module docstring).
        self._ingest_errors: list[tuple[int, str]] = []
        #: Reusable event-encoding scratch, grown on demand.
        self._event_scratch = np.empty(service.max_sessions, dtype=EVENT_DTYPE)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def bind_route(self, session_id: str, route: int | None) -> None:
        if route is None:
            return
        self._routes[session_id] = route
        self._sessions_by_route[route] = session_id

    def drop_route(self, session_id: str) -> None:
        route = self._routes.pop(session_id, None)
        if route is not None:
            self._sessions_by_route.pop(route, None)

    # ------------------------------------------------------------------
    # Frame ring ingest
    # ------------------------------------------------------------------
    def consume_frames(self) -> None:
        """Drain every pending frame block into the service."""
        while True:
            record = self.frame_ring.read_frames()
            if record is None:
                return
            route, frames = record
            session_id = self._sessions_by_route.get(route)
            if session_id is None:
                self._ingest_errors.append(
                    (route, f"frames for unknown route {route}")
                )
                continue
            try:
                self.service.feed(session_id, frames)
            except Exception as exc:  # noqa: BLE001 - reduced to a
                # deferred ingest error: there is no feed reply to carry
                # it, so evict the session and report on the next
                # exchange (the router fails it safe).
                self._ingest_errors.append(
                    (route, f"{type(exc).__name__}: {exc}")
                )
                self.drop_route(session_id)
                try:
                    self.service.close_session(session_id)
                except Exception as evict_exc:  # noqa: BLE001 - the slot
                    # is already gone; nothing further to free.
                    del evict_exc

    def take_ingest_errors(self) -> tuple:
        errors, self._ingest_errors = tuple(self._ingest_errors), []
        return errors

    # ------------------------------------------------------------------
    # Event ring egress
    # ------------------------------------------------------------------
    def _records(self, block: EventBlock) -> np.ndarray:
        """The block's events as :data:`EVENT_DTYPE` rows, column by
        column into reusable scratch (grown on demand)."""
        n = len(block)
        if n > self._event_scratch.shape[0]:
            self._event_scratch = np.empty(n, dtype=EVENT_DTYPE)
        records = self._event_scratch[:n]
        routes = [self._routes[session_id] for session_id in block.sessions]
        records["route"] = [routes[i] for i in block.session]
        records["frame"] = block.frame
        records["gesture"] = block.gesture
        records["score"] = block.score
        records["flags"] = block.flag
        records["latency_us"] = block.latency_us
        return records

    def tick_round(self, ticks: int) -> Reply:
        """One engine step of up to ``ticks`` ticks, one reply.

        The round is :meth:`MonitorService.advance`: bounded by the work
        pending when it starts — every session advances by at most
        ``ticks`` frames and at most its backlog then — and, under the
        reference backend, its error windows are scored in one library
        call.  The frame ring is read before the round (:meth:`serve`)
        and after it, never in between: frames that land while the
        round runs wait for the next one, and a block rejected then
        evicts its session after the round gave it every frame it was
        owed.

        Returns ``Reply(value=n_batches)``: each tick of the step goes on
        the event ring as one batch of :data:`EVENT_DTYPE` rows, packed
        column by column from the step's :class:`EventBlock`.  A tick
        that raises, or a batch that does not fit the ring, ends the
        round with an error reply that still announces the batches
        written before it — the ticks of the step that completed before
        a failing one (:class:`StepFailure`) among them — so the router
        delivers them before it fails the shard safe.
        """
        n_batches = 0
        try:
            try:
                block, failure = self.service.advance(ticks), None
            except StepFailure as partial:
                block, failure = partial.block, partial.cause
            if block is not None:
                records = self._records(block)
                start = 0
                for count in block.ticks:
                    if not self.event_ring.try_write_events(records[start : start + count]):
                        raise WorkerError(
                            f"event ring full: a batch of {count} events does not fit"
                        )
                    n_batches += 1
                    start += count
            if failure is not None:
                raise failure
            self.consume_frames()
        except Exception as exc:  # noqa: BLE001 - reduced to an error reply
            return dataclasses.replace(error_reply(exc), value=n_batches)
        return Reply(ok=True, value=n_batches)

    def serve(self, request: Request) -> Reply:
        """Answer one pipe request: ingest first, then the op.

        Ring frames written before ``request`` land before it runs (feed
        -> tick ordering is the parity contract; a ``ping`` answered
        means the ring was read empty), and the reply carries the
        post-op backlog flag and the deferred ingest failures.
        """
        self.consume_frames()
        try:
            reply = _dispatch(self, request)
        except Exception as exc:  # noqa: BLE001 - reduced to an error reply
            reply = error_reply(exc)
        return dataclasses.replace(
            reply,
            has_pending=self.service.has_pending,
            ingest_errors=self.take_ingest_errors(),
        )


def _dispatch(worker: _ShardWorker, request: Request) -> Reply:
    """Execute one request against the worker's local service."""
    service = worker.service
    op = request.op
    if op == "open":
        session_id = service.open_session(
            request.session_id, record_timeline=request.record_timeline
        )
        worker.bind_route(session_id, request.route)
        return Reply(ok=True, value=session_id)
    if op == "tick":
        return worker.tick_round(request.ticks)
    if op == "close":
        assert request.session_id is not None
        result = service.close_session(request.session_id)
        worker.drop_route(request.session_id)
        return Reply(ok=True, value=result)
    if op == "migrate_out":
        assert request.session_id is not None
        state = service.export_session(request.session_id, remove=True)
        worker.drop_route(request.session_id)
        return Reply(ok=True, value=session_to_bytes(state))
    if op == "migrate_in":
        assert request.state is not None
        state = session_from_bytes(request.state)
        session_id = service.import_session(state)
        worker.bind_route(session_id, request.route)
        return Reply(ok=True, value=session_id)
    if op == "stats":
        return Reply(ok=True, value=service.stats)
    if op in ("ping", "stop"):
        return Reply(ok=True)
    return Reply(ok=False, error_type="WorkerError", error=f"unknown op {op!r}")


def worker_main(
    conn,
    monitor_blob: bytes,
    max_sessions: int,
    frame_ring_name: str,
    event_ring_name: str,
    backend: str = DEFAULT_BACKEND,
) -> None:
    """Serve one shard until ``stop`` or the pipe closes.

    Parameters
    ----------
    conn:
        Worker end of the duplex pipe to the router.
    monitor_blob:
        :func:`~repro.serving.snapshot.monitor_to_bytes` archive to
        bootstrap the shard's :class:`SafetyMonitor` from.
    max_sessions:
        Slot capacity of this shard's :class:`MonitorService`.
    frame_ring_name / event_ring_name:
        Names of the router-owned shared-memory rings to attach
        (:mod:`repro.serving.shm`).  The worker only ever *detaches* —
        segment unlinking is the router's job, on close, resize and
        crash alike.
    backend:
        Inference backend name for this shard's engine.  The router
        passes every shard the same resolved choice so a K-shard fleet
        runs one plan (see :data:`repro.nn.backends.BACKEND_NAMES`).
    """
    monitor = monitor_from_bytes(monitor_blob)
    service = MonitorService(monitor, max_sessions=max_sessions, backend=backend)
    frame_ring = ShmRing(name=frame_ring_name, attach=True)
    event_ring = ShmRing(name=event_ring_name, attach=True)
    worker = _ShardWorker(service, frame_ring, event_ring)
    try:
        while True:
            try:
                worker.consume_frames()
                request: Request = recv_message(conn, Request, who="router")
            except EOFError:
                break  # router is gone; nothing left to serve
            except WorkerError as exc:
                # Corrupt or foreign message on an intact stream: report
                # it and keep serving — the shard's sessions outlive bad
                # input.
                try:
                    conn.send(error_reply(exc, has_pending=service.has_pending))
                except (BrokenPipeError, OSError):
                    break
                continue
            try:
                conn.send(worker.serve(request))
            except (BrokenPipeError, OSError):
                break
            if request.op == "stop":
                break
    finally:
        frame_ring.close()
        event_ring.close()
        conn.close()
