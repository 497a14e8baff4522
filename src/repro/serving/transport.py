"""Request/reply message protocol between the shard router and workers.

The sharded service talks to each worker process over one duplex
:func:`multiprocessing.Pipe` connection.  Every interaction is a strict
request → reply pair: the router sends a :class:`Request`, the worker
answers with exactly one :class:`Reply`.  Payloads are restricted to
plain data — numpy arrays, the :class:`~repro.serving.service.SessionEvent`
/ :class:`~repro.serving.service.SessionResult` dataclasses, numbers and
strings — so the wire format stays portable across ``fork`` and
``spawn`` start methods.

The per-frame traffic moves over the shared-memory data plane
(:mod:`repro.serving.shm`), so this pipe carries **control ops only**:
session lifecycle (``open``/``close``), tick rounds whose event
payloads ride the event ring, migration, stats, the ``ping`` that frees
a full frame ring, and shutdown.  Sessions
are identified on the rings by the integer ``route`` id assigned at
``open``/``migrate_in`` time, so the data plane never carries strings.

Worker-side exceptions never kill the worker: they are caught, reduced
to ``(error class name, message)`` and re-raised router-side as the
matching :mod:`repro.errors` type (:func:`raise_remote`), so a
misrouted ``close`` on a shard behaves exactly like the same call on a
local :class:`~repro.serving.service.MonitorService`.

Receiving goes through :func:`recv_message`, which separates the three
ways a pipe read can go wrong — end-of-stream (peer gone, possibly mid
message), a corrupt or truncated payload inside an intact stream, and a
well-formed object of the wrong type — so both sides of the pipe react
correctly: a router treats all three as a dead worker, while a worker
survives corrupt input (error reply, keep serving) and only exits on a
true end-of-stream.  The remote ingest gateway surfaced these edges:
its network byte stream can truncate anywhere, and its fail-safe
contract leans on the router never mistaking garbage for a reply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .. import errors
from ..errors import WorkerError

#: The most ticks one ``tick`` request asks its worker for: the round's
#: pipe exchange, event-ring handoff and hand-over are paid once per up
#: to this many ticks.  The worker runs no more than the backlog it
#: holds when the round begins, so paced traffic gets one-tick rounds.
#: A count, not a time budget: the shard's core is shared, and a round
#: that ran until idle would hold a chunk's early events back until its
#: last frame.  The router sizes each shard's event ring to hold one
#: round (:func:`~repro.serving.shm.event_ring_capacity`).
TICKS_PER_ROUND = 8

#: The most the router waits on a worker that owes it something: a
#: control op's reply, a tick round's reply, the reply a cancelled
#: round still reads, the ``ping`` a feed sends when the frame ring is
#: full (the worker reads its ring empty before it answers).  A worker
#: silent past it is hung, and its shard fails safe like a dead one.  A
#: constant, not a knob: no caller can leave a hung worker's sessions
#: waiting forever.  The slowest exchange measured on a 2-core box, send to
#: reply, was 54 ms over the tier-1 suite (a tick round) and 12 ms over
#: a 64-session chaos campaign (seed 2020), leaving out the start-up
#: pings and the tests that stop a worker on purpose: 5 s is ~90× the
#: slower.  Start-up (the spawn ping, up to 0.3 s measured) keeps its
#: own, longer bound.
REPLY_DEADLINE_S = 5.0


@dataclass(frozen=True)
class Request:
    """One command from the router to a worker.

    ``op`` selects the operation; the remaining fields are that
    operation's arguments (unused ones keep their defaults).  The
    migration pair added for live fleet elasticity:

    - ``migrate_out`` — export ``session_id``'s complete serving state
      (pending frames included) and evict it; the reply carries the
      :func:`~repro.serving.snapshot.session_to_bytes` archive.
    - ``migrate_in`` — adopt the session archive in ``state``; the
      reply carries the imported session id.
    """

    op: str
    session_id: str | None = None
    record_timeline: bool = True
    #: ``migrate_in`` payload: a session archive produced by
    #: :func:`~repro.serving.snapshot.session_to_bytes` (bytes only —
    #: the no-pickled-objects policy applies to migration too).
    state: bytes | None = None
    #: Integer route id the session is addressed by on the shm rings;
    #: always set by ``open`` and ``migrate_in``.
    route: int | None = None
    #: ``tick``: the most ticks of the one engine step the worker runs
    #: for this request (``MonitorService.advance``), at most
    #: :data:`TICKS_PER_ROUND`.  No session advances past the backlog
    #: it held when the request arrived, so the step is as many ticks
    #: as the longest of those backlogs, if that is fewer.
    ticks: int = 1


@dataclass(frozen=True)
class Reply:
    """One worker answer.

    ``ok`` distinguishes results from worker-side exceptions; on failure
    ``error_type``/``error`` carry the exception's class name and
    message.  ``has_pending`` piggy-backs the worker's post-operation
    backlog state on every reply so the router can track which shards
    still owe ticks without extra round trips.  A reply to a ``tick``
    carries the number of event batches its round put on the event
    ring — an error reply too, for the ticks that completed before the
    one that failed.

    ``ingest_errors`` carries deferred failures of the asynchronous
    frame ring: ``feed()`` waits for no per-call ack, so a frame block
    the worker could not ingest (evicting the session on its side)
    surfaces here as ``(route, message)`` pairs on the next exchange,
    and the router fails those sessions safe.
    """

    ok: bool
    value: Any = None
    error_type: str | None = None
    error: str | None = None
    has_pending: bool = False
    ingest_errors: tuple = ()


def error_reply(exc: BaseException, has_pending: bool = False) -> Reply:
    """Reduce a worker-side exception to a wire-format :class:`Reply`."""
    return Reply(
        ok=False,
        error_type=type(exc).__name__,
        error=str(exc),
        has_pending=has_pending,
    )


def recv_message(
    conn,
    expected: type | tuple[type, ...],
    *,
    timeout_s: float | None = None,
    who: str = "peer",
) -> Any:
    """Receive one framed object off a :func:`multiprocessing.Pipe` end,
    validated against the protocol.

    Raises
    ------
    EOFError
        The peer's end is closed — including a message truncated by the
        peer dying mid-write (the pipe's length-prefixed framing turns
        that into end-of-file).  The stream is over; a worker should
        exit its loop, a router should declare the worker dead.
    WorkerError
        The stream is intact but this message is unusable: no reply
        within ``timeout_s``, a payload that does not unpickle (bit
        corruption, a non-pickle writer on the pipe), or a well-formed
        object that is not an ``expected`` instance.  A worker may
        answer with an error reply and keep serving.
    """
    try:
        if timeout_s is not None and not conn.poll(timeout_s):
            raise WorkerError(f"{who} unresponsive after {timeout_s}s")
        message = conn.recv()
    except (WorkerError, EOFError):
        raise
    except OSError as exc:
        # Covers recv() on a broken pipe and poll() on a handle closed
        # underneath us (e.g. close() racing an in-flight request).
        raise EOFError(f"{who}: pipe closed: {exc}") from exc
    except Exception as exc:  # noqa: BLE001
        # Anything the unpickler throws on garbage bytes: UnpicklingError,
        # but also AttributeError/ValueError/... from corrupt opcodes.
        raise WorkerError(
            f"{who}: corrupt or truncated message: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(message, expected):
        names = (
            expected.__name__
            if isinstance(expected, type)
            else "/".join(t.__name__ for t in expected)
        )
        raise WorkerError(
            f"{who}: expected {names}, got {type(message).__name__}"
        )
    return message


def raise_remote(reply: Reply) -> None:
    """Re-raise a failed reply as its original :mod:`repro.errors` type.

    Exception classes outside the library's hierarchy degrade to
    :class:`~repro.errors.WorkerError` carrying the original class name.
    """
    if reply.ok:
        return
    cls = getattr(errors, reply.error_type or "", None)
    if isinstance(cls, type) and issubclass(cls, errors.ReproError):
        raise cls(reply.error or "")
    raise errors.WorkerError(f"{reply.error_type}: {reply.error}")
