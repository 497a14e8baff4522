"""The gateway's half of a wire session: its stream position, sans-IO.

:class:`_RemoteSession` is to ``MonitorGateway`` what ``_SessionCore``
is to the client SDKs.  Where a session stands in its two streams —
frames accepted, events sent, whether a RESUME may have it and what it
is owed — is decided here by plain synchronous methods: no event loop,
no socket, no engine.  The gateway's handlers feed it decoded messages
and engine results and do the I/O its answers call for
(``tests/serving/test_gateway_session.py`` drives it without any).
"""

from __future__ import annotations

import secrets
from collections import deque

import numpy as np

from ...errors import ProtocolError, ReproError, ShapeError, WorkerError
from ..service import SessionEvent, SessionState

#: A record's phases: which task, if any, is changing its engine side
#: (see :class:`_RemoteSession`).
LIVE, RECOVERING, CLOSING, PARKING, PARKED, RESUMING, ENDED = (
    "live", "recovering", "closing", "parking", "parked", "resuming", "ended",
)


class _RemoteSession:
    """The gateway's one record of a wire-opened session, OPEN to end.

    The record stays in ``MonitorGateway._sessions`` from OPEN until
    close, fail-safe or lapse; *live* and *parked* are phases of it, not
    separate objects.  ``conn`` is the owning connection (anything with
    a ``sessions`` set, which :meth:`bind` keeps in step), or ``None``
    from the moment its connection ends until a RESUME binds another.

    Stream position: ``fed`` counts frames accepted off the wire
    (:meth:`admit`, then :meth:`accept` or :meth:`retract`),
    ``delivered`` events routed back (:meth:`deliver`; equal to frames
    processed), ``flagged`` those with ``flag=True``.  ``seq`` is the
    wire position — the client's seq space: ``fed`` plus the rows the
    engine refused, which the client counted as sent.  With resume
    enabled (a ``replay_max``) the record also carries the resume
    ``token`` handed out at OPEN, the ``history`` ring of the last
    ``replay_max`` delivered events (what a returning client is caught
    up from; events in flight when it vanished keep landing there while
    parked) and the ``journal``: the accepted batches, oldest first,
    from stream index ``base`` on.  :meth:`deliver` retires every batch
    that ends more than ``window`` frames (the engine's
    ``history_frames``) before ``delivered``: no event still to come
    can depend on it.  An acked frame is therefore either still held,
    delivered as an event or refused, and :meth:`archive` writes the
    session down from the record alone, whatever became of its engine
    side.  Without resume all three are ``None``: seq is not
    interpreted, nothing is acked or filtered.

    ``phase`` says which task, if any, is changing the session's engine
    side; at most one is.  The handlers ask the record what each event
    does to it and make the engine calls its answers call for:

    - ``LIVE`` — bound to ``conn``, nobody changing the engine side:
      FRAME batches are fed as they arrive.  A worker-crash event
      (:meth:`crash`) makes it ``RECOVERING``; the connection ending
      (:meth:`park`) makes it ``PARKING``; a closer (:meth:`close`)
      makes it ``CLOSING``.
    - ``RECOVERING`` — a task restores the engine side from
      :meth:`archive`.  Incoming frames are journaled (and acked: the
      journal is what the ack promises) but not fed; the task feeds
      them.  If the connection ends meanwhile the record is unbound at
      once and the task, not the park, lets the engine side go: it
      stops wanting the restore (:attr:`wanted`) at its next await.  A
      CLOSE waits the restore out; a disconnect with no park claims
      the record at once, and the restore lets go.
    - ``CLOSING`` — a closer drains the session, then releases it:
      the owner's CLOSE (``reason`` ``None``), which ends with the
      CLOSE reply, or the owner's connection ended with no park, which
      ends fail-safe for ``reason``.  A RESUME waits.  Under a CLOSE a
      crash event starts a restore as for a live record, and the CLOSE
      claims the record again once it settles; a park (the CLOSE's
      connection ended) parks it; a disconnect takes a CLOSE's close
      over.  After each await the closer asks :meth:`closes` whether
      the release is still its own.
    - ``PARKING`` — unbound; the park is releasing the engine side.
    - ``PARKED`` — no connection, no engine side; the grace timer
      runs.  An admitted RESUME makes it ``RESUMING`` (:meth:`adopt`).
    - ``RESUMING`` — a task restores the engine side for the resumer;
      :meth:`resume` binds the resumer once it has.
    - ``ENDED`` — closed, failed safe or lapsed (:meth:`end`).  The id
      is no longer the record's; a task still holding it stops at its
      next await.

    A task that changed the engine side hands the record back with
    :meth:`settle` — live while a connection holds it, parked
    otherwise; a closer's claim stands.  A steal (:meth:`resume` of a
    bound record) moves only the connection; a restore in flight carries
    on for the new owner.
    ``inflight`` counts FRAME batches between :meth:`admit` and their
    :meth:`accept` or :meth:`retract`: at any await, those awaiting
    their engine feed.  While > 0, ``fed`` understates what the journal
    will hold once those handlers resume: a RESUME answered now would
    name an acked_seq that sends the in-flight batch past the duplicate
    filter again.  So a RESUME waits (:attr:`busy`) while a batch is in
    flight, a closer holds the record, or a task other than the
    recovery of a bound record is changing the engine side; each of
    these ends on its own.

    ``reason`` is why the connection ended (a park), or why a closing
    record fails safe (``None`` for a CLOSE); ``expiry`` is the
    gateway's grace-window timer handle.  A parked session has no
    engine side at all.
    """

    __slots__ = (
        "session_id", "conn", "fed", "seq", "delivered", "flagged", "token",
        "journal", "base", "window", "history", "phase", "inflight",
        "reason", "expiry",
    )

    def __init__(
        self,
        session_id: str,
        conn,
        replay_max: int | None = None,
        window: int = 0,
    ) -> None:
        self.session_id = session_id
        self.conn = None
        self.fed = 0
        self.seq = 0
        self.delivered = 0
        self.flagged = 0
        self.token: str | None = None
        self.journal: deque | None = None  # frame batches, oldest first
        self.base = 0  # stream index of the journal's first row
        self.window = window
        self.history: deque | None = None  # recently delivered events
        if replay_max is not None:
            self.token = secrets.token_hex(16)
            self.journal = deque()
            self.history = deque(maxlen=replay_max)
        self.phase = LIVE
        self.inflight = 0
        self.reason: str | None = None
        self.expiry = None
        self.bind(conn)

    def bind(self, conn) -> None:
        """Make ``conn`` the owner (OPEN, adopt, steal), or nobody
        (``None``: parked or ended); the previous owner loses the
        session at once."""
        if self.conn is not None:
            self.conn.sessions.discard(self.session_id)
        self.conn = conn
        if conn is not None:
            conn.sessions.add(self.session_id)

    def park(self, reason: str) -> bool:
        """The owning connection ended for ``reason`` (or the resumer of
        an adopt vanished): the record leaves it.  True when the caller
        must release the engine side, then :meth:`settle`; False when a
        recovery task is changing it — that task lets go instead, so the
        record is parked now."""
        self.bind(None)
        self.reason = reason
        if self.phase is RECOVERING:
            return False
        self.phase = PARKING
        return True

    def settle(self) -> None:
        """The task changing the engine side is done with it (a park
        landed, a recovery ended or let go, an adopt landed): live while
        a connection holds the record, parked otherwise.  A record a
        closer claimed meanwhile, or that ended, stays as it is."""
        if self.phase in (RECOVERING, PARKING, RESUMING):
            self.phase = LIVE if self.conn is not None else PARKED

    def adopt(self) -> None:
        """A RESUME was admitted for the parked record: its engine side
        is restored for the resumer."""
        self.phase = RESUMING

    def resume(self, conn) -> None:
        """A RESUME on ``conn`` takes the record: a steal (the engine
        side stays as it is; a restore in flight carries on for the new
        owner) or the landing of the adopt that restored it."""
        self.bind(conn)
        if self.phase is RESUMING:
            self.settle()

    def close(self, conn, reason: str | None = None) -> bool:
        """A closer on ``conn`` claims the session's ending: its CLOSE
        (``reason`` ``None``) or, with no park, its end (``reason``).  A
        CLOSE claims only a live record and waits out a recovery (its
        settle makes the record live); a disconnect claims whatever its
        connection still holds — a CLOSE's close too, whose reply nobody
        is left to read — and a restore in flight lets go.  True while
        the closer must wait: for that recovery, or, claimed, for the
        events of the frames accepted so far."""
        if self.conn is conn and (
            self.phase is LIVE
            or reason is not None and self.phase in (RECOVERING, CLOSING)
        ):
            self.phase, self.reason = CLOSING, reason
        return self.conn is conn and (
            self.phase is RECOVERING or not self.drained and self.closes(conn, reason)
        )

    def closes(self, conn, reason: str | None = None) -> bool:
        """The release is the closer's own, after any await: it claimed
        the record (:meth:`close`) and nothing parked, stole, recovered,
        ended or took it over since."""
        return self.conn is conn and self.phase is CLOSING and self.reason == reason

    def end(self) -> None:
        """The session is over (closed, failed safe, lapsed): the owner
        loses it, and a task still holding the record stops at its next
        await."""
        self.bind(None)
        self.phase = ENDED

    @property
    def lapses(self) -> bool:
        """A lapse (grace timer, shutdown, a resume beyond the replay
        ring) fails the record safe: no connection holds it, and it has
        not ended."""
        return self.conn is None and self.phase is not ENDED

    def admit(self, seq: int, frames):
        """Place one FRAME batch in the stream: the rows to feed the
        engine, journaled — ``None`` when all are already held.

        ``seq`` counts the frames the client sent before this batch,
        ``self.seq`` those the gateway took off the wire.  A batch
        starting past ``self.seq`` means frames were lost beyond repair
        (:class:`ProtocolError`); one starting before it is a resume
        replay and loses the prefix taken before the disconnect.  The
        batch counts in ``inflight`` until its :meth:`accept` or
        :meth:`retract`.
        """
        if self.journal is not None and seq > self.seq:
            raise ProtocolError(
                f"FRAME sequence gap for session {self.session_id!r}: "
                f"got seq {seq}, expected {self.seq}"
            )
        self.inflight += 1
        if self.journal is None:
            return frames
        if seq < self.seq:
            frames = frames[self.seq - seq :]
            if not frames.shape[0]:
                return None
        self.journal.append(frames)
        return frames

    def retract(self) -> None:
        """Withdraw the batch just admitted: the engine refused it as
        the client's fault (shape, ...), so no restore may carry it.
        Its rows stay counted on the wire, where the client counted
        them, so the next batch does not read as a gap."""
        self.inflight -= 1
        if self.journal is not None:
            self.seq += self.journal.pop().shape[0]

    def accept(self, n_frames: int) -> int | None:
        """Commit ``n_frames`` admitted rows; the ACK value owed
        (``None`` with resume off), in the client's seq space.  The
        journal is what an ack promises: a batch counts once journaled,
        even while its feed waits for a restore."""
        self.inflight -= 1
        self.fed += n_frames
        self.seq += n_frames
        return self.seq if self.journal is not None else None

    @property
    def drained(self) -> bool:
        """Every accepted frame has produced its event."""
        return self.delivered >= self.fed

    def deliver(self, event: SessionEvent) -> bool:
        """Take the engine's next event into the client-visible stream;
        ``False`` for one the client already has.  Events arrive one per
        frame in order, so a fresh one lands at ``frame_index ==
        delivered``; anything below is an event that was in flight when
        the engine side was restored, arriving twice.  A fresh event
        retires the batches no future one can depend on."""
        if self.journal is not None and event.frame_index < self.delivered:
            return False
        self.delivered += 1
        if event.flag:
            self.flagged += 1
        if self.history is not None:
            self.history.append(event)
            journal, retired = self.journal, self.delivered - self.window
            while journal and self.base + len(journal[0]) <= retired:
                self.base += len(journal.popleft())
        return True

    def held(self) -> np.ndarray:
        """The journal as one array: stream rows ``base`` onwards.
        :class:`ShapeError` while it holds a batch of another width (the
        engine is about to refuse it, or never saw it: a restore ran)."""
        if len({batch.shape[1] for batch in self.journal}) > 1:
            raise ShapeError(
                f"session {self.session_id!r} holds frames of mixed widths"
            )
        return np.concatenate(self.journal) if self.journal else np.empty((0, 0))

    def archive(self) -> SessionState:
        """The session as an engine holds it right after event
        ``delivered - 1``, from this record alone: the journal split at
        ``delivered`` into the last ``window`` frames processed and
        those still to process, and the last delivered event's
        gesture/score.  Importing it continues the client-visible
        stream exactly; the engine-side timeline restarts empty."""
        held = self.held()
        cut = self.delivered - self.base
        last = self.history[-1] if self.delivered else None
        return SessionState(
            session_id=self.session_id,
            frames_done=self.delivered,
            record_timeline=False,
            current_gesture=last.gesture if last else 0,
            current_score=last.score if last else 0.0,
            gestures=np.empty(0, dtype=np.int64),
            scores=np.empty(0),
            pending=held[cut:],
            recent=held[max(cut - self.window, 0) : cut],
        )

    def crash(self) -> bool:
        """A worker-crash event reached the record: True when it starts
        a restore, which the record is ``RECOVERING`` under.  Only a
        bound record no other task is changing the engine side of
        starts one — live, or closed by its CLOSE (which claims it again
        once restored) — not a parked one (restored when resumed), one
        being parked or resumed (that task restores or releases it), one
        a disconnect is closing (it fails safe; a restore it interrupted
        may still be letting go), nor a recovering one (a second
        terminal event is an echo of the crash)."""
        if not (self.phase is LIVE or self.phase is CLOSING and self.reason is None):
            return False
        self.phase = RECOVERING
        return True

    @property
    def wanted(self) -> bool:
        """The restore in flight is still wanted, at each of its awaits:
        an adopt's until the record ends, a recovery's while a
        connection holds the record (parked meanwhile: whoever resumes
        it restores anew)."""
        return self.phase is RESUMING or (
            self.phase is RECOVERING and self.conn is not None
        )

    def terminal(self, reason: str) -> SessionEvent:
        """The fail-safe ending: ``flag=True``, ``error`` set, at the
        stream position the client-visible stream stops at."""
        return SessionEvent.failsafe(self.session_id, self.delivered, reason)

    @property
    def busy(self) -> bool:
        """A RESUME must wait: a feed is in flight, a closer holds the
        record or is releasing it (ended, still in the gateway's map), or
        a task other than the recovery of a bound session is changing
        the engine side — each ends on its own."""
        return bool(self.inflight) or self.phase in (
            CLOSING, PARKING, RESUMING, ENDED
        ) or (self.phase is RECOVERING and self.conn is None)

    def refusal(self, token: str, last_event: int, conn) -> ReproError | None:
        """The one admission check of a RESUME on ``conn``, parked or
        live: the error to answer with, or ``None`` when the client may
        have the session and can be caught up gaplessly from the replay
        ring.  A RESUME from a connection accepted before the current
        owner gets the retryable "no parked session" refusal: it may be
        one still buffered on a dead connection, overtaken by the live
        one's, and must not take the session back.  Once the owner's
        end is noticed the session parks, and a retry is admitted."""
        if not secrets.compare_digest(token, self.token):
            return ProtocolError(
                f"resume token mismatch for {self.session_id!r}"
            )
        if self.conn is not None and conn.id < self.conn.id:
            return ProtocolError(
                f"no parked session {self.session_id!r}: connection "
                f"{conn.id} is older than its owner {self.conn.id}"
            )
        if last_event > self.delivered:
            return ProtocolError(
                f"RESUME last_event {last_event} exceeds the "
                f"{self.delivered} events delivered for {self.session_id!r}"
            )
        if self.delivered - last_event > len(self.history):
            return WorkerError(
                f"session {self.session_id!r} is beyond replay reach"
            )
        return None

    def overrun(self, last_event: int) -> str:
        """Why a refused-as-unreachable session fails safe."""
        return (
            f"resume replay window exceeded: client missed "
            f"{self.delivered - last_event} events, ring holds "
            f"{len(self.history)}"
        )

    def replay(self, last_event: int) -> list[SessionEvent]:
        """The events an admitted client missed, oldest first."""
        missed = self.delivered - last_event
        return list(self.history)[-missed:] if missed else []

    def open_reply(self) -> dict:
        reply = {"session_id": self.session_id}
        if self.token is not None:
            reply["resume_token"] = self.token
        return reply

    def resume_reply(self) -> dict:
        """``acked_seq``: the wire position the gateway durably holds —
        the client replays everything after it."""
        return {
            "session_id": self.session_id,
            "acked_seq": self.seq,
            "delivered": self.delivered,
            "resume_token": self.token,
        }

    def close_reply(self) -> dict:
        return {
            "session_id": self.session_id,
            "n_frames": self.delivered,
            "n_flagged": self.flagged,
        }
