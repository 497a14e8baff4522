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

from ...errors import ProtocolError, ReproError, WorkerError
from ..service import SessionEvent


class _RemoteSession:
    """The gateway's one record of a wire-opened session, OPEN to end.

    The record stays in ``MonitorGateway._sessions`` from OPEN until
    close, fail-safe or lapse; *live* and *parked* are phases of it, not
    separate objects.  ``conn`` is the owning connection (anything with
    a ``sessions`` set, which :meth:`bind` keeps in step), or ``None``
    while the session is parked for the resume grace window.

    Stream position: ``fed`` counts frames accepted off the wire
    (:meth:`admit`, then :meth:`accept` or :meth:`retract`),
    ``delivered`` events routed back (:meth:`deliver`; equal to frames
    processed), ``flagged`` those with ``flag=True``.  With resume
    enabled (a ``replay_max``) the record also carries the resume
    ``token`` handed out at OPEN, the ``journal`` of every accepted
    batch (what every engine-side rebuild replays) and the ``history``
    ring of the last ``replay_max`` delivered events (what a returning
    client is caught up from; events in flight when it vanished keep
    landing there while parked).  Without it all three are ``None``:
    seq is not interpreted, nothing is acked or filtered.

    Phase flags, set by the handler inside the phase, read through
    :attr:`busy` and :attr:`recoverable`:

    - ``recovering`` — a task is rebuilding the engine side from the
      journal after a worker crash.  Incoming frames are journaled (and
      acked: the journal is what the ack promises) but not fed until
      the task catches up; a park meanwhile is *cold*, and a RESUME
      waits until the task has noticed the park and let go.
    - ``parking`` — the park's export is in flight: the engine side is
      mid-removal, so a RESUME waits for the park to land instead of
      re-binding a session whose engine state is about to vanish, and a
      crash event starts no rebuild (the export is about to fail and
      park the session cold; a rebuild re-opening the id under it would
      hand it a half-replayed session to carry off as the whole one).
    - ``inflight`` — FRAME batches awaiting their engine feed.  While
      > 0, ``fed`` understates what the journal will hold once those
      handlers resume: a RESUME answered now would name an acked_seq
      that sends the in-flight batch past the duplicate filter again.
    - ``resuming`` — a RESUME is adopting this parked session; a second
      one waits.

    Park-only fields: ``state`` is the engine-exported session archive
    (pending frames and window rings included), or ``None`` when the
    worker was dead or mid-recovery and the journal alone rebuilds the
    session (a *cold adopt*, bit-identical because inference is
    deterministic); ``reason`` is why the connection ended; ``expiry``
    is the gateway's grace-window timer handle.
    """

    __slots__ = (
        "session_id", "conn", "fed", "delivered", "flagged", "token",
        "journal", "history", "record_timeline", "recovering", "parking",
        "inflight", "resuming", "state", "reason", "expiry",
    )

    def __init__(
        self,
        session_id: str,
        conn,
        record_timeline: bool = False,
        replay_max: int | None = None,
    ) -> None:
        self.session_id = session_id
        self.conn = None
        self.fed = 0
        self.delivered = 0
        self.flagged = 0
        self.token: str | None = None
        self.journal: list | None = None  # frame batches, oldest first
        self.history: deque | None = None  # recently delivered events
        if replay_max is not None:
            self.token = secrets.token_hex(16)
            self.journal = []
            self.history = deque(maxlen=replay_max)
        self.record_timeline = record_timeline
        self.recovering = False
        self.parking = False
        self.inflight = 0
        self.resuming = False
        self.state: bytes | None = None
        self.reason: str | None = None
        self.expiry = None
        self.bind(conn)

    def bind(self, conn) -> None:
        """Make ``conn`` the owner (OPEN, adopt, steal), or nobody
        (``None``: the session ended); the previous owner loses the
        session at once."""
        if self.conn is not None:
            self.conn.sessions.discard(self.session_id)
        self.conn = conn
        if conn is not None:
            conn.sessions.add(self.session_id)

    def park(self, state: bytes | None, reason: str) -> None:
        """Leave the connection that ended for ``reason``, holding the
        exported ``state`` (``None``: cold) for whoever resumes."""
        self.bind(None)
        self.state = state
        self.reason = reason

    def admit(self, seq: int, frames):
        """Place one FRAME batch in the stream: the rows to feed the
        engine, journaled — ``None`` when all are already held.

        ``seq`` counts the frames the client sent before this batch,
        ``fed`` those accepted.  A batch starting past ``fed`` means
        frames were lost beyond repair (:class:`ProtocolError`); one
        starting before it is a resume replay and loses the prefix
        accepted before the disconnect.
        """
        if self.journal is None:
            return frames
        if seq > self.fed:
            raise ProtocolError(
                f"FRAME sequence gap for session {self.session_id!r}: "
                f"got seq {seq}, expected {self.fed}"
            )
        if seq < self.fed:
            frames = frames[self.fed - seq :]
            if not frames.shape[0]:
                return None
        self.journal.append(frames)
        return frames

    def retract(self) -> None:
        """Withdraw the batch just admitted: the engine refused it as
        the client's fault (shape, ...), so no rebuild may replay it."""
        if self.journal is not None:
            self.journal.pop()

    def accept(self, n_frames: int) -> int | None:
        """Commit ``n_frames`` admitted rows; the ACK value owed
        (``None`` with resume off).  The journal is what an ack
        promises: a batch counts once journaled, even while its feed
        waits for a rebuild."""
        self.fed += n_frames
        return self.fed if self.journal is not None else None

    @property
    def drained(self) -> bool:
        """Every accepted frame has produced its event."""
        return self.delivered >= self.fed

    def deliver(self, event: SessionEvent) -> bool:
        """Take the engine's next event into the client-visible stream;
        ``False`` for one the client already has.  Events arrive one per
        frame in order, so a fresh one lands at ``frame_index ==
        delivered``; anything below is a journal rebuild regenerating."""
        if self.journal is not None and event.frame_index < self.delivered:
            return False
        self.delivered += 1
        if event.flag:
            self.flagged += 1
        if self.history is not None:
            self.history.append(event)
        return True

    @property
    def recoverable(self) -> bool:
        """A worker-crash event starts a journal rebuild now: not for a
        parked session (rebuilt when resumed) nor one being parked, and
        not twice (a second terminal event is an echo of the crash)."""
        return (
            self.conn is not None and not self.parking and not self.recovering
        )

    def terminal(self, reason: str) -> SessionEvent:
        """The fail-safe ending: ``flag=True``, ``error`` set, at the
        stream position the client-visible stream stops at."""
        return SessionEvent.failsafe(self.session_id, self.delivered, reason)

    @property
    def busy(self) -> bool:
        """A RESUME must wait: the record is inside a phase that ends on
        its own (parking, a feed in flight, another resume, or parked
        with the recovery task still letting go)."""
        return bool(
            self.parking
            or self.inflight
            or self.resuming
            or (self.conn is None and self.recovering)
        )

    def refusal(self, token: str, last_event: int) -> ReproError | None:
        """The one admission check of a RESUME, parked or live: the
        error to answer with, or ``None`` when the client may have the
        session and can be caught up gaplessly from the replay ring."""
        if not secrets.compare_digest(token, self.token):
            return ProtocolError(
                f"resume token mismatch for {self.session_id!r}"
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
        """``acked_seq``: the frames the gateway durably holds — the
        client replays everything after it."""
        return {
            "session_id": self.session_id,
            "acked_seq": self.fed,
            "delivered": self.delivered,
            "resume_token": self.token,
        }

    def close_reply(self) -> dict:
        return {
            "session_id": self.session_id,
            "n_frames": self.delivered,
            "n_flagged": self.flagged,
        }
