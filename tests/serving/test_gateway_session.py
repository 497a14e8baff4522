"""A wire session's two ends under a deterministic schedule, no I/O.

Both halves of the conversation are the real sans-IO objects: the
gateway's :class:`_RemoteSession` — the record behind every wire
session of ``MonitorGateway`` — and the client's :class:`_SessionCore`
— the conversation core under both SDKs.  They talk **bytes**: every
message is encoded, travels a :class:`Wire` (two byte buffers, one per
direction, that can be cut at any byte) and is parsed back by
``protocol.MessageReader``.  A hypothesis state machine with **no event
loop, socket or engine** plays everything around them in any
interleaving: the application (feed, consume, ask for stats, give up on
a reply, close, drop the connection, reconnect and resume), the
gateway's handlers (FRAME in, engine feed result, event out, EOF with or
without a park, CLOSE and its drain, RESUME, worker crash and restore)
and the network (bytes lost in either direction).

The oracle is two plain lists — the frames a correct gateway has
accepted and the events it has made client-visible — plus a toy engine
that is nothing but a stream position: it emits event ``i`` for frame
``i``, and the only way to bring it back after a crash, a park or a
steal is :meth:`_RemoteSession.archive`, which it checks the way
``MonitorService.import_session`` does (its last ``W`` frames, the
right ones, and the last event's context).  The application feeds row
``i`` as its ``i``-th frame, so a frame lost, doubled or misplaced on
the way shows in the journal's contents.

The socket suites in ``test_remote.py`` pin the same contract end to
end for a handful of schedules; this file is the arithmetic alone, for
thousands.
"""

import ast
import inspect
import itertools
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ProtocolError, ShapeError, WorkerError
from repro.serving import SessionEvent
from repro.serving.remote import client as client_module
from repro.serving.remote import session as session_module
from repro.serving.remote.client import _SessionCore
from repro.serving.remote.protocol import (
    MessageReader,
    MessageType,
    decode_events,
    decode_frames,
    decode_json,
    encode_ack,
    encode_events,
    encode_json,
    encode_message,
)
from repro.serving.remote.session import (
    CLOSING,
    ENDED,
    LIVE,
    PARKED,
    PARKING,
    RECOVERING,
    RESUMING,
    _RemoteSession,
)

SID = "theatre-7"
RING = 8  # event_replay_max: small, so clients do fall out of reach
W = 3  # the engine's history_frames: what a restore must still hold
BATCH = 6  # the largest FRAME batch a client sends
HEARTBEAT = encode_message(MessageType.HEARTBEAT)


def rows(start, stop):
    """Frames ``start..stop-1`` of the client's stream; row i holds i."""
    return np.arange(start, stop, dtype=float)[:, None]


def assert_rows(frames, start, stop):
    """``frames`` are exactly :func:`rows` ``start..stop-1`` (an empty
    stretch may come without a width: nothing was ever journaled)."""
    assert frames.ndim == 2
    assert frames.ravel().tolist() == list(range(start, stop))


def event_for(frame):
    """The one event a deterministic engine emits for frame ``frame``."""
    return SessionEvent(
        session_id=SID,
        frame_index=frame,
        gesture=frame % 5,
        score=frame / 8.0,
        flag=frame % 3 == 0,
    )


def error_payload(exc, in_reply_to):
    """``MonitorGateway._send_error``'s ERROR body."""
    return encode_json(
        {
            "error_type": type(exc).__name__,
            "error": str(exc),
            "session_id": SID,
            "in_reply_to": in_reply_to,
        }
    )


def in_flight(buffer):
    """The complete messages among the bytes still on the way."""
    reader = MessageReader()
    reader.feed(bytes(buffer))
    return list(reader.messages())


def take_message(buffer):
    """Read one message off a direction of the wire, if one is whole."""
    reader = MessageReader()
    reader.feed(bytes(buffer))
    message = reader.next_message()
    if message is not None:
        del buffer[: len(buffer) - reader.buffered]
    return message


class Wire:
    """One TCP connection: the bytes in flight each way, and the
    ``sessions`` set :meth:`_RemoteSession.bind` keeps in step on the
    gateway's connection object.  ``id`` is its accept order, as on the
    gateway's connections."""

    _ids = itertools.count()

    def __init__(self):
        self.id = next(self._ids)
        self.sessions = set()
        self.up = bytearray()  # client -> gateway, not yet read
        self.down = bytearray()  # gateway -> client, not yet read
        self.cut = False  # broken, or closed by either end
        self.torn_down = False  # the gateway knows it ended (``_teardown`` ran)
        self.asked = 0  # STATS requests the client has sent
        self.served = 0  # ... and the gateway has answered
        self.acked_seq = None  # what the RESUME reply on this wire said

    def send(self, message):
        """The client's socket write."""
        if self.cut:
            raise WorkerError("gateway connection lost")
        self.up += message

    def reply(self, msg_type, payload=b""):
        """The gateway's socket write; into a dead connection it is lost."""
        if not self.cut:
            self.down += encode_message(msg_type, payload)


class Engine:
    """The engine side of one session: where it stands (``position``
    frames processed) and how far its input reaches (``end``)."""

    def __init__(self, position=0, end=0):
        self.position, self.end = position, end

    @classmethod
    def restored(cls, state, delivered):
        """``import_session``: refuse an archive that is not the session
        at ``delivered`` — position, the last ``W`` frames before it,
        the context of the last event, the frames from it on."""
        assert state.session_id == SID and state.frames_done == delivered
        assert not state.record_timeline
        recent = state.recent[state.recent.shape[0] - min(delivered, W) :]
        assert_rows(recent, max(0, delivered - W), delivered)
        last = event_for(delivered - 1) if delivered else None
        assert state.current_gesture == (last.gesture if last else 0)
        assert state.current_score == (last.score if last else 0.0)
        end = delivered + state.pending_frames
        assert_rows(state.pending, delivered, end)
        return cls(delivered, end)

    def feed(self, batch):
        assert_rows(batch, self.end, self.end + len(batch))
        self.end += len(batch)


class WireSessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.conns = []
        self.calm = 0  # steps since the last fault's quiet spell ended
        # (record, connection, reason) per ``_close`` waiting at an await:
        # a CLOSE (reason None) or a teardown with no park.
        self.closers = []
        # (ending, owner when it left, live connection the reply went on)
        # per record that left the gateway: a CLOSE reply or a terminal.
        self.left = []
        self.open()

    def open(self):
        """OPEN: a fresh record, a fresh engine session, a fresh client
        — the exchange itself through the real core."""
        wire = Wire()
        self.conns.append(wire)
        self.wires = [wire]  # the connections the gateway still serves
        self.session = _RemoteSession(SID, wire, replay_max=RING, window=W)
        self.accepted = 0  # oracle: frames 0..accepted-1, each once
        # Rows the engine refused: the client counted them in its seq
        # space, so the wire position is accepted + refused.  A refused
        # batch is taken off the wire as it is sent, so every batch still
        # to come starts past it: its seq is its first row + refused.
        self.refused = 0
        self.refused_at = 0  # accepted when the last refusal happened
        self.stream = []  # oracle: the client-visible event stream
        self.acks = []
        self.pending = None  # the admitted batch awaiting its feed
        self.pending_wire = None  # ... and the connection it came in on
        self.doomed = False  # ... whose engine side is already gone
        self.engine = Engine()  # None: crashed, or released by a park
        self.lost = []  # emitted by a lost engine side, not yet routed
        self.sent = None  # stream index the restore in progress has fed up to
        # The client: its connection and core, what the application has
        # fed and consumed, and the ResumeState while it has no session.
        self.wire, self.core, self.state = wire, _SessionCore(), None
        self.phase = "connected"  # or "resuming": ``state`` not yet bound
        self.fed = 0  # the application's rows 0..fed-1 went into send_frames
        self.app = []  # events the application has consumed
        self.probes = []  # (future, serial) per STATS request on this wire
        self.closing = None  # the application's CLOSE, while owed
        self.restoring = False  # a recovery task is between two awaits
        opened = Future()
        self.core.request(MessageType.OPEN, opened)
        wire.send(self.core.open_message(SID))
        assert take_message(wire.up) == (
            MessageType.OPEN, encode_json({"session_id": SID}),
        )
        reply = self.session.open_reply()
        assert reply == {"session_id": SID, "resume_token": self.session.token}
        assert self.core.receive(MessageType.OPEN, encode_json(reply), wire.send) is None
        assert opened.result(0) == SID

    def journaled(self):
        """Where the journal must end: accepted plus the batch in flight."""
        extra = 0 if self.pending is None else self.pending.shape[0]
        return self.accepted + extra

    # ==================================================================
    # The client: the application above a real _SessionCore
    # ==================================================================
    @precondition(lambda self: self.phase == "connected" and self.closing is None)
    @rule(n=st.integers(1, BATCH))
    def app_feeds(self, n):
        try:
            self.core.send_frames(SID, rows(self.fed, self.fed + n), self.wire.send)
        except WorkerError:  # not sent, so not fed: the application retries
            self.client_drops()
        else:
            self.fed += n

    def app_asks_for_stats(self, patient):
        """A control request; an impatient caller's timeout fires before
        anything else happens."""
        reply = Future()
        self.core.request(MessageType.STATS, reply)
        try:
            self.wire.send(encode_message(MessageType.STATS))
        except WorkerError:
            return self.client_drops()
        self.probes.append((reply, self.wire.asked))
        self.wire.asked += 1
        if not patient:
            reply.cancel()

    def a_caller_gives_up(self):
        """Timeout or cancellation, with the request somewhere on its way."""
        for reply, _ in self.probes:
            if reply.cancel():
                break

    def app_closes(self):
        """The application is done with the session: a CLOSE through the
        core, and no frame after it while the reply is owed."""
        self.closing = Future()
        self.core.request(MessageType.CLOSE, self.closing)
        try:
            self.wire.send(self.core.close_message(SID))
        except WorkerError:
            self.client_drops()

    @precondition(
        lambda self: self.phase == "connected"
        and self.closing is None
        and self.fed > len(self.stream)
    )
    @rule()
    def app_closes_with_events_owed(self):
        """A CLOSE the gateway must drain for: the window the closer's
        claim rules guard."""
        self.app_closes()

    def app_takes_events(self, n):
        """Seldom, so that a dropped connection usually leaves events
        decoded but unconsumed for the ResumeState to carry."""
        for _ in range(min(n, len(self.core.events))):
            self.app.append(self.core.events.popleft())

    @rule(greedy=st.booleans())
    def client_reads(self, greedy):
        """The SDK's read path: what has arrived goes through the core,
        one message or all of them; then EOF, if the wire is cut."""
        wire = self.wire
        while wire is self.wire:
            message = take_message(wire.down)
            if message is None:
                if wire.cut:
                    self.client_drops()
                return
            try:
                error = self.core.receive(*message, wire.send)
            except WorkerError:  # the heartbeat echo met the cut
                return self.client_drops()
            if message[0] is MessageType.HEARTBEAT:
                assert wire.up.endswith(HEARTBEAT)
            if error is not None:
                # Only what the gateway refused outside any request: a
                # batch — never a reply or an ERROR that answers a
                # request, and never a frame of a connection that lost
                # the session (no older connection's RESUME takes it).
                assert isinstance(error, ShapeError)
            self.replies_land()
            if not greedy:
                return

    def replies_land(self):
        """What the callers waiting on the core's futures now see."""
        for reply, serial in self.probes:
            if reply.done() and not reply.cancelled():
                assert reply.result(0) == {"served": serial}  # its own
        self.probes = [probe for probe in self.probes if not probe[0].done()]
        if self.closing is not None and self.closing.done():
            # Refused: the record's ending was not this CLOSE's (a reply
            # ends the record, and the machine opens afresh right there).
            assert isinstance(self.closing.exception(0), (ProtocolError, WorkerError))
            self.closing = None
        if self.phase == "resuming" and self.resumed.done():
            if self.resumed.exception(0) is not None:
                return self.client_drops()  # refused: the state stays whole
            # resume_session's second half: replay what the reply asks
            # for — only what the gateway does not hold, and all of it.
            reach, strict = self.wire.acked_seq, False
            for message in in_flight(b"".join(self.resumed.result(0))):
                assert message[0] is MessageType.FRAME
                sid, seq, frames = decode_frames(message[1])
                assert sid == SID and seq <= reach < seq + len(frames)
                assert seq == reach or not strict
                first = seq - self.refused
                assert_rows(frames, first, first + len(frames))
                reach, strict = seq + len(frames), True
            assert reach == self.fed + self.refused
            self.phase = "connected"
            try:
                for message in self.resumed.result(0):
                    self.wire.send(message)
            except WorkerError:
                self.client_drops()

    def client_drops(self):
        """The application gives the connection up — it saw it die, or
        just chose to — and resumes on a fresh one (resume_session's
        first half; how long that takes is when the gateway reads it).
        A resume that had not completed bound nothing: its ResumeState
        is still whole."""
        if self.phase == "connected":
            self.state = self.core.detach(SID)
        self.closing = None  # its reply, if any, is lost with the wire
        self.wire.cut = True  # what it had sent still arrives, then EOF
        del self.wire.down[:]
        self.wire, self.core = Wire(), _SessionCore()
        self.conns.append(self.wire)
        self.wires.append(self.wire)
        self.phase, self.probes, self.resumed = "resuming", [], Future()
        self.core.request(MessageType.RESUME, self.resumed, self.state)
        self.wire.send(self.core.resume_message(self.state))

    def the_wire_breaks(self, data):
        """Some prefix of the bytes in flight each way still arrives;
        each end learns of the loss when it next touches the socket."""
        wire = self.wire
        del wire.up[data.draw(st.integers(0, len(wire.up))) :]
        del wire.down[data.draw(st.integers(0, len(wire.down))) :]
        wire.cut = True

    # ==================================================================
    # The gateway: the handlers around a real _RemoteSession
    # ==================================================================
    def in_handler(self, wire):
        """A connection's reader is inside a handler: a FRAME's engine
        feed, or a CLOSE's drain."""
        return wire is self.pending_wire or any(
            closer[1] is wire and closer[2] is None for closer in self.closers
        )

    def readable(self, wire):
        """A connection's reader is not inside a handler and has a
        message, or EOF, to read (only a cut leaves part of a message
        behind)."""
        return not self.in_handler(wire) and bool(wire.cut or wire.up)

    @precondition(lambda self: any(map(self.readable, self.wires)))
    @rule(data=st.data(), greedy=st.booleans())
    def gateway_reads(self, data, greedy):
        """The connections' reader tasks, in some order: the first one's
        next message — or, greedy, every message of each until its
        handler awaits or nothing is left; then EOF, if the wire is cut."""
        ready = list(filter(self.readable, self.wires))
        for wire in data.draw(st.permutations(ready)):
            while wire in self.wires and self.readable(wire):
                self.gateway_reads_one(wire, data)
                if not greedy:
                    return

    def gateway_reads_one(self, wire, data):
        message = take_message(wire.up)
        if message is None:
            return self.connection_ends(wire, data.draw(st.integers(0, 3)))
        msg_type, payload = message
        if msg_type is MessageType.FRAME:
            sid, seq, frames = decode_frames(payload)
            assert sid == SID
            self.frames_arrive(wire, seq, frames)
            # Mostly the engine answers before anything else happens;
            # the ``feed_returns`` rule is the feed that takes its time.
            outcome = data.draw(st.sampled_from(["fed", "fed", "worker died", None]))
            if self.pending is not None and outcome is not None:
                self.feed_returns(outcome)
        elif msg_type is MessageType.RESUME:
            self.resume_arrives(wire, decode_json(payload))
        elif msg_type is MessageType.CLOSE:
            assert decode_json(payload) == {"session_id": SID}
            self.close_arrives(wire)
        elif msg_type is MessageType.STATS:
            wire.reply(MessageType.STATS, encode_json({"served": wire.served}))
            wire.served += 1
        else:
            assert message == (MessageType.HEARTBEAT, b"")  # the echo

    FAULTS = (
        "client drops", "wire breaks", "worker dies", "fails safe", "times out",
    )

    @precondition(lambda self: self.calm >= 0)
    @rule(
        what=st.sampled_from(
            FAULTS
            + (
                "asks for stats", "asks for stats", "caller gives up",
                "takes events", "stale resend", "stale resend", "ping",
                "frames past a gap", "refused batch", "forged resume",
                "stale resume",
            )
        ),
        data=st.data(),
    )
    def something_else_happens(self, what, data):
        """Everything off the path a frame takes to its alert — faults,
        the odd control request, what must leave the conversation
        untouched — under one rule, and a fault keeps it out for up to
        a dozen steps, so that most of a schedule moves the conversation
        along (a resume takes four steps of the right kind to complete)."""
        connected = self.phase == "connected"
        owner = self.session.conn
        handler = owner is not None and not self.in_handler(owner)
        if what in self.FAULTS:
            self.calm = -data.draw(st.integers(0, 12))
        if what == "client drops":
            self.client_drops()
        elif what == "wire breaks":
            self.the_wire_breaks(data)
        elif what == "worker dies":
            self.worker_dies(data.draw(st.integers(0, 3)))
        elif what == "fails safe":
            self.fails_safe()
        elif what == "times out" and self.pending is None and owner in self.wires:
            # The heartbeat's idle timeout (or a send-queue overflow, or a
            # shutdown: no park) ends the connection whatever its reader
            # is doing — a CLOSE's drain included.
            owner.cut = True
            ahead, park = data.draw(st.integers(0, 3)), data.draw(st.booleans())
            self.connection_ends(owner, ahead, park)
        elif what == "closes" and connected and self.closing is None:
            self.app_closes()
        elif what == "asks for stats" and connected:
            self.app_asks_for_stats(data.draw(st.booleans()))
        elif what == "caller gives up":
            self.a_caller_gives_up()
        elif what == "takes events" and connected:
            self.app_takes_events(data.draw(st.integers(1, 8)))
        elif what == "ping" and self.session.conn:
            self.session.conn.reply(MessageType.HEARTBEAT)
        elif what == "stale resend" and handler:
            self.a_stale_resend_arrives(data.draw(st.integers(0, 6)), data)
        elif what == "frames past a gap" and handler:
            self.frames_arrive_past_a_gap(
                data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
            )
        elif (
            what == "refused batch"
            and connected
            and handler
            and self.closing is None
            and self.session.conn is self.wire
            and not (self.wire.cut or self.wire.up or self.session.phase is RECOVERING)
        ):
            self.a_batch_the_engine_refuses_arrives()
        elif what == "forged resume":
            self.a_forged_resume_is_refused(data, data.draw(st.booleans()))
        elif what == "stale resume" and self.session.conn is not None:
            self.a_stale_resume_arrives(data)

    def ack(self, wire, value):
        assert value == self.accepted + self.refused  # the wire position
        self.acks.append(value)
        wire.reply(MessageType.ACK, encode_ack(SID, value))

    # -- frames in ------------------------------------------------------
    def frames_arrive(self, wire, seq, frames):
        """``_handle_frames`` up to its await.  From a correct client a
        batch starts at its next_seq or, replayed by a resume, somewhere
        inside what is already held — never past a gap."""
        session, n = self.session, frames.shape[0]
        if session.conn is not wire:  # stolen from under this connection
            refusal = ProtocolError(f"no session {SID!r} open on this connection")
            return wire.reply(MessageType.ERROR, error_payload(refusal, None))
        journaled = len(session.journal)
        admitted = session.admit(seq, frames)
        if seq + n <= self.accepted + self.refused:
            assert admitted is None  # wholly duplicate: re-acked, no more
            assert len(session.journal) == journaled
            return self.ack(wire, session.accept(0))
        np.testing.assert_array_equal(
            admitted, rows(self.accepted, seq + n - self.refused)
        )
        if session.phase is not LIVE:  # journaled and acked; the restore feeds it
            self.accepted += admitted.shape[0]
            return self.ack(wire, session.accept(admitted.shape[0]))
        self.pending, self.pending_wire = admitted, wire

    def a_stale_resend_arrives(self, back, data):
        """Rows the application did feed turn up once more on the
        session's connection, from anywhere inside what is held to
        anywhere short of ``fed`` — so the client's own batches then
        overlap what is held at any offset, not just whole."""
        first = max(self.refused_at, self.accepted - back)
        if first < self.fed:
            n = data.draw(st.integers(1, min(BATCH, self.fed - first)))
            self.frames_arrive(
                self.session.conn, first + self.refused, rows(first, first + n)
            )

    def frames_arrive_past_a_gap(self, ahead, n):
        seq = self.accepted + self.refused + ahead
        journaled = len(self.session.journal)
        with pytest.raises(ProtocolError, match="sequence gap"):
            self.session.admit(seq, rows(seq, seq + n))
        assert len(self.session.journal) == journaled

    def a_batch_the_engine_refuses_arrives(self):
        """The client's fault (shape, NaN), sent through the real core —
        which counts its rows in its seq — and refused as it arrives:
        nothing was accepted, no restore may carry it, the ERROR names
        no request, and the wire position moves past it, so the next
        batch is no gap."""
        session, n = self.session, 2
        self.core.send_frames(SID, np.zeros((n, 3)), self.wire.send)
        _, seq, frames = decode_frames(take_message(self.wire.up)[1])
        assert seq == self.accepted + self.refused
        before = (session.fed, len(session.journal))
        assert session.admit(seq, frames) is not None
        session.retract()
        assert before == (session.fed, len(session.journal))
        self.refused += n
        self.refused_at = self.accepted
        session.conn.reply(
            MessageType.ERROR, error_payload(ShapeError("frame width 3"), None)
        )

    @precondition(lambda self: self.pending is not None)
    @rule(outcome=st.sampled_from(["fed", "fed", "worker died"]))
    def feed_returns(self, outcome):
        session, batch, wire = self.session, self.pending, self.pending_wire
        self.pending = self.pending_wire = None
        if self.doomed:  # bound to the lost incarnation: only one way out
            outcome, self.doomed = "worker died", False
        self.accepted += batch.shape[0]
        self.ack(wire, session.accept(batch.shape[0]))
        if outcome == "fed":
            self.engine.feed(batch)
        elif session.phase is not RECOVERING:
            # The feed found the worker dead (or the session re-imported
            # under it): accepted all the same, restored from the record.
            self.worker_dies()

    # -- events out -----------------------------------------------------
    @precondition(lambda self: self.engine and self.engine.position < self.engine.end)
    @rule(n=st.integers(1, 3))
    def engine_emits(self, n):
        """One tick's events: one EVENT message."""
        stop = min(self.engine.position + n, self.engine.end)
        self.route([event_for(i) for i in range(self.engine.position, stop)])
        self.engine.position = stop

    @precondition(lambda self: self.lost)
    @rule()
    def a_lost_engines_event_lands(self):
        """An event the engine side emitted before it was lost or
        released reaches ``_route_events`` late — possibly after the
        restored side has emitted the same frame."""
        self.route([self.lost.pop(0)])

    def route(self, events):
        fresh = []
        for event in events:
            is_next = event.frame_index == len(self.stream)
            assert self.session.deliver(event) is is_next
            if is_next:
                self.stream.append(event)
                fresh.append(event)
        if fresh and self.session.conn is not None:
            self.session.conn.reply(MessageType.EVENT, encode_events(fresh))

    def lose_engine(self, ahead):
        """The engine side goes; up to ``ahead`` events it had emitted
        are still on their way to the gateway."""
        if self.engine is not None and self.sent is None:
            stop = min(self.engine.position + ahead, self.engine.end)
            self.lost += [event_for(i) for i in range(self.engine.position, stop)]
        self.engine, self.sent = None, None

    # -- worker crash and restore ---------------------------------------
    def worker_dies(self, ahead=0):
        """The crash event reaches ``_route_events``: the engine side is
        gone — under a feed in flight, perhaps, whose batch the archive
        then carries; a live or closing session starts a restore (one in
        progress starts over), a parked one waits for its resume."""
        self.lose_engine(ahead)
        self.doomed = self.pending is not None
        if self.session.crash():
            assert not self.restoring  # never two restores at once
            self.restoring = True

    @precondition(lambda self: self.restoring)
    @rule()
    def restore_takes_a_step(self):
        """The recovery task between two awaits: it imports the archive,
        feeds what was admitted since, finishes — or finds the session
        parked (or claimed by a teardown) underneath it and lets its
        engine side go."""
        session = self.session
        # The oracle of ``wanted``: a recovery is wanted while the record
        # is recovering and a connection still holds it.
        assert session.wanted == (
            session.phase is RECOVERING and session.conn is not None
        )
        if not session.wanted:
            self.engine, self.sent, self.restoring = None, None, False
            session.settle()
        elif self.sent is None:
            self.engine = Engine.restored(session.archive(), len(self.stream))
            self.sent = self.engine.end
        else:
            tail = session.held()[self.sent - session.base :]
            if len(tail):
                self.engine.feed(tail)
                self.sent = self.engine.end
            else:
                self.sent, self.restoring = None, False
                session.settle()

    # -- CLOSE and its drain --------------------------------------------
    def close_arrives(self, wire):
        """``_handle_close``: the owner's CLOSE claims the record, then
        drains it (or first waits out a recovery)."""
        if self.session.conn is not wire:
            refusal = ProtocolError(f"no session {SID!r} open on this connection")
            return wire.reply(MessageType.ERROR, error_payload(refusal, "CLOSE"))
        self.closers.append((self.session, wire, None))
        self.closer_wakes(len(self.closers) - 1, expired=False)

    @precondition(lambda self: self.closers)
    @rule(data=st.data())
    def a_closer_wakes(self, data):
        """A ``_close`` waiting at its await wakes: its signal was set
        (or not: a wake-up re-reads the record), or its deadline passed."""
        self.closer_wakes(
            data.draw(st.integers(0, len(self.closers) - 1)),
            expired=data.draw(st.sampled_from([False, False, False, True])),
        )

    def mid_change(self):
        """A CLOSE drains the record, or a recovery task restores its
        engine side: the windows the busy, wanted and claim rules guard."""
        return self.pending is None and (
            self.restoring
            or self.session.phase is CLOSING
            and any(closer[2] is None for closer in self.closers)
        )

    @precondition(mid_change)
    @rule(
        what=st.sampled_from(["park", "no park", "worker dies", "client resumes"]),
        ahead=st.integers(0, 3),
    )
    def something_happens_mid_change(self, what, ahead):
        """While a CLOSE drains or a restore runs: the connection ends
        (the heartbeat's idle timeout, an overflow: a park; a shutdown:
        none), the worker dies, or the client gives the connection up
        and resumes."""
        owner = self.session.conn
        if what == "worker dies":
            self.worker_dies(ahead)
        elif what == "client resumes":
            self.client_drops()
        elif owner in self.wires:
            owner.cut = True
            self.connection_ends(owner, ahead, park=what == "park")

    def closer_wakes(self, index, expired):
        """``_close`` between its awaits: wait on, or — the release still
        its own — end the session, then release its engine side."""
        session, wire, reason = self.closers[index]
        if session.close(wire, reason) and not expired:
            return
        del self.closers[index]
        # The oracle of ``closes``: the claim holds while the closer's
        # connection holds the record, nothing restores it, and no
        # teardown took a CLOSE's close over.
        taken_over = reason is None and any(
            closer[0] is session and closer[1] is wire and closer[2] is not None
            for closer in self.closers
        )
        owns = session.closes(wire, reason)
        assert owns == (
            session is self.session
            and session.conn is wire
            and session.phase is not RECOVERING
            and not taken_over
        )
        if not owns:
            if reason is None:  # answered like any request it cannot act on
                refusal = ProtocolError(f"session {SID!r} was not closed here")
                wire.reply(MessageType.ERROR, error_payload(refusal, "CLOSE"))
            return
        delivered = len(self.stream)
        assert expired or delivered == self.accepted  # drained
        if reason is not None:
            return self.leaves(session.terminal(reason))
        reply = session.close_reply()
        assert reply == {
            "session_id": SID,
            "n_frames": delivered,
            "n_flagged": sum(e.flag for e in self.stream),
        }
        self.leaves(reply, wire)

    def leaves(self, ending, to=None):
        """The record leaves the gateway's map with ``ending``: the CLOSE
        reply, sent on ``to``, or the fail-safe terminal event.  Its
        engine side is released; the id may then be opened afresh."""
        session = self.session
        reached = None if to is None or to.torn_down else to
        self.left.append((ending, session.conn, reached))
        if to is not None:
            to.reply(MessageType.CLOSE, encode_json(ending))
        session.end()
        self.open()

    # -- EOF, park, resume ----------------------------------------------
    def connection_ends(self, wire, ahead, park=True):
        """``_teardown``: a connection still holding the session parks
        it — the engine side is released, whatever it still held — or,
        with no park (resume off, shutdown), drains and fails it safe
        through the same ``_close`` as a CLOSE, taking over a CLOSE's."""
        self.wires.remove(wire)
        wire.torn_down = True
        session = self.session
        if session.conn is not wire:
            return  # stolen or resumed elsewhere before the EOF was read
        if not park:
            self.closers.append((session, wire, "EOF"))
            return self.closer_wakes(len(self.closers) - 1, expired=False)
        assert session.phase is CLOSING or not session.busy
        if session.park("EOF"):  # else the recovery task lets go of its own
            self.lose_engine(ahead)
            session.settle()
        assert session.conn is None and session.reason == "EOF"

    def resume_arrives(self, wire, request):
        """``_handle_resume`` for a parked session or a live one (a
        steal), from a client that holds what its ResumeState says."""
        session = self.session
        token, last_event = request["token"], request["last_event"]
        assert request["session_id"] == SID and token == session.token
        assert session.busy == bool(
            self.pending is not None
            or session.phase is CLOSING
            or (session.conn is None and session.phase is RECOVERING)
        )
        if session.busy:  # every busy phase ends on its own: retry
            refusal = ProtocolError(f"no parked session {SID!r}")
            return wire.reply(MessageType.ERROR, error_payload(refusal, "RESUME"))
        missed = len(self.stream) - last_event
        assert missed >= 0
        refusal = session.refusal(token, last_event, wire)
        if session.conn is not None and wire.id < session.conn.id:
            # Overtaken by a newer connection's RESUME: refused, whatever
            # the ring holds, and the session stays with its owner.
            assert isinstance(refusal, ProtocolError)
            assert "older than its owner" in str(refusal)
            return wire.reply(MessageType.ERROR, error_payload(refusal, "RESUME"))
        if missed > min(RING, len(self.stream)):
            assert isinstance(refusal, WorkerError)
            assert f"missed {missed} events" in session.overrun(last_event)
            wire.reply(MessageType.ERROR, error_payload(refusal, "RESUME"))
            if session.conn is None:  # a park out of reach fails safe
                self.fails_safe()
            return
        assert refusal is None
        if session.conn is None:  # adopt: the same restore, from the record
            session.adopt()
            assert session.wanted
            self.engine = Engine.restored(session.archive(), len(self.stream))
        session.resume(wire)
        reply = session.resume_reply()
        assert reply == {
            "session_id": SID,
            "acked_seq": self.accepted + self.refused,
            "delivered": len(self.stream),
            "resume_token": session.token,
        }
        wire.acked_seq = reply["acked_seq"]
        wire.reply(MessageType.RESUME, encode_json(reply))
        replay = session.replay(last_event)
        assert replay == self.stream[last_event:]
        if replay:
            wire.reply(MessageType.EVENT, encode_events(replay))

    def a_forged_resume_is_refused(self, data, right_token):
        """What no client of this session sends: another token, or a
        claim to one event more than exists."""
        session = self.session
        last_event = len(self.stream) + 1
        if not right_token:
            last_event = data.draw(st.integers(0, last_event))
        token = session.token if right_token else "0" * len(session.token)
        before = (session.conn, session.delivered)
        assert isinstance(session.refusal(token, last_event, self.wire), ProtocolError)
        assert before == (session.conn, session.delivered)

    def a_stale_resume_arrives(self, data):
        """A RESUME one of the client's dead connections sent is read
        after a newer connection's took the session: refused, and the
        session stays where it is."""
        owner = self.session.conn
        older = [wire for wire in self.conns if wire.cut and wire.id < owner.id]
        if not older:
            return
        before = (owner, self.session.seq, self.session.delivered)
        self.resume_arrives(
            data.draw(st.sampled_from(older)),
            {
                "session_id": SID,
                "token": self.session.token,
                "last_event": data.draw(st.integers(0, len(self.stream))),
            },
        )
        assert before == (self.session.conn, self.session.seq, self.session.delivered)

    def fails_safe(self):
        """Any fail-safe ending (lapse, shutdown, exhausted restore):
        the terminal lands where the client-visible stream stops; the
        id may then be opened afresh."""
        terminal = self.session.terminal("monitoring lost")
        assert terminal.error == "monitoring lost"
        assert terminal.frame_index == len(self.stream)
        assert self.session.close_reply() == {
            "session_id": SID,
            "n_frames": len(self.stream),
            "n_flagged": sum(e.flag for e in self.stream),
        }
        self.leaves(terminal)

    # ==================================================================
    # What must hold after every step
    # ==================================================================
    @invariant()
    def a_step_has_passed(self):
        """Not a check: invariants are what runs once after every step,
        which is the clock ``something_else_happens`` is spaced by."""
        self.calm += 1

    @invariant()
    def journal_is_the_accepted_frames_a_future_event_can_depend_on(self):
        """Once and in order, from ``base`` on; nothing the next ``W``-frame
        window reaches is gone (an acked frame is held, or its event is
        in the stream), and nothing older than a batch before it is kept."""
        session = self.session
        assert_rows(session.held(), session.base, self.journaled())
        delivered = len(self.stream)
        assert session.base <= max(0, delivered - W)
        assert sum(map(len, session.journal)) <= (
            W + (self.journaled() - delivered) + BATCH - 1
        )

    @invariant()
    def the_archive_is_the_session_at_delivered(self):
        """A pure function of the record: readable in any phase, it
        names the oracle's position, frames and context."""
        before = (self.session.base, self.session.delivered, len(self.session.journal))
        restored = Engine.restored(self.session.archive(), len(self.stream))
        assert restored.end == self.journaled()
        assert self.session.archive().recent.shape[0] == min(len(self.stream), W)
        assert before == (
            self.session.base, self.session.delivered, len(self.session.journal)
        )

    @invariant()
    def acks_are_monotone_and_name_the_wire_position(self):
        """Every ack names the wire position when it was sent
        (:meth:`ack`); a refusal since moves the position, not the ack."""
        assert self.acks == sorted(self.acks)
        assert self.session.fed == self.accepted
        assert self.session.seq == self.accepted + self.refused
        if self.acks:
            assert self.acks[-1] <= self.session.seq

    @invariant()
    def delivered_is_a_gapless_duplicate_free_prefix(self):
        session = self.session
        assert [e.frame_index for e in self.stream] == list(
            range(session.delivered)
        )
        assert self.stream == [event_for(i) for i in range(session.delivered)]
        assert session.flagged == sum(e.flag for e in self.stream)
        assert list(session.history) == self.stream[-RING:]
        assert session.drained == (session.delivered >= self.accepted)

    @invariant()
    def the_application_sees_each_event_once_in_order(self):
        """Consumed, buffered in the core or carried by the ResumeState:
        always a prefix of the gateway's stream — and, with what is
        still in flight on a connection the session is bound to, all of
        it."""
        held = self.core.events if self.phase == "connected" else self.state.pending_events
        seen = self.app + list(held)
        assert seen == self.stream[: len(seen)]
        assert self.phase == "connected" or not self.core.events
        if self.session.conn is self.wire and not self.wire.cut:
            coming = [
                event
                for msg_type, payload in in_flight(self.wire.down)
                if msg_type is MessageType.EVENT
                for event in decode_events(payload)
            ]
            assert seen + coming == self.stream

    @invariant()
    def the_gateway_holds_the_applications_rows(self):
        """Never a row the application did not feed (which rows: the
        journal invariant) — and, once a resume has replayed, every row
        it fed is held or on its way."""
        assert self.journaled() <= self.fed
        if (
            self.phase == "connected"
            and self.session.conn is self.wire
            and not self.wire.cut
        ):
            # Batches go out in stream order: the last one reaches furthest.
            reach = self.journaled()
            sent = [
                payload
                for msg_type, payload in in_flight(self.wire.up)
                if msg_type is MessageType.FRAME
            ]
            if sent:
                _, seq, frames = decode_frames(sent[-1])
                reach = max(reach, seq - self.refused + len(frames))
            assert reach == self.fed

    @invariant()
    def each_connection_lists_exactly_what_is_bound_to_it(self):
        for conn in self.conns:
            assert conn.sessions == ({SID} if conn is self.session.conn else set())

    @invariant()
    def a_parked_record_holds_no_engine_side(self):
        """Released by the park, or let go by the recovery it interrupted."""
        if self.session.phase is PARKED:
            assert self.engine is None and not self.restoring

    @invariant()
    def no_record_leaves_without_a_reply_to_its_owner_or_a_terminal(self):
        """A session's monitoring ends either as its owner asked — the
        CLOSE reply on the connection holding the record as it left — or
        as a ``flag=True`` terminal, never silently."""
        for ending, owner, to in self.left:
            if isinstance(ending, SessionEvent):
                assert ending.flag and ending.error is not None
            else:  # a reply on a connection the gateway knows is gone is none
                assert owner is not None and to is owner

    @invariant()
    def a_handler_after_an_await_acts_only_where_the_record_wants_it(self):
        """What the handlers parked at an await did shows in the engine
        side: a restore that found its record parked let it go, a
        closer that lost its claim released nothing, and a record that
        is live — or closed by its CLOSE, which claims only a live one —
        still has its engine side."""
        session = self.session
        closed_by_its_close = session.phase is CLOSING and session.reason is None
        if session.phase is LIVE or closed_by_its_close:
            assert self.engine is not None
        if self.restoring:
            assert session.phase is not LIVE


# Derandomized: the same schedules on every run, so which hand mutants of
# ``_SessionCore`` the machine kills is a fact, not a frequency (CHANGES.md,
# PR 24); set ``derandomize=False`` to explore fresh ones.
TestGatewaySession = WireSessionMachine.TestCase
TestGatewaySession.settings = settings(
    max_examples=100, stateful_step_count=100, deadline=None, derandomize=True
)


def assert_sans_io(source):
    """No awaiting, no socket or loop by name, no collaborator to call."""
    for node in ast.walk(ast.parse(inspect.getsource(source))):
        assert not isinstance(
            node, (ast.Await, ast.AsyncFunctionDef, ast.AsyncWith, ast.AsyncFor)
        )
        if isinstance(node, ast.Attribute):
            assert node.attr not in (
                "_engine", "writer", "queue", "_sock", "_writer", "_reader",
            )
        if isinstance(node, ast.Name):
            assert node.id not in ("asyncio", "socket")


def test_the_record_is_sans_io():
    """Nothing the machine above drove can reach a loop, a socket or an
    engine: the record's module does not know asyncio, and the class
    awaits nothing and holds no collaborator to call."""
    assert "asyncio" not in vars(session_module)
    assert_sans_io(session_module)


def test_the_core_is_sans_io():
    """The client's half shares its module with the two I/O shells, so
    the class itself is held to the same standard."""
    assert_sans_io(client_module._SessionCore)


#: Each phase (and a feed in flight), reached by the record methods the
#: gateway calls: the phase, whether a RESUME waits, whether a crash
#: event starts a restore.
PHASES = {
    "live": ((), LIVE, False, True),
    "inflight": (("admit",), LIVE, True, True),
    "closing": (("close",), CLOSING, True, True),
    "closing, recovering": (("close", "crash"), RECOVERING, False, False),
    "closing, disconnected": (("close", "disconnect"), CLOSING, True, False),
    "recovering": (("crash",), RECOVERING, False, False),
    "recovering, parked": (("crash", "park"), RECOVERING, True, False),
    "parking": (("park",), PARKING, True, False),
    "parked": (("park", "settle"), PARKED, False, False),
    "resuming": (("park", "settle", "adopt"), RESUMING, True, False),
    # Its closer's release in flight: still in the gateway's map.
    "ended": (("close", "end"), ENDED, True, False),
}


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_a_handler_inside_a_phase_keeps_resumes_out(phase):
    wire = Wire()
    session = _RemoteSession(SID, wire, replay_max=RING)
    steps, reached, busy, recoverable = PHASES[phase]
    for step in steps:
        if step == "admit":
            session.admit(0, rows(0, 2))
        elif step == "park":
            session.park("EOF")
        elif step == "close":
            session.close(wire)
        elif step == "disconnect":  # a teardown with no park takes over
            session.close(wire, "EOF")
        else:
            getattr(session, step)()
    assert session.phase is reached
    assert session.busy is busy
    assert session.crash() is recoverable


def test_resume_disabled_record_keeps_no_durability_state():
    """Without a grace window seq is not interpreted, nothing is acked
    and nothing is filtered: the stream is whatever the engine emits."""
    session = _RemoteSession(SID, Wire())
    assert session.open_reply() == {"session_id": SID}
    assert (session.token, session.journal, session.history) == (None,) * 3
    batch = rows(0, 3)
    assert session.admit(7, batch) is batch  # any seq
    assert session.accept(3) is None and session.fed == 3
    session.retract()  # nothing journaled: a no-op
    assert session.deliver(event_for(0)) and session.deliver(event_for(0))
    assert session.delivered == 2 and not session.drained
