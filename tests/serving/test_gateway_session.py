"""The gateway's stream-position arithmetic under a deterministic schedule.

One :class:`_RemoteSession` — the record behind every wire session of
``MonitorGateway`` — driven by a hypothesis state machine with **no
event loop, socket or engine**: the rules play the gateway's handlers
(FRAME in, engine feed result, event out, disconnect, RESUME, worker
crash and restore) in any interleaving and call the record the way the
handlers do.  The oracle is two plain lists — the frames a correct
gateway has accepted and the events a perfect client would have seen —
plus a toy engine that is nothing but a stream position: it emits event
``i`` for frame ``i``, and the only way to bring it back after a crash,
a park or a steal is :meth:`_RemoteSession.archive`, which it checks the
way ``MonitorService.import_session`` does (its last ``W`` frames, the
right ones, and the last event's context).

The socket suites in ``test_remote.py`` pin the same contract end to
end for a handful of schedules; this file is the arithmetic alone, for
thousands.
"""

import ast
import inspect
from types import SimpleNamespace

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
from repro.serving.remote import session as session_module
from repro.serving.remote.session import _RemoteSession

SID = "theatre-7"
RING = 4  # event_replay_max: small, so clients do fall out of reach
W = 3  # the engine's history_frames: what a restore must still hold
BATCH = 6  # the largest FRAME batch a client sends


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


def connection():
    return SimpleNamespace(sessions=set())


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


class GatewaySessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.conns = []
        self.open()

    def open(self):
        """OPEN: a fresh record, a fresh engine session, a fresh client."""
        conn = connection()
        self.conns.append(conn)
        self.session = _RemoteSession(SID, conn, replay_max=RING, window=W)
        assert self.session.open_reply() == {
            "session_id": SID,
            "resume_token": self.session.token,
        }
        self.accepted = 0  # oracle: frames 0..accepted-1, each once
        self.stream = []  # oracle: events a perfect client has seen
        self.acks = []
        self.pending = None  # the admitted batch awaiting its feed
        self.doomed = False  # ... whose engine side is already gone
        self.engine = Engine()  # None: crashed, or released by a park
        self.in_flight = []  # emitted by a lost engine side, not yet routed
        self.sent = None  # stream index the restore in progress has fed up to
        self.client = []  # what the connected client holds

    def journaled(self):
        """Where the journal must end: accepted plus the batch in flight."""
        extra = 0 if self.pending is None else self.pending.shape[0]
        return self.accepted + extra

    # -- frames in ------------------------------------------------------
    @precondition(lambda self: self.session.conn and self.pending is None)
    @rule(back=st.integers(0, 6), n=st.integers(1, BATCH))
    def frames_arrive(self, back, n):
        """A batch at the client's next_seq (``back == 0``) or a resume
        re-send reaching ``back`` frames into what is already held."""
        session = self.session
        seq = max(0, self.accepted - back)
        journaled = len(session.journal)
        admitted = session.admit(seq, rows(seq, seq + n))
        if seq + n <= self.accepted:
            assert admitted is None  # wholly duplicate: re-acked, no more
            assert len(session.journal) == journaled
            self.acks.append(session.accept(0))
            return
        np.testing.assert_array_equal(
            admitted, rows(self.accepted, seq + n)
        )
        if session.recovering:  # journaled and acked; the restore feeds it
            self.accepted += admitted.shape[0]
            self.acks.append(session.accept(admitted.shape[0]))
            return
        session.inflight += 1
        self.pending = admitted

    @precondition(lambda self: self.session.conn and self.pending is None)
    @rule(ahead=st.integers(1, 4), n=st.integers(1, 3))
    def frames_arrive_past_a_gap(self, ahead, n):
        seq = self.accepted + ahead
        journaled = len(self.session.journal)
        with pytest.raises(ProtocolError, match="sequence gap"):
            self.session.admit(seq, rows(seq, seq + n))
        assert len(self.session.journal) == journaled

    @precondition(lambda self: self.pending is not None)
    @rule(outcome=st.sampled_from(["fed", "fed", "refused", "worker died"]))
    def feed_returns(self, outcome):
        session, batch = self.session, self.pending
        self.pending = None
        session.inflight -= 1
        if self.doomed:  # bound to the lost incarnation: only one way out
            outcome, self.doomed = "worker died", False
        if outcome == "refused":  # the client's fault: nothing was accepted
            session.retract()
            return
        self.accepted += batch.shape[0]
        self.acks.append(session.accept(batch.shape[0]))
        if outcome == "fed":
            self.engine.feed(batch)
        elif not session.recovering:
            # The feed found the worker dead (or the session re-imported
            # under it): accepted all the same, restored from the record.
            self.worker_dies()

    # -- events out -----------------------------------------------------
    @precondition(lambda self: self.engine and self.engine.position < self.engine.end)
    @rule()
    def engine_emits(self):
        self.route(event_for(self.engine.position))
        self.engine.position += 1

    @precondition(lambda self: self.in_flight)
    @rule()
    def a_lost_engines_event_lands(self):
        """An event the engine side emitted before it was lost or
        released reaches ``_route_events`` late — possibly after the
        restored side has emitted the same frame."""
        self.route(self.in_flight.pop(0))

    def route(self, event):
        fresh = event.frame_index == len(self.stream)
        assert self.session.deliver(event) is fresh
        if fresh:
            self.stream.append(event)
            if self.session.conn is not None:
                self.client.append(event)

    def lose_engine(self, ahead):
        """The engine side goes; up to ``ahead`` events it had emitted
        are still on their way to the gateway."""
        if self.engine is not None and self.sent is None:
            stop = min(self.engine.position + ahead, self.engine.end)
            self.in_flight += [
                event_for(i) for i in range(self.engine.position, stop)
            ]
        self.engine, self.sent = None, None

    # -- worker crash and restore ---------------------------------------
    @rule(ahead=st.integers(0, 3))
    def worker_dies(self, ahead=0):
        """The crash event reaches ``_route_events``: the engine side is
        gone — under a feed in flight, perhaps, whose batch the archive
        then carries; a live session starts a restore (one in progress
        starts over), a parked one waits for its resume."""
        self.lose_engine(ahead)
        self.doomed = self.pending is not None
        if self.session.recoverable:
            self.session.recovering = True

    @precondition(lambda self: self.session.recovering)
    @rule()
    def restore_takes_a_step(self):
        """The recovery task between two awaits: it imports the archive,
        feeds what was admitted since, finishes — or finds the session
        parked underneath it and lets its engine side go."""
        session = self.session
        if session.conn is None:
            self.engine, self.sent = None, None
            session.recovering = False
        elif self.sent is None:
            self.engine = Engine.restored(session.archive(), len(self.stream))
            self.sent = self.engine.end
        else:
            tail = session.held()[self.sent - session.base :]
            if len(tail):
                self.engine.feed(tail)
                self.sent = self.engine.end
            else:
                self.sent = None
                session.recovering = False

    # -- disconnect, park, resume ---------------------------------------
    @precondition(lambda self: self.session.conn and self.pending is None)
    @rule(ahead=st.integers(0, 3))
    def client_disconnects(self, ahead):
        """Park: the engine side is released, whatever it still held."""
        session = self.session
        assert not session.busy
        if not session.recovering:  # else the recovery task lets go of its own
            self.lose_engine(ahead)
        session.park("EOF")
        assert session.conn is None and session.reason == "EOF"

    @rule(data=st.data(), right_token=st.booleans())
    def resume_arrives(self, data, right_token):
        """RESUME from a fresh connection — for a parked session or a
        live one (a steal) — from a client holding any prefix of the
        stream, or claiming one event more than exists."""
        session = self.session
        assert session.busy == bool(
            self.pending is not None
            or (session.conn is None and session.recovering)
        )
        if session.busy:  # the handler answers a retryable "no parked session"
            return
        last_event = data.draw(st.integers(0, len(self.stream) + 1))
        token = session.token if right_token else "0" * len(session.token)
        missed = len(self.stream) - last_event
        refusal = session.refusal(token, last_event)
        if not right_token or missed < 0:
            assert isinstance(refusal, ProtocolError)
            return
        if missed > min(RING, len(self.stream)):
            assert isinstance(refusal, WorkerError)
            assert f"missed {missed} events" in session.overrun(last_event)
            if session.conn is None:  # a park out of reach fails safe
                self.fails_safe()
            return
        assert refusal is None
        if session.conn is None:  # adopt: the same restore, from the record
            self.engine = Engine.restored(session.archive(), len(self.stream))
        conn = connection()
        self.conns.append(conn)
        session.bind(conn)
        assert session.resume_reply() == {
            "session_id": SID,
            "acked_seq": self.accepted,
            "delivered": len(self.stream),
            "resume_token": session.token,
        }
        self.client = self.stream[:last_event] + session.replay(last_event)

    @rule()
    def fails_safe(self):
        """Any fail-safe ending (lapse, shutdown, exhausted restore):
        the terminal lands where the client-visible stream stops; the
        id may then be opened afresh."""
        terminal = self.session.terminal("monitoring lost")
        assert terminal.flag and terminal.error == "monitoring lost"
        assert terminal.frame_index == len(self.stream)
        assert self.session.close_reply() == {
            "session_id": SID,
            "n_frames": len(self.stream),
            "n_flagged": sum(e.flag for e in self.stream),
        }
        self.session.bind(None)
        self.open()

    # -- what must hold after every step --------------------------------
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
    def acks_are_monotone_and_name_the_journaled_frames(self):
        assert self.acks == sorted(self.acks)
        assert self.session.fed == self.accepted
        if self.acks:
            assert self.acks[-1] == self.accepted

    @invariant()
    def delivered_is_a_gapless_duplicate_free_prefix(self):
        session = self.session
        assert [e.frame_index for e in self.stream] == list(
            range(session.delivered)
        )
        assert session.flagged == sum(e.flag for e in self.stream)
        assert list(session.history) == self.stream[-RING:]
        assert session.drained == (session.delivered >= self.accepted)

    @invariant()
    def the_client_stream_is_the_oracle_stream(self):
        if self.session.conn is not None:
            assert self.client == self.stream
        else:
            assert self.client == self.stream[: len(self.client)]

    @invariant()
    def each_connection_lists_exactly_what_is_bound_to_it(self):
        for conn in self.conns:
            assert conn.sessions == ({SID} if conn is self.session.conn else set())


TestGatewaySession = GatewaySessionMachine.TestCase
TestGatewaySession.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)


def test_the_record_is_sans_io():
    """Nothing the machine above drove can reach a loop, a socket or an
    engine: the record's module does not know asyncio, and the class
    awaits nothing and holds no collaborator to call."""
    assert "asyncio" not in vars(session_module)
    tree = ast.parse(inspect.getsource(session_module))
    for node in ast.walk(tree):
        assert not isinstance(
            node, (ast.Await, ast.AsyncFunctionDef, ast.AsyncWith, ast.AsyncFor)
        )
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("_engine", "writer", "queue")


@pytest.mark.parametrize("phase", ["parking", "resuming", "inflight"])
def test_a_handler_inside_a_phase_keeps_resumes_out(phase):
    session = _RemoteSession(SID, connection(), replay_max=RING)
    assert not session.busy and session.recoverable
    setattr(session, phase, 1 if phase == "inflight" else True)
    assert session.busy
    assert session.recoverable == (phase != "parking")


def test_resume_disabled_record_keeps_no_durability_state():
    """Without a grace window seq is not interpreted, nothing is acked
    and nothing is filtered: the stream is whatever the engine emits."""
    session = _RemoteSession(SID, connection())
    assert session.open_reply() == {"session_id": SID}
    assert (session.token, session.journal, session.history) == (None,) * 3
    batch = rows(0, 3)
    assert session.admit(7, batch) is batch  # any seq
    assert session.accept(3) is None and session.fed == 3
    session.retract()  # nothing journaled: a no-op
    assert session.deliver(event_for(0)) and session.deliver(event_for(0))
    assert session.delivered == 2 and not session.drained
