"""The gateway's stream-position arithmetic under a deterministic schedule.

One :class:`_RemoteSession` — the record behind every wire session of
``MonitorGateway`` — driven by a hypothesis state machine with **no
event loop, socket or engine**: the rules play the gateway's handlers
(FRAME in, engine feed result, event out, disconnect, RESUME, worker
crash and journal rebuild) in any interleaving and call the record the
way the handlers do.  The oracle is two plain lists — the frames a
correct gateway has accepted and the events a perfect client would have
seen — plus a toy engine that emits event ``i`` for the ``i``-th frame
it was fed since its last (re)start.

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

from repro.errors import ProtocolError, WorkerError
from repro.serving import SessionEvent
from repro.serving.remote import session as session_module
from repro.serving.remote.session import _RemoteSession

SID = "theatre-7"
RING = 4  # event_replay_max: small, so clients do fall out of reach


def rows(start, stop):
    """Frames ``start..stop-1`` of the client's stream; row i holds i."""
    return np.arange(start, stop, dtype=float)[:, None]


def numbers(batch):
    """The frame indices a batch of :func:`rows` carries."""
    return batch[:, 0].astype(int).tolist()


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


class GatewaySessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.conns = []
        self.open()

    def open(self):
        """OPEN: a fresh record, a fresh engine session, a fresh client."""
        conn = connection()
        self.conns.append(conn)
        self.session = _RemoteSession(SID, conn, replay_max=RING)
        assert self.session.open_reply() == {
            "session_id": SID,
            "resume_token": self.session.token,
        }
        self.accepted = 0  # oracle: frames 0..accepted-1, each once
        self.stream = []  # oracle: events a perfect client has seen
        self.acks = []
        self.pending = None  # the admitted batch awaiting its feed
        self.engine = []  # frames fed to the engine's current incarnation
        self.emitted = 0  # events that incarnation has produced
        self.replayed = 0  # journal batches the rebuild has fed back
        self.client = []  # what the connected client holds

    # -- frames in ------------------------------------------------------
    @precondition(lambda self: self.session.conn and self.pending is None)
    @rule(back=st.integers(0, 6), n=st.integers(1, 6))
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
        if session.recovering:  # journaled and acked; the rebuild feeds it
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
        if outcome == "refused":  # the client's fault: nothing was accepted
            session.retract()
            return
        self.accepted += batch.shape[0]
        self.acks.append(session.accept(batch.shape[0]))
        if outcome == "fed":
            self.engine.extend(numbers(batch))
        else:  # the feed found the worker dead: accepted, rebuilt later
            self.worker_dies()

    # -- events out -----------------------------------------------------
    @precondition(lambda self: self.emitted < len(self.engine))
    @rule()
    def engine_emits(self):
        event = event_for(self.engine[self.emitted])
        self.emitted += 1
        fresh = event.frame_index == len(self.stream)
        assert self.session.deliver(event) is fresh
        if fresh:
            self.stream.append(event)
            if self.session.conn is not None:
                self.client.append(event)

    # -- worker crash and journal rebuild -------------------------------
    @precondition(lambda self: self.pending is None)
    @rule()
    def worker_dies(self):
        """The crash event reaches ``_route_events``: the engine side is
        gone; a live session starts a rebuild, a parked one waits for
        its resume."""
        self.engine, self.emitted, self.replayed = [], 0, 0
        if self.session.recoverable:
            self.session.recovering = True
        elif self.session.conn is None:
            self.session.state = None  # the archive died with the worker

    @precondition(lambda self: self.session.recovering)
    @rule()
    def rebuild_takes_a_step(self):
        """The recovery task between two awaits: it feeds the next
        journal batch, finishes — or finds the session parked
        underneath it and lets its half-built engine side go."""
        session = self.session
        if session.conn is None:
            self.engine, self.emitted = [], 0
            session.recovering = False
        elif self.replayed == len(session.journal):
            session.recovering = False
        else:
            self.engine.extend(numbers(session.journal[self.replayed]))
            self.replayed += 1

    # -- disconnect, park, resume ---------------------------------------
    @precondition(lambda self: self.session.conn and self.pending is None)
    @rule()
    def client_disconnects(self):
        """Park: with the engine's archive, or cold while a rebuild is
        in flight (its half-replayed engine state is not the session)."""
        session = self.session
        assert not session.busy
        session.park(None if session.recovering else b"archive", "EOF")
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
        if session.conn is None and session.state is None:
            # Cold adopt: the whole journal through a fresh engine session.
            self.engine = [f for b in session.journal for f in numbers(b)]
            self.emitted = 0
        conn = connection()
        self.conns.append(conn)
        session.bind(conn)
        session.state = None
        assert session.resume_reply() == {
            "session_id": SID,
            "acked_seq": self.accepted,
            "delivered": len(self.stream),
            "resume_token": session.token,
        }
        self.client = self.stream[:last_event] + session.replay(last_event)

    @rule()
    def fails_safe(self):
        """Any fail-safe ending (lapse, shutdown, exhausted rebuild):
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
    def journal_is_the_accepted_frames_once_and_in_order(self):
        held = self.accepted
        if self.pending is not None:
            held += self.pending.shape[0]
        journal = self.session.journal
        np.testing.assert_array_equal(
            np.concatenate(journal) if journal else rows(0, 0), rows(0, held)
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
