"""Regression tests for the hardened pipe transport.

The remote ingest layer surfaced the partial-message/EOF edge cases of
:func:`repro.serving.transport.recv_message`: a peer can die mid-write
(truncating a framed message), a stream can carry bytes that are not a
pickle at all, and a well-formed object can be of the wrong type.  The
contract under test: end-of-stream (including mid-message truncation)
raises ``EOFError``; corrupt-but-intact streams raise ``WorkerError``
and are survivable — a worker answers with an error reply and keeps
serving.
"""

import multiprocessing as mp
import os
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, WorkerError
from repro.serving import make_synthetic_monitor, monitor_to_bytes
from repro.serving.remote.protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    MessageReader,
    MessageType,
    PROTOCOL_VERSION,
    decode_ack,
    decode_events,
    decode_frames,
    decode_header,
    decode_json,
    encode_ack,
    encode_events,
    encode_frames,
    encode_json,
    encode_message,
)
from repro.serving.service import SessionEvent
from repro.serving.shm import ShmRing
from repro.serving.transport import (
    Reply,
    Request,
    error_reply,
    raise_remote,
    recv_message,
)
from repro.serving.worker import worker_main

N_FEATURES = 6


@pytest.fixture()
def pipe():
    a, b = mp.Pipe(duplex=True)
    yield a, b
    for end in (a, b):
        try:
            end.close()
        except OSError:
            pass


class TestRecvMessage:
    def test_valid_message_passes_type_check(self, pipe):
        a, b = pipe
        a.send(Request("ping"))
        request = recv_message(b, Request, who="test")
        assert request.op == "ping"

    def test_closed_peer_raises_eof(self, pipe):
        a, b = pipe
        a.close()
        with pytest.raises(EOFError):
            recv_message(b, Request, who="test")

    def test_truncated_frame_raises_eof(self, pipe):
        """A peer dying mid-write leaves a length prefix promising more
        bytes than ever arrive: that is end-of-stream, not garbage."""
        a, b = pipe
        # multiprocessing frames messages as a !i length prefix; promise
        # 100 bytes, deliver 3, then vanish.
        os.write(a.fileno(), struct.pack("!i", 100) + b"abc")
        a.close()
        with pytest.raises(EOFError):
            recv_message(b, Request, who="test")

    def test_corrupt_pickle_raises_worker_error(self, pipe):
        a, b = pipe
        a.send_bytes(b"this is not a pickle")
        with pytest.raises(WorkerError, match="corrupt or truncated"):
            recv_message(b, Request, who="test")

    def test_truncated_pickle_raises_worker_error(self, pipe):
        a, b = pipe
        blob = pickle.dumps(Request("feed", session_id="s"))
        a.send_bytes(blob[: len(blob) // 2])
        with pytest.raises(WorkerError, match="corrupt or truncated"):
            recv_message(b, Request, who="test")

    def test_wrong_type_raises_worker_error(self, pipe):
        a, b = pipe
        a.send({"op": "ping"})  # a dict is not a Request
        with pytest.raises(WorkerError, match="expected Request, got dict"):
            recv_message(b, Request, who="test")

    def test_timeout_raises_worker_error(self, pipe):
        _, b = pipe
        with pytest.raises(WorkerError, match="unresponsive"):
            recv_message(b, Reply, timeout_s=0.05, who="shard 3")

    def test_who_names_the_peer(self, pipe):
        a, b = pipe
        a.send_bytes(b"\x80garbage")
        with pytest.raises(WorkerError, match="shard 7"):
            recv_message(b, Request, who="shard 7")


class TestWorkerSurvivesCorruptInput:
    def test_worker_replies_error_and_keeps_serving(self):
        """End to end: garbage on the pipe gets an error reply; the very
        next valid request is served normally — the shard's sessions
        outlive bad input instead of dying with an unpickling crash."""
        monitor = make_synthetic_monitor(n_features=N_FEATURES, seed=0)
        blob = monitor_to_bytes(monitor)
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        parent, child = ctx.Pipe(duplex=True)
        frame_ring, event_ring = ShmRing(1 << 12), ShmRing(1 << 12)
        process = ctx.Process(
            target=worker_main,
            args=(child, blob, 4, frame_ring.name, event_ring.name),
            daemon=True,
        )
        process.start()
        child.close()
        try:
            parent.send(Request("ping"))
            assert recv_message(parent, Reply, timeout_s=60.0).ok

            parent.send_bytes(b"definitely not a pickled Request")
            reply = recv_message(parent, Reply, timeout_s=60.0)
            assert not reply.ok
            assert reply.error_type == "WorkerError"
            assert "corrupt or truncated" in reply.error

            parent.send({"op": "ping"})  # wrong type, also survivable
            reply = recv_message(parent, Reply, timeout_s=60.0)
            assert not reply.ok

            parent.send(Request("open", session_id="still-alive"))
            reply = recv_message(parent, Reply, timeout_s=60.0)
            assert reply.ok and reply.value == "still-alive"

            parent.send(Request("stop"))
            recv_message(parent, Reply, timeout_s=60.0)
        finally:
            parent.close()
            process.join(30.0)
            if process.is_alive():  # pragma: no cover - cleanup only
                process.terminate()
                process.join()
            frame_ring.destroy()
            event_ring.destroy()
        assert process.exitcode == 0


class TestErrorReplyRoundTrip:
    def test_error_reply_preserves_type_through_raise_remote(self):
        reply = error_reply(WorkerError("boom"), has_pending=True)
        assert reply.has_pending
        with pytest.raises(WorkerError, match="boom"):
            raise_remote(reply)


# ----------------------------------------------------------------------
# Property-based fuzzing of the TCP wire protocol (PR 7)
# ----------------------------------------------------------------------
# The gateway decodes bytes straight off the public network, so the
# protocol module carries a stronger contract than the pipe transport
# above: *any* input either decodes or raises ProtocolError — never a
# bare struct.error/UnicodeDecodeError/ValueError, never an unbounded
# allocation from a hostile length field, and round-trips are exact.

_session_ids = st.text(min_size=0, max_size=40)

_u64 = st.integers(min_value=0, max_value=2**64 - 1)

_finite_floats = st.floats(allow_nan=False, width=64)

_events = st.builds(
    SessionEvent,
    session_id=_session_ids,
    frame_index=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    gesture=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    score=_finite_floats,
    flag=st.booleans(),
    # The wire collapses a falsy error to "no error" (err_len=0 decodes
    # to None), so an empty string is not round-trippable by design —
    # generate None or a non-empty message, as the engine does.
    error=st.one_of(st.none(), st.text(min_size=1, max_size=120)),
)


def _decode_any(payload: bytes) -> None:
    """Run every payload decoder; only ProtocolError may escape."""
    for decoder in (decode_frames, decode_events, decode_ack, decode_json):
        try:
            decoder(payload)
        except ProtocolError:
            pass


class TestProtocolFuzz:
    @settings(max_examples=50, deadline=None)
    @given(
        sid=_session_ids,
        seq=_u64,
        rows=st.lists(
            st.lists(_finite_floats, min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    )
    def test_frames_round_trip_exactly(self, sid, seq, rows):
        frames = np.array(rows, dtype=np.float64)
        got_sid, got_seq, got = decode_frames(encode_frames(sid, frames, seq))
        assert (got_sid, got_seq) == (sid, seq)
        assert got.dtype == np.float64 and got.shape == frames.shape
        np.testing.assert_array_equal(got, frames)

    @settings(max_examples=50, deadline=None)
    @given(events=st.lists(_events, max_size=8))
    def test_events_round_trip_exactly(self, events):
        decoded = decode_events(encode_events(events))
        assert decoded == events

    @settings(max_examples=50, deadline=None)
    @given(sid=_session_ids, seq=_u64)
    def test_ack_round_trip_exactly(self, sid, seq):
        assert decode_ack(encode_ack(sid, seq)) == (sid, seq)

    @settings(max_examples=50, deadline=None)
    @given(
        obj=st.dictionaries(
            st.text(max_size=20),
            st.one_of(
                st.none(), st.booleans(), st.integers(), st.text(max_size=40)
            ),
            max_size=6,
        )
    )
    def test_json_round_trip_exactly(self, obj):
        assert decode_json(encode_json(obj)) == obj

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_arbitrary_bytes_never_crash_a_decoder(self, data):
        try:
            decode_header(data.ljust(HEADER_SIZE, b"\x00")[:HEADER_SIZE])
        except ProtocolError:
            pass
        _decode_any(data)

    @settings(max_examples=50, deadline=None)
    @given(
        events=st.lists(_events, min_size=1, max_size=4),
        cut=st.integers(min_value=0, max_value=10_000),
    )
    def test_truncated_payloads_raise_protocol_error(self, events, cut):
        payload = encode_events(events)
        truncated = payload[: min(cut, len(payload) - 1)]
        with pytest.raises(ProtocolError):
            decode_events(truncated)
        _decode_any(truncated)

    @settings(max_examples=100, deadline=None)
    @given(
        sid=_session_ids,
        seq=_u64,
        flip_at=st.integers(min_value=0, max_value=10_000),
        flip_bits=st.integers(min_value=1, max_value=255),
    )
    def test_bit_flipped_messages_decode_or_reject(
        self, sid, seq, flip_at, flip_bits
    ):
        """Corrupting any single byte of a framed ACK either still parses
        (the flip landed in a don't-care position) or raises
        ProtocolError — from the header check or the payload decoder —
        never anything else and never a hang."""
        message = bytearray(encode_message(MessageType.ACK, encode_ack(sid, seq)))
        message[flip_at % len(message)] ^= flip_bits
        reader = MessageReader()
        reader.feed(bytes(message))
        try:
            for _, payload in reader.messages():
                _decode_any(payload)
        except ProtocolError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(length=st.integers(min_value=0, max_value=2**32 - 1))
    def test_hostile_length_fields_are_capped(self, length):
        """A header may not promise more than MAX_PAYLOAD bytes: the
        reader rejects it outright instead of buffering toward an
        attacker-chosen allocation."""
        header = struct.pack(
            "!BBHI", PROTOCOL_VERSION, int(MessageType.FRAME), 0, length
        )
        if length > MAX_PAYLOAD:
            with pytest.raises(ProtocolError):
                decode_header(header)
        else:
            msg_type, got = decode_header(header)
            assert (msg_type, got) == (MessageType.FRAME, length)

    @settings(max_examples=50, deadline=None)
    @given(
        sid=_session_ids,
        seq=_u64,
        chunk=st.integers(min_value=1, max_value=7),
    )
    def test_reader_is_prefix_safe(self, sid, seq, chunk):
        """Any prefix of a valid stream yields only complete messages —
        a mid-message cut parks the reader at None, never a partial or
        corrupted pop."""
        stream = encode_message(MessageType.ACK, encode_ack(sid, seq))
        for cut in range(len(stream)):
            reader = MessageReader()
            for start in range(0, cut, chunk):
                reader.feed(stream[start : min(start + chunk, cut)])
            assert reader.next_message() is None
        reader = MessageReader()
        reader.feed(stream)
        msg_type, payload = reader.next_message()
        assert msg_type is MessageType.ACK
        assert decode_ack(payload) == (sid, seq)
