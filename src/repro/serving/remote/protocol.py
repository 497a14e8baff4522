"""The remote-ingest wire protocol: compact length-prefixed binary frames.

Kinematics reach the gateway over a TCP byte stream, so every exchange
is framed as one *message*: an 8-byte struct-packed header followed by a
payload.  The header is

====== ======= ========================================================
offset format  field
====== ======= ========================================================
0      ``B``   protocol version (:data:`PROTOCOL_VERSION`)
1      ``B``   message type (:class:`MessageType`)
2      ``H``   reserved (must be 0; room for flags without a version bump)
4      ``I``   payload length in bytes
====== ======= ========================================================

all big-endian (``!``).  Payloads are either UTF-8 JSON (control
messages: OPEN, CLOSE, ERROR, STATS, RESUME) or packed binary (the hot
path: FRAME carries little-endian float64 kinematics rows prefixed by
the batch's starting frame sequence number, EVENT carries packed
:class:`~repro.serving.service.SessionEvent` records, ACK carries the
gateway's per-session accepted-frame count), so a frame of 38 features
costs 8 + 2 + len(sid) + 8 + 8 + 304 bytes on the wire and decoding is
one ``np.frombuffer`` — no per-frame JSON.

Message types and their direction:

=========== ============== ==============================================
type        direction      payload
=========== ============== ==============================================
OPEN        client→gateway ``{"session_id": str|null}``
OPEN        gateway→client ack: ``{"session_id": str, "resume_token"}``
FRAME       client→gateway :func:`encode_frames` binary (seq-numbered)
CLOSE       client→gateway ``{"session_id": str}``
CLOSE       gateway→client ack: ``{"session_id", "n_frames", "n_flagged"}``
EVENT       gateway→client :func:`encode_events` binary batch
ERROR       gateway→client ``{"error_type", "error", "session_id"|null}``
HEARTBEAT   both           empty (gateway pings, client echoes)
STATS       client→gateway empty request
STATS       gateway→client ``gateway_stats()`` JSON
ACK         gateway→client :func:`encode_ack` binary — frames accepted
RESUME      client→gateway ``{"session_id", "token", "last_event"}``
RESUME      gateway→client ack: ``{"session_id", "acked_seq", "delivered"}``
=========== ============== ==============================================

Version 2 added the session-resume triplet: a ``!Q`` frame sequence
number inside every FRAME payload, the ACK message acknowledging the
frames the gateway has accepted (durably, while resume is enabled), and
RESUME, by which a reconnecting client presents its resume token and
replays any frames past the gateway's acked seq.  Version 1 peers are
rejected by :func:`decode_header` exactly like any other foreign
version — there is no downgrade path on one port.

Everything here is transport-agnostic — pure ``struct``/``json``/numpy,
no sockets and no asyncio — so the gateway, both client SDKs and the
test suite share one codec.  Malformed input raises
:class:`~repro.errors.ProtocolError`, never a bare ``struct.error``.
See ``docs/remote.md`` for the full specification.
"""

from __future__ import annotations

import enum
import json
import struct

import numpy as np

from ...errors import ProtocolError
from ..service import SessionEvent

__all__ = [
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "MessageReader",
    "MessageType",
    "PROTOCOL_VERSION",
    "decode_ack",
    "decode_events",
    "decode_frames",
    "decode_header",
    "decode_json",
    "encode_ack",
    "encode_events",
    "encode_frames",
    "encode_json",
    "encode_message",
]

#: Bumped on any incompatible header or payload layout change; peers
#: reject other versions with :class:`~repro.errors.ProtocolError`.
#: Version 2: FRAME payloads carry a sequence number, ACK/RESUME added.
PROTOCOL_VERSION = 2

#: Hard ceiling on one message's payload (64 MiB) — a corrupt or hostile
#: length field must not make a peer allocate unbounded memory.
MAX_PAYLOAD = 64 * 1024 * 1024

_HEADER = struct.Struct("!BBHI")

#: Wire size of the fixed message header in bytes.
HEADER_SIZE = _HEADER.size

_SID_LEN = struct.Struct("!H")
_FRAME_SEQ = struct.Struct("!Q")
_FRAME_DIMS = struct.Struct("!II")
_EVENT_COUNT = struct.Struct("!I")
_EVENT_FIXED = struct.Struct("!qidBH")  # frame_index, gesture, score, flag, err_len


class MessageType(enum.IntEnum):
    """The nine wire message types (one byte each on the wire)."""

    OPEN = 1
    FRAME = 2
    CLOSE = 3
    EVENT = 4
    ERROR = 5
    HEARTBEAT = 6
    STATS = 7
    ACK = 8
    RESUME = 9


def encode_message(msg_type: MessageType, payload: bytes = b"") -> bytes:
    """One complete wire message: header + payload."""
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )
    return _HEADER.pack(
        PROTOCOL_VERSION, int(msg_type), 0, len(payload)
    ) + payload


def decode_header(data: bytes) -> tuple[MessageType, int]:
    """Parse one 8-byte header into ``(message type, payload length)``.

    Rejects short buffers, foreign protocol versions, unknown message
    types and payload lengths past :data:`MAX_PAYLOAD` — all as
    :class:`~repro.errors.ProtocolError`, so a desynchronised or hostile
    byte stream fails loudly instead of being misparsed.
    """
    if len(data) < HEADER_SIZE:
        raise ProtocolError(
            f"truncated header: {len(data)} of {HEADER_SIZE} bytes"
        )
    version, raw_type, reserved, length = _HEADER.unpack_from(data)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this peer speaks {PROTOCOL_VERSION})"
        )
    if reserved != 0:
        raise ProtocolError(f"reserved header field must be 0, got {reserved}")
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {raw_type}") from None
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte cap"
        )
    return msg_type, length


class MessageReader:
    """Incremental decoder over an arbitrary byte-chunk stream.

    Feed it whatever the transport hands you — partial headers, many
    messages at once — and pop complete ``(type, payload)`` messages as
    they become available.  The sync client SDK and the protocol tests
    run on this; the asyncio side uses ``readexactly`` directly.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        """Append raw bytes received from the transport."""
        self._buffer.extend(data)

    @property
    def buffered(self) -> int:
        """Bytes currently held, complete or not."""
        return len(self._buffer)

    def next_message(self) -> tuple[MessageType, bytes] | None:
        """Pop one complete message, or ``None`` until more bytes arrive."""
        if len(self._buffer) < HEADER_SIZE:
            return None
        msg_type, length = decode_header(bytes(self._buffer[:HEADER_SIZE]))
        end = HEADER_SIZE + length
        if len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[HEADER_SIZE:end])
        del self._buffer[:end]
        return msg_type, payload

    def messages(self):
        """Iterate every currently complete message."""
        while True:
            message = self.next_message()
            if message is None:
                return
            yield message


# ----------------------------------------------------------------------
# JSON payloads (control plane)
# ----------------------------------------------------------------------
def encode_json(obj: dict) -> bytes:
    """Encode a control-message payload as compact UTF-8 JSON."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    """Decode a control-message payload; must be a JSON object."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"control payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# Binary payloads (data plane)
# ----------------------------------------------------------------------
def _pack_sid(session_id: str) -> bytes:
    sid = session_id.encode("utf-8")
    if len(sid) > 0xFFFF:
        raise ProtocolError(f"session id of {len(sid)} bytes is too long")
    return _SID_LEN.pack(len(sid)) + sid


def _unpack_sid(payload: bytes, offset: int, what: str) -> tuple[str, int]:
    if len(payload) < offset + _SID_LEN.size:
        raise ProtocolError(f"truncated {what} payload (session id length)")
    (sid_len,) = _SID_LEN.unpack_from(payload, offset)
    offset += _SID_LEN.size
    if len(payload) < offset + sid_len:
        raise ProtocolError(f"truncated {what} payload (session id)")
    try:
        sid = payload[offset : offset + sid_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"{what} session id is not valid UTF-8") from exc
    return sid, offset + sid_len


def encode_frames(session_id: str, frames: np.ndarray, seq: int = 0) -> bytes:
    """Pack kinematics rows for one session into a FRAME payload.

    ``frames`` is coerced to a C-contiguous little-endian float64
    ``(n, n_features)`` matrix (a single ``(n_features,)`` frame is
    promoted), exactly the dtype the serving engine consumes — the
    gateway feeds the decoded buffer straight in, no per-row copies.
    ``seq`` is the frame sequence number of the batch's **first** row:
    the count of frames the client sent for this session before it.
    The gateway uses it to deduplicate resume replays and to detect
    gaps; a v2 client must number every batch contiguously.
    """
    frames = np.ascontiguousarray(frames, dtype="<f8")
    if frames.ndim == 1:
        frames = frames[None, :]
    if frames.ndim != 2:
        raise ProtocolError(
            f"frames must be (n, n_features), got shape {frames.shape}"
        )
    if not 0 <= seq <= 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"frame seq {seq} out of the u64 range")
    return (
        _pack_sid(session_id)
        + _FRAME_SEQ.pack(seq)
        + _FRAME_DIMS.pack(frames.shape[0], frames.shape[1])
        + frames.tobytes()
    )


def decode_frames(payload: bytes) -> tuple[str, int, np.ndarray]:
    """Unpack a FRAME payload into ``(sid, seq, (n, n_features) float64)``."""
    sid, offset = _unpack_sid(payload, 0, "FRAME")
    if len(payload) < offset + _FRAME_SEQ.size:
        raise ProtocolError("truncated FRAME payload (sequence number)")
    (seq,) = _FRAME_SEQ.unpack_from(payload, offset)
    offset += _FRAME_SEQ.size
    if len(payload) < offset + _FRAME_DIMS.size:
        raise ProtocolError("truncated FRAME payload (dimensions)")
    n_rows, n_cols = _FRAME_DIMS.unpack_from(payload, offset)
    offset += _FRAME_DIMS.size
    expected = n_rows * n_cols * 8
    body = payload[offset:]
    if len(body) != expected:
        raise ProtocolError(
            f"FRAME payload declares {n_rows}x{n_cols} float64 "
            f"({expected} bytes) but carries {len(body)}"
        )
    frames = np.frombuffer(body, dtype="<f8").reshape(n_rows, n_cols)
    # A writable native-endian copy: the engine appends it to the
    # session's pending queue and reads rows out of it over many ticks.
    return sid, seq, frames.astype(np.float64)


def encode_ack(session_id: str, seq: int) -> bytes:
    """Pack an ACK payload: ``seq`` frames of a session are accepted.

    ``seq`` is a *count*, not an index — after the gateway ingests a
    batch ending at frame ``k-1`` it acks ``seq=k``.  While resume is
    enabled on the gateway, an acked frame survives both a client
    disconnect (parked session state) and a shard worker crash (journal
    replay), so the client may discard its replay copy of every frame
    below ``seq``.
    """
    if not 0 <= seq <= 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"ack seq {seq} out of the u64 range")
    return _pack_sid(session_id) + _FRAME_SEQ.pack(seq)


def decode_ack(payload: bytes) -> tuple[str, int]:
    """Unpack an ACK payload into ``(session id, accepted frame count)``."""
    sid, offset = _unpack_sid(payload, 0, "ACK")
    if len(payload) < offset + _FRAME_SEQ.size:
        raise ProtocolError("truncated ACK payload (sequence number)")
    (seq,) = _FRAME_SEQ.unpack_from(payload, offset)
    offset += _FRAME_SEQ.size
    if offset != len(payload):
        raise ProtocolError(
            f"ACK payload has {len(payload) - offset} trailing bytes"
        )
    return sid, seq


def encode_events(events: list[SessionEvent]) -> bytes:
    """Pack a batch of session events into one EVENT payload."""
    parts = [_EVENT_COUNT.pack(len(events))]
    for event in events:
        error = (event.error or "").encode("utf-8")
        if len(error) > 0xFFFF:
            error = error[:0xFFFF]
        parts.append(_pack_sid(event.session_id))
        parts.append(
            _EVENT_FIXED.pack(
                event.frame_index,
                event.gesture,
                event.score,
                bool(event.flag),
                len(error),
            )
        )
        parts.append(error)
    return b"".join(parts)


def decode_events(payload: bytes) -> list[SessionEvent]:
    """Unpack an EVENT payload into :class:`SessionEvent` objects."""
    if len(payload) < _EVENT_COUNT.size:
        raise ProtocolError("truncated EVENT payload (count)")
    (count,) = _EVENT_COUNT.unpack_from(payload)
    offset = _EVENT_COUNT.size
    events: list[SessionEvent] = []
    for _ in range(count):
        sid, offset = _unpack_sid(payload, offset, "EVENT")
        if len(payload) < offset + _EVENT_FIXED.size:
            raise ProtocolError("truncated EVENT payload (record)")
        frame_index, gesture, score, flag, err_len = _EVENT_FIXED.unpack_from(
            payload, offset
        )
        offset += _EVENT_FIXED.size
        if len(payload) < offset + err_len:
            raise ProtocolError("truncated EVENT payload (error text)")
        error = (
            payload[offset : offset + err_len].decode("utf-8", "replace")
            if err_len
            else None
        )
        offset += err_len
        # Positional: a frozen dataclass's keywords cost a third more.
        events.append(SessionEvent(sid, frame_index, gesture, score, bool(flag), error))
    if offset != len(payload):
        raise ProtocolError(
            f"EVENT payload has {len(payload) - offset} trailing bytes"
        )
    return events
