"""Remote ingest: the network serving layer in front of the engines.

The paper's monitor only helps in an operating room if live kinematics
can reach it over a network with bounded latency.  This package is that
front door:

- :mod:`~repro.serving.remote.protocol` — the compact length-prefixed
  binary wire protocol (struct-packed headers, seq-numbered float64
  frame payloads, OPEN/FRAME/CLOSE/EVENT/ERROR/HEARTBEAT/STATS/ACK/
  RESUME message types);
- :mod:`~repro.serving.remote.gateway` — :class:`MonitorGateway`, the
  asyncio TCP server routing wire sessions into an embedded
  :class:`~repro.serving.service.MonitorService` (K=1) or sharded
  fleet, with per-connection bounded send queues (backpressure),
  heartbeat/idle timeouts, fail-safe drain-and-close disconnect
  semantics and — with a resume grace window — park/adopt session
  resume over reconnects; :class:`GatewayRunner` bridges it into sync
  programs;
- :mod:`~repro.serving.remote.session` — the gateway's sans-IO record
  of one wire session: seq/ack/journal/replay arithmetic and resume
  admission, with no event loop, socket or engine;
- :mod:`~repro.serving.remote.client` — the SDKs:
  :class:`RemoteMonitorClient` (blocking sockets) and
  :class:`AsyncRemoteMonitorClient` (asyncio); both speak the resume
  protocol transparently, exchanging :class:`ResumeState` captures
  across connections.

The headline guarantee mirrors the rest of the serving stack: a session
fed over a real socket reproduces the local engine's event stream bit
for bit, order included (``tests/serving/test_remote.py``).  Protocol
spec and operator guide: ``docs/remote.md``.
"""

from .client import AsyncRemoteMonitorClient, RemoteMonitorClient, ResumeState
from .gateway import GatewayRunner, MonitorGateway
from .protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    MessageReader,
    MessageType,
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

__all__ = [
    "AsyncRemoteMonitorClient",
    "GatewayRunner",
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "MessageReader",
    "MessageType",
    "MonitorGateway",
    "PROTOCOL_VERSION",
    "RemoteMonitorClient",
    "ResumeState",
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
