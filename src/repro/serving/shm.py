"""Shared-memory rings: the zero-copy data plane of the sharded fleet.

A fleet that pickles every kinematics frame through a
:func:`multiprocessing.Pipe` and blocks every ``feed()`` on a
request/reply ack round-trip spends its parallelism on transport.  This
module carries that traffic instead in two
:class:`multiprocessing.shared_memory` rings per shard:

- a **frame ring** (router → worker): ``feed()`` copies the frame block
  straight into shared memory — one header write plus one vectorised
  row copy, no pickling, no ack — and the worker ingests it in place
  before it answers its next request.  A full ring *is* the
  back-pressure signal: the writer sends the worker one request (a
  ``ping``), whose answer means the ring has been read empty.  A record
  is at most half the ring (:meth:`ShmRing.frame_chunks`), so a chunk
  always fits a ring read empty.
- an **event ring** (worker → router): each tick's
  :class:`~repro.serving.service.SessionEvent` batch travels as one
  packed :data:`EVENT_DTYPE` record instead of a pickled object list;
  a tick round's reply shrinks to a batch count.  The router reads every
  announced batch before it sends the next round, so a ring of
  :func:`event_ring_capacity` for one round never fills.

The pipe remains, but only for **control ops** — open, close, tick
triggers, migrate, stats, stop, the back-pressure ping — whose payloads
are small and rare.
Sessions are addressed on the rings by an integer **route id** (the
router's global opening order), so no strings cross the data plane.

Ring layout (one POSIX shared-memory segment each)::

    [ write_pos u64 | read_pos u64 | data region (capacity bytes) ... ]

Positions are monotonic byte counters (offset = ``pos % capacity``);
``write_pos`` is written only by the producer, ``read_pos`` only by the
consumer, so the single-producer/single-consumer protocol needs no
locks.  Records never wrap: a record that would straddle the end of the
region is preceded by a ``PAD`` record that the reader skips.  Every
record is 8-byte aligned::

    [ kind u32 | length u32 | payload ... ]          # length incl. header
    frames payload:  route u64, rows u32, cols u32, rows*cols float64
    events payload:  count u32, pad u32, count * EVENT_DTYPE

Ownership and crash semantics: the **router creates and unlinks** every
segment (on ``close()``, on ``remove_shard``/``resize``, and when a
worker crashes); workers only attach and detach.  Worker attachments
add no :mod:`multiprocessing.resource_tracker` accounting of their own
(``track=False`` on Python >= 3.13; on older versions the workers share
the router's tracker process, so their attach-time registration is an
idempotent no-op over the router's).  A worker exiting therefore never
unlinks a live segment out from under the fleet, while the tracker
still reclaims every segment if the router process dies uncleanly — no
``/dev/shm`` entry outlives the fleet either way.
"""

from __future__ import annotations

import logging
import struct
import threading
from multiprocessing import shared_memory

import numpy as np

from ..errors import ConfigurationError, WorkerError

_logger = logging.getLogger(__name__)

#: Ring header: write_pos (u64) then read_pos (u64).
_HEADER_BYTES = 16
#: Record header: kind (u32) then total record length (u32).
_REC_HEADER = 8

#: Record kinds.
REC_PAD = 0
REC_FRAMES = 1
REC_EVENTS = 2

#: Packed wire format of one :class:`~repro.serving.service.SessionEvent`
#: on the event ring.  ``route`` is the router-assigned integer session
#: route id; ``flags`` bit 0 is the unsafe flag.  ``score`` is the raw
#: float64, so events round-trip bit-exactly (the parity contract).
#: ``latency_us`` is the worker-measured frame-ingest→event-emission
#: latency (observability metadata, excluded from event equality).
EVENT_DTYPE = np.dtype(
    [
        ("route", "<u8"),
        ("frame", "<u8"),
        ("gesture", "<i8"),
        ("score", "<f8"),
        ("flags", "<u8"),
        ("latency_us", "<f8"),
    ]
)

#: Default per-shard frame-ring capacity.  4 MiB of frames is ~14k
#: frames of the paper's 38-feature kinematics — minutes of 30 Hz
#: backlog per shard; plain RAM in ``/dev/shm``, configurable per fleet.
DEFAULT_FRAME_RING_BYTES = 4 * 1024 * 1024


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _event_record_bytes(count: int) -> int:
    """Ring bytes of one event batch record of ``count`` events."""
    return _align8(_REC_HEADER + 8 + count * EVENT_DTYPE.itemsize)


def event_ring_capacity(batches: int, max_events: int) -> int:
    """Event-ring bytes that hold ``batches`` records of up to
    ``max_events`` events each, written into an empty ring at any offset.

    One record more than the batches: a record that would straddle the
    end of the region is preceded by a pad shorter than itself, and
    batches written from empty wrap the region at most once.
    """
    return (batches + 1) * _event_record_bytes(max_events)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without extra tracker accounting.

    Python >= 3.13 supports ``track=False`` directly.  On older
    versions the attach registers the name with the resource tracker —
    but a worker is always a :mod:`multiprocessing` child sharing the
    router's tracker process, so that register is an idempotent set-add
    over the router's own registration and needs no follow-up.  Do NOT
    ``resource_tracker.unregister`` here: on a shared tracker that
    would strip the *router's* registration, so the router's eventual
    ``unlink()`` double-unregisters and the tracker prints KeyError
    tracebacks (and an un-shut-down fleet would leak the segment).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


class ShmRing:
    """One single-producer/single-consumer shared-memory byte ring.

    Parameters
    ----------
    capacity:
        Data-region size in bytes (rounded up to a multiple of 8).
        Ignored when attaching.
    name:
        Segment name to attach to (``attach=True``), or ``None`` to
        create a new segment with a kernel-assigned name.
    attach:
        ``False`` (default) creates and owns the segment — the creator
        is responsible for :meth:`unlink`.  ``True`` attaches to an
        existing segment by ``name`` and must only :meth:`close`.

    One side writes (:meth:`try_write_frames` / :meth:`try_write_events`),
    the other reads (:meth:`read_frames` / :meth:`read_events`); reads
    copy out of the ring and advance ``read_pos``, so a record's memory
    is reusable the moment its reader returns.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_FRAME_RING_BYTES,
        *,
        name: str | None = None,
        attach: bool = False,
    ) -> None:
        if attach:
            if name is None:
                raise ConfigurationError("attach=True requires a segment name")
            self._shm = _attach_segment(name)
            self.capacity = self._shm.size - _HEADER_BYTES
        else:
            capacity = _align8(int(capacity))
            if capacity < 64:
                raise ConfigurationError("ring capacity must be >= 64 bytes")
            self._shm = shared_memory.SharedMemory(
                create=True, size=_HEADER_BYTES + capacity
            )
            self.capacity = capacity
            struct.pack_into("<QQ", self._shm.buf, 0, 0, 0)
        self._owner = not attach
        self._closed = False
        #: Held by every access to the mapping and by :meth:`close`: the
        #: router uses a shard's rings from more than one thread, and a
        #: crash may close them from any of those, so a close never
        #: unmaps a ring mid-copy, and an access after it raises.
        self._lock = threading.Lock()

    def _check_mapped(self) -> None:
        """Raise ``WorkerError`` once the ring is closed (caller holds
        ``_lock``): the shard it served has been torn down."""
        if self._closed:
            raise WorkerError(f"ring {self._shm.name} is closed")

    # ------------------------------------------------------------------
    # Positions (u64 monotonic byte counters)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Kernel name of the backing segment (pass to the attaching side)."""
        return self._shm.name

    def _write_pos(self) -> int:
        return struct.unpack_from("<Q", self._shm.buf, 0)[0]

    def _read_pos(self) -> int:
        return struct.unpack_from("<Q", self._shm.buf, 8)[0]

    def _publish_write(self, pos: int) -> None:
        struct.pack_into("<Q", self._shm.buf, 0, pos)

    def _publish_read(self, pos: int) -> None:
        struct.pack_into("<Q", self._shm.buf, 8, pos)

    @property
    def data_bytes(self) -> int:
        """Unread payload bytes currently in the ring (pads included)."""
        with self._lock:
            self._check_mapped()
            return self._write_pos() - self._read_pos()

    # ------------------------------------------------------------------
    # Producer
    # ------------------------------------------------------------------
    def _place(self, need: int) -> tuple[int, int] | None:
        """Where a ``need``-byte record would go right now, or ``None``.

        Returns ``(write_pos_after_pad, data_offset)``: a record that
        would straddle the end of the region starts at offset 0 behind a
        pad filling the tail.  Writes nothing.
        """
        if need > self.capacity // 2:
            raise ConfigurationError(
                f"record of {need} bytes exceeds half the ring capacity "
                f"({self.capacity}); chunk the payload"
            )
        write = self._write_pos()
        free = self.capacity - (write - self._read_pos())
        offset = write % self.capacity
        contig = self.capacity - offset
        if contig < need:
            return (write + contig, 0) if free >= contig + need else None
        return (write, offset) if free >= need else None

    def _reserve(self, need: int) -> tuple[int, int] | None:
        """:meth:`_place` a ``need``-byte record, writing the pad it needs.

        Nothing is published until the caller commits, so a reader never
        sees a half-written record.
        """
        placed = self._place(need)
        write = self._write_pos()
        if placed is not None and placed[0] != write:  # pad out the tail
            offset = write % self.capacity
            struct.pack_into(
                "<II", self._shm.buf, _HEADER_BYTES + offset, REC_PAD, placed[0] - write
            )
        return placed

    @property
    def max_frame_values(self) -> int:
        """The most float64s one frame record carries: a record is at
        most half the ring, so it always fits a ring read empty."""
        return (self.capacity // 2 - _REC_HEADER - 16) // 8

    def frame_chunks(self, frames: np.ndarray) -> list[np.ndarray]:
        """``frames`` cut into the row blocks it is written as, one
        record each (at least one row per record)."""
        rows = max(1, self.max_frame_values // frames.shape[1])
        return [frames[start : start + rows] for start in range(0, len(frames), rows)]

    def _has_room(self, n_values: int) -> bool:
        """True when a frame block of ``n_values`` float64s fits in one
        record right now — no chunking, no back-pressure wait.

        Exact for the ring's producer: the consumer only ever frees
        space, so the answer holds until the producer writes again.
        """
        if n_values > self.max_frame_values:
            return False
        with self._lock:
            self._check_mapped()
            return self._place(_REC_HEADER + 16 + 8 * n_values) is not None

    def try_write_frames(self, route: int, frames: np.ndarray) -> bool:
        """Write one ``(rows, cols)`` float64 frame block; False if full."""
        rows, cols = frames.shape
        payload = 16 + rows * cols * 8
        need = _align8(_REC_HEADER + payload)
        with self._lock:
            self._check_mapped()
            reserved = self._reserve(need)
            if reserved is None:
                return False
            write, offset = reserved
            base = _HEADER_BYTES + offset
            struct.pack_into(
                "<IIQII", self._shm.buf, base, REC_FRAMES, need, route, rows, cols
            )
            dst = np.frombuffer(
                self._shm.buf, dtype=np.float64, count=rows * cols, offset=base + 24
            )
            np.copyto(dst, frames.reshape(-1), casting="no")
            del dst  # release the buffer view before any close()
            self._publish_write(write + need)
        return True

    def try_write_events(self, records: np.ndarray) -> bool:
        """Write one :data:`EVENT_DTYPE` batch record; False if full."""
        if records.dtype != EVENT_DTYPE:
            raise ConfigurationError("event batch must use EVENT_DTYPE")
        count = records.shape[0]
        need = _event_record_bytes(count)
        with self._lock:
            self._check_mapped()
            reserved = self._reserve(need)
            if reserved is None:
                return False
            write, offset = reserved
            base = _HEADER_BYTES + offset
            struct.pack_into(
                "<IIII", self._shm.buf, base, REC_EVENTS, need, count, 0
            )
            dst = np.frombuffer(
                self._shm.buf, dtype=EVENT_DTYPE, count=count, offset=base + 16
            )
            np.copyto(dst, records, casting="no")
            del dst
            self._publish_write(write + need)
        return True

    # ------------------------------------------------------------------
    # Consumer
    # ------------------------------------------------------------------
    def _next_record(self) -> tuple[int, int, int] | None:
        """Skip pads; return ``(kind, data_offset, length)`` or ``None``."""
        while True:
            read = self._read_pos()
            if read >= self._write_pos():
                return None
            offset = read % self.capacity
            kind, length = struct.unpack_from(
                "<II", self._shm.buf, _HEADER_BYTES + offset
            )
            if length < _REC_HEADER or length > self.capacity:
                raise WorkerError(
                    f"corrupt ring record (kind={kind}, length={length})"
                )
            if kind == REC_PAD:
                self._publish_read(read + length)
                continue
            return kind, offset, length

    def read_frames(self) -> tuple[int, np.ndarray] | None:
        """Pop the next frame block as ``(route, frames copy)``.

        Returns ``None`` when the ring is empty.  Raises
        :class:`~repro.errors.WorkerError` on a record of the wrong kind
        — the rings are single-purpose channels, so a foreign record
        means the peer is out of protocol.
        """
        with self._lock:
            self._check_mapped()
            record = self._next_record()
            if record is None:
                return None
            kind, offset, length = record
            if kind != REC_FRAMES:
                raise WorkerError(f"expected a frame record, got kind {kind}")
            base = _HEADER_BYTES + offset
            route, rows, cols = struct.unpack_from("<QII", self._shm.buf, base + 8)
            frames = (
                np.frombuffer(
                    self._shm.buf,
                    dtype=np.float64,
                    count=rows * cols,
                    offset=base + 24,
                )
                .reshape(rows, cols)
                .copy()
            )
            self._publish_read(self._read_pos() + length)
        return int(route), frames

    def read_events(self) -> np.ndarray | None:
        """Pop the next event batch as an :data:`EVENT_DTYPE` array copy."""
        with self._lock:
            self._check_mapped()
            record = self._next_record()
            if record is None:
                return None
            kind, offset, length = record
            if kind != REC_EVENTS:
                raise WorkerError(f"expected an event record, got kind {kind}")
            base = _HEADER_BYTES + offset
            (count,) = struct.unpack_from("<I", self._shm.buf, base + 8)
            events = np.frombuffer(
                self._shm.buf, dtype=EVENT_DTYPE, count=count, offset=base + 16
            ).copy()
            self._publish_read(self._read_pos() + length)
        return events

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the segment (both sides).  Idempotent; waits for
        an access in progress on another thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._shm.close()
            except (OSError, BufferError) as exc:
                _logger.warning("closing ring %s failed: %s", self._shm.name, exc)

    def unlink(self) -> None:
        """Remove the segment name (owner side).  Idempotent."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass  # already unlinked (e.g. crash path ran first)
        except OSError as exc:
            _logger.warning("unlinking ring %s failed: %s", self._shm.name, exc)

    def destroy(self) -> None:
        """Owner-side teardown: detach and unlink in one call."""
        self.close()
        if self._owner:
            self.unlink()

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy()


__all__ = [
    "DEFAULT_FRAME_RING_BYTES",
    "EVENT_DTYPE",
    "ShmRing",
    "event_ring_capacity",
]
