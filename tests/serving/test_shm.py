"""Tests for the zero-copy shared-memory data plane.

Ring-protocol unit tests — wrap-around with pad records, ring-full
back-pressure, bit-exact frame and event round trips — plus the fleet
lifecycle contract: every segment the router creates is unlinked on
``close()``, on a worker crash, and on a downsizing ``resize()``, so
``/dev/shm`` never leaks.
"""

import os
import signal
import sys
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkerError
from repro.serving import (
    MonitorGateway,
    ShardedMonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)
from repro.serving.shm import EVENT_DTYPE, ShmRing

N_FEATURES = 10


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=N_FEATURES, seed=0)


def make_fleet(n_sessions, base_seed=100, frames=40, step=5):
    return {
        f"proc-{i}": make_random_walk_trajectory(
            frames + step * i, n_features=N_FEATURES, seed=base_seed + i
        )
        for i in range(n_sessions)
    }


def event_key(event):
    return (event.session_id, event.frame_index, event.gesture, event.score, event.flag)


def segment_exists(name):
    """Is the named shared-memory segment still linked?"""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def ring_names(service):
    """``{shard_index: [segment names]}`` for a live fleet."""
    names = {}
    for index, handle in service._shards.items():
        names[index] = [
            ring.name
            for ring in (handle.frame_ring, handle.event_ring)
            if ring is not None
        ]
    return names


class TestShmRing:
    def test_frames_roundtrip(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(7, N_FEATURES))
        with ShmRing(4096) as ring:
            assert ring.try_write_frames(5, frames)
            route, out = ring.read_frames()
            assert route == 5
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, frames)
            assert ring.read_frames() is None

    def test_read_copy_survives_ring_reuse(self):
        """read_frames returns a copy, not a view into the ring."""
        with ShmRing(512) as ring:
            first = np.full((2, 4), 1.0)
            assert ring.try_write_frames(1, first)
            _, out = ring.read_frames()
            for _ in range(16):  # drive the write cursor over the old slot
                assert ring.try_write_frames(2, np.full((2, 4), 9.0))
                ring.read_frames()
            np.testing.assert_array_equal(out, first)

    def test_events_roundtrip_bit_exact(self):
        records = np.zeros(3, dtype=EVENT_DTYPE)
        records["route"] = [1, 2, 2**40]
        records["frame"] = [10, 11, 12]
        records["gesture"] = [-1, 4, 7]
        records["score"] = [0.1, np.pi, 1e-300]
        records["flags"] = [1, 0, 1]
        with ShmRing(4096) as ring:
            assert ring.try_write_events(records)
            out = ring.read_events()
            assert out.dtype == EVENT_DTYPE
            assert np.array_equal(out, records)
            assert ring.read_events() is None

    def test_events_require_event_dtype(self):
        with ShmRing(4096) as ring:
            with pytest.raises(ConfigurationError):
                ring.try_write_events(np.zeros(3, dtype=np.float64))

    def test_wrap_preserves_every_record(self):
        """Hundreds of variable-size records through a small ring: the
        pad-on-wrap protocol must never corrupt or reorder a payload."""
        with ShmRing(1024) as ring:
            pending = []
            sent = 0
            received = []
            while sent < 300 or pending:
                if sent < 300:
                    rows = sent % 5 + 1
                    frames = np.full((rows, 4), float(sent))
                    if ring.try_write_frames(sent, frames):
                        pending.append((sent, frames))
                        sent += 1
                        continue
                route, out = ring.read_frames()
                expected_route, expected = pending.pop(0)
                assert route == expected_route
                np.testing.assert_array_equal(out, expected)
                received.append(route)
            assert received == list(range(300))
            assert ring.read_frames() is None

    def test_ring_full_backpressure_and_recovery(self):
        frames = np.zeros((1, 8))
        with ShmRing(256) as ring:
            writes = 0
            while ring.try_write_frames(writes, frames):
                writes += 1
            assert writes >= 2  # capacity sanity: the ring held something
            assert not ring.try_write_frames(writes, frames)
            assert ring.read_frames() is not None  # free one slot ...
            assert ring.try_write_frames(writes, frames)  # ... write resumes

    def test_oversize_record_refused(self):
        with ShmRing(1024) as ring:
            with pytest.raises(ConfigurationError, match="half the ring"):
                ring.try_write_frames(0, np.zeros((100, 100)))

    def test_attach_requires_name(self):
        with pytest.raises(ConfigurationError):
            ShmRing(attach=True)

    def test_attach_sees_writes_and_never_unlinks(self):
        frames = np.arange(12.0).reshape(3, 4)
        owner = ShmRing(1024)
        try:
            reader = ShmRing(name=owner.name, attach=True)
            assert owner.try_write_frames(3, frames)
            route, out = reader.read_frames()
            assert route == 3
            np.testing.assert_array_equal(out, frames)
            reader.close()  # a non-owner close must not unlink
            assert segment_exists(owner.name)
        finally:
            owner.destroy()
        assert not segment_exists(owner.name)

    def test_frame_chunks_each_fit_a_ring_read_empty(self):
        """A block of any length goes in records of at most half the
        ring — so each fits once the worker has read the ring empty —
        and the records concatenate back to the block."""
        frames = np.random.default_rng(1).normal(size=(500, 4))
        with ShmRing(2048) as ring:
            chunks = ring.frame_chunks(frames)
            assert len(chunks) > 1
            for chunk in chunks:
                assert chunk.size <= ring.max_frame_values
                assert ring._has_room(chunk.size)
                assert ring.try_write_frames(9, chunk)
                route, copy = ring.read_frames()
                assert route == 9
                np.testing.assert_array_equal(copy, chunk)
            assert not ring._has_room(ring.max_frame_values + 1)
        np.testing.assert_array_equal(np.concatenate(chunks), frames)

    def test_close_is_serialised_with_every_access(self):
        """A ring destroyed on one thread while another writes and reads
        it — a shard failed under a feed: the copy in progress finishes,
        and the next access raises ``WorkerError``, never a stray error
        from an unmapped segment."""
        frames = np.arange(64.0).reshape(8, 8)
        ring = ShmRing(4096)
        errors, copies = [], [0]
        running = threading.Event()

        def hammer():
            try:
                while True:
                    copies[0] += ring.try_write_frames(1, frames)
                    ring.read_frames()
                    running.set()
            except Exception as exc:  # noqa: BLE001 - what the test inspects
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            user = threading.Thread(target=hammer)
            user.start()
            assert running.wait(10.0)
            ring.destroy()
            user.join(timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert not user.is_alive()
        assert [type(e) for e in errors] == [WorkerError], errors
        assert "closed" in str(errors[0])
        assert copies[0] > 0
        assert not segment_exists(ring.name)


class TestFleetSegmentLifecycle:
    def test_segments_unlinked_after_close(self, monitor):
        service = ShardedMonitorService(monitor, n_shards=2, max_sessions_per_shard=4)
        names = ring_names(service)
        flat = [name for per_shard in names.values() for name in per_shard]
        assert len(flat) == 4  # frame + event ring per shard
        assert all(segment_exists(name) for name in flat)
        service.close()
        assert not any(segment_exists(name) for name in flat)

    def test_segments_unlinked_after_worker_crash(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=2, max_sessions_per_shard=4
        ) as service:
            names = ring_names(service)
            victim = service._shards[0].process
            os.kill(victim.pid, signal.SIGKILL)
            for _ in range(500):
                if not victim.is_alive():
                    break
                time.sleep(0.01)
            else:
                pytest.fail("SIGKILLed worker did not exit")
            service.tick()  # crash detection runs the unlink path
            assert not any(segment_exists(name) for name in names[0])
            assert all(segment_exists(name) for name in names[1])
        assert not any(
            segment_exists(name) for per_shard in names.values() for name in per_shard
        )

    def test_segments_unlinked_after_resize_down(self, monitor):
        with ShardedMonitorService(
            monitor, n_shards=4, max_sessions_per_shard=4
        ) as service:
            before = {
                name for per_shard in ring_names(service).values() for name in per_shard
            }
            assert len(before) == 8
            service.resize(1)
            after = {
                name for per_shard in ring_names(service).values() for name in per_shard
            }
            assert len(after) == 2
            assert after < before
            assert all(segment_exists(name) for name in after)
            assert not any(segment_exists(name) for name in before - after)
        assert not any(segment_exists(name) for name in before)

    def test_invalid_data_plane_rejected(self, monitor):
        """The gateway keeps the ``data_plane`` keyword for the frozen
        benchmark caller only: ``"shm"`` is its one legal value."""
        with pytest.raises(ConfigurationError):
            MonitorGateway(monitor, n_shards=2, data_plane="pipe")
        MonitorGateway(monitor, n_shards=2, data_plane="shm")
