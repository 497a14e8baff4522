"""Tests for repro.kinematics.windows."""

import numpy as np
import pytest

from repro.config import WindowConfig
from repro.errors import ConfigurationError, ShapeError
from repro.kinematics.windows import (
    StreamingWindow,
    StreamingWindowBatch,
    sliding_windows,
    sliding_windows_view,
    window_labels,
)


def ramp_frames(n: int, d: int = 2) -> np.ndarray:
    return np.arange(n * d, dtype=float).reshape(n, d)


class TestSlidingWindows:
    def test_shapes_and_ends(self):
        windows, ends = sliding_windows(ramp_frames(10), WindowConfig(4, 2))
        assert windows.shape == (4, 4, 2)
        assert ends.tolist() == [3, 5, 7, 9]

    def test_content(self):
        frames = ramp_frames(6)
        windows, _ = sliding_windows(frames, WindowConfig(3, 1))
        assert np.array_equal(windows[0], frames[0:3])
        assert np.array_equal(windows[-1], frames[3:6])

    def test_too_short_sequence(self):
        windows, ends = sliding_windows(ramp_frames(3), WindowConfig(5, 1))
        assert windows.shape == (0, 5, 2)
        assert ends.size == 0

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            sliding_windows(np.arange(10.0), WindowConfig(3, 1))


class TestSlidingWindowsView:
    @pytest.mark.parametrize("window,stride", [(3, 1), (4, 2), (5, 3), (2, 5)])
    def test_equals_copying_variant(self, window, stride):
        frames = ramp_frames(17, d=3)
        config = WindowConfig(window, stride)
        copied, ends_copied = sliding_windows(frames, config)
        viewed, ends_viewed = sliding_windows_view(frames, config)
        np.testing.assert_array_equal(viewed, copied)
        np.testing.assert_array_equal(ends_viewed, ends_copied)

    def test_is_zero_copy(self):
        frames = ramp_frames(50)
        viewed, _ = sliding_windows_view(frames, WindowConfig(5, 1))
        assert np.shares_memory(viewed, frames)
        # A strided view owns no window-duplicated data: its base buffer
        # is exactly the frames buffer, never n_windows * window rows.
        assert viewed.base is not None
        copied, _ = sliding_windows(frames, WindowConfig(5, 1))
        assert not np.shares_memory(copied, frames)

    def test_no_window_sized_allocation(self):
        import tracemalloc

        frames = ramp_frames(5000, d=8)  # 320 kB; windowed copy ~1.6 MB
        config = WindowConfig(5, 1)
        sliding_windows_view(frames, config)  # warm-up
        tracemalloc.start()
        windows, _ = sliding_windows_view(frames, config)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The view allocates O(n_windows) index arrays but never the
        # (n_windows, window, d) window data itself.
        assert peak < windows.nbytes // 10

    def test_view_is_read_only(self):
        viewed, _ = sliding_windows_view(ramp_frames(10), WindowConfig(3, 1))
        assert not viewed.flags.writeable
        with pytest.raises(ValueError):
            viewed[0, 0, 0] = 1.0

    def test_non_float_input_converts_once(self):
        frames = np.arange(20).reshape(10, 2)  # int64
        viewed, ends = sliding_windows_view(frames, WindowConfig(3, 1))
        copied, _ = sliding_windows(frames, WindowConfig(3, 1))
        assert viewed.dtype == float
        assert not np.shares_memory(viewed, frames)  # the conversion copy
        np.testing.assert_array_equal(viewed, copied)

    def test_too_short_sequence(self):
        viewed, ends = sliding_windows_view(ramp_frames(3), WindowConfig(5, 1))
        assert viewed.shape == (0, 5, 2)
        assert ends.size == 0

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            sliding_windows_view(np.arange(10.0), WindowConfig(3, 1))


class TestWindowLabels:
    def test_last_reduce(self):
        labels = np.array([1, 1, 2, 2, 3, 3])
        out = window_labels(labels, WindowConfig(3, 1), reduce="last")
        assert out.tolist() == [2, 2, 3, 3]

    def test_any_reduce(self):
        labels = np.array([0, 1, 0, 0, 0])
        out = window_labels(labels, WindowConfig(3, 1), reduce="any")
        assert out.tolist() == [1, 1, 0]

    def test_majority_reduce(self):
        labels = np.array([5, 5, 7, 7, 7])
        out = window_labels(labels, WindowConfig(5, 1), reduce="majority")
        assert out.tolist() == [7]

    def test_majority_tie_breaks_to_lowest_label(self):
        # Documented contract: exact count ties resolve to the lowest
        # label, so a half-safe binary window reads safe.
        labels = np.array([1, 2, 1, 2])
        out = window_labels(labels, WindowConfig(2, 1), reduce="majority")
        assert out.tolist() == [1, 1, 1]
        out = window_labels(np.array([0, 1, 1, 0]), WindowConfig(4, 1), "majority")
        assert out.tolist() == [0]
        out = window_labels(np.array([9, 3, 9, 3]), WindowConfig(4, 2), "majority")
        assert out.tolist() == [3]

    def test_majority_with_stride_and_dtype(self):
        labels = np.array([4, 4, 4, 6, 6, 6, 6], dtype=np.int32)
        out = window_labels(labels, WindowConfig(3, 2), reduce="majority")
        assert out.tolist() == [4, 6, 6]
        assert out.dtype == labels.dtype

    def test_alignment_with_windows(self):
        frames = ramp_frames(20)
        labels = np.arange(20)
        cfg = WindowConfig(4, 3)
        _, ends = sliding_windows(frames, cfg)
        out = window_labels(labels, cfg, reduce="last")
        assert np.array_equal(out, labels[ends])

    def test_unknown_reduce(self):
        with pytest.raises(ShapeError):
            window_labels(np.zeros(5, dtype=int), WindowConfig(2, 1), reduce="mean")


class TestStreamingWindow:
    def test_matches_batch_extraction(self):
        frames = ramp_frames(25, 3)
        cfg = WindowConfig(5, 2)
        batch_windows, batch_ends = sliding_windows(frames, cfg)
        stream = StreamingWindow(cfg, n_features=3)
        seen = list(stream.iter_windows(frames))
        assert [t for t, _ in seen] == batch_ends.tolist()
        for (_, win), batch in zip(seen, batch_windows):
            assert np.array_equal(win, batch)

    def test_warmup_returns_none(self):
        stream = StreamingWindow(WindowConfig(4, 1), n_features=1)
        for t in range(3):
            assert stream.push(np.array([float(t)])) is None
        assert stream.push(np.array([3.0])) is not None

    def test_reset(self):
        stream = StreamingWindow(WindowConfig(2, 1), n_features=1)
        stream.push(np.array([0.0]))
        stream.reset()
        assert stream.frames_seen == 0
        assert stream.push(np.array([1.0])) is None

    def test_rejects_wrong_width(self):
        stream = StreamingWindow(WindowConfig(2, 1), n_features=2)
        with pytest.raises(ShapeError):
            stream.push(np.zeros(3))


class TestStreamingWindowBatch:
    def test_lockstep_matches_batch_extraction(self):
        cfg = WindowConfig(4, 2)
        rng = np.random.default_rng(0)
        sequences = [rng.random((15, 3)) for _ in range(3)]
        batch = StreamingWindowBatch(cfg, n_streams=3, n_features=3)
        emitted = {i: [] for i in range(3)}
        for t in range(15):
            frames = np.stack([seq[t] for seq in sequences])
            ready, windows = batch.push(frames)
            for row, i in enumerate(np.flatnonzero(ready)):
                emitted[i].append((t, windows[row]))
        for i, seq in enumerate(sequences):
            expected_windows, expected_ends = sliding_windows(seq, cfg)
            assert [t for t, _ in emitted[i]] == expected_ends.tolist()
            for (_, win), expected in zip(emitted[i], expected_windows):
                assert np.array_equal(win, expected)

    def test_staggered_subsets(self):
        # Stream 1 joins three frames late; readiness masks stay aligned
        # with the pushed subset and each stream keeps its own phase.
        cfg = WindowConfig(3, 1)
        batch = StreamingWindowBatch(cfg, n_streams=2, n_features=1)
        for t in range(3):
            ready, _ = batch.push(np.array([[float(t)]]), np.array([0]))
        assert ready[0]  # stream 0 warmed up
        ready, windows = batch.push(np.array([[3.0], [100.0]]), np.array([0, 1]))
        assert ready.tolist() == [True, False]
        assert np.array_equal(windows[0].ravel(), [1.0, 2.0, 3.0])
        assert batch.frames_seen.tolist() == [4, 1]

    def test_stride_longer_than_window(self):
        cfg = WindowConfig(2, 5)
        batch = StreamingWindowBatch(cfg, n_streams=1, n_features=1)
        emitted = []
        for t in range(12):
            ready, windows = batch.push(np.array([[float(t)]]))
            if ready[0]:
                emitted.append((t, windows[0].ravel().tolist()))
        _, ends = sliding_windows(np.arange(12.0)[:, None], cfg)
        assert [t for t, _ in emitted] == ends.tolist()
        assert emitted[0] == (1, [0.0, 1.0])
        assert emitted[1] == (6, [5.0, 6.0])

    def test_reset_subset(self):
        cfg = WindowConfig(2, 1)
        batch = StreamingWindowBatch(cfg, n_streams=2, n_features=1)
        batch.push(np.zeros((2, 1)))
        batch.push(np.ones((2, 1)))
        batch.reset(np.array([0]))
        assert batch.frames_seen.tolist() == [0, 2]
        ready, _ = batch.push(np.full((2, 1), 2.0))
        assert ready.tolist() == [False, True]

    def test_empty_push(self):
        batch = StreamingWindowBatch(WindowConfig(2, 1), n_streams=2, n_features=3)
        ready, windows = batch.push(np.empty((0, 3)), np.empty(0, dtype=int))
        assert ready.shape == (0,)
        assert windows.shape == (0, 2, 3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingWindowBatch(WindowConfig(2, 1), n_streams=0, n_features=1)
        batch = StreamingWindowBatch(WindowConfig(2, 1), n_streams=2, n_features=3)
        with pytest.raises(ShapeError):
            batch.push(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            batch.push(np.zeros((1, 3)), np.array([5]))
        with pytest.raises(ShapeError):
            batch.push(np.zeros((1, 3)), np.array([[0]]))
        with pytest.raises(ShapeError):
            batch.push(np.zeros((2, 3)), np.array([0, 0]))  # duplicate stream
        # reset() enforces the same stream_ids contract as push().
        with pytest.raises(ShapeError):
            batch.reset(np.array([-1]))
        with pytest.raises(ShapeError):
            batch.reset(np.array([5]))

    @pytest.mark.parametrize(
        "bad_ids",
        [
            np.array([1.7, 2.2]),  # would truncate to slots 1 and 2
            np.array([1.0, 2.0]),  # integral values, still not integers
            np.array([True, False]),  # would read as slots 1 and 0
            [0.5, 1],
            np.array(["0", "1"]),
            np.array([0, 1], dtype=object),
        ],
    )
    def test_non_integer_ids_are_rejected_not_truncated(self, bad_ids):
        batch = StreamingWindowBatch(WindowConfig(2, 1), n_streams=3, n_features=1)
        with pytest.raises(ShapeError):
            batch.push(np.ones((2, 1)), bad_ids)
        with pytest.raises(ShapeError):
            batch.reset(bad_ids)
        assert batch.frames_seen.tolist() == [0, 0, 0]  # no slot advanced

    def test_integer_ids_of_any_width_or_container_are_accepted(self):
        batch = StreamingWindowBatch(WindowConfig(2, 1), n_streams=3, n_features=1)
        batch.push(np.ones((2, 1)), np.array([2, 0], dtype=np.uint8))
        batch.push(np.ones((2, 1)), [1, 2])
        batch.push(np.ones((1, 1)), np.array([0], dtype=np.int32))
        batch.push(np.empty((0, 1)), [])  # an empty list has no dtype to object to
        assert batch.frames_seen.tolist() == [2, 1, 2]
        with pytest.raises(ShapeError):
            batch.push(np.ones((1, 1)), np.array([2**64 - 1], dtype=np.uint64))

    def test_windows_are_copies(self):
        batch = StreamingWindowBatch(WindowConfig(2, 1), n_streams=1, n_features=1)
        batch.push(np.array([[1.0]]))
        _, windows = batch.push(np.array([[2.0]]))
        windows[0, 0, 0] = 99.0
        _, again = batch.push(np.array([[3.0]]))
        assert np.array_equal(again[0].ravel(), [2.0, 3.0])

    @pytest.mark.parametrize("window,stride", [(4, 1), (3, 2), (2, 5), (1, 1)])
    @pytest.mark.parametrize("other", [(2, 1), (3, 3), (6, 2)])
    def test_a_deeper_ring_serves_any_window_over_the_same_frames(
        self, window, stride, other
    ):
        """One ring, ``history`` frames deep: ``windows`` reads another
        configuration's windows at the position ``push`` left the
        streams at — what a batch built for it would have emitted."""
        config, other = WindowConfig(window, stride), WindowConfig(*other)
        deep = StreamingWindowBatch(config, n_streams=3, n_features=4, history=6)
        plain = StreamingWindowBatch(config, n_streams=3, n_features=4)
        twin = StreamingWindowBatch(other, n_streams=3, n_features=4)
        columns = np.array([3, 1])
        rng = np.random.default_rng(0)
        for step in range(17):
            ids = np.array([[0, 1, 2], [2, 0], [1]][step % 3])
            frames = rng.standard_normal((ids.size, 4))
            ready, windows = deep.push(frames, ids)
            for got, want in zip((ready, windows), plain.push(frames, ids)):
                assert np.array_equal(got, want)
            want_ready, want_windows = twin.push(frames, ids)
            got_ready, got_windows = deep.windows(other, ids)
            assert np.array_equal(got_ready, want_ready)
            assert np.array_equal(got_ready, other.completes(deep.frames_seen[ids]))
            assert np.array_equal(got_windows, want_windows)
            assert np.array_equal(
                deep.windows(other, ids, columns)[1], want_windows[:, :, columns]
            )
        deep.reset([1])
        ready, windows = deep.windows(other, columns=columns)
        assert not ready[1] and windows.shape == (ready.sum(), other.window, 2)
        with pytest.raises(ShapeError):
            deep.windows(WindowConfig(7, 1), [0])  # longer than the ring remembers
        with pytest.raises(ShapeError):
            deep.windows(other, [1, 1])
        with pytest.raises(ConfigurationError):
            StreamingWindowBatch(WindowConfig(5, 1), 1, 1, history=4)

    @pytest.mark.parametrize("window,stride", [(4, 1), (3, 2), (2, 5)])
    @pytest.mark.parametrize("history", [None, 7])
    def test_a_slot_is_its_frame_count_and_its_recent_frames(
        self, window, stride, history
    ):
        """``prime`` with what ``recent_frames`` returned — at any point
        of the window cycle, into a dirty slot of another batch —
        continues the stream: emission keeps no state of its own."""
        config = WindowConfig(window, stride)
        frames = ramp_frames(20)
        for cut in range(12):
            source = StreamingWindowBatch(config, 2, 2, history=history)
            target = StreamingWindowBatch(config, 3, 2, history=history)
            for t in range(9):  # the target slot's previous tenant
                target.push(-frames[t][None, :], [2])
            for t in range(cut):
                source.push(frames[t][None, :], [1])
            kept, seen = source.recent_frames(1)
            padded = np.concatenate([np.full((3, 2), 99.0), kept])
            target.prime(2, padded, seen)  # older rows are ignored
            for t in range(cut, 20):
                want = source.push(frames[t][None, :], [1])
                got = target.push(frames[t][None, :], [2])
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    def test_prime_refuses_a_history_it_cannot_continue(self):
        batch = StreamingWindowBatch(WindowConfig(3, 1), n_streams=2, n_features=2)
        for frames, seen in [
            (np.zeros((2, 2)), 3),  # a stream at frame 3 needs 3 rows
            (np.zeros((2, 2)), 50),
            (np.zeros((3, 5)), 3),  # another width
            (np.zeros(6), 3),
            (np.zeros((0, 2)), -1),
        ]:
            with pytest.raises(ShapeError):
                batch.prime(0, frames, seen)
        with pytest.raises(ShapeError):
            batch.prime(2, np.zeros((3, 2)), 3)
        assert batch.frames_seen.tolist() == [0, 0]
        batch.prime(0, np.zeros((0, 0)), 0)  # a stream that never pushed

    def test_recent_frames_are_the_ring_in_time_order(self):
        batch = StreamingWindowBatch(WindowConfig(3, 1), n_streams=2, n_features=2)
        frames = ramp_frames(8)
        kept, seen = batch.recent_frames(1)
        assert kept.shape == (0, 2) and seen == 0
        for t in range(8):
            batch.push(frames[t][None, :], [1])
            kept, seen = batch.recent_frames(1)
            assert seen == t + 1
            assert np.array_equal(kept, frames[max(0, t - 2) : t + 1])
        kept[...] = -1.0  # a copy: the ring is untouched
        assert np.array_equal(batch.recent_frames(1)[0], frames[5:8])
        assert batch.recent_frames(0)[1] == 0
        with pytest.raises(ShapeError):
            batch.recent_frames(2)
