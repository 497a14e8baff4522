"""Sliding-window extraction over kinematics time series (paper Eq. 2).

Both stages of the monitoring pipeline consume fixed-length windows of
consecutive kinematics frames.  :func:`sliding_windows` builds them in
batch for training; :class:`StreamingWindowBatch` maintains them
incrementally for many concurrent online streams at once (the serving
hot path), and :class:`StreamingWindow` is its single-stream wrapper.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..config import WindowConfig
from ..errors import ConfigurationError, ShapeError


def sliding_windows(
    frames: np.ndarray, config: WindowConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Extract overlapping windows from a frame sequence.

    Parameters
    ----------
    frames:
        Array of shape ``(n_frames, n_features)``.
    config:
        Window length and stride.

    Returns
    -------
    windows, end_indices
        ``windows`` has shape ``(n_windows, window, n_features)``;
        ``end_indices[i]`` is the index of the *last* frame in window ``i``
        (the frame whose label the window predicts, so the online monitor
        incurs no look-ahead).
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ShapeError(f"frames must be 2-D (n_frames, n_features), got {frames.shape}")
    n = config.n_windows(frames.shape[0])
    if n == 0:
        empty = np.empty((0, config.window, frames.shape[1]))
        return empty, np.empty(0, dtype=int)
    starts = np.arange(n) * config.stride
    # Gather via advanced indexing; data volumes here are modest so a copy
    # is preferable to the aliasing pitfalls of stride tricks.
    idx = starts[:, None] + np.arange(config.window)[None, :]
    windows = frames[idx]
    end_indices = starts + config.window - 1
    return windows, end_indices


def sliding_windows_view(
    frames: np.ndarray, config: WindowConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy variant of :func:`sliding_windows`.

    Returns the same ``(windows, end_indices)`` pair, but ``windows`` is
    a **read-only strided view** over ``frames``
    (:func:`np.lib.stride_tricks.sliding_window_view`): materialising
    every window of an hour-long procedure costs O(1) memory instead of
    ``window``× the trajectory size.  This is the bulk scoring engine's
    input path (:mod:`repro.serving.bulk`) and feeds the batched
    per-window model passes of the offline pipeline.

    The view aliases ``frames``: rows overlap (each frame appears in up
    to ``window`` windows), so it is marked non-writeable — writing
    through it would corrupt neighbouring windows.  Consumers that need
    ownership must copy (standardisation and advanced-indexing gathers
    already do).  When ``frames`` is not float64 (or not an ndarray) a
    single float conversion copy is made first; the view then aliases
    that conversion, still with no per-window duplication.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ShapeError(f"frames must be 2-D (n_frames, n_features), got {frames.shape}")
    n = config.n_windows(frames.shape[0])
    if n == 0:
        empty = np.empty((0, config.window, frames.shape[1]))
        return empty, np.empty(0, dtype=int)
    # (n_frames - window + 1, window, n_features) view, one window per
    # start frame; striding the first axis applies the configured hop.
    view = np.lib.stride_tricks.sliding_window_view(
        frames, config.window, axis=0
    ).transpose(0, 2, 1)[:: config.stride][:n]
    view.flags.writeable = False
    end_indices = np.arange(n) * config.stride + config.window - 1
    return view, end_indices


def window_labels(
    labels: np.ndarray, config: WindowConfig, reduce: str = "last"
) -> np.ndarray:
    """Per-window labels aligned with :func:`sliding_windows`.

    ``reduce`` selects how the per-frame labels within a window collapse to
    one label:

    - ``"last"`` — label of the final frame (causal; default, matches the
      online monitor which predicts the current frame).
    - ``"majority"`` — most frequent label in the window.  Ties break to
      the **lowest** label value; this is a contract, not an accident of
      implementation, so that e.g. a half-safe/half-unsafe binary window
      resolves to 0 (safe) and re-runs are reproducible across numpy
      versions.
    - ``"any"`` — for binary 0/1 labels, 1 if any frame is 1 (the paper
      marks a whole gesture unsafe if any of its samples is erroneous).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    n = config.n_windows(labels.shape[0])
    if n == 0:
        return np.empty(0, dtype=labels.dtype)
    starts = np.arange(n) * config.stride
    if reduce == "last":
        return labels[starts + config.window - 1]
    idx = starts[:, None] + np.arange(config.window)[None, :]
    gathered = labels[idx]
    if reduce == "any":
        return (gathered != 0).any(axis=1).astype(labels.dtype)
    if reduce == "majority":
        # Vectorized per-row mode in O(n_windows * window) memory: sort
        # each window, run-length encode, take each row's longest run.
        # Runs are value-ascending and argmax returns the first maximum,
        # which yields the lowest-label-wins contract.
        ordered = np.sort(gathered, axis=1)
        window = ordered.shape[1]
        starts = np.concatenate(
            [np.ones((n, 1), dtype=bool), ordered[:, 1:] != ordered[:, :-1]],
            axis=1,
        )
        run_ids = np.cumsum(starts, axis=1) - 1  # at most `window` runs/row
        run_lengths = np.zeros((n, window), dtype=np.int64)
        np.add.at(run_lengths, (np.arange(n)[:, None], run_ids), 1)
        best_run = np.argmax(run_lengths, axis=1)
        first_of_best = np.argmax(run_ids == best_run[:, None], axis=1)
        return ordered[np.arange(n), first_of_best]
    raise ShapeError(f"unknown reduce mode {reduce!r}")


class StreamingWindowBatch:
    """Ring-buffered sliding windows over many concurrent streams.

    The serving hot path: a preallocated ``(n_streams, history,
    n_features)`` buffer absorbs one new frame per pushed stream per call
    and reports — with a vectorized readiness mask, no per-stream Python
    state — which streams completed a window on this push.  Stream slots
    advance independently, so sessions that joined at different times can
    share one batch.

    Emission semantics per stream are identical to pushing that stream's
    frames one-by-one through a :class:`StreamingWindow`: the first window
    emits once ``window`` frames arrived, subsequent windows every
    ``stride`` frames after that.

    A slot is its frame count and its last ``history`` frames, nothing
    else: :meth:`recent_frames` reads that pair out and :meth:`prime`
    starts a slot from it.  ``history`` defaults to the configured
    window; a longer ring also serves windows of *other* configurations
    over the same frames (:meth:`windows`), which is how the serving
    engine runs both pipeline stages off one ring.
    """

    def __init__(
        self,
        config: WindowConfig,
        n_streams: int,
        n_features: int,
        history: int | None = None,
    ) -> None:
        if n_streams < 1:
            raise ConfigurationError("n_streams must be >= 1")
        if n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        history = config.window if history is None else int(history)
        if history < config.window:
            raise ConfigurationError("history must cover the configured window")
        self._config = config
        self._n_streams = int(n_streams)
        self._n_features = int(n_features)
        self._history = history
        self._buffer = np.zeros((n_streams, history, n_features))
        self._seen = np.zeros(n_streams, dtype=np.int64)
        self._orders: dict[int, np.ndarray] = {}  # _order's tables
        self._all_ids = np.arange(n_streams)

    @property
    def config(self) -> WindowConfig:
        """The window configuration this batch was built with."""
        return self._config

    @property
    def n_streams(self) -> int:
        """Number of stream slots in the buffer."""
        return self._n_streams

    @property
    def n_features(self) -> int:
        """Feature width of each frame."""
        return self._n_features

    @property
    def frames_seen(self) -> np.ndarray:
        """Per-stream count of frames pushed since the last reset (copy)."""
        return self._seen.copy()

    def push(
        self, frames: np.ndarray, stream_ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance a set of streams by one frame each.

        Parameters
        ----------
        frames:
            Array of shape ``(n_pushed, n_features)``: one new frame per
            pushed stream, aligned with ``stream_ids``.
        stream_ids:
            Slot indices receiving a frame; defaults to all streams.  Must
            not contain duplicates (each stream advances by exactly one
            frame per call).

        Returns
        -------
        ready, windows
            ``ready`` is a boolean mask aligned with ``stream_ids`` marking
            streams that completed a window on this push; ``windows`` has
            shape ``(ready.sum(), window, n_features)`` with rows in
            ``stream_ids`` order, each window's frames in time order.
        """
        frames = np.asarray(frames, dtype=float)
        ids = self._check_ids(stream_ids)
        if frames.shape != (ids.size, self._n_features):
            raise ShapeError(
                f"frames must have shape ({ids.size}, {self._n_features}), "
                f"got {frames.shape}"
            )
        if ids.shape[0] == 1:
            # One stream (a lone session's tick): the same bookkeeping
            # in Python ints, where every numpy call on a one-element
            # array costs more than the work it does.
            slot = int(ids[0])
            seen = int(self._seen[slot]) + 1
            self._seen[slot] = seen
            self._buffer[slot, (seen - 1) % self._history] = frames[0]
            window = self._config.window
            if not self._config.completes(seen):
                return np.zeros(1, dtype=bool), np.empty((0, window, self._n_features))
            order = self._order(window)[seen % self._history]
            return np.array([True]), self._buffer[slot].take(order, axis=0)[None]
        seen = self._seen[ids] + 1  # counting this frame, frame seen - 1
        self._buffer[ids, (seen - 1) % self._history] = frames
        self._seen[ids] = seen
        return self._latest(self._config, ids, seen)

    def windows(
        self,
        config: WindowConfig,
        stream_ids: np.ndarray | None = None,
        columns: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """What each stream's last :meth:`push` would have returned had
        the batch been built with ``config`` (any window up to the
        ring's ``history``; :class:`ShapeError` beyond) — with
        ``columns``, over those feature columns only."""
        ids = self._check_ids(stream_ids)
        return self._latest(config, ids, self._seen[ids], columns)

    def _latest(
        self, config: WindowConfig, ids: np.ndarray, seen: np.ndarray, columns=None
    ) -> tuple[np.ndarray, np.ndarray]:
        window = config.window
        if window > self._history:
            raise ShapeError(
                f"the ring keeps {self._history} frames per stream, "
                f"too few for windows of {window}"
            )
        ready = config.completes(seen)
        ready_ids = ids[ready]
        if ready_ids.size == 0:
            width = self._n_features if columns is None else len(columns)
            return ready, np.empty((0, window, width))
        order = self._order(window).take(seen[ready] % self._history, axis=0)
        if columns is None:
            return ready, self._buffer[ready_ids[:, None], order]
        return ready, self._buffer[ready_ids[:, None, None], order[:, :, None], columns]

    def _order(self, window: int) -> np.ndarray:
        """Ring positions of a ``window``-frame window, in time order,
        by the ring position of the frame after it.

        Frame ``t`` of a stream lives at ring position ``t % history``,
        so where the window completed by a stream's ``seen``-th frame
        lies depends on ``seen % history`` only: one row per position.
        """
        order = self._orders.get(window)
        if order is None:
            ends = np.arange(self._history)[:, None]
            order = (ends - window + np.arange(window)) % self._history
            self._orders[window] = order
        return order

    def reset(self, stream_ids: np.ndarray | None = None) -> None:
        """Restore fresh-stream state for some (default: all) streams."""
        self._seen[self._check_ids(stream_ids)] = 0

    def recent_frames(self, stream_id: int) -> tuple[np.ndarray, int]:
        """One slot's retained frames in time order, and its frame count.

        The last ``min(seen, history)`` frames the stream pushed (a
        copy): everything the ring still knows about the stream's past,
        which is what state derived from it is rebuilt from, and all
        :meth:`prime` needs to continue the stream in another batch.
        """
        slot = self._check_ids(np.array([stream_id]))[0]
        seen = int(self._seen[slot])
        kept = min(seen, self._history)
        return self._buffer[slot, np.arange(seen - kept, seen) % self._history], seen

    def prime(self, stream_id: int, frames: np.ndarray, seen: int) -> None:
        """Start one slot from a :meth:`recent_frames` pair.

        ``frames`` are the stream's most recent frames in time order —
        its last ``min(seen, history)`` at least; older rows are ignored
        — and ``seen`` its frame count: the slot then emits the windows
        that stream would have (:class:`ShapeError` when the rows do
        not cover that history or have another width).
        """
        slot = self._check_ids(np.array([stream_id]))[0]
        frames = np.asarray(frames, dtype=float)
        seen = int(seen)
        kept = min(seen, self._history)
        if seen < 0 or frames.ndim != 2 or frames.shape[0] < kept or (
            kept and frames.shape[1] != self._n_features
        ):
            raise ShapeError(
                f"a stream at frame {seen} is primed from its last {kept} "
                f"frames of width {self._n_features}, got shape {frames.shape}"
            )
        if kept:
            order = np.arange(seen - kept, seen) % self._history
            self._buffer[slot, order] = frames[-kept:]
        self._seen[slot] = seen

    def _check_ids(self, stream_ids: np.ndarray | None) -> np.ndarray:
        """Validate stream indices: integers, 1-D, in range, no duplicates."""
        if stream_ids is None:
            return self._all_ids
        ids = np.asarray(stream_ids)
        if ids.size and ids.dtype.kind not in "iu":
            # A float or bool id would otherwise be truncated to a slot
            # it does not name (1.7 -> 1, True -> 1).
            raise ShapeError(
                f"stream_ids must be integers, got dtype {ids.dtype}"
            )
        ids = ids.astype(np.intp, copy=False)
        if ids.ndim != 1:
            raise ShapeError(f"stream_ids must be 1-D, got shape {ids.shape}")
        # As Python ints: a tick's few ids are checked in well under a
        # microsecond each, where every numpy reduction costs one.
        values = ids.tolist()
        if values and (min(values) < 0 or max(values) >= self._n_streams):
            raise ShapeError(
                f"stream_ids must lie in [0, {self._n_streams}), got "
                f"[{min(values)}, {max(values)}]"
            )
        if len(values) > 1 and len(set(values)) != len(values):
            raise ShapeError("stream_ids must not contain duplicates")
        return ids


class StreamingWindow:
    """Incrementally maintained sliding window for one online stream.

    A thin single-stream wrapper over :class:`StreamingWindowBatch`: push
    frames one at a time with :meth:`push`; once ``window`` frames have
    accumulated every subsequent push (at multiples of ``stride``) yields
    a ready window.

    Example
    -------
    >>> sw = StreamingWindow(WindowConfig(window=3, stride=1), n_features=2)
    >>> for t in range(5):
    ...     ready = sw.push(np.full(2, float(t)))
    """

    def __init__(self, config: WindowConfig, n_features: int) -> None:
        self._batch = StreamingWindowBatch(config, 1, n_features)

    @property
    def config(self) -> WindowConfig:
        """The window configuration this stream was built with."""
        return self._batch.config

    @property
    def frames_seen(self) -> int:
        """Total number of frames pushed so far."""
        return int(self._batch.frames_seen[0])

    def push(self, frame: np.ndarray) -> np.ndarray | None:
        """Append a frame; return the current window when one is due.

        Returns ``None`` while the buffer is warming up or between strides.
        """
        frame = np.asarray(frame, dtype=float)
        if frame.shape != (self._batch.n_features,):
            raise ShapeError(
                f"frame must have shape ({self._batch.n_features},), got {frame.shape}"
            )
        ready, windows = self._batch.push(frame[None, :])
        return windows[0] if ready[0] else None

    def reset(self) -> None:
        """Clear the buffer (e.g. at a trajectory boundary)."""
        self._batch.reset()

    def iter_windows(self, frames: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(end_frame_index, window)`` pairs for a whole sequence.

        Convenience wrapper equivalent to pushing every row of ``frames``.
        """
        frames = np.asarray(frames, dtype=float)
        for t in range(frames.shape[0]):
            ready = self.push(frames[t])
            if ready is not None:
                yield t, ready
