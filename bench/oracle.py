"""Oracles and the stream check every workload's outputs go through.

The oracle is an in-process :class:`repro.serving.MonitorService` fed the
same frames, run outside any timed window.  :func:`count_failed` is the
one place a delivered stream is compared with it, so a flipped score
bit, a dropped frame and an ``error`` event all count the same way in
every workload: each expected frame without a correct, in-order,
error-free event is one failed operation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Stream(NamedTuple):
    """One session's expected per-frame outputs, indexed by frame."""

    gestures: np.ndarray  # int64
    scores: np.ndarray  # float64
    flags: np.ndarray  # bool

    def prefix(self, n: int) -> "Stream":
        """The first ``n`` frames (the pipeline is causal)."""
        return Stream(self.gestures[:n], self.scores[:n], self.flags[:n])


def oracle_streams(
    monitor, frames_by_session: dict[str, np.ndarray], backend: str = "reference"
) -> dict[str, Stream]:
    """Expected streams from one in-process service over all sessions."""
    from repro.serving import MonitorService

    service = MonitorService(
        monitor, max_sessions=max(1, len(frames_by_session)), backend=backend
    )
    for session_id, frames in frames_by_session.items():
        service.open_session(session_id, record_timeline=True)
        if frames.shape[0]:
            service.feed(session_id, frames)
    service.drain(collect=False)
    out = {}
    for session_id in frames_by_session:
        result = service.close_session(session_id)
        out[session_id] = Stream(
            np.asarray(result.gestures, dtype=np.int64),
            np.asarray(result.unsafe_scores, dtype=np.float64),
            np.asarray(result.unsafe_flags, dtype=bool),
        )
    return out


def count_failed(expected: Stream, events, atol: float | None = None) -> int:
    """Failed operations in one session's delivered event list.

    ``events`` are :class:`repro.serving.SessionEvent`-shaped objects in
    arrival order.  With ``atol=None`` scores must match bit for bit;
    otherwise within ``atol`` (gestures and flags always exactly).
    """
    n = expected.gestures.shape[0]
    m = len(events)
    idx = np.fromiter((e.frame_index for e in events), np.int64, m)
    gestures = np.fromiter((e.gesture for e in events), np.int64, m)
    scores = np.fromiter((e.score for e in events), np.float64, m)
    flags = np.fromiter((bool(e.flag) for e in events), bool, m)
    errored = np.fromiter((e.error is not None for e in events), bool, m)
    in_range = (idx >= 0) & (idx < n)
    in_order = np.ones(m, dtype=bool)
    if m > 1:
        in_order[1:] = idx[1:] > np.maximum.accumulate(idx)[:-1]
    good = in_range & in_order & ~errored
    at = idx[good]
    if atol is None:
        score_ok = scores[good].view(np.int64) == expected.scores[at].view(np.int64)
    else:
        score_ok = np.abs(scores[good] - expected.scores[at]) <= atol
    match = (
        (gestures[good] == expected.gestures[at])
        & score_ok
        & (flags[good] == expected.flags[at])
    )
    delivered = np.zeros(n, dtype=bool)
    delivered[at[match]] = True
    return int(n - delivered.sum()) + int((~in_range).sum())
