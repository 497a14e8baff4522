"""The end-to-end online safety monitor.

Combines the two trained stages (paper Figure 4): the gesture classifier
infers the operational context per frame, which selects the
gesture-specific erroneous-gesture classifier applied to the same
kinematics window.  Three operating modes reproduce the paper's
Table VIII setups:

- ``use_true_gestures=True`` — perfect gesture boundaries (upper bound);
- ``use_true_gestures=False`` — the full pipelined monitor;
- the :class:`~repro.core.baseline_monitor.BaselineMonitor` — no context.

The monitor also exposes a frame-by-frame streaming interface
(:meth:`SafetyMonitor.stream`) demonstrating real-time operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import MonitorConfig
from ..errors import NotFittedError
from ..gestures.vocabulary import Gesture
from ..kinematics.trajectory import Trajectory
from ..kinematics.windows import sliding_windows_view
from ..nn.model import PREDICT_CHUNK
from .error_classifiers import ErrorClassifierLibrary
from .gesture_classifier import GestureClassifier


@dataclass
class MonitorOutput:
    """Per-frame outputs of one monitored demonstration.

    Attributes
    ----------
    gestures:
        Predicted (or ground-truth, in perfect-boundary mode) gesture
        numbers per frame.
    unsafe_scores:
        Unsafe probability per frame (0 before the first full window).
    unsafe_flags:
        Thresholded binary decisions per frame.
    gesture_ms / error_ms:
        Mean per-window inference latency of each stage.  Under the bulk
        engine (:class:`repro.serving.bulk.BulkScorer`) each
        stage runs as one fused batch, so these are **amortised** values
        (stage wall-clock divided by window count) rather than observed
        per-window latencies; ``compute_ms`` stays comparable across
        engines, but latency *distributions* only exist for the looped
        and streaming paths.
    metadata:
        Free-form provenance.  Always carries ``use_true_gestures``;
        bulk-engine outputs add ``engine="bulk"``, ``backend``,
        ``n_windows``, ``wall_ms`` (end-to-end wall-clock of the fused
        pass) and ``bulk_fps`` (trajectory frames per second).
    """

    gestures: np.ndarray
    unsafe_scores: np.ndarray
    unsafe_flags: np.ndarray
    gesture_ms: float
    error_ms: float
    metadata: dict = field(default_factory=dict)

    @property
    def compute_ms(self) -> float:
        """Total mean per-window latency of the pipeline."""
        return self.gesture_ms + self.error_ms


def forward_fill_scores(scores: np.ndarray, scored: np.ndarray) -> np.ndarray:
    """Give every frame the score of the most recent scored frame.

    ``scores`` holds a fresh value wherever ``scored`` is set; a running
    maximum over the scored frame indices finds each frame's source (0.0
    while none exists yet).  Shared by the offline scorers;
    :meth:`SafetyMonitor.process` keeps its own copy of these three
    lines because it is the oracle they are compared against.
    """
    source = np.maximum.accumulate(np.where(scored, np.arange(scored.size), -1))
    return np.where(source >= 0, scores[np.maximum(source, 0)], 0.0)


class SafetyMonitor:
    """Two-stage context-aware anomaly detector."""

    def __init__(
        self,
        gesture_classifier: GestureClassifier,
        library: ErrorClassifierLibrary,
        config: MonitorConfig | None = None,
        threshold: float = 0.5,
    ) -> None:
        self.gesture_classifier = gesture_classifier
        self.library = library
        self.config = config or MonitorConfig()
        self.threshold = float(threshold)

    # ------------------------------------------------------------------
    def process(
        self, trajectory: Trajectory, use_true_gestures: bool = False
    ) -> MonitorOutput:
        """Run the full pipeline over one demonstration (batched).

        With ``use_true_gestures`` the context stage is bypassed and the
        annotated gesture labels select the error classifiers — the
        paper's "perfect gesture boundaries" upper bound.

        This is the looped reference path: one model call per gesture
        group, always the reference float operations.  Sweeps over many
        procedures, and any other inference backend, go through
        :class:`repro.serving.bulk.BulkScorer`, whose ``reference``
        output is bit-identical to this method's (the parity contract
        in :mod:`repro.serving.bulk`).
        """
        from ..serving.service import reject_non_finite

        reject_non_finite("process()", trajectory.frames)
        if use_true_gestures:
            if trajectory.gestures is None:
                raise NotFittedError("perfect-boundary mode needs gesture labels")
            gestures = trajectory.gestures.copy()
            gesture_ms = 0.0
        else:
            gestures, gesture_ms = self.gesture_classifier.predict_frames(trajectory)

        cfg = self.config.error_window
        frames = trajectory.frames
        # Zero-copy strided view: the per-gesture gathers below copy only
        # the windows they score, never the full windowed tensor.
        windows, ends = sliding_windows_view(frames, cfg)
        n_frames = trajectory.n_frames
        scores = np.zeros(n_frames)
        flags = np.zeros(n_frames, dtype=int)

        # Group windows by the gesture active at their final frame so each
        # classifier runs once per batch.
        window_gestures = gestures[ends]
        if not use_true_gestures:
            # predict_frames backfills frames before the first complete
            # gesture window with the first prediction; the online monitor
            # has no context there yet.  Treat error windows ending in that
            # warm-up as context-unknown (safe) so process() stays causal
            # and bit-identical to stream()/the serving engine.
            context_start = self.gesture_classifier.config.window.window - 1
            window_gestures = np.where(ends >= context_start, window_gestures, 0)
        scored = np.zeros(n_frames, dtype=bool)
        error_ms_total = 0.0
        n_timed = 0
        for gesture_number in np.unique(window_gestures):
            mask = window_gestures == gesture_number
            scored[ends[mask]] = True  # a constant classifier scores 0 (safe)
            if gesture_number < 1:
                continue  # no gesture context yet (shorter than one window)
            clf = self.library.classifiers.get(Gesture(int(gesture_number)))
            if clf is None:
                continue
            # A chunk of the group's windows at a time: only that
            # chunk is ever gathered and standardised.
            rows = np.flatnonzero(mask)
            for start in range(0, rows.size, PREDICT_CHUNK):
                chunk = rows[start : start + PREDICT_CHUNK]
                probs, per_window_ms = clf.timed_predict_proba(windows[chunk])
                error_ms_total += per_window_ms * chunk.size
                scores[ends[chunk]] = probs
            n_timed += rows.size
        error_ms = error_ms_total / n_timed if n_timed else 0.0

        # Propagate the last windowed score forward so every frame after
        # the first window carries the monitor's current belief (matters
        # for stride > 1 and for the trailing frames of a demonstration):
        # running maximum over scored frame indices finds, per frame, the
        # most recent frame with a fresh score (-1 while none exists yet).
        source = np.maximum.accumulate(
            np.where(scored, np.arange(n_frames), -1)
        )
        scores = np.where(source >= 0, scores[np.maximum(source, 0)], 0.0)
        flags = (scores >= self.threshold).astype(int)

        return MonitorOutput(
            gestures=gestures,
            unsafe_scores=scores,
            unsafe_flags=flags,
            gesture_ms=gesture_ms,
            error_ms=error_ms,
            metadata={"use_true_gestures": use_true_gestures},
        )

    # ------------------------------------------------------------------
    def stream(self, trajectory: Trajectory, backend: str = "reference"):
        """Frame-by-frame streaming inference (generator).

        Yields ``(frame_index, gesture_number, unsafe_probability,
        latency_ms)`` per frame, exactly as an online deployment at the
        robot's control-system output stage would observe them.

        This is a thin one-session wrapper over the batched serving
        engine (:class:`repro.serving.MonitorService`), so a standalone
        stream and a session inside a multi-stream service produce
        bit-identical gestures and scores.  ``backend`` selects the
        inference backend (see :data:`repro.nn.backends.BACKEND_NAMES`);
        the default ``"reference"`` carries the bit-exact parity
        contract, the compiled backends trade it for speed
        (``atol=1e-6``).
        """
        from ..serving.service import MonitorService

        service = MonitorService(self, max_sessions=1, backend=backend)
        # Consumers read the yielded events; skip the per-frame timeline.
        session_id = service.open_session(record_timeline=False)
        service.feed(session_id, trajectory.frames)
        for _ in range(trajectory.n_frames):
            start = time.perf_counter()
            event = service.tick()[0]
            latency_ms = 1000.0 * (time.perf_counter() - start)
            yield event.frame_index, event.gesture, event.score, latency_ms
