"""Bulk offline scoring: whole procedures, one backend call per stage.

The serving stack's second workload.  The online half
(:class:`~repro.serving.service.MonitorService`) advances live sessions
one frame per tick; the eval half — the fault-injection campaign and
every table/figure experiment — replays *recorded* procedures, where all
frames exist up front and tick-by-tick causality buys nothing.
:class:`BulkScorer` exploits that: it materialises every sliding window
of a trajectory as a zero-copy strided view
(:func:`~repro.kinematics.windows.sliding_windows_view`) and hands each
pipeline stage the full ``(n_windows, window, features)`` batch in
**one** call to the :class:`~repro.nn.backends.InferenceBackend` bulk
entry points (``forward_bulk`` / ``score_bulk``), then vectorises the
post-processing (per-gesture classifier dispatch as a grouped
gather/scatter, forward-fill as one running maximum).  How a backend
walks the batch is its own business, in bounded memory either way: the
reference backend in chunks of a few dozen windows (the gesture LSTM
stack time-major, each frame of the view projected once per chunk,
read off the view's strides), the compiled plans in slabs whose scratch
stays under a byte budget.

Correctness contract (pinned by ``tests/property/test_bulk_parity.py``):

- ``backend="reference"`` — **bit-identical** to the looped
  :meth:`~repro.core.pipeline.SafetyMonitor.process` (and therefore to
  ``stream()`` and the serving engines wherever those agree with
  ``process()``): the reference backend executes the identical float
  operation sequence, and batch-invariant inference makes the fused
  batch indistinguishable from any other batching.
- ``backend="compiled"`` / ``"compiled-f32"`` — gestures and flags
  exact in practice (discrete outputs), scores within ``atol=1e-6``
  (``~1e-3`` relative for f32): the compiled plan folds the scaler and
  hands BLAS whole slabs of windows, giving up the reference contraction's
  batch-invariant bits.

Hostile input: a procedure with any NaN or ±Inf frame is refused whole
(``DatasetError``, nothing scored) — the same ingress check as
``MonitorService.feed``, so no path turns a poisoned window into a
silent ``score=nan, flag=0`` verdict.

Timing contract: per-window latency means are meaningless for one fused
batch, so the returned :class:`~repro.core.pipeline.MonitorOutput`
carries *amortised* ``gesture_ms``/``error_ms`` (stage wall-clock over
window count) and puts the authoritative bulk numbers in ``metadata``:
``wall_ms`` (end-to-end) and ``bulk_fps`` (frames per second through
the fused pipeline).  See the class docstring.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.pipeline import MonitorOutput, SafetyMonitor, forward_fill_scores
from ..errors import NotFittedError
from ..kinematics.trajectory import Trajectory
from ..kinematics.windows import sliding_windows_view
from ..nn.backends import (
    DEFAULT_BACKEND,
    InferenceBackend,
    LibraryBackend,
    make_backend,
    validate_backend_name,
)
from .service import reject_non_finite

__all__ = ["BulkScorer", "score_procedure", "score_procedures"]


class BulkScorer:
    """Score whole recorded procedures in one batched pass per stage.

    Parameters
    ----------
    monitor:
        The trained two-stage :class:`SafetyMonitor` to serve.
    backend:
        Inference backend name (:data:`repro.nn.backends.BACKEND_NAMES`).
        ``"reference"`` (default) keeps the bit-exact parity contract
        with the looped ``process()``, in chunks of windows whose
        temporaries do not grow with the procedure;
        ``"compiled"``/``"compiled-f32"`` run the folded BLAS plans
        through the backends' cached bulk twins, grown with the
        procedures up to a byte budget of scratch.

    One backend per trained model is compiled on first use and cached by
    model identity (same retrain contract as
    :class:`~repro.serving.service.MonitorService`: ``fit()`` rebinds
    ``.model``, which invalidates the cache), so a scorer amortises
    compilation across a whole evaluation sweep — score one fold's 39
    test procedures, the campaign's hundreds of injections, all against
    the same handful of plans.

    Output contract
    ---------------
    :meth:`score` returns a :class:`MonitorOutput` whose ``gestures`` /
    ``unsafe_scores`` / ``unsafe_flags`` follow the ``process()``
    contract exactly.  ``gesture_ms``/``error_ms`` are **amortised**
    per-window stage latencies (stage wall-clock divided by window
    count — the fused batch has no per-window latency to report), and
    ``metadata`` carries the bulk-mode fields: ``engine="bulk"``,
    ``backend``, ``n_windows`` (error-stage windows scored),
    ``wall_ms`` (end-to-end wall-clock of the whole pass) and
    ``bulk_fps`` (trajectory frames per second through the pipeline).
    """

    def __init__(
        self, monitor: SafetyMonitor, backend: str = DEFAULT_BACKEND
    ) -> None:
        self.monitor = monitor
        self.backend = validate_backend_name(backend)
        self._gesture_backend: tuple[object, InferenceBackend] | None = None
        #: The error stage's member backends (same identity contract,
        #: :class:`~repro.nn.backends.LibraryBackend`), built on first use.
        self._error_library: LibraryBackend | None = None

    # ------------------------------------------------------------------
    # Backend cache (model identity = retrain signal)
    # ------------------------------------------------------------------
    def _gesture_stage(self) -> InferenceBackend:
        classifier = self.monitor.gesture_classifier
        classifier._check_fitted()
        model = classifier.model
        assert model is not None
        if self._gesture_backend is None or self._gesture_backend[0] is not model:
            self._gesture_backend = (
                model,
                make_backend(self.backend, classifier.scaler, model),
            )
        return self._gesture_backend[1]

    def _error_member(self, gesture: int) -> InferenceBackend | None:
        """The gesture's error backend, or ``None`` for constant-safe."""
        clf = self.monitor.library.classifiers.get(gesture)
        if clf is not None:
            clf._check_fitted()  # process() refuses an unfitted member too
        if self._error_library is None:
            # Only member() is asked of it (every group here is scored
            # whole), so the base owner does: no stacked parameters.
            self._error_library = LibraryBackend(
                self.monitor.library, self.backend
            )
        return self._error_library.member(gesture)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _gesture_frames(
        self, trajectory: Trajectory
    ) -> tuple[np.ndarray, float]:
        """Per-frame gesture numbers via one fused gesture-stage pass.

        Mirrors :meth:`GestureClassifier.predict_frames` operation for
        operation (same windows, same fill), with the model invocation
        routed through the backend's ``score_bulk``.
        """
        classifier = self.monitor.gesture_classifier
        backend = self._gesture_stage()
        cfg = classifier.config
        frames = trajectory.frames
        if cfg.feature_indices is not None:
            frames = frames[:, cfg.feature_indices]
        windows, ends = sliding_windows_view(frames, cfg.window)
        if ends.size == 0:
            return np.zeros(trajectory.n_frames, dtype=int), 0.0
        start_time = time.perf_counter()
        class_idx = backend.score_bulk(windows)
        elapsed_ms = 1000.0 * (time.perf_counter() - start_time)
        numbers = np.asarray(class_idx, dtype=int) + 1
        lengths = np.diff(np.append(ends, trajectory.n_frames))
        out = np.empty(trajectory.n_frames, dtype=int)
        out[: ends[0]] = numbers[0]
        out[ends[0] :] = np.repeat(numbers, lengths)
        return out, elapsed_ms

    def score(
        self, trajectory: Trajectory, use_true_gestures: bool = False
    ) -> MonitorOutput:
        """Run the full pipeline over one procedure, fully batched.

        Drop-in equivalent of
        :meth:`SafetyMonitor.process(trajectory, use_true_gestures)
        <repro.core.pipeline.SafetyMonitor.process>` — see the class
        docstring for the parity and timing contracts.
        """
        reject_non_finite("BulkScorer.score()", trajectory.frames)
        wall_start = time.perf_counter()
        gesture_wall_ms = 0.0
        n_gesture_windows = 0
        if use_true_gestures:
            if trajectory.gestures is None:
                raise NotFittedError("perfect-boundary mode needs gesture labels")
            gestures = trajectory.gestures.copy()
        else:
            gestures, gesture_wall_ms = self._gesture_frames(trajectory)
            n_gesture_windows = self.monitor.gesture_classifier.config.window.n_windows(
                trajectory.n_frames
            )

        cfg = self.monitor.config.error_window
        n_frames = trajectory.n_frames
        windows, ends = sliding_windows_view(trajectory.frames, cfg)
        scores = np.zeros(n_frames)

        # The grouped gather/scatter: windows are grouped by the gesture
        # active at their final frame, each group scored by its
        # classifier in one fused pass, probabilities scattered back to
        # the group's end frames.
        window_gestures = gestures[ends]
        if not use_true_gestures:
            # Same causality clamp as process(): error windows ending in
            # the gesture stage's warm-up see no context yet.
            context_start = self.monitor.gesture_classifier.config.window.window - 1
            window_gestures = np.where(ends >= context_start, window_gestures, 0)
        scored = np.zeros(n_frames, dtype=bool)
        error_wall_ms = 0.0
        for gesture_number in np.unique(window_gestures):
            mask = window_gestures == gesture_number
            scored[ends[mask]] = True  # a constant classifier scores 0 (safe)
            if gesture_number < 1:
                continue  # no gesture context yet (shorter than one window)
            backend = self._error_member(int(gesture_number))
            if backend is None:
                continue
            stage_start = time.perf_counter()
            probs = backend.forward_bulk(windows[mask]).reshape(-1)
            error_wall_ms += 1000.0 * (time.perf_counter() - stage_start)
            scores[ends[mask]] = probs

        scores = forward_fill_scores(scores, scored)
        flags = (scores >= self.monitor.threshold).astype(int)

        wall_ms = 1000.0 * (time.perf_counter() - wall_start)
        n_windows = int(ends.size)
        return MonitorOutput(
            gestures=gestures,
            unsafe_scores=scores,
            unsafe_flags=flags,
            gesture_ms=(
                gesture_wall_ms / n_gesture_windows if n_gesture_windows else 0.0
            ),
            error_ms=error_wall_ms / n_windows if n_windows else 0.0,
            metadata={
                "use_true_gestures": use_true_gestures,
                "engine": "bulk",
                "backend": self.backend,
                "n_windows": n_windows,
                "wall_ms": wall_ms,
                "bulk_fps": n_frames / (wall_ms / 1000.0) if wall_ms > 0 else 0.0,
            },
        )

    def score_many(
        self,
        trajectories: list[Trajectory],
        use_true_gestures: bool = False,
    ) -> list[MonitorOutput]:
        """Score a list of procedures, reusing the compiled plans.

        The convenience loop for dataset sweeps: every trajectory is
        scored by :meth:`score` against the same cached backends, so
        plan compilation is paid once per (model, backend) pair for the
        whole sweep.
        """
        return [self.score(t, use_true_gestures) for t in trajectories]


def score_procedure(
    monitor: SafetyMonitor,
    trajectory: Trajectory,
    use_true_gestures: bool = False,
    backend: str = DEFAULT_BACKEND,
) -> MonitorOutput:
    """One-shot bulk scoring of a single procedure.

    Builds a throwaway :class:`BulkScorer`; prefer constructing one
    scorer (or :func:`score_procedures`) when scoring many procedures,
    so compiled plans are reused.
    """
    return BulkScorer(monitor, backend=backend).score(trajectory, use_true_gestures)


def score_procedures(
    monitor: SafetyMonitor,
    trajectories: list[Trajectory],
    use_true_gestures: bool = False,
    backend: str = DEFAULT_BACKEND,
) -> list[MonitorOutput]:
    """Bulk-score a list of procedures with one shared scorer."""
    return BulkScorer(monitor, backend=backend).score_many(
        trajectories, use_true_gestures
    )
