"""Multi-stream monitoring service: the batched online serving engine.

The paper frames deployment as continuous runtime monitoring of live
procedures, which means many simultaneous sessions rather than one
offline replay.  :class:`MonitorService` manages N concurrent trajectory
sessions (open / feed / close lifecycle) against a single trained
:class:`~repro.core.pipeline.SafetyMonitor`.  Each :meth:`MonitorService.tick`
advances every session with pending frames by one frame and runs each
pipeline stage **once** across all sessions — one model invocation per
stage per tick, instead of one per stream — via the ring-buffered
:class:`~repro.kinematics.windows.StreamingWindowBatch`; a tick is the
engine step :meth:`MonitorService.advance` at one frame, and a fleet
worker's round is that step at up to eight, its error stage run once.  The error
stage belongs to one owner, the library backend
(:mod:`repro.nn.backends.library`): under the reference backend the
gesture contexts of a tick share one stacked forward, the same bits as
one call per gesture-specific classifier.  The gesture
stage does not re-run its LSTM over each completed window: it keeps
every session's in-flight windows as chains of LSTM state and advances
them one step per frame (:mod:`repro.nn.backends.stepper`), which is
the same arithmetic on every element and, under the reference backend,
the same bits.  Both stages read one full-width frame ring per session,
``W = max(gesture window, error window)`` frames long: a session *is*
its stream position, those frames, the last emitted gesture and score,
and its unprocessed input (:class:`SessionState`).  Chains are derived
from the ring — rebuilt at :meth:`MonitorService.import_session` and
when the gesture model is rebound — and are no part of that state.

Model invocations go through a pluggable
:class:`~repro.nn.backends.InferenceBackend` (the ``backend``
constructor argument).  The default ``"reference"`` backend is
bit-exact and batch-size invariant (see
:meth:`repro.nn.Sequential.predict_proba`), so a session served here
emits bit-for-bit the same gestures and scores as an isolated
:meth:`~repro.core.pipeline.SafetyMonitor.stream` run over the same
frames — the parity test suite locks this in.  The ``"compiled"`` /
``"compiled-f32"`` backends trade that bit-exactness (they agree within
``atol=1e-6``) for roughly half the tick cost: folded scalers, BLAS
contractions and zero steady-state allocations (see
:mod:`repro.nn.backends` and ``docs/serving.md``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError, DatasetError, ShapeError
from ..kinematics.windows import StreamingWindowBatch
from ..nn.backends import (
    DEFAULT_BACKEND,
    InferenceBackend,
    LibraryBackend,
    StreamStepper,
    make_backend,
    make_library_backend,
    validate_backend_name,
)
from ..nn.layers.contract import numerics_fingerprint
from .telemetry import Counter, Histogram, TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> serving)
    from ..core.pipeline import SafetyMonitor
    from .eventstore import EventStoreWriter


def reject_non_finite(source: str, frames: np.ndarray) -> None:
    """The ingress check of every scoring path, online (``feed``) and
    offline (``process()``, ``BulkScorer.score``): one NaN would
    otherwise poison ``window`` frames of scores into silent
    ``flag=False`` verdicts.  ``source`` names the session or call."""
    if not np.isfinite(frames).all():
        raise DatasetError(
            f"frames for {source!r} contain non-finite values (NaN/Inf); "
            f"rejected whole: nothing scored, no state changed"
        )


@dataclass(frozen=True)
class SessionEvent:
    """One monitored frame of one session.

    Mirrors the tuple yielded by :meth:`SafetyMonitor.stream`:
    ``gesture`` is 0 while the gesture stage is warming up, ``score`` the
    current unsafe probability, ``flag`` the thresholded decision.

    ``error`` is ``None`` for ordinary monitoring events.  The sharded
    service (:class:`~repro.serving.sharded.ShardedMonitorService`) sets
    it on the single *terminal* event it emits per session lost to a
    worker crash; such events carry ``flag=True`` — a failed monitor is
    reported unsafe, never silently safe (fail-safe contract, see
    ``docs/serving.md``).

    ``latency_us`` is observability metadata — frame ingest (``feed``)
    to event emission, in microseconds, ``0.0`` when the emitting layer
    did not measure it — and is deliberately **excluded from equality**
    (``compare=False``): two runs of the same frames are bit-identical
    on every monitored field regardless of wall-clock, which is what
    the parity and chaos suites assert.
    """

    session_id: str
    frame_index: int
    gesture: int
    score: float
    flag: bool
    error: str | None = None
    latency_us: float = field(default=0.0, compare=False, repr=False)

    @classmethod
    def failsafe(
        cls, session_id: str, frame_index: int, error: str
    ) -> "SessionEvent":
        """The terminal event of a session whose monitoring was lost.

        The one place the fail-safe contract is spelled out: ``error``
        names the cause and ``flag`` is ``True`` — a lost monitor reads
        unsafe, never silently safe.
        """
        return cls(
            session_id=session_id,
            frame_index=frame_index,
            gesture=0,
            score=0.0,
            flag=True,
            error=error,
        )


@dataclass
class SessionResult:
    """Full per-frame timeline of a closed session."""

    session_id: str
    gestures: np.ndarray
    unsafe_scores: np.ndarray
    unsafe_flags: np.ndarray

    @property
    def n_frames(self) -> int:
        """Number of frames the session processed before closing."""
        return int(self.gestures.shape[0])


@dataclass
class SessionState:
    """Complete portable state of one live session (migration unit).

    Produced by :meth:`MonitorService.export_session` and consumed by
    :meth:`MonitorService.import_session`: everything a session *is* —
    its stream position ``frames_done``, the ``recent`` frames both
    stages still window over (the last ``min(frames_done, W)``
    processed, ``W`` being :attr:`MonitorService.history_frames`), the
    sticky gesture/score (what the event of frame ``frames_done - 1``
    carried), the un-ticked ``pending`` frames and the recorded
    timeline — as plain arrays and scalars (no code, no live objects),
    so the state can cross a process boundary through the
    :mod:`repro.serving.snapshot` codec
    (:func:`~repro.serving.snapshot.session_to_bytes`).  Which windows
    are due and every LSTM chain in flight follow from position and
    frames, so no two fields can disagree about where the stream
    stands, and whoever holds those four things can write the state
    down — an engine need not have exported it.

    A session imported into any engine built from the same trained
    monitor continues *bit-identically* under the reference backend.
    Both frame arrays are ``(n, n_features)``; ``(0, 0)`` from a service
    that had not yet bound its feature width (opened, never fed).
    """

    session_id: str
    frames_done: int
    record_timeline: bool
    current_gesture: int
    current_score: float
    gestures: np.ndarray  # recorded timeline (empty when not recording)
    scores: np.ndarray
    pending: np.ndarray  # (n, n_features) un-ticked frames, feed order
    recent: np.ndarray  # (>= min(frames_done, W), n_features), time order

    @property
    def pending_frames(self) -> int:
        """Number of un-ticked frames travelling with the state."""
        return int(self.pending.shape[0])


#: Per-tick latency samples retained for percentile queries.  A service
#: monitoring live procedures ticks indefinitely (~2.6M/day at 30 Hz), so
#: the raw history must be bounded; totals keep counting past the window.
TICK_HISTORY = 65536


@dataclass
class ServiceStats:
    """Latency accounting across ticks (populated by
    :meth:`MonitorService.advance`).

    The most recent ``capacity`` per-tick latencies live in a
    preallocated ring ndarray, so :meth:`record` is one scalar store and
    the reductions (:meth:`percentile_ms`, :meth:`mean_ms`) slice the
    ring in place instead of re-materialising the history per query.
    A tick is one frame-deep advance of the pending sessions: an engine
    step of ``n`` ticks (a fleet worker's round) counts ``n`` of them in
    ``n_ticks`` and retains ``n`` samples, each the step's time over
    ``n``.  ``n_ticks``, ``frames_processed`` and ``events_emitted``
    count the full service lifetime, past the retained window, and
    :attr:`uptime_s` is monotonic wall-clock since construction —
    rebased (not reset) when the stats object crosses a worker pipe.

    ``telemetry`` is the service's :class:`TelemetryRegistry` (the one
    :attr:`MonitorService.telemetry` names): it crosses a pipe as its
    snapshot and :meth:`merge` folds it too, so one ``stats`` exchange
    answers for a shard's counters, samples and instruments.
    """

    capacity: int = TICK_HISTORY
    n_ticks: int = 0
    frames_processed: int = 0
    events_emitted: int = 0
    telemetry: TelemetryRegistry = field(
        default_factory=TelemetryRegistry, repr=False, compare=False
    )
    _ring: np.ndarray = field(init=False, repr=False, compare=False)
    _cursor: int = field(default=0, init=False, repr=False)
    _filled: int = field(default=0, init=False, repr=False)
    _started: float = field(
        default_factory=time.monotonic, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("stats capacity must be >= 1")
        self.capacity = int(self.capacity)
        self._ring = np.zeros(self.capacity)

    @property
    def uptime_s(self) -> float:
        """Monotonic seconds since this stats object started counting."""
        return time.monotonic() - self._started

    def record(self, step_ms: float, n_frames: int, ticks: int = 1) -> None:
        """Account one engine step of ``ticks`` ticks and ``n_frames``
        frames: each tick's sample is the step's time shared evenly."""
        sample = step_ms / ticks
        for _ in range(ticks):
            self._ring[self._cursor] = sample
            self._cursor = (self._cursor + 1) % self.capacity
        self._filled = min(self._filled + ticks, self.capacity)
        self.n_ticks += ticks
        self.frames_processed += n_frames
        self.events_emitted += n_frames

    @property
    def tick_ms(self) -> np.ndarray:
        """Retained per-tick latencies in chronological order (copy)."""
        if self._filled < self.capacity:
            return self._ring[: self._filled].copy()
        return np.concatenate(
            [self._ring[self._cursor :], self._ring[: self._cursor]]
        )

    def extend_ms(self, values: np.ndarray) -> None:
        """Bulk-append latency samples (chronologically ordered).

        Counters are untouched — this merges *retained windows* only;
        :meth:`merge` folds counters and window together.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size >= self.capacity:
            self._ring[:] = values[-self.capacity :]
            self._cursor = 0
            self._filled = self.capacity
            return
        first = min(self.capacity - self._cursor, values.size)
        self._ring[self._cursor : self._cursor + first] = values[:first]
        rest = values.size - first
        if rest:
            self._ring[:rest] = values[first:]
        self._cursor = (self._cursor + values.size) % self.capacity
        self._filled = min(self._filled + values.size, self.capacity)

    def merge(self, other: "ServiceStats") -> None:
        """Fold ``other``'s lifetime counters, retained latency window
        and registry into this one (a fleet aggregate over per-shard
        stats)."""
        self.n_ticks += other.n_ticks
        self.frames_processed += other.frames_processed
        self.events_emitted += other.events_emitted
        self.extend_ms(other.tick_ms)
        self.telemetry.merge(other.telemetry.snapshot())

    def __getstate__(self) -> dict:
        """Pickle only the recorded samples, not the preallocated ring,
        and the registry as its snapshot.

        Stats cross the worker pipe on every ``stats`` request; shipping
        the full ``capacity``-sized ring (512 KB at the default) for a
        handful of recorded ticks would tax every poll.
        """
        return {
            "capacity": self.capacity,
            "n_ticks": self.n_ticks,
            "frames_processed": self.frames_processed,
            "events_emitted": self.events_emitted,
            "uptime_s": self.uptime_s,
            "tick_ms": self.tick_ms,
            "telemetry": self.telemetry.snapshot(),
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.n_ticks = state["n_ticks"]
        self.frames_processed = state["frames_processed"]
        self.events_emitted = state.get("events_emitted", 0)
        # Rebase the start so uptime keeps advancing on the receiving
        # side of a pipe instead of restarting from zero.
        self._started = time.monotonic() - state.get("uptime_s", 0.0)
        self._ring = np.zeros(self.capacity)
        self._cursor = 0
        self._filled = 0
        self.extend_ms(state["tick_ms"])
        self.telemetry = TelemetryRegistry()
        self.telemetry.merge(state["telemetry"])

    def percentile_ms(self, q: float) -> float:
        """``q``-th percentile of recent per-tick latency in milliseconds."""
        if not self._filled:
            return 0.0
        return float(np.percentile(self._ring[: self._filled], q))

    def mean_ms(self) -> float:
        """Mean recent per-tick latency in milliseconds."""
        if not self._filled:
            return 0.0
        return float(np.mean(self._ring[: self._filled]))


class _Session:
    """Internal per-session state: pending input and output timeline."""

    __slots__ = (
        "id",
        "slot",
        "pending",
        "feed_ts",
        "offset",
        "backlog",
        "frames_done",
        "record_timeline",
        "gestures",
        "scores",
    )

    def __init__(self, session_id: str, slot: int, record_timeline: bool) -> None:
        self.id = session_id
        self.slot = slot
        self.pending: deque[np.ndarray] = deque()
        # One ingest timestamp per pending chunk (monotonic, taken at
        # feed()): pop_frames hands each frame its chunk's, so the
        # step reports frame-ingest→event-emission latency with one
        # perf_counter call, not one per frame.
        self.feed_ts: deque[float] = deque()
        self.offset = 0  # row cursor into the head chunk
        self.backlog = 0  # pending frames, all chunks
        self.frames_done = 0
        self.record_timeline = record_timeline
        self.gestures: list[int] = []
        self.scores: list[float] = []

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    def enqueue(self, frames: np.ndarray) -> None:
        """Queue a chunk of frames, stamped with its ingest time."""
        self.pending.append(frames)
        self.feed_ts.append(time.perf_counter())
        self.backlog += frames.shape[0]

    def pop_frames(self, count: int, views: list[np.ndarray], stamps: list[float]) -> None:
        """Take the next ``count`` pending frames: one view per pending
        chunk they come from onto ``views``, no copy, and each frame's
        chunk ingest timestamp onto ``stamps`` — so latency is reported
        per frame with one ``perf_counter`` call per step."""
        self.backlog -= count
        pending = self.pending
        while count:
            head, offset = pending[0], self.offset
            end = offset + count
            if end < head.shape[0]:
                views.append(head[offset:end])
                stamps += [self.feed_ts[0]] * count
                self.offset = end
                return
            views.append(head[offset:] if offset else head)
            stamps += [self.feed_ts.popleft()] * (head.shape[0] - offset)
            pending.popleft()
            self.offset = 0
            count = end - head.shape[0]


class EventBlock:
    """The events of one engine step (:meth:`MonitorService.advance`),
    column by column in emission order: tick-major, and within a tick
    in session opening order.

    ``sessions`` names the advanced sessions in opening order and
    ``session`` each event's index into it; ``ticks[k]`` is the number
    of events of the step's tick ``k``, so the first ``ticks[0]`` rows
    are what one :meth:`MonitorService.tick` would have returned, and so
    on.  The columns are plain lists of Python scalars, ready for
    ``numpy`` to pack or for :meth:`events` to build the
    :class:`SessionEvent` objects from, once.
    """

    __slots__ = (
        "sessions",
        "ticks",
        "session",
        "frame",
        "gesture",
        "score",
        "flag",
        "latency_us",
        "_events",
    )

    def __init__(self, sessions, ticks, session, frame, gesture, score, flag, latency_us):
        self.sessions: list[str] = sessions
        self.ticks: list[int] = ticks
        self.session: list[int] = session
        self.frame: list[int] = frame
        self.gesture: list[int] = gesture
        self.score: list[float] = score
        self.flag: list[bool] = flag
        self.latency_us: list[float] = latency_us
        self._events: list[SessionEvent] | None = None

    def __len__(self) -> int:
        return len(self.frame)

    def events(self) -> list[SessionEvent]:
        """The block as :class:`SessionEvent` objects, in its order."""
        if self._events is None:
            ids = self.sessions
            # Positional: a frozen dataclass's keywords cost a third more.
            self._events = [
                SessionEvent(ids[i], frame, gesture, score, flag, None, latency_us)
                for i, frame, gesture, score, flag, latency_us in zip(
                    self.session, self.frame, self.gesture, self.score, self.flag, self.latency_us
                )
            ]
        return self._events


class StepFailure(Exception):
    """An engine step (:meth:`MonitorService.advance`) that failed after
    some of its ticks completed.

    ``block`` holds the completed ticks' events — they were served:
    their timelines, stats and event-store records stand — and
    ``cause`` (also ``__cause__``) is the exception that stopped the
    step.  The service is in an unknown state past them.
    """

    def __init__(self, block: EventBlock, cause: Exception) -> None:
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.block = block
        self.cause = cause


class _Tick:
    """One tick of an engine step, between its gesture and error stages:
    the sessions it advances (indices into the step's, opening order),
    their rows among the step's staged frames, their slots and gestures,
    and the error windows their frames complete (``ready`` marks whose)
    with, once scored, the windows' gesture contexts and scores."""

    __slots__ = ("live", "rows", "slots", "gestures", "ready", "windows", "context", "scores")

    def __init__(self, live, rows, slots, gestures, ready, windows) -> None:
        self.live: list[int] = live
        self.rows: list[int] = rows
        self.slots: np.ndarray = slots
        self.gestures: np.ndarray = gestures
        self.ready: np.ndarray = ready
        self.windows: np.ndarray = windows
        self.context: np.ndarray | None = None
        self.scores: np.ndarray | None = None


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays end to end; the array itself when there is one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class MonitorService:
    """Serve N concurrent monitoring sessions over one trained monitor.

    Parameters
    ----------
    monitor:
        The trained two-stage :class:`SafetyMonitor` shared by all
        sessions.
    max_sessions:
        Number of preallocated stream slots (concurrently open sessions).
    backend:
        Inference backend name (see
        :data:`repro.nn.backends.BACKEND_NAMES`): ``"reference"``
        (default — bit-exact, batch-invariant), ``"compiled"``
        (folded-scaler zero-allocation plan, ``atol=1e-6`` vs the
        reference) or ``"compiled-f32"`` (additionally float32
        execution).  One backend instance is built per trained model at
        construction, with scratch sized to ``max_sessions``.
    event_store:
        Optional :class:`~repro.serving.eventstore.EventStoreWriter`
        every tick tees its events into (fire-and-forget: the writer's
        bounded ring absorbs or drop-counts, never blocks the tick).
        Leave ``None`` when a higher layer — sharded router or gateway
        — owns the tee, so each event is persisted exactly once.

    Lifecycle
    ---------
    :meth:`open_session` reserves a slot, :meth:`feed` enqueues frames
    (any number, any cadence), :meth:`tick` advances every session with
    pending input by exactly one frame and returns the resulting
    :class:`SessionEvent` per advanced session, :meth:`close_session`
    frees the slot and returns the session's full :class:`SessionResult`
    timeline.  :meth:`drain` ticks until no session has pending input.
    """

    def __init__(
        self,
        monitor: "SafetyMonitor",
        max_sessions: int = 64,
        backend: str = DEFAULT_BACKEND,
        event_store: "EventStoreWriter | None" = None,
    ) -> None:
        if max_sessions < 1:
            raise ConfigurationError("max_sessions must be >= 1")
        self.monitor = monitor
        self.max_sessions = int(max_sessions)
        self.backend = validate_backend_name(backend)
        self.stats = ServiceStats()
        self.event_store = event_store
        self.telemetry = self.stats.telemetry
        self.telemetry.label("numerics", numerics_fingerprint())
        self._sessions: dict[str, _Session] = {}
        self._free_slots: list[int] = list(range(max_sessions - 1, -1, -1))
        self._next_id = 0
        self._gesture_window = monitor.gesture_classifier.config.window
        #: ``W``: the frames of a session's past that can still shape an
        #: event — the longer of the two stages' windows.
        self.history_frames = max(
            self._gesture_window.window, monitor.config.error_window.window
        )
        # The frame ring is allocated on the first feed, when the
        # kinematics feature width becomes known.
        self._ring: StreamingWindowBatch | None = None
        self._n_features: int | None = None
        self._feature_idx: np.ndarray | None = None
        self._current_gesture = np.zeros(max_sessions, dtype=np.int64)
        self._current_score = np.zeros(max_sessions)
        #: The gesture stage's backend, cached with the *model object* it
        #: was built from — fit() rebinds ``.model`` to a new object, so
        #: identity is the retrain signal.
        self._gesture_backend: tuple[object, InferenceBackend] | None = None
        #: The gesture backend's stream stepper; ``None`` when its model
        #: does not lead with an LSTM stack (the tick then scores the
        #: ring's windows).  Replaced whenever the backend is.
        self._gesture_stepper: StreamStepper | None = None
        self._gesture_backend_or_none()
        #: The error stage's owner: every trained member's backend
        #: (same identity contract, per member) and, under
        #: ``reference``, their stacked parameters — built up front.
        self._error_library: LibraryBackend = make_library_backend(
            self.backend, monitor.library, max_batch=self.max_sessions
        )
        # The tick's instruments, bound once: the error stage's path
        # label (rewritten only when it changes) and counters here, the
        # rest on the first tick that needs them — a registry shows an
        # instrument from its first use on.
        self._error_path = self._error_library.path
        self.telemetry.label("error_path", self._error_path)
        self._member_calls = self.telemetry.counter("error_member_calls")
        self._stacked_passes = self.telemetry.counter("error_stacked_passes")
        self._latency: Histogram | None = None
        self._events_emitted: Counter | None = None
        self._events_flagged: Counter | None = None

    def _gesture_backend_or_none(self) -> InferenceBackend | None:
        """The gesture-stage backend, tracking the classifier's model.

        Backends are normally built at construction, but the pre-backend
        engine looked the model up on every tick — so a stage trained
        *after* the service was created must not be served as silently
        all-safe, and a *retrained* stage (``fit`` rebinds ``.model`` to
        a new object) must not keep serving stale weights.  Both are
        caught here by comparing model identity.

        A new backend brings a new :attr:`_gesture_stepper`: a model
        that leads with an LSTM stack is served one LSTM step per frame
        (:mod:`repro.nn.backends.stepper`), any other by scoring the
        ring's windows, and the ``gesture_path`` telemetry label says
        which.  A stepper's chains are derived from the frame ring,
        so a new one starts from the ring's view of every open session.
        """
        classifier = self.monitor.gesture_classifier
        model = classifier.model
        if model is None:
            self._gesture_backend = self._gesture_stepper = None
            return None
        if self._gesture_backend is None or self._gesture_backend[0] is not model:
            backend = make_backend(
                self.backend,
                classifier.scaler,
                model,
                max_batch=self.max_sessions,
            )
            self._gesture_backend = (model, backend)
            self._gesture_stepper = backend.stream_stepper(
                self._gesture_window, self.max_sessions
            )
            self.telemetry.label(
                "gesture_path",
                "windowed" if self._gesture_stepper is None else "stepped",
            )
            for session in self._sessions.values():
                self._rebuild_chains(session.slot)
        return self._gesture_backend[1]

    def _rebuild_chains(self, slot: int) -> None:
        """Recompute one slot's gesture chains from its ring frames."""
        if self._gesture_stepper is not None and self._ring is not None:
            frames, seen = self._ring.recent_frames(slot)
            if self._feature_idx is not None:
                frames = frames[:, self._feature_idx]
            self._gesture_stepper.rebuild(slot, frames, seen)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def n_open_sessions(self) -> int:
        """Number of currently open sessions."""
        return len(self._sessions)

    @property
    def session_ids(self) -> list[str]:
        """Open session ids in opening order."""
        return list(self._sessions)

    @property
    def has_pending(self) -> bool:
        """True while any open session has unprocessed frames."""
        return any(s.has_pending for s in self._sessions.values())

    def pending_frames(self, session_id: str) -> int:
        """Number of fed-but-unprocessed frames of one session."""
        return self._get(session_id).backlog

    def frames_done(self, session_id: str) -> int:
        """Number of frames one session has processed (ticked) so far."""
        return self._get(session_id).frames_done

    def open_session(
        self, session_id: str | None = None, record_timeline: bool = True
    ) -> str:
        """Reserve a stream slot; returns the session id.

        Parameters
        ----------
        session_id:
            Explicit id (e.g. an operating-theatre identifier), or
            ``None`` for an auto-generated ``session-NNNN`` id that is
            guaranteed not to collide with explicitly taken names.
        record_timeline:
            With ``record_timeline=False`` the session skips accumulating
            its per-frame gesture/score arrays (``close_session`` then
            returns empty timelines) — use for indefinitely long sessions
            whose consumers only read the per-tick :class:`SessionEvent`
            stream, where an unbounded timeline would leak memory.

        Returns
        -------
        str
            The session id to use with :meth:`feed` /
            :meth:`close_session`.

        Raises
        ------
        ConfigurationError
            If ``session_id`` is already open, or all ``max_sessions``
            slots are in use.

        The slot's ring-buffer window state is reset on reuse, so a new
        procedure always starts from a fresh stream.
        """
        if session_id is None:
            session_id = f"session-{self._next_id:04d}"
            self._next_id += 1
            while session_id in self._sessions:  # explicit id took the name
                session_id = f"session-{self._next_id:04d}"
                self._next_id += 1
        elif session_id in self._sessions:
            raise ConfigurationError(f"session {session_id!r} is already open")
        if not self._free_slots:
            raise ConfigurationError(
                f"all {self.max_sessions} session slots are in use"
            )
        slot = self._free_slots.pop()
        self._sessions[session_id] = _Session(session_id, slot, record_timeline)
        self._current_gesture[slot] = 0
        self._current_score[slot] = 0.0
        if self._ring is not None:
            self._ring.reset(np.array([slot]))
        if self._gesture_stepper is not None:
            self._gesture_stepper.reset(np.array([slot]))
        return session_id

    def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Enqueue kinematics frames for a session.

        Parameters
        ----------
        session_id:
            An open session (anything else raises ``DatasetError``).
        frames:
            ``(n, n_features)`` kinematics rows, or a single
            ``(n_features,)`` frame; any number, any cadence.  Frames are
            consumed one per :meth:`tick`, in feed order.  The array is
            not copied — callers must not mutate it afterwards.

        Raises
        ------
        ShapeError
            If the frame width disagrees with the width the service was
            bound to on its first feed (or with the monitor's trained
            width, checked eagerly on that first feed).
        DatasetError
            If no session ``session_id`` is open, or any value in
            ``frames`` is NaN or ±Inf (the whole batch is rejected and
            the session's pending queue and windows are untouched).

        The first successful feed allocates the service's shared ring
        buffers and permanently binds its feature width.
        """
        session = self._get(session_id)
        frames = np.asarray(frames, dtype=float)
        if frames.ndim == 1:
            frames = frames[None, :]
        if frames.ndim != 2:
            raise ShapeError(
                f"frames must be (n, n_features), got shape {frames.shape}"
            )
        if frames.shape[0] == 0:
            return
        self._ensure_buffers(frames.shape[1])
        if frames.shape[1] != self._n_features:
            raise ShapeError(
                f"service is bound to {self._n_features} features, "
                f"got frames with {frames.shape[1]}"
            )
        reject_non_finite(session_id, frames)
        session.enqueue(frames)

    def close_session(self, session_id: str) -> SessionResult:
        """Free the session's slot and return its full timeline.

        Pending (un-ticked) frames are discarded; call :meth:`drain`
        first to process them.
        """
        session = self._get(session_id)
        del self._sessions[session_id]
        self._free_slots.append(session.slot)
        scores = np.asarray(session.scores)
        return SessionResult(
            session_id=session_id,
            gestures=np.asarray(session.gestures, dtype=int),
            unsafe_scores=scores,
            unsafe_flags=(scores >= self.monitor.threshold).astype(int),
        )

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def export_session(
        self, session_id: str, *, remove: bool = False
    ) -> SessionState:
        """Snapshot one session's complete serving state.

        The returned :class:`SessionState` carries everything needed to
        continue the session elsewhere — position, recorded timeline,
        **pending (un-ticked) frames** and the frames both stages still
        window over — so no drain is required before a migration and no
        frame is ever dropped by one.

        Parameters
        ----------
        session_id:
            An open session (``DatasetError`` otherwise).
        remove:
            With ``remove=True`` the session is also evicted — its slot
            freed with no :class:`SessionResult` produced — which is the
            *migrate-out* half of a live migration.  The default leaves
            the session untouched (a consistent point-in-time copy).
        """
        session = self._get(session_id)
        if session.has_pending:
            head = session.pending[0][session.offset :]
            rest = list(session.pending)[1:]
            pending = (
                np.concatenate([head, *rest], axis=0) if rest else head.copy()
            )
        else:
            pending = np.empty((0, self._n_features or 0))
        if self._ring is not None:
            recent, _ = self._ring.recent_frames(session.slot)
        else:
            recent = np.empty((0, 0))
        state = SessionState(
            session_id=session.id,
            frames_done=session.frames_done,
            record_timeline=session.record_timeline,
            current_gesture=int(self._current_gesture[session.slot]),
            current_score=float(self._current_score[session.slot]),
            gestures=np.asarray(session.gestures, dtype=np.int64),
            scores=np.asarray(session.scores, dtype=float),
            pending=pending,
            recent=recent,
        )
        if remove:
            del self._sessions[session_id]
            self._free_slots.append(session.slot)
        return state

    def import_session(self, state: SessionState) -> str:
        """Adopt a session exported from another (or this) service, or
        written down by whoever holds what a :class:`SessionState` is.

        The receiving service must serve the same trained monitor (same
        window configurations and feature width); the next :meth:`tick`
        advances the session onto frame ``frames_done`` with the window
        contents and gesture chains an uninterrupted session would hold
        there.  The state is checked whole before a slot is taken.

        Raises
        ------
        ConfigurationError
            If the session id is already open here, or no slot is free.
        ShapeError
            If a frame array is not 2-D or not of this service's
            width, or ``recent`` has fewer than ``min(frames_done,
            history_frames)`` rows (older extra rows are ignored).
        DatasetError
            If ``recent``, ``pending`` or the sticky score holds a NaN
            or ±Inf — the same ingress rule as :meth:`feed`.
        """
        if state.session_id in self._sessions:
            raise ConfigurationError(
                f"session {state.session_id!r} is already open"
            )
        if not self._free_slots:
            raise ConfigurationError(
                f"all {self.max_sessions} session slots are in use"
            )
        recent = np.asarray(state.recent, dtype=float)
        pending = np.asarray(state.pending, dtype=float)
        done = int(state.frames_done)
        kept = min(done, self.history_frames)
        if recent.ndim != 2 or pending.ndim != 2 or not 0 <= kept <= recent.shape[0]:
            raise ShapeError(
                f"a session at frame {done} needs its last {kept} frames and its "
                f"pending ones as 2-D arrays, got {recent.shape} and {pending.shape}"
            )
        reject_non_finite(state.session_id, np.float64(state.current_score))
        for frames in (recent, pending):
            if not frames.shape[0]:
                continue
            reject_non_finite(state.session_id, frames)
            self._ensure_buffers(frames.shape[1])
            if frames.shape[1] != self._n_features:
                raise ShapeError(
                    f"service is bound to {self._n_features} features, "
                    f"imported session carries {frames.shape[1]}"
                )
        slot = self._free_slots.pop()
        if self._ring is not None:
            self._ring.prime(slot, recent, done)
        self._rebuild_chains(slot)
        session = _Session(state.session_id, slot, state.record_timeline)
        session.frames_done = done
        session.gestures = [int(g) for g in state.gestures]
        session.scores = [float(s) for s in state.scores]
        if pending.shape[0]:
            # Migrated frames are re-stamped at import: latency counts
            # time in *this* service, not transit (states don't carry
            # cross-process monotonic clocks).
            session.enqueue(pending)
        self._sessions[state.session_id] = session
        self._current_gesture[slot] = int(state.current_gesture)
        self._current_score[slot] = float(state.current_score)
        return state.session_id

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def advance(self, n: int = 1) -> EventBlock | None:
        """Advance every session with pending input by up to ``n`` frames.

        The engine's one step: ``n`` ticks at most, tick-major, each
        session advanced by ``min(n, its backlog now)`` frames — exactly
        what ``n`` successive :meth:`tick` calls with no feed between
        them would do.  Per frame, as in a tick, the gesture stage runs
        **once** across the sessions it advances — one LSTM step of
        every in-flight window chain, the completed chains handed to the
        rest of the model (a gesture model that does not lead with an
        LSTM stack scores the ready windows instead) — so each error
        window gets the gesture context current at its own frame.  Once
        per step: the frames are staged (one slice copy per pending
        chunk), timelines, telemetry and :attr:`stats` are written, and
        the error windows go to the library backend
        (:class:`~repro.nn.backends.LibraryBackend`).  A batch-invariant
        library (``reference``) takes every window of the step in
        **one** call, where every context that brings fewer than
        ``ROW_BLOCK`` windows shares one stacked forward (a context
        alone in the call, or one that fills a row block by itself,
        keeps one call of its member's model) — rows are scored
        independently, so the bits do not depend on ``n``.  A library
        whose rows' bits depend on the batch they share (``compiled``)
        is called once per tick, with the batch a tick makes, so its
        scores do not depend on ``n`` either.  The ``error_path`` label
        and the ``error_member_calls`` / ``error_stacked_passes``
        counters account for the calls.

        Returns
        -------
        EventBlock or None
            The step's events, column by column in emission order; ``None``
            when no session had pending frames (an idle step is a no-op
            and is not recorded in :attr:`stats`).  Events report
            gesture 0 and score 0.0 while a session's windows are still
            warming up.  A non-empty step of ``k`` ticks counts ``k``
            ticks in :attr:`stats` (:class:`ServiceStats`).

        Raises
        ------
        StepFailure
            A tick failed after earlier ticks of the step completed:
            their events, timelines and stats stand, the exception
            carries them as its ``block`` and the failure as its
            ``cause``.  A failure in the step's first tick is raised as
            it is.
        """
        if n < 1:
            raise ConfigurationError(f"a step advances sessions by n >= 1 frames, got {n}")
        active = [s for s in self._sessions.values() if s.pending]
        if not active:
            return None
        start = time.perf_counter()
        ring = self._ring
        assert ring is not None
        # The step's frames, session by session: session i advances by
        # ``depth[i]`` frames, rows ``first[i]:first[i] + depth[i]`` of
        # ``staged``.
        depth: list[int] = []
        first: list[int] = []
        slots: list[int] = []
        views: list[np.ndarray] = []
        stamped: list[float] = []
        for session in active:
            count = min(n, session.backlog)
            first.append(len(stamped))
            depth.append(count)
            slots.append(session.slot)
            session.pop_frames(count, views, stamped)
        staged = _joined(views)

        # The gesture stage, tick by tick.  Tick t advances the sessions
        # whose backlog reaches it, in opening order (``live``, their
        # frames at ``rows`` of ``staged``), and takes the error windows
        # their frames complete off the ring, to be scored under the
        # gesture current at each one's own frame.
        # A rebound gesture model rebuilds its chains from the ring as it
        # stands before this step's frames.
        gesture_backend = self._gesture_backend_or_none()
        stepper = self._gesture_stepper
        feature_idx = self._feature_idx
        current_gesture = self._current_gesture
        ticks: list[_Tick] = []
        failure = None
        try:
            for t in range(max(depth)):
                live = [i for i, count in enumerate(depth) if count > t]
                rows = [first[i] + t for i in live]
                frames = staged.take(rows, axis=0)
                slots_t = np.array([slots[i] for i in live])
                e_ready, e_windows = ring.push(frames, slots_t)
                if stepper is not None:
                    g_seen = ring.frames_seen.take(slots_t)
                    g_ready = self._gesture_window.completes(g_seen)
                    g_frames = frames if feature_idx is None else frames.take(feature_idx, axis=1)
                    current_gesture[slots_t[g_ready]] = (
                        stepper.step(g_frames, slots_t, g_seen, g_ready) + 1
                    )
                elif gesture_backend is not None:
                    g_ready, g_windows = ring.windows(self._gesture_window, slots_t, feature_idx)
                    if g_ready.any():
                        current_gesture[slots_t[g_ready]] = gesture_backend.predict(g_windows) + 1
                gestures = current_gesture.take(slots_t)
                ticks.append(_Tick(live, rows, slots_t, gestures, e_ready, e_windows))
        except Exception as exc:  # noqa: BLE001 - the ticks before it stand
            failure = exc

        # The error stage: one library call over every window of the
        # step when rows are scored independently, else one per tick —
        # the batch a tick has always made.  A failing call over several
        # ticks is retried tick by tick: the ticks before the one that
        # fails still stand.  A gesture without a trained classifier
        # scores 0.0 (safe).
        library = self._error_library
        calls, passes = library.member_calls, library.stacked_passes
        parts = [tick for tick in ticks if tick.windows.shape[0]]
        groups = [parts] if parts and library.batch_invariant else [[p] for p in parts]
        while groups:
            group = groups.pop(0)
            for tick in group:
                tick.context = tick.gestures[tick.ready]
            try:
                values = library.score(
                    _joined([tick.windows for tick in group]),
                    _joined([tick.context for tick in group]),
                )
            except Exception as exc:  # noqa: BLE001 - narrowed, then raised below
                if len(group) > 1:
                    groups = [[p] for p in group]
                    continue
                del ticks[ticks.index(group[0]) :]
                failure = exc
                break
            at = 0
            for tick in group:
                tick.scores = values[at : at + tick.windows.shape[0]]
                at += tick.windows.shape[0]
        path = library.path
        if path != self._error_path:
            self.telemetry.label("error_path", path)
            self._error_path = path
        self._member_calls.inc(library.member_calls - calls)
        self._stacked_passes.inc(library.stacked_passes - passes)
        if not ticks:
            raise failure

        # The events, tick by tick.  Scores are sticky: a window scored
        # under a known gesture sets its session's score, every other
        # session keeps its own.
        current_score = self._current_score
        done: list[int] = []
        recording = False
        for session, count in zip(active, depth):
            done.append(session.frames_done)
            session.frames_done += min(count, len(ticks))
            recording = recording or session.record_timeline
        session_of, frame_of, gesture_of, score_of, latency_of = [], [], [], [], []
        now = time.perf_counter()
        for t, tick in enumerate(ticks):
            if tick.scores is not None:
                known = tick.context > 0
                current_score[tick.slots[tick.ready][known]] = tick.scores[known]
            live = tick.live
            gestures = tick.gestures.tolist()
            scores = current_score.take(tick.slots).tolist()
            session_of += live
            frame_of += [done[i] + t for i in live]
            gesture_of += gestures
            score_of += scores
            latency_of += [(now - stamped[row]) * 1e6 for row in tick.rows]
            if recording:
                for i, gesture, score in zip(live, gestures, scores):
                    session = active[i]
                    if session.record_timeline:
                        session.gestures.append(gesture)
                        session.scores.append(score)
        threshold = self.monitor.threshold
        flag_of = [score >= threshold for score in score_of]

        n_events = len(frame_of)
        self.stats.record(1000.0 * (time.perf_counter() - start), n_events, len(ticks))
        if self._latency is None:
            self._latency = self.telemetry.histogram("alert_latency_us")
            self._events_emitted = self.telemetry.counter("events_emitted")
        self._latency.observe_many(latency_of)
        self._events_emitted.inc(n_events)
        n_flagged = sum(flag_of)
        if n_flagged:
            if self._events_flagged is None:
                self._events_flagged = self.telemetry.counter("events_flagged")
            self._events_flagged.inc(n_flagged)
        block = EventBlock(
            [session.id for session in active],
            [len(tick.live) for tick in ticks],
            session_of,
            frame_of,
            gesture_of,
            score_of,
            flag_of,
            latency_of,
        )
        if self.event_store is not None:
            self.event_store.append_batch(block.events())
        if failure is not None:
            raise StepFailure(block, failure) from failure
        return block

    def tick(self) -> list[SessionEvent]:
        """Advance every session with pending input by one frame: the
        engine step (:meth:`advance`) at ``n = 1``, as events.

        Returns
        -------
        list[SessionEvent]
            One event per advanced session, in session opening order;
            empty when no session had pending frames.
        """
        block = self.advance(1)
        return [] if block is None else block.events()

    def drain(self, collect: bool = True) -> list[SessionEvent]:
        """Tick until no session has pending frames.

        With ``collect=False`` events are discarded as they are produced
        (throughput benchmarking); per-session timelines still accumulate.
        """
        events: list[SessionEvent] = []
        while self.has_pending:
            tick_events = self.tick()
            if collect:
                events.extend(tick_events)
        return events

    # ------------------------------------------------------------------
    def _get(self, session_id: str) -> _Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise DatasetError(f"no open session {session_id!r}")
        return session

    def _expected_n_features(self) -> int | None:
        """Kinematics width the monitor was trained for, when derivable.

        The error-stage scalers see full-width frames; the gesture scaler
        only does when no feature subset is configured.  An untrained
        monitor constrains nothing.
        """
        classifier = self.monitor.gesture_classifier
        if (
            classifier.config.feature_indices is None
            and classifier.scaler.mean_ is not None
        ):
            return int(classifier.scaler.mean_.shape[0])
        for clf in self.monitor.library.classifiers.values():
            if clf.scaler.mean_ is not None:
                return int(clf.scaler.mean_.shape[0])
        return None

    def _ensure_buffers(self, n_features: int) -> None:
        if self._ring is not None:
            return
        expected = self._expected_n_features()
        if expected is not None and n_features != expected:
            raise ShapeError(
                f"monitor was trained for {expected} kinematics features, "
                f"got frames with {n_features}"
            )
        self._n_features = int(n_features)
        # One full-width ring serves both stages: the error windows
        # come out of its push, the gesture stage reads its own window
        # (and feature subset) over the same frames.
        self._ring = StreamingWindowBatch(
            self.monitor.config.error_window,
            self.max_sessions,
            n_features,
            history=self.history_frames,
        )
        feature_idx = self.monitor.gesture_classifier.config.feature_indices
        if feature_idx is not None:
            self._feature_idx = np.asarray(feature_idx, dtype=np.intp)
