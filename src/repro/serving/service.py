"""Multi-stream monitoring service: the batched online serving engine.

The paper frames deployment as continuous runtime monitoring of live
procedures, which means many simultaneous sessions rather than one
offline replay.  :class:`MonitorService` manages N concurrent trajectory
sessions (open / feed / close lifecycle) against a single trained
:class:`~repro.core.pipeline.SafetyMonitor`.  Each :meth:`MonitorService.tick`
advances every session with pending frames by one frame and runs each
pipeline stage **once** across all sessions — one model invocation per
stage per tick, instead of one per stream — via the ring-buffered
:class:`~repro.kinematics.windows.StreamingWindowBatch`.  The error
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
from typing import TYPE_CHECKING, Callable

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
from .telemetry import Counter, TelemetryRegistry

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
    """Latency accounting across ticks (populated by :meth:`tick`).

    The most recent ``capacity`` per-tick latencies live in a
    preallocated ring ndarray, so :meth:`record` is one scalar store and
    the reductions (:meth:`percentile_ms`, :meth:`mean_ms`) slice the
    ring in place instead of re-materialising the history per query.
    ``n_ticks``, ``frames_processed`` and ``events_emitted`` count the
    full service lifetime, past the retained window, and
    :attr:`uptime_s` is monotonic wall-clock since construction —
    rebased (not reset) when the stats object crosses a worker pipe.
    """

    capacity: int = TICK_HISTORY
    n_ticks: int = 0
    frames_processed: int = 0
    events_emitted: int = 0
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

    def record(self, tick_ms: float, n_frames: int) -> None:
        """Account one executed tick."""
        self._ring[self._cursor] = tick_ms
        self._cursor = (self._cursor + 1) % self.capacity
        if self._filled < self.capacity:
            self._filled += 1
        self.n_ticks += 1
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
        """Fold ``other``'s lifetime counters and retained latency window
        into this one (a fleet aggregate over per-shard stats)."""
        self.n_ticks += other.n_ticks
        self.frames_processed += other.frames_processed
        self.events_emitted += other.events_emitted
        self.extend_ms(other.tick_ms)

    def __getstate__(self) -> dict:
        """Pickle only the recorded samples, not the preallocated ring.

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
        "last_feed_ts",
        "offset",
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
        # feed()); pop_frame_into latches the head chunk's timestamp so
        # the tick loop can report frame-ingest→event-emission latency
        # with one perf_counter call per tick, not per frame.
        self.feed_ts: deque[float] = deque()
        self.last_feed_ts = 0.0
        self.offset = 0  # row cursor into the head chunk
        self.frames_done = 0
        self.record_timeline = record_timeline
        self.gestures: list[int] = []
        self.scores: list[float] = []

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    def pending_frames(self) -> int:
        return sum(chunk.shape[0] for chunk in self.pending) - self.offset

    def pop_frame_into(self, out: np.ndarray) -> None:
        """Copy the next pending frame straight into ``out``.

        Reads the contiguous head-chunk row in place — no intermediate
        per-frame array, so the tick loop fills its preallocated frame
        scratch with one row copy per advanced session.
        """
        head = self.pending[0]
        self.last_feed_ts = self.feed_ts[0]
        out[...] = head[self.offset]
        self.offset += 1
        if self.offset >= head.shape[0]:
            self.pending.popleft()
            self.feed_ts.popleft()
            self.offset = 0


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
        self.telemetry = TelemetryRegistry()
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
        # The frame ring and per-tick scratch are allocated on the first
        # feed, when the kinematics feature width becomes known.
        self._ring: StreamingWindowBatch | None = None
        self._n_features: int | None = None
        self._slots_scratch: np.ndarray | None = None
        self._frames_scratch: np.ndarray | None = None
        self._g_frames_scratch: np.ndarray | None = None
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
        self._observe_latency: Callable[[float], None] | None = None
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
        session = self._get(session_id)
        return session.pending_frames() if session.has_pending else 0

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
        session.pending.append(frames)
        session.feed_ts.append(time.perf_counter())

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
            session.pending.append(pending)
            # Migrated frames are re-stamped at import: latency counts
            # time in *this* service, not transit (states don't carry
            # cross-process monotonic clocks).
            session.feed_ts.append(time.perf_counter())
        self._sessions[state.session_id] = session
        self._current_gesture[slot] = int(state.current_gesture)
        self._current_score[slot] = float(state.current_score)
        return state.session_id

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def tick(self) -> list[SessionEvent]:
        """Advance every session with pending input by one frame.

        Runs the gesture stage **once** — one LSTM step of every
        in-flight window chain of every advanced session, the completed
        chains handed to the rest of the model (a gesture model that
        does not lead with an LSTM stack scores the ready windows
        instead) — then the error stage **once**: the ready error
        windows go to the library backend
        (:class:`~repro.nn.backends.LibraryBackend`) with the gesture
        context of each, and under the reference backend every context
        that brings fewer than ``ROW_BLOCK`` windows shares one stacked
        forward.  That is one model invocation per stage per tick,
        regardless of how many sessions advanced or how many gestures
        are active — with three exceptions the ``error_path`` telemetry
        label and the ``error_member_calls`` / ``error_stacked_passes``
        counters account for: a context alone in the tick, or one that
        fills a row block by itself, keeps one call of its member's
        model (stacking loses there), and the compiled backends, like a
        library whose members do not share one architecture, make one
        member call per distinct active gesture.  The advanced slots and their popped frames are staged in
        preallocated scratch (no per-tick slot/stack arrays).

        Returns
        -------
        list[SessionEvent]
            One event per advanced session, in session opening order;
            empty when no session had pending frames (an idle tick is a
            no-op and is not recorded in :attr:`stats`).  Events report
            gesture 0 and score 0.0 while a session's windows are still
            warming up.

        Each non-empty tick appends one latency sample to :attr:`stats`.
        """
        active = [s for s in self._sessions.values() if s.pending]
        if not active:
            return []
        start = time.perf_counter()
        assert (
            self._ring is not None
            and self._slots_scratch is not None
            and self._frames_scratch is not None
        )
        n_active = len(active)
        slots = self._slots_scratch[:n_active]
        frames = self._frames_scratch[:n_active]
        for i, session in enumerate(active):
            slots[i] = session.slot
            session.pop_frame_into(frames[i])

        # A rebound gesture model rebuilds its chains from the ring as it
        # stands before this tick's frames.
        gesture_backend = self._gesture_backend_or_none()
        # The tick's one ring write; the error windows it completes are
        # copies, scored below once the gesture context is current.
        e_ready, e_windows = self._ring.push(frames, slots)
        if self._gesture_stepper is not None:
            g_seen = self._ring.frames_seen.take(slots)
            g_ready = self._gesture_window.completes(g_seen)
            if self._feature_idx is None:
                g_frames = frames
            else:
                assert self._g_frames_scratch is not None
                g_frames = self._g_frames_scratch[:n_active]
                np.take(frames, self._feature_idx, axis=1, out=g_frames)
            self._current_gesture[slots[g_ready]] = (
                self._gesture_stepper.step(g_frames, slots, g_seen, g_ready) + 1
            )
        elif gesture_backend is not None:
            g_ready, g_windows = self._ring.windows(
                self._gesture_window, slots, self._feature_idx
            )
            if g_ready.any():
                self._current_gesture[slots[g_ready]] = (
                    gesture_backend.predict(g_windows) + 1
                )

        if e_windows.shape[0]:
            e_slots = slots[e_ready]
            gestures = self._current_gesture.take(e_slots)
            known = gestures > 0
            # Sessions without a gesture context yet keep their score;
            # a gesture without a trained classifier scores 0.0 (safe).
            library = self._error_library
            calls, passes = library.member_calls, library.stacked_passes
            self._current_score[e_slots[known]] = library.score(
                e_windows, gestures
            )[known]
            path = library.path
            if path != self._error_path:
                self.telemetry.label("error_path", path)
                self._error_path = path
            self._member_calls.inc(library.member_calls - calls)
            self._stacked_passes.inc(library.stacked_passes - passes)

        # Everything the per-session loop needs is looked up once per
        # tick: current gesture/score as plain Python values (one gather
        # each instead of two numpy scalar reads per session), the
        # threshold, the latency instrument and the list append.
        threshold = self.monitor.threshold
        gestures_now = self._current_gesture.take(slots).tolist()
        scores_now = self._current_score.take(slots).tolist()
        observe_latency = self._observe_latency
        if observe_latency is None:
            observe_latency = self._observe_latency = self.telemetry.histogram(
                "alert_latency_us"
            ).observe
            self._events_emitted = self.telemetry.counter("events_emitted")
        events: list[SessionEvent] = []
        emit = events.append
        now = time.perf_counter()
        n_flagged = 0
        for session, gesture, score in zip(active, gestures_now, scores_now):
            if session.record_timeline:
                session.gestures.append(gesture)
                session.scores.append(score)
            flag = score >= threshold
            n_flagged += flag
            last_feed_ts = session.last_feed_ts
            latency_us = (now - last_feed_ts) * 1e6 if last_feed_ts else 0.0
            if latency_us > 0.0:
                observe_latency(latency_us)
            # Positional: a frozen dataclass's keywords cost a third more.
            emit(
                SessionEvent(
                    session.id, session.frames_done, gesture, score, flag, None, latency_us
                )
            )
            session.frames_done += 1
        self.stats.record(1000.0 * (time.perf_counter() - start), len(active))
        self._events_emitted.inc(len(events))
        if n_flagged:
            if self._events_flagged is None:
                self._events_flagged = self.telemetry.counter("events_flagged")
            self._events_flagged.inc(int(n_flagged))
        if self.event_store is not None:
            self.event_store.append_batch(events)
        return events

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
        # Per-tick staging scratch: slot ids and one popped frame per
        # advanced session, reused across every tick.
        self._slots_scratch = np.empty(self.max_sessions, dtype=np.int64)
        self._frames_scratch = np.empty((self.max_sessions, n_features))
        feature_idx = self.monitor.gesture_classifier.config.feature_indices
        if feature_idx is not None:
            self._feature_idx = np.asarray(feature_idx, dtype=np.intp)
            self._g_frames_scratch = np.empty(
                (self.max_sessions, len(feature_idx))
            )
