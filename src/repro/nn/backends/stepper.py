"""Stream steppers: one LSTM step per frame instead of ``window`` per window.

A model that leads with an LSTM stack scores a window by running
``window`` steps from the zero state, and consecutive windows of one
stream share all but ``stride`` frames.  Scored window by window, every
shared frame is stepped again for every window it belongs to.  A window
scored from zero is a **chain** of ``window`` steps, so a stream always
has ``ceil(window / stride)`` chains in flight — one started at each
window start among its last ``window`` frames — and a new frame can
advance all of them one step together: the same float operations on
every element, one recurrent contraction over all the chains of all the
streams in the call instead of ``window - 1`` over the streams, and the
first layer's input projection once per frame instead of once per window
it falls in.

:class:`StreamStepper` holds that state per stream slot and owns what is
independent of how the arithmetic is carried out: which chain a frame
starts, which chains it advances, which one it completes, in what order
their rows are laid out, and how many slots are stepped per pass.  The
two backends supply the arithmetic
(:class:`~repro.nn.backends.reference.ReferenceBackend` through the
batch-invariant contraction and :meth:`LSTM._step
<repro.nn.layers.recurrent.LSTM._step>`, bit-identical to the windowed
forward; :class:`~repro.nn.backends.compiled.CompiledBackend` on its
folded weights and preallocated scratch).  A backend whose model does not
lead with such a stack has no stepper
(:meth:`InferenceBackend.stream_stepper
<repro.nn.backends.base.InferenceBackend.stream_stepper>` returns
``None``) and its caller scores windows.

Chains are **derived state**: a pure function of a stream's last
``window - 1`` frames and its frame count, which is what
:meth:`StreamStepper.rebuild` recomputes them from.  They are never
exported or serialised; whoever owns the frames (the serving engine's
gesture ring) is the source of truth.
"""

from __future__ import annotations

import numpy as np

from ...config import WindowConfig
from ...errors import ConfigurationError, ShapeError

#: Size one per-step array may reach before a call's slots are stepped in
#: several passes.  The widest array of a step is ``rows x 4 * units``
#: (one row per chain of every slot in the pass); 1.25 MiB is 16 streams
#: of the paper's model (5 chains, 512 units, float64) — per-step arrays
#: that stay cache-resident, and 64 carried rows, whole ``ROW_BLOCK``s
#: for the reference contraction — where all 64 streams in one pass
#: (5 MB per array) measured slower than scoring windows.  Models a few
#: units wide never split.  A bare constant: results do not depend on it
#: (rows are independent), only the working set does.
STEP_BYTES = 5 * 16 * 4 * 512 * 8


class StreamStepper:
    """Slot-indexed chain state of one backend's leading LSTM stack.

    Subclasses implement :meth:`_advance` (one step of every chain of a
    group of slots), :meth:`_head` (the rest of the model on completed
    chains) and :meth:`_decide`; everything here is integer bookkeeping.

    Chain ``j`` of a slot is the one whose window starts at frame
    ``k * stride`` with ``k % n_chains == j``; its state lives in row
    ``slot * n_chains + j`` of the per-layer ``(h, c)`` arrays.  A chain
    is *fresh* on the frame its window starts at: whatever its row held
    is ignored (the recurrent term of a zero state is exactly ``+0.0``,
    so it is added as a literal and the row stays out of the recurrent
    contraction), which is also why a chain left over from an earlier
    window, or from a slot's previous tenant, can never reach a result.
    """

    def __init__(
        self,
        units: list[int],
        prob_shape: tuple[int, ...],
        config: WindowConfig,
        n_slots: int,
        dtype,
    ) -> None:
        if n_slots < 1:
            raise ConfigurationError("n_slots must be >= 1")
        self.window = config.window
        self.stride = config.stride
        self.n_chains = -(-config.window // config.stride)
        self.n_slots = int(n_slots)
        #: Slots advanced per pass (see :data:`STEP_BYTES`).
        slot_bytes = self.n_chains * 4 * max(units) * np.dtype(dtype).itemsize
        self.group = max(1, STEP_BYTES // slot_bytes)
        rows = self.n_slots * self.n_chains
        self._h = [np.zeros((rows, u), dtype) for u in units]
        self._c = [np.zeros((rows, u), dtype) for u in units]
        self._no_windows = np.empty((0, *prob_shape), dtype)
        # Which chains a frame starts and carries depends on its index
        # only through its phase, ``index % (stride * n_chains)``: one
        # row of each table per phase (see :meth:`_plan`).
        self._period = self.stride * self.n_chains
        index = np.arange(self._period)
        #: The chain a frame at each phase starts, if it starts one.
        self._chain = index // self.stride % self.n_chains
        #: Whether a frame at each phase starts a chain.
        self._starts = index % self.stride == 0
        #: The chains a frame at each phase carries (all the others).
        self._carried = np.ones((self._period, self.n_chains), dtype=bool)
        self._carried[self._starts, self._chain[self._starts]] = False
        #: A lone slot's row layout at each phase, its state rows
        #: relative to the slot's first.
        self._lone = []
        for phase in range(self._period):
            chains = np.flatnonzero(self._carried[phase])
            n_recurrent = chains.shape[0]
            if self._starts[phase]:
                chains = np.append(chains, self._chain[phase])
            self._lone.append(
                (np.zeros(chains.shape[0], dtype=np.intp), chains, n_recurrent)
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self, slots: np.ndarray) -> None:
        """Zero the chains of ``slots`` (a stream is starting there)."""
        slots = np.asarray(slots, dtype=np.intp)
        for state in (*self._h, *self._c):
            state.reshape(self.n_slots, self.n_chains, -1)[slots] = 0.0

    def rebuild(self, slot: int, frames: np.ndarray, seen: int) -> None:
        """Recompute one slot's chains from its stream's recent frames.

        ``frames`` are the stream's most recent frames in time order —
        its last ``window - 1`` at least, or all ``seen`` of them if it
        has fewer — and ``seen`` its frame count.  Every window still
        to be completed starts inside that stretch, so replaying it
        rebuilds exactly the chains an uninterrupted stepper would hold.
        """
        replay = min(int(seen), self.window - 1)
        if frames.shape[0] < replay:
            raise ShapeError(
                f"rebuilding a stream at frame {seen} needs its last "
                f"{replay} frames, got {frames.shape[0]}"
            )
        slots = np.array([slot], dtype=np.intp)
        self.reset(slots)
        count = int(seen) - replay  # frames before the replayed stretch
        for frame in frames[frames.shape[0] - replay :]:
            count += 1
            self._advance(frame[None, :], *self._plan(slots, np.array([count])))

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step_proba(
        self,
        frames: np.ndarray,
        slots: np.ndarray,
        seen: np.ndarray,
        ready: np.ndarray,
    ) -> np.ndarray:
        """Advance ``slots`` by one frame each; score completed windows.

        Parameters
        ----------
        frames:
            ``(n, n_features)`` raw (unscaled) frames, one per slot.
        slots:
            Distinct slot indices, aligned with ``frames``.
        seen:
            Each slot's frame count *including* this frame (its
            :attr:`StreamingWindowBatch.frames_seen
            <repro.kinematics.windows.StreamingWindowBatch.frames_seen>`
            after the frame's :meth:`push
            <repro.kinematics.windows.StreamingWindowBatch.push>`), which
            fixes the phase of its chains.
        ready:
            Boolean mask of the slots whose window completes on this
            frame (``seen >= window``, on the stride).

        Returns
        -------
        np.ndarray
            Class probabilities of the ready slots' windows, in
            ``slots`` order — what ``predict_proba`` returns for those
            windows.  May alias scratch: valid until the next call.
        """
        frames = np.asarray(frames)
        slots = np.asarray(slots, dtype=np.intp)
        seen = np.asarray(seen, dtype=np.intp)
        if frames.ndim != 2 or frames.shape[0] != slots.shape[0]:
            raise ShapeError(
                f"frames must be ({slots.shape[0]}, n_features), got {frames.shape}"
            )
        if slots.shape[0] <= self.group:
            self._advance(frames, *self._plan(slots, seen))
        else:
            for start in range(0, slots.shape[0], self.group):
                part = slice(start, start + self.group)
                self._advance(frames[part], *self._plan(slots[part], seen[part]))
        # The chain a ready slot completes started `window` frames ago
        # (in Python ints: a tick's few slots cost less than the numpy
        # calls would).
        window, stride, n_chains = self.window, self.stride, self.n_chains
        done = [
            slot * n_chains + (count - window) // stride % n_chains
            for slot, count, is_ready in zip(slots.tolist(), seen.tolist(), ready.tolist())
            if is_ready
        ]
        if not done:
            return self._no_windows
        return self._head(np.array(done, dtype=np.intp))

    def step(
        self,
        frames: np.ndarray,
        slots: np.ndarray,
        seen: np.ndarray,
        ready: np.ndarray,
    ) -> np.ndarray:
        """:meth:`step_proba` reduced to hard predictions (argmax, or the
        0.5 threshold for a binary head) — what ``predict`` returns."""
        return self._decide(self.step_proba(frames, slots, seen, ready))

    def _plan(
        self, slots: np.ndarray, seen: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Row layout of one pass: ``(frame_rows, state_rows, n_recurrent)``.

        One row per chain of every slot.  ``state_rows[i]`` is the row's
        place in the state arrays, ``frame_rows[i]`` the index (into the
        pass's frames) of the frame it consumes.  The first
        ``n_recurrent`` rows carry state into this step; the rest are
        the chains starting on this frame.
        """
        if slots.shape[0] == 1:
            frame_rows, chains, n_recurrent = self._lone[(int(seen[0]) - 1) % self._period]
            return frame_rows, chains + int(slots[0]) * self.n_chains, n_recurrent
        phase = (seen - 1) % self._period  # of this frame's index
        rows, chains = self._carried[phase].nonzero()
        (starting,) = self._starts[phase].nonzero()
        base = slots * self.n_chains
        return (
            np.concatenate([rows, starting]),
            np.concatenate(
                [base[rows] + chains, base[starting] + self._chain[phase[starting]]]
            ),
            rows.shape[0],
        )

    # ------------------------------------------------------------------
    # The arithmetic, per backend
    # ------------------------------------------------------------------
    def _advance(
        self,
        frames: np.ndarray,
        frame_rows: np.ndarray,
        state_rows: np.ndarray,
        n_recurrent: int,
    ) -> None:
        """Step every row of one :meth:`_plan` and store its new state."""
        raise NotImplementedError

    def _head(self, state_rows: np.ndarray) -> np.ndarray:
        """Probabilities from the top layer's hidden state at those rows."""
        raise NotImplementedError

    def _decide(self, probs: np.ndarray) -> np.ndarray:
        """Hard predictions from :meth:`_head` probabilities."""
        raise NotImplementedError
