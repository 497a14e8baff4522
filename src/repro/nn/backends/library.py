"""The error-classifier library behind one backend: the error stage's owner.

The paper's second stage is a *library* of gesture-specific classifiers
selected by the inferred context.  :class:`LibraryBackend` serves it:
built from ``monitor.library`` and a backend name, it holds one
:class:`~repro.nn.backends.base.InferenceBackend` per trained member,
cached by **model identity** (``fit()`` rebinds ``.model`` to a new
object, so identity is the retrain signal; a member that appears late
is built on first use, one that disappears is dropped), and offers

- :meth:`LibraryBackend.member` — one gesture's backend, to callers that
  score whole groups themselves (:class:`repro.serving.bulk.BulkScorer`),
- :meth:`LibraryBackend.score` — unsafe probabilities for a batch of
  windows that each come with their own gesture context, to the serving
  tick (:meth:`repro.serving.MonitorService.tick`).  Gesture 0 (no
  context yet), constant and untrained gestures score exactly ``0.0``.

The base ``score`` is the per-member loop: one ``predict_proba`` per
distinct gesture in the call.  ``compiled`` / ``compiled-f32`` serve it
as is.

Under ``reference``, :class:`ReferenceLibraryBackend` turns the short
contexts of a call into **one stacked forward**.  A fleet tick brings
several contexts of a few windows each (29 sessions: 6.6 contexts of
about 4 windows), and each member call pays a whole model's worth of
numpy dispatch to push one mostly padded ``ROW_BLOCK`` through every
layer.  The stacked pass orders the windows by member, pads each
member's rows into whole ``ROW_BLOCK`` blocks (zeros, never
``np.empty``) and runs every contraction as a single
``np.matmul((B, ROW_BLOCK, K), (B, K, N))`` — per block exactly the
``(ROW_BLOCK, K) x (K, N)`` call on C-contiguous operands that
:func:`~repro.nn.layers.contract.contract` makes for one block — and every
element-wise step once over all rows with a parameter row per window.
It is bit-identical to the member calls by construction: a row's bits
depend on the row, its member's weights and the fixed shape of the
call (``contract``'s guarantee), and each layer's inference arithmetic
is *the same function* the member's ``forward(training=False)`` runs
(:meth:`Dense.affine`, :meth:`Conv1D.convolve`,
:meth:`BatchNorm.normalise`, :meth:`LSTM.recur`,
:meth:`StandardScaler.standardise`), handed stacked parameters and the
stacked contraction.  ``tests/nn/test_library_forward.py`` compares
bytes.

What selects between the stacked pass and a member call is read from
the call and nothing else:

- a context that is **alone** in the call keeps the member call it
  makes today (one window: 52 us through its member, 63 us stacked;
  15 windows: 81 against 89);
- so does a context that brings **``ROW_BLOCK`` windows or more**: it
  fills blocks by itself, and a parameter row per window costs more
  than its member's dispatch saves (200 windows over 12 contexts:
  1.07 ms by member, 1.48 ms stacked; 12 x 32: 1.4 against 2.9).
  Measured on the default model, the stacked pass still wins with
  every context at ``ROW_BLOCK - 1`` windows (two such contexts 118
  against 133 us, twelve 0.89-0.92x), so the threshold is
  ``ROW_BLOCK`` itself and not a fraction of it (``docs/serving.md``
  § "The error stage: one pass for the library's short blocks" has
  the grid);
- a library whose members do not share one architecture (layer types,
  configurations and shapes, read from the models) has nothing to
  stack and is served by the per-member loop.

Short contexts that together bring more than :data:`PASS_WINDOWS`
windows are served in several passes, each context whole (a context
left over alone keeps its member call); which pass a context lands in
is not observable.

The stacked parameters are copies, hence **derived state** like the
stream stepper's chains: rebuilt when a member's ``.model`` is rebound,
a member appears or disappears, or ``library.classifiers`` is replaced
— the identity signal the member cache uses, checked on every call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..layers import (
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GlobalAveragePool1D,
    LSTM,
    MaxPool1D,
    ReLU,
    Sigmoid,
    Tanh,
)
from ..layers.base import Layer
from ..layers.contract import ROW_BLOCK
from ..preprocessing import StandardScaler
from .base import InferenceBackend, make_backend, validate_backend_name


#: Windows one stacked pass takes; more short contexts than that are
#: served in several passes.  A pass allocates its temporaries afresh
#: (about 20 KB per default-model window, freed together when it
#: returns), and once they outgrow glibc's trim threshold the heap's top
#: goes back to the kernel after every pass and is page-faulted in again
#: by the next.  Measured in the ticks of a service fed like the wire
#: feeds it: no minor fault per tick up to 64 sessions, 0.2 at 128 and 3
#: at 160 under this cap — and 123 at 160 without it (a 180-window pass
#: timed alone: 1.5x the per-member loop).  A bare constant: results do
#: not depend on it (rows are independent), only the working set does.
PASS_WINDOWS = 4 * ROW_BLOCK


class LibraryBackend:
    """Member backends of one classifier library, by model identity.

    Parameters
    ----------
    library:
        The :class:`~repro.core.error_classifiers.ErrorClassifierLibrary`
        (anything with a ``classifiers`` mapping of gesture to an
        object carrying ``scaler`` and ``model``).  It is read on every
        call, so members trained, retrained, added or removed later are
        picked up.
    name:
        One of :data:`~repro.nn.backends.base.BACKEND_NAMES`.
    max_batch:
        Scratch capacity of compiled member backends (see
        :func:`~repro.nn.backends.base.make_backend`).

    Every already-trained member's backend is built here, up front.
    Not thread-safe, like the backends it holds.
    """

    def __init__(self, library, name: str, max_batch: int = 64) -> None:
        self.library = library
        self.name = validate_backend_name(name)
        self.max_batch = int(max_batch)
        #: gesture number -> (model the backend was built from, backend)
        self._members: dict[int, tuple[object, InferenceBackend]] = {}
        #: ``predict_proba`` calls made on member backends by :meth:`score`.
        self.member_calls = 0
        #: Stacked forwards run by :meth:`score` (``reference`` only).
        self.stacked_passes = 0
        for gesture in library.classifiers:
            self.member(gesture)

    @property
    def path(self) -> str:
        """How :meth:`score` serves a call with several short contexts:
        ``"stacked"`` or ``"per-member"``."""
        return "per-member"

    @property
    def batch_invariant(self) -> bool:
        """Whether a window's score is the same bits whatever else shares
        its :meth:`score` call: under ``reference``, not under the
        compiled backends (their members let BLAS see the whole batch)."""
        return self.name == "reference"

    def member(self, gesture: int) -> InferenceBackend | None:
        """The gesture's backend, tracking its classifier's model;
        ``None`` for a constant or untrained gesture (scores 0.0)."""
        clf = self.library.classifiers.get(gesture)
        if clf is None or clf.model is None:
            self._members.pop(gesture, None)
            return None
        cached = self._members.get(gesture)
        if cached is None or cached[0] is not clf.model:
            cached = (
                clf.model,
                make_backend(
                    self.name, clf.scaler, clf.model, max_batch=self.max_batch
                ),
            )
            self._members[int(gesture)] = cached
        return cached[1]

    def score(self, windows: np.ndarray, gestures: np.ndarray) -> np.ndarray:
        """Unsafe probability of each window under its own context.

        ``windows`` is ``(n, window, n_features)`` raw kinematics,
        ``gestures`` the ``n`` gesture numbers (non-negative integers)
        selecting a member per window.  One ``predict_proba`` per
        distinct gesture, over every window in that context
        (:meth:`_score_together` may take some contexts off that loop
        first); a gesture without a trained classifier scores 0.0
        (safe) — never a stale carry-over.  A context alone in the call
        goes straight to its member, whole.
        """
        n = len(gestures)
        if n == 1 or (n and gestures.min() == gestures.max()):
            number = int(gestures[0])
            if number >= 0:
                backend = self.member(number) if number else None
                if backend is None:
                    return np.zeros(n)
                self.member_calls += 1
                # A copy in float64: a compiled member's result may
                # alias its scratch, or be float32.
                return backend.predict_proba(windows).reshape(-1).astype(float)
        scores = np.zeros(n)
        counts = np.bincount(gestures)
        for number in self._score_together(windows, gestures, counts, scores):
            backend = self.member(number) if number else None
            if backend is None:
                continue
            mask = gestures == number
            scores[mask] = backend.predict_proba(windows[mask]).reshape(-1)
            self.member_calls += 1
        return scores

    def _score_together(self, windows, gestures, counts, scores) -> list[int]:
        """Score whichever of the call's contexts this backend serves in
        one pass, into ``scores``; return the gesture numbers left to
        the per-member loop.  ``counts[g]`` is the number of windows
        gesture ``g`` brings.  Here: none taken."""
        return np.flatnonzero(counts).tolist()


class ReferenceLibraryBackend(LibraryBackend):
    """Bit-exact library backend: short contexts share one stacked pass
    (module docstring); everything else is the per-member loop."""

    def __init__(self, library, max_batch: int = 64) -> None:
        super().__init__(library, "reference", max_batch)
        #: gesture number -> model, as of the last (re)stacking attempt.
        self._stacked_models: dict[int, object] = {}
        self._stack: _Stack | None = None
        self._restack()

    @property
    def path(self) -> str:
        return "per-member" if self._stack is None else "stacked"

    def _restack(self) -> None:
        """Copy the trained members' parameters into one stack, or note
        that they cannot be stacked (fewer than two, or no shared
        architecture)."""
        members = [
            (g, backend)
            for g in sorted(int(g) for g in self.library.classifiers)
            if (backend := self.member(g)) is not None
        ]
        self._stacked_models = {g: backend.model for g, backend in members}
        self._stack = _Stack.build(
            [(g, backend.scaler, backend.model) for g, backend in members]
        )

    def _score_together(self, windows, gestures, counts, scores) -> list[int]:
        counts = counts.tolist()
        numbers = [g for g, count in enumerate(counts) if count]
        if len(numbers) < 2:  # a context alone in the call
            return numbers
        short = [
            g
            for g in numbers
            if g and counts[g] < ROW_BLOCK and self.member(g) is not None
        ]
        if len(short) < 2:
            return numbers
        if any(
            self._stacked_models.get(g) is not self._members[g][0] for g in short
        ):
            self._restack()
        stack = self._stack
        if stack is None or windows.shape[1:] != stack.shape:
            return numbers
        # Rows ordered by member: a stable sort by stack row (rows
        # ascend with the gesture number), everything that is not in a
        # short context sorted past the end.
        row_of = np.full(len(counts), len(stack.slot))
        row_of[short] = [stack.slot[g] for g in short]
        rows = row_of.take(gestures)
        order = rows.argsort(kind="stable")
        start = 0
        for group in _passes(short, counts):
            stop = start + sum(counts[g] for g in group)
            if len(group) > 1:  # a context left over keeps its member call
                part = order[start:stop]
                scores[part] = stack.forward(
                    windows.take(part, axis=0),
                    rows.take(part),
                    [stack.slot[g] for g in group],
                    [counts[g] for g in group],
                ).reshape(-1)
                self.stacked_passes += 1
                numbers = [g for g in numbers if g not in group]
            start = stop
        return numbers


def _passes(short: list[int], counts: list[int]) -> list[list[int]]:
    """The short contexts, in order, cut into passes of at most
    :data:`PASS_WINDOWS` windows (a context is never split)."""
    passes, total = [[]], 0
    for g in short:
        if passes[-1] and total + counts[g] > PASS_WINDOWS:
            passes.append([])
            total = 0
        passes[-1].append(g)
        total += counts[g]
    return passes


def make_library_backend(name: str, library, max_batch: int = 64) -> LibraryBackend:
    """The library backend serving ``library`` under the named backend:
    stacked short contexts for ``reference``, the per-member loop for
    the compiled plans."""
    if validate_backend_name(name) == "reference":
        return ReferenceLibraryBackend(library, max_batch)
    return LibraryBackend(library, name, max_batch)


# ----------------------------------------------------------------------
# The stacked forward
# ----------------------------------------------------------------------
class _Layout:
    """Where one stacked call's rows sit inside whole ``ROW_BLOCK`` blocks.

    The call's windows are ordered by member; ``slots[j]`` is the
    parameter-stack row of the ``j``-th member present and ``sizes[j]``
    its window count (each below ``ROW_BLOCK``).  A contraction whose
    operand has ``t`` rows per window (a conv layer's time steps, an
    LSTM's input projection) pads each member's ``sizes[j] * t`` rows up
    to whole blocks, so no block mixes members.
    """

    def __init__(self, rows: np.ndarray, slots: list[int], sizes: list[int]) -> None:
        #: Parameter-stack row of every window.
        self.rows = rows
        self.sizes = sizes
        self._slots = np.array(slots)
        self._plans: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _plan(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dest, owners)``: the padded position of every operand row
        and the parameter-stack row of every block."""
        plan = self._plans.get(t)
        if plan is None:
            rows = [size * t for size in self.sizes]
            blocks = [-(-r // ROW_BLOCK) for r in rows]
            shifts, pad = [], 0
            for r, b in zip(rows, blocks):
                shifts.append(pad)
                pad += b * ROW_BLOCK - r
            dest = np.array(shifts).repeat(rows)
            dest += np.arange(dest.shape[0])
            plan = self._plans[t] = (dest, self._slots.repeat(blocks))
        return plan

    def contract(self, a: np.ndarray, w: np.ndarray, training: bool = False) -> np.ndarray:
        """:func:`~repro.nn.layers.contract.contract` with a weight
        matrix per member: ``w`` is ``(members, K, N)`` and every block
        of ``a``'s rows meets its own member's matrix in one stacked
        ``np.matmul`` of ``(ROW_BLOCK, K) x (K, N)`` calls."""
        k, n = w.shape[1:]
        flat = a.reshape(-1, k)
        dest, owners = self._plan(flat.shape[0] // self.rows.shape[0])
        blocks = np.zeros((owners.shape[0] * ROW_BLOCK, k))
        blocks[dest] = flat
        out = np.matmul(blocks.reshape(-1, ROW_BLOCK, k), w.take(owners, axis=0))
        return out.reshape(-1, n).take(dest, axis=0).reshape(a.shape[:-1] + (n,))


#: One inference step: ``(activations, ctx) -> activations``, where
#: ``ctx`` supplies the contraction (``ctx.contract``) and, to the steps
#: of a stacked pass, every window's parameter-stack row (``ctx.rows``):
#: a :class:`_Layout`, or a one-member plan's context
#: (:class:`repro.nn.backends.reference._Alone`).
_Apply = Callable[[np.ndarray, object], np.ndarray]


def _per_window(vectors: list[np.ndarray], ndim: int) -> np.ndarray:
    """One per-channel vector per member, shaped ``(members, 1.., channels)``
    so that a gather of member rows broadcasts against
    ``ndim``-dimensional activations."""
    stack = np.stack(vectors)
    return stack.reshape(stack.shape[0], *([1] * (ndim - 2)), stack.shape[1])


def _shared(arrays: list[np.ndarray]) -> np.ndarray:
    """A weight every window of a member meets: a lone member's own
    array, by reference; several members' stacked (a copy)."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _per_row(ndim: int, *columns: list[np.ndarray]) -> Callable | tuple:
    """Per-channel vectors (biases, statistics), one list per column.

    For a lone member, its own arrays, by reference, whatever the call:
    a tuple, one vector per column (viewed as ``(1, channels)``: against
    a one-row batch numpy then skips its broadcasting loop).  For
    several members, ``ctx -> (vector per column)`` giving each window's
    row of every column, gathered together in one ``take`` of a
    ``(members, columns, 1.., channels)`` stack.
    """
    if len(columns[0]) == 1:
        return tuple(column[0].reshape(1, -1) for column in columns)
    stack = np.stack([_per_window(column, ndim) for column in columns], axis=1)
    return lambda ctx: stack.take(ctx.rows, axis=0).swapaxes(0, 1)


def _stack_scaler(scalers: list[StandardScaler]) -> _Apply:
    standardise = StandardScaler.standardise
    stats = _per_row(3, [s.mean_ for s in scalers], [s.scale_ for s in scalers])
    if type(stats) is tuple:
        mean, scale = stats
        return lambda x, ctx: standardise(x, mean, scale)
    return lambda x, ctx: standardise(x, *stats(ctx))


def _stack_dense(layers: list[Dense]) -> _Apply:
    affine = layers[0].affine
    w = _shared([layer.params["W"] for layer in layers])
    b = _per_row(len(layers[0].input_shape) + 1, [layer.params["b"] for layer in layers])
    if type(b) is tuple:
        (b,) = b
        return lambda x, ctx: affine(x, w, b, ctx.contract)
    return lambda x, ctx: affine(x, w, *b(ctx), ctx.contract)


def _stack_conv(layers: list[Conv1D]) -> _Apply:
    convolve, first = Conv1D.convolve, layers[0]
    w = _shared([layer.params["W"].reshape(-1, layer.filters) for layer in layers])
    b = _per_row(3, [layer.params["b"] for layer in layers])
    pads = first._pad_amounts()
    idx = first.im2col_index(first.input_shape[0])
    if type(b) is tuple:
        (b,) = b
        return lambda x, ctx: convolve(x, w, b, ctx.contract, pads, idx)[0]
    return lambda x, ctx: convolve(x, w, *b(ctx), ctx.contract, pads, idx)[0]


def _stack_batch_norm(layers: list[BatchNorm]) -> _Apply:
    scale_shift = BatchNorm.scale_shift
    # One gather per call fetches a window's running mean, inverse
    # standard deviation (a function of the running variance: computed
    # here, once), gamma and beta together.
    stats = _per_row(
        len(layers[0].input_shape) + 1,
        [layer.running_mean for layer in layers],
        [layer.inverse_std(layer.running_var) for layer in layers],
        [layer.params["gamma"] for layer in layers],
        [layer.params["beta"] for layer in layers],
    )
    if type(stats) is tuple:
        mean, inv_std, gamma, beta = stats
        return lambda x, ctx: scale_shift(x, mean, inv_std, gamma, beta)[0]
    return lambda x, ctx: scale_shift(x, *stats(ctx))[0]


def _stack_lstm(layers: list[LSTM]) -> _Apply:
    recur = layers[0].recur
    wx = _shared([layer.params["Wx"] for layer in layers])
    wh = _shared([layer.params["Wh"] for layer in layers])
    b = _per_row(2, [layer.params["b"] for layer in layers])
    if type(b) is tuple:
        (b,) = b
        return lambda x, ctx: recur(x, wx, wh, b, ctx.contract)
    return lambda x, ctx: recur(x, wx, wh, *b(ctx), ctx.contract)


def _stack_elementwise(layers: list[Layer]) -> _Apply:
    fn = layers[0]._fn
    return lambda x, ctx: fn(x)


def _stack_max_pool(layers: list[MaxPool1D]) -> _Apply:
    size = layers[0].pool_size
    return lambda x, ctx: MaxPool1D.pool(x, size)[0]


#: The layer types an inference step covers — everything
#: ``ErrorClassifier._build_model`` and ``GestureClassifier._build_model``
#: emit, plus the other parameter-free layers — and how each is built
#: from a list of same-typed layers, one per member.  A step built from
#: one layer is a reference plan's (:func:`_steps`); a model holding
#: anything else has no plan and is served layer by layer, and a library
#: holding one is served per member.  ``None``: nothing to do at
#: inference (dropout is the identity there).
_STACKERS: dict[type, Callable[[list], _Apply | None]] = {
    Dense: _stack_dense,
    Conv1D: _stack_conv,
    BatchNorm: _stack_batch_norm,
    LSTM: _stack_lstm,
    ReLU: _stack_elementwise,
    Tanh: _stack_elementwise,
    Sigmoid: _stack_elementwise,
    Dropout: lambda layers: None,
    GlobalAveragePool1D: lambda layers: lambda x, ctx: GlobalAveragePool1D.average(x),
    MaxPool1D: _stack_max_pool,
    Flatten: lambda layers: lambda x, ctx: x.reshape(x.shape[0], -1),
}


def _architecture(model) -> tuple | None:
    """What two models must share to be stacked, read from their
    structure; ``None`` for a model no inference step covers."""
    if not model.built or model.loss is None:
        return None
    if any(type(layer) not in _STACKERS for layer in model.layers):
        return None
    return (
        type(model.loss),
        tuple(
            (
                type(layer),
                tuple(sorted(layer.get_config().items())),
                layer.input_shape,
                tuple((k, v.shape, v.dtype) for k, v in layer.params.items()),
            )
            for layer in model.layers
        ),
    )


def _steps(members: list[tuple[StandardScaler, object]]) -> list[_Apply]:
    """The inference steps of ``(scaler, model)`` members of one
    architecture (:func:`_architecture`): the scaler's, one per layer
    that computes anything at inference, and the loss head's.

    Built from one member they are the reference backend's plan, holding
    the member's own arrays; from several, the stacked pass's.  Either
    way every step is the layer's own inference arithmetic — the same
    functions its ``forward(training=False)`` calls — so the plan and
    the stacked pass are the layer path's bits (``tests/nn/test_plan.py``
    and ``tests/nn/test_library_forward.py`` compare bytes).  Values that
    are functions of the parameters alone (the flattened conv kernel and
    its im2col index, BatchNorm's inverse standard deviation) are
    worked out here, once.
    """
    scalers = [scaler for scaler, _ in members]
    models = [model for _, model in members]
    steps = [_stack_scaler(scalers)]
    for layers in zip(*(model.layers for model in models)):
        step = _STACKERS[type(layers[0])](list(layers))
        if step is not None:
            steps.append(step)
    head = models[0].loss.predict
    steps.append(lambda x, ctx: head(x))
    return steps


class _Stack:
    """Every member's scaler and layer parameters, stacked along a
    leading member axis (copies: about 100 KB for 12 default members)."""

    def __init__(self, members: list[tuple[int, StandardScaler, object]]) -> None:
        #: gesture number -> row of every parameter stack (ascending, so
        #: rows sorted by gesture number are rows sorted by stack row).
        self.slot = {gesture: row for row, (gesture, _, _) in enumerate(members)}
        #: The windows' shape every member was built for.
        self.shape = members[0][2].layers[0].input_shape
        self._steps = _steps([(scaler, model) for _, scaler, model in members])

    @classmethod
    def build(cls, members: list[tuple[int, StandardScaler, object]]) -> "_Stack | None":
        """The stack of ``(gesture, scaler, model)`` members in
        ascending gesture order, or ``None`` when there is nothing to
        stack: fewer than two members, or no one architecture."""
        if len(members) < 2:
            return None
        architectures = {_architecture(model) for _, _, model in members}
        if len(architectures) != 1 or None in architectures:
            return None
        if len({s.mean_.shape for _, s, _ in members}) != 1:
            return None
        return cls(members)

    def forward(
        self, windows: np.ndarray, rows: np.ndarray, slots: list[int], sizes: list[int]
    ) -> np.ndarray:
        """Probabilities of raw ``windows`` ordered by member:
        ``sizes[j]`` consecutive windows for stack row ``slots[j]``,
        ``rows`` naming every window's stack row."""
        layout = _Layout(rows, slots, sizes)
        x = windows
        for step in self._steps:
            x = step(x, layout)
        return x
