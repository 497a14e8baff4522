"""The inference-backend protocol behind the serving tick engine.

Every model invocation on the serving hot path — the gesture stage's
step (or ``predict``) and each error classifier's ``predict_proba``
inside :meth:`repro.serving.MonitorService.tick` — goes through an
:class:`InferenceBackend` bound to one trained ``(scaler, model)`` pair.
Two implementations exist:

- :class:`~repro.nn.backends.reference.ReferenceBackend` — wraps
  ``scaler.transform`` + ``Sequential.predict_proba`` exactly as the
  engine called them before backends existed.  Bit-exact, batch-size
  invariant, the default: every existing parity guarantee
  (stream ≡ process ≡ service ≡ sharded) holds under it unchanged.
- :class:`~repro.nn.backends.compiled.CompiledBackend` — compiles the
  pair into a flat inference plan: the scaler's affine folded into the
  first layer's weights, preallocated scratch buffers so steady-state
  calls allocate no array data, fused LSTM gates, no training branches
  or dtype coercions, optional float32 execution.  Matches the
  reference within ``atol=1e-6`` in float64 mode (it folds the scaler
  and lets BLAS see the whole batch, giving up the reference
  contraction's batch-invariant bits for zero-allocation throughput).

The gesture stage does not score windows at all when it can avoid it:
a backend whose model leads with an LSTM stack hands out a
:class:`~repro.nn.backends.stepper.StreamStepper`
(:meth:`InferenceBackend.stream_stepper`) that advances every in-flight
window of every stream one LSTM step per frame — the same arithmetic,
under ``reference`` the same bits, a fraction of the contractions.

Backends hold per-call scratch state and are **not** thread-safe; a
:class:`~repro.serving.MonitorService` owns one backend per model and
ticks from a single thread (one per worker process when sharded).
"""

from __future__ import annotations

import numpy as np

from ...config import WindowConfig
from ...errors import ConfigurationError
from ..model import Sequential
from ..preprocessing import StandardScaler
from .stepper import StreamStepper

#: Names accepted wherever a backend choice is wired through the serving
#: stack (``MonitorService``, ``SafetyMonitor.stream``,
#: ``ShardedMonitorService``, monitor snapshots).
BACKEND_NAMES = ("reference", "compiled", "compiled-f32")

#: The backend used when none is chosen: bit-exact and batch-invariant.
DEFAULT_BACKEND = "reference"


def validate_backend_name(name: str) -> str:
    """Return ``name`` if it is a known backend, raise otherwise."""
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown inference backend {name!r}; choose one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    return name


class InferenceBackend:
    """One trained ``(scaler, model)`` pair behind a uniform predict API.

    ``windows`` arguments are **raw** (unscaled) kinematics windows of
    shape ``(batch, window, n_features)``; standardisation is the
    backend's job (folded into the weights, for the compiled plan).

    Returned arrays may alias internal scratch buffers: they are valid
    until the next call on the same backend — consume or copy first.
    """

    #: The :data:`BACKEND_NAMES` entry this implementation answers to.
    name: str = "abstract"

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of raw windows."""
        raise NotImplementedError

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Hard predictions: argmax (multi-class) or 0.5 threshold."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Streaming (repro.serving.MonitorService's gesture stage)
    # ------------------------------------------------------------------
    def stream_stepper(
        self, config: WindowConfig, n_slots: int
    ) -> StreamStepper | None:
        """Chain state for scoring ``n_slots`` streams a frame at a time.

        For a model that leads with an LSTM stack
        (:func:`~repro.nn.layers.recurrent.leading_lstm_stack`), a
        :class:`~repro.nn.backends.stepper.StreamStepper` that advances
        every in-flight window of a stream one LSTM step per frame and
        yields what :meth:`predict_proba` yields on the completed
        windows (to the backend's own contract: the same bytes under
        ``reference``, ``atol=1e-6`` under ``compiled``).  ``None`` for
        any other model: the caller assembles windows and calls
        :meth:`predict`.  The choice is read from the model's layers
        and nothing else.  Each call returns a new, zeroed stepper.
        """
        return None

    # ------------------------------------------------------------------
    # Bulk offline scoring (repro.serving.bulk)
    # ------------------------------------------------------------------
    def forward_bulk(self, windows: np.ndarray) -> np.ndarray:
        """Probabilities for an arbitrarily large batch, in bounded memory.

        The offline entry point: where :meth:`predict_proba` is sized
        for the serving tick (scratch capped at ``max_batch``, oversize
        calls chunked), ``forward_bulk`` takes *every window of a whole
        recorded procedure at once*.  The base implementation delegates
        to :meth:`predict_proba`, which for the reference backend walks
        the batch in small window chunks (an LSTM stack time-major, each
        frame of a window view projected once per chunk); compiled
        backends override it to run a twin plan sized for bigger slabs,
        up to a byte budget, instead of ``max_batch`` chunks.

        The same aliasing contract as :meth:`predict_proba` applies:
        the result may reuse internal scratch and is valid until the
        next call on this backend.
        """
        return self.predict_proba(windows)

    def score_bulk(self, windows: np.ndarray) -> np.ndarray:
        """Hard predictions for an arbitrarily large batch.

        The :meth:`predict` counterpart of :meth:`forward_bulk`.
        """
        return self.predict(windows)


def make_backend(
    name: str,
    scaler: StandardScaler,
    model: Sequential,
    max_batch: int = 64,
) -> InferenceBackend:
    """Build the named backend for one trained ``(scaler, model)`` pair.

    Parameters
    ----------
    name:
        One of :data:`BACKEND_NAMES`.
    scaler / model:
        The fitted scaler and built, compiled model to serve.
    max_batch:
        Scratch-buffer batch capacity for compiled backends (the serving
        engine passes its ``max_sessions``).  Larger inputs are served
        in chunks — correct, but off the zero-allocation fast path.
    """
    from .compiled import CompiledBackend
    from .reference import ReferenceBackend

    validate_backend_name(name)
    if name == "reference":
        return ReferenceBackend(scaler, model)
    dtype = np.float32 if name == "compiled-f32" else np.float64
    return CompiledBackend(scaler, model, max_batch=max_batch, dtype=dtype)
