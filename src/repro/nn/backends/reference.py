"""The bit-exact default backend: today's transform + predict, verbatim.

Kept deliberately thin — it must execute the *identical* float operation
sequence the tick engine ran before backends existed
(``scaler.transform`` building a standardised copy, then
``Sequential.predict_proba`` through the batch-invariant fixed-shape
GEMM contraction of :mod:`repro.nn.layers.contract`), so the existing parity
suites (stream ≡ process ≡ service ≡ sharded, bit for bit) pin its
behaviour without modification.
"""

from __future__ import annotations

import numpy as np

from ..model import Sequential
from ..preprocessing import StandardScaler
from .base import InferenceBackend


class ReferenceBackend(InferenceBackend):
    """Wrap a ``(scaler, model)`` pair with no behavioural change.

    Bit-exact and batch-size invariant; allocates a standardised copy of
    the input per call (the cost the compiled backend exists to remove).
    """

    name = "reference"

    def __init__(self, scaler: StandardScaler, model: Sequential) -> None:
        self.scaler = scaler
        self.model = model

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        x = self.scaler.transform(np.asarray(windows, dtype=float))
        return self.model.predict_proba(x)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        x = self.scaler.transform(np.asarray(windows, dtype=float))
        return self.model.predict(x)
