"""Pluggable inference backends behind the serving tick engine.

See :mod:`repro.nn.backends.base` for the protocol and the design
contract, :mod:`repro.nn.backends.compiled` for the compiled-plan
internals.  The serving stack selects a backend by name
(``"reference"`` / ``"compiled"`` / ``"compiled-f32"``) via
:func:`make_backend`; ``docs/serving.md`` has the operator guidance.
"""

from .base import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    InferenceBackend,
    make_backend,
    validate_backend_name,
)
from .compiled import BULK_SCRATCH_BYTES, CompiledBackend
from .library import LibraryBackend, ReferenceLibraryBackend, make_library_backend
from .reference import ReferenceBackend
from .stepper import StreamStepper

__all__ = [
    "BACKEND_NAMES",
    "BULK_SCRATCH_BYTES",
    "CompiledBackend",
    "DEFAULT_BACKEND",
    "InferenceBackend",
    "LibraryBackend",
    "ReferenceBackend",
    "ReferenceLibraryBackend",
    "StreamStepper",
    "make_backend",
    "make_library_backend",
    "validate_backend_name",
]
