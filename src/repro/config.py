"""Global configuration objects and deterministic seeding helpers.

Every stochastic component in the library accepts either an integer seed or
a fully constructed :class:`numpy.random.Generator`.  The helper
:func:`as_generator` normalises the two so modules never touch global numpy
random state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

#: Frame rate of the JIGSAWS kinematics recordings (paper Section IV-A).
JIGSAWS_FRAME_RATE_HZ = 30.0

#: Frame rate of the virtual camera in the Raven II simulator (Section IV-B).
VIDEO_FRAME_RATE_HZ = 30.0

#: Kinematics sampling rate of the Raven II Gazebo simulator in the paper.
#: The pure-Python simulator defaults to a lower rate for tractability but
#: this constant records the paper's value.
RAVEN_PAPER_SAMPLE_RATE_HZ = 1000.0

#: Default kinematics sampling rate used by :mod:`repro.simulation`.
RAVEN_DEFAULT_SAMPLE_RATE_HZ = 100.0


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for non-deterministic entropy, an ``int`` for a seeded
        generator, or an existing generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise ConfigurationError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed)!r}"
    )


def frames_to_ms(frames: float, frame_rate_hz: float = JIGSAWS_FRAME_RATE_HZ) -> float:
    """Convert a frame count at ``frame_rate_hz`` into milliseconds.

    The paper reports timing both in frames and milliseconds (e.g. a
    reaction time of "-1.7 frames (-57 ms)" at 30 Hz); this helper keeps the
    conversion in one place.
    """
    if frame_rate_hz <= 0:
        raise ConfigurationError("frame_rate_hz must be positive")
    return 1000.0 * frames / frame_rate_hz


def ms_to_frames(ms: float, frame_rate_hz: float = JIGSAWS_FRAME_RATE_HZ) -> float:
    """Convert milliseconds into a (fractional) frame count."""
    if frame_rate_hz <= 0:
        raise ConfigurationError("frame_rate_hz must be positive")
    return ms * frame_rate_hz / 1000.0


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window parameters for time-series classification.

    Mirrors Equation 2 of the paper: an input sample is the ``window``
    consecutive kinematics frames starting at ``t`` and windows advance by
    ``stride`` frames.
    """

    window: int = 5
    stride: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if self.stride < 1:
            raise ConfigurationError("stride must be >= 1")

    def n_windows(self, n_frames: int) -> int:
        """Number of complete windows over a sequence of ``n_frames``."""
        if n_frames < self.window:
            return 0
        return (n_frames - self.window) // self.stride + 1

    def completes(self, seen):
        """Whether a stream's ``seen``-th frame (int or array) completes
        a window: the first at ``window`` frames, then every ``stride``."""
        if self.stride == 1:  # every frame from the first window on
            return seen >= self.window
        return (seen >= self.window) & ((seen - self.window) % self.stride == 0)


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyper-parameters shared by the paper's models.

    Defaults follow Section III: Adam with a low initial learning rate,
    step-decay and early stopping on a held-out validation split.
    """

    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 30
    early_stopping_patience: int = 5
    lr_decay_factor: float = 0.5
    lr_decay_every: int = 10
    validation_fraction: float = 0.15
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must be in [0, 1)")


@dataclass(frozen=True)
class MonitorConfig:
    """End-to-end safety-monitor configuration (paper Section V-B).

    ``error_window`` is the window used by the erroneous-gesture
    classifiers (the paper uses 5 for Suturing and 10 for Block
    Transfer); the gesture classifier's window is its own
    ``GestureClassifierConfig.window``.  A gesture is flagged unsafe on
    its first erroneous window, as in the paper; there is no vote over
    the windows of a gesture.
    """

    error_window: WindowConfig = field(default_factory=WindowConfig)
    frame_rate_hz: float = JIGSAWS_FRAME_RATE_HZ

    def __post_init__(self) -> None:
        if self.frame_rate_hz <= 0:
            raise ConfigurationError("frame_rate_hz must be positive")
