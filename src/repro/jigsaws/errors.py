"""Rubric-driven error injection for synthetic demonstrations.

Realises each error mode of paper Table II as a kinematic signature
applied to a rendered gesture segment:

===========================  ===================================================
Error mode                   Kinematic signature
===========================  ===================================================
More than one attempt        extra back-and-forth oscillation of the active arm
Driving with >1 movement     stop-and-go time warp of the needle-driving path
Unintentional needle drop    jaw spike + downward jerk, then re-grasp
Holder not in view           smooth excursion beyond the endoscope view volume
Not along the needle curve   flattened path + reduced wrist sweep
Uses tissue for stability    damped motion resting on the tissue plane
Knot left loose              shortened, slower tightening pull
Failure to dropoff           jaws never open during the drop gesture
===========================  ===================================================

Per-gesture injection probabilities follow the error prevalences of paper
Table VII; per-gesture signature *strengths* are tuned so the resulting
detectability ordering matches the paper's per-gesture AUCs (strong
signatures for G4/G6, subtle ones for G2).
"""

from __future__ import annotations

import numpy as np

from ..config import as_generator
from ..errors import GestureError
from ..gestures.rubric import ErrorMode, error_modes_for
from ..gestures.vocabulary import Gesture
from ..kinematics.state import N_VARIABLES_PER_ARM
from .primitives import SkillProfile

#: Per-gesture error prevalence for Suturing (paper Table VII, train %).
ERROR_RATES: dict[Gesture, float] = {
    Gesture.G1: 0.29,
    Gesture.G2: 0.25,
    Gesture.G3: 0.41,
    Gesture.G4: 0.77,
    Gesture.G5: 0.05,
    Gesture.G6: 0.74,
    Gesture.G8: 0.45,
    Gesture.G9: 0.59,
}

#: Signature strength per gesture: multiplies the base amplitude of the
#: injected perturbation.  Calibrated against the paper's per-gesture AUC
#: ordering (G4/G6 ~0.93 easy, G2 ~0.50 near-chance).
SIGNATURE_STRENGTH: dict[Gesture, float] = {
    Gesture.G1: 0.7,
    Gesture.G2: 0.2,
    Gesture.G3: 1.0,
    Gesture.G4: 1.6,
    Gesture.G5: 0.5,
    Gesture.G6: 1.6,
    Gesture.G8: 1.2,
    Gesture.G9: 0.5,
    Gesture.G11: 1.0,
    Gesture.G12: 0.8,
}

_LEFT = 0
_RIGHT = N_VARIABLES_PER_ARM

#: Which arm carries each gesture's error signature.
_ACTIVE_ARM_OFFSET: dict[Gesture, int] = {
    Gesture.G1: _RIGHT,
    Gesture.G2: _RIGHT,
    Gesture.G3: _RIGHT,
    Gesture.G4: _RIGHT,
    Gesture.G5: _RIGHT,
    Gesture.G6: _LEFT,
    Gesture.G8: _RIGHT,
    Gesture.G9: _RIGHT,
    Gesture.G11: _RIGHT,
    Gesture.G12: _LEFT,
}


class ErrorInjector:
    """Applies rubric error signatures to gesture segments.

    Parameters
    ----------
    rate_scale:
        Global multiplier on injection probabilities (1.0 reproduces the
        Table VII prevalences).
    frame_rate_hz:
        Frame rate of the segments (for velocity re-derivation).
    """

    def __init__(self, rate_scale: float = 1.0, frame_rate_hz: float = 30.0) -> None:
        if rate_scale < 0:
            raise GestureError("rate_scale must be >= 0")
        self.rate_scale = float(rate_scale)
        self.frame_rate_hz = float(frame_rate_hz)

    # ------------------------------------------------------------------
    def maybe_inject(
        self,
        gesture: Gesture,
        frames: np.ndarray,
        skill: SkillProfile,
        rng: int | np.random.Generator | None,
    ) -> tuple[np.ndarray, ErrorMode | None]:
        """Randomly inject one of the gesture's rubric errors.

        Returns the (possibly modified) frames and the injected mode, or
        ``None`` when the execution stays clean.  Gestures without rubric
        entries are never erroneous.
        """
        gen = as_generator(rng)
        specs = error_modes_for(gesture)
        rate = ERROR_RATES.get(gesture, 0.0) * skill.error_rate_scale * self.rate_scale
        if not specs or gen.random() >= min(rate, 0.97):
            return frames, None
        spec = specs[int(gen.integers(len(specs)))]
        modified = self.apply(gesture, spec.mode, frames, gen)
        return modified, spec.mode

    def apply(
        self,
        gesture: Gesture,
        mode: ErrorMode,
        frames: np.ndarray,
        rng: int | np.random.Generator | None,
    ) -> np.ndarray:
        """Deterministically apply ``mode``'s signature to ``frames``."""
        gen = as_generator(rng)
        frames = np.array(frames, dtype=float, copy=True)
        strength = SIGNATURE_STRENGTH.get(gesture, 1.0)
        offset = _ACTIVE_ARM_OFFSET.get(gesture, _RIGHT)
        handler = {
            ErrorMode.MULTIPLE_ATTEMPTS: self._multiple_attempts,
            ErrorMode.MULTIPLE_MOVEMENTS: self._multiple_movements,
            ErrorMode.NEEDLE_DROP: self._needle_drop,
            ErrorMode.OUT_OF_VIEW: self._out_of_view,
            ErrorMode.NOT_ALONG_CURVE: self._not_along_curve,
            ErrorMode.USES_TISSUE_FOR_STABILITY: self._tissue_stability,
            ErrorMode.KNOT_LEFT_LOOSE: self._knot_loose,
            ErrorMode.FAILURE_TO_DROPOFF: self._failure_to_dropoff,
        }.get(mode)
        if handler is None:
            raise GestureError(f"no signature implemented for mode {mode}")
        handler(frames, offset, strength, gen)
        self._rederive_velocities(frames, offset)
        return frames

    # ------------------------------------------------------------------
    # Signatures.  Each mutates `frames` in place for the arm at `offset`.
    # ------------------------------------------------------------------
    def _multiple_attempts(
        self, frames: np.ndarray, offset: int, strength: float, gen: np.random.Generator
    ) -> None:
        n = frames.shape[0]
        pos = frames[:, offset : offset + 3]
        # A retry: partway through, the arm backtracks toward its start
        # point and re-approaches (one full extra oscillation).
        phase = np.clip(np.linspace(-0.25, 1.25, n), 0.0, 1.0)
        envelope = np.sin(phase * 2.0 * np.pi) ** 2
        direction = pos[0] - pos[-1]
        norm = np.linalg.norm(direction)
        if norm > 1e-9:
            direction = direction / norm
        amplitude = 0.012 * strength
        pos += envelope[:, None] * direction[None, :] * amplitude
        # Retries also wobble the wrist — smoothly, in phase with the
        # backtrack (white noise here would be a trivially global
        # high-frequency cue rather than a contextual one).
        wobble_axes = gen.normal(0.0, 0.03 * strength, 9)
        frames[:, offset + 3 : offset + 12] += (
            envelope[:, None] * wobble_axes[None, :]
        )

    def _multiple_movements(
        self, frames: np.ndarray, offset: int, strength: float, gen: np.random.Generator
    ) -> None:
        n = frames.shape[0]
        # Stop-and-go: re-parameterise time so the drive pauses twice.
        t = np.linspace(0.0, 1.0, n)
        warped = t + 0.18 * strength * np.sin(3.0 * np.pi * t) / (3.0 * np.pi)
        warped = np.clip(warped, 0.0, 1.0)
        src = warped * (n - 1)
        lo = np.floor(src).astype(int)
        hi = np.minimum(lo + 1, n - 1)
        frac = (src - lo)[:, None]
        pos = frames[:, offset : offset + 3]
        frames[:, offset : offset + 3] = pos[lo] * (1 - frac) + pos[hi] * frac

    def _needle_drop(
        self, frames: np.ndarray, offset: int, strength: float, gen: np.random.Generator
    ) -> None:
        n = frames.shape[0]
        drop_at = int(gen.uniform(0.25, 0.55) * n)
        ramp = max(2, n // 8)
        end = min(n, drop_at + ramp)
        # The jaw slips open and STAYS open — the needle is gone, so the
        # rest of the gesture is executed with an empty, open grasper (a
        # sustained state change, which is why needle drops are among the
        # best-detected errors in the paper).  The open angle saturates at
        # the *normal* open level (~0.9 rad): an open jaw is perfectly
        # safe in G1/G11/G12 context, so only the gesture context makes
        # this pattern anomalous.
        target = min(frames[drop_at, offset + 18] + 0.45 * strength, 0.92)
        frames[drop_at:end, offset + 18] = np.linspace(
            frames[drop_at, offset + 18], target, end - drop_at
        )
        frames[end:, offset + 18] = target + gen.normal(0.0, 0.01, max(n - end, 0))
        # The tool jerks downward as the needle falls free...
        frames[drop_at:end, offset + 2] -= np.linspace(0.0, 0.008 * strength, end - drop_at)
        # ...then backtracks toward the drop point to re-acquire instead
        # of completing the planned motion.
        if end < n - 1:
            drop_point = frames[drop_at, offset : offset + 3].copy()
            tail = frames[end:, offset : offset + 3]
            pull = np.linspace(0.0, 0.7, tail.shape[0])[:, None]
            frames[end:, offset : offset + 3] = (1 - pull) * tail + pull * drop_point[None, :]

    def _out_of_view(
        self, frames: np.ndarray, offset: int, strength: float, gen: np.random.Generator
    ) -> None:
        n = frames.shape[0]
        # Smooth excursion drifting the tool toward (and briefly past)
        # the edge of the endoscopic view along the arm's home direction.
        # The visited positions overlap territory that is *normal* for
        # other gestures of the same arm (the G1 approach / G11 end point
        # for the right arm, the G6 pull for the left), so the excursion
        # is anomalous only in context.
        sign = 1.0 if offset else -1.0  # right arm drifts +x, left -x
        bump = np.sin(np.linspace(0.0, np.pi, n)) ** 2
        target_x = sign * gen.uniform(0.060, 0.080)
        drift = target_x - frames[n // 2, offset]
        frames[:, offset] += bump * drift * min(1.0, 0.625 * strength)

    def _not_along_curve(
        self, frames: np.ndarray, offset: int, strength: float, gen: np.random.Generator
    ) -> None:
        n = frames.shape[0]
        pos = frames[:, offset : offset + 3]
        # Straight-line pull: collapse the curved dip onto the chord and
        # lift slightly above the tissue plane (the needle is dragged out
        # rather than rolled along its curve).
        chord = np.linspace(0.0, 1.0, n)[:, None] * (pos[-1] - pos[0])[None, :] + pos[0]
        chord[:, 2] += 0.004 * strength
        blend = min(0.9, 0.6 * strength)
        frames[:, offset : offset + 3] = (1 - blend) * pos + blend * chord
        # The wrist stops sweeping along the needle curve.
        mid = frames[n // 2, offset + 3 : offset + 12]
        frames[:, offset + 3 : offset + 12] = (
            (1 - blend) * frames[:, offset + 3 : offset + 12] + blend * mid[None, :]
        )

    def _tissue_stability(
        self, frames: np.ndarray, offset: int, strength: float, gen: np.random.Generator
    ) -> None:
        n = frames.shape[0]
        pos = frames[:, offset : offset + 3]
        anchor = pos[n // 2].copy()
        anchor[2] = min(anchor[2], 0.008)  # resting on the tissue plane
        damp = min(0.85, 0.55 * strength)
        frames[:, offset : offset + 3] = (1 - damp) * pos + damp * anchor[None, :]
        # Rotation freezes while leaning on the tissue.
        mid_rot = frames[n // 2, offset + 3 : offset + 12]
        frames[:, offset + 3 : offset + 12] = (
            (1 - damp) * frames[:, offset + 3 : offset + 12] + damp * mid_rot[None, :]
        )

    def _knot_loose(
        self, frames: np.ndarray, offset: int, strength: float, gen: np.random.Generator
    ) -> None:
        pos = frames[:, offset : offset + 3]
        # The tightening pull stops short: compress displacement.
        scale = max(0.25, 1.0 - 0.6 * strength)
        frames[:, offset : offset + 3] = pos[0][None, :] + scale * (pos - pos[0])
        # The jaws squeeze with less pressure (slightly more open).
        frames[:, offset + 18] += 0.12 * strength

    def _failure_to_dropoff(
        self, frames: np.ndarray, offset: int, strength: float, gen: np.random.Generator
    ) -> None:
        # The jaws never open: clamp to the initial (closed) angle.
        frames[:, offset + 18] = frames[0, offset + 18] + gen.normal(
            0.0, 0.01, frames.shape[0]
        )

    # ------------------------------------------------------------------
    def _rederive_velocities(self, frames: np.ndarray, offset: int) -> None:
        """Recompute the velocity channels after position edits."""
        dt = 1.0 / self.frame_rate_hz
        pos = frames[:, offset : offset + 3]
        frames[:, offset + 12 : offset + 15] = np.gradient(pos, dt, axis=0)
        rot = frames[:, offset + 3 : offset + 12]
        frames[:, offset + 15 : offset + 18] = np.gradient(rot, dt, axis=0)[:, :3]
