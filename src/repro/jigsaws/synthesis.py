"""Whole-demonstration synthesis for the JIGSAWS-style tasks.

:class:`SurgicalTaskSynthesizer` ties together the task grammar (Markov
chain), the per-gesture motion primitives, subject skill profiles and the
rubric error injector to produce annotated demonstrations with the same
structure as the paper's dVRK data: 38-variable kinematics at 30 Hz,
per-frame gesture labels and per-frame unsafe labels (a whole gesture is
unsafe when any rubric error was injected into it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import as_generator
from ..errors import DatasetError
from ..gestures.markov import MarkovChain
from ..gestures.models import suturing_chain
from ..gestures.vocabulary import END_TOKEN, START_TOKEN, Gesture
from ..kinematics.state import N_VARIABLES_PER_ARM
from ..kinematics.trajectory import Trajectory
from .dataset import Demonstration, SurgicalDataset
from .errors import ErrorInjector
from .primitives import PRIMITIVES, SKILL_PROFILES, render_gesture
from .schema import FRAME_RATE_HZ, SKILL_LEVELS, SUBJECTS, TRIALS_PER_SUBJECT, SuturingAnchors


#: Knot-Tying grammar: reach suture, loop, reach through loop, pull taut.
#: (The paper does not publish these chains; a plausible deterministic
#: core with a stochastic retry of the loop matches the task's structure
#: and yields the intermediate difficulty seen in paper Table IV.)
KNOT_TYING_CHAIN = MarkovChain(
    {
        START_TOKEN: {int(Gesture.G1): 0.8, int(Gesture.G12): 0.2},
        int(Gesture.G1): {int(Gesture.G12): 0.9, int(Gesture.G13): 0.1},
        int(Gesture.G12): {int(Gesture.G13): 1.0},
        int(Gesture.G13): {int(Gesture.G14): 0.85, int(Gesture.G13): 0.15},
        int(Gesture.G14): {int(Gesture.G15): 1.0},
        int(Gesture.G15): {int(Gesture.G11): 0.8, int(Gesture.G13): 0.2},
        int(Gesture.G11): {END_TOKEN: 1.0},
    }
)

#: Needle-Passing grammar: like Suturing but with more positional
#: ambiguity (passes through rings rather than tissue) — more gesture
#: recurrence, which makes it the hardest task to segment (Table IV).
NEEDLE_PASSING_CHAIN = MarkovChain(
    {
        START_TOKEN: {int(Gesture.G1): 0.7, int(Gesture.G5): 0.3},
        int(Gesture.G1): {int(Gesture.G2): 0.8, int(Gesture.G5): 0.2},
        int(Gesture.G2): {int(Gesture.G3): 0.9, int(Gesture.G8): 0.1},
        int(Gesture.G3): {int(Gesture.G6): 0.75, int(Gesture.G2): 0.15, int(Gesture.G8): 0.1},
        int(Gesture.G4): {int(Gesture.G2): 0.6, int(Gesture.G8): 0.2, int(Gesture.G11): 0.2},
        int(Gesture.G5): {int(Gesture.G2): 0.7, int(Gesture.G8): 0.3},
        int(Gesture.G6): {int(Gesture.G4): 0.7, int(Gesture.G11): 0.2, int(Gesture.G2): 0.1},
        int(Gesture.G8): {int(Gesture.G2): 0.9, int(Gesture.G3): 0.1},
        int(Gesture.G11): {END_TOKEN: 1.0},
    }
)


@dataclass
class SurgicalTaskSynthesizer:
    """Generates annotated synthetic demonstrations of one task.

    Parameters
    ----------
    task:
        Task name recorded into demonstration metadata.
    chain:
        The gesture grammar to sample sequences from.
    error_injector:
        Rubric error injector (pass ``ErrorInjector(rate_scale=0)`` for
        fault-free data).
    anchors:
        Scene geometry.
    position_noise_extra:
        Additional positional noise (metres) applied to whole
        demonstrations; used to make Needle-Passing harder to segment.
    """

    task: str = "suturing"
    chain: MarkovChain = field(default_factory=suturing_chain)
    error_injector: ErrorInjector = field(default_factory=ErrorInjector)
    anchors: SuturingAnchors = field(default_factory=SuturingAnchors)
    frame_rate_hz: float = FRAME_RATE_HZ
    position_noise_extra: float = 0.0

    # ------------------------------------------------------------------
    def demonstration(
        self,
        subject: str,
        trial: int,
        rng: int | np.random.Generator | None = None,
    ) -> Demonstration:
        """Synthesise one annotated demonstration."""
        gen = as_generator(rng)
        skill = SKILL_PROFILES[SKILL_LEVELS.get(subject, "intermediate")]
        sequence = self.chain.sample_sequence(gen)
        # Per-demonstration scene shift: the suturing pad never sits at
        # exactly the same spot between trials.  This global offset adds
        # inter-demonstration variability that hurts absolute-position
        # cues (gesture classification) while leaving shift-invariant
        # error signatures intact — mirroring the real dVRK recordings.
        demo_offset = gen.normal(0.0, 0.012, 3)

        segments: list[np.ndarray] = []
        gesture_labels: list[np.ndarray] = []
        unsafe_labels: list[np.ndarray] = []
        error_modes: list[str | None] = []
        last_left: np.ndarray | None = None
        last_right: np.ndarray | None = None

        for gesture in sequence:
            primitive = PRIMITIVES.get(gesture)
            if primitive is None:
                raise DatasetError(f"no primitive defined for {gesture}")
            start = (
                None
                if last_left is None
                else (last_left, last_right)
            )
            frames = render_gesture(
                primitive,
                self.anchors,
                skill,
                gen,
                frame_rate_hz=self.frame_rate_hz,
                start_positions=start,
            )
            frames, mode = self.error_injector.maybe_inject(
                gesture, frames, skill, gen
            )
            for off in (0, N_VARIABLES_PER_ARM):
                frames[:, off : off + 3] += demo_offset[None, :]
            if self.position_noise_extra > 0.0:
                for off in (0, N_VARIABLES_PER_ARM):
                    frames[:, off : off + 3] += gen.normal(
                        0.0, self.position_noise_extra, (frames.shape[0], 3)
                    )
            n = frames.shape[0]
            segments.append(frames)
            gesture_labels.append(np.full(n, int(gesture)))
            unsafe_labels.append(np.full(n, 1 if mode is not None else 0))
            error_modes.append(None if mode is None else mode.value)
            last_left = frames[-1, 0:3].copy()
            last_right = frames[-1, N_VARIABLES_PER_ARM : N_VARIABLES_PER_ARM + 3].copy()

        trajectory = Trajectory(
            frames=np.concatenate(segments, axis=0),
            frame_rate_hz=self.frame_rate_hz,
            gestures=np.concatenate(gesture_labels),
            unsafe=np.concatenate(unsafe_labels),
            metadata={
                "task": self.task,
                "subject": subject,
                "trial": trial,
                "skill": skill.label,
                "error_modes": error_modes,
                "gesture_sequence": [int(g) for g in sequence],
            },
        )
        return Demonstration(
            trajectory=trajectory, subject=subject, trial=trial, task=self.task
        )

    def dataset(
        self,
        n_demos: int | None = None,
        rng: int | np.random.Generator | None = 0,
    ) -> SurgicalDataset:
        """Synthesise a full dataset across subjects and supertrials.

        The default count is ``len(SUBJECTS) * TRIALS_PER_SUBJECT - 1``
        (39 for the canonical roster, matching the paper's 39 Suturing
        demonstrations: one recording is traditionally missing).
        """
        gen = as_generator(rng)
        roster = [
            (subject, trial)
            for trial in range(1, TRIALS_PER_SUBJECT + 1)
            for subject in SUBJECTS
        ]
        if n_demos is None:
            n_demos = len(roster) - 1
        if n_demos < 1:
            raise DatasetError("n_demos must be >= 1")
        demos = [
            self.demonstration(subject, trial, gen)
            for subject, trial in roster[:n_demos]
        ]
        return SurgicalDataset(demonstrations=demos, task=self.task)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def make_suturing_dataset(
    n_demos: int | None = None,
    rng: int | np.random.Generator | None = 0,
    error_rate_scale: float = 1.0,
) -> SurgicalDataset:
    """The paper's Suturing dataset: 39 demos with rubric errors."""
    synth = SurgicalTaskSynthesizer(
        task="suturing",
        chain=suturing_chain(),
        error_injector=ErrorInjector(rate_scale=error_rate_scale),
    )
    return synth.dataset(n_demos=n_demos, rng=rng)


def make_task_dataset(
    task: str,
    n_demos: int | None = None,
    rng: int | np.random.Generator | None = 0,
) -> SurgicalDataset:
    """Dataset for ``task`` in {"suturing", "knot_tying", "needle_passing"}.

    Knot-Tying and Needle-Passing are used only for the gesture
    classification comparison of paper Table IV (28 and 36 demos).
    """
    if task == "suturing":
        return make_suturing_dataset(n_demos=n_demos, rng=rng)
    if task == "knot_tying":
        synth = SurgicalTaskSynthesizer(
            task=task,
            chain=KNOT_TYING_CHAIN,
            error_injector=ErrorInjector(rate_scale=0.0),
            position_noise_extra=0.0015,
        )
        return synth.dataset(n_demos=28 if n_demos is None else n_demos, rng=rng)
    if task == "needle_passing":
        synth = SurgicalTaskSynthesizer(
            task=task,
            chain=NEEDLE_PASSING_CHAIN,
            error_injector=ErrorInjector(rate_scale=0.0),
            position_noise_extra=0.004,
        )
        return synth.dataset(n_demos=36 if n_demos is None else n_demos, rng=rng)
    raise DatasetError(f"unknown task {task!r}")
