"""Constants and scene geometry for the synthetic JIGSAWS data.

The JIGSAWS recordings come from eight subjects (B..I) performing five
trials of each task on the dVRK; the paper uses 39 Suturing
demonstrations under the Leave-One-SuperTrial-Out (LOSO) protocol
(supertrial ``i`` = the i-th trial of every subject).

Positions are in metres in the dVRK's task-space convention; the scene
anchors below define the spatial layout of the dry-lab suturing pad that
the motion primitives move between.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Subject identifiers (JIGSAWS convention).
SUBJECTS: tuple[str, ...] = ("B", "C", "D", "E", "F", "G", "H", "I")

#: Trials per subject; trial index == supertrial index for LOSO.
TRIALS_PER_SUBJECT = 5

#: JIGSAWS kinematics frame rate.
FRAME_RATE_HZ = 30.0

#: Skill categories (JIGSAWS: based on hours of robotic surgery).
SKILL_LEVELS: dict[str, str] = {
    "B": "novice",
    "C": "novice",
    "D": "expert",
    "E": "expert",
    "F": "intermediate",
    "G": "novice",
    "H": "intermediate",
    "I": "novice",
}


@dataclass(frozen=True)
class SuturingAnchors:
    """Key positions (metres) of the dry-lab suturing scene.

    The anchors are the targets the per-gesture motion primitives travel
    between; the coordinate frame is centred on the suturing pad with x
    to the patient's right, y away from the endoscope and z up.
    """

    needle_site: np.ndarray = field(
        default_factory=lambda: np.array([0.050, 0.020, 0.020])
    )
    tissue_entry: np.ndarray = field(
        default_factory=lambda: np.array([0.000, 0.000, 0.010])
    )
    tissue_exit: np.ndarray = field(
        default_factory=lambda: np.array([-0.020, 0.000, 0.010])
    )
    center: np.ndarray = field(default_factory=lambda: np.array([0.000, 0.030, 0.040]))
    left_home: np.ndarray = field(
        default_factory=lambda: np.array([-0.050, 0.040, 0.030])
    )
    right_home: np.ndarray = field(
        default_factory=lambda: np.array([0.050, 0.040, 0.030])
    )
    end_point: np.ndarray = field(
        default_factory=lambda: np.array([0.060, -0.040, 0.030])
    )
    pull_target: np.ndarray = field(
        default_factory=lambda: np.array([-0.060, 0.050, 0.050])
    )
    #: Endoscope view half-extents; excursions beyond mark "out of view".
    view_extent: np.ndarray = field(
        default_factory=lambda: np.array([0.070, 0.060, 0.080])
    )
