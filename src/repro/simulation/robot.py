"""Raven II simulator core.

:class:`RavenSimulator` replays commanded trajectories (from the task
planner / tele-operator, possibly perturbed by the fault injector),
resolves contact physics, and logs the full 277-feature state vector at
the kinematics rate plus virtual-camera frames at 30 fps — the same data
products the paper's ROS Gazebo setup records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..config import RAVEN_DEFAULT_SAMPLE_RATE_HZ
from ..errors import ShapeError, SimulationError
from ..kinematics.rotations import rotation_from_euler
from ..kinematics.trajectory import Trajectory
from .camera import VirtualCamera
from .motion import finite_difference_velocity
from .physics import GrasperPhysics, PhysicsEngine, PhysicsOutcome
from .schema import RAVEN_STATE_WIDTH, RavenStateLayout
from .workspace import Workspace


@dataclass
class CommandedTrajectory:
    """The command stream a tele-operator (or planner) sends to the robot.

    Attributes
    ----------
    positions:
        Commanded tip positions per arm: ``{"left": (n, 3), "right": (n, 3)}``.
    jaw_angles:
        Commanded jaw angles per arm: ``{"left": (n,), "right": (n,)}``.
    gestures:
        Per-step gesture annotation recorded by the operator.
    sample_rate_hz:
        Command rate (equals the simulator kinematics rate).
    transfer_arm:
        Which arm performs the block transfer.
    """

    positions: dict[str, np.ndarray]
    jaw_angles: dict[str, np.ndarray]
    gestures: np.ndarray
    sample_rate_hz: float = RAVEN_DEFAULT_SAMPLE_RATE_HZ
    transfer_arm: str = "left"
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for arm in ("left", "right"):
            if arm not in self.positions or arm not in self.jaw_angles:
                raise ShapeError(f"missing commands for arm {arm!r}")
            self.positions[arm] = np.asarray(self.positions[arm], dtype=float)
            self.jaw_angles[arm] = np.asarray(self.jaw_angles[arm], dtype=float)
            if self.positions[arm].ndim != 2 or self.positions[arm].shape[1] != 3:
                raise ShapeError(f"{arm} positions must be (n, 3)")
        self.gestures = np.asarray(self.gestures, dtype=int)
        n = self.n_steps
        for arm in ("left", "right"):
            if self.positions[arm].shape[0] != n or self.jaw_angles[arm].shape[0] != n:
                raise ShapeError("all command streams must have equal length")
        if self.gestures.shape != (n,):
            raise ShapeError("gestures must have one entry per step")
        if self.transfer_arm not in ("left", "right"):
            raise ShapeError("transfer_arm must be 'left' or 'right'")

    @property
    def n_steps(self) -> int:
        """Number of command samples."""
        return int(self.positions["left"].shape[0])

    def copy(self) -> "CommandedTrajectory":
        """Deep copy (the fault injector mutates copies, never originals)."""
        return CommandedTrajectory(
            positions={a: p.copy() for a, p in self.positions.items()},
            jaw_angles={a: j.copy() for a, j in self.jaw_angles.items()},
            gestures=self.gestures.copy(),
            sample_rate_hz=self.sample_rate_hz,
            transfer_arm=self.transfer_arm,
            metadata=dict(self.metadata),
        )


@dataclass
class SimulationResult:
    """Everything one simulated trial produces."""

    #: Full 277-feature log, shape ``(n_steps, 277)``.
    states: np.ndarray
    #: Per-step gesture labels.
    gestures: np.ndarray
    #: Physical outcome of the trial.
    outcome: PhysicsOutcome
    #: Frame index of grasp / release events (simulator rate), or None.
    grasp_frame: int | None
    release_frame: int | None
    #: Virtual camera frames (30 fps) and their kinematics-frame indices.
    video_frames: np.ndarray | None
    video_frame_indices: np.ndarray | None
    #: Block centroid world positions per kinematics step, shape (n, 3).
    block_positions: np.ndarray
    sample_rate_hz: float
    metadata: dict[str, Any] = field(default_factory=dict)

    def kinematics_trajectory(self, layout: RavenStateLayout | None = None) -> Trajectory:
        """Extract the 38-variable JIGSAWS-style trajectory from the log."""
        layout = layout or RavenStateLayout()
        frames = self.states[:, layout.jigsaws_38_indices()]
        return Trajectory(
            frames=frames,
            frame_rate_hz=self.sample_rate_hz,
            gestures=self.gestures,
            metadata=dict(self.metadata),
        )


class RavenSimulator:
    """Replays command streams against the contact model.

    Parameters
    ----------
    workspace:
        Scene template; each trial works on a fresh copy.
    physics:
        Contact-model parameters.
    camera:
        Virtual camera; pass ``None`` to skip video logging.
    rng:
        Seed / generator for trial-to-trial physical variability.
    """

    def __init__(
        self,
        workspace: Workspace | None = None,
        physics: GrasperPhysics | None = None,
        camera: VirtualCamera | None = None,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        self.workspace_template = workspace or Workspace()
        self.physics = physics or GrasperPhysics()
        self.camera = camera
        from ..config import as_generator

        self._rng = as_generator(rng)
        self._layout = RavenStateLayout()

    # ------------------------------------------------------------------
    def run(self, commands: CommandedTrajectory) -> SimulationResult:
        """Execute one trial and return its full log (video frames
        included when the simulator has a camera).

        The robot tracks commanded positions through a first-order servo
        (critically damped tracking with a small time constant), so
        commanded discontinuities — e.g. injected jumps — appear smoothed
        but fast in the actual state, as on the real robot.
        """
        n = commands.n_steps
        if n < 2:
            raise SimulationError("commanded trajectory must have at least 2 steps")
        dt = 1.0 / commands.sample_rate_hz
        workspace = self.workspace_template.copy()
        engine = PhysicsEngine(workspace, self.physics, self._rng)

        # Servo tracking constant: the robot reaches ~95% of a step
        # command in three time constants (30 ms at the default rate).
        alpha = float(np.clip(dt / 0.010, 0.05, 1.0))

        actual_pos = {
            arm: np.empty((n, 3)) for arm in ("left", "right")
        }
        actual_jaw = {arm: np.empty(n) for arm in ("left", "right")}
        block_positions = np.empty((n, 3))

        state_pos = {
            arm: commands.positions[arm][0].copy() for arm in ("left", "right")
        }
        state_jaw = {arm: float(commands.jaw_angles[arm][0]) for arm in ("left", "right")}

        video_frames: list[np.ndarray] = []
        video_indices: list[int] = []
        if self.camera is not None:
            video_every = max(
                1, int(round(commands.sample_rate_hz / self.camera.intrinsics.frame_rate_hz))
            )
        else:
            video_every = 0

        for t in range(n):
            for arm in ("left", "right"):
                target = commands.positions[arm][t]
                state_pos[arm] = state_pos[arm] + alpha * (target - state_pos[arm])
                jaw_target = float(commands.jaw_angles[arm][t])
                state_jaw[arm] = state_jaw[arm] + alpha * (jaw_target - state_jaw[arm])
                actual_pos[arm][t] = state_pos[arm]
                actual_jaw[arm][t] = state_jaw[arm]
            engine.step(
                actual_pos[commands.transfer_arm][t],
                actual_jaw[commands.transfer_arm][t],
                commands.transfer_arm,
            )
            block_positions[t] = workspace.block.position
            if video_every and t % video_every == 0:
                tips = [actual_pos["left"][t], actual_pos["right"][t]]
                video_frames.append(self.camera.render(workspace, tips))
                video_indices.append(t)

        states = self._assemble_states(commands, actual_pos, actual_jaw, dt)
        drop_window = _gesture_window(commands.gestures, gesture=11)
        outcome = engine.outcome(drop_window)

        return SimulationResult(
            states=states,
            gestures=commands.gestures.copy(),
            outcome=outcome,
            grasp_frame=engine.grasp_frame,
            release_frame=engine.release_frame,
            video_frames=np.stack(video_frames) if video_frames else None,
            video_frame_indices=np.array(video_indices) if video_indices else None,
            block_positions=block_positions,
            sample_rate_hz=commands.sample_rate_hz,
            metadata=dict(commands.metadata),
        )

    # ------------------------------------------------------------------
    def _assemble_states(
        self,
        commands: CommandedTrajectory,
        actual_pos: dict[str, np.ndarray],
        actual_jaw: dict[str, np.ndarray],
        dt: float,
    ) -> np.ndarray:
        """Fill the 277-wide state log from the tracked trajectories."""
        n = commands.n_steps
        layout = self._layout
        states = np.zeros((n, RAVEN_STATE_WIDTH))
        layout.view(states, "runlevel")[:] = 3.0  # RL_PEDAL_DN: tele-op active
        layout.view(states, "dt")[:] = dt
        layout.view(states, "last_seq")[:, 0] = np.arange(n)
        layout.view(states, "time_s")[:, 0] = np.arange(n) * dt
        layout.view(states, "gesture_id")[:, 0] = commands.gestures
        fault_mask = commands.metadata.get("fault_mask")
        if fault_mask is not None:
            layout.view(states, "fault_active")[:, 0] = np.asarray(fault_mask, dtype=float)

        pos = layout.view(states, "pos")
        pos_d = layout.view(states, "pos_d")
        grasp = layout.view(states, "grasp")
        grasp_d = layout.view(states, "grasp_d")
        lin_vel = layout.view(states, "lin_vel")
        ori = layout.view(states, "ori")
        ori_d = layout.view(states, "ori_d")
        for k, arm in enumerate(("left", "right")):
            pos[:, 3 * k : 3 * k + 3] = actual_pos[arm]
            pos_d[:, 3 * k : 3 * k + 3] = commands.positions[arm]
            grasp[:, k] = actual_jaw[arm]
            grasp_d[:, k] = commands.jaw_angles[arm]
            lin_vel[:, 3 * k : 3 * k + 3] = finite_difference_velocity(
                actual_pos[arm], commands.sample_rate_hz
            )
            # Tool orientation: pointing down with a yaw that follows the
            # horizontal travel direction (plausible wrist behaviour).
            heading = np.arctan2(
                lin_vel[:, 3 * k + 1], lin_vel[:, 3 * k + 0] + 1e-9
            )
            for t in range(n):
                rot = rotation_from_euler(np.pi, 0.0, float(heading[t]))
                ori[t, 9 * k : 9 * k + 9] = rot.reshape(9)
            ori_d[:, 9 * k : 9 * k + 9] = ori[:, 9 * k : 9 * k + 9]

        # Joint/motor blocks: derived through a fixed synthetic kinematic
        # map (linear mix of tip pose) plus the jaw angle — enough to give
        # these channels realistic correlated dynamics.
        mix = np.linspace(0.2, 1.0, 8)[None, :]
        for k, arm in enumerate(("left", "right")):
            arm_pos = actual_pos[arm]
            joint = (
                arm_pos[:, 0:1] * mix * 0.01
                + arm_pos[:, 1:2] * mix[:, ::-1] * 0.01
                + arm_pos[:, 2:3] * 0.005
            )
            joint[:, 7] = actual_jaw[arm]
            jpos = layout.view(states, "jpos")
            jvel = layout.view(states, "jvel")
            jpos_d = layout.view(states, "jpos_d")
            mpos = layout.view(states, "mpos")
            mvel = layout.view(states, "mvel")
            mpos_d = layout.view(states, "mpos_d")
            cols = slice(8 * k, 8 * k + 8)
            jpos[:, cols] = joint
            jvel[:, cols] = np.gradient(joint, dt, axis=0)
            jpos_d[:, cols] = joint
            mpos[:, cols] = joint * 180.0 / np.pi  # motor degrees
            mvel[:, cols] = jvel[:, cols] * 180.0 / np.pi
            mpos_d[:, cols] = mpos[:, cols]
            layout.view(states, "enc_vals")[:, cols] = mpos[:, cols] * 100.0
            layout.view(states, "tau")[:, cols] = jvel[:, cols] * 0.1
        return states


def _gesture_window(gestures: np.ndarray, gesture: int) -> tuple[int, int] | None:
    """First contiguous run of ``gesture`` as ``(start, end_exclusive)``."""
    hits = np.flatnonzero(gestures == gesture)
    if hits.size == 0:
        return None
    return int(hits[0]), int(hits[-1]) + 1
