"""The Table III fault-injection campaign.

Reproduces the paper's 651-injection sweep over grasper-angle targets,
Cartesian deviations and injection durations on fault-free Block Transfer
demonstrations, counting the resulting block-drop and drop-off failures
per cell.

The grid mirrors Table III exactly: seven grasper-angle bins, each probed
under two duration conditions (grasper window 0.55-0.70 of the trajectory
paired with Cartesian window 0.50-0.60, and grasper 0.65-0.90 paired with
Cartesian 0.70-0.90), with two Cartesian deviation bins in each condition
and the paper's per-cell injection counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import as_generator
from ..errors import ConfigurationError
from ..simulation.blocktransfer import BlockTransferTask
from ..simulation.physics import GrasperPhysics
from ..simulation.robot import CommandedTrajectory, RavenSimulator, SimulationResult
from ..simulation.teleop import DEFAULT_OPERATORS, OperatorProfile
from ..simulation.workspace import Workspace
from .injector import FaultInjector
from .outcomes import outcome_error_category
from .types import (
    CARTESIAN_UNIT_SCALE,
    CartesianFault,
    FaultSpec,
    FaultWindow,
    GrasperAngleFault,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.pipeline import MonitorOutput, SafetyMonitor


@dataclass(frozen=True)
class CampaignCell:
    """One row of the Table III grid.

    Deviations are given in the paper's units (3,000-65,000); they are
    scaled by :data:`~repro.faults.types.CARTESIAN_UNIT_SCALE` when the
    fault is materialised.
    """

    grasper_rad: tuple[float, float]
    grasper_window: tuple[float, float]
    cartesian_dev: tuple[float, float]
    cartesian_window: tuple[float, float]
    n_injections: int

    def __post_init__(self) -> None:
        if self.n_injections < 1:
            raise ConfigurationError("n_injections must be >= 1")


def _condition_cells(
    grasper_rad: tuple[float, float],
    n_short: tuple[int, int],
    n_long: tuple[int, int] = (16, 16),
) -> list[CampaignCell]:
    """The four cells of one grasper-angle bin (two conditions x two
    Cartesian deviation bins), with the paper's injection counts."""
    short_g, long_g = (0.55, 0.70), (0.65, 0.90)
    short_c, long_c = (0.50, 0.60), (0.70, 0.90)
    low_dev, high_dev = (3000.0, 6000.0), (6000.0, 65000.0)
    return [
        CampaignCell(grasper_rad, short_g, low_dev, short_c, n_short[0]),
        CampaignCell(grasper_rad, short_g, high_dev, short_c, n_short[1]),
        CampaignCell(grasper_rad, long_g, low_dev, long_c, n_long[0]),
        CampaignCell(grasper_rad, long_g, high_dev, long_c, n_long[1]),
    ]


#: The full Table III grid: 651 injections.
TABLE_III_GRID: tuple[CampaignCell, ...] = tuple(
    cell
    for bin_cells in (
        _condition_cells((0.30, 0.40), (16, 8)),
        _condition_cells((0.50, 0.60), (16, 8)),
        _condition_cells((0.70, 0.80), (16, 8)),
        _condition_cells((0.90, 1.00), (58, 50)),
        _condition_cells((1.10, 1.20), (47, 74)),
        _condition_cells((1.30, 1.40), (41, 61)),
        _condition_cells((1.50, 1.60), (7, 17)),
    )
    for cell in bin_cells
)


@dataclass
class CellResult:
    """Aggregated outcomes of one campaign cell."""

    cell: CampaignCell
    n_injections: int = 0
    block_drops: int = 0
    dropoff_failures: int = 0
    wrong_positions: int = 0
    never_grasped: int = 0
    #: Injections the safety monitor flagged (any unsafe frame); stays 0
    #: unless :func:`run_campaign` was given a ``monitor``.
    detected: int = 0

    @property
    def n_errors(self) -> int:
        """Total injections that manifested as errors."""
        return (
            self.block_drops
            + self.dropoff_failures
            + self.wrong_positions
            + self.never_grasped
        )

    def record(self, category: str | None) -> None:
        """Account one injection outcome."""
        self.n_injections += 1
        if category == "block_drop":
            self.block_drops += 1
        elif category == "dropoff_failure":
            self.dropoff_failures += 1
        elif category == "wrong_position":
            self.wrong_positions += 1
        elif category == "never_grasped":
            self.never_grasped += 1


@dataclass
class CampaignResult:
    """Everything a campaign run produces."""

    cells: list[CellResult]
    #: Simulation results of every faulty trial, in injection order.
    results: list[SimulationResult] = field(default_factory=list)
    #: Monitor outputs per injection (in injection order) when the
    #: campaign ran with a ``monitor``; empty otherwise.
    monitor_outputs: list[MonitorOutput] = field(default_factory=list)

    @property
    def total_injections(self) -> int:
        """Number of injections executed."""
        return sum(c.n_injections for c in self.cells)

    @property
    def total_block_drops(self) -> int:
        """Total block-drop failures."""
        return sum(c.block_drops for c in self.cells)

    @property
    def total_dropoff_failures(self) -> int:
        """Total drop-off failures."""
        return sum(c.dropoff_failures for c in self.cells)

    @property
    def total_detected(self) -> int:
        """Total injections flagged by the monitor (0 without one)."""
        return sum(c.detected for c in self.cells)


def run_campaign(
    grid: tuple[CampaignCell, ...] = TABLE_III_GRID,
    base_demos: list[CommandedTrajectory] | None = None,
    scale: float = 1.0,
    sample_rate_hz: float = 50.0,
    workspace: Workspace | None = None,
    physics: GrasperPhysics | None = None,
    rng: int | np.random.Generator | None = 0,
    keep_results: bool = False,
    monitor: SafetyMonitor | None = None,
    monitor_backend: str = "reference",
) -> CampaignResult:
    """Execute a fault-injection campaign.

    Parameters
    ----------
    grid:
        Campaign cells; defaults to the full Table III grid.
    base_demos:
        Fault-free demonstrations to perturb; generated when omitted (the
        paper collected 20 fault-free demos from 2 subjects).
    scale:
        Multiplier on per-cell injection counts (``0.25`` runs a quarter
        campaign — useful for tests; minimum 1 injection per cell).
    sample_rate_hz:
        Simulator kinematics rate for generated demos.
    keep_results:
        Retain every :class:`SimulationResult` (needed when the campaign
        output feeds dataset construction; costs memory).
    monitor:
        Optional trained :class:`~repro.core.pipeline.SafetyMonitor`:
        every faulty trial's kinematics trajectory is scored inline
        (``CellResult.detected`` counts trials with any unsafe flag;
        per-trial outputs land in ``CampaignResult.monitor_outputs``).
        Scoring runs through the bulk offline engine
        (:mod:`repro.serving.bulk`) — one fused batch per stage per
        trial, sharing compiled plans across the whole campaign — on
        the ``monitor_backend`` inference backend; the default
        ``"reference"`` is bit-identical to the looped ``process()``.
    """
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    scorer = None
    if monitor is not None:
        from ..serving.bulk import BulkScorer

        scorer = BulkScorer(monitor, backend=monitor_backend)
    gen = as_generator(rng)
    workspace = workspace or Workspace()
    if base_demos is None:
        base_demos = generate_fault_free_demos(
            n_demos=20,
            workspace=workspace,
            sample_rate_hz=sample_rate_hz,
            rng=gen,
        )
    if not base_demos:
        raise ConfigurationError("base_demos must not be empty")

    injector = FaultInjector()
    simulator = RavenSimulator(
        workspace=workspace, physics=physics, camera=None, rng=gen
    )
    cells: list[CellResult] = []
    all_results: list[SimulationResult] = []
    monitor_outputs: list[MonitorOutput] = []
    demo_cursor = 0
    for cell in grid:
        cell_result = CellResult(cell)
        n = max(1, int(round(cell.n_injections * scale)))
        for _ in range(n):
            base = base_demos[demo_cursor % len(base_demos)]
            demo_cursor += 1
            spec = sample_fault_spec(cell, gen)
            faulty = injector.inject(base, spec)
            result = simulator.run(faulty)
            cell_result.record(outcome_error_category(result.outcome))
            if scorer is not None:
                output = scorer.score(result.kinematics_trajectory())
                cell_result.detected += int(output.unsafe_flags.any())
                monitor_outputs.append(output)
            if keep_results:
                all_results.append(result)
        cells.append(cell_result)
    return CampaignResult(
        cells=cells, results=all_results, monitor_outputs=monitor_outputs
    )


def sample_fault_spec(cell: CampaignCell, rng: np.random.Generator) -> FaultSpec:
    """Draw one concrete fault from a cell's parameter ranges."""
    g_lo, g_hi = cell.grasper_rad
    target = float(rng.uniform(g_lo, g_hi))
    gw_lo, gw_hi = cell.grasper_window
    # Jitter the window edges slightly inside the stated range.
    g_start = float(rng.uniform(gw_lo, gw_lo + 0.03))
    g_end = float(rng.uniform(gw_hi - 0.015, gw_hi))
    c_lo, c_hi = cell.cartesian_dev
    deviation = float(rng.uniform(c_lo, c_hi)) * CARTESIAN_UNIT_SCALE
    cw_lo, cw_hi = cell.cartesian_window
    c_start = float(rng.uniform(cw_lo, cw_lo + 0.03))
    c_end = float(rng.uniform(cw_hi - 0.015, cw_hi))
    return FaultSpec(
        grasper=GrasperAngleFault(target, FaultWindow(g_start, g_end)),
        cartesian=CartesianFault(deviation, FaultWindow(c_start, c_end)),
    )


def generate_fault_free_demos(
    n_demos: int = 20,
    operators: tuple[OperatorProfile, ...] = DEFAULT_OPERATORS,
    workspace: Workspace | None = None,
    sample_rate_hz: float = 50.0,
    rng: int | np.random.Generator | None = 0,
) -> list[CommandedTrajectory]:
    """Plan ``n_demos`` fault-free Block Transfer command streams."""
    if n_demos < 1:
        raise ConfigurationError("n_demos must be >= 1")
    gen = as_generator(rng)
    workspace = workspace or Workspace()
    task = BlockTransferTask(workspace=workspace, sample_rate_hz=sample_rate_hz)
    demos = []
    for i in range(n_demos):
        operator = operators[i % len(operators)]
        commands = task.plan(operator, gen)
        commands.metadata["demo_index"] = i
        demos.append(commands)
    return demos
