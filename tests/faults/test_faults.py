"""Tests for the fault-injection tool (types, injector, outcomes, campaign)."""

import numpy as np
import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    CartesianFault,
    FaultInjector,
    FaultSpec,
    FaultWindow,
    GrasperAngleFault,
    gesture_error_labels,
    outcome_error_category,
    run_campaign,
)
from repro.faults.campaign import TABLE_III_GRID, generate_fault_free_demos
from repro.simulation import PhysicsOutcome, RavenSimulator, Workspace
from repro.simulation.teleop import DEFAULT_OPERATORS


class TestFaultTypes:
    def test_window_to_frames(self):
        window = FaultWindow(0.25, 0.75)
        assert window.to_frames(100) == (25, 75)
        assert window.duration_frac == pytest.approx(0.5)

    def test_window_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultWindow(0.5, 0.5)
        with pytest.raises(FaultInjectionError):
            FaultWindow(-0.1, 0.5)

    def test_cartesian_per_axis(self):
        fault = CartesianFault(deviation_mm=np.sqrt(3.0), window=FaultWindow(0.1, 0.5))
        assert fault.per_axis_mm == pytest.approx(1.0)

    def test_spec_needs_component(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec()

    def test_describe(self):
        spec = FaultSpec(grasper=GrasperAngleFault(1.2, FaultWindow(0.5, 0.7)))
        assert "1.20rad" in spec.describe()


class TestInjector:
    def make_commands(self):
        return generate_fault_free_demos(n_demos=1, sample_rate_hz=50.0, rng=0)[0]

    def test_grasper_injection_reaches_target(self):
        commands = self.make_commands()
        spec = FaultSpec(grasper=GrasperAngleFault(1.4, FaultWindow(0.5, 0.8)))
        faulty = FaultInjector().inject(commands, spec)
        arm = commands.transfer_arm
        start, end = spec.grasper.window.to_frames(commands.n_steps)
        assert faulty.jaw_angles[arm][end - 1] == pytest.approx(1.4)
        # Original untouched.
        assert commands.jaw_angles[arm][end - 1] != pytest.approx(1.4)

    def test_cartesian_injection_offsets_positions(self):
        commands = self.make_commands()
        spec = FaultSpec(cartesian=CartesianFault(30.0, FaultWindow(0.4, 0.6)))
        faulty = FaultInjector().inject(commands, spec)
        arm = commands.transfer_arm
        start, end = spec.cartesian.window.to_frames(commands.n_steps)
        mid = (start + end) // 2
        delta = faulty.positions[arm][mid] - commands.positions[arm][mid]
        assert np.allclose(delta, 30.0 / np.sqrt(3.0), atol=1e-6)

    def test_mask_recorded(self):
        commands = self.make_commands()
        spec = FaultSpec(grasper=GrasperAngleFault(1.2, FaultWindow(0.5, 0.7)))
        faulty = FaultInjector().inject(commands, spec)
        mask = faulty.metadata["fault_mask"]
        start, end = spec.grasper.window.to_frames(commands.n_steps)
        assert mask[start] and mask[end - 1]
        assert not mask[start - 1] and not mask[min(end, len(mask) - 1)]


class TestOutcomeMapping:
    def test_categories(self):
        assert outcome_error_category(PhysicsOutcome.SUCCESS) is None
        assert outcome_error_category(PhysicsOutcome.BLOCK_DROP) == "block_drop"
        assert (
            outcome_error_category(PhysicsOutcome.DROPOFF_FAILURE)
            == "dropoff_failure"
        )

    def test_gesture_error_labels_mark_whole_gestures(self):
        commands = generate_fault_free_demos(n_demos=1, sample_rate_hz=50.0, rng=3)[0]
        spec = FaultSpec(grasper=GrasperAngleFault(1.4, FaultWindow(0.55, 0.70)))
        faulty = FaultInjector().inject(commands, spec)
        sim = RavenSimulator(camera=None, rng=1)
        result = sim.run(faulty)
        assert result.outcome == PhysicsOutcome.BLOCK_DROP
        labels = gesture_error_labels(result)
        assert labels.any()
        # Whole-gesture semantics: within each gesture run, labels uniform.
        gestures = result.gestures
        boundaries = np.flatnonzero(np.diff(gestures)) + 1
        for start, end in zip(
            np.concatenate([[0], boundaries]),
            np.concatenate([boundaries, [len(gestures)]]),
        ):
            segment = labels[start:end]
            assert segment.min() == segment.max()

    def test_fault_free_labels_all_zero(self):
        commands = generate_fault_free_demos(n_demos=1, sample_rate_hz=50.0, rng=4)[0]
        sim = RavenSimulator(camera=None, rng=1)
        result = sim.run(commands)
        assert not gesture_error_labels(result).any()


class TestCampaign:
    def test_grid_matches_paper_total(self):
        assert sum(cell.n_injections for cell in TABLE_III_GRID) == 651

    def test_scaled_campaign_dose_response(self):
        result = run_campaign(scale=0.1, sample_rate_hz=50.0, rng=0)
        by_bin = {}
        for cell in result.cells:
            key = cell.cell.grasper_rad
            stats = by_bin.setdefault(key, [0, 0, 0])
            stats[0] += cell.n_injections
            stats[1] += cell.block_drops
            stats[2] += cell.dropoff_failures
        # High grasper angles must drop the block far more often than low.
        low = by_bin[(0.3, 0.4)]
        high = by_bin[(1.3, 1.4)]
        assert high[1] / high[0] > 0.6
        assert low[1] == 0
        # Low angles with long injections produce dropoff failures.
        assert low[2] > 0

    def test_keep_results(self):
        result = run_campaign(scale=0.02, sample_rate_hz=50.0, rng=1, keep_results=True)
        assert len(result.results) == result.total_injections

    def test_fault_free_demos_deterministic(self):
        a = generate_fault_free_demos(n_demos=2, rng=11)
        b = generate_fault_free_demos(n_demos=2, rng=11)
        assert np.allclose(a[0].positions["left"], b[0].positions["left"])

    def test_operators_alternate(self):
        demos = generate_fault_free_demos(n_demos=4, rng=0)
        names = [d.metadata["operator"] for d in demos]
        assert names[0] != names[1]
        assert names[0] == names[2]


class TestMonitoredCampaign:
    def test_bulk_and_looped_scoring_identical(self):
        """The monitored campaign scores through the bulk engine as a
        pure perf choice: per-trial monitor outputs are bit-identical to
        the looped ``process()`` on the same trial, so the detections
        are the ones the looped path would count."""
        from repro.serving import make_synthetic_monitor

        monitor = make_synthetic_monitor(n_features=38, seed=0)
        campaign = run_campaign(
            scale=0.02, sample_rate_hz=50.0, rng=3, monitor=monitor, keep_results=True
        )

        assert len(campaign.monitor_outputs) == campaign.total_injections
        detected = 0
        for result, b_out in zip(campaign.results, campaign.monitor_outputs):
            l_out = monitor.process(result.kinematics_trajectory())
            np.testing.assert_array_equal(b_out.gestures, l_out.gestures)
            np.testing.assert_array_equal(b_out.unsafe_scores, l_out.unsafe_scores)
            np.testing.assert_array_equal(b_out.unsafe_flags, l_out.unsafe_flags)
            detected += int(l_out.unsafe_flags.any())
        assert campaign.total_detected == detected

    def test_unmonitored_campaign_has_no_detections(self):
        result = run_campaign(scale=0.02, sample_rate_hz=50.0, rng=1)
        assert result.total_detected == 0
        assert result.monitor_outputs == []

