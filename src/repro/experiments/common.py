"""Shared experiment infrastructure: scale presets and component training.

The paper's models were trained on a GPU over the full JIGSAWS/simulator
datasets; this reproduction runs on CPU with a from-scratch numpy
framework, so every experiment accepts a scale preset controlling data
volume and model width.  ``full`` approximates the paper's data sizes
(39 Suturing demos, 651 fault injections); ``fast`` gives the same
qualitative results in minutes; ``smoke`` exists for the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import MonitorConfig, TrainingConfig, WindowConfig
from ..core import (
    BaselineMonitor,
    ErrorClassifierLibrary,
    GestureClassifier,
    SafetyMonitor,
)
from ..core.error_classifiers import ErrorClassifierConfig
from ..core.gesture_classifier import GestureClassifierConfig
from ..errors import ConfigurationError
from ..faults.campaign import generate_fault_free_demos, run_campaign
from ..faults.outcomes import gesture_error_labels
from ..jigsaws.dataset import Demonstration, SurgicalDataset
from ..jigsaws.synthesis import make_suturing_dataset, make_task_dataset
from ..simulation.physics import PhysicsOutcome


@dataclass(frozen=True)
class ExperimentScale:
    """Data/model scale of an experiment run."""

    name: str
    #: Suturing demonstrations (paper: 39).
    suturing_demos: int
    #: Fault-injection campaign fraction (paper grid scale; 1.0 = 651).
    campaign_scale: float
    #: Block Transfer simulator kinematics rate (Hz).
    raven_rate_hz: float
    #: Gesture classifier LSTM widths.
    gesture_lstm: tuple[int, ...]
    gesture_dense: int
    gesture_epochs: int
    gesture_max_windows: int
    #: Error classifier widths.
    error_hidden: tuple[int, ...]
    error_dense: int
    error_epochs: int
    error_max_windows: int
    baseline_max_windows: int
    batch_size: int = 128
    learning_rate: float = 1e-3

    def gesture_config(
        self, window: WindowConfig | None = None
    ) -> GestureClassifierConfig:
        """Gesture-classifier configuration at this scale."""
        return GestureClassifierConfig(
            lstm_units=self.gesture_lstm,
            dense_units=self.gesture_dense,
            window=window or WindowConfig(5, 1),
            training=TrainingConfig(
                learning_rate=self.learning_rate,
                max_epochs=self.gesture_epochs,
                batch_size=self.batch_size,
            ),
            max_train_windows=self.gesture_max_windows,
        )

    def error_config(
        self, architecture: str = "conv", for_baseline: bool = False
    ) -> ErrorClassifierConfig:
        """Error-classifier configuration at this scale."""
        return ErrorClassifierConfig(
            architecture=architecture,
            hidden=self.error_hidden,
            dense_units=self.error_dense,
            training=TrainingConfig(
                learning_rate=self.learning_rate,
                max_epochs=self.error_epochs,
                batch_size=self.batch_size,
            ),
            max_train_windows=(
                self.baseline_max_windows if for_baseline else self.error_max_windows
            ),
        )


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        suturing_demos=12,
        campaign_scale=0.05,
        raven_rate_hz=30.0,
        gesture_lstm=(32, 16),
        gesture_dense=16,
        gesture_epochs=8,
        gesture_max_windows=6000,
        error_hidden=(16, 8),
        error_dense=8,
        error_epochs=8,
        error_max_windows=3000,
        baseline_max_windows=8000,
    ),
    "fast": ExperimentScale(
        name="fast",
        suturing_demos=39,
        campaign_scale=0.25,
        raven_rate_hz=30.0,
        gesture_lstm=(48, 24),
        gesture_dense=24,
        gesture_epochs=10,
        gesture_max_windows=12000,
        error_hidden=(24, 12),
        error_dense=12,
        error_epochs=20,
        error_max_windows=8000,
        baseline_max_windows=24000,
    ),
    "full": ExperimentScale(
        name="full",
        suturing_demos=39,
        campaign_scale=1.0,
        raven_rate_hz=50.0,
        gesture_lstm=(96, 48),
        gesture_dense=48,
        gesture_epochs=15,
        gesture_max_windows=40000,
        error_hidden=(48, 24),
        error_dense=24,
        error_epochs=30,
        error_max_windows=20000,
        baseline_max_windows=60000,
    ),
}


def get_scale(scale: "str | ExperimentScale" = "fast") -> ExperimentScale:
    """Resolve a preset name or pass through an explicit scale."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from exc


# ----------------------------------------------------------------------
# Suturing components
# ----------------------------------------------------------------------
@dataclass
class SuturingComponents:
    """Everything one Suturing LOSO fold trains."""

    train: SurgicalDataset
    test: SurgicalDataset
    gesture_classifier: GestureClassifier
    library: ErrorClassifierLibrary
    baseline: BaselineMonitor
    window: WindowConfig = field(default_factory=lambda: WindowConfig(5, 1))

    def monitor(self) -> SafetyMonitor:
        """The assembled context-aware safety monitor."""
        return SafetyMonitor(
            self.gesture_classifier,
            self.library,
            MonitorConfig(error_window=self.window),
        )


def train_suturing_fold(
    dataset: SurgicalDataset,
    scale: "str | ExperimentScale" = "fast",
    held_out_trial: int = 2,
    seed: int = 0,
    architecture: str = "conv",
) -> SuturingComponents:
    """Train all components for one LOSO fold of ``dataset``."""
    preset = get_scale(scale)
    train, test = dataset.split_by_trials(held_out_trial)
    window = WindowConfig(5, 1)

    gesture = GestureClassifier(preset.gesture_config(window), seed=seed)
    gesture.fit(train)

    data = train.windows(window)
    library = ErrorClassifierLibrary(preset.error_config(architecture), seed=seed + 1)
    library.fit(data)
    baseline = BaselineMonitor(
        preset.error_config(architecture, for_baseline=True), seed=seed + 2
    )
    baseline.fit(data)
    return SuturingComponents(
        train=train,
        test=test,
        gesture_classifier=gesture,
        library=library,
        baseline=baseline,
        window=window,
    )


# ----------------------------------------------------------------------
# Block Transfer dataset from the simulator + fault campaign
# ----------------------------------------------------------------------
def make_blocktransfer_dataset(
    scale: "str | ExperimentScale" = "fast",
    seed: int = 0,
    n_fault_free: int = 20,
) -> SurgicalDataset:
    """Build the Raven II Block Transfer dataset.

    Runs fault-free demonstrations plus a (scaled) fault-injection
    campaign, labels erroneous gestures from the injection records and
    physical outcomes (paper Section IV-B), and returns everything as a
    :class:`SurgicalDataset` whose trajectories carry the 38-variable
    JIGSAWS-style features.

    Demonstrations are assigned round-robin "trial" indices 1..5 so the
    same LOSO machinery applies.
    """
    preset = get_scale(scale)
    rng = np.random.default_rng(seed)
    demos: list[Demonstration] = []

    base = generate_fault_free_demos(
        n_demos=n_fault_free, sample_rate_hz=preset.raven_rate_hz, rng=rng
    )
    from ..simulation.robot import RavenSimulator

    simulator = RavenSimulator(camera=None, rng=rng)
    counter = 0
    for commands in base:
        result = simulator.run(commands)
        if result.outcome != PhysicsOutcome.SUCCESS:
            continue
        trajectory = result.kinematics_trajectory()
        trajectory.unsafe = np.zeros(trajectory.n_frames, dtype=int)
        trajectory.metadata["faulty"] = False
        demos.append(
            Demonstration(
                trajectory=trajectory,
                subject=commands.metadata.get("operator", "subject_a"),
                trial=(counter % 5) + 1,
                task="block_transfer",
            )
        )
        counter += 1

    campaign = run_campaign(
        scale=preset.campaign_scale,
        base_demos=base,
        sample_rate_hz=preset.raven_rate_hz,
        rng=rng,
        keep_results=True,
    )
    for result in campaign.results:
        trajectory = result.kinematics_trajectory()
        trajectory.unsafe = gesture_error_labels(result)
        trajectory.metadata["faulty"] = True
        trajectory.metadata["outcome"] = result.outcome.value
        demos.append(
            Demonstration(
                trajectory=trajectory,
                subject=result.metadata.get("operator", "subject_a"),
                trial=(counter % 5) + 1,
                task="block_transfer",
            )
        )
        counter += 1
    return SurgicalDataset(demos, task="block_transfer")


# ----------------------------------------------------------------------
# The one owner of "the dataset of ..." and "the trained fold of ..."
# ----------------------------------------------------------------------
#: Per-process memo, keyed on the arguments alone.  A hit returns the
#: very object the miss built, so no experiment may mutate what it is
#: handed (``tests/experiments/test_fidelity_claims.py`` checks).
_DATASETS: dict[tuple[str, ExperimentScale, int], SurgicalDataset] = {}
_FOLDS: dict[tuple[str, ExperimentScale, int, int], SuturingComponents] = {}


def dataset_of(
    task: str, scale: "str | ExperimentScale", seed: int
) -> SurgicalDataset:
    """The dataset of ``(task, scale, seed)``, generated once per process."""
    preset = get_scale(scale)
    key = (task, preset, seed)
    if key not in _DATASETS:
        if task == "block_transfer":
            _DATASETS[key] = make_blocktransfer_dataset(preset, seed=seed)
        elif task == "suturing":
            _DATASETS[key] = make_suturing_dataset(
                n_demos=preset.suturing_demos, rng=seed
            )
        else:  # knot_tying / needle_passing: Table IV only, paper sizes
            _DATASETS[key] = make_task_dataset(task, rng=seed)
    return _DATASETS[key]


def fold_of(
    task: str, scale: "str | ExperimentScale", seed: int, held_out_trial: int
) -> SuturingComponents:
    """The trained LOSO fold of ``(task, scale, seed, held-out trial)``,
    trained once per process on :func:`dataset_of` ``(task, scale, seed)``."""
    preset = get_scale(scale)
    key = (task, preset, seed, held_out_trial)
    if key not in _FOLDS:
        _FOLDS[key] = train_suturing_fold(
            dataset_of(task, preset, seed), preset, held_out_trial, seed=seed
        )
    return _FOLDS[key]
