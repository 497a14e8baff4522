"""Demonstration containers, LOSO splits and windowed tensor extraction.

The paper trains and evaluates with the Leave-One-SuperTrial-Out (LOSO)
protocol of the JIGSAWS benchmark: supertrial ``i`` groups the i-th trial
of every subject; models train on four supertrials and test on the held
out one, averaged over the five folds (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..config import WindowConfig
from ..errors import DatasetError
from ..gestures.vocabulary import Gesture, N_GESTURE_CLASSES
from ..kinematics.trajectory import Trajectory
from ..kinematics.windows import sliding_windows, window_labels


@dataclass
class Demonstration:
    """One annotated task execution."""

    trajectory: Trajectory
    subject: str
    trial: int
    task: str

    def __post_init__(self) -> None:
        if self.trajectory.gestures is None:
            raise DatasetError("demonstrations require gesture labels")

    @property
    def n_frames(self) -> int:
        """Number of kinematics frames."""
        return self.trajectory.n_frames

    def gesture_sequence(self) -> list[int]:
        """Gesture numbers in order of occurrence (deduplicated runs)."""
        return [g for g, _, _ in self.trajectory.gesture_segments()]


@dataclass
class WindowedData:
    """Windowed tensors extracted from a set of demonstrations.

    Attributes
    ----------
    x:
        Windows, shape ``(n, window, n_features)``.
    gesture:
        Per-window gesture class indices (0-based), shape ``(n,)``.
    unsafe:
        Per-window unsafe labels (0/1), shape ``(n,)``; all zeros when
        the demonstrations carry no unsafe annotation.
    demo_index:
        Which demonstration each window came from.
    end_frame:
        Index of the window's final frame within its demonstration.
    """

    x: np.ndarray
    gesture: np.ndarray
    unsafe: np.ndarray
    demo_index: np.ndarray
    end_frame: np.ndarray

    @property
    def n_windows(self) -> int:
        """Number of extracted windows."""
        return int(self.x.shape[0])

    def subset(self, mask: np.ndarray) -> "WindowedData":
        """Row-subset of every tensor."""
        return WindowedData(
            x=self.x[mask],
            gesture=self.gesture[mask],
            unsafe=self.unsafe[mask],
            demo_index=self.demo_index[mask],
            end_frame=self.end_frame[mask],
        )

    def for_gesture(self, gesture: Gesture) -> "WindowedData":
        """Windows whose label is ``gesture``."""
        return self.subset(self.gesture == gesture.class_index)


@dataclass
class SurgicalDataset:
    """A collection of demonstrations of one task."""

    demonstrations: list[Demonstration]
    task: str = "suturing"

    def __post_init__(self) -> None:
        if not self.demonstrations:
            raise DatasetError("a dataset needs at least one demonstration")

    def __len__(self) -> int:
        return len(self.demonstrations)

    def __iter__(self) -> Iterator[Demonstration]:
        return iter(self.demonstrations)

    @property
    def n_frames(self) -> int:
        """Total kinematics frames across all demonstrations."""
        return sum(d.n_frames for d in self.demonstrations)

    def erroneous_gesture_counts(self) -> tuple[int, int]:
        """(total gesture occurrences, erroneous occurrences)."""
        total = 0
        erroneous = 0
        for demo in self.demonstrations:
            traj = demo.trajectory
            if traj.unsafe is None:
                total += len(traj.gesture_segments())
                continue
            for _, start, end in traj.gesture_segments():
                total += 1
                if traj.unsafe[start:end].any():
                    erroneous += 1
        return total, erroneous

    # ------------------------------------------------------------------
    def windows(
        self,
        config: WindowConfig,
        feature_indices: np.ndarray | None = None,
        unsafe_reduce: str = "last",
    ) -> WindowedData:
        """Extract sliding windows from every demonstration.

        Windows never straddle demonstration boundaries.  Gesture labels
        use the window's final frame (causal); unsafe labels use
        ``unsafe_reduce`` (see :func:`repro.kinematics.window_labels`).
        """
        xs, gs, us, ds, es = [], [], [], [], []
        for i, demo in enumerate(self.demonstrations):
            traj = demo.trajectory
            frames = traj.frames
            if feature_indices is not None:
                frames = frames[:, feature_indices]
            win, ends = sliding_windows(frames, config)
            if win.shape[0] == 0:
                continue
            assert traj.gestures is not None
            gesture = window_labels(traj.gestures, config, reduce="last")
            if traj.unsafe is not None:
                unsafe = window_labels(traj.unsafe, config, reduce=unsafe_reduce)
            else:
                unsafe = np.zeros(win.shape[0], dtype=int)
            xs.append(win)
            gs.append(gesture)
            us.append(unsafe)
            ds.append(np.full(win.shape[0], i))
            es.append(ends)
        if not xs:
            raise DatasetError("no demonstration long enough for the window config")
        gesture_numbers = np.concatenate(gs)
        if gesture_numbers.min() < 1 or gesture_numbers.max() > N_GESTURE_CLASSES:
            raise DatasetError("gesture labels outside the G1..G15 vocabulary")
        return WindowedData(
            x=np.concatenate(xs, axis=0),
            gesture=gesture_numbers - 1,  # 0-based class indices
            unsafe=np.concatenate(us),
            demo_index=np.concatenate(ds),
            end_frame=np.concatenate(es),
        )

    # ------------------------------------------------------------------
    def split_by_trials(
        self, held_out_trial: int
    ) -> tuple["SurgicalDataset", "SurgicalDataset"]:
        """LOSO fold: train on all trials except ``held_out_trial``."""
        train = [d for d in self.demonstrations if d.trial != held_out_trial]
        test = [d for d in self.demonstrations if d.trial == held_out_trial]
        if not train or not test:
            raise DatasetError(
                f"supertrial {held_out_trial} would leave an empty split"
            )
        return (
            SurgicalDataset(train, task=self.task),
            SurgicalDataset(test, task=self.task),
        )

    def supertrials(self) -> list[int]:
        """Sorted distinct trial indices present in the dataset."""
        return sorted({d.trial for d in self.demonstrations})


def loso_splits(
    dataset: SurgicalDataset,
) -> Iterator[tuple[int, SurgicalDataset, SurgicalDataset]]:
    """Iterate the Leave-One-SuperTrial-Out folds of a dataset.

    Yields ``(supertrial, train, test)`` for every supertrial.
    """
    for trial in dataset.supertrials():
        train, test = dataset.split_by_trials(trial)
        yield trial, train, test
