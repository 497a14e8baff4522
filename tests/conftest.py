"""Shared fixtures: small datasets and trained components.

Expensive artefacts (synthetic datasets, trained classifiers) are
session-scoped so the whole suite pays for them once.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.config import TrainingConfig, WindowConfig
from repro.core import BaselineMonitor, ErrorClassifierLibrary, GestureClassifier
from repro.core.error_classifiers import ErrorClassifierConfig
from repro.core.gesture_classifier import GestureClassifierConfig
from repro.jigsaws import make_suturing_dataset
from repro.simulation import (
    RavenSimulator,
    VirtualCamera,
    Workspace,
    generate_demonstration,
)
from repro.simulation.teleop import DEFAULT_OPERATORS

#: The numeric core: an overflow or invalid value in a rewritten
#: activation or ring update must fail the test, not scroll past.
_WARNINGS_ARE_ERRORS = [
    Path(__file__).parent / name for name in ("nn", "kinematics")
]


def pytest_collection_modifyitems(items):
    strict = pytest.mark.filterwarnings("error::RuntimeWarning")
    for item in items:
        if any(d in item.path.parents for d in _WARNINGS_ARE_ERRORS):
            item.add_marker(strict)


@pytest.fixture(scope="session")
def suturing_dataset():
    """A 12-demo synthetic Suturing dataset (deterministic)."""
    return make_suturing_dataset(n_demos=12, rng=1234)


@pytest.fixture(scope="session")
def suturing_split(suturing_dataset):
    """(train, test) LOSO split of the session dataset."""
    return suturing_dataset.split_by_trials(2)


@pytest.fixture(scope="session")
def tiny_gesture_classifier(suturing_split):
    """A small trained gesture classifier (few epochs)."""
    train, _ = suturing_split
    config = GestureClassifierConfig(
        lstm_units=(32, 16),
        dense_units=16,
        training=TrainingConfig(learning_rate=1e-3, max_epochs=8, batch_size=128),
        max_train_windows=6000,
    )
    clf = GestureClassifier(config, seed=0)
    clf.fit(train)
    return clf


@pytest.fixture(scope="session")
def tiny_error_config():
    """Error-classifier configuration used across core tests."""
    return ErrorClassifierConfig(
        architecture="conv",
        hidden=(12,),
        dense_units=8,
        training=TrainingConfig(learning_rate=1e-3, max_epochs=6, batch_size=128),
        max_train_windows=2500,
    )


@pytest.fixture(scope="session")
def tiny_library(suturing_split, tiny_error_config):
    """A small trained per-gesture error classifier library."""
    train, _ = suturing_split
    data = train.windows(WindowConfig(5, 1))
    library = ErrorClassifierLibrary(tiny_error_config, seed=1)
    library.fit(data)
    return library


@pytest.fixture(scope="session")
def tiny_baseline(suturing_split, tiny_error_config):
    """A small trained non-context baseline monitor."""
    train, _ = suturing_split
    data = train.windows(WindowConfig(5, 1))
    baseline = BaselineMonitor(tiny_error_config, seed=2)
    baseline.fit(data)
    return baseline


@pytest.fixture(scope="session")
def block_transfer_run():
    """One simulated fault-free Block Transfer trial with video."""
    workspace = Workspace()
    camera = VirtualCamera(workspace.extent_mm)
    simulator = RavenSimulator(workspace=workspace, camera=camera, rng=7)
    commands = generate_demonstration(
        DEFAULT_OPERATORS[0], workspace=workspace, rng=8, sample_rate_hz=50.0
    )
    return commands, simulator.run(commands)


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(99)
