"""Tests for repro.config."""

import numpy as np
import pytest

from repro.config import (
    MonitorConfig,
    TrainingConfig,
    WindowConfig,
    as_generator,
    frames_to_ms,
    ms_to_frames,
)
from repro.errors import ConfigurationError


class TestAsGenerator:
    def test_none_yields_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = as_generator(42).integers(0, 1000, 10)
        b = as_generator(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_rejects_bad_type(self):
        with pytest.raises(ConfigurationError):
            as_generator("not a seed")


class TestFrameConversion:
    def test_round_trip(self):
        assert ms_to_frames(frames_to_ms(17, 30.0), 30.0) == pytest.approx(17)

    def test_paper_values(self):
        # The paper reports -1.7 frames as -57 ms at 30 Hz.
        assert frames_to_ms(-1.7, 30.0) == pytest.approx(-56.7, abs=0.1)
        # And -50.8 frames as about -1693 ms.
        assert frames_to_ms(-50.8, 30.0) == pytest.approx(-1693, abs=1)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            frames_to_ms(1, 0.0)
        with pytest.raises(ConfigurationError):
            ms_to_frames(1, -5.0)


class TestWindowConfig:
    def test_n_windows_basic(self):
        cfg = WindowConfig(window=5, stride=1)
        assert cfg.n_windows(5) == 1
        assert cfg.n_windows(10) == 6
        assert cfg.n_windows(4) == 0

    def test_n_windows_stride(self):
        cfg = WindowConfig(window=4, stride=3)
        assert cfg.n_windows(10) == 3  # starts at 0, 3, 6

    @pytest.mark.parametrize("window,stride", [(0, 1), (5, 0), (-1, 2)])
    def test_rejects_invalid(self, window, stride):
        with pytest.raises(ConfigurationError):
            WindowConfig(window=window, stride=stride)


class TestTrainingConfig:
    def test_defaults_valid(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"max_epochs": 0},
            {"validation_fraction": 1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingConfig(**kwargs)


class TestMonitorConfig:
    def test_defaults(self):
        cfg = MonitorConfig()
        assert cfg.frame_rate_hz == 30.0
