"""Tests for the inference backends (repro.nn.backends).

The compiled plan's contract: float64 agreement with the reference
backend within atol=1e-6 (folding the scaler and handing BLAS whole
batches instead of fixed-shape row blocks moves results by ~1e-15,
never more), float32 agreement at float32
resolution, and **zero array allocations** in a steady-state forward —
every buffer preallocated at compile time and reused across calls.
"""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.nn.backends import (
    BACKEND_NAMES,
    BULK_SCRATCH_BYTES,
    CompiledBackend,
    ReferenceBackend,
    make_backend,
    validate_backend_name,
)
from repro.nn.backends import compiled as compiled_module

#: Over ten warm forwards, tracemalloc's peak may grow by a few KB of
#: view/Python objects (measured ~2.6 KB); any real per-call array temp
#: at the tested batch size — including numpy's internal buffered-loop
#: transfer buffers (8-64 KB) the op set is designed to avoid — clears
#: this threshold, so it separates the two regimes cleanly.
ALLOC_SLACK_BYTES = 16 * 1024


def build(layers, T, F, loss, seed=0, scaler_seed=0):
    """A built+compiled model with a scaler fitted on seeded data."""
    model = nn.Sequential(layers, seed=seed)
    model.build((T, F))
    model.compile(loss, nn.Adam(1e-3))
    rng = np.random.default_rng(scaler_seed)
    scaler = nn.StandardScaler().fit(rng.standard_normal((64, T, F)) * 2.0 + 1.0)
    return scaler, model


def conv_binary(T=5, F=7, padding="same"):
    return build(
        [
            nn.Conv1D(6, 3, padding=padding),
            nn.ReLU(),
            nn.BatchNorm(),
            nn.GlobalAveragePool1D(),
            nn.Dense(5),
            nn.ReLU(),
            nn.Dropout(0.4),
            nn.Dense(1),
        ],
        T,
        F,
        nn.SigmoidBinaryCrossEntropy(),
    )


def lstm_multiclass(T=6, F=5):
    return build(
        [
            nn.LSTM(7, return_sequences=True),
            nn.LSTM(4),
            nn.BatchNorm(),
            nn.Dense(6),
            nn.ReLU(),
            nn.Dense(9),
        ],
        T,
        F,
        nn.SoftmaxCrossEntropy(),
    )


class TestFactory:
    def test_unknown_name_rejected(self):
        scaler, model = conv_binary()
        with pytest.raises(ConfigurationError, match="unknown inference backend"):
            make_backend("turbo", scaler, model)
        with pytest.raises(ConfigurationError):
            validate_backend_name("turbo")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_name_builds(self, name):
        scaler, model = conv_binary()
        backend = make_backend(name, scaler, model, max_batch=4)
        assert backend.name == name
        x = np.random.default_rng(0).standard_normal((3, 5, 7))
        assert backend.predict_proba(x).shape[0] == 3

    def test_compiled_requires_fitted_scaler(self):
        scaler, model = conv_binary()
        with pytest.raises(NotFittedError, match="fitted scaler"):
            CompiledBackend(nn.StandardScaler(), model)

    def test_compiled_requires_compiled_model(self):
        scaler, model = conv_binary()
        model.loss = None
        with pytest.raises(NotFittedError, match="compiled model"):
            CompiledBackend(scaler, model)

    def test_compiled_rejects_width_mismatch(self):
        scaler, model = conv_binary(F=7)
        rng = np.random.default_rng(0)
        wrong = nn.StandardScaler().fit(rng.standard_normal((8, 5, 9)))
        with pytest.raises(ShapeError):
            CompiledBackend(wrong, model)

    def test_compiled_rejects_bad_input_shape(self):
        scaler, model = conv_binary()
        backend = CompiledBackend(scaler, model, max_batch=4)
        with pytest.raises(ShapeError):
            backend.predict_proba(np.zeros((2, 4, 7)))


class TestCompiledParity:
    """Folded plans match the reference far inside the 1e-6 contract."""

    CASES = {
        "conv-same": lambda: conv_binary(padding="same"),
        "conv-valid": lambda: build(
            [
                nn.Conv1D(4, 3, padding="valid"),
                nn.Tanh(),
                nn.MaxPool1D(2),
                nn.Flatten(),
                nn.Dense(3),
            ],
            9,
            4,
            nn.SoftmaxCrossEntropy(),
        ),
        "stacked-lstm": lstm_multiclass,
        "dense-first": lambda: build(
            [nn.Dense(8), nn.ReLU(), nn.GlobalAveragePool1D(), nn.Dense(1)],
            4,
            6,
            nn.SigmoidBinaryCrossEntropy(),
        ),
        # First layer not affine-foldable: the plan falls back to a
        # preallocated standardisation stage.
        "nonfoldable-first": lambda: build(
            [nn.Sigmoid(), nn.Flatten(), nn.Dense(3)],
            3,
            4,
            nn.SoftmaxCrossEntropy(),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_float64_matches_reference(self, case):
        scaler, model = self.CASES[case]()
        T, F = model.layers[0].input_shape
        rng = np.random.default_rng(7)
        x = rng.standard_normal((11, T, F)) * 3.0 + 0.5
        ref = ReferenceBackend(scaler, model)
        comp = CompiledBackend(scaler, model, max_batch=16)
        np.testing.assert_allclose(
            comp.predict_proba(x), ref.predict_proba(x), atol=1e-9
        )
        assert np.array_equal(comp.predict(x), ref.predict(x))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_float32_matches_at_f32_resolution(self, case):
        scaler, model = self.CASES[case]()
        T, F = model.layers[0].input_shape
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, T, F))
        ref = ReferenceBackend(scaler, model)
        f32 = CompiledBackend(scaler, model, max_batch=8, dtype=np.float32)
        np.testing.assert_allclose(
            f32.predict_proba(x), ref.predict_proba(x), atol=5e-4
        )

    def test_batchnorm_running_stats_are_folded(self):
        """Non-trivial running statistics (post-training state) survive
        the scale-shift fold."""
        scaler, model = conv_binary()
        bn = next(x for x in model.layers if isinstance(x, nn.BatchNorm))
        rng = np.random.default_rng(3)
        bn.running_mean[...] = rng.standard_normal(bn.running_mean.shape)
        bn.running_var[...] = rng.random(bn.running_var.shape) + 0.25
        x = rng.standard_normal((5, 5, 7))
        ref = ReferenceBackend(scaler, model)
        comp = CompiledBackend(scaler, model, max_batch=8)
        np.testing.assert_allclose(
            comp.predict_proba(x), ref.predict_proba(x), atol=1e-9
        )

    def test_oversize_batches_are_chunked(self):
        scaler, model = lstm_multiclass()
        rng = np.random.default_rng(9)
        x = rng.standard_normal((19, 6, 5))
        ref = ReferenceBackend(scaler, model)
        comp = CompiledBackend(scaler, model, max_batch=4)
        np.testing.assert_allclose(
            comp.predict_proba(x), ref.predict_proba(x), atol=1e-9
        )
        assert np.array_equal(comp.predict(x), ref.predict(x))

    def test_empty_batch(self):
        scaler, model = conv_binary()
        comp = CompiledBackend(scaler, model, max_batch=4)
        assert comp.predict_proba(np.empty((0, 5, 7))).shape[0] == 0

    def test_saturating_preactivations_stay_finite(self):
        """The clipped in-place sigmoid saturates instead of overflowing."""
        scaler, model = conv_binary()
        comp = CompiledBackend(scaler, model, max_batch=4)
        x = np.full((2, 5, 7), 1e4)
        with np.errstate(over="raise"):
            probs = comp.predict_proba(x)
        assert np.isfinite(probs).all()
        assert ((probs >= 0.0) & (probs <= 1.0)).all()


class TestScratchReuse:
    """The acceptance criterion: steady-state forwards allocate no
    array data — outputs alias the plan's preallocated scratch and
    repeated calls reuse the identical memory."""

    @pytest.mark.parametrize(
        "factory", [conv_binary, lstm_multiclass], ids=["conv", "lstm"]
    )
    def test_outputs_alias_preallocated_scratch(self, factory):
        scaler, model = factory()
        T, F = model.layers[0].input_shape
        comp = CompiledBackend(scaler, model, max_batch=64)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, T, F))
        out1 = comp.predict_proba(x)
        assert any(np.shares_memory(out1, b) for b in comp.scratch_arrays())
        ptr = out1.__array_interface__["data"][0]
        out2 = comp.predict_proba(rng.standard_normal((64, T, F)))
        assert out2.__array_interface__["data"][0] == ptr
        cls1 = comp.predict(x)
        assert any(np.shares_memory(cls1, b) for b in comp.scratch_arrays())

    @pytest.mark.parametrize(
        "case", ["stacked-lstm", "conv-same", "conv-valid"]
    )
    def test_forward_allocates_no_array_data(self, case):
        """tracemalloc sees numpy data allocations; warm forwards must
        stay within small-object (view) noise, far below any layer temp
        — across the LSTM, padded-conv and trimming-MaxPool op sets."""
        scaler, model = TestCompiledParity.CASES[case]()
        T, F = model.layers[0].input_shape
        comp = CompiledBackend(scaler, model, max_batch=64)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((64, T, F))
        comp.predict_proba(x)
        comp.predict(x)  # warm both paths
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(10):
                comp.predict_proba(x)
                comp.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < ALLOC_SLACK_BYTES

    def test_reference_backend_is_todays_path(self):
        """The reference backend is bit-identical to calling the scaler
        and model directly (the pre-backend tick engine)."""
        scaler, model = lstm_multiclass()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 6, 5))
        ref = ReferenceBackend(scaler, model)
        expected = model.predict_proba(scaler.transform(x))
        assert np.array_equal(ref.predict_proba(x), expected)
        assert np.array_equal(
            ref.predict(x), model.predict(scaler.transform(x))
        )


class TestBulkMethods:
    """forward_bulk/score_bulk: same answers, one fused plan execution."""

    def test_reference_delegates_to_predict(self):
        scaler, model = lstm_multiclass()
        ref = ReferenceBackend(scaler, model)
        x = np.random.default_rng(3).standard_normal((9, 6, 5))
        assert np.array_equal(ref.forward_bulk(x), ref.predict_proba(x))
        assert np.array_equal(ref.score_bulk(x), ref.predict(x))

    @pytest.mark.parametrize("case", ["conv-same", "stacked-lstm"])
    def test_compiled_bulk_matches_chunked(self, case):
        """An oversize batch through the grown bulk plan equals the
        max_batch-chunked serving path bit for bit (same float ops,
        batch-invariant op set)."""
        scaler, model = TestCompiledParity.CASES[case]()
        T, F = model.layers[0].input_shape
        comp = CompiledBackend(scaler, model, max_batch=4)
        x = np.random.default_rng(4).standard_normal((37, T, F))
        assert np.array_equal(comp.forward_bulk(x), comp.predict_proba(x))
        assert np.array_equal(comp.score_bulk(x), comp.predict(x))

    def test_bulk_plan_grows_geometrically_and_is_reused(self, monkeypatch):
        scaler, model = conv_binary()
        comp = CompiledBackend(scaler, model, max_batch=4)
        x = np.random.default_rng(5).standard_normal((37, 5, 7))
        comp.forward_bulk(x)
        plan = comp._bulk
        assert plan is not None
        assert plan.max_batch == 64  # 4 doubled up past 37
        comp.score_bulk(x)  # same size: plan reused, not recompiled
        assert comp._bulk is plan
        comp.forward_bulk(
            np.random.default_rng(6).standard_normal((100, 5, 7))
        )
        assert comp._bulk is not plan  # grown
        assert comp._bulk.max_batch == 128
        # The byte budget caps the growth: a budget of 200 windows'
        # scratch stops a fresh twin at 200 windows, not at 256, and
        # a longer batch is scored in slabs of that many.
        per_window = comp._window_bytes()
        assert per_window * comp.max_batch == sum(
            a.nbytes for a in comp.scratch_arrays()
        )
        monkeypatch.setattr(compiled_module, "BULK_SCRATCH_BYTES", 200 * per_window)
        comp = CompiledBackend(scaler, model, max_batch=4)
        x = np.random.default_rng(7).standard_normal((700, 5, 7))
        assert np.array_equal(comp.forward_bulk(x), comp.predict_proba(x))
        assert np.array_equal(comp.score_bulk(x), comp.predict(x))
        assert comp._bulk.max_batch == 200
        assert sum(a.nbytes for a in comp._bulk.scratch_arrays()) <= 200 * per_window
        # A serving plan already at the budget is its own bulk plan.
        comp = CompiledBackend(scaler, model, max_batch=256)
        assert np.array_equal(comp.forward_bulk(x), comp.predict_proba(x))
        assert comp._bulk is None

    def test_paper_width_bulk_scratch_stays_in_budget(self):
        """A paper-width gesture plan scoring a long procedure: the twin
        it caches holds at most ``BULK_SCRATCH_BYTES`` of scratch (a
        twin sized in windows held 653 MB after 3 000 frames)."""
        scaler, model = build(
            [nn.LSTM(512, return_sequences=True), nn.LSTM(96), nn.BatchNorm(),
             nn.Dense(64), nn.ReLU(), nn.Dense(15)],
            5,
            38,
            nn.SoftmaxCrossEntropy(),
        )
        comp = CompiledBackend(scaler, model, max_batch=16)
        x = np.random.default_rng(9).standard_normal((1500, 5, 38))
        probs = comp.forward_bulk(x).copy()
        assert comp._bulk is not None
        assert comp._bulk.max_batch > comp.max_batch
        assert sum(a.nbytes for a in comp._bulk.scratch_arrays()) <= BULK_SCRATCH_BYTES
        reference = ReferenceBackend(scaler, model).predict_proba(x)
        np.testing.assert_allclose(probs, reference, rtol=0, atol=1e-6)

    def test_small_batches_use_serving_plan(self):
        scaler, model = conv_binary()
        comp = CompiledBackend(scaler, model, max_batch=8)
        x = np.random.default_rng(7).standard_normal((5, 5, 7))
        out = comp.forward_bulk(x)
        assert comp._bulk is None  # within max_batch: no twin compiled
        assert np.array_equal(out, comp.predict_proba(x))

    def test_empty_batch(self):
        scaler, model = conv_binary()
        comp = CompiledBackend(scaler, model, max_batch=4)
        assert comp.forward_bulk(np.empty((0, 5, 7))).shape[0] == 0
        assert comp.score_bulk(np.empty((0, 5, 7))).shape == (0,)
