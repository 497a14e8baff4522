"""A paper-scale model costs its weights once.

``build()`` allocates parameters only; the first ``backward()``
allocates every gradient buffer of a layer at once, in ``params`` order,
and later steps write into them in place.  ``LSTM.build`` writes its
four orthogonal recurrent blocks straight into one ``Wh``.  The layer
path scores a procedure in 64-window chunks, so ``SafetyMonitor.process``
has a bounded working set.  The footprints are traced with
``tracemalloc`` after a warm-up (first-use imports and caches are not
the model's), and two digests, recorded before any of this changed,
show that none of it moved a bit of the weights or of training.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core.gesture_classifier import GestureClassifier, GestureClassifierConfig
from repro.nn.layers.contract import numerics_fingerprint
from repro.serving import make_random_walk_trajectory, make_synthetic_monitor

MiB = 2**20
PAPER = dict(n_features=38, seed=0, gesture_lstm_units=(512, 96), gesture_dense_units=64)


def paper_gesture_model():
    config = GestureClassifierConfig(lstm_units=(512, 96), dense_units=64, dropout=0.0)
    model = GestureClassifier(config, seed=0)._build_model()
    model.build((5, 38))
    return model


def traced(fn):
    """``(result, bytes still held, peak bytes)`` of ``fn()``."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def small_model():
    """Every layer type that owns parameters, in one trainable stack."""
    model = nn.Sequential(
        [nn.Conv1D(4, 3), nn.BatchNorm(), nn.LSTM(5, return_sequences=True),
         nn.LSTM(4), nn.Dense(3)],
        seed=0,
    )
    model.compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-2))
    return model


def digest(arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def monitor_digest(monitor):
    """Every weight, BatchNorm statistic and scaler array of a monitor."""
    owners = [monitor.gesture_classifier]
    owners += [monitor.library.classifiers[g] for g in sorted(monitor.library.classifiers)]
    return digest(
        array
        for owner in owners
        for array in (*owner.model.state_arrays(), owner.scaler.mean_, owner.scaler.scale_)
    )


def fit_digest():
    """The final weights of a small ``fit``."""
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((40, 6, 3)), rng.integers(0, 3, 40)
    model = small_model()
    model.fit(x, y, epochs=3, batch_size=8)
    return digest(model.state_arrays())


class TestWeightsOnce:
    def test_a_built_paper_model_holds_its_parameters_only(self):
        paper_gesture_model()  # warm-up
        model, held, peak = traced(paper_gesture_model)
        params = sum(p.nbytes for p in model.parameters())
        assert 10 * MiB < params < 11 * MiB
        assert held <= 1.02 * params  # 2x while build() zero-filled grads
        assert peak <= params + 8 * MiB
        assert all(not layer.grads for layer in model.layers)

    def test_the_first_backward_allocates_grads_and_later_steps_reuse_them(self):
        model = small_model()
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((8, 6, 3)), rng.integers(0, 3, 8)
        model.build(x.shape[1:])
        assert model.gradients() == []
        model._train_batch(x, y)
        for layer in model.layers:
            assert list(layer.grads) == list(layer.params)
            for key, grad in layer.grads.items():
                assert grad.shape == layer.params[key].shape
        first = [id(g) for g in model.gradients()]
        assert len(first) == len(model.parameters())
        model._train_batch(x, y)
        assert [id(g) for g in model.gradients()] == first


@pytest.mark.slow
@pytest.mark.parametrize(("n_frames", "ceiling_mib"), [(300, 12), (2000, 14)])
def test_process_peak_is_bounded_at_paper_scale(n_frames, ceiling_mib):
    """Was 47 MiB at 300 frames and 83 MiB at 2 000, growing with the
    procedure: 512-window batches, each standardised whole."""
    monitor = make_synthetic_monitor(**PAPER)
    monitor.process(make_random_walk_trajectory(40, n_features=38, seed=9))  # warm-up
    trajectory = make_random_walk_trajectory(n_frames, n_features=38, seed=3)
    _, _, peak = traced(lambda: monitor.process(trajectory))
    assert peak <= ceiling_mib * MiB


#: ``numerics_fingerprint() -> {(monitor digest, fit digest)}``, recorded
#: before gradient buffers became lazy and ``Wh`` was written in place,
#: under OpenBLAS's SkylakeX, Haswell, Sandybridge and Nehalem kernels at
#: 1 and 2 threads.  The orthogonal init's QR and training's GEMMs round
#: per kernel family, so the digests are that family's; the fingerprint
#: probes only the contraction, and two families share one.
RECORDED = {
    "92268dd7b54733d9": {("1f052bb7c5b37c6d", "f6a9ea2bcfb821d5")},
    "4a4e61339d636373": {("22b0aa6e3cc96717", "3705818c72ff05c3")},
    "17344a0604517f73": {("b1bd09ee7b91f3e2", "e95436ee93df8322")},
    "27cdeb69005774b1": {
        ("b1bd09ee7b91f3e2", "e95436ee93df8322"),
        ("79964f9b2bb50d44", "0c22107449b10878"),
    },
}


def test_weights_and_training_move_no_bit():
    recorded = RECORDED.get(numerics_fingerprint())
    if recorded is None:
        pytest.skip("no digests recorded for this BLAS kernel family")
    assert (monitor_digest(make_synthetic_monitor(**PAPER)), fit_digest()) in recorded
